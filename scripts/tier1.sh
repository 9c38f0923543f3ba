#!/usr/bin/env bash
# Tier-1 CI gate: build, lint, test, and a bounded end-to-end suite run.
#
# Offline by design — no network, no external crates. Every stage runs
# under a hard wall-clock cap so a regression can slow things down but
# never wedge the runner.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--workspace --offline)
STAGE_CAP="${TIER1_STAGE_CAP:-900}" # seconds per stage

run() {
    echo "==> $*"
    timeout --signal=KILL "$STAGE_CAP" "$@"
}

run cargo build --release "${CARGO_FLAGS[@]}"

if command -v cargo-clippy >/dev/null 2>&1; then
    run cargo clippy "${CARGO_FLAGS[@]}" --all-targets -- -D warnings
else
    echo "==> clippy unavailable; skipping lint stage"
fi

run cargo test -q "${CARGO_FLAGS[@]}"

# End-to-end degradation check: with a 1-second per-program deadline the
# whole 28-program suite must terminate with a tally and exit 0 (unknown
# under budget is an outcome, not a failure). The run also exports a
# verdict certificate per decided program; `homc check` then re-validates
# every exported certificate independently of the CEGAR/SMT hot path
# (programs that stayed undecided export nothing and are tolerated in
# whole-suite mode).
EVD_DIR=target/evidence-smoke
rm -rf "$EVD_DIR"
run cargo run --release --offline --bin homc -- --suite --timeout 1 --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- check --suite --evidence-dir "$EVD_DIR"

# Evidence determinism: emission records its UNSAT answers from the
# parallel, model-guided abstraction, so two full-suite emissions into
# fresh directories must write byte-identical certificates, file for file,
# and every one of the 30 must check.
EVD_A=target/evidence-det-a
EVD_B=target/evidence-det-b
rm -rf "$EVD_A" "$EVD_B"
run cargo run --release --offline --bin homc -- --suite --evidence-dir "$EVD_A" >/dev/null
run cargo run --release --offline --bin homc -- --suite --evidence-dir "$EVD_B" >/dev/null
if ! cmp <(ls "$EVD_A") <(ls "$EVD_B"); then
    echo "tier1: evidence-smoke: two emissions wrote different file sets" >&2
    exit 1
fi
for f in "$EVD_A"/*.evd; do
    if ! cmp "$f" "$EVD_B/$(basename "$f")"; then
        echo "tier1: evidence-smoke: evidence emission is not deterministic" >&2
        exit 1
    fi
done
run cargo run --release --offline --bin homc -- check --suite --evidence-dir "$EVD_A" \
    | tee target/evidence-det-check.txt
if ! grep -q '^checked: 30 pass, 0 fail, 0 missing$' target/evidence-det-check.txt; then
    echo "tier1: evidence-smoke: not every suite certificate checked" >&2
    exit 1
fi

# Trace smoke: one traced suite run must produce a schema-valid JSONL
# trace (validated by the in-tree validator — no jq) and the report
# renderer must accept it. Uses the logical clock so the stage is
# deterministic across runners — which a second run plus trace-diff
# verifies byte-for-byte (exit 0 means no semantic differences either).
TRACE_SMOKE=target/trace-smoke.jsonl
TRACE_SMOKE2=target/trace-smoke-2.jsonl
run cargo run --release --offline --bin homc -- --suite intro1 --trace-logical "$TRACE_SMOKE"
run cargo run --release --offline --bin homc -- trace-validate "$TRACE_SMOKE"
run cargo run --release --offline --bin homc -- trace-report "$TRACE_SMOKE"
run cargo run --release --offline --bin homc -- --suite intro1 --trace-logical "$TRACE_SMOKE2"
run cmp "$TRACE_SMOKE" "$TRACE_SMOKE2"
run cargo run --release --offline --bin homc -- trace-diff "$TRACE_SMOKE" "$TRACE_SMOKE2"

# Profile smoke: the folded-stack self-profiler must produce telescoping,
# well-formed output (the profile subcommand exits non-zero if any child
# span overruns its parent or a folded line fails to parse).
PROFILE_SMOKE=target/profile-smoke.folded
run cargo run --release --offline --bin homc -- profile --suite intro1 -o "$PROFILE_SMOKE"
test -s "$PROFILE_SMOKE"

# Batch smoke: the crash-safe fleet path end to end. A cold `homc batch`
# run populates the persistent cache; a warm rerun must (a) answer queries
# from disk (nonzero disk hits, and the same count in its --metrics-out
# dump), (b) reproduce the cold run's verdicts exactly, (c) publish
# nothing, and (d) report the same per-job hits with 1 worker as with 4.
# Then a deterministic two-byte payload corruption (dd at a fixed
# offset inside the first record) must be quarantined while the verdicts
# still hold — a byte flip may cost cache hits, never correctness.
BATCH_CACHE=target/batch-cache
BATCH_COLD=target/batch-cold.txt
BATCH_WARM=target/batch-warm.txt
BATCH_DRILL=target/batch-drill.txt
BATCH_PROGRAMS=(sum max mult mc91)
rm -rf "$BATCH_CACHE"
run cargo run --release --offline --bin homc -- batch --workers 4 \
    --cache-dir "$BATCH_CACHE" "${BATCH_PROGRAMS[@]}" | tee "$BATCH_COLD"
BATCH_WARM_PROM=target/batch-warm.prom
run cargo run --release --offline --bin homc -- batch --workers 4 \
    --cache-dir "$BATCH_CACHE" --metrics-out "$BATCH_WARM_PROM" "${BATCH_PROGRAMS[@]}" \
    | tee "$BATCH_WARM"
verdicts() { sed -n 's/^\([a-zA-Z0-9_-]*\) *wall=[0-9.]* -> \(.*\)$/\1 \2/p' "$1"; }
HITS=$(sed -n 's/.*disk hits \([0-9]*\).*/\1/p' "$BATCH_WARM")
if [ "${HITS:-0}" -eq 0 ]; then
    echo "tier1: batch-smoke: warm rerun reported no disk-cache hits" >&2
    exit 1
fi
# The metrics registry must see the same disk hits the run reports.
PROM_HITS=$(sed -n 's/^homc_disk_hits_total \([0-9]*\)$/\1/p' "$BATCH_WARM_PROM")
if [ "${PROM_HITS:-0}" -eq 0 ] || [ "$PROM_HITS" -ne "$HITS" ]; then
    echo "tier1: batch-smoke: homc_disk_hits_total ${PROM_HITS:-missing} != disk hits $HITS" >&2
    exit 1
fi
if ! cmp -s <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_WARM"); then
    echo "tier1: batch-smoke: warm rerun flipped a verdict:" >&2
    diff <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_WARM") >&2 || true
    exit 1
fi
if grep -q '^cache publish:' "$BATCH_WARM"; then
    echo "tier1: batch-smoke: warm rerun published records already on disk" >&2
    exit 1
fi
# Per-job hit counts of a warm rerun must not depend on the worker count.
# The meta line names the worker count, so it is left out of the compare.
BATCH_W1=target/batch-warm-w1.json
BATCH_W4=target/batch-warm-w4.json
HOMC_BIN="${CARGO_TARGET_DIR:-target}/release/homc"
for w in 1 4; do
    echo "==> $HOMC_BIN batch --workers $w --json --logical --cache-dir $BATCH_CACHE"
    timeout --signal=KILL "$STAGE_CAP" "$HOMC_BIN" batch --workers "$w" --json --logical \
        --cache-dir "$BATCH_CACHE" "${BATCH_PROGRAMS[@]}" | sed '/"meta"/d' >"target/batch-warm-w$w.json"
done
if ! cmp "$BATCH_W1" "$BATCH_W4"; then
    echo "tier1: batch-smoke: warm --json differs between 1 and 4 workers:" >&2
    diff "$BATCH_W1" "$BATCH_W4" >&2 || true
    exit 1
fi
# Header is `homc-cache v1\n` (14 bytes), a record's payload starts 26
# bytes in: offset 40 lands inside the first record's payload, so the
# checksum must catch it and quarantine the segment.
BATCH_SEG=$(ls "$BATCH_CACHE"/seg-*.seg | head -1)
printf 'zz' | dd of="$BATCH_SEG" bs=1 seek=40 conv=notrunc status=none
run cargo run --release --offline --bin homc -- batch --workers 4 \
    --cache-dir "$BATCH_CACHE" "${BATCH_PROGRAMS[@]}" | tee "$BATCH_DRILL"
if ! grep -q '1 quarantined' "$BATCH_DRILL"; then
    echo "tier1: batch-smoke: corrupted segment was not quarantined" >&2
    exit 1
fi
if ! cmp -s <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_DRILL"); then
    echo "tier1: batch-smoke: corruption drill flipped a verdict:" >&2
    diff <(verdicts "$BATCH_COLD") <(verdicts "$BATCH_DRILL") >&2 || true
    exit 1
fi
# Concurrent publishers: two cold batch processes started at once on one
# fresh cache directory must each claim their own segment — neither may
# overwrite the other or leave a torn file — so the warm rerun loads both
# segments cleanly and answers from them.
SHARED_CACHE=target/batch-shared-cache
SHARED_WARM=target/batch-shared-warm.txt
rm -rf "$SHARED_CACHE"
echo "==> two concurrent homc batch --cache-dir $SHARED_CACHE"
timeout --signal=KILL "$STAGE_CAP" "$HOMC_BIN" batch --workers 2 \
    --cache-dir "$SHARED_CACHE" "${BATCH_PROGRAMS[@]}" >/dev/null &
SHARED_A=$!
timeout --signal=KILL "$STAGE_CAP" "$HOMC_BIN" batch --workers 2 \
    --cache-dir "$SHARED_CACHE" "${BATCH_PROGRAMS[@]}" >/dev/null &
SHARED_B=$!
for pid in "$SHARED_A" "$SHARED_B"; do
    if ! wait "$pid"; then
        echo "tier1: batch-smoke: a concurrent batch run failed" >&2
        exit 1
    fi
done
run "$HOMC_BIN" batch --workers 4 --cache-dir "$SHARED_CACHE" "${BATCH_PROGRAMS[@]}" \
    | tee "$SHARED_WARM"
if ! grep -q 'from 2 segments (0 bad, 0 quarantined, ' "$SHARED_WARM"; then
    echo "tier1: batch-smoke: concurrent publishers did not leave 2 clean segments" >&2
    exit 1
fi
SHARED_HITS=$(sed -n 's/.*disk hits \([0-9]*\).*/\1/p' "$SHARED_WARM")
if [ "${SHARED_HITS:-0}" -eq 0 ]; then
    echo "tier1: batch-smoke: warm rerun on the shared cache reported no disk hits" >&2
    exit 1
fi

# Incremental-abstraction smoke: on a multi-iteration program the
# transition memo must actually fire — iterations after the first reuse
# the definitions refinement did not touch. l-zipmap takes >= 3 CEGAR
# cycles, so a run with --stats must report a nonzero abs_defs_reused and
# still verify (verdict regressions here are caught as a failed tally).
ABS_SMOKE=target/abs-incremental-smoke.txt
run cargo run --release --offline --bin homc -- --suite l-zipmap --stats | tee "$ABS_SMOKE"
if ! grep -q 'passed 1, failed 0, unknown 0' "$ABS_SMOKE"; then
    echo "tier1: abs-incremental: l-zipmap no longer verifies" >&2
    exit 1
fi
if ! grep -q 'abs_defs_reused=[1-9]' "$ABS_SMOKE"; then
    echo "tier1: abs-incremental: transition memo reused nothing on a multi-iteration run" >&2
    exit 1
fi

# Cross-run incremental smoke: the warm-edit path end to end. Verify
# l-zipmap from a file with an artifact store, patch one integer literal
# (semantics preserved), and re-verify: the second run must replay prior
# per-definition abstractions (reverify_defs_skipped > 0) and reach the
# identical verdict. The 25% latency gate on the same scenario runs in
# the bench stage below, where both sides are measured in-process.
INCR_DIR=target/incr-smoke
INCR_SRC=target/incr-zipmap.ml
INCR_COLD=target/incr-cold.txt
INCR_WARM=target/incr-warm.txt
rm -rf "$INCR_DIR"
cat > "$INCR_SRC" <<'EOF'
let rec zip x y = if x = 0 then (if y = 0 then x else fail ()) else if y = 0 then fail () else 1 + zip (x - 1) (y - 1) in let rec map x = if x = 0 then x else 1 + map (x - 1) in if n >= 0 then assert (map (zip n n) = n) else ()
EOF
run cargo run --release --offline --bin homc -- "$INCR_SRC" --stats \
    --artifacts-dir "$INCR_DIR" | tee "$INCR_COLD"
sed -i 's/1 + map/(0 + 1) + map/' "$INCR_SRC"
run cargo run --release --offline --bin homc -- "$INCR_SRC" --stats \
    --artifacts-dir "$INCR_DIR" | tee "$INCR_WARM"
if ! grep -q 'reverify_defs_skipped=[1-9]' "$INCR_WARM"; then
    echo "tier1: incr-smoke: edit resubmit replayed no prior definitions" >&2
    exit 1
fi
incr_verdict() { sed -n 's/.* -> \([a-z]*\).*/\1/p' "$1" | head -1; }
if [ "$(incr_verdict "$INCR_COLD")" != "$(incr_verdict "$INCR_WARM")" ]; then
    echo "tier1: incr-smoke: edit resubmit flipped the verdict:" >&2
    echo "tier1:   cold: $(incr_verdict "$INCR_COLD")  warm: $(incr_verdict "$INCR_WARM")" >&2
    exit 1
fi

# Explain smoke: the evidence layer on one safe and one unsafe program,
# named explicitly so a missing certificate is a hard failure. Each
# program verifies with an evidence export, `homc check` re-establishes
# the verdict from the certificate alone, and `homc explain` renders the
# run narrative — which must be byte-deterministic across two runs.
EXPLAIN_A=target/explain-a.txt
EXPLAIN_B=target/explain-b.txt
run cargo run --release --offline --bin homc -- --suite intro1 --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- --suite sum-e --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- check --suite intro1 --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- check --suite sum-e --evidence-dir "$EVD_DIR"
run cargo run --release --offline --bin homc -- explain --suite intro1 | tee "$EXPLAIN_A" >/dev/null
run cargo run --release --offline --bin homc -- explain --suite intro1 | tee "$EXPLAIN_B" >/dev/null
run cmp "$EXPLAIN_A" "$EXPLAIN_B"
run cargo run --release --offline --bin homc -- explain --suite sum-e >/dev/null

# Ledger smoke: the fleet-observability loop end to end. Two batch runs
# append checksummed records to a scratch ledger; `homc history` must
# render a per-program trend over both runs; `homc regress` must gate the
# second run cleanly against the first (exit 0 — two steady runs of the
# same build cannot breach a 1.5x median gate with 100 ms slack). The
# progress stream written along the way must be schema-valid and replay
# through `homc top --snapshot`.
LEDGER_DIR=target/ledger-smoke
LEDGER_PROGRESS=target/ledger-progress.jsonl
LEDGER_HISTORY=target/ledger-history.txt
rm -rf "$LEDGER_DIR"
run cargo run --release --offline --bin homc -- batch --workers 2 \
    --ledger "$LEDGER_DIR" --progress "$LEDGER_PROGRESS" sum max mc91
run cargo run --release --offline --bin homc -- batch --workers 2 \
    --ledger "$LEDGER_DIR" sum max mc91
run cargo run --release --offline --bin homc -- trace-validate "$LEDGER_PROGRESS"
run cargo run --release --offline --bin homc -- top --snapshot "$LEDGER_PROGRESS"
run cargo run --release --offline --bin homc -- history "$LEDGER_DIR" | tee "$LEDGER_HISTORY"
if ! grep -q '3 program(s) over 2 run(s)' "$LEDGER_HISTORY"; then
    echo "tier1: ledger-smoke: history did not see both runs" >&2
    exit 1
fi
run cargo run --release --offline --bin homc -- regress "$LEDGER_DIR"

# Prometheus lint: --metrics-out must emit well-formed text exposition —
# every sample line's metric name matches [a-z_][a-z0-9_]*, every family
# has # HELP and # TYPE lines, every sample value is an integer.
PROM_OUT=target/metrics-smoke.prom
run cargo run --release --offline --bin homc -- --suite intro1 --metrics-out "$PROM_OUT"
test -s "$PROM_OUT"
if grep -vE '^(# (HELP|TYPE) [a-z_][a-z0-9_]* .*|[a-z_][a-z0-9_]*(\{[^}]*\})? [0-9]+)$' "$PROM_OUT" | grep -q .; then
    echo "tier1: prometheus-lint: malformed exposition line(s):" >&2
    grep -vE '^(# (HELP|TYPE) [a-z_][a-z0-9_]* .*|[a-z_][a-z0-9_]*(\{[^}]*\})? [0-9]+)$' "$PROM_OUT" >&2
    exit 1
fi
if ! grep -q '^# HELP ' "$PROM_OUT" || ! grep -q '^# TYPE ' "$PROM_OUT"; then
    echo "tier1: prometheus-lint: missing HELP/TYPE lines" >&2
    exit 1
fi

# Bench smoke: run Table 1 at full budget to a scratch file first and gate
# it against the checked-in baseline with bench-diff — a totals.wall_s
# regression past the gate thresholds (or any verdict flip) fails the
# stage *before* the baseline is refreshed, so a slow build cannot
# silently rewrite its own yardstick. The table1 run itself still fails
# on any verdict mismatch against the paper. A missing or stale-schema
# baseline fails fast with regeneration instructions instead of the
# opaque exit 3 that bench-diff would produce.
BENCH_SCRATCH=target/bench-table1.json
run cargo run --release --offline -p homc-bench --bin table1 -- --json "$BENCH_SCRATCH"
bench_schema() { sed -n 's/.*"schema": \([0-9]*\).*/\1/p' "$1" | head -1; }
# Warm-edit latency gate: on l-zipmap the edit-resubmit rerun must land at
# or under 25% of the cold wall (plus 20 ms of timer slack at these
# sub-second scales). bench-diff thresholds only express regressions
# (ratio >= 1.0), so this improvement floor is checked directly on the
# fresh scratch document; bench-diff below still gates verdict flips and
# slowdowns of the incr column against the committed baseline.
INCR_ROW=$(sed -n 's/.*"name": "l-zipmap".*"total_s": \([0-9.]*\).*"incr_total_s": \([0-9.]*\).*/\1 \2/p' "$BENCH_SCRATCH")
if [ -z "$INCR_ROW" ]; then
    echo "tier1: bench-smoke: scratch baseline has no l-zipmap incr_total_s row" >&2
    exit 1
fi
if ! awk -v row="$INCR_ROW" 'BEGIN { split(row, f, " "); exit !(f[2] <= f[1] * 0.25 + 0.02) }'; then
    echo "tier1: bench-smoke: l-zipmap edit resubmit missed the 25% warm-edit gate (cold/incr seconds: $INCR_ROW)" >&2
    exit 1
fi
bench_regen_hint() {
    echo "tier1: regenerate the baseline with:" >&2
    echo "tier1:   cargo run --release --offline -p homc-bench --bin table1 -- --json BENCH_table1.json" >&2
    echo "tier1: and commit the result." >&2
}
if [ ! -f BENCH_table1.json ]; then
    echo "tier1: BENCH_table1.json is missing — the bench gate has no baseline." >&2
    bench_regen_hint
    exit 1
fi
OLD_SCHEMA=$(bench_schema BENCH_table1.json)
NEW_SCHEMA=$(bench_schema "$BENCH_SCRATCH")
if [ "${OLD_SCHEMA:-none}" != "$NEW_SCHEMA" ]; then
    echo "tier1: BENCH_table1.json has schema ${OLD_SCHEMA:-none} but this build writes schema $NEW_SCHEMA — stale baseline (schema 6 added the evidence-checker column)." >&2
    bench_regen_hint
    exit 1
fi
run cargo run --release --offline --bin homc -- bench-diff BENCH_table1.json "$BENCH_SCRATCH" --gate
cp "$BENCH_SCRATCH" BENCH_table1.json

echo "tier1: OK"
