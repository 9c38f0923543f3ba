//! The traced run: one sweep over a workload's generated inputs that puts
//! a clock around every call into each layer's public functions.
//!
//! The sweep is the same on every workload; only the inputs differ (the
//! seeded job order, and for `edit-resubmit` the edited sources). Steps:
//!
//! 1. **pipeline** — each program through `homc::verify` (untraced) and
//!    through the [`replica`](crate::replica) (traced), in alternating
//!    order. The two must agree on verdict, cycles and `smt_queries`;
//!    their difference is the tracing overhead. The replica gives the
//!    layer times; the counts come from the untraced run's `VerifyStats`.
//! 2. **serve/batch** — the untraced runs' private caches are unioned and
//!    published as one segment (`DiskCache::publish`), loaded back
//!    (`DiskCache::load`), seeded into a private cache per job
//!    (`seed_cache`) and re-verified warm; then the whole warm batch runs
//!    through `run_batch`.
//! 3. **smt replay** — every check-table record of that segment is solved
//!    again by an uncached `SmtSolver::check`; a verdict that differs from
//!    the recorded one fails the run.
//! 4. **artifact** — a seeding `verify` per program publishes its artifact,
//!    which is loaded (`ArtifactStore::load`). Before each resubmit the
//!    loaded artifact is published again (`ArtifactStore::publish`), so
//!    every resubmit starts from the seeded store. On `edit-resubmit` the
//!    program is resubmitted once per literal edit, all of them; elsewhere
//!    once, unchanged. The resubmitted verdict must equal the seeding one.
//! 5. **evidence/evcheck** — `verify` with an `EvidenceConfig` minus the
//!    step-1 `verify` without it, `EvidenceStore::publish`,
//!    `EvidenceStore::load` and `check_evidence`.
//!
//! A wrong verdict or a rejected certificate counts as a failed operation
//! and the sweep goes on, so the failure rate is measured. A failed guard,
//! a replica disagreement or a replay mismatch ends the sweep with an
//! error: its figures would describe something else.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use homc::{
    check_evidence, run_batch, seed_cache, ArtifactConfig, ArtifactStore, BatchJob, BatchOptions,
    DiskCache, EvidenceConfig, EvidenceStore, Expected, Metrics, QueryCache, Verdict,
    VerifierOptions, VerifyOutcome,
};
use homc_serve::Record;
use homc_smt::{CachedSat, SatResult, SmtSolver};
use homc_trace::stable_hash64;

use crate::replica::{self, Layers};

/// Batch pool width: the benchmark machine's core count, as in the
/// end-to-end `batch-warm` workload.
const WORKERS: usize = 2;

/// One generated input program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Suite name; also the store key.
    pub name: String,
    /// Source as in the suite.
    pub source: String,
    /// The source with each of its literals `k` in turn wrapped as
    /// `(0 + k)`, in seeded order; the source itself if it has none.
    pub edits: Vec<String>,
    /// The Table 1 expectation.
    pub expected: Expected,
}

impl Program {
    /// The source a workload submits: the first edit on `edit-resubmit`.
    pub fn input(&self, edited: bool) -> &str {
        if edited {
            &self.edits[0]
        } else {
            &self.source
        }
    }
}

/// Per-layer metric values of one sweep, by metric name.
pub type Sample = BTreeMap<&'static str, f64>;

/// Operations a sweep attempted (verdicts, resubmits, checks, replays).
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Whether `verdict` counts as a pass for `expected`, the way the `homc`
/// tally counts one.
fn passes(verdict: &Verdict, expected: Expected) -> bool {
    match (verdict, expected) {
        (Verdict::Unknown { .. }, Expected::Diverges) => true,
        (Verdict::Unknown { .. }, _) => false,
        (_, Expected::Safe) => verdict.is_safe(),
        (_, Expected::Unsafe) => verdict.is_unsafe(),
        (_, Expected::Diverges) => !verdict.is_unsafe(),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The verdict class of a solver answer, for the replay comparison.
fn class_of_result(r: &SatResult) -> &'static str {
    match r {
        SatResult::Sat(_) => "sat",
        SatResult::Unsat => "unsat",
        SatResult::Unknown => "unknown",
        SatResult::Exhausted(_) => "exhausted",
    }
}

fn class_of_cached(c: &CachedSat) -> &'static str {
    match c {
        CachedSat::Sat(_) => "sat",
        CachedSat::Unsat => "unsat",
        CachedSat::Unknown => "unknown",
    }
}

fn verify_with(src: &str, opts: &VerifierOptions) -> Result<(VerifyOutcome, Duration), String> {
    let t = Instant::now();
    let out = homc::verify(src, opts).map_err(|e| e.to_string())?;
    Ok((out, t.elapsed()))
}

/// Percentile `p` (0..=100) of sorted `xs`, nearest rank.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Runs one sweep over `programs` with scratch space under `work`.
/// `edited` selects the edited sources (the `edit-resubmit` workload's
/// inputs) for every step but the artifact seeding. Wrong verdicts are
/// counted in `ops` and reported on stderr; errors name the failed guard,
/// replica disagreement or replay mismatch that ended the sweep.
pub fn sweep(
    programs: &[Program],
    edited: bool,
    work: &Path,
    ops: &mut Ops,
) -> Result<Sample, String> {
    let _ = fs::remove_dir_all(work);
    fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut m = Sample::new();
    let mut verdict = |ok: bool, what: String| {
        ops.attempted += 1;
        if !ok {
            ops.failed += 1;
            eprintln!("homc-perfbench: {what}");
        }
    };
    let guard = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };

    // 1. pipeline: untraced verify vs the traced replica.
    let mut layers = Layers::default();
    let mut stats = homc::VerifyStats::default();
    let mut untraced = Duration::ZERO;
    let mut plain: Vec<(Duration, usize)> = Vec::new();
    let mut caches: Vec<Arc<QueryCache>> = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let src = p.input(edited);
        let cache = Arc::new(QueryCache::new());
        let opts = VerifierOptions {
            cache: Some(cache.clone()),
            ..VerifierOptions::default()
        };
        let (out, rep) = if i % 2 == 0 {
            let out = verify_with(src, &opts)?;
            (out, replica::run(src, &mut layers)?)
        } else {
            let rep = replica::run(src, &mut layers)?;
            (verify_with(src, &opts)?, rep)
        };
        let (out, dt) = out;
        untraced += dt;
        plain.push((dt, out.stats.smt_queries));
        caches.push(cache);
        verdict(
            passes(&out.verdict, p.expected),
            format!("{}: wrong verdict {}", p.name, out.verdict),
        );
        guard(
            rep.verdict == out.verdict
                && rep.cycles == out.stats.cycles
                && rep.smt_queries == out.stats.smt_queries,
            format!(
                "{}: replica disagrees with verify: {} C={} q={} vs {} C={} q={}",
                p.name,
                rep.verdict,
                rep.cycles,
                rep.smt_queries,
                out.verdict,
                out.stats.cycles,
                out.stats.smt_queries
            ),
        )?;
        stats.cycles += out.stats.cycles;
        stats.smt_queries += out.stats.smt_queries;
        stats.cache_hits += out.stats.cache_hits;
        stats.worklist_pops += out.stats.worklist_pops;
        stats.abs_defs_reused += out.stats.abs_defs_reused;
        stats.abs_defs_rebuilt += out.stats.abs_defs_rebuilt;
    }
    let total = secs(layers.total);
    m.insert("lang.front_s", secs(layers.front));
    m.insert("abs.busy_s", secs(layers.abs));
    m.insert("abs.defs_rebuilt", stats.abs_defs_rebuilt as f64);
    m.insert("abs.defs_reused", stats.abs_defs_reused as f64);
    m.insert(
        "abs.reuse_ratio",
        ratio(
            stats.abs_defs_reused as f64,
            (stats.abs_defs_reused + stats.abs_defs_rebuilt) as f64,
        ),
    );
    m.insert("hbp.busy_s", secs(layers.hbp));
    m.insert("hbp.worklist_pops", stats.worklist_pops as f64);
    m.insert("hbp.peak_terms", layers.peak_terms as f64);
    m.insert("cegar.trace_s", secs(layers.trace));
    m.insert("cegar.feas_s", secs(layers.feas));
    m.insert("cegar.interp_s", secs(layers.interp));
    m.insert("cegar.iterations", stats.cycles as f64);
    m.insert(
        "cegar.refine_changed_ratio",
        ratio(layers.refine_changed as f64, layers.refine_calls as f64),
    );
    m.insert("smt.queries", stats.smt_queries as f64);
    m.insert(
        "smt.hit_ratio",
        ratio(stats.cache_hits as f64, stats.smt_queries as f64),
    );
    m.insert(
        "traced.unattributed_frac",
        ratio(total - secs(layers.attributed()), total),
    );
    m.insert(
        "traced.overhead_frac",
        ratio(total - secs(untraced), secs(untraced)),
    );

    // 2. serve: publish the cold jobs' union, load it, seed per job.
    let seg_dir = work.join("cache");
    let union = QueryCache::new();
    for cache in &caches {
        for (k, v) in cache.export_new_check() {
            union.store_check(k, v);
        }
        for (k, v) in cache.export_new_cubes() {
            union.store_cube(k, v);
        }
    }
    drop(caches);
    let disk = DiskCache::new(&seg_dir);
    let t = Instant::now();
    disk.publish(&union)
        .map_err(|e| format!("cache publish: {e}"))?;
    m.insert("serve.cache_publish_s", secs(t.elapsed()));
    drop(union);
    let t = Instant::now();
    let (records, load) = disk.load().map_err(|e| format!("cache load: {e}"))?;
    m.insert("serve.cache_load_s", secs(t.elapsed()));
    m.insert("serve.cache_records", records.len() as f64);
    guard(
        load.quarantined == 0 && load.bad_records == 0 && !records.is_empty(),
        format!("cache load: {load}"),
    )?;
    let (mut seed_t, mut job_t) = (Duration::ZERO, Duration::ZERO);
    let (mut disk_hits, mut lookups) = (0u64, 0u64);
    for p in programs {
        let cache = Arc::new(QueryCache::new());
        let t = Instant::now();
        seed_cache(&cache, &records);
        seed_t += t.elapsed();
        let opts = VerifierOptions {
            cache: Some(cache),
            ..VerifierOptions::default()
        };
        let (out, dt) = verify_with(p.input(edited), &opts)?;
        job_t += dt;
        disk_hits += out.stats.disk_hits;
        lookups += out.stats.smt_queries as u64;
        verdict(
            passes(&out.verdict, p.expected),
            format!("{} (seeded): wrong verdict {}", p.name, out.verdict),
        );
    }
    guard(disk_hits > 0, "seeded jobs: no disk hits".into())?;
    m.insert("serve.cache_seed_s", secs(seed_t));
    m.insert(
        "serve.disk_hit_ratio",
        ratio(disk_hits as f64, lookups as f64),
    );
    m.insert("batch.job_s", secs(job_t));

    let jobs: Vec<BatchJob> = programs
        .iter()
        .map(|p| BatchJob {
            name: p.name.clone(),
            source: p.input(edited).to_string(),
            expected: Some(p.expected),
        })
        .collect();
    let bopts = BatchOptions {
        workers: WORKERS,
        cache_dir: Some(seg_dir.clone()),
        ..BatchOptions::default()
    };
    let t = Instant::now();
    let report = run_batch(jobs, &bopts).map_err(|e| format!("run_batch: {e}"))?;
    let pool = secs(t.elapsed());
    for j in &report.jobs {
        verdict(
            j.status == homc::JobStatus::Passed,
            format!("{} (batch): {}", j.name, j.verdict),
        );
    }
    guard(report.disk_hits > 0, "warm batch: no disk hits".into())?;
    let busy: f64 = report.jobs.iter().map(|j| secs(j.wall)).sum();
    m.insert("batch.pool_s", pool);
    m.insert("batch.worker_busy_frac", ratio(busy, pool * WORKERS as f64));

    // 3. smt replay of the segment's check table through an uncached solver.
    let mut lat_us = Vec::new();
    let mut mismatches = 0u64;
    let mut replay = Duration::ZERO;
    for r in &records {
        let Record::Check { key, value } = r else {
            continue;
        };
        let mut solver = SmtSolver::new();
        solver.set_bb_depth(key.1);
        let t = Instant::now();
        let got = solver.check(&key.0);
        let dt = t.elapsed();
        replay += dt;
        lat_us.push(dt.as_secs_f64() * 1e6);
        if class_of_result(&got) != class_of_cached(value) {
            mismatches += 1;
        }
    }
    drop(records);
    guard(
        mismatches == 0 && !lat_us.is_empty(),
        format!(
            "smt replay: {mismatches} of {} verdicts differ",
            lat_us.len()
        ),
    )?;
    lat_us.sort_by(f64::total_cmp);
    m.insert("smt.replay_qps", ratio(lat_us.len() as f64, secs(replay)));
    m.insert("smt.replay_p50_us", percentile(&lat_us, 50.0));
    m.insert("smt.replay_p99_us", percentile(&lat_us, 99.0));
    m.insert("smt.replay_mismatches", mismatches as f64);

    // 4. artifacts: seed and load; then republish before each resubmit.
    let art_dir = work.join("artifacts");
    let store = ArtifactStore::new(&art_dir);
    let (mut load_t, mut publish_t) = (Duration::ZERO, Duration::ZERO);
    let (mut skipped, mut entries) = (0usize, 0usize);
    for p in programs {
        let config = ArtifactConfig {
            dir: art_dir.clone(),
            key: p.name.clone(),
        };
        let opts = VerifierOptions {
            artifacts: Some(config),
            ..VerifierOptions::default()
        };
        let (seeded, _) = verify_with(&p.source, &opts)?;
        let t = Instant::now();
        let loaded = store
            .load(&p.name)
            .map_err(|e| format!("{}: artifact load: {e}", p.name))?;
        load_t += t.elapsed();
        let artifact = loaded
            .artifact
            .ok_or_else(|| format!("{}: no artifact published", p.name))?;
        let resubmits = if edited {
            &p.edits[..]
        } else {
            std::slice::from_ref(&p.source)
        };
        for (i, src) in resubmits.iter().enumerate() {
            // A verdict-reaching resubmit publishes over the seeded
            // artifact; publishing the loaded one restores it.
            let t = Instant::now();
            store
                .publish(&p.name, &artifact)
                .map_err(|e| format!("{}: artifact publish: {e}", p.name))?;
            publish_t += t.elapsed();
            let (resubmitted, _) = verify_with(src, &opts)?;
            skipped += resubmitted.stats.reverify_defs_skipped;
            entries += artifact.memo.len();
            verdict(
                resubmitted.verdict == seeded.verdict && passes(&resubmitted.verdict, p.expected),
                format!(
                    "{} (resubmit {i}): verdict {} differs from the seeding {}",
                    p.name, resubmitted.verdict, seeded.verdict
                ),
            );
        }
    }
    guard(
        skipped > 0,
        "artifact resubmits: no definitions skipped".into(),
    )?;
    m.insert("artifact.load_s", secs(load_t));
    m.insert("artifact.publish_s", secs(publish_t));
    m.insert("artifact.defs_skipped", skipped as f64);
    m.insert("artifact.skip_ratio", ratio(skipped as f64, entries as f64));

    // 5. evidence emission (costed against step 1's run without it),
    // publish, load and independent check.
    let ev_dir: PathBuf = work.join("evidence");
    let estore = EvidenceStore::new(&ev_dir);
    let (mut emit, mut extra) = (0.0f64, 0i64);
    let (mut epub, mut eload, mut echeck) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut bytes = 0u64;
    for (p, (plain_t, plain_q)) in programs.iter().zip(&plain) {
        let src = p.input(edited);
        let opts = VerifierOptions {
            evidence: Some(EvidenceConfig {
                dir: None,
                key: p.name.clone(),
                source_hash: stable_hash64(src),
            }),
            ..VerifierOptions::default()
        };
        let (out, dt) = verify_with(src, &opts)?;
        emit += secs(dt) - secs(*plain_t);
        extra += out.stats.smt_queries as i64 - *plain_q as i64;
        let ev = out
            .evidence
            .ok_or_else(|| format!("{}: no evidence for {}", p.name, out.verdict))?;
        let t = Instant::now();
        let (path, _) = estore
            .publish(&p.name, &ev)
            .map_err(|e| format!("{}: evidence publish: {e}", p.name))?;
        epub += t.elapsed();
        bytes += fs::metadata(&path).map(|md| md.len()).unwrap_or(0);
        let t = Instant::now();
        let loaded = estore
            .load(&p.name)
            .map_err(|e| format!("{}: evidence load: {e}", p.name))?;
        eload += t.elapsed();
        let ev = loaded
            .evidence
            .ok_or_else(|| format!("{}: evidence did not load back", p.name))?;
        let t = Instant::now();
        let checked = check_evidence(src, &ev, &Metrics::disabled());
        echeck += t.elapsed();
        verdict(
            checked.is_ok(),
            format!("{}: evidence rejected: {:?}", p.name, checked.err()),
        );
    }
    m.insert("evidence.emit_s", emit);
    m.insert("evidence.extra_queries", extra as f64);
    m.insert("evidence.publish_s", secs(epub));
    m.insert("evidence.bytes", bytes as f64);
    m.insert("evcheck.load_s", secs(eload));
    m.insert("evcheck.check_s", secs(echeck));

    let _ = fs::remove_dir_all(work);
    Ok(m)
}
