//! `homc-bench`: the harness that regenerates the paper's Table 1.
//!
//! The binary `table1` prints, for each of the 30 suite programs, the same
//! columns the paper reports — S (source words), O (order), C (CEGAR
//! cycles), and the per-phase times `abst` / `mc` / `cegar` / `total` — side
//! by side with the paper's published values, plus a verdict check. Each
//! row runs exactly what `homc --suite <program>` runs (evidence, stores
//! and caches off), so its counters equal that command's `--stats`. The
//! plain timing benches (`benches/`) quantify the design choices called out
//! in DESIGN.md; process-level timings of warm, edit-resubmit and
//! certificate-check runs belong to `perfbench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use homc::{
    parse_json, suite::SuiteProgram, verify, Expected, JsonValue, Tracer, Verdict,
    VerifierOptions, VerifyOutcome, VerifyStats,
};

/// One row of the regenerated Table 1.
#[derive(Clone, Debug)]
pub struct Row {
    /// Program name.
    pub name: &'static str,
    /// The verification outcome.
    pub outcome: VerifyOutcome,
    /// Whether the verdict matches the paper's.
    pub verdict_ok: bool,
    /// The paper's cycle count for comparison.
    pub paper_cycles: usize,
    /// CEGAR iterations observed by the trace layer (count of `iter`
    /// events — includes exhausted/faulted iterations).
    pub iterations: usize,
    /// Peak boolean-program size (AST nodes) across iterations, from the
    /// trace layer's per-iteration `hbp_terms`.
    pub peak_hbp: usize,
}

/// Distills `(iterations, peak HBP size)` from a run's trace.
fn trace_metrics(trace: &str) -> (usize, usize) {
    let (mut iters, mut peak) = (0usize, 0usize);
    for line in trace.lines() {
        let Ok(v) = parse_json(line) else { continue };
        if v.get("ev").and_then(JsonValue::as_str) != Some("iter") {
            continue;
        }
        iters += 1;
        if let Some(h) = v.get("hbp_terms").and_then(JsonValue::as_num) {
            peak = peak.max(h as usize);
        }
    }
    (iters, peak)
}

/// Runs one suite program and checks its verdict against the paper's. The
/// run carries an in-memory tracer so the row can report iteration counts
/// and peak HBP size; the overhead (a few dozen formatted events) is noise
/// at the suite's time scales, and the tracer never changes a counter.
pub fn run_program(p: &SuiteProgram) -> Row {
    let tracer = Tracer::memory(false);
    let opts = VerifierOptions {
        tracer: tracer.clone(),
        ..VerifierOptions::default()
    };
    let outcome = verify(p.source, &opts).unwrap_or_else(|e| panic!("{}: {e}", p.name));
    let verdict_ok = match p.expected {
        Expected::Safe => outcome.verdict.is_safe(),
        Expected::Unsafe => outcome.verdict.is_unsafe(),
        Expected::Diverges => !outcome.verdict.is_unsafe(),
    };
    let (iterations, peak_hbp) = trace_metrics(&tracer.snapshot().unwrap_or_default());
    Row {
        name: p.name,
        outcome,
        verdict_ok,
        paper_cycles: p.paper_cycles,
        iterations,
        peak_hbp,
    }
}

/// Formats a row in the paper's column layout.
pub fn format_row(r: &Row) -> String {
    let v = match &r.outcome.verdict {
        Verdict::Safe => "safe",
        Verdict::Unsafe { .. } => "unsafe",
        Verdict::Unknown { .. } => "-",
    };
    let paper_c = if r.paper_cycles == usize::MAX {
        "-".to_string()
    } else {
        r.paper_cycles.to_string()
    };
    format!(
        "{:12} {:4} {:2} {:>4} ({:>2})  {:6.2} {:6.2} {:6.2} {:6.2}   {}{}",
        r.name,
        r.outcome.size,
        r.outcome.order,
        r.outcome.stats.cycles,
        paper_c,
        r.outcome.stats.abst.as_secs_f64(),
        r.outcome.stats.mc.as_secs_f64(),
        r.outcome.stats.cegar.as_secs_f64(),
        r.outcome.stats.total.as_secs_f64(),
        v,
        if r.verdict_ok { "" } else { "  ** MISMATCH **" },
    )
}

/// The baseline document's schema version. `bench-diff` compares two
/// documents of different schemas on the fields both carry. Schema 7
/// dropped the in-process warm, edit-resubmit and certificate-check columns
/// of schemas 5 and 6 (`warm_total_s`, `warm_disk_hits`, `incr_total_s`,
/// `check_s`, and their totals); `perfbench` times those scenarios as real
/// processes.
const SCHEMA: u64 = 7;

/// Escapes a string for a JSON string literal (the names and verdicts here
/// are ASCII identifiers, but quoting defensively costs nothing).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every run-table counter of `stats` as `, "name": value` JSON members.
fn counter_members(stats: &VerifyStats) -> String {
    let mut out = String::new();
    for (name, v) in stats.counters() {
        let _ = write!(out, ", \"{name}\": {v}");
    }
    out
}

/// Renders the collected rows as the benchmark-baseline JSON document: a
/// `meta` header, one object per program (verdict, trace-derived columns,
/// per-phase seconds and every run-table counter), and suite totals (each
/// counter merged by its row's rule: summed, or the maximum for peak bytes).
pub fn to_json(rows: &[Row]) -> String {
    let mut totals = VerifyStats::default();
    let mut wall = 0.0f64;
    let mut body = String::from("{\n");
    let _ = writeln!(
        body,
        "  \"meta\": {{\"schema\": {SCHEMA}, \"suite\": \"table1\", \"programs\": {}, \
         \"threads\": {}, \"clock\": \"wall\"}},",
        rows.len(),
        VerifierOptions::default().abs.threads,
    );
    body.push_str("  \"programs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let s = &r.outcome.stats;
        let verdict = match &r.outcome.verdict {
            Verdict::Safe => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Unknown { .. } => "unknown",
        };
        totals.absorb(s);
        wall += s.total.as_secs_f64();
        let _ = writeln!(
            body,
            "    {{\"name\": {}, \"verdict\": {}, \"verdict_ok\": {}, \
             \"iterations\": {}, \"peak_hbp\": {}, \
             \"abst_s\": {:.4}, \"mc_s\": {:.4}, \"cegar_s\": {:.4}, \"total_s\": {:.4}{}}}{}",
            json_str(r.name),
            json_str(verdict),
            r.verdict_ok,
            r.iterations,
            r.peak_hbp,
            s.abst.as_secs_f64(),
            s.mc.as_secs_f64(),
            s.cegar.as_secs_f64(),
            s.total.as_secs_f64(),
            counter_members(s),
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    let _ = write!(
        body,
        "  ],\n  \"totals\": {{\"wall_s\": {wall:.4}{}}}\n}}\n",
        counter_members(&totals),
    );
    body
}

/// A minimal timing loop for the `benches/` targets (plain `harness =
/// false` binaries — no external statistics crate on the air-gapped CI):
/// a warmup pass, `iters` measured runs, and a `name: min/mean/max` line.
pub fn time_it<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    use std::time::Instant;
    std::hint::black_box(f());
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    let min = samples.iter().min().expect("iters > 0");
    let max = samples.iter().max().expect("iters > 0");
    let mean = samples.iter().sum::<std::time::Duration>() / iters as u32;
    println!(
        "{name:32} min {:9.3}ms  mean {:9.3}ms  max {:9.3}ms  ({iters} iters)",
        min.as_secs_f64() * 1e3,
        mean.as_secs_f64() * 1e3,
        max.as_secs_f64() * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc::suite;

    #[test]
    fn harness_reproduces_a_known_row() {
        let p = suite::find("intro1").expect("present");
        let row = run_program(p);
        assert!(row.verdict_ok);
        assert!(row.outcome.verdict.is_safe());
        let line = format_row(&row);
        assert!(line.contains("intro1") && line.contains("safe"));
    }
}
