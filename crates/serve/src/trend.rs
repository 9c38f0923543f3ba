//! Trend analytics over the run ledger: `homc history` and `homc regress`.
//!
//! `history` renders per-program latency trends and percentile summaries
//! (log2-bucket quantiles from `homc-metrics`, so the numbers line up with
//! every other latency report in the tree). `regress` gates the newest run
//! against a trailing-window baseline: for each program, the new wall time
//! must not exceed `median(baseline) * ratio + slack`, and its verdict must
//! not differ from the most recent baseline verdict. Both sides become the
//! per-program maps of `homc_metrics::diff`, and the comparison is that
//! module's [`diff_programs`] — the core behind `trace-diff` and
//! `bench-diff` — so the exit codes are theirs: 0 clean, 1 latency breach,
//! 2 verdict flip, 3 incompatible record schema.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use homc_metrics::diff::{diff_programs, DiffReport, ProgramSummary, Threshold};
use homc_metrics::HistSnapshot;

use crate::ledger::{RunRecord, RECORD_SCHEMA};

/// Gate thresholds for [`regress`].
#[derive(Clone, Copy, Debug)]
pub struct TrendOptions {
    /// Trailing runs forming the baseline (the newest run excluded).
    pub window: usize,
    /// Latency breach when `new > median * ratio + slack_us`.
    pub ratio: f64,
    /// Absolute slack, µs — keeps micro-benchmark jitter from gating.
    pub slack_us: u64,
}

impl Default for TrendOptions {
    fn default() -> TrendOptions {
        TrendOptions {
            window: 5,
            ratio: 1.5,
            slack_us: 100_000,
        }
    }
}

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

fn by_run(records: &[RunRecord]) -> BTreeMap<u64, Vec<&RunRecord>> {
    let mut runs: BTreeMap<u64, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        runs.entry(r.run).or_default().push(r);
    }
    runs
}

/// Gates the newest run against the trailing-window baseline. Pure over its
/// inputs: the same ledger records and options always produce the same
/// report (programs are processed in sorted order). A program without
/// baseline samples is listed as new and not gated; a baseline program
/// missing from the newest run is not compared.
pub fn regress(records: &[RunRecord], opts: &TrendOptions) -> DiffReport {
    if let Some(foreign) = records.iter().find(|r| r.schema != RECORD_SCHEMA) {
        let msg = format!(
            "run {} record {:?} has schema {} but this build reads schema {}",
            foreign.run, foreign.program, foreign.schema, RECORD_SCHEMA
        );
        return DiffReport {
            text: format!("regress: incompatible ledger: {msg}\n"),
            incompatible: Some(msg),
            ..DiffReport::default()
        };
    }
    let runs = by_run(records);
    if runs.len() < 2 {
        return DiffReport {
            text: format!(
                "regress: insufficient history ({} run{}, need 2)\n",
                runs.len(),
                if runs.len() == 1 { "" } else { "s" }
            ),
            ..DiffReport::default()
        };
    }
    let (&newest_id, newest) = runs.iter().next_back().expect("non-empty");
    let baseline_ids: Vec<u64> = runs
        .keys()
        .rev()
        .skip(1)
        .take(opts.window.max(1))
        .copied()
        .collect();

    let mut report = DiffReport::default();
    let _ = writeln!(
        report.text,
        "regress: run {newest_id} vs baseline of {} run(s), gate = median*{} + {}ms",
        baseline_ids.len(),
        opts.ratio,
        opts.slack_us / 1000
    );
    let summary = |verdict: &str, wall_us: u64| ProgramSummary {
        verdict: verdict.to_string(),
        metrics: BTreeMap::from([("wall_ms".to_string(), wall_us as f64 / 1000.0)]),
        ..ProgramSummary::default()
    };
    let mut programs = newest.clone();
    programs.sort_by(|a, b| a.program.cmp(&b.program));
    let (mut old, mut new) = (BTreeMap::new(), BTreeMap::new());
    for rec in programs {
        // Baseline samples, most recent first (baseline_ids is descending).
        let samples: Vec<&RunRecord> = baseline_ids
            .iter()
            .flat_map(|id| runs[id].iter().copied())
            .filter(|b| b.program == rec.program)
            .collect();
        let Some(last) = samples.first() else {
            let _ = writeln!(
                report.text,
                "  {}: new program ({} ms), no baseline",
                rec.program,
                ms(rec.wall_us)
            );
            continue;
        };
        let mut walls: Vec<u64> = samples.iter().map(|b| b.wall_us).collect();
        walls.sort_unstable();
        old.insert(rec.program.clone(), summary(&last.verdict, walls[walls.len() / 2]));
        new.insert(rec.program.clone(), summary(&rec.verdict, rec.wall_us));
    }
    let gate = Threshold {
        ratio: opts.ratio,
        slack: opts.slack_us as f64 / 1000.0,
    };
    diff_programs("regress", report, &[("wall_ms".to_string(), gate)], &old, &new)
}

/// Renders per-program history. Without a filter: one row per program with
/// run count, latest verdict, latest wall time, p50/p90 quantile bounds, and
/// the trailing wall-time trend. With a filter: one row per run of that
/// program.
pub fn render_history(records: &[RunRecord], filter: Option<&str>) -> String {
    let mut text = String::new();
    if records.is_empty() {
        text.push_str("history: ledger is empty\n");
        return text;
    }
    if let Some(program) = filter {
        let _ = writeln!(
            text,
            "{:<6} {:<8} {:<10} {:>10} {:>10} {:>10} {:>12}",
            "run", "kind", "verdict", "wall ms", "abs ms", "mc ms", "peak KiB"
        );
        let mut seen = 0;
        for r in records.iter().filter(|r| r.program == program) {
            seen += 1;
            let _ = writeln!(
                text,
                "{:<6} {:<8} {:<10} {:>10} {:>10} {:>10} {:>12}",
                r.run,
                r.kind,
                r.verdict,
                ms(r.wall_us),
                ms(r.abst_us),
                ms(r.mc_us),
                r.peak_bytes / 1024
            );
        }
        if seen == 0 {
            let _ = writeln!(text, "history: no records for {program:?}");
        }
        return text;
    }
    let mut by_program: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        by_program.entry(&r.program).or_default().push(r);
    }
    let runs = by_run(records).len();
    let _ = writeln!(text, "history: {} program(s) over {} run(s)", by_program.len(), runs);
    let _ = writeln!(
        text,
        "{:<14} {:>5} {:<10} {:>9} {:>8} {:>8}  trend (ms)",
        "program", "runs", "verdict", "last ms", "p50 ms", "p90 ms"
    );
    for (program, recs) in &by_program {
        let mut hist = HistSnapshot::default();
        for r in recs {
            hist.observe(r.wall_us);
        }
        let last = recs.last().expect("non-empty group");
        let trend: Vec<String> = recs
            .iter()
            .rev()
            .take(8)
            .rev()
            .map(|r| ms(r.wall_us))
            .collect();
        let _ = writeln!(
            text,
            "{:<14} {:>5} {:<10} {:>9} {:>8} {:>8}  {}",
            program,
            recs.len(),
            last.verdict,
            ms(last.wall_us),
            ms(hist.quantile_bound(0.5)),
            ms(hist.quantile_bound(0.9)),
            trend.join(" ")
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(run: u64, program: &str, wall_us: u64, verdict: &str) -> RunRecord {
        RunRecord {
            schema: RECORD_SCHEMA,
            run,
            kind: "batch".to_string(),
            program: program.to_string(),
            verdict: verdict.to_string(),
            ok: verdict == "safe",
            wall_us,
            total_us: wall_us,
            ..RunRecord::default()
        }
    }

    #[test]
    fn stable_run_passes_gate() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 1_050_000, "safe"),
            rec(3, "sum", 980_000, "safe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
        // Deterministic: a second evaluation renders identically.
        let again = regress(&records, &TrendOptions::default());
        assert_eq!(report.text, again.text);
    }

    #[test]
    fn double_wall_time_breaches() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 1_000_000, "safe"),
            rec(3, "sum", 2_000_000, "safe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 1, "{}", report.text);
        assert!(report.text.contains("  sum wall_ms: 1000 -> 2000"), "{}", report.text);
    }

    #[test]
    fn verdict_flip_outranks_breach() {
        let records = vec![
            rec(1, "sum", 1_000_000, "safe"),
            rec(2, "sum", 3_000_000, "unsafe"),
        ];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 2, "{}", report.text);
        assert!(report.text.contains("  sum: VERDICT FLIP safe -> unsafe"), "{}", report.text);
    }

    #[test]
    fn foreign_schema_is_incompatible() {
        let mut foreign = rec(1, "sum", 1_000, "safe");
        foreign.schema = 999;
        let records = vec![foreign, rec(2, "sum", 1_000, "safe")];
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 3, "{}", report.text);
    }

    #[test]
    fn short_history_is_clean() {
        let report = regress(&[rec(1, "sum", 1_000, "safe")], &TrendOptions::default());
        assert_eq!(report.exit_code(), 0);
        assert!(report.text.contains("insufficient history"), "{}", report.text);
    }

    #[test]
    fn window_excludes_ancient_runs() {
        // Five fast baseline runs, then an ancient slow run that must age
        // out of the window: the new run matches recent history, no breach.
        let mut records = vec![rec(1, "sum", 10_000_000, "safe")];
        for run in 2..=6 {
            records.push(rec(run, "sum", 1_000_000, "safe"));
        }
        records.push(rec(7, "sum", 1_100_000, "safe"));
        let report = regress(&records, &TrendOptions::default());
        assert_eq!(report.exit_code(), 0, "{}", report.text);
    }

    #[test]
    fn history_renders_percentiles_and_trend() {
        let records = vec![
            rec(1, "sum", 1_000, "safe"),
            rec(1, "mc91", 9_000, "safe"),
            rec(2, "sum", 1_200, "safe"),
        ];
        let text = render_history(&records, None);
        assert!(text.contains("2 program(s) over 2 run(s)"), "{text}");
        assert!(text.contains("mc91"), "{text}");
        let filtered = render_history(&records, Some("sum"));
        assert!(filtered.contains("1.2"), "{filtered}");
        assert!(!filtered.contains("mc91"), "{filtered}");
    }
}
