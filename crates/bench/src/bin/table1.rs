//! Regenerates the paper's Table 1.
//!
//! ```sh
//! cargo run --release -p homc-bench --bin table1 [-- --json <path>]
//! ```
//!
//! With `--json <path>` the run also writes a machine-readable baseline:
//! a `meta` header (schema version, suite name, thread count, clock mode —
//! `homc bench-diff` refuses to compare baselines whose strict meta fields
//! disagree), then one object per program (per-phase times and every run
//! counter of `VerifyStats`, see [`homc_bench::to_json`]) plus suite-level
//! aggregates. CI's bench-smoke stage gates on it with
//! `homc bench-diff BENCH_table1.json <fresh> --gate`.
//!
//! With `--ledger <dir>` the run also appends one record per program to the
//! persistent run ledger (kind `table1`), so benchmark runs join `homc
//! history` / `homc regress` trend analysis alongside suite and batch runs.

use std::process::ExitCode;

use homc::suite::SUITE;
use homc::{ledger_record, Ledger, Verdict};
use homc_bench::{format_row, run_program, to_json};

// Count allocations for the whole benchmark run so each row can report its
// per-phase heap watermarks. Installed in the binary only — library users
// and the test harness keep the plain system allocator.
#[global_allocator]
static COUNTING_ALLOC: homc_metrics::mem::CountingAlloc = homc_metrics::mem::CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut ledger_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--json" | "--ledger") => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("table1: {flag} needs a path");
                    return ExitCode::FAILURE;
                };
                if flag == "--json" {
                    json_path = Some(p.clone());
                } else {
                    ledger_dir = Some(p.clone());
                }
                i += 2;
            }
            other => {
                eprintln!("table1: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "{:12} {:>4} {:>2} {:>8}  {:>6} {:>6} {:>6} {:>6}   verdict",
        "program", "S", "O", "C(paper)", "abst", "mc", "cegar", "total"
    );
    println!("{}", "-".repeat(86));
    let mut all_ok = true;
    let mut rows = Vec::with_capacity(SUITE.len());
    for p in SUITE {
        let row = run_program(p);
        all_ok &= row.verdict_ok;
        println!("{}", format_row(&row));
        rows.push(row);
    }
    println!("{}", "-".repeat(86));
    let total: f64 = rows.iter().map(|r| r.outcome.stats.total.as_secs_f64()).sum();
    let warm: f64 = rows.iter().map(|r| r.warm_total_s).sum();
    let disk_hits: u64 = rows.iter().map(|r| r.warm_disk_hits).sum();
    let incr: f64 = rows.iter().map(|r| r.incr_total_s).sum();
    let check: f64 = rows.iter().map(|r| r.check_s).sum();
    println!("warm rerun {warm:.2}s via disk cache ({disk_hits} disk hits)");
    println!("incr rerun {incr:.2}s via artifact store (single-literal edit resubmit)");
    println!("evidence check {check:.2}s via independent certificate checker");
    println!(
        "total {total:.2}s; verdicts: {}",
        if all_ok {
            "all match the paper"
        } else {
            "MISMATCHES PRESENT"
        }
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, to_json(&rows)) {
            eprintln!("table1: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("baseline written to {path}");
    }
    if let Some(dir) = ledger_dir {
        let mut records: Vec<_> = rows
            .iter()
            .map(|r| {
                let verdict = match &r.outcome.verdict {
                    Verdict::Safe => "safe",
                    Verdict::Unsafe { .. } => "unsafe",
                    Verdict::Unknown { .. } => "unknown",
                };
                ledger_record(
                    r.name,
                    verdict,
                    r.verdict_ok,
                    r.outcome.stats.total.as_micros() as u64,
                    Some(&r.outcome.stats),
                    None,
                )
            })
            .collect();
        match Ledger::new(dir.as_str()).append("table1", &mut records) {
            Ok(rep) => println!(
                "ledger: run {} ({} record(s)) -> {}",
                rep.run,
                rep.records,
                rep.path.display()
            ),
            Err(e) => {
                // The benchmark itself succeeded; a full disk must not
                // retroactively fail it. Report and move on.
                eprintln!("table1: ledger append failed: {e}");
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
