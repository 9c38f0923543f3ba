//! `homc-perfbench`: the in-process half of the benchmark (see `run.py`).
//!
//! ```text
//! homc-perfbench suite <dir>
//!     write each Table 1 program to <dir>/<name>.ml and list
//!     "<name>\t<safe|unsafe|diverges>" in <dir>/suite.tsv
//! homc-perfbench traced --inputs <dir> --work <dir> --seconds <s> [--edited]
//!     run the traced per-layer sweep over generated inputs until <s>
//!     seconds are used (at least once) and print one JSON line with the
//!     operation tally and the median of every per-layer metric
//! ```
//!
//! The inputs directory holds `order.tsv` (job order, same format as
//! `suite.tsv`), `p/<name>.ml` (the sources) and `e/<name>.<i>.ml` for
//! i = 0, 1, ... (the source with its literals edited one at a time, in
//! seeded order). Wrong verdicts are counted in the tally's `failed`.
//! Exit code 1 on a failed guard, a replica disagreement or an SMT replay
//! mismatch; 2 on bad usage. Units are not printed: `run.py` takes them,
//! with the metric names it checks the output against, from
//! `BENCHMARK.json`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use homc::{Expected, SUITE};
use homc_perfbench::sweep::{sweep, Ops, Program};

// The same counting allocator the `homc` binary installs, so in-process
// timings pay the allocator cost the end-to-end processes pay.
#[global_allocator]
static COUNTING_ALLOC: homc_metrics::mem::CountingAlloc = homc_metrics::mem::CountingAlloc::new();

fn expected_word(e: Expected) -> &'static str {
    match e {
        Expected::Safe => "safe",
        Expected::Unsafe => "unsafe",
        Expected::Diverges => "diverges",
    }
}

fn parse_expected(s: &str) -> Option<Expected> {
    match s {
        "safe" => Some(Expected::Safe),
        "unsafe" => Some(Expected::Unsafe),
        "diverges" => Some(Expected::Diverges),
        _ => None,
    }
}

fn dump_suite(dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tsv = String::new();
    for p in SUITE {
        let path = dir.join(format!("{}.ml", p.name));
        fs::write(&path, p.source).map_err(|e| format!("{}: {e}", path.display()))?;
        tsv.push_str(&format!("{}\t{}\n", p.name, expected_word(p.expected)));
    }
    fs::write(dir.join("suite.tsv"), tsv).map_err(|e| format!("suite.tsv: {e}"))
}

fn read_inputs(dir: &Path) -> Result<Vec<Program>, String> {
    let read = |p: PathBuf| fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let mut out = Vec::new();
    for line in read(dir.join("order.tsv"))?.lines() {
        let (name, exp) = line
            .split_once('\t')
            .ok_or_else(|| format!("order.tsv: bad line {line:?}"))?;
        let expected =
            parse_expected(exp).ok_or_else(|| format!("order.tsv: bad expectation {exp:?}"))?;
        let mut edits = Vec::new();
        loop {
            let path = dir.join("e").join(format!("{name}.{}.ml", edits.len()));
            if !path.exists() {
                break;
            }
            edits.push(read(path)?);
        }
        if edits.is_empty() {
            return Err(format!("no edits of {name}"));
        }
        out.push(Program {
            name: name.to_string(),
            source: read(dir.join("p").join(format!("{name}.ml")))?,
            edits,
            expected,
        });
    }
    if out.is_empty() {
        return Err("order.tsv lists no programs".into());
    }
    Ok(out)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn traced(inputs: &Path, work: &Path, seconds: f64, edited: bool) -> Result<String, String> {
    let programs = read_inputs(inputs)?;
    let mut ops = Ops::default();
    let mut samples = Vec::new();
    let started = Instant::now();
    // Sweep again only while another sweep of average length still fits.
    let budget = Duration::from_secs_f64(seconds);
    while samples.is_empty()
        || started.elapsed() * (samples.len() as u32 + 1) / samples.len() as u32 <= budget
    {
        let sample = sweep(&programs, edited, work, &mut ops)
            .map_err(|e| format!("{e} (attempted {}, failed {})", ops.attempted, ops.failed))?;
        samples.push(sample);
    }
    let metrics: Vec<String> = samples[0]
        .keys()
        .map(|name| {
            let values = samples.iter().map(|s| s[name]).collect();
            format!("\"{name}\": {}", median(values))
        })
        .collect();
    Ok(format!(
        "{{\"attempted\": {}, \"failed\": {}, \"sweeps\": {}, \"abs_threads\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        samples.len(),
        homc_abs::AbsOptions::default().threads,
        metrics.join(", ")
    ))
}

const USAGE: &str = "usage: homc-perfbench suite <dir>\n\
       homc-perfbench traced --inputs <dir> --work <dir> --seconds <s> [--edited]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") if args.len() == 2 => dump_suite(Path::new(&args[1])).map(|()| None),
        Some("traced") => {
            let (mut inputs, mut work, mut seconds, mut edited) = (None, None, None, false);
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--inputs" => inputs = it.next().map(PathBuf::from),
                    "--work" => work = it.next().map(PathBuf::from),
                    "--seconds" => seconds = it.next().and_then(|s| s.parse::<f64>().ok()),
                    "--edited" => edited = true,
                    _ => {
                        eprintln!("{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            match (inputs, work, seconds) {
                (Some(i), Some(w), Some(s)) => traced(&i, &w, s, edited).map(Some),
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("homc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
