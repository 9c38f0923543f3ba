//! Batch degradation (ISSUE satellite S4): with per-job panics and budget
//! exhaustion injected, the batch still completes with one report entry per
//! job, the tallies add up, and the **unaffected** jobs are bit-for-bit
//! undisturbed — their logical traces are byte-identical to solo runs.
//!
//! The warm tests drive the shared disk tier at full-suite size: per-job
//! hit counts do not depend on the worker count, a warm rerun publishes
//! nothing, and a partly warm run never re-publishes a record already on
//! disk. The metrics registry's disk-hit and unknown-job counters equal
//! the report's own totals.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use homc::{
    run_batch, suite, BatchJob, BatchOptions, BatchReport, Counter, JobFault, JobStatus, Metrics,
    SUITE,
};

fn job(name: &str) -> BatchJob {
    let p = suite::find(name).expect("suite program");
    BatchJob {
        name: p.name.to_string(),
        source: p.source.to_string(),
        expected: Some(p.expected),
    }
}

fn suite_jobs() -> Vec<BatchJob> {
    SUITE.iter().map(|p| job(p.name)).collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("homc-batch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cached(dir: &Path, workers: usize) -> BatchOptions {
    BatchOptions {
        workers,
        cache_dir: Some(dir.to_path_buf()),
        ..BatchOptions::default()
    }
}

/// Name, verdict, cache hits and disk hits of every job.
fn per_job(report: &BatchReport) -> Vec<(String, String, u64, u64)> {
    report
        .jobs
        .iter()
        .map(|j| {
            let stats = j.stats.as_ref().expect("job produced stats");
            (
                j.name.clone(),
                j.verdict.clone(),
                stats.cache_hits,
                stats.disk_hits,
            )
        })
        .collect()
}

/// The record payloads of one cache segment (frames are
/// `<len> <checksum> <payload>` after a one-line header).
fn payloads(seg: &Path) -> HashSet<String> {
    let text = std::fs::read_to_string(seg).expect("segment readable");
    text.lines()
        .skip(1)
        .map(|frame| {
            frame
                .splitn(3, ' ')
                .nth(2)
                .expect("framed record")
                .to_string()
        })
        .collect()
}

/// The job's logical trace from a one-job, fault-free batch.
fn solo_trace(name: &str) -> String {
    let opts = BatchOptions {
        workers: 1,
        capture_traces: true,
        logical: true,
        ..BatchOptions::default()
    };
    let report = run_batch(vec![job(name)], &opts).expect("solo batch runs");
    assert_eq!(report.failed, 0);
    report.jobs[0].trace.clone().expect("trace captured")
}

#[test]
fn faulted_batch_completes_with_full_report() {
    let jobs = vec![job("sum"), job("max"), job("mult"), job("mc91")];
    let n = jobs.len();
    let opts = BatchOptions {
        workers: 2,
        capture_traces: true,
        logical: true,
        job_faults: vec![
            "0:panic".parse::<JobFault>().unwrap(),
            "2:exhaust".parse::<JobFault>().unwrap(),
        ],
        ..BatchOptions::default()
    };
    let report = run_batch(jobs, &opts).expect("batch always terminates");

    // Complete per-job report, tallies sum exactly.
    assert_eq!(report.jobs.len(), n);
    assert_eq!(report.passed + report.failed + report.unknown, n);
    assert_eq!(report.failed, 0, "injected faults degrade, never fail");
    assert_eq!(report.unknown, 2);
    assert_eq!(report.passed, 2);

    // The panicked job is trapped into a structured Unknown.
    let panicked = &report.jobs[0];
    assert_eq!(panicked.status, JobStatus::Unknown);
    assert!(
        panicked.verdict.contains("internal fault"),
        "got {:?}",
        panicked.verdict
    );

    // The exhausted job burned its one retry, then settled on the degraded
    // verdict with the trigger recorded.
    let exhausted = &report.jobs[2];
    assert_eq!(exhausted.status, JobStatus::Unknown);
    assert_eq!(exhausted.attempts, 2, "one bounded retry");
    assert!(exhausted.retry_detail.is_some());
    assert!(
        exhausted.verdict.contains("fuel"),
        "got {:?}",
        exhausted.verdict
    );

    // Per-job isolation: the unaffected jobs' logical traces are
    // byte-identical to solo runs of the same programs.
    for idx in [1usize, 3] {
        let entry = &report.jobs[idx];
        assert_eq!(entry.status, JobStatus::Passed);
        let batch_trace = entry.trace.as_deref().expect("trace captured");
        let solo = solo_trace(&entry.name);
        assert_eq!(
            batch_trace, solo,
            "{}: trace perturbed by a neighbouring fault",
            entry.name
        );
    }
}

#[test]
fn every_job_panicking_still_reports() {
    let jobs = vec![job("sum"), job("max")];
    let opts = BatchOptions {
        workers: 2,
        job_faults: vec![
            "0:panic".parse::<JobFault>().unwrap(),
            "1:panic".parse::<JobFault>().unwrap(),
        ],
        ..BatchOptions::default()
    };
    let report = run_batch(jobs, &opts).expect("batch survives total panic");
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.unknown, 2);
    assert!(report
        .jobs
        .iter()
        .all(|j| j.status == JobStatus::Unknown && j.verdict.contains("internal fault")));
}

#[test]
fn deadline_exhaustion_degrades_to_unknown() {
    // A batch-wide deadline far below what the suite needs: jobs settle on
    // Unknown (deadline exhaustion is not retryable), none abort, tallies
    // still sum.
    let jobs = vec![job("repeat"), job("mult")];
    let n = jobs.len();
    let mut opts = BatchOptions {
        workers: 2,
        ..BatchOptions::default()
    };
    opts.verify.timeout = Some(std::time::Duration::from_nanos(1));
    let report = run_batch(jobs, &opts).expect("batch terminates under deadline");
    assert_eq!(report.jobs.len(), n);
    assert_eq!(report.passed + report.failed + report.unknown, n);
    assert_eq!(report.failed, 0);
    assert_eq!(report.unknown, n);
    for j in &report.jobs {
        assert_eq!(
            j.attempts, 1,
            "{}: deadline exhaustion is not retried",
            j.name
        );
        assert!(j.verdict.starts_with("unknown"), "got {:?}", j.verdict);
    }
}

#[test]
fn warm_suite_batch_is_identical_across_worker_counts() {
    let dir = tmpdir("warm-suite");
    let cold = run_batch(suite_jobs(), &cached(&dir, 2)).expect("cold batch");
    assert_eq!(cold.failed, 0);
    assert!(cold.publish.is_some(), "cold batch must publish a segment");

    let one = run_batch(suite_jobs(), &cached(&dir, 1)).expect("warm batch, 1 worker");
    let two = run_batch(suite_jobs(), &cached(&dir, 2)).expect("warm batch, 2 workers");
    for warm in [&one, &two] {
        assert_eq!(warm.failed, 0);
        assert!(warm.disk_hits > 0, "warm batch must hit the disk tier");
        assert!(
            warm.publish.is_none(),
            "a warm rerun learns nothing and must publish nothing"
        );
    }
    assert_eq!(per_job(&one), per_job(&two));
    let verdicts = |r: &BatchReport| r.jobs.iter().map(|j| j.verdict.clone()).collect::<Vec<_>>();
    assert_eq!(verdicts(&cold), verdicts(&one));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partly_warm_batch_never_republishes_disk_records() {
    let dir = tmpdir("partial");
    let subset: Vec<BatchJob> = ["sum", "max", "mc91", "l-zipmap", "r-lock"]
        .into_iter()
        .map(job)
        .collect();
    let cold = run_batch(subset, &cached(&dir, 2)).expect("cold subset batch");
    let first = cold.publish.expect("cold subset publishes").path;
    let warm = run_batch(suite_jobs(), &cached(&dir, 2)).expect("partly warm suite batch");
    assert_eq!(warm.failed, 0);
    assert!(warm.disk_hits > 0, "the subset's records must be hit");
    let second = warm.publish.expect("the rest of the suite is new").path;

    let (old, new) = (payloads(&first), payloads(&second));
    assert!(!old.is_empty() && !new.is_empty());
    let shared = old.intersection(&new).count();
    assert_eq!(
        shared, 0,
        "{shared} record(s) already on disk were published again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_counters_match_the_batch_report() {
    // Warm: the registry's disk hits are the report's own total.
    let dir = tmpdir("registry");
    let small = || {
        ["intro1", "intro2", "mc91"]
            .into_iter()
            .map(job)
            .collect::<Vec<_>>()
    };
    run_batch(small(), &cached(&dir, 2)).expect("cold batch");
    let mut opts = cached(&dir, 2);
    opts.verify.metrics = Metrics::new(false);
    let warm = run_batch(small(), &opts).expect("warm batch");
    let snap = opts.verify.metrics.snapshot();
    assert!(warm.disk_hits > 0, "warm batch must hit the disk tier");
    assert_eq!(snap.counter(Counter::DiskHits), warm.disk_hits);
    assert_eq!(snap.counter(Counter::JobsUnknown), 0);
    let _ = std::fs::remove_dir_all(&dir);

    // Deadline: every job settles as unknown, and the registry says so.
    let mut opts = BatchOptions {
        workers: 2,
        ..BatchOptions::default()
    };
    opts.verify.timeout = Some(std::time::Duration::from_nanos(1));
    opts.verify.metrics = Metrics::new(false);
    let late = run_batch(vec![job("intro1"), job("mc91")], &opts).expect("batch terminates");
    assert_eq!(late.unknown, 2);
    let snap = opts.verify.metrics.snapshot();
    assert_eq!(snap.counter(Counter::JobsUnknown), late.unknown as u64);
}
