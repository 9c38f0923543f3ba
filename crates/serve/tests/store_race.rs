//! The concurrent-publish drill: 8 threads released together by a
//! `Barrier` each publish their own cache segment and append their own
//! ledger run into one shared directory, round after round, while a ninth
//! thread loads both stores. Every publish must succeed, every record and
//! run must load back, and no file may be quarantined — numbered names are
//! claimed without overwriting, temp files are never shared between
//! writers, and a reader never sees a half-written file.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;

use homc_serve::{DiskCache, EvidenceStore, Ledger, RunRecord};
use homc_smt::{Atom, CachedSat, Formula, LinExpr, QueryCache};

const THREADS: usize = 8;
const ROUNDS: usize = 20;
const RECORDS_PER_SEGMENT: usize = 3;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("homc-store-race-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A cache whose records no other (round, thread) pair produces.
fn distinct_cache(round: usize, thread: usize) -> QueryCache {
    let c = QueryCache::new();
    for i in 0..RECORDS_PER_SEGMENT {
        let k = ((round * THREADS + thread) * RECORDS_PER_SEGMENT + i) as i128;
        c.store_check(
            (
                Formula::Atom(Atom::le(LinExpr::var("x"), LinExpr::constant(k))),
                48,
            ),
            CachedSat::Unsat,
        );
    }
    c
}

#[test]
fn concurrent_publishers_lose_nothing() {
    let dir = tmpdir("publish");
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let reader = {
        let (dir, barrier) = (dir.clone(), barrier.clone());
        thread::spawn(move || {
            let mut errors = Vec::new();
            for _ in 0..ROUNDS {
                barrier.wait();
                let cache = DiskCache::new(&dir).load().map(|(_, l)| l.to_string());
                let ledger = Ledger::new(&dir).load().map(|(_, l)| l.to_string());
                for report in [cache, ledger] {
                    match report {
                        Ok(r) if r.contains("(0 bad, 0 quarantined, 0 stale)") => {}
                        Ok(r) => errors.push(format!("concurrent load: {r}")),
                        Err(e) => errors.push(format!("concurrent load: {e}")),
                    }
                }
            }
            errors
        })
    };
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (dir, barrier) = (dir.clone(), barrier.clone());
            thread::spawn(move || {
                let (disk, ledger) = (DiskCache::new(&dir), Ledger::new(&dir));
                // Failures are collected, not panicked on: a thread that
                // stopped early would leave the others stuck at the barrier.
                let (mut runs, mut errors) = (Vec::new(), Vec::new());
                for round in 0..ROUNDS {
                    barrier.wait();
                    if let Err(e) = disk.publish(&distinct_cache(round, t)) {
                        errors.push(format!("cache publish: {e}"));
                    }
                    let mut records = [RunRecord {
                        program: format!("t{t}-r{round}"),
                        ..RunRecord::default()
                    }];
                    match ledger.append("batch", &mut records) {
                        Ok(report) if records[0].run == report.run => runs.push(report.run),
                        Ok(report) => {
                            errors.push(format!("run {} stamped {}", report.run, records[0].run))
                        }
                        Err(e) => errors.push(format!("ledger append: {e}")),
                    }
                }
                (runs, errors)
            })
        })
        .collect();
    let mut runs = BTreeSet::new();
    let mut errors = reader.join().expect("reader thread");
    for w in workers {
        let (ids, errs) = w.join().expect("publisher thread");
        errors.extend(errs);
        for run in ids {
            if !runs.insert(run) {
                errors.push(format!("run id {run} handed out twice"));
            }
        }
    }
    assert!(
        errors.is_empty(),
        "{} failures, first: {:?}",
        errors.len(),
        errors.first()
    );
    let total = THREADS * ROUNDS;
    assert_eq!(runs, (1..=total as u64).collect());

    let (records, load) = DiskCache::new(&dir).load().unwrap();
    assert_eq!(load.segments, total, "{load}");
    assert_eq!(
        load.quarantined + load.bad_records + load.stale,
        0,
        "{load}"
    );
    assert_eq!(records.len(), total * RECORDS_PER_SEGMENT, "{load}");

    let (records, load) = Ledger::new(&dir).load().unwrap();
    assert_eq!(load.segments, total, "{load}");
    assert_eq!(
        load.quarantined + load.bad_records + load.stale,
        0,
        "{load}"
    );
    let programs: BTreeSet<_> = records.iter().map(|r| r.program.clone()).collect();
    assert_eq!(programs.len(), total, "every run's record loads back");
    assert!(
        fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with(".tmp")),
        "no temp file left behind"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A writer that died mid-publish leaves `.tmp-<pid>-<n>` behind. Loads and
/// publishes reclaim the files of dead pids, and never those of this
/// process (another thread may be writing one) or an unparsable name.
#[test]
fn dead_writers_temp_files_are_reclaimed() {
    let me = std::process::id().to_string();
    if fs::read_link("/proc/self").ok() != Some(PathBuf::from(&me)) {
        return; // no procfs of our own: liveness is unknowable, nothing is reclaimed
    }
    let dir = tmpdir("orphans");
    fs::create_dir_all(&dir).expect("creates dir");
    let mut child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .arg("--list")
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawns");
    let dead = child.id();
    child.wait().expect("reaps");
    let orphan = dir.join(format!(".tmp-{dead}-0"));
    let ours = dir.join(format!(".tmp-{me}-999999"));
    let unparsable = dir.join(".tmp-writer-0");
    for path in [&orphan, &ours, &unparsable] {
        fs::write(path, b"torn").expect("plants temp file");
    }
    DiskCache::new(&dir)
        .publish(&distinct_cache(0, 0))
        .expect("publishes");
    assert!(
        !orphan.exists(),
        "a dead writer's temp file survived a publish"
    );
    assert!(ours.exists(), "publish removed this process's temp file");
    assert!(
        unparsable.exists(),
        "publish removed a temp file of unknown pid"
    );

    fs::write(&orphan, b"torn").expect("plants temp file");
    let load = EvidenceStore::new(&dir).load("absent").expect("loads");
    assert!(load.evidence.is_none());
    assert!(
        !orphan.exists(),
        "a dead writer's temp file survived a load"
    );
    assert!(ours.exists() && unparsable.exists());
    let _ = fs::remove_dir_all(&dir);
}
