//! Sink coverage for the run counter table: every row of [`VerifyStats`]
//! reaches every sink that reports a run's counters — the `--stats` lines,
//! the ledger record, a `table1` program row and, for the rows that mirror
//! a metrics-registry counter, the Prometheus exposition. The `table1` row
//! and `homc --suite --stats` must also agree value for value: both run the
//! same pipeline, so only the heap watermarks (`peak_*`, which depend on
//! the allocator each process installs) may differ.

use std::fs;
use std::process::Command;

use homc::{parse_json, suite, JsonValue, Ledger, VerifyStats};
use homc_bench::{run_program, to_json};

#[test]
fn every_run_counter_reaches_every_sink() {
    let dir = std::env::temp_dir().join(format!("homc-counter-sinks-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    let (ledger_dir, prom) = (dir.join("ledger"), dir.join("metrics.prom"));
    let out = Command::new(env!("CARGO_BIN_EXE_homc"))
        .args(["--suite", "sum", "--stats", "--ledger"])
        .arg(&ledger_dir)
        .arg("--metrics-out")
        .arg(&prom)
        .output()
        .expect("homc runs");
    let stats = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stats}");

    let (records, _) = Ledger::new(&ledger_dir).load().expect("ledger loads");
    assert_eq!(records.len(), 1, "one record for one program");
    let ledger = &records[0].counters;
    let prom = fs::read_to_string(&prom).expect("metrics written");

    let doc = to_json(&[run_program(suite::find("sum").expect("suite program"))]);
    let doc = parse_json(&doc).expect("table1 JSON parses");
    let row = match doc.get("programs") {
        Some(JsonValue::Arr(rows)) => rows[0].clone(),
        other => panic!("no programs array: {other:?}"),
    };

    for (name, _) in VerifyStats::default().counters() {
        let value = *ledger
            .get(name)
            .unwrap_or_else(|| panic!("{name}: missing from the ledger record"));
        assert!(
            stats.contains(&format!(" {name}={value} "))
                || stats.contains(&format!(" {name}={value}\n")),
            "{name}={value}: missing from --stats:\n{stats}"
        );
        let in_row = row
            .get(name)
            .and_then(JsonValue::as_num)
            .unwrap_or_else(|| panic!("{name}: missing from the table1 row"));
        if !name.starts_with("peak_") {
            assert_eq!(
                u64::try_from(in_row).ok(),
                Some(value),
                "{name}: the table1 row and --stats disagree"
            );
        }
    }
    for (name, _) in VerifyStats::REGISTRY_ROWS {
        assert!(
            prom.contains(&format!("\nhomc_{name}_total ")),
            "{name}: missing from the Prometheus text"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
