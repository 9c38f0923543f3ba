//! Spawn-site audit: every place production code starts a thread must put
//! the thread in an accounting scope (`homc_metrics::mem::inherit()` before
//! the spawn, `.enter()` on the worker). A thread without one still counts
//! exactly, but pays one shared atomic update per allocation, which is the
//! contention the per-thread balance exists to remove; so a new worker pool
//! that forgets the scope fails here instead of quietly running slow.
//!
//! The audit scans the non-test code of `crates/*/src` (each file's text
//! before its first `#[cfg(test)]`).

use std::fs;
use std::path::{Path, PathBuf};

/// Spellings that start an OS thread.
const SPAWNS: &[&str] = &["thread::scope(", "thread::spawn(", "thread::Builder"];

/// How far from a spawn line its `mem::inherit()` (above) and the workers'
/// `.enter()` (below) may sit.
const ABOVE: usize = 3;
const BELOW: usize = 20;

/// The 1-based lines of `text` that start a thread without an accounting
/// scope beside them.
fn unaccounted_spawns(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    let code = |l: &str| !l.trim_start().starts_with("//");
    let near = |range: &[&str], what: &str| range.iter().any(|l| code(l) && l.contains(what));
    (0..lines.len())
        .filter(|&i| code(lines[i]) && SPAWNS.iter().any(|s| lines[i].contains(s)))
        .filter(|&i| {
            let above = &lines[i.saturating_sub(ABOVE)..=i];
            let below = &lines[i..(i + BELOW).min(lines.len())];
            !(near(above, "mem::inherit()") && near(below, ".enter()"))
        })
        .map(|i| i + 1)
        .collect()
}

/// The part of a source file the audit covers.
fn non_test(text: &str) -> &str {
    text.find("#[cfg(test)]").map_or(text, |at| &text[..at])
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn workspace_sources() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates dir") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files
}

#[test]
fn every_spawn_site_enters_an_accounting_scope() {
    let mut spawns = 0;
    let mut missing = Vec::new();
    for path in workspace_sources() {
        let text = fs::read_to_string(&path).expect("readable source");
        let code = non_test(&text);
        spawns += code
            .lines()
            .filter(|l| SPAWNS.iter().any(|s| l.contains(s)))
            .count();
        for line in unaccounted_spawns(code) {
            missing.push(format!("{}:{line}", path.display()));
        }
    }
    // The audit means something only while it sees the known pools (the
    // abstraction fan-out, interpolation, proof checking, batch workers).
    assert!(spawns >= 4, "audit found only {spawns} spawn sites");
    assert!(
        missing.is_empty(),
        "threads started without `mem::inherit()` / `.enter()` beside them:\n  {}",
        missing.join("\n  ")
    );
}

/// A binary that installs the counting allocator must put its main thread
/// in a scope too, or the whole sequential pipeline runs in direct mode.
#[test]
fn counting_binaries_enter_a_scope_in_main() {
    let mut binaries = 0;
    for path in workspace_sources() {
        let text = fs::read_to_string(&path).expect("readable source");
        if !text.lines().any(|l| l.starts_with("#[global_allocator]")) {
            continue;
        }
        binaries += 1;
        let main = text.find("fn main()").expect("allocator installed outside a binary");
        let head: String = text[main..].lines().take(6).collect();
        assert!(
            head.contains("mem::inherit().enter()"),
            "{}: main() does not enter an accounting scope",
            path.display()
        );
    }
    assert!(binaries >= 2, "expected the homc and table1 binaries");
}

#[test]
fn the_audit_flags_a_bare_spawn() {
    let bare = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| work());\n    });\n}\n";
    assert_eq!(unaccounted_spawns(bare), vec![2]);
    let scoped = "fn f() {\n    let inherit = mem::inherit();\n    std::thread::scope(|s| {\n        \
                  s.spawn(move || {\n            let _acct = inherit.enter();\n            \
                  work()\n        });\n    });\n}\n";
    assert!(unaccounted_spawns(scoped).is_empty());
    // A comment naming the scope does not count.
    let commented = "// mem::inherit() .enter()\nstd::thread::spawn(|| work());\n";
    assert_eq!(unaccounted_spawns(commented), vec![2]);
    assert_eq!(non_test("a\n#[cfg(test)]\nthread::spawn("), "a\n");
}
