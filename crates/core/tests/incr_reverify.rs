//! Differential tests for cross-run incremental re-verification: an
//! artifact-seeded rerun must decide exactly the same verdict class as a
//! cold run — after randomized semantics-preserving edits, after an edit
//! that invalidates one definition's cone (the others must replay), and
//! after on-disk artifact corruption (quarantine, then cold fallback).
//!
//! Edits are picked by a deterministic xorshift64* PRNG seeded from the
//! program name, so failures reproduce without any external fuzzing crate.

use std::path::PathBuf;

use homc::{suite, verify, ArtifactConfig, Verdict, VerifierOptions, VerifyOutcome};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over the program name: a stable per-program seed.
fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte ranges of every standalone integer literal in `src` (digit runs
/// inside identifiers like `mc91` excluded).
fn literal_spans(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !is_word(b[i - 1])) {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j == b.len() || !is_word(b[j]) {
                spans.push((i, j));
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Wraps the `n`-th standalone literal `k` as `(0 + k)` — the value of
/// every expression is unchanged, but the enclosing definition's content
/// hash (and so its manifest cone) is not.
fn edit_nth_literal(src: &str, n: usize) -> Option<String> {
    let spans = literal_spans(src);
    let &(i, j) = spans.get(n % spans.len().max(1))?;
    Some(format!("{}(0 + {}){}", &src[..i], &src[i..j], &src[j..]))
}

/// A scratch artifact directory unique to this test + program.
fn scratch_dir(test: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "homc-incr-test-{}-{test}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn verify_with(src: &str, artifacts: Option<ArtifactConfig>) -> VerifyOutcome {
    let opts = VerifierOptions {
        artifacts,
        ..VerifierOptions::default()
    };
    verify(src, &opts).expect("source compiles")
}

fn same_kind(a: &Verdict, b: &Verdict) -> bool {
    matches!(
        (a, b),
        (Verdict::Safe, Verdict::Safe)
            | (Verdict::Unsafe { .. }, Verdict::Unsafe { .. })
            | (Verdict::Unknown { .. }, Verdict::Unknown { .. })
    )
}

/// Fast programs with at least one editable literal, spanning safe and
/// unsafe paper verdicts: the randomized sweep verifies each edit twice, so
/// it stays on a handful of programs. The whole suite gets one edit each in
/// [`last_literal_edit_keeps_every_suite_verdict`].
const EDIT_PROGRAMS: &[&str] = &["intro1", "intro3", "sum", "mult", "mc91", "l-zipmap"];

/// Randomized single-edit differential: seed artifacts from the original
/// program, apply one PRNG-chosen literal wrap, and verify the edited
/// source both cold and artifact-seeded. The two verdict kinds must agree
/// for every program and every sampled edit.
#[test]
fn randomized_single_literal_edits_match_cold_verdicts() {
    for name in EDIT_PROGRAMS {
        let p = suite::find(name).expect("suite program present");
        let dir = scratch_dir("rand", name);
        let cfg = |dir: &PathBuf| {
            Some(ArtifactConfig {
                dir: dir.clone(),
                key: p.name.to_string(),
            })
        };
        let seeded = verify_with(p.source, cfg(&dir));
        let mut rng = Rng::new(seed_of(name));
        let nlits = literal_spans(p.source).len();
        assert!(nlits > 0, "{name}: no editable literal");
        for _ in 0..2 {
            let n = rng.below(nlits as u64) as usize;
            let edited = edit_nth_literal(p.source, n).expect("literal exists");
            let cold = verify_with(&edited, None);
            let incr = verify_with(&edited, cfg(&dir));
            assert!(
                same_kind(&cold.verdict, &incr.verdict),
                "{name} edit #{n}: cold {:?} vs incremental {:?}",
                cold.verdict,
                incr.verdict
            );
            assert!(
                same_kind(&seeded.verdict, &incr.verdict),
                "{name} edit #{n}: semantics-preserving edit flipped the verdict"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The edit-resubmit verdict check over the whole suite: seed artifacts
/// from each program, wrap its *last* literal (the suite programs end in
/// their main expression, so this is the use-site tweak a resubmitting user
/// makes, and it perturbs only main's cone), and re-verify against the
/// store. The edit preserves semantics, so the verdict kind must not move.
/// A program without literals (`max`) is resubmitted unchanged.
#[test]
fn last_literal_edit_keeps_every_suite_verdict() {
    for p in suite::SUITE {
        let dir = scratch_dir("last", p.name);
        let cfg = || {
            Some(ArtifactConfig {
                dir: dir.clone(),
                key: p.name.to_string(),
            })
        };
        let seeded = verify_with(p.source, cfg());
        let last = literal_spans(p.source).len().saturating_sub(1);
        let edited = edit_nth_literal(p.source, last).unwrap_or_else(|| p.source.to_string());
        let incr = verify_with(&edited, cfg());
        assert!(
            same_kind(&seeded.verdict, &incr.verdict),
            "{}: last-literal edit flipped {:?} to {:?}",
            p.name,
            seeded.verdict,
            incr.verdict
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cone invalidation: editing one definition must not stop the *other*
/// definitions from replaying. l-zipmap has separate `zip` and `map`
/// cones; wrapping a literal inside `map` leaves `zip`'s cone hash (and
/// the entry wrappers around unedited defs) intact, so the seeded rerun
/// still skips a nonzero number of definitions — and an unchanged
/// resubmit skips at least as many.
#[test]
fn unchanged_cones_replay_after_single_def_edit() {
    let p = suite::find("l-zipmap").expect("suite program present");
    let dir = scratch_dir("cone", p.name);
    let cfg = || {
        Some(ArtifactConfig {
            dir: dir.clone(),
            key: p.name.to_string(),
        })
    };
    let seeded = verify_with(p.source, cfg());
    assert!(seeded.verdict.is_safe());

    // Identical resubmit: every cone unchanged, maximal replay.
    let resubmit = verify_with(p.source, cfg());
    assert!(resubmit.verdict.is_safe());
    assert!(
        resubmit.stats.reverify_defs_skipped > 0,
        "identical resubmit replayed nothing"
    );

    // Edit inside `map` only; `zip`'s cone survives.
    let edited = p.source.replace("1 + map", "(0 + 1) + map");
    assert_ne!(edited, p.source, "edit site vanished from l-zipmap");
    let incr = verify_with(&edited, cfg());
    assert!(incr.verdict.is_safe());
    assert!(
        incr.stats.reverify_defs_skipped > 0,
        "edit to one def invalidated every cone"
    );
    assert!(
        incr.stats.reverify_defs_skipped <= resubmit.stats.reverify_defs_skipped,
        "edited rerun replayed more defs ({}) than the identical resubmit ({})",
        incr.stats.reverify_defs_skipped,
        resubmit.stats.reverify_defs_skipped
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption drill: a byte flip inside the published artifact must be
/// quarantined (counted in `artifact_quarantine`, file renamed aside) and
/// the rerun must degrade to a full cold verification with the same
/// verdict — corruption may cost the warm start, never correctness.
#[test]
fn corrupted_artifact_quarantines_and_falls_back_cold() {
    let p = suite::find("l-zipmap").expect("suite program present");
    let dir = scratch_dir("flip", p.name);
    let cfg = || {
        Some(ArtifactConfig {
            dir: dir.clone(),
            key: p.name.to_string(),
        })
    };
    let seeded = verify_with(p.source, cfg());
    assert!(seeded.verdict.is_safe());

    let art = std::fs::read_dir(&dir)
        .expect("artifact dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "art"))
        .expect("artifact file published");
    let mut bytes = std::fs::read(&art).expect("artifact readable");
    // Flip a byte past the `homc-artifact v1\n` header, inside the framed
    // payload, so the frame checksum must catch it.
    let off = 40.min(bytes.len() - 1);
    bytes[off] ^= 0xff;
    std::fs::write(&art, &bytes).expect("corruption written");

    let drill = verify_with(p.source, cfg());
    assert!(
        same_kind(&seeded.verdict, &drill.verdict),
        "corruption drill flipped the verdict"
    );
    assert!(
        drill.stats.artifact_quarantine > 0,
        "corrupted artifact was not quarantined"
    );
    assert_eq!(
        drill.stats.reverify_defs_skipped, 0,
        "corrupted artifact still seeded the memo"
    );
    let quarantined = std::fs::read_dir(&dir)
        .expect("artifact dir exists")
        .filter_map(|e| e.ok())
        .any(|e| e.path().extension().is_some_and(|x| x == "quarantined"));
    assert!(quarantined, "corrupt file was not renamed aside");
    let _ = std::fs::remove_dir_all(&dir);
}
