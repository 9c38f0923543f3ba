//! End-to-end evidence round-trips: a verification run exports evidence,
//! the independent checker re-establishes the verdict from it, and simple
//! in-memory tampering is rejected. The emitter records its UNSAT answers
//! from the production (model-guided, parallel, cached) abstraction, so the
//! recorded set is checked here against the exhaustive enumeration the
//! checker replays.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use homc::{
    check_evidence, stable_hash64, suite, verify, ArtifactConfig, ArtifactStore, EvidenceConfig,
    EvidenceVerdict, Metrics, QueryCache, Verdict, VerifierOptions, SUITE,
};
use homc_abs::{abstract_program_with_oracle, AbsEnv, AbsOptions, EnumMode};
use homc_lang::kernel::Program;
use homc_smt::{Formula, SatResult, SmtSolver};

const SAFE: &str = "let f x g = g (x + 1) in
                    let h y = assert (y > 0) in
                    let k n = if n > 0 then f n h else () in
                    k m";
const UNSAFE: &str = "assert (n > 0)";

fn with_evidence(src: &str) -> VerifierOptions {
    VerifierOptions {
        evidence: Some(EvidenceConfig {
            dir: None,
            key: "test".to_string(),
            source_hash: stable_hash64(src),
        }),
        ..VerifierOptions::default()
    }
}

#[test]
fn safe_evidence_checks_out() {
    let out = verify(SAFE, &with_evidence(SAFE)).expect("runs");
    assert_eq!(out.verdict, Verdict::Safe);
    let ev = out.evidence.expect("safe run exports evidence");
    assert!(out.stats.evidence_digest != 0);
    assert_eq!(ev.digest(), out.stats.evidence_digest);
    let m = Metrics::new(false);
    let report = check_evidence(SAFE, &ev, &m).expect("certificate validates");
    assert_eq!(report.claimed, "safe");
    assert!(
        report.proofs_verified > 0,
        "a refined safe program must need UNSAT proofs"
    );
    assert_eq!(m.snapshot().counter(homc::Counter::CheckPass), 1);
    // The run discovered predicates, so provenance must be populated.
    assert!(!ev.provenance.is_empty(), "provenance: {:?}", ev.provenance);
    assert!(ev.provenance.iter().any(|p| p.source == "interp"));
}

#[test]
fn unsafe_evidence_checks_out_and_tampering_fails() {
    let out = verify(UNSAFE, &with_evidence(UNSAFE)).expect("runs");
    assert!(out.verdict.is_unsafe());
    let mut ev = out.evidence.expect("unsafe run exports evidence");
    let m = Metrics::new(false);
    let report = check_evidence(UNSAFE, &ev, &m).expect("certificate validates");
    assert_eq!(report.claimed, "unsafe");
    // A witness that does not fail must be rejected.
    if let EvidenceVerdict::Unsafe { witness, .. } = &mut ev.verdict {
        witness[0] = 1; // assert (n > 0) holds for n = 1
    }
    assert!(check_evidence(UNSAFE, &ev, &m).is_err());
    assert_eq!(m.snapshot().counter(homc::Counter::CheckFail), 1);
}

#[test]
fn wrong_source_is_rejected() {
    let out = verify(SAFE, &with_evidence(SAFE)).expect("runs");
    let ev = out.evidence.expect("evidence");
    let m = Metrics::disabled();
    let err = check_evidence(UNSAFE, &ev, &m).expect_err("hash mismatch");
    assert!(err.contains("source hash mismatch"), "{err}");
}

#[test]
fn dropped_proof_is_rejected() {
    let out = verify(SAFE, &with_evidence(SAFE)).expect("runs");
    let mut ev = out.evidence.expect("evidence");
    if let EvidenceVerdict::Safe(se) = &mut ev.verdict {
        assert!(!se.proofs.is_empty());
        se.proofs.clear();
    }
    let m = Metrics::disabled();
    let err = check_evidence(SAFE, &ev, &m).expect_err("coarsened abstraction must not be closed");
    assert!(err.contains("not closed") || err.contains("failing typing"), "{err}");
}

#[test]
fn unknown_verdict_exports_nothing() {
    let opts = VerifierOptions {
        max_iterations: 1,
        ..with_evidence(SAFE)
    };
    let out = verify(SAFE, &opts).expect("runs");
    if matches!(out.verdict, Verdict::Unknown { .. }) {
        assert!(out.evidence.is_none());
        assert_eq!(out.stats.evidence_digest, 0);
    }
}

/// The canonical queries `solver` answers UNSAT while abstracting `program`
/// at `env` under `opts`, recorded through the abstraction's oracle hook.
fn recorded_unsat(
    program: &Program,
    env: &AbsEnv,
    opts: &AbsOptions,
    solver: &SmtSolver,
) -> BTreeSet<Formula> {
    let unsat = Mutex::new(BTreeSet::new());
    let record = |f: &Formula| {
        let answer = solver.check(f);
        if matches!(answer, SatResult::Unsat) {
            unsat.lock().expect("recorder lock").insert(f.canon());
        }
        answer
    };
    abstract_program_with_oracle(program, env, opts, &record).expect("abstracts");
    unsat.into_inner().expect("recorder lock")
}

#[test]
fn model_guided_replay_records_the_exhaustive_unsat_set() {
    let dir = std::env::temp_dir().join(format!("homc-evd-unsat-set-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for p in SUITE {
        let opts = VerifierOptions {
            artifacts: Some(ArtifactConfig {
                dir: dir.clone(),
                key: p.name.to_string(),
            }),
            ..with_evidence(p.source)
        };
        let out = verify(p.source, &opts).expect("runs");
        // The artifact carries the final environment of Safe and Unsafe
        // runs alike; the evidence only of Safe ones.
        let env = ArtifactStore::new(&dir)
            .load(p.name)
            .expect("artifact dir readable")
            .artifact
            .unwrap_or_else(|| panic!("{}: decisive run publishes an artifact", p.name))
            .env;
        let compiled = homc_lang::frontend(p.source).expect("compiles");
        // The emitter's replay: the production options over a query cache.
        let cached = SmtSolver::new().with_cache(Arc::new(QueryCache::new()));
        let guided = recorded_unsat(&compiled.cps, &env, &AbsOptions::default(), &cached);
        // The old emission path, kept here as the oracle: one query per DFS
        // node, sequential, no cache.
        let exhaustive_opts = AbsOptions {
            threads: 1,
            enum_mode: EnumMode::Exhaustive,
            ..AbsOptions::default()
        };
        let exhaustive = recorded_unsat(&compiled.cps, &env, &exhaustive_opts, &SmtSolver::new());
        assert_eq!(guided, exhaustive, "{}: recorded UNSAT sets differ", p.name);
        if let Some(EvidenceVerdict::Safe(se)) = out.evidence.map(|e| e.verdict) {
            assert_eq!(
                se.proofs.len() as u64 + se.unproved,
                guided.len() as u64,
                "{}: every recorded query is proved or counted unproved",
                p.name
            );
            assert!(
                se.proofs.iter().all(|(f, _)| guided.contains(f)),
                "{}",
                p.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn safe_digest_is_independent_of_abstraction_threads() {
    for name in ["intro3", "hrec", "l-zipmap"] {
        let p = suite::find(name).expect("present");
        let digest = |threads: usize| {
            let mut opts = with_evidence(p.source);
            opts.abs.threads = threads;
            let out = verify(p.source, &opts).expect("runs");
            assert_eq!(out.verdict, Verdict::Safe, "{name}");
            out.stats.evidence_digest
        };
        assert_eq!(
            digest(1),
            digest(4),
            "{name}: evidence depends on thread count"
        );
    }
}
