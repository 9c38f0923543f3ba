//! The evidence layer's core replay property: abstracting with an oracle
//! that answers from a recorded UNSAT set reproduces the solver-driven
//! abstraction byte-for-byte, and forgetting an UNSAT answer only ever
//! *coarsens* the program (more cubes survive pruning), never changes what
//! the answered queries mean.

use std::collections::BTreeSet;
use std::sync::Mutex;

use homc_abs::{
    abstract_program_cached, abstract_program_with_oracle, AbsEnv, AbsOptions, AbsTy, EnumMode,
    Predicate,
};
use homc_lang::frontend;
use homc_lang::types::SimpleTy;
use homc_smt::{Atom, Formula, LinExpr, SatResult, SmtSolver, Var};

const PROGRAMS: [&str; 3] = [
    "let f x g = g (x + 1) in
     let h y = assert (y > 0) in
     let k n = if n > 0 then f n h else () in
     k m",
    "let f x g = g (x + 1) in
     let h z y = assert (y > z) in
     let k n = if n >= 0 then f n (h n) else () in
     k m",
    "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
     assert (m <= sum m)",
];

fn with_gt0(t: &AbsTy) -> AbsTy {
    let nu = Var::new("nu");
    let gt0 = Predicate::new(
        nu.clone(),
        Formula::atom(Atom::gt(LinExpr::var(nu), LinExpr::constant(0))),
    );
    match t {
        AbsTy::Base(SimpleTy::Int, _) => AbsTy::int(vec![gt0]),
        AbsTy::Base(_, _) => t.clone(),
        AbsTy::Fun(x, a, b) => AbsTy::fun(x.clone(), with_gt0(a), with_gt0(b)),
    }
}

fn env_for(src: &str) -> (homc_lang::Compiled, AbsEnv) {
    let compiled = frontend(src).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    for scheme in env.schemes.values_mut() {
        for (_, t) in scheme.iter_mut() {
            *t = with_gt0(t);
        }
    }
    (compiled, env)
}

/// A recording oracle over `solver`: answers as the solver does and notes
/// each query answered UNSAT, by canonical formula.
fn record_into<'a>(
    solver: &'a SmtSolver,
    unsat: &'a Mutex<BTreeSet<Formula>>,
) -> impl Fn(&Formula) -> SatResult + Sync + 'a {
    move |f: &Formula| {
        let answer = solver.check(f);
        if matches!(answer, SatResult::Unsat) {
            unsat.lock().expect("recorder lock").insert(f.canon());
        }
        answer
    }
}

#[test]
fn recorded_unsat_set_replays_byte_identically() {
    for src in PROGRAMS {
        let (compiled, env) = env_for(src);
        let opts = AbsOptions {
            threads: 1,
            enum_mode: EnumMode::Exhaustive,
            ..AbsOptions::default()
        };
        let (reference, _) =
            abstract_program_cached(&compiled.cps, &env, &opts, None, None).expect("abstracts");

        // Record pass: a live solver behind the oracle, noting which
        // canonical queries came back UNSAT.
        let unsat = Mutex::new(BTreeSet::new());
        let solver = SmtSolver::new();
        let record = record_into(&solver, &unsat);
        let (recorded, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &opts, &record).expect("abstracts");
        assert_eq!(reference.to_string(), recorded.to_string());

        // The production options (model-guided, parallel) record the same
        // UNSAT set and the same program.
        let guided_unsat = Mutex::new(BTreeSet::new());
        let guided = record_into(&solver, &guided_unsat);
        let guided_opts = AbsOptions {
            threads: 4,
            ..AbsOptions::default()
        };
        let (guided_bp, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &guided_opts, &guided)
                .expect("abstracts");
        assert_eq!(reference.to_string(), guided_bp.to_string());
        let unsat: BTreeSet<Formula> = unsat.lock().expect("recorder lock").clone();
        assert_eq!(unsat, *guided_unsat.lock().expect("recorder lock"));

        // Replay pass: answers come from the recorded set alone.
        let replay = move |f: &Formula| {
            if unsat.contains(&f.canon()) {
                SatResult::Unsat
            } else {
                SatResult::Unknown
            }
        };
        let (replayed, _) =
            abstract_program_with_oracle(&compiled.cps, &env, &opts, &replay).expect("abstracts");
        assert_eq!(reference.to_string(), replayed.to_string());

        // Forgetting every UNSAT answer still abstracts (coarser program,
        // never an error) — the sound degradation mode for unproved queries.
        let all_unknown = |_: &Formula| SatResult::Unknown;
        let (coarse, _) = abstract_program_with_oracle(&compiled.cps, &env, &opts, &all_unknown)
            .expect("abstracts");
        assert!(coarse.size() >= reference.size());
    }
}
