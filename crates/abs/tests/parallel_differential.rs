//! Differential test: parallel predicate abstraction must be *byte-
//! identical* to the sequential path — same boolean program, same printed
//! form — for any thread count, with and without a shared query cache.
//!
//! Determinism rests on per-definition namespacing of fresh names (worker
//! scheduling cannot leak into names) and on stitching results back in
//! definition order; this test pins both down.

use std::sync::Arc;

use homc_abs::{
    abstract_program_metered, AbsEnv, AbsError, AbsOptions, AbsStats, AbsTy, Predicate,
};
use homc_hbp::BProgram;
use homc_lang::frontend;
use homc_lang::kernel::Program;
use homc_lang::types::SimpleTy;
use homc_metrics::Metrics;
use homc_smt::{Atom, Formula, LinExpr, QueryCache, Var};
use homc_trace::Tracer;

const PROGRAMS: [&str; 4] = [
    // The paper's M1.
    "let f x g = g (x + 1) in
     let h y = assert (y > 0) in
     let k n = if n > 0 then f n h else () in
     k m",
    // The paper's M3 (dependent predicates get installed below).
    "let f x g = g (x + 1) in
     let h z y = assert (y > z) in
     let k n = if n >= 0 then f n (h n) else () in
     k m",
    // Recursion + state threading (r-lock shape): many definitions, so the
    // parallel path actually fans out.
    "let lock st = assert (st = 0); 1 in
     let unlock st = assert (st = 1); 0 in
     let rec loop n st = if n <= 0 then st else loop (n - 1) (unlock (lock st)) in
     assert (loop n 0 = 0)",
    // A genuinely unsafe program: failure paths must also be identical.
    "let rec sum n = if n <= 0 then 0 else n + sum (n - 1) in
     assert (m <= sum m)",
];

/// Installs `λν.ν > 0` on every integer position so the abstraction issues
/// real SMT queries (an empty environment would leave little to race on).
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

/// Abstracts `src` with the given thread count and cache choice, returning
/// the printed boolean program.
/// Abstraction with an optional shared cache and no budget or observers.
fn abstract_cached(
    program: &Program,
    env: &AbsEnv,
    opts: &AbsOptions,
    cache: Option<Arc<QueryCache>>,
) -> Result<(BProgram, AbsStats), AbsError> {
    let (tracer, metrics) = (Tracer::disabled(), Metrics::disabled());
    abstract_program_metered(program, env, opts, None, cache, &tracer, &metrics)
}

fn render(src: &str, threads: usize, cache: bool) -> String {
    let compiled = frontend(src).expect("compiles");
    let mut env = AbsEnv::initial(&compiled.cps);
    for scheme in env.schemes.values_mut() {
        for (_, t) in scheme.iter_mut() {
            *t = with_gt0(t);
        }
    }
    let opts = AbsOptions {
        threads,
        ..AbsOptions::default()
    };
    let cache = cache.then(|| Arc::new(QueryCache::new()));
    let (bp, _) = abstract_cached(&compiled.cps, &env, &opts, cache).expect("abstracts");
    bp.check().expect("well-formed boolean program");
    bp.to_string()
}

#[test]
fn parallel_abstraction_is_byte_identical_to_sequential() {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let baseline = render(src, 1, false);
        for threads in [2, 4, 8] {
            for cache in [false, true] {
                let got = render(src, threads, cache);
                assert_eq!(
                    baseline, got,
                    "program {i}: threads={threads} cache={cache} diverged from sequential"
                );
            }
        }
        // A warm shared cache must not change the output either: abstract
        // twice through one cache and compare the second (all-hits) run.
        let shared = Arc::new(QueryCache::new());
        let compiled = frontend(src).expect("compiles");
        let mut env = AbsEnv::initial(&compiled.cps);
        for scheme in env.schemes.values_mut() {
            for (_, t) in scheme.iter_mut() {
                *t = with_gt0(t);
            }
        }
        let opts = AbsOptions {
            threads: 4,
            ..AbsOptions::default()
        };
        let (first, _) =
            abstract_cached(&compiled.cps, &env, &opts, Some(shared.clone())).expect("abstracts");
        let (second, _) =
            abstract_cached(&compiled.cps, &env, &opts, Some(shared)).expect("abstracts");
        assert_eq!(
            first.to_string(),
            second.to_string(),
            "program {i}: warm-cache rerun diverged"
        );
        assert_eq!(baseline, first.to_string(), "program {i}: cached run diverged");
    }
}
