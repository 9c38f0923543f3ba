//! A timed replica of the verifier's CEGAR loop (`homc::verify_compiled`),
//! assembled only from the public entry points of each pipeline crate.
//!
//! The replica exists so the benchmark can put a clock around every call
//! into a layer without adding tracing inside the program. It follows the
//! verifier step for step under `VerifierOptions::default()` (no deadline,
//! no faults, no stores, the default abstraction thread count), including
//! the single ×4 escalation retry on retryable exhaustion. It leaves out
//! only the bookkeeping that cannot change a verdict or a query: trace and
//! metrics emission, memory windows, the dead-predicate census and the
//! panic trap. `tests/replica_agreement.rs` pins that the verdict, the
//! cycle count and `smt_queries` equal `verify`'s on every suite program.

use std::sync::Arc;
use std::time::{Duration, Instant};

use homc::{UnknownReason, Verdict, VerifierOptions};
use homc_abs::{abstract_program_incremental, AbsEnv, AbsError, TransitionMemo};
use homc_cegar::{
    build_trace_budgeted, check_feasibility, discover_predicates_metered, Feasibility, RefineError,
    RefineOptions, TraceEnd, TraceError,
};
use homc_hbp::check::{CheckError, CheckLimits, Checker};
use homc_hbp::{find_error_path, source_labels};
use homc_lang::{frontend, Compiled};
use homc_metrics::Metrics;
use homc_smt::{Budget, BudgetError, FaultPlan, LimitKind, Phase, QueryCache, SmtSolver};
use homc_trace::Tracer;

/// Time per layer, summed over every replica run it is passed to, plus the
/// two figures `VerifyStats` does not report. Everything else the sweep
/// counts (cycles, queries, hits, worklist pops, memo reuse) it reads from
/// the untraced `verify` on the same input.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `homc_lang::frontend`: parse, elaborate, CPS.
    pub front: Duration,
    /// `abstract_program_incremental` with the run's `TransitionMemo`.
    pub abs: Duration,
    /// `Checker` construction, saturation and `find_error_path`.
    pub hbp: Duration,
    /// `build_trace_budgeted`: the straightline error-path replay.
    pub trace: Duration,
    /// `check_feasibility` of the path condition.
    pub feas: Duration,
    /// `discover_predicates_metered` plus `AbsEnv::refine` /
    /// `apply_ho_update`.
    pub interp: Duration,
    /// Whole replica runs, front end included.
    pub total: Duration,
    /// Largest boolean program (AST nodes) handed to the model checker.
    pub peak_terms: usize,
    /// `AbsEnv::refine` and `apply_ho_update` calls.
    pub refine_calls: usize,
    /// Of those, calls that changed the environment.
    pub refine_changed: usize,
}

impl Layers {
    /// Sum of the per-layer times: the part of [`Layers::total`] that is
    /// attributed to a layer.
    pub fn attributed(&self) -> Duration {
        self.front + self.abs + self.hbp + self.trace + self.feas + self.interp
    }
}

/// What the replica decided, in the terms `verify` reports it.
#[derive(Clone, Debug)]
pub struct Replica {
    /// The verdict.
    pub verdict: Verdict,
    /// CEGAR cycles of the settling attempt (`VerifyStats::cycles`).
    pub cycles: usize,
    /// Query-cache lookups over the run (`VerifyStats::smt_queries`).
    pub smt_queries: usize,
}

/// One iteration's decision.
enum Step {
    Done(Verdict),
    Continue,
}

fn unknown(reason: UnknownReason) -> Step {
    Step::Done(Verdict::Unknown { reason })
}

/// Runs the replica on `src`, adding its layer times and counts to `layers`.
pub fn run(src: &str, layers: &mut Layers) -> Result<Replica, String> {
    let started = Instant::now();
    let t = Instant::now();
    let compiled = frontend(src).map_err(|e| e.to_string())?;
    layers.front += t.elapsed();
    let out = run_compiled(&compiled, layers);
    layers.total += started.elapsed();
    Ok(out)
}

fn run_compiled(compiled: &Compiled, layers: &mut Layers) -> Replica {
    let opts = VerifierOptions::default();
    let budget = Arc::new(Budget::new(opts.timeout, opts.fuel, FaultPlan::none()));
    let cache = Arc::new(QueryCache::new());
    let cache_start = cache.stats();
    let solver = SmtSolver::with_budget(budget.clone()).with_cache(cache.clone());
    let mut env = AbsEnv::initial(&compiled.cps);
    let mut memo = TransitionMemo::new();
    let mut limits = opts.check;
    let mut trace_fuel = opts.trace_fuel;
    let mut retries = 0;
    let mut cycles = 0;
    let verdict = 'attempts: loop {
        let mut verdict = Verdict::Unknown {
            reason: UnknownReason::IterationsExhausted,
        };
        for iteration in 0..opts.max_iterations {
            cycles = iteration + 1;
            let step = iterate(
                compiled, &opts, limits, trace_fuel, iteration, &budget, &solver, &cache, &mut env,
                &mut memo, layers,
            );
            if let Step::Done(v) = step {
                verdict = v;
                break;
            }
        }
        match &verdict {
            Verdict::Unknown {
                reason: UnknownReason::Budget(e),
            } if retries == 0 && e.retryable() => {
                retries += 1;
                escalate(&mut limits, &mut trace_fuel);
            }
            _ => break 'attempts verdict,
        }
    };
    Replica {
        verdict,
        cycles,
        smt_queries: cache.stats().delta(&cache_start).lookups() as usize,
    }
}

/// The verifier's escalation: retryable limits ×4.
fn escalate(limits: &mut CheckLimits, trace_fuel: &mut u64) {
    limits.max_base_combos = limits.max_base_combos.saturating_mul(4);
    limits.max_typings = limits.max_typings.saturating_mul(4);
    limits.max_search_steps = limits.max_search_steps.saturating_mul(4);
    *trace_fuel = trace_fuel.saturating_mul(4);
}

#[allow(clippy::too_many_arguments)]
fn iterate(
    compiled: &Compiled,
    opts: &VerifierOptions,
    limits: CheckLimits,
    trace_fuel: u64,
    iteration: usize,
    budget: &Arc<Budget>,
    solver: &SmtSolver,
    cache: &Arc<QueryCache>,
    env: &mut AbsEnv,
    memo: &mut TransitionMemo,
    layers: &mut Layers,
) -> Step {
    let off = Tracer::disabled();
    let metrics = Metrics::disabled();

    // Step 1: predicate abstraction.
    let t = Instant::now();
    let abs = abstract_program_incremental(
        &compiled.cps,
        env,
        &opts.abs,
        Some(budget.clone()),
        Some(cache.clone()),
        &off,
        &metrics,
        memo,
    );
    layers.abs += t.elapsed();
    let bp = match abs {
        Ok((bp, _)) => bp,
        Err(AbsError::Exhausted(e)) => return unknown(UnknownReason::Budget(e)),
        Err(AbsError::Invalid(msg)) => {
            return unknown(UnknownReason::InternalFault(format!("abstraction: {msg}")))
        }
    };
    layers.peak_terms = layers.peak_terms.max(bp.size());

    // Step 2: higher-order model checking.
    let t = Instant::now();
    let mc = (|| {
        let mut checker = Checker::with_budget(&bp, limits, budget)?;
        checker.saturate()?;
        if !checker.may_fail() {
            return Ok(None);
        }
        find_error_path(&mut checker)
    })();
    layers.hbp += t.elapsed();
    let path = match mc {
        Ok(None) => return Step::Done(Verdict::Safe),
        Ok(Some(p)) => p,
        Err(CheckError::Budget(e)) => return unknown(UnknownReason::Budget(e)),
        Err(e) => return unknown(UnknownReason::InternalFault(format!("model checking: {e}"))),
    };

    // Step 3: replay the abstract error path as a straightline trace.
    let t = Instant::now();
    let labels = source_labels(&path);
    let trace = build_trace_budgeted(&compiled.cps, &labels, trace_fuel, budget);
    layers.trace += t.elapsed();
    let trace = match trace {
        Ok(tr) => tr,
        Err(TraceError::Exhausted(b)) => return unknown(UnknownReason::Budget(b)),
        Err(TraceError::Invalid(msg)) => {
            return unknown(UnknownReason::InternalFault(format!("trace: {msg}")))
        }
    };
    if trace.end == TraceEnd::OutOfFuel {
        return unknown(UnknownReason::Budget(BudgetError::with_detail(
            Phase::Feas,
            LimitKind::Fuel,
            format!("trace replay ran out of fuel ({trace_fuel} steps)"),
        )));
    }
    if trace.end != TraceEnd::ReachedFail {
        return unknown(UnknownReason::ReplayMismatch(format!(
            "abstract path did not replay to fail: {:?}",
            trace.end
        )));
    }

    // Step 4a: feasibility of the path condition.
    let t = Instant::now();
    let feas = check_feasibility(&trace, solver);
    layers.feas += t.elapsed();
    let inconclusive = matches!(feas, Feasibility::Unknown);
    match feas {
        Feasibility::Feasible(witness) => {
            return Step::Done(Verdict::Unsafe {
                witness,
                path: labels,
            })
        }
        Feasibility::Exhausted(e) => return unknown(UnknownReason::Budget(e)),
        Feasibility::Infeasible | Feasibility::Unknown => {}
    }

    // Step 4b: interpolation, then the abstraction-type refinement. Like
    // the verifier, an inconclusive path is still refined before the loop
    // gives up on it.
    let t = Instant::now();
    let refine_opts = RefineOptions {
        iteration,
        ..opts.refine
    };
    let refinement = discover_predicates_metered(
        &compiled.cps,
        &trace,
        &refine_opts,
        budget,
        Some(cache),
        &off,
        &metrics,
    );
    let changed = refinement.as_ref().ok().map(|r| {
        let mut changed = env.refine(&r.fun_updates, &r.rand_updates);
        let mut calls = 1;
        let mut hits = usize::from(changed);
        for u in &r.ho_updates {
            let c = env.apply_ho_update(&u.def, &u.param, u.chain_pos, &u.pred);
            calls += 1;
            hits += usize::from(c);
            changed |= c;
        }
        layers.refine_calls += calls;
        layers.refine_changed += hits;
        changed
    });
    layers.interp += t.elapsed();
    match (refinement, changed) {
        (Err(RefineError::Exhausted(e)), _) => unknown(UnknownReason::Budget(e)),
        (Err(RefineError::Invalid(msg)), _) => {
            unknown(UnknownReason::InternalFault(format!("refinement: {msg}")))
        }
        _ if inconclusive => unknown(UnknownReason::Inconclusive),
        (Ok(_), Some(false)) => unknown(UnknownReason::NoProgress),
        _ => Step::Continue,
    }
}
