//! The CEGAR verification loop — the paper's Figure 1.
//!
//! ```text
//!  program ──(1) predicate abstraction──▶ boolean program
//!     ▲                                        │ (2) higher-order model checking
//!     │ (4) refine abstraction types           ▼
//!  new predicates ◀──(4) SHP + interpolation── error path ──(3) feasibility
//!     (spurious)                                   │ (feasible)
//!                                                  ▼
//!                                   SAFE ◀── no path      UNSAFE + witness
//! ```
//!
//! # Resource model
//!
//! Every phase of the loop runs under a shared [`Budget`]: a wall-clock
//! deadline, an optional fuel cap, and a deterministic fault-injection plan
//! ([`FaultPlan`], driven by `homc --inject`). Exhaustion in any phase
//! surfaces as [`Verdict::Unknown`] with a structured
//! [`UnknownReason::Budget`] — never a panic, never a hang. Panics escaping
//! a phase (including injected ones) are caught per CEGAR iteration and
//! reported as [`UnknownReason::InternalFault`]. When a *retryable* limit
//! (search steps, table size, trace fuel — not the deadline) stopped the
//! run, the loop restarts once with limits scaled ×4 before giving up.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

use homc_abs::{
    abstract_program_incremental, abstract_program_metered, abstract_program_with_oracle, AbsEnv,
    AbsError, AbsOptions, AbsTy, TransitionMemo,
};
use homc_cegar::{
    build_trace_budgeted, refine_env_traced, seed_env, Feasibility, RefineError, RefineOptions,
    TraceEnd, TraceError,
};
use homc_hbp::check::{CheckError, CheckLimits, Checker};
use homc_hbp::{find_error_path, source_labels, BProgram, Bits, FunName, Typing};
use homc_lang::eval::Label;
use homc_lang::manifest::Manifest;
use homc_lang::{frontend, Compiled};
use homc_metrics::{mem, Counter, Hist, Metrics};
use homc_serve::{
    Artifact, ArtifactStore, Evidence, EvidenceStore, EvidenceVerdict, ProvenanceRecord,
    SafeEvidence,
};
use homc_smt::{
    prove_unsat, Budget, BudgetError, CancelToken, FaultPlan, LimitKind, Phase, QueryCache,
    SatResult, SmtSolver,
};
use homc_smt::{Formula, Var};
use homc_trace::Tracer;

use crate::stats::VerifyStats;

/// Where the verifier persists and looks up cross-run abstraction
/// artifacts (the warm-edit re-verification path).
#[derive(Clone, Debug)]
pub struct ArtifactConfig {
    /// Directory of the artifact store (created on demand).
    pub dir: PathBuf,
    /// Stable identity of the program across edits — its file path or suite
    /// entry name, not its content. Resubmitting an *edited* program under
    /// the same key is exactly what enables the diff-and-seed path.
    pub key: String,
}

/// Where (and for which program identity) the verifier exports verdict
/// evidence — the certificates `homc check` re-validates and `homc explain`
/// narrates.
#[derive(Clone, Debug)]
pub struct EvidenceConfig {
    /// Directory of the evidence store. `None` builds the evidence in
    /// memory only (it is still returned on [`VerifyOutcome::evidence`],
    /// which is all `homc explain` needs).
    pub dir: Option<PathBuf>,
    /// Program identity stamped into the evidence header and used as the
    /// store key (file path or suite entry name).
    pub key: String,
    /// FNV-1a hash of the source text, pinning the evidence to the exact
    /// program content it certifies.
    pub source_hash: u64,
}

/// Options controlling the verifier.
#[derive(Clone, Debug)]
pub struct VerifierOptions {
    /// Maximum number of CEGAR iterations before giving up.
    pub max_iterations: usize,
    /// Predicate abstraction options.
    pub abs: AbsOptions,
    /// Reuse each definition's abstraction across CEGAR iterations when its
    /// dependency-cone fingerprint is unchanged (the per-definition
    /// transition memo). Reuse is verbatim — fresh names are namespaced per
    /// definition — so this never changes the abstract program, only the
    /// work spent rebuilding it. `false` re-abstracts everything every
    /// iteration (the differential-testing oracle).
    pub incremental_abs: bool,
    /// Model checker limits.
    pub check: CheckLimits,
    /// Refinement options.
    pub refine: RefineOptions,
    /// Fuel for symbolic replay of error paths.
    pub trace_fuel: u64,
    /// Wall-clock deadline for the whole run (all phases combined).
    pub timeout: Option<Duration>,
    /// Cap on total budget checkpoints across all phases.
    pub fuel: Option<u64>,
    /// Deterministic fault-injection plan (testing/robustness harness).
    pub faults: FaultPlan,
    /// Structured-trace sink. The default ([`Tracer::disabled`]) is a no-op
    /// handle: no events are formatted, no timestamps taken. When enabled,
    /// every pipeline phase emits span/iteration/fault events; when the
    /// tracer runs a *logical* clock, abstraction is forced sequential
    /// (`threads = 1`) so the event stream is byte-deterministic — output
    /// is identical at every thread count, so this cannot change verdicts.
    pub tracer: Tracer,
    /// Metrics registry. The default ([`Metrics::disabled`]) is a no-op
    /// handle, like the tracer. When enabled, the pipeline records typed
    /// counters and latency/size histograms (SMT solves, abstraction
    /// definitions, interpolant sizes, worklist depths, iteration times);
    /// the registry never writes into the trace stream, so traces are
    /// byte-identical with metrics on or off.
    pub metrics: Metrics,
    /// Pre-built query cache to verify against (the batch driver passes a
    /// per-job cache seeded from the disk tier). `None` — the default —
    /// creates a fresh cache per run. Stats report the run's *delta* over
    /// the cache's starting counters, so a warm cache never double-counts.
    pub cache: Option<Arc<QueryCache>>,
    /// Cooperative cancellation: when fired, the next budget checkpoint in
    /// any phase stops the run with a `Cancelled` budget error (degrading to
    /// [`Verdict::Unknown`], like every other exhaustion).
    pub cancel: Option<CancelToken>,
    /// Live progress sink, distinct from [`tracer`](Self::tracer): phase
    /// *starts* emit `job_phase` events here so a fleet renderer can show
    /// what each worker is doing right now. Keeping the sink separate is
    /// what makes logical job traces byte-identical with progress on or
    /// off. Disabled by default.
    pub progress: Tracer,
    /// Job index stamped onto progress events (0 for single runs).
    pub job: u64,
    /// Cross-run artifact store: when set, the run loads the prior artifact
    /// for [`ArtifactConfig::key`], diffs definition manifests, seeds the
    /// predicate environment / transition memo / interpolant cache for
    /// unchanged dependency cones, and publishes a fresh artifact on a
    /// decisive verdict. Everything seeded is a *candidate* (predicates
    /// narrow the search, memo entries are fingerprint-revalidated,
    /// interpolants are keyed by their full query), so this accelerates
    /// re-verification without being able to change a verdict. `None` — the
    /// default — runs cold.
    pub artifacts: Option<ArtifactConfig>,
    /// Verdict-evidence export: when set, a decisive verdict additionally
    /// produces an [`Evidence`] certificate — for Safe, the final predicate
    /// environment, the saturated invariant, and refutation proofs for the
    /// UNSAT abstraction queries it depends on (gathered by a post-verdict
    /// replay pass); for Unsafe, the concrete witness and path. The
    /// evidence is returned on the outcome and, when
    /// [`EvidenceConfig::dir`] is set, published to the evidence store.
    /// Producing evidence re-poses abstraction queries against the warm
    /// query cache; it never changes the verdict. `None` — the default —
    /// exports nothing.
    pub evidence: Option<EvidenceConfig>,
}

impl Default for VerifierOptions {
    fn default() -> VerifierOptions {
        VerifierOptions {
            max_iterations: 40,
            abs: AbsOptions::default(),
            incremental_abs: true,
            check: CheckLimits::default(),
            refine: RefineOptions::default(),
            trace_fuel: 200_000,
            timeout: None,
            fuel: None,
            faults: FaultPlan::none(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            cache: None,
            cancel: None,
            progress: Tracer::disabled(),
            job: 0,
            artifacts: None,
            evidence: None,
        }
    }
}

/// The verification verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The program never reaches `fail`, for any unknown integers and any
    /// non-deterministic choices.
    Safe,
    /// The program can fail; the witness gives values for the unknown
    /// integers and the branch labels of a concrete failing run.
    Unsafe {
        /// Values of `main`'s unknown integers.
        witness: Vec<i64>,
        /// Labels of the failing path (source-level `⊓` choices).
        path: Vec<Label>,
    },
    /// The verifier gave up.
    Unknown {
        /// Why.
        reason: UnknownReason,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe)
    }

    /// `true` for [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }
}

/// Why the verifier reported [`Verdict::Unknown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// The CEGAR iteration budget was exhausted (the paper's `apply`
    /// behaviour: ever-more-specific abstraction types, no convergence).
    IterationsExhausted,
    /// Refinement found no new predicate for a spurious path.
    NoProgress,
    /// A resource budget ran out: the phase that stopped and which limit
    /// (deadline, fuel, steps, size, or an injected fault).
    Budget(BudgetError),
    /// The abstract error path did not replay to `fail` in the source
    /// program (abstraction/label mismatch).
    ReplayMismatch(String),
    /// A solver returned an inconclusive answer (e.g. non-linear
    /// arithmetic was over-approximated on a candidate counterexample).
    Inconclusive,
    /// A phase panicked (bug or injected fault); the loop caught it and
    /// degraded to `Unknown` instead of aborting.
    InternalFault(String),
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::IterationsExhausted => write!(f, "iteration limit reached"),
            UnknownReason::NoProgress => write!(f, "refinement made no progress"),
            UnknownReason::Budget(e) => write!(f, "budget exhausted in {e}"),
            UnknownReason::ReplayMismatch(msg) => write!(f, "replay mismatch: {msg}"),
            UnknownReason::Inconclusive => write!(f, "solver was inconclusive"),
            UnknownReason::InternalFault(msg) => write!(f, "internal fault: {msg}"),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => write!(f, "safe"),
            Verdict::Unsafe { witness, .. } => write!(f, "unsafe (witness {witness:?})"),
            Verdict::Unknown { reason } => write!(f, "unknown ({reason})"),
        }
    }
}

/// The result of a verification run.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics.
    pub stats: VerifyStats,
    /// The paper's size metric S (source word count).
    pub size: usize,
    /// The paper's order metric O.
    pub order: usize,
    /// The verdict evidence, when [`VerifierOptions::evidence`] was set and
    /// the verdict was decisive (`None` otherwise — `Unknown` has nothing
    /// to certify).
    pub evidence: Option<Evidence>,
}

/// A hard error (malformed input, internal invariant failure).
#[derive(Clone, Debug)]
pub struct VerifyError(pub String);

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification error: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a source program (front end + CEGAR loop).
pub fn verify(src: &str, opts: &VerifierOptions) -> Result<VerifyOutcome, VerifyError> {
    let compiled = frontend(src).map_err(|e| VerifyError(e.to_string()))?;
    verify_compiled(&compiled, opts)
}

thread_local! {
    static TRAPPING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, converting a panic into `Err(message)`. While trapping, the
/// default panic hook's backtrace spew is suppressed on this thread (the
/// panic is an expected degradation path, not a crash).
fn trap_panics<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !TRAPPING.with(Cell::get) {
                prev(info);
            }
        }));
    });
    TRAPPING.with(|t| t.set(true));
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    TRAPPING.with(|t| t.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// What one CEGAR iteration decided.
enum IterOutcome {
    /// Verdict reached; stop.
    Done(Verdict),
    /// Environment refined; run another iteration.
    Continue,
}

/// Per-iteration telemetry scratch, filled as `run_iteration` progresses so
/// partial data survives a mid-phase panic (it is written *before* each
/// phase's fallible step, behind the `trap_panics` boundary).
#[derive(Default)]
struct IterRecord {
    /// Boolean-program rule count (top-level definitions).
    hbp_rules: usize,
    /// Boolean-program size (AST nodes).
    hbp_terms: usize,
    /// Intersection typings derived by saturation.
    typings: usize,
    /// Counterexample length (source-level labels), 0 when none was found.
    cex_len: usize,
    /// Predicates discovered by interpolation this iteration.
    new_interp: usize,
    /// Predicates seeded from path conditions this iteration.
    new_seeded: usize,
    /// Higher-order position updates this iteration.
    new_ho: usize,
    /// Largest interpolant (formula nodes) solved this iteration.
    interp_size_max: usize,
    /// Abstraction-phase SMT queries this iteration (the trace's historical
    /// `smt_queries` field keeps this meaning).
    abs_queries: usize,
    /// This iteration's run counters: what the run absorbs after the
    /// iteration, and the `iter` event's nonzero-only tail.
    counts: VerifyStats,
}

/// The model checker's final state at a Safe verdict — the pieces the
/// evidence layer serializes as the abstract reachability invariant.
struct SafeInvariant {
    gamma: Vec<(FunName, BTreeSet<Typing>)>,
    base_flow: BTreeMap<(FunName, usize), BTreeSet<Bits>>,
}

/// Counts scheme and `rand_int`-site predicate components of `env` whose
/// tuple slot no definition of `bp` ever `Proj`ects. The used-set is the
/// union over all definitions (wrapper definitions read captured variables
/// on the original names), so a shared parameter name can only make a dead
/// predicate look live — never the reverse. Components under higher-order
/// positions are skipped (counted live): their reads are indirect.
fn dead_predicates(env: &AbsEnv, bp: &BProgram) -> u64 {
    let mut used: BTreeSet<(Var, usize)> = BTreeSet::new();
    for projs in bp.projections().into_values() {
        used.extend(projs);
    }
    let mut dead = 0u64;
    for scheme in env.schemes.values() {
        for (x, ty) in scheme {
            if let AbsTy::Base(_, ps) = ty {
                for i in 0..ps.len() {
                    if !used.contains(&(x.clone(), i)) {
                        dead += 1;
                    }
                }
            }
        }
    }
    for (x, ps) in &env.rand_sites {
        for i in 0..ps.len() {
            if !used.contains(&(x.clone(), i)) {
                dead += 1;
            }
        }
    }
    dead
}

/// Predicate count of one abstraction type (recursing into arrow chains).
fn preds_in_ty(t: &AbsTy) -> usize {
    match t {
        AbsTy::Base(_, ps) => ps.len(),
        AbsTy::Fun(_, a, b) => preds_in_ty(a) + preds_in_ty(b),
    }
}

/// Predicates per abstraction-type binding: one entry per function scheme
/// (plus `rand:`-prefixed `rand_int` sites), zero-count bindings omitted.
/// `BTreeMap` iteration order makes the listing deterministic.
fn preds_by_binding(env: &AbsEnv) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (f, scheme) in &env.schemes {
        let n: usize = scheme.iter().map(|(_, t)| preds_in_ty(t)).sum();
        if n > 0 {
            out.push((f.0.clone(), n as u64));
        }
    }
    for (site, ps) in &env.rand_sites {
        if !ps.is_empty() {
            out.push((format!("rand:{site}"), ps.len() as u64));
        }
    }
    out
}

/// The trace tag for an iteration's outcome.
fn outcome_tag(outcome: &Result<IterOutcome, String>) -> &'static str {
    match outcome {
        Ok(IterOutcome::Continue) => "refined",
        Ok(IterOutcome::Done(Verdict::Safe)) => "safe",
        Ok(IterOutcome::Done(Verdict::Unsafe { .. })) => "unsafe",
        Ok(IterOutcome::Done(Verdict::Unknown { reason })) => match reason {
            UnknownReason::IterationsExhausted => "iterations",
            UnknownReason::NoProgress => "no-progress",
            UnknownReason::Budget(_) => "budget",
            UnknownReason::ReplayMismatch(_) => "replay-mismatch",
            UnknownReason::Inconclusive => "inconclusive",
            UnknownReason::InternalFault(_) => "fault",
        },
        Err(_) => "panic",
    }
}

/// Emits a `fault` event when the iteration ended on an *injected* fault —
/// a budget error with [`LimitKind::Injected`] (kind `error`) or a trapped
/// panic whose message carries the injection marker (kind `panic`).
fn emit_injected_fault(tracer: &Tracer, outcome: &Result<IterOutcome, String>) {
    match outcome {
        Ok(IterOutcome::Done(Verdict::Unknown {
            reason: UnknownReason::Budget(e),
        })) if e.limit == LimitKind::Injected => {
            tracer.emit("fault", |ev| {
                ev.str("phase", e.phase.name())
                    .str("kind", "error")
                    .str("detail", &e.detail);
            });
        }
        Err(msg) if msg.contains("injected fault") => {
            // "injected fault: panic at {phase} checkpoint {n}"
            let phase = msg
                .split(" at ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .unwrap_or("?");
            tracer.emit("fault", |ev| {
                ev.str("phase", phase)
                    .str("kind", "panic")
                    .str("detail", msg);
            });
        }
        _ => {}
    }
}

/// Scales retryable limits ×4 for the escalation retry.
fn escalate(limits: &mut CheckLimits, trace_fuel: &mut u64) {
    limits.max_base_combos = limits.max_base_combos.saturating_mul(4);
    limits.max_typings = limits.max_typings.saturating_mul(4);
    limits.max_search_steps = limits.max_search_steps.saturating_mul(4);
    *trace_fuel = trace_fuel.saturating_mul(4);
}

/// Verifies an already-compiled program.
pub fn verify_compiled(
    compiled: &Compiled,
    opts: &VerifierOptions,
) -> Result<VerifyOutcome, VerifyError> {
    let start = Instant::now();
    let mut stats = VerifyStats::default();
    let mut budget = Budget::new(opts.timeout, opts.fuel, opts.faults.clone());
    if let Some(token) = &opts.cancel {
        budget = budget.with_cancel(token.clone());
    }
    let budget = Arc::new(budget);
    // One query cache for the whole run: abstraction entailments recur
    // across CEGAR iterations, and interpolation cubes recur across cut
    // points, so the cache is shared by every solver (including the
    // parallel abstraction workers) and never reset between iterations.
    // The batch driver passes a pre-seeded cache; counters are reported as
    // deltas over its starting snapshot.
    let cache = opts
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(QueryCache::new()));
    let cache_start = cache.stats();
    let tracer = opts.tracer.clone();
    let metrics = opts.metrics.clone();
    // The memory-accounting windows are per run: the global and per-phase
    // watermarks restart from the current live count (all zero when no
    // counting allocator is installed).
    mem::reset_run();
    let solver = SmtSolver::with_budget(budget.clone())
        .with_cache(cache.clone())
        .with_tracer(tracer.clone())
        .with_metrics(metrics.clone());
    let mut env = AbsEnv::initial(&compiled.cps);
    let mut check_limits = opts.check;
    let mut trace_fuel = opts.trace_fuel;
    // Under a logical clock the trace must be byte-deterministic, so force
    // the (output-identical) sequential abstraction path.
    let mut abs_opts = opts.abs.clone();
    if tracer.is_logical() {
        abs_opts.threads = 1;
    }
    // The per-definition transition memo survives the whole run, including
    // escalation retries: entries are keyed by cone fingerprint, so they
    // stay valid across attempts (the program and name scheme never change
    // within a run).
    let mut memo = TransitionMemo::new();
    // Cross-run warm start: load the prior artifact for this key (if any),
    // diff per-definition manifests, and seed the predicate environment,
    // transition memo, and interpolant cache for the unchanged dependency
    // cones. A corrupt artifact is quarantined by the store and the run
    // degrades to a cold start — seeding can speed the run up but never
    // change its verdict (see DESIGN.md §"Cross-run incremental
    // verification" for the soundness argument).
    let manifest = opts.artifacts.as_ref().map(|_| Manifest::of(&compiled.cps));
    let mut store = None;
    let mut prior_interp = Vec::new();
    if let (Some(cfg), Some(manifest)) = (&opts.artifacts, &manifest) {
        // No registry on the store: its quarantine reaches the registry as
        // `artifact_quarantine`, in the end-of-run fold.
        let s = ArtifactStore::new(&cfg.dir);
        if let Ok(load) = s.load(&cfg.key) {
            if load.quarantined {
                stats.artifact_quarantine += 1;
            }
            if let Some(prior) = load.artifact {
                let unchanged = prior.manifest.unchanged_defs(manifest);
                stats.reverify_preds_seeded =
                    seed_env(&mut env, &prior.env, &compiled.cps, &unchanged);
                // Memo replay only helps the incremental abstraction path;
                // the oracle path rebuilds everything regardless.
                if opts.incremental_abs {
                    let ndefs = compiled.cps.defs.len();
                    let main_unchanged = unchanged.contains(&compiled.cps.main);
                    for entry in prior.memo {
                        let replay = if entry.index < ndefs {
                            unchanged.contains(&entry.name)
                        } else {
                            // The entry wrapper's cone is {main}.
                            main_unchanged
                        };
                        if replay && memo.seed_entry(&compiled.cps, entry) {
                            stats.reverify_defs_skipped += 1;
                        }
                    }
                }
                // Seeded interpolants are full-key cache entries: they can
                // only be *found* by re-posing the identical query, so they
                // are safe for any edit.
                for (k, v) in prior.interp {
                    cache.store_interp_seeded(k.clone(), v.clone());
                    prior_interp.push((k, v));
                }
            }
        }
        // An unreadable store directory cold-starts silently; the publish
        // at the end of the run surfaces persistent I/O problems.
        store = Some(s);
    }
    // Evidence accumulators, filled where the facts are produced: predicate
    // provenance as refinement installs predicates, and — at a Safe verdict
    // — the model checker's saturated invariant. The export pass after the
    // loop is then pure assembly plus the proof-recording replay.
    let mut provenance: Vec<ProvenanceRecord> = Vec::new();
    let mut safe_inv: Option<SafeInvariant> = None;
    let mut verdict;

    'attempts: loop {
        verdict = Verdict::Unknown {
            reason: UnknownReason::IterationsExhausted,
        };
        for iteration in 0..opts.max_iterations {
            // One record per CEGAR iteration, even for exhausted/faulted
            // iterations: snapshot the monotone counters, run the iteration
            // (partial telemetry survives a panic via `IterRecord`), absorb
            // its counters into the run, then emit the deltas.
            stats.cycles = iteration + 1;
            let iter_start = Instant::now();
            mem::window_reset();
            let (hits0, misses0, rat_hits0, fuel0) = if tracer.enabled() {
                let cs = cache.stats();
                (cs.hits(), cs.misses(), cs.rat_hits, budget.fuel_used())
            } else {
                (0, 0, 0, 0)
            };
            let mut rec = IterRecord::default();
            let outcome = trap_panics(|| {
                run_iteration(
                    compiled,
                    opts,
                    &abs_opts,
                    check_limits,
                    trace_fuel,
                    iteration,
                    &budget,
                    &solver,
                    &mut env,
                    &mut stats,
                    &tracer,
                    &mut rec,
                    &mut memo,
                    &mut provenance,
                    &mut safe_inv,
                )
            });
            stats.absorb(&rec.counts);
            metrics.observe_dur(Hist::IterUs, iter_start);
            metrics.observe(Hist::HbpRules, rec.hbp_rules as u64);
            metrics.observe(Hist::HbpTerms, rec.hbp_terms as u64);
            if tracer.enabled() {
                emit_injected_fault(&tracer, &outcome);
                let cs = cache.stats();
                let tag = outcome_tag(&outcome);
                let by_fun = preds_by_binding(&env);
                // Set after the absorb: the record reports these, but the run
                // already holds them in full.
                if iteration == 0 && stats.retries == 0 {
                    // Cross-run seeding happened once, before the loop; credit
                    // it to the first iteration's record so the trace carries
                    // it (and an escalation retry does not re-report it).
                    rec.counts.reverify_defs_skipped = stats.reverify_defs_skipped;
                    rec.counts.reverify_preds_seeded = stats.reverify_preds_seeded;
                    rec.counts.artifact_quarantine = stats.artifact_quarantine;
                }
                rec.counts.fm_prefix_hits = cs.rat_hits - rat_hits0;
                // Memory accounting is all-zero without the counting
                // allocator (test harness). Heap watermarks are wall-like —
                // they shift with argv length and ambient allocator state —
                // so the logical clock omits them the same way it zeroes
                // durations.
                if !tracer.is_logical() {
                    rec.counts.peak_bytes = mem::window_peak();
                }
                tracer.emit("iter", |e| {
                    e.num("iter", iteration as u64)
                        .str("outcome", tag)
                        .num("preds", env.fingerprint() as u64)
                        .map_num("preds_by_fun", by_fun.iter().map(|(k, v)| (k.as_str(), *v)))
                        .num("hbp_rules", rec.hbp_rules as u64)
                        .num("hbp_terms", rec.hbp_terms as u64)
                        .num("typings", rec.typings as u64)
                        .num("pops", rec.counts.worklist_pops as u64)
                        .num("rescans", rec.counts.rescans_avoided as u64)
                        .num("cex_len", rec.cex_len as u64)
                        .num("new_interp", rec.new_interp as u64)
                        .num("new_seeded", rec.new_seeded as u64)
                        .num("new_ho", rec.new_ho as u64)
                        .num("interp_size_max", rec.interp_size_max as u64)
                        .num("smt_queries", rec.abs_queries as u64)
                        .num("cache_hits", cs.hits() - hits0)
                        .num("cache_misses", cs.misses() - misses0)
                        .num("fuel", budget.fuel_used() - fuel0)
                        .num("dur_us", tracer.dur_us(iter_start));
                    // The counters postdate the golden traces: emit them
                    // only when nonzero so unaffected runs stay
                    // byte-identical. The head above already carries the
                    // worklist pair, under its historical `pops`/`rescans`.
                    for (name, v) in rec.counts.counters() {
                        if v > 0 && !matches!(name, "worklist_pops" | "rescans_avoided") {
                            e.num(name, v);
                        }
                    }
                });
            }
            match outcome {
                Ok(IterOutcome::Continue) => {}
                Ok(IterOutcome::Done(v)) => {
                    verdict = v;
                    break;
                }
                Err(message) => {
                    verdict = Verdict::Unknown {
                        reason: UnknownReason::InternalFault(message),
                    };
                    break;
                }
            }
        }
        // Retry-with-escalation: one restart when a *retryable* limit (not
        // the deadline, not an injected fault) stopped the run. The budget
        // is shared across attempts, so the deadline stays global and
        // already-fired injections do not re-fire.
        match &verdict {
            Verdict::Unknown {
                reason: UnknownReason::Budget(e),
            } if stats.retries == 0 && e.retryable() => {
                stats.retries += 1;
                escalate(&mut check_limits, &mut trace_fuel);
                continue 'attempts;
            }
            _ => break 'attempts,
        }
    }

    // Verdict-evidence export. For Safe, re-derive the boolean program from
    // the winning environment under a *recording* oracle: the production
    // abstraction (the run's own options — model-guided, parallel) whose
    // solver notes every query it answers UNSAT, by canonical formula; each
    // one then gets a self-contained DNF refutation proof. Model-guided
    // enumeration prunes exactly at UNSAT prefixes, so this is the UNSAT set
    // the checker's exhaustive re-derivation asks about. The replay solver
    // shares the run's query cache — so this is mostly cache hits — but
    // carries no budget: a deadline expiring just after the verdict must
    // not be able to truncate the proof table. Evidence can fail to
    // materialize; it can never change the verdict.
    let mut evidence: Option<Evidence> = None;
    if let Some(cfg) = &opts.evidence {
        let ev_verdict = match &verdict {
            Verdict::Safe => safe_inv.take().and_then(|inv| {
                // Fresh unlimited budget: the cache demands a checkpoint
                // before every guarded lookup, and the run's own budget
                // must not be able to truncate the proof table.
                let ebudget = Arc::new(Budget::new(None, None, FaultPlan::none()));
                let esolver = SmtSolver::with_budget(ebudget).with_cache(cache.clone());
                let unsat: Mutex<BTreeSet<Formula>> = Mutex::new(BTreeSet::new());
                let record = |f: &Formula| {
                    let answer = esolver.check(f);
                    if matches!(answer, SatResult::Unsat) {
                        let canon = f.canon();
                        unsat
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(canon);
                    }
                    answer
                };
                abstract_program_with_oracle(&compiled.cps, &env, &abs_opts, &record).ok()?;
                let mut proved = Vec::new();
                let mut unproved = 0u64;
                for f in unsat.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    match prove_unsat(&f) {
                        Some(p) => proved.push((f, p)),
                        None => unproved += 1,
                    }
                }
                Some(EvidenceVerdict::Safe(Box::new(SafeEvidence {
                    env: env.clone(),
                    gamma: inv.gamma,
                    base_flow: inv.base_flow,
                    proofs: proved,
                    unproved,
                })))
            }),
            Verdict::Unsafe { witness, path } => Some(EvidenceVerdict::Unsafe {
                witness: witness.clone(),
                path: path.clone(),
            }),
            Verdict::Unknown { .. } => None,
        };
        if let Some(ev_verdict) = ev_verdict {
            let ev = Evidence {
                program: cfg.key.clone(),
                source_hash: cfg.source_hash,
                iterations: stats.cycles as u64,
                provenance: std::mem::take(&mut provenance),
                verdict: ev_verdict,
            };
            stats.evidence_digest = ev.digest();
            metrics.incr(Counter::EvidenceEmitted);
            if let Some(dir) = &cfg.dir {
                // Publish failures are non-fatal: the evidence still rides
                // on the outcome, and the verdict stands either way.
                let estore = EvidenceStore::new(dir).with_metrics(metrics.clone());
                let _ = estore.publish(&cfg.key, &ev);
            }
            evidence = Some(ev);
        }
    }
    stats.total = start.elapsed();
    stats.predicates = env.fingerprint();
    stats.peak_bytes = mem::peak_bytes();
    stats.peak_abs_bytes = mem::phase_peak(Phase::Abs);
    stats.peak_mc_bytes = mem::phase_peak(Phase::Mc);
    stats.peak_feas_bytes = mem::phase_peak(Phase::Feas);
    stats.peak_interp_bytes = mem::phase_peak(Phase::Interp);
    let cs = cache.stats().delta(&cache_start);
    stats.smt_queries = cs.lookups() as usize;
    stats.cache_hits = cs.hits();
    stats.cache_misses = cs.misses();
    stats.fm_prefix_hits = cs.rat_hits;
    stats.disk_hits = cs.disk_hits;
    stats.fold_into(&metrics);
    // Publish the artifact for the *next* run, but only on a decisive
    // verdict: an `Unknown` environment is mid-refinement noise, and
    // persisting it could keep a bad seed alive across edits. Seeded
    // interpolants are republished together with the ones this run
    // discovered (the two sets are disjoint by construction). Publish
    // failures are non-fatal — the verdict stands either way.
    if let (Some(store), Some(manifest), Some(cfg)) = (&store, manifest, &opts.artifacts) {
        if matches!(verdict, Verdict::Safe | Verdict::Unsafe { .. }) {
            let mut interp = prior_interp;
            interp.extend(cache.export_new_interp());
            let artifact = Artifact {
                manifest,
                env: env.clone(),
                memo: memo.export_entries(&compiled.cps),
                interp,
            };
            let _ = store.publish(&cfg.key, &artifact);
        }
    }
    tracer.emit("verdict", |e| {
        let tag = match &verdict {
            Verdict::Safe => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Unknown { .. } => "unknown",
        };
        e.str("verdict", tag)
            .num("cycles", stats.cycles as u64)
            .num("retries", stats.retries as u64);
    });
    tracer.flush();
    Ok(VerifyOutcome {
        verdict,
        stats,
        size: compiled.size,
        order: compiled.order,
        evidence,
    })
}

/// One CEGAR iteration: abstract, model-check, and — when an abstract error
/// path exists — check feasibility and refine. Phase timings are mirrored
/// into `span` trace events; per-iteration counters go into `rec` as soon as
/// they are known so they survive a later phase's panic.
#[allow(clippy::too_many_arguments)]
fn run_iteration(
    compiled: &Compiled,
    opts: &VerifierOptions,
    abs_opts: &AbsOptions,
    check_limits: CheckLimits,
    trace_fuel: u64,
    iteration: usize,
    budget: &Arc<Budget>,
    solver: &SmtSolver,
    env: &mut AbsEnv,
    stats: &mut VerifyStats,
    tracer: &Tracer,
    rec: &mut IterRecord,
    memo: &mut TransitionMemo,
    prov: &mut Vec<ProvenanceRecord>,
    safe_inv: &mut Option<SafeInvariant>,
) -> IterOutcome {
    let unknown = |reason: UnknownReason| IterOutcome::Done(Verdict::Unknown { reason });
    let span = |phase: &str, started: Instant| {
        tracer.emit("span", |e| {
            e.str("phase", phase)
                .num("iter", iteration as u64)
                .num("dur_us", tracer.dur_us(started));
        });
    };
    // Phase *starts* go to the progress sink (not the job trace, which
    // records spans at phase end): a fleet renderer needs to know what a
    // worker is doing while the phase is still running.
    let pstart = |phase: &str| {
        opts.progress.emit("job_phase", |e| {
            e.num("job", opts.job)
                .num("iter", iteration as u64)
                .str("phase", phase);
        });
    };

    // Step 1: predicate abstraction (workers share the run-wide cache).
    // Each step runs under a memory-accounting phase tag so the counting
    // allocator (when installed) attributes watermarks per phase.
    pstart("abs");
    let t = Instant::now();
    let mem_tag = mem::phase_scope(Phase::Abs);
    let abs_result = if opts.incremental_abs {
        abstract_program_incremental(
            &compiled.cps,
            env,
            abs_opts,
            Some(budget.clone()),
            solver.cache().cloned(),
            tracer,
            solver.metrics(),
            memo,
        )
    } else {
        abstract_program_metered(
            &compiled.cps,
            env,
            abs_opts,
            Some(budget.clone()),
            solver.cache().cloned(),
            tracer,
            solver.metrics(),
        )
    };
    drop(mem_tag);
    stats.abst += t.elapsed();
    span("abs", t);
    let bp = match abs_result {
        Ok((bp, abs_stats)) => {
            rec.abs_queries = abs_stats.sat_queries;
            rec.counts.abs_defs_reused = abs_stats.defs_reused;
            rec.counts.abs_defs_rebuilt = abs_stats.defs_rebuilt;
            rec.counts.abs_implicants = abs_stats.implicants;
            rec.counts.abs_queries_saved = abs_stats.queries_saved;
            rec.counts.abs_ctx_truncated = abs_stats.ctx_truncated;
            bp
        }
        Err(AbsError::Exhausted(e)) => return unknown(UnknownReason::Budget(e)),
        Err(AbsError::Invalid(msg)) => {
            return unknown(UnknownReason::InternalFault(format!("abstraction: {msg}")))
        }
    };
    stats.final_hbp_size = bp.size();
    rec.hbp_rules = bp.defs.len();
    rec.hbp_terms = bp.size();
    // Dead-predicate census for this iteration's abstraction. The run-level
    // stat keeps the *final* census (the winning environment against the
    // winning boolean program), not a sum: clear the previous one before
    // the loop absorbs this iteration's record.
    rec.counts.preds_dead = dead_predicates(env, &bp);
    stats.preds_dead = 0;

    // Step 2: higher-order model checking.
    pstart("mc");
    let t = Instant::now();
    let mem_tag = mem::phase_scope(Phase::Mc);
    // On a Safe exit the checker itself survives the closure (via the
    // slot): its saturated typing table and base-flow facts are the
    // abstract reachability invariant the evidence layer serializes.
    let mut safe_checker = None;
    let mc = (|| {
        let mut checker = Checker::with_budget(&bp, check_limits, budget)?;
        checker.set_tracer(tracer.clone());
        checker.set_metrics(solver.metrics().clone());
        let saturated = checker.saturate();
        let cs = checker.stats();
        rec.typings = cs.typings;
        rec.counts.worklist_pops = cs.worklist_pops;
        rec.counts.rescans_avoided = cs.rescans_avoided;
        saturated?;
        if !checker.may_fail() {
            safe_checker = Some(checker);
            return Ok(None);
        }
        let found = find_error_path(&mut checker);
        if matches!(found, Ok(None)) {
            safe_checker = Some(checker);
        }
        found
    })();
    drop(mem_tag);
    stats.mc += t.elapsed();
    span("mc", t);
    let path = match mc {
        Ok(None) => {
            if let (Some(checker), true) = (&safe_checker, opts.evidence.is_some()) {
                *safe_inv = Some(SafeInvariant {
                    gamma: checker
                        .gamma()
                        .iter()
                        .map(|(f, ts)| (f.clone(), ts.clone()))
                        .collect(),
                    base_flow: checker.base_flow().clone(),
                });
            }
            return IterOutcome::Done(Verdict::Safe);
        }
        Ok(Some(p)) => p,
        Err(CheckError::Budget(e)) => return unknown(UnknownReason::Budget(e)),
        Err(e) => return unknown(UnknownReason::InternalFault(format!("model checking: {e}"))),
    };

    // Step 3: replay the abstract error path (feasibility's trace build).
    pstart("feas");
    let t = Instant::now();
    let mem_tag = mem::phase_scope(Phase::Feas);
    let labels = source_labels(&path);
    rec.cex_len = labels.len();
    let trace = match build_trace_budgeted(&compiled.cps, &labels, trace_fuel, budget) {
        Ok(tr) => tr,
        Err(e) => {
            stats.cegar += t.elapsed();
            span("feas", t);
            return match e {
                TraceError::Exhausted(b) => unknown(UnknownReason::Budget(b)),
                TraceError::Invalid(msg) => {
                    unknown(UnknownReason::InternalFault(format!("trace: {msg}")))
                }
            };
        }
    };
    if trace.end == TraceEnd::OutOfFuel {
        stats.cegar += t.elapsed();
        span("feas", t);
        return unknown(UnknownReason::Budget(BudgetError::with_detail(
            homc_smt::Phase::Feas,
            homc_smt::LimitKind::Fuel,
            format!("trace replay ran out of fuel ({trace_fuel} steps)"),
        )));
    }
    if trace.end != TraceEnd::ReachedFail {
        stats.cegar += t.elapsed();
        span("feas", t);
        return unknown(UnknownReason::ReplayMismatch(format!(
            "abstract path did not replay to fail: {:?}",
            trace.end
        )));
    }
    drop(mem_tag);
    stats.cegar += t.elapsed();
    span("feas", t);

    // Step 4: feasibility verdict + interpolation-driven refinement.
    pstart("interp");
    let t = Instant::now();
    let mem_tag = mem::phase_scope(Phase::Interp);
    let refine_opts = RefineOptions {
        iteration,
        ..opts.refine
    };
    let refined = refine_env_traced(
        &compiled.cps,
        &trace,
        env,
        solver,
        &refine_opts,
        budget,
        tracer,
    );
    drop(mem_tag);
    stats.cegar += t.elapsed();
    span("interp", t);
    match refined {
        Ok((Feasibility::Feasible(witness), _, _)) => IterOutcome::Done(Verdict::Unsafe {
            witness,
            path: labels,
        }),
        Ok((Feasibility::Unknown, _, _)) => unknown(UnknownReason::Inconclusive),
        Ok((Feasibility::Exhausted(e), _, _)) => unknown(UnknownReason::Budget(e)),
        Ok((Feasibility::Infeasible, changed, refinement)) => {
            // Provenance is worth keeping only when evidence is requested;
            // the records are strings, so skip the copies otherwise.
            if opts.evidence.is_some() {
                prov.extend(refinement.provenance.iter().map(|p| ProvenanceRecord {
                    iteration: (iteration + 1) as u64,
                    target: p.target.clone(),
                    cut: p.cut as u64,
                    source: p.source.as_str().to_string(),
                    pred: p.pred.clone(),
                }));
            }
            rec.new_interp = refinement.interpolated;
            rec.new_seeded = refinement.seeded;
            rec.new_ho = refinement.ho_updates.len();
            rec.interp_size_max = refinement.max_interp_size;
            rec.counts.cuts_sliced = refinement.cuts_sliced;
            rec.counts.cert_reuse_hits = refinement.cert_reuse_hits;
            if !changed {
                unknown(UnknownReason::NoProgress)
            } else {
                IterOutcome::Continue
            }
        }
        Err(RefineError::Exhausted(e)) => unknown(UnknownReason::Budget(e)),
        Err(RefineError::Invalid(msg)) => {
            unknown(UnknownReason::InternalFault(format!("refinement: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify_src(src: &str) -> Verdict {
        verify(src, &VerifierOptions::default())
            .expect("no hard error")
            .verdict
    }

    #[test]
    fn intro1_safe() {
        let v = verify_src(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
        );
        assert_eq!(v, Verdict::Safe);
    }

    #[test]
    fn simple_unsafe_with_witness() {
        let v = verify_src("assert (n > 0)");
        match v {
            Verdict::Unsafe { witness, .. } => assert!(witness[0] <= 0),
            other => panic!("expected Unsafe, got {other}"),
        }
    }

    #[test]
    fn intro2_safe() {
        // M2: the ≥-variant needs different predicates per position.
        let v = verify_src(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n >= 0 then f n h else () in
             k m",
        );
        assert_eq!(v, Verdict::Safe);
    }

    #[test]
    fn intro3_safe() {
        // M3: needs dependent abstraction types.
        let v = verify_src(
            "let f x g = g (x + 1) in
             let h z y = assert (y > z) in
             let k n = if n >= 0 then f n (h n) else () in
             k m",
        );
        assert_eq!(v, Verdict::Safe);
    }

    #[test]
    fn cycles_counted() {
        let out = verify(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
            &VerifierOptions::default(),
        )
        .expect("runs");
        assert!(out.stats.cycles >= 1, "CEGAR must iterate at least once");
        assert_eq!(out.order, 2);
    }

    #[test]
    fn retryable_exhaustion_escalates_once() {
        // Limits so tight the first attempt must die on a retryable bound;
        // the escalated retry (×4) then verifies intro1.
        let opts = VerifierOptions {
            check: CheckLimits {
                max_search_steps: 2_000,
                ..CheckLimits::default()
            },
            ..VerifierOptions::default()
        };
        let out = verify(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
            &opts,
        )
        .expect("runs");
        // Either the tight limit sufficed (no retry) or the retry fixed it;
        // in both cases the verdict must not be a panic or a hang.
        match out.verdict {
            Verdict::Safe => {}
            Verdict::Unknown { .. } => {}
            other => panic!("unexpected verdict {other}"),
        }
    }
}

#[cfg(test)]
mod gen_p_tests {
    use super::*;
    use homc_cegar::RefineOptions;

    /// §5.3's relative-completeness device: with interpolation-based
    /// discovery disabled entirely, the blind enumeration alone must still
    /// eventually verify M1 (the needed predicate ν > 0 appears at a finite
    /// index).
    #[test]
    fn gen_p_enumeration_alone_verifies_m1() {
        let opts = VerifierOptions {
            max_iterations: 60,
            refine: RefineOptions {
                seed_from_path: false,
                enumerate_gen_p: true,
                iteration: 0,
            },
            ..VerifierOptions::default()
        };
        let v = verify(
            "let f x g = g (x + 1) in
             let h y = assert (y > 0) in
             let k n = if n > 0 then f n h else () in
             k m",
            &opts,
        )
        .expect("runs")
        .verdict;
        assert_eq!(v, Verdict::Safe);
    }
}
