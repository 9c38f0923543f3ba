//! Incremental predicate abstraction: the per-definition transition memo.
//!
//! The paper's CEGAR loop re-runs Step 1 (abstraction) over the whole
//! program every iteration, but refinement only adds predicates to a few
//! bindings. A definition's abstraction depends on exactly three inputs:
//! its own (immutable) body, the schemes of the functions it *directly*
//! references — the calls in [`crate::abstract_prog`] that read
//! `AbsEnv::schemes` all take function names appearing literally in the
//! body — and the `rand_sites` predicate lists of its own `rand`-bound
//! variables. That reference set is the definition's **dependency cone**;
//! it is computed once per run from the program structure.
//!
//! On every iteration each definition's cone is fingerprinted against the
//! current environment (a stable 64-bit hash of the rendered schemes and
//! rand-site predicate lists, in cone order). If the fingerprint matches
//! the memo entry from an earlier iteration, the previously produced
//! [`BDef`]s — the definition plus its coercion wrappers — are reused
//! verbatim; otherwise the definition is re-abstracted and the entry
//! replaced.
//!
//! Verbatim reuse is exact, not approximate: fresh names are namespaced by
//! definition index with a per-task counter, so re-abstracting a definition
//! under an unchanged cone environment reproduces byte-identical output.
//! The memo therefore never changes the abstract program, only the work
//! spent producing it — typically re-abstracting 1-3 of N definitions per
//! refinement instead of all of them.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use homc_budget::Budget;
use homc_hbp::{BDef, BProgram};
use homc_lang::kernel::{Expr, FunName, Program, Value};
use homc_metrics::Metrics;
use homc_smt::{QueryCache, Var};
use homc_trace::{stable_hash64, Tracer};

use crate::abstract_prog::{
    abstract_task, AbsError, AbsOptions, AbsStats, DefResult,
};
use crate::types::AbsEnv;

/// The environment slice one abstraction task reads: the functions whose
/// schemes it looks up and the variables whose `rand_sites` entries it
/// consults. Over-approximating the cone is sound (it only forces spurious
/// rebuilds); missing a reference would be unsound, so the collectors walk
/// every value position of the body.
#[derive(Clone, Debug, Default)]
struct ConeRefs {
    funs: BTreeSet<FunName>,
    rands: BTreeSet<Var>,
}

/// One memoized abstraction task: the cone fingerprint it was built under,
/// its output definitions (coercion wrappers followed by the definition
/// itself, or the entry wrapper), and the statistics of the build.
struct MemoEntry {
    fp: u64,
    defs: Vec<BDef>,
    stats: AbsStats,
}

/// The cross-iteration transition memo. One per `verify` run, owned by the
/// CEGAR driver; valid for exactly one (immutable) program. Entry `i`
/// memoizes definition task `i`, entry `defs.len()` the entry wrapper.
#[derive(Default)]
pub struct TransitionMemo {
    cones: Vec<ConeRefs>,
    entries: Vec<Option<MemoEntry>>,
}

/// A portable snapshot of one memo entry, used by the cross-run artifact
/// store: the task index and definition name it belongs to, the cone
/// fingerprint it was built under, the query tallies of the original
/// build (credited as savings when the entry is replayed), and the
/// abstract definitions themselves.
#[derive(Clone, Debug)]
pub struct MemoDefExport {
    /// Task index: `i < defs.len()` is definition `i`, `defs.len()` the
    /// entry wrapper.
    pub index: usize,
    /// The definition's name (`main` for the entry wrapper) — an identity
    /// check against positional drift between runs.
    pub name: FunName,
    /// The cone fingerprint the entry was built under.
    pub fp: u64,
    /// SAT queries the original build spent.
    pub sat_queries: usize,
    /// Coercion wrappers the original build emitted.
    pub coercions: usize,
    /// Context truncations the original build recorded.
    pub ctx_truncated: usize,
    /// The abstract output: coercion wrappers plus the definition (or the
    /// entry wrapper).
    pub defs: Vec<BDef>,
}

impl TransitionMemo {
    /// An empty memo: the first abstraction through it builds everything.
    pub fn new() -> TransitionMemo {
        TransitionMemo::default()
    }

    /// Snapshots every populated entry for persistence. `program` supplies
    /// the definition names (the entry-wrapper task is named after `main`).
    pub fn export_entries(&self, program: &Program) -> Vec<MemoDefExport> {
        let n = program.defs.len();
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let e = e.as_ref()?;
                let name = if i < n {
                    program.defs[i].name.clone()
                } else {
                    program.main.clone()
                };
                Some(MemoDefExport {
                    index: i,
                    name,
                    fp: e.fp,
                    sat_queries: e.stats.sat_queries,
                    coercions: e.stats.coercions,
                    ctx_truncated: e.stats.ctx_truncated,
                    defs: e.defs.clone(),
                })
            })
            .collect()
    }

    /// Seeds one entry from a persisted snapshot, warming the memo before
    /// the first iteration of a re-verification run. Returns `false` (and
    /// stores nothing) when the snapshot does not line up with `program` —
    /// out-of-range index or a different definition name at that position.
    ///
    /// A seeded entry is only ever *replayed* if its recorded cone
    /// fingerprint matches the live environment's, so a stale seed costs a
    /// rebuild, never correctness; the final `BProgram::check` in
    /// [`abstract_program_incremental`] re-validates the assembled program
    /// regardless.
    pub fn seed_entry(&mut self, program: &Program, e: MemoDefExport) -> bool {
        self.ensure_cones(program);
        let n = program.defs.len();
        if e.index > n {
            return false;
        }
        let name = if e.index < n {
            &program.defs[e.index].name
        } else {
            &program.main
        };
        if name != &e.name {
            return false;
        }
        self.entries[e.index] = Some(MemoEntry {
            fp: e.fp,
            defs: e.defs,
            stats: AbsStats {
                sat_queries: e.sat_queries,
                coercions: e.coercions,
                ctx_truncated: e.ctx_truncated,
                ..AbsStats::default()
            },
        });
        true
    }

    /// Computes (once) the dependency cone of every task. The entry
    /// wrapper (index `defs.len()`) reads only `main`'s scheme.
    fn ensure_cones(&mut self, program: &Program) {
        if self.cones.len() == program.defs.len() + 1 {
            return;
        }
        self.cones = program
            .defs
            .iter()
            .map(|d| {
                let mut c = ConeRefs::default();
                c.funs.insert(d.name.clone());
                expr_cone(&d.body, &mut c);
                c
            })
            .collect();
        let mut entry = ConeRefs::default();
        entry.funs.insert(program.main.clone());
        self.cones.push(entry);
        self.entries = (0..self.cones.len()).map(|_| None).collect();
    }
}

/// Collects the function names referenced by a value (including partial
/// application heads and arguments).
fn value_cone(v: &Value, c: &mut ConeRefs) {
    match v {
        Value::Fun(g) => {
            c.funs.insert(g.clone());
        }
        Value::PApp(h, args) => {
            value_cone(h, c);
            for a in args {
                value_cone(a, c);
            }
        }
        Value::Const(_) | Value::Var(_) => {}
    }
}

/// Collects an expression's cone: every function reference in any value
/// position, and every `rand`-bound variable (whose `rand_sites` entry the
/// abstractor reads).
fn expr_cone(e: &Expr, c: &mut ConeRefs) {
    match e {
        Expr::Value(v) => value_cone(v, c),
        Expr::Call(h, args) => {
            value_cone(h, c);
            for a in args {
                value_cone(a, c);
            }
        }
        Expr::Op(_, args) => {
            for a in args {
                value_cone(a, c);
            }
        }
        Expr::Rand | Expr::Fail => {}
        Expr::Let(x, rhs, body) => {
            if matches!(rhs.as_ref(), Expr::Rand) {
                c.rands.insert(x.clone());
            }
            expr_cone(rhs, c);
            expr_cone(body, c);
        }
        Expr::Choice(l, r) => {
            expr_cone(l, c);
            expr_cone(r, c);
        }
        Expr::Assume(v, body) => {
            value_cone(v, c);
            expr_cone(body, c);
        }
    }
}

/// A stable fingerprint of the environment restricted to one cone: the
/// rendered schemes of the cone's functions and the predicate lists of its
/// rand sites, in deterministic (sorted) order. Refinement only ever
/// appends predicates, so any change to a cone member changes its rendering
/// and thus the hash.
fn cone_fingerprint(env: &AbsEnv, cone: &ConeRefs) -> u64 {
    let mut s = String::new();
    for f in &cone.funs {
        let _ = write!(s, "fun {f}:");
        match env.schemes.get(f) {
            Some(scheme) => {
                for (x, t) in scheme {
                    let _ = write!(s, "{x}={t};");
                }
            }
            None => s.push('?'),
        }
        s.push('|');
    }
    for x in &cone.rands {
        let _ = write!(s, "rand {x}:");
        if let Some(preds) = env.rand_sites.get(x) {
            for p in preds {
                let _ = write!(s, "{p};");
            }
        }
        s.push('|');
    }
    stable_hash64(&s)
}

/// [`crate::abstract_program_metered`] with a cross-iteration
/// [`TransitionMemo`]: tasks whose cone fingerprint is unchanged since
/// their memoized build are reused verbatim; only the rest are
/// re-abstracted (in parallel when more than one, namespaced by original
/// definition index, so output stays byte-identical to the eager path at
/// any thread count). Successes are memoized even when another task fails,
/// so a budget-exhausted iteration still warms the memo for its retry.
#[allow(clippy::too_many_arguments)]
pub fn abstract_program_incremental(
    program: &Program,
    env: &AbsEnv,
    opts: &AbsOptions,
    budget: Option<Arc<Budget>>,
    cache: Option<Arc<QueryCache>>,
    tracer: &Tracer,
    metrics: &Metrics,
    memo: &mut TransitionMemo,
) -> Result<(BProgram, AbsStats), AbsError> {
    memo.ensure_cones(program);
    let n = program.defs.len();
    let fps: Vec<u64> = memo
        .cones
        .iter()
        .map(|c| cone_fingerprint(env, c))
        .collect();

    let mut stats = AbsStats::default();
    let mut rebuild: Vec<usize> = Vec::new();
    for (i, fp) in fps.iter().enumerate() {
        match &memo.entries[i] {
            Some(e) if e.fp == *fp => {
                stats.defs_reused += 1;
                stats.queries_saved += e.stats.sat_queries;
                stats.coercions += e.stats.coercions;
                stats.ctx_truncated += e.stats.ctx_truncated;
            }
            Some(_) => {
                stats.defs_rebuilt += 1;
                rebuild.push(i);
            }
            None => rebuild.push(i),
        }
    }

    let task = |ns: usize| -> DefResult {
        let (budget, cache) = (budget.clone(), cache.clone());
        abstract_task(program, env, opts, budget, cache, tracer, metrics, None, ns)
    };
    let threads = opts.threads.clamp(1, rebuild.len().max(1));
    let sequential = threads <= 1
        || rebuild.len() < 2
        || budget.as_deref().is_some_and(Budget::has_faults);
    let results: Vec<(usize, DefResult)> = if sequential {
        rebuild.iter().map(|&i| (i, task(i))).collect()
    } else {
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, DefResult)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= rebuild.len() {
                                break;
                            }
                            local.push((rebuild[k], task(rebuild[k])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut flat: Vec<(usize, DefResult)> = per_worker.into_iter().flatten().collect();
        flat.sort_by_key(|(i, _)| *i);
        flat
    };

    // Memoize every success first (a partially failed iteration still warms
    // the memo), then propagate the lowest-index error — the same error the
    // sequential schedule would surface.
    let mut first_err: Option<(usize, AbsError)> = None;
    for (i, r) in results {
        match r {
            Ok((defs, s)) => {
                stats.absorb(&s);
                memo.entries[i] = Some(MemoEntry {
                    fp: fps[i],
                    defs,
                    stats: s,
                });
            }
            Err(e) => {
                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }

    let mut out: Vec<BDef> = Vec::new();
    for i in 0..=n {
        let entry = memo.entries[i]
            .as_ref()
            .ok_or_else(|| AbsError::Invalid("abstraction task never ran".into()))?;
        out.extend(entry.defs.iter().cloned());
    }

    let bp = BProgram {
        defs: out,
        main: FunName("__entry".to_string()),
    };
    bp.check().map_err(|e| {
        AbsError::Invalid(format!("abstraction produced an ill-formed program: {e}"))
    })?;
    Ok((bp, stats))
}
