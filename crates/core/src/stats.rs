//! The run counter table: every effort counter of a verification run,
//! declared once.
//!
//! Each row of `run_table!` gives a counter's doc, its field name (which is
//! also its name in every sink), its integer type, how two runs' values
//! merge (`sum`, or `max` for watermarks), and — when the metrics registry
//! has a counter of the same meaning — that [`Counter`]. From the rows the
//! macro generates the [`VerifyStats`] fields, [`VerifyStats::counters`]
//! (the `(name, value)` walk that `--stats`, suite totals, the ledger
//! snapshot, the `table1` JSON and the `iter` trace event all render),
//! [`VerifyStats::absorb`] (the merge), and [`VerifyStats::fold_into`]
//! (the end-of-run fold into the registry). Adding a counter means adding
//! one row.

use std::time::Duration;

use homc_metrics::{Counter, Metrics};

macro_rules! run_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[doc = $pdoc:literal])* $plain:ident: $pty:ty, )*
        }
        counters {
            $( $(#[doc = $doc:literal])* $f:ident: $ty:ty, $merge:ident $(=> $ctr:ident)?; )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[doc = $pdoc])* pub $plain: $pty, )*
            $( $(#[doc = $doc])* pub $f: $ty, )*
        }

        impl $name {
            /// The rows that mirror a metrics-registry counter, as
            /// `(row name, registry counter)`.
            pub const REGISTRY_ROWS: &'static [(&'static str, Counter)] =
                &[$($((stringify!($f), Counter::$ctr),)?)*];

            /// Every counter row as `(name, value)`, in table order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($f), self.$f as u64)),*].into_iter()
            }

            /// Merges `other`'s counters into `self`, each by its row's rule.
            pub fn absorb(&mut self, other: &$name) {
                $( run_table!(@merge $merge, self.$f, other.$f); )*
            }

            /// Adds every row that mirrors a registry counter to `metrics`:
            /// the registry's only source for those counters.
            pub fn fold_into(&self, metrics: &Metrics) {
                $($( metrics.add(Counter::$ctr, self.$f as u64); )?)*
            }
        }
    };
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
}

run_table! {
    /// Per-phase timing and effort statistics (the columns of the paper's
    /// Table 1, then the effort counters). Row order is the order every sink
    /// lists the counters in, and the order of the `iter` trace event's
    /// nonzero-only tail.
    #[derive(Clone, Debug, Default)]
    pub struct VerifyStats {
        /// Time computing abstract programs (column `abst`).
        abst: Duration,
        /// Time model-checking boolean programs (column `mc`).
        mc: Duration,
        /// Time in feasibility checking + predicate discovery (column `cegar`).
        cegar: Duration,
        /// Total wall-clock time (column `total`).
        total: Duration,
        /// FNV-1a digest of the evidence this run exported (0 when evidence
        /// was not requested or the verdict was not decisive).
        evidence_digest: u64,
    }
    counters {
        /// CEGAR cycles (the paper's column C).
        cycles: usize, sum;
        /// Number of full-loop restarts after a retryable budget exhaustion.
        retries: usize, sum;
        /// Total predicates in the final abstraction-type environment.
        predicates: usize, sum;
        /// Size of the final boolean program (AST nodes).
        final_hbp_size: usize, sum;
        /// SMT queries issued across the whole run: every query-cache lookup in
        /// any table (solver checks, interpolation cubes, cube-pair
        /// interpolants, rational cores), so `cache_hits + cache_misses ==
        /// smt_queries` exactly.
        smt_queries: usize, sum;
        /// Query-cache hits across the whole run (all tables).
        cache_hits: u64, sum;
        /// Query-cache misses across the whole run (all tables).
        cache_misses: u64, sum;
        /// Cache hits answered by entries seeded from the persistent disk tier
        /// (0 for cold runs and runs without a disk cache).
        disk_hits: u64, sum => DiskHits;
        /// Model-checker worklist pops (definitions re-searched), summed over
        /// iterations.
        worklist_pops: usize, sum;
        /// Definition re-scans the worklist avoided versus a round-based sweep,
        /// summed over iterations.
        rescans_avoided: usize, sum;
        /// Refinement cut points answered trivially because no refuting
        /// component of the sliced path condition crossed them.
        cuts_sliced: usize, sum;
        /// Refinement cut points whose interpolant was derived from a shared
        /// Farkas certificate (one refutation, many cuts).
        cert_reuse_hits: usize, sum;
        /// Definitions whose abstraction was reused verbatim from the
        /// transition memo (cone fingerprint unchanged), summed over
        /// iterations. First-time builds count neither as reused nor rebuilt.
        abs_defs_reused: usize, sum => AbsDefsReused;
        /// Definitions re-abstracted because their cone fingerprint changed,
        /// summed over iterations.
        abs_defs_rebuilt: usize, sum => AbsDefsRebuilt;
        /// Feasible implicants emitted by the model-guided enumeration, summed
        /// over iterations.
        abs_implicants: usize, sum => AbsImplicants;
        /// Abstraction SMT queries avoided (model-coverage skips plus the
        /// recorded cost of memo-reused definitions), summed over iterations.
        abs_queries_saved: usize, sum => AbsQueriesSaved;
        /// Context components dropped by the `max_context_atoms` precision cap,
        /// summed over iterations (includes the recorded drops of memo-reused
        /// definitions).
        abs_ctx_truncated: usize, sum => AbsCtxTruncated;
        /// Predicate components of the final environment that the final
        /// boolean program never projects — installed but unread ("dead").
        /// Conservative: components in higher-order positions always count as
        /// live (their reads are indirect through closure wrappers).
        preds_dead: u64, sum => PredsDead;
        /// Definitions whose abstraction was replayed from a prior run's
        /// persisted artifact before the first iteration (manifest cone
        /// unchanged across the edit). 0 for cold runs.
        reverify_defs_skipped: usize, sum => ReverifyDefsSkipped;
        /// Predicates seeded into the initial environment from a prior run's
        /// winning abstraction types. 0 for cold runs.
        reverify_preds_seeded: usize, sum => ReverifyPredsSeeded;
        /// Artifact files rejected by integrity checks and quarantined while
        /// loading (at most 1 per run).
        artifact_quarantine: u64, sum => ArtifactQuarantine;
        /// Fourier–Motzkin eliminations skipped because the rational core of a
        /// query was already in the certificate cache.
        fm_prefix_hits: u64, sum;
        /// Peak live heap bytes over the run. All `peak_*` fields read the
        /// process's counting allocator and are 0 when none is installed (the
        /// `homc` and `table1` binaries install it; the test harness does not).
        peak_bytes: u64, max;
        /// Peak live heap bytes observed while the abstraction phase allocated.
        peak_abs_bytes: u64, max;
        /// Peak live heap bytes observed while the model checker allocated.
        peak_mc_bytes: u64, max;
        /// Peak live heap bytes observed while feasibility replay allocated.
        peak_feas_bytes: u64, max;
        /// Peak live heap bytes observed while interpolation allocated.
        peak_interp_bytes: u64, max;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_keeps_peak_maxima() {
        let mut a = VerifyStats {
            cycles: 2,
            disk_hits: 5,
            peak_bytes: 100,
            ..VerifyStats::default()
        };
        let b = VerifyStats {
            cycles: 3,
            disk_hits: 1,
            peak_bytes: 40,
            ..VerifyStats::default()
        };
        a.absorb(&b);
        assert_eq!((a.cycles, a.disk_hits, a.peak_bytes), (5, 6, 100));
    }

    #[test]
    fn registry_rows_share_the_registry_counter_name() {
        for (row, counter) in VerifyStats::REGISTRY_ROWS {
            assert_eq!(*row, counter.name(), "row {row} mirrors {counter:?}");
        }
        assert_eq!(VerifyStats::REGISTRY_ROWS.len(), 10);
    }

    #[test]
    fn fold_adds_exactly_the_mirrored_rows() {
        let metrics = Metrics::new(false);
        let stats = VerifyStats {
            disk_hits: 7,
            preds_dead: 2,
            smt_queries: 99,
            ..VerifyStats::default()
        };
        stats.fold_into(&metrics);
        stats.fold_into(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(Counter::DiskHits), 14);
        assert_eq!(snap.counter(Counter::PredsDead), 4);
        assert_eq!(snap.counter(Counter::SmtSolves), 0);
    }
}
