//! `homc-serve`: the crash-safe serving layer of the homc pipeline.
//!
//! Two subsystems, both generic over what is being verified (the
//! verification-specific batch driver lives in the `homc` crate, which
//! depends on this one):
//!
//! * **A work-stealing job pool** ([`mod@pool`]): runs many jobs
//!   concurrently, each under its own cooperative [`CancelToken`] (typically
//!   wired into a `homc-budget` deadline/fuel scope), with panic trapping,
//!   one bounded retry with exponential backoff on retryable exhaustion, and
//!   an optional watchdog. Every submitted job yields exactly one structured
//!   [`JobResult`] — a failed or hung job degrades to a report entry, never
//!   a process abort.
//! * **A versioned disk tier for the query cache** ([`mod@disk`]):
//!   append-only segment files that cold-start cleanly on a version
//!   mismatch. Records carry **full canonical keys** ([`mod@codec`]), so a
//!   byte flip can cost a cache hit but can never change a verdict.
//! * **A persistent run ledger with trend analytics** ([`mod@ledger`],
//!   [`mod@trend`]): every suite/batch/bench run appends one checksummed
//!   JSONL run file, and `homc history`/`homc regress` read the accumulated
//!   records for per-program trends and a trailing-window regression gate.
//!
//! The cache, the ledger, the abstraction artifacts ([`mod@artifact`]) and
//! the evidence certificates ([`mod@evidence`]) are all files of one
//! store: a magic+version header, per-record length+FNV-1a-checksum
//! framing, quarantine of damaged files, and race-free atomic publication
//! with directory fsync. Each store only picks its failure policy.
//!
//! Deterministic fault injection covers the new failure surfaces: torn
//! writes, truncated segments, checksum flips ([`DiskFault`]), job-thread
//! panics and cancellation races (injected by the batch driver through the
//! job body). See DESIGN.md §"Serving & persistence architecture".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod codec;
pub mod disk;
pub mod evidence;
pub mod ledger;
pub mod pool;
mod store;
pub mod trend;

pub use artifact::{Artifact, ArtifactLoad, ArtifactStore, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use codec::{decode_record, encode_check, encode_cube, CodecError, Record};
pub use disk::{seed_cache, DiskCache, DiskFault, LoadReport, PublishReport, MAGIC, VERSION};
pub use evidence::{
    parse_evidence_bytes, Evidence, EvidenceLoad, EvidenceStore, EvidenceVerdict,
    ProvenanceRecord, SafeEvidence, EVIDENCE_MAGIC, EVIDENCE_VERSION,
};
pub use homc_budget::CancelToken;
pub use ledger::{
    AppendReport, Ledger, LedgerLoad, RunRecord, LEDGER_MAGIC, LEDGER_VERSION, RECORD_SCHEMA,
};
pub use pool::{run_jobs, Attempt, Job, JobOutcome, JobResult, PoolConfig, RetryPolicy};
pub use trend::{regress, render_history, TrendOptions};
