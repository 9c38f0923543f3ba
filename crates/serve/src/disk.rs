//! The versioned on-disk tier of the [`QueryCache`].
//!
//! A cache directory holds append-only **segment files** (`seg-*.seg`), one
//! published per batch run, in the [`crate::store`] format under the magic
//! `homc-cache`. Payloads are [`codec`](crate::codec) record encodings
//! carrying **full keys**, so integrity is layered: the checksum rejects any
//! single-byte flip outright, and even a flip that forged a checksum could
//! only produce a record whose key no live query matches, or a decode error —
//! never a wrong answer to a real query.
//!
//! A bad record is skipped and its segment quarantined after the scan; a
//! segment of another version is reclaimed (the cache is rebuildable).
//! Each rejection bumps [`Counter::DiskQuarantine`].
//!
//! A load becomes one immutable [`QueryTier`]
//! ([`DiskCache::load_tier`]), which every cache of a run reads by `Arc`
//! after a miss in its private tables; no cache copies it.

use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use homc_metrics::{Counter, Metrics};
use homc_smt::{QueryCache, QueryTier};

use crate::codec::{decode_record, encode_check, encode_cube, Record};
use crate::store::{checksum_offset, Policy, Store};

pub use crate::store::LoadReport;

/// First bytes of every segment file.
pub const MAGIC: &str = "homc-cache";
/// Schema version of the record payloads; bump on any codec change.
pub const VERSION: u32 = 1;

static POLICY: Policy = Policy {
    magic: MAGIC,
    version: VERSION,
    prefix: "seg-",
    ext: ".seg",
    reclaim_stale: true,
    skip_bad_records: true,
    counter: Counter::DiskQuarantine,
};

/// A deterministic fault to apply while publishing a segment (the disk
/// half of the `--inject` plan: torn writes, truncation, checksum flips).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Keep only the first `keep_bytes` bytes of the segment (a torn write
    /// that still got published).
    Torn {
        /// Bytes of the composed segment to keep.
        keep_bytes: u64,
    },
    /// Keep the header and only the first `keep_records` records.
    Truncate {
        /// Records to keep.
        keep_records: usize,
    },
    /// Overwrite one hex digit of record `record`'s checksum field.
    FlipChecksum {
        /// Zero-based record index.
        record: usize,
    },
    /// XOR the byte at `offset` with `0x01` after composing the segment.
    FlipByte {
        /// Byte offset into the segment file.
        offset: u64,
    },
}

impl FromStr for DiskFault {
    type Err = String;

    /// Parses `torn:<bytes>`, `trunc:<records>`, `flipsum:<record>`, or
    /// `flip:<offset>`.
    fn from_str(s: &str) -> Result<DiskFault, String> {
        let (kind, arg) = s
            .split_once(':')
            .ok_or_else(|| format!("bad disk fault {s:?}: expected kind:<n>"))?;
        let n: u64 = arg
            .parse()
            .map_err(|_| format!("bad disk fault {s:?}: {arg:?} is not a number"))?;
        match kind {
            "torn" => Ok(DiskFault::Torn { keep_bytes: n }),
            "trunc" => Ok(DiskFault::Truncate {
                keep_records: n as usize,
            }),
            "flipsum" => Ok(DiskFault::FlipChecksum {
                record: n as usize,
            }),
            "flip" => Ok(DiskFault::FlipByte { offset: n }),
            _ => Err(format!(
                "bad disk fault {s:?}: kind must be torn|trunc|flipsum|flip"
            )),
        }
    }
}

/// What [`DiskCache::publish`] wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublishReport {
    /// Final path of the published segment.
    pub path: PathBuf,
    /// Records written.
    pub records: usize,
    /// Segment size in bytes (after any injected fault).
    pub bytes: u64,
}

/// Handle to one on-disk cache directory.
#[derive(Clone, Debug)]
pub struct DiskCache {
    store: Store,
    fault: Option<DiskFault>,
}

impl DiskCache {
    /// A cache rooted at `dir` (created on first publish).
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache {
            store: Store::new(dir.into(), &POLICY),
            fault: None,
        }
    }

    /// Applies a deterministic fault to the next publication.
    pub fn with_fault(mut self, fault: Option<DiskFault>) -> DiskCache {
        self.fault = fault;
        self
    }

    /// Attaches a metrics registry ([`Counter::DiskQuarantine`] etc.).
    pub fn with_metrics(mut self, metrics: Metrics) -> DiskCache {
        self.store = self.store.with_metrics(metrics);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Reads every valid record of every valid segment, in segment order.
    /// Never fails on file *content* — only on directory I/O errors;
    /// unreadable or corrupt segments are quarantined and counted.
    pub fn load(&self) -> io::Result<(Vec<Record>, LoadReport)> {
        self.store.load_all(decode_record)
    }

    /// [`load`](Self::load), with the records moved into one [`QueryTier`]
    /// that any number of caches can share by `Arc`. A key loaded twice
    /// keeps its later record.
    pub fn load_tier(&self) -> io::Result<(QueryTier, LoadReport)> {
        let (records, report) = self.load()?;
        Ok((build_tier(records), report))
    }

    /// [`load_tier`](Self::load_tier), attached to `cache` unless empty,
    /// for single-cache users.
    pub fn load_into(&self, cache: &QueryCache) -> io::Result<LoadReport> {
        let (tier, report) = self.load_tier()?;
        attach_nonempty(cache, tier);
        Ok(report)
    }

    /// Publishes every entry the run discovered (keys of its tier excluded)
    /// as one new segment. Returns `None` when there is nothing new to write.
    pub fn publish(&self, cache: &QueryCache) -> io::Result<Option<PublishReport>> {
        let mut payloads: Vec<String> = cache
            .export_new_check()
            .iter()
            .map(|(k, v)| encode_check(k, v))
            .chain(
                cache
                    .export_new_cubes()
                    .iter()
                    .map(|(k, v)| encode_cube(k, *v)),
            )
            .collect();
        if payloads.is_empty() {
            return Ok(None);
        }
        // Table iteration order is nondeterministic; the file must not be.
        payloads.sort();
        payloads.dedup();
        let records = payloads.len();

        let kept = match self.fault {
            // At least one record survives, as it always has.
            Some(DiskFault::Truncate { keep_records }) => keep_records.max(1),
            _ => records,
        };
        let mut bytes = POLICY.compose(payloads.iter().take(kept)).into_bytes();
        match self.fault {
            Some(DiskFault::Torn { keep_bytes }) => {
                bytes.truncate(keep_bytes as usize);
            }
            Some(DiskFault::FlipByte { offset }) => {
                if let Some(b) = bytes.get_mut(offset as usize) {
                    *b ^= 0x01;
                }
            }
            Some(DiskFault::FlipChecksum { record }) => {
                if let Some(off) = checksum_offset(&bytes, record) {
                    bytes[off] = if bytes[off] == b'0' { b'1' } else { b'0' };
                }
            }
            Some(DiskFault::Truncate { .. }) | None => {}
        }
        let (path, _) = self.store.publish_numbered(|_| bytes.clone())?;
        Ok(Some(PublishReport {
            path,
            records,
            bytes: bytes.len() as u64,
        }))
    }
}

/// Builds a tier from loaded records; a later record of a key wins.
fn build_tier(records: impl IntoIterator<Item = Record>) -> QueryTier {
    let mut tier = QueryTier::new();
    for r in records {
        match r {
            Record::Check { key, value } => tier.insert_check(key, value),
            Record::Cube { key, value } => tier.insert_cube(key, value),
        }
    }
    tier
}

fn attach_nonempty(cache: &QueryCache, tier: QueryTier) {
    if !tier.is_empty() {
        cache.attach_tier(Arc::new(tier));
    }
}

/// Attaches loaded disk records to a cache as its tier (nothing when there
/// are none): their first hit in this cache counts as a disk hit, and they
/// are excluded from the next publish. To share one tier among many caches,
/// build it once with [`DiskCache::load_tier`] instead.
///
/// # Panics
///
/// If `cache` already has a tier.
pub fn seed_cache(cache: &QueryCache, records: &[Record]) {
    attach_nonempty(cache, build_tier(records.iter().cloned()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc_smt::{Atom, CachedSat, CubeSat, Formula, LinExpr};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "homc-serve-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn warm_cache() -> QueryCache {
        let c = QueryCache::new();
        c.store_check(
            (Formula::Atom(Atom::le(LinExpr::var("x"), LinExpr::constant(3))), 48),
            CachedSat::Unsat,
        );
        c.store_check((Formula::True, 48), CachedSat::Unknown);
        c.store_cube(
            (vec![Atom::le(LinExpr::var("y"), LinExpr::constant(0))], 24),
            CubeSat::Sat,
        );
        c
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let disk = DiskCache::new(&dir);
        let report = disk.publish(&warm_cache()).unwrap().expect("records");
        assert_eq!(report.records, 3);

        let fresh = QueryCache::new();
        let load = disk.load_into(&fresh).unwrap();
        assert_eq!(load.records, 3);
        assert_eq!(load.bad_records, 0);
        assert_eq!(load.quarantined, 0);
        assert!(matches!(
            fresh.lookup_check(&(Formula::True, 48)),
            Some(CachedSat::Unknown)
        ));
        assert_eq!(fresh.stats().disk_hits, 1);
        // Loaded entries are the tier: republication has nothing new.
        assert!(disk.publish(&fresh).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_cold_starts() {
        let dir = tmpdir("version");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-000001.seg"), "homc-cache v999\ngarbage").unwrap();
        let disk = DiskCache::new(&dir);
        let fresh = QueryCache::new();
        let load = disk.load_into(&fresh).unwrap();
        assert_eq!(load.stale, 1);
        assert_eq!(load.records, 0);
        assert_eq!(load.quarantined, 0);
        assert!(!dir.join("seg-000001.seg").exists(), "stale segment removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_quarantines() {
        let dir = tmpdir("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-000001.seg"), "not a cache\n").unwrap();
        let metrics = Metrics::new(true);
        let disk = DiskCache::new(&dir).with_metrics(metrics.clone());
        let load = disk.load_into(&QueryCache::new()).unwrap();
        assert_eq!(load.quarantined, 1);
        assert!(dir.join("seg-000001.seg.quarantined").exists());
        assert_eq!(metrics.snapshot().counter(Counter::DiskQuarantine), 1);
        // The quarantined file is never rescanned.
        let load2 = disk.load_into(&QueryCache::new()).unwrap();
        assert_eq!(load2.segments, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_quarantines_tail() {
        let dir = tmpdir("torn");
        let disk = DiskCache::new(&dir).with_fault(Some(DiskFault::Torn { keep_bytes: 40 }));
        disk.publish(&warm_cache()).unwrap().expect("records");
        let fresh = QueryCache::new();
        let load = DiskCache::new(&dir).load_into(&fresh).unwrap();
        assert_eq!(load.quarantined, 1);
        assert_eq!(load.records, 0, "40 bytes is inside the first record");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_flip_fault_skips_record_keeps_rest() {
        let dir = tmpdir("flipsum");
        let disk = DiskCache::new(&dir).with_fault(Some(DiskFault::FlipChecksum { record: 0 }));
        let report = disk.publish(&warm_cache()).unwrap().expect("records");
        assert_eq!(report.records, 3);
        let fresh = QueryCache::new();
        let load = DiskCache::new(&dir).load_into(&fresh).unwrap();
        assert_eq!(load.bad_records, 1);
        assert_eq!(load.records, 2, "later records survive a mid-file flip");
        assert_eq!(load.quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_fault_parser() {
        assert_eq!("torn:7".parse(), Ok(DiskFault::Torn { keep_bytes: 7 }));
        assert_eq!("trunc:2".parse(), Ok(DiskFault::Truncate { keep_records: 2 }));
        assert_eq!(
            "flipsum:0".parse(),
            Ok(DiskFault::FlipChecksum { record: 0 })
        );
        assert_eq!("flip:33".parse(), Ok(DiskFault::FlipByte { offset: 33 }));
        assert!("nope:1".parse::<DiskFault>().is_err());
        assert!("torn".parse::<DiskFault>().is_err());
        assert!("torn:x".parse::<DiskFault>().is_err());
    }
}
