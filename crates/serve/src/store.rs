//! The one framed-file store under the disk query cache, the run ledger,
//! the abstraction artifacts, and the evidence certificates. Every
//! file-level decision — header, framing, scan, quarantine, naming, and
//! publication — is made here; each store adds only a payload codec and
//! its [`Policy`].
//!
//! # File format
//!
//! ```text
//! <magic> v<version>\n                     ← magic + schema version
//! XXXXXXXX YYYYYYYYYYYYYYYY <payload>\n    ← one frame per record
//! ```
//!
//! where `XXXXXXXX` is the payload byte length (8 hex digits) and
//! `YYYYYYYYYYYYYYYY` is the FNV-1a 64 checksum of the payload (16 hex
//! digits).
//!
//! # Failure policy
//!
//! Bad magic, an unreadable file, and a framing break (bad length field,
//! truncation, torn tail — the scan cannot resync) always quarantine the
//! file: it is renamed to `<name>.quarantined`, so its bytes survive for
//! inspection but are never parsed again, and the store's counter is
//! bumped. The rest is per store:
//!
//! | store    | stale-version file | bad record                            | quarantine counter   |
//! |----------|--------------------|---------------------------------------|----------------------|
//! | cache    | reclaimed          | skipped; file quarantined after scan  | `DiskQuarantine`     |
//! | ledger   | kept               | whole file rejected                   | `LedgerQuarantine`   |
//! | artifact | reclaimed          | whole file rejected                   | `ArtifactQuarantine` |
//! | evidence | reclaimed          | whole file rejected                   | `ArtifactQuarantine` |
//!
//! A bad record is a checksum or decode failure. A store that skips bad
//! records also counts each one against its counter.
//!
//! # Publication
//!
//! A file is composed in memory, written to a temp file unique to the
//! writer (`.tmp-<pid>-<n>`, opened with `create_new`), fsynced, and moved
//! into place; then the directory is fsynced so the new name survives a
//! crash. Numbered files (`seg-NNNNNN.seg`, `run-NNNNNN.led`) are claimed
//! with a hard link, which fails instead of overwriting when a concurrent
//! writer took the number first; the writer then retries with the next
//! number. Keyed files (`<slug>-<hash16>.art`, `.evd`) replace their
//! predecessor by `rename`. Readers never see a half-written file under a
//! store name.
//!
//! A writer that dies mid-publish leaves its temp file behind. Every load
//! and publish removes the temp files whose `<pid>` is not alive
//! (`/proc/<pid>` absent), which never matches this process's own. A name
//! whose pid does not parse, and every temp file where `/proc` is missing
//! or shows another pid namespace, is left alone.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use homc_metrics::{Counter, Metrics};
use homc_trace::stable_hash64;

use crate::codec::CodecError;

/// A store's file format and failure policy.
#[derive(Debug)]
pub(crate) struct Policy {
    /// First bytes of every file.
    pub(crate) magic: &'static str,
    /// Schema version written after the magic.
    pub(crate) version: u32,
    /// Name prefix of numbered files (empty for keyed stores).
    pub(crate) prefix: &'static str,
    /// File extension, with its dot.
    pub(crate) ext: &'static str,
    /// Remove a file of another version (the store is rebuildable) instead
    /// of keeping it.
    pub(crate) reclaim_stale: bool,
    /// Skip a bad record and keep scanning, instead of rejecting the file.
    pub(crate) skip_bad_records: bool,
    /// Bumped for every quarantined file (and skipped record).
    pub(crate) counter: Counter,
}

/// How a scanned file fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Every record was good.
    Clean,
    /// A file of another schema version; no records read.
    Stale,
    /// An integrity violation; the file is to be quarantined.
    Corrupt,
}

/// The outcome of scanning one file.
struct Scan<T> {
    /// Records kept (none when a whole-file policy rejected the file).
    records: Vec<T>,
    /// Records rejected by checksum, framing, or decode.
    bad: usize,
    status: Status,
}

impl<T> Scan<T> {
    fn corrupt() -> Scan<T> {
        Scan {
            records: Vec::new(),
            bad: 0,
            status: Status::Corrupt,
        }
    }
}

/// A keyed file's records, assembled into one value.
pub(crate) trait Assemble: Default {
    /// The assembled value.
    type Out;
    /// Folds in one record; an error rejects the file.
    fn add(&mut self, payload: &str) -> Result<(), CodecError>;
    /// The value, or `None` when the records do not fit together.
    fn finish(self) -> Option<Self::Out>;
}

impl Policy {
    /// The header line followed by one frame per payload.
    pub(crate) fn compose<S: AsRef<str>>(&self, payloads: impl IntoIterator<Item = S>) -> String {
        let mut text = format!("{} v{}\n", self.magic, self.version);
        for p in payloads {
            text.push_str(&frame_line(p.as_ref()));
        }
        text
    }

    /// Checks the header, then decodes every frame under this policy.
    fn scan<T, E>(
        &self,
        bytes: &[u8],
        mut decode: impl FnMut(&str) -> Result<T, E>,
    ) -> Scan<T> {
        let mut scan = Scan::corrupt();
        let Some(end) = bytes.iter().position(|&b| b == b'\n') else {
            return scan;
        };
        let version = std::str::from_utf8(&bytes[..end])
            .ok()
            .and_then(|h| h.strip_prefix(self.magic)?.strip_prefix(" v"));
        match version.map(str::parse::<u32>) {
            Some(Ok(v)) if v == self.version => scan.status = Status::Clean,
            Some(Ok(_)) => scan.status = Status::Stale,
            _ => {}
        }
        if scan.status != Status::Clean {
            return scan;
        }
        let mut pos = end + 1;
        while pos < bytes.len() {
            let Some(frame) = parse_frame(&bytes[pos..]) else {
                scan.bad += 1;
                scan.status = Status::Corrupt;
                break; // cannot resync
            };
            pos += frame.consumed;
            let record = (stable_hash64(frame.payload) == frame.sum)
                .then(|| decode(frame.payload).ok())
                .flatten();
            match record {
                Some(r) => scan.records.push(r),
                None => {
                    scan.bad += 1;
                    scan.status = Status::Corrupt;
                    if !self.skip_bad_records {
                        break;
                    }
                }
            }
        }
        if scan.status == Status::Corrupt && !self.skip_bad_records {
            scan.records.clear();
        }
        scan
    }

    /// Assembles a keyed file from its bytes; `None` unless the file is
    /// clean and its records fit together.
    pub(crate) fn parse<A: Assemble>(&self, bytes: &[u8]) -> Option<A::Out> {
        let mut acc = A::default();
        let status = self.scan(bytes, |p| acc.add(p)).status;
        (status == Status::Clean).then(|| acc.finish()).flatten()
    }
}

/// One store directory under a [`Policy`].
#[derive(Clone, Debug)]
pub(crate) struct Store {
    dir: PathBuf,
    policy: &'static Policy,
    metrics: Metrics,
}

/// What a load of every file of a numbered store (the disk cache's
/// segments, the ledger's runs) found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Files scanned (including rejected ones).
    pub segments: usize,
    /// Records loaded.
    pub records: usize,
    /// Records rejected by checksum, framing, or decode.
    pub bad_records: usize,
    /// Files renamed to `.quarantined`.
    pub quarantined: usize,
    /// Files from another schema version, skipped (and, where the store
    /// is rebuildable, removed).
    pub stale: usize,
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records from {} segments ({} bad, {} quarantined, {} stale)",
            self.records, self.segments, self.bad_records, self.quarantined, self.stale
        )
    }
}

impl Store {
    /// A store rooted at `dir` (created on first publish).
    pub(crate) fn new(dir: PathBuf, policy: &'static Policy) -> Store {
        Store {
            dir,
            policy,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches the registry the quarantine counter is bumped in.
    pub(crate) fn with_metrics(mut self, metrics: Metrics) -> Store {
        self.metrics = metrics;
        self
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file of a key. The key (a suite program name or a source path)
    /// is slugged for the filesystem and disambiguated by its full FNV
    /// hash, so distinct keys never share a file.
    pub(crate) fn path_for(&self, key: &str) -> PathBuf {
        let slug: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .take(40)
            .collect();
        self.dir.join(format!(
            "{slug}-{:016x}{}",
            stable_hash64(key),
            self.policy.ext
        ))
    }

    fn number(&self, path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix(self.policy.prefix)?
            .strip_suffix(self.policy.ext)?
            .parse()
            .ok()
    }

    /// Numbered file paths in name (= number) order.
    fn files(&self) -> io::Result<Vec<PathBuf>> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in entries {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(self.policy.prefix) && name.ends_with(self.policy.ext) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Renames `path` to `<name>.quarantined` and counts it.
    fn quarantine(&self, path: &Path) {
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantined");
        let _ = fs::rename(path, q);
        self.metrics.incr(self.policy.counter);
    }

    /// Reads and scans one file, then applies the policy: a corrupt file is
    /// quarantined, a stale one reclaimed or kept. `None` when the file does
    /// not exist.
    fn load<T, E>(&self, path: &Path, decode: impl FnMut(&str) -> Result<T, E>) -> Option<Scan<T>> {
        let scan = match fs::read(path) {
            Ok(bytes) => self.policy.scan(&bytes, decode),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => Scan::corrupt(),
        };
        if self.policy.skip_bad_records {
            self.metrics.add(self.policy.counter, scan.bad as u64);
        }
        match scan.status {
            Status::Clean => {}
            Status::Stale if self.policy.reclaim_stale => {
                let _ = fs::remove_file(path);
            }
            Status::Stale => {}
            Status::Corrupt => self.quarantine(path),
        }
        Some(scan)
    }

    /// Every kept record of every numbered file, in file order. Fails only
    /// on directory I/O errors, never on file content.
    pub(crate) fn load_all<T, E>(
        &self,
        mut decode: impl FnMut(&str) -> Result<T, E>,
    ) -> io::Result<(Vec<T>, LoadReport)> {
        self.reclaim_orphans();
        let mut report = LoadReport::default();
        let mut records = Vec::new();
        for path in self.files()? {
            report.segments += 1;
            let Some(scan) = self.load(&path, &mut decode) else {
                continue; // taken away by a concurrent reader
            };
            report.records += scan.records.len();
            report.bad_records += scan.bad;
            match scan.status {
                Status::Clean => {}
                Status::Stale => report.stale += 1,
                Status::Corrupt => report.quarantined += 1,
            }
            records.extend(scan.records);
        }
        Ok((records, report))
    }

    /// Loads the file of `key`: the assembled value, and whether a file
    /// existed but was quarantined. A missing or stale file is a clean miss.
    pub(crate) fn load_keyed<A: Assemble>(&self, key: &str) -> (Option<A::Out>, bool) {
        self.reclaim_orphans();
        let path = self.path_for(key);
        let mut acc = A::default();
        match self.load(&path, |p| acc.add(p)).map(|s| s.status) {
            None | Some(Status::Stale) => (None, false),
            Some(Status::Corrupt) => (None, true),
            Some(Status::Clean) => match acc.finish() {
                Some(value) => (Some(value), false),
                None => {
                    self.quarantine(&path);
                    (None, true)
                }
            },
        }
    }

    /// Publishes the next numbered file, `render(n)` giving the bytes of
    /// file number `n`. Returns the path and the number claimed.
    pub(crate) fn publish_numbered(
        &self,
        mut render: impl FnMut(u64) -> Vec<u8>,
    ) -> io::Result<(PathBuf, u64)> {
        self.ensure_dir()?;
        self.reclaim_orphans();
        let files = self.files()?;
        let mut n = 1 + files
            .iter()
            .filter_map(|p| self.number(p))
            .max()
            .unwrap_or(0);
        loop {
            let tmp = self.write_tmp(&render(n))?;
            let path = self
                .dir
                .join(format!("{}{n:06}{}", self.policy.prefix, self.policy.ext));
            let claimed = fs::hard_link(&tmp, &path);
            let _ = fs::remove_file(&tmp);
            match claimed {
                Ok(()) => {
                    sync_dir(&self.dir)?;
                    return Ok((path, n));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Publishes `bytes` as the file of `key`, replacing any previous one.
    pub(crate) fn publish_keyed(&self, key: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        self.ensure_dir()?;
        self.reclaim_orphans();
        let path = self.path_for(key);
        let tmp = self.write_tmp(bytes)?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        sync_dir(&self.dir)?;
        Ok(path)
    }

    /// Creates the directory if needed. A new directory's name lives in its
    /// parent, so the parent is synced to make the directory durable.
    fn ensure_dir(&self) -> io::Result<()> {
        if self.dir.is_dir() {
            return Ok(());
        }
        fs::create_dir_all(&self.dir)?;
        let parent = self.dir.parent().filter(|p| !p.as_os_str().is_empty());
        sync_dir(parent.unwrap_or(Path::new(".")))
    }

    /// Removes the temp files of writers that died mid-publish (see the
    /// module docs). Best effort: an I/O error only leaves a file behind.
    fn reclaim_orphans(&self) {
        // `/proc` answers for liveness only when it shows this process's
        // pid namespace, which `/proc/self` naming our own pid confirms. Then
        // this process is alive there too, and its own files are kept.
        let proc = Path::new("/proc");
        let me = std::process::id().to_string();
        if fs::read_link(proc.join("self")).ok().as_deref() != Some(Path::new(&me)) {
            return;
        }
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(pid) = name.to_str().and_then(tmp_pid) else {
                continue;
            };
            if !proc.join(pid.to_string()).exists() {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Writes and fsyncs a temp file no other writer uses.
    fn write_tmp(&self, bytes: &[u8]) -> io::Result<PathBuf> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(format!(".tmp-{}-{n}", std::process::id()));
            let mut f = match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(f) => f,
                // Left behind by a dead process that had our pid.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            };
            if let Err(e) = f.write_all(bytes).and_then(|()| f.sync_all()) {
                let _ = fs::remove_file(&path);
                return Err(e);
            }
            return Ok(path);
        }
    }
}

/// The writer pid of a temp file name `.tmp-<pid>-<n>`.
fn tmp_pid(name: &str) -> Option<u32> {
    let (pid, n) = name.strip_prefix(".tmp-")?.split_once('-')?;
    n.parse::<u64>().ok()?;
    pid.parse().ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

pub(crate) struct Frame<'a> {
    pub(crate) payload: &'a str,
    pub(crate) sum: u64,
    pub(crate) consumed: usize,
}

/// Composes one checksummed record line (the inverse of [`parse_frame`]):
/// 8 hex digits of payload length, a space, 16 hex digits of FNV-1a 64
/// checksum, a space, the payload, a newline.
fn frame_line(payload: &str) -> String {
    format!(
        "{:08x} {:016x} {payload}\n",
        payload.len(),
        stable_hash64(payload)
    )
}

/// Parses one record frame from the head of `rest`; `None` on any framing
/// violation (short input, bad hex, missing separators or newline, length
/// running past the end, non-UTF-8 payload).
pub(crate) fn parse_frame(rest: &[u8]) -> Option<Frame<'_>> {
    if rest.len() < 8 + 1 + 16 + 1 {
        return None;
    }
    let len = parse_hex(&rest[0..8])? as usize;
    if rest[8] != b' ' || rest[25] != b' ' {
        return None;
    }
    let sum = parse_hex(&rest[9..25])?;
    let start = 26usize;
    let end = start.checked_add(len)?;
    if end >= rest.len() || rest[end] != b'\n' {
        return None;
    }
    let payload = std::str::from_utf8(&rest[start..end]).ok()?;
    Some(Frame {
        payload,
        sum,
        consumed: end + 1,
    })
}

/// Byte offset of the checksum field of record `index` in composed file
/// bytes, when the file has that many records.
pub(crate) fn checksum_offset(bytes: &[u8], index: usize) -> Option<usize> {
    let mut pos = bytes.iter().position(|&b| b == b'\n')? + 1;
    for _ in 0..index {
        pos += parse_frame(&bytes[pos..])?.consumed;
    }
    (pos < bytes.len()).then_some(pos + 9)
}

fn parse_hex(digits: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for &d in digits {
        let nib = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        v = v.checked_mul(16)?.checked_add(nib as u64)?;
    }
    Some(v)
}
