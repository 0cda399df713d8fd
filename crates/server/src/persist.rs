//! The disk persistence tier: a crash-safe, content-addressed store of
//! finished residuals underneath the in-memory LRU.
//!
//! The in-memory [`crate::cache::ResidualCache`] dies with the process,
//! so every restart of `ppe serve`/`ppe batch` pays full cold-start even
//! though the cache keys ([`crate::key`]) are stable across processes.
//! This module keeps one file per key in a cache directory, and it is
//! engineered for hostile failure modes rather than the happy path:
//!
//! - **Versioned format with per-entry integrity.** Every entry starts
//!   with a fixed header — magic, format version, the entry's own key, the
//!   payload length, and a 128-bit FNV-1a checksum of the payload — so a
//!   reader can tell a good entry from a truncated, bit-flipped, torn,
//!   foreign, misnamed, or wrong-version file *before* trusting a byte of
//!   it. The key in the header makes entries self-identifying: a file
//!   renamed onto the wrong key is detected even when its checksum is
//!   intact.
//! - **Atomic writes.** A store writes the full entry to a temporary file
//!   in the same directory, fsyncs it, renames it over the final name, and
//!   fsyncs the directory. A crash at any point leaves either the old
//!   state or the new state — never a readable-but-wrong entry. Leftover
//!   `.tmp-*` files from a crash mid-write are invisible to readers and
//!   swept by [`PersistTier::gc`].
//! - **Corruption-safe load.** A bad entry is never an error for the
//!   request that found it: the entry is quarantined (moved aside into
//!   `quarantine/`, preserving the evidence), the event is counted per
//!   fault kind, and the caller falls through to the cold compute path.
//!   The per-kind counts are reported [`DegradationReport`]-style by
//!   [`PersistTier::fault_report`].
//! - **Degraded-disk modes.** [`PersistMode::ReadOnly`] serves hits from a
//!   disk that must not (or cannot) be written; a missing tier (config
//!   `None`) disables persistence entirely.
//!
//! Caching residuals on disk is sound for exactly the reason the
//! in-memory cache is sound (DESIGN.md §10, Definitions 5–7): the key
//! hashes everything the residual depends on, and hashes spellings, never
//! process-local identities. The on-disk format is specified normatively
//! in DESIGN.md §15; [`FORMAT_VERSION`] must be bumped whenever the header
//! layout, the payload schema, *or the key scheme* changes (a silent key
//! change would orphan every persisted entry — the golden key-snapshot
//! test pins this).
//!
//! [`DegradationReport`]: ppe_online::DegradationReport

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ppe_lang::Symbol;
use ppe_online::{DegradationEvent, PeStats};

use crate::cache::CachedOutcome;
use crate::json::Json;
use crate::key::{CacheKey, KeyHasher};
use crate::metrics::Metrics;
use crate::request::{degradation_json, stats_json};

/// Magic bytes opening every entry file.
pub const MAGIC: [u8; 8] = *b"PPECACHE";

/// The on-disk format version. Bump this whenever the header layout, the
/// payload schema, or the cache-key scheme changes; readers refuse (and
/// quarantine) any other version rather than guessing.
///
/// v2: cache keys switched from whole-program fingerprints to
/// per-entry closure fingerprints (`ppe-residual-v2`), and the payload
/// gained `entry` + `closure_fp` so `gc --stale-against` can validate
/// entries against an edited program. v1 entries are quarantined as
/// `WrongVersion` rather than mis-hit under the new keying.
///
/// v3: program fingerprints hash a float constant's bits as written, so
/// `0.0` and `-0.0` no longer share a key. A v2 store may hold one sign's
/// residual under the key the other now shares with nothing, so v2
/// entries are quarantined as `WrongVersion`.
pub const FORMAT_VERSION: u32 = 3;

/// Header size: magic (8) + version (4) + key (16) + payload length (8) +
/// payload checksum (16).
const HEADER_BYTES: usize = 8 + 4 + 16 + 8 + 16;

/// Domain-separation tag for the payload checksum.
const CHECKSUM_TAG: &str = "ppe-disk-entry-v1";

/// Subdirectory corrupt entries are moved into.
const QUARANTINE_DIR: &str = "quarantine";

/// File suffix for committed entries.
const ENTRY_SUFFIX: &str = ".ppe";

/// Default per-entry size cap (header excluded). Entries above it are
/// never written, and a file *claiming* a larger payload is corrupt by
/// definition — the cap bounds how much memory a hostile file can make
/// the loader allocate.
pub const DEFAULT_MAX_ENTRY_BYTES: usize = 16 << 20;

/// How the tier may touch the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistMode {
    /// Load, store, quarantine, gc: the normal mode.
    ReadWrite,
    /// Load only — for disks that are degraded, shared, or sealed.
    /// Corrupt entries are counted but left in place (quarantining would
    /// be a write).
    ReadOnly,
}

/// Configuration for one persistence tier.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// The cache directory (created, along with `quarantine/`, in
    /// read-write mode).
    pub dir: PathBuf,
    /// Read-write or read-only.
    pub mode: PersistMode,
    /// Per-entry payload cap in bytes; see [`DEFAULT_MAX_ENTRY_BYTES`].
    pub max_entry_bytes: usize,
}

impl PersistConfig {
    /// A read-write tier at `dir` with the default entry cap.
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            mode: PersistMode::ReadWrite,
            max_entry_bytes: DEFAULT_MAX_ENTRY_BYTES,
        }
    }
}

/// Why a load rejected an entry file. Every variant is a *fault*: the
/// file exists but cannot be trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Shorter than the header, or shorter than the declared payload.
    Truncated = 0,
    /// The magic bytes are not [`MAGIC`] — not one of our files.
    BadMagic = 1,
    /// A format version this reader does not speak.
    WrongVersion = 2,
    /// Longer than header + declared payload: a torn or overwritten tail.
    LengthMismatch = 3,
    /// The declared payload exceeds the configured per-entry cap.
    Oversized = 4,
    /// The payload checksum does not match: bit rot or a torn write.
    ChecksumMismatch = 5,
    /// The header's key is not the key the file is named for.
    KeyMismatch = 6,
    /// The payload passed the checksum but is not a valid entry encoding
    /// (possible only across a buggy writer — integrity ≠ validity).
    BadPayload = 7,
    /// The file could not be read at all (I/O error other than absence).
    Io = 8,
}

/// Number of [`FaultKind`] variants (sizing the per-kind counters).
const FAULT_KINDS: usize = 9;

impl FaultKind {
    /// A short, stable name (used in reports and quarantine file names).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Truncated => "truncated",
            FaultKind::BadMagic => "bad-magic",
            FaultKind::WrongVersion => "wrong-version",
            FaultKind::LengthMismatch => "length-mismatch",
            FaultKind::Oversized => "oversized",
            FaultKind::ChecksumMismatch => "checksum-mismatch",
            FaultKind::KeyMismatch => "key-mismatch",
            FaultKind::BadPayload => "bad-payload",
            FaultKind::Io => "io-error",
        }
    }

    fn all() -> [FaultKind; FAULT_KINDS] {
        [
            FaultKind::Truncated,
            FaultKind::BadMagic,
            FaultKind::WrongVersion,
            FaultKind::LengthMismatch,
            FaultKind::Oversized,
            FaultKind::ChecksumMismatch,
            FaultKind::KeyMismatch,
            FaultKind::BadPayload,
            FaultKind::Io,
        ]
    }
}

/// A point-in-time, per-kind count of the faults this tier has seen —
/// the `DegradationReport` of the disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    counts: [u64; FAULT_KINDS],
}

impl FaultReport {
    /// Total faults across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no fault has been observed.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// The count for one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Renders the non-zero kinds as one JSON object (deterministic:
    /// keys sorted by the underlying map).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            FaultKind::all()
                .iter()
                .filter(|k| self.count(**k) > 0)
                .map(|k| (k.name().to_owned(), Json::num(self.count(*k))))
                .collect(),
        )
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no disk faults");
        }
        let mut first = true;
        for kind in FaultKind::all() {
            let n = self.count(kind);
            if n == 0 {
                continue;
            }
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{} ×{n}", kind.name())?;
        }
        Ok(())
    }
}

/// What the cache directory holds right now (from a directory walk).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Committed entry files.
    pub entries: u64,
    /// Total bytes of committed entries (headers included).
    pub entry_bytes: u64,
    /// Files in `quarantine/`.
    pub quarantined: u64,
    /// Total bytes in `quarantine/`.
    pub quarantined_bytes: u64,
    /// Leftover temporary files (crashed mid-write; swept by gc).
    pub tmp_files: u64,
}

impl DiskStats {
    /// Renders the stats as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entries", Json::num(self.entries)),
            ("entry_bytes", Json::num(self.entry_bytes)),
            ("format_version", Json::num(u64::from(FORMAT_VERSION))),
            ("quarantined", Json::num(self.quarantined)),
            ("quarantined_bytes", Json::num(self.quarantined_bytes)),
            ("tmp_files", Json::num(self.tmp_files)),
        ])
    }
}

/// What one [`PersistTier::gc`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries kept (newest first, under the byte budget).
    pub kept_entries: u64,
    /// Bytes kept.
    pub kept_bytes: u64,
    /// Entries removed.
    pub removed_entries: u64,
    /// Bytes removed.
    pub removed_bytes: u64,
    /// Leftover temporary files swept.
    pub removed_tmp: u64,
    /// Quarantined files purged (only with `purge_quarantine`).
    pub purged_quarantine: u64,
}

/// What one [`PersistTier::gc_stale`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaleGcReport {
    /// Entries whose `(entry, closure fingerprint)` still matches the
    /// reference program — kept.
    pub kept_entries: u64,
    /// Entries invalidated by the reference program (entry removed, or
    /// its reachable closure edited) — removed.
    pub removed_entries: u64,
    /// Bytes removed.
    pub removed_bytes: u64,
    /// Unreadable or corrupt entries skipped (left in place for the
    /// load path to quarantine; stale-gc never destroys evidence).
    pub skipped_corrupt: u64,
    /// Quarantined files purged (only with `purge_quarantine`).
    pub purged_quarantine: u64,
}

impl StaleGcReport {
    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kept_entries", Json::num(self.kept_entries)),
            ("removed_entries", Json::num(self.removed_entries)),
            ("removed_bytes", Json::num(self.removed_bytes)),
            ("skipped_corrupt", Json::num(self.skipped_corrupt)),
            ("purged_quarantine", Json::num(self.purged_quarantine)),
        ])
    }
}

/// What one [`PersistTier::export`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExportReport {
    /// Entries written to the export stream.
    pub exported: u64,
    /// Corrupt entries skipped (and counted in the fault report).
    pub skipped: u64,
}

/// What one [`PersistTier::import`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Entries validated and committed.
    pub imported: u64,
    /// Lines rejected (malformed, wrong format version, invalid payload).
    pub rejected: u64,
}

/// The disk tier. One instance per cache directory; shared by reference
/// across workers (all state is atomics and the filesystem).
#[derive(Debug)]
pub struct PersistTier {
    dir: PathBuf,
    mode: PersistMode,
    max_entry_bytes: usize,
    faults: [AtomicU64; FAULT_KINDS],
    tmp_counter: AtomicU64,
}

impl PersistTier {
    /// Opens (and in read-write mode, creates) the cache directory.
    ///
    /// # Errors
    ///
    /// A human-readable message when the directory cannot be created or is
    /// not usable in the requested mode.
    pub fn open(config: PersistConfig) -> Result<PersistTier, String> {
        let dir = config.dir;
        match config.mode {
            PersistMode::ReadWrite => {
                fs::create_dir_all(dir.join(QUARANTINE_DIR))
                    .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
            }
            PersistMode::ReadOnly => {
                if !dir.is_dir() {
                    return Err(format!(
                        "cache dir `{}` does not exist (read-only mode creates nothing)",
                        dir.display()
                    ));
                }
            }
        }
        Ok(PersistTier {
            dir,
            mode: config.mode,
            max_entry_bytes: config.max_entry_bytes,
            faults: Default::default(),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True in read-only mode.
    pub fn read_only(&self) -> bool {
        self.mode == PersistMode::ReadOnly
    }

    /// The faults observed by this tier instance so far.
    pub fn fault_report(&self) -> FaultReport {
        let mut counts = [0u64; FAULT_KINDS];
        for (slot, counter) in counts.iter_mut().zip(&self.faults) {
            *slot = counter.load(Relaxed);
        }
        FaultReport { counts }
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{key}{ENTRY_SUFFIX}"))
    }

    /// Loads the entry for `key`, if present and intact. A corrupt entry
    /// is quarantined and counted; the caller sees a plain miss and falls
    /// through to the compute path — corruption never fails a request.
    pub fn load(&self, key: CacheKey, metrics: &Metrics) -> Option<CachedOutcome> {
        let path = self.entry_path(key);
        let bytes = match self.read_entry_bytes(&path) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                metrics.disk_misses.fetch_add(1, Relaxed);
                return None;
            }
            Err(kind) => {
                self.reject(&path, kind, metrics);
                return None;
            }
        };
        match decode_entry(&bytes, key, self.max_entry_bytes) {
            Ok(outcome) => {
                metrics.disk_hits.fetch_add(1, Relaxed);
                Some(outcome)
            }
            Err(kind) => {
                self.reject(&path, kind, metrics);
                None
            }
        }
    }

    /// Reads an entry file fully, refusing to allocate for a file that is
    /// larger than any valid entry could be. `Ok(None)` means absent.
    fn read_entry_bytes(&self, path: &Path) -> Result<Option<Vec<u8>>, FaultKind> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(_) => return Err(FaultKind::Io),
        };
        let cap = HEADER_BYTES as u64 + self.max_entry_bytes as u64;
        if let Ok(meta) = file.metadata() {
            if meta.len() > cap {
                return Err(FaultKind::Oversized);
            }
        }
        let mut bytes = Vec::new();
        // `take` re-checks the cap during the read: the metadata check is
        // advisory (the file can grow between stat and read).
        match (&mut file as &mut dyn Read)
            .take(cap + 1)
            .read_to_end(&mut bytes)
        {
            Ok(_) if bytes.len() as u64 > cap => Err(FaultKind::Oversized),
            Ok(_) => Ok(Some(bytes)),
            Err(_) => Err(FaultKind::Io),
        }
    }

    /// Counts a fault and, in read-write mode, moves the file into
    /// `quarantine/` so the next request does not trip over it again and
    /// the evidence survives for inspection.
    fn reject(&self, path: &Path, kind: FaultKind, metrics: &Metrics) {
        self.faults[kind as usize].fetch_add(1, Relaxed);
        metrics.disk_corrupt.fetch_add(1, Relaxed);
        if self.read_only() {
            return;
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_owned());
        let target = self
            .dir
            .join(QUARANTINE_DIR)
            .join(format!("{name}.{}", kind.name()));
        if fs::rename(path, &target).is_ok() {
            metrics.disk_quarantined.fetch_add(1, Relaxed);
        } else {
            // Rename can fail on a degraded disk; removing is the lesser
            // fallback (keeps the entry from being re-read every request).
            let _ = fs::remove_file(path);
        }
    }

    /// Stores `outcome` under `key` with the atomic write protocol:
    /// temp file in the same directory → fsync → rename → directory fsync.
    /// Failures are counted, never surfaced — persistence is an
    /// optimization, and a full or read-only disk must not fail requests.
    pub fn store(&self, key: CacheKey, outcome: &CachedOutcome, metrics: &Metrics) {
        if self.read_only() {
            return;
        }
        let payload = encode_payload(outcome);
        if payload.len() > self.max_entry_bytes {
            metrics.disk_store_errors.fetch_add(1, Relaxed);
            return;
        }
        let bytes = encode_entry(key, payload.as_bytes());
        let tmp = self.dir.join(format!(
            "{key}.tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Relaxed)
        ));
        if self.commit(&tmp, &self.entry_path(key), &bytes).is_ok() {
            metrics.disk_stores.fetch_add(1, Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
            metrics.disk_store_errors.fetch_add(1, Relaxed);
        }
    }

    fn commit(&self, tmp: &Path, target: &Path, bytes: &[u8]) -> io::Result<()> {
        {
            let mut file = File::create(tmp)?;
            file.write_all(bytes)?;
            // Data must be durable before the rename publishes the name:
            // rename-before-fsync is exactly the torn-write window this
            // tier exists to close.
            file.sync_all()?;
        }
        fs::rename(tmp, target)?;
        // Make the rename itself durable. A failure here is not fatal for
        // correctness (the entry is valid either way; at worst the name
        // vanishes on crash), so it is best-effort.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Walks the directory and reports what it holds.
    ///
    /// # Errors
    ///
    /// I/O errors reading the directory itself.
    pub fn stats(&self) -> io::Result<DiskStats> {
        let mut stats = DiskStats::default();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                continue;
            }
            if name.ends_with(ENTRY_SUFFIX) {
                stats.entries += 1;
                stats.entry_bytes += meta.len();
            } else if name.contains(".tmp-") {
                stats.tmp_files += 1;
            }
        }
        let quarantine = self.dir.join(QUARANTINE_DIR);
        if let Ok(entries) = fs::read_dir(&quarantine) {
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        stats.quarantined += 1;
                        stats.quarantined_bytes += meta.len();
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Shrinks the directory to at most `keep_bytes` of entries (newest
    /// first by modification time), sweeps leftover temp files, and —
    /// with `purge_quarantine` — empties `quarantine/`.
    ///
    /// # Errors
    ///
    /// Read-only tiers refuse; I/O errors reading the directory surface.
    pub fn gc(&self, keep_bytes: u64, purge_quarantine: bool) -> io::Result<GcReport> {
        if self.read_only() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot gc a read-only cache dir",
            ));
        }
        let mut report = GcReport::default();
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            if name.contains(".tmp-") {
                if fs::remove_file(entry.path()).is_ok() {
                    report.removed_tmp += 1;
                }
            } else if name.ends_with(ENTRY_SUFFIX) {
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                entries.push((entry.path(), meta.len(), mtime));
            }
        }
        // Newest first; evict from the old end once the budget is spent.
        entries.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let mut kept = 0u64;
        for (path, len, _) in entries {
            if kept + len <= keep_bytes {
                kept += len;
                report.kept_entries += 1;
                report.kept_bytes += len;
            } else if fs::remove_file(&path).is_ok() {
                report.removed_entries += 1;
                report.removed_bytes += len;
            }
        }
        if purge_quarantine {
            if let Ok(entries) = fs::read_dir(self.dir.join(QUARANTINE_DIR)) {
                for entry in entries.flatten() {
                    if entry.metadata().map(|m| m.is_file()).unwrap_or(false)
                        && fs::remove_file(entry.path()).is_ok()
                    {
                        report.purged_quarantine += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Drops exactly the entries `reference` invalidates: an entry is
    /// kept iff its recorded entry function is still defined in the
    /// reference program *and* its recorded closure fingerprint equals
    /// that function's current closure fingerprint. Everything else —
    /// entries for removed functions, entries whose reachable closure
    /// was edited, and entries computed for other programs — is removed.
    /// (The reference program defines what "still valid" means; a cache
    /// directory shared across unrelated programs should be collected
    /// with the byte-budget [`PersistTier::gc`] instead.)
    ///
    /// Unreadable or corrupt entries are skipped and counted, not
    /// removed: the load path owns corruption handling (quarantine), and
    /// stale-gc should never destroy the evidence it would file.
    ///
    /// # Errors
    ///
    /// Read-only tiers refuse; I/O errors reading the directory surface.
    pub fn gc_stale(
        &self,
        reference: &ppe_analyze::depgraph::DepGraph,
        purge_quarantine: bool,
    ) -> io::Result<StaleGcReport> {
        if self.read_only() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot gc a read-only cache dir",
            ));
        }
        let mut report = StaleGcReport::default();
        let mut keys: Vec<CacheKey> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(hex) = name.strip_suffix(ENTRY_SUFFIX) {
                if let Ok(raw) = u128::from_str_radix(hex, 16) {
                    keys.push(CacheKey(raw));
                }
            }
        }
        keys.sort();
        for key in keys {
            let path = self.entry_path(key);
            let decoded = self
                .read_entry_bytes(&path)
                .ok()
                .flatten()
                .and_then(|bytes| decode_entry(&bytes, key, self.max_entry_bytes).ok());
            let Some(outcome) = decoded else {
                report.skipped_corrupt += 1;
                continue;
            };
            let current = reference.closure_fingerprint(Symbol::intern(&outcome.entry));
            if current == Some(outcome.closure_fingerprint) {
                report.kept_entries += 1;
            } else {
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                if fs::remove_file(&path).is_ok() {
                    report.removed_entries += 1;
                    report.removed_bytes += len;
                }
            }
        }
        if purge_quarantine {
            if let Ok(entries) = fs::read_dir(self.dir.join(QUARANTINE_DIR)) {
                for entry in entries.flatten() {
                    if entry.metadata().map(|m| m.is_file()).unwrap_or(false)
                        && fs::remove_file(entry.path()).is_ok()
                    {
                        report.purged_quarantine += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Writes every intact entry as one JSON line (`{"key": …, "entry":
    /// …}`) after a header line carrying the format version. Corrupt
    /// entries are skipped and counted, exactly as a load would treat
    /// them. Output order is deterministic (sorted by key).
    ///
    /// # Errors
    ///
    /// I/O errors on the output stream or the directory walk.
    pub fn export(&self, out: &mut dyn Write) -> io::Result<ExportReport> {
        let mut report = ExportReport::default();
        let mut keys: Vec<CacheKey> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(hex) = name.strip_suffix(ENTRY_SUFFIX) {
                if let Ok(raw) = u128::from_str_radix(hex, 16) {
                    keys.push(CacheKey(raw));
                }
            }
        }
        keys.sort();
        writeln!(
            out,
            "{}",
            Json::obj(vec![
                ("format_version", Json::num(u64::from(FORMAT_VERSION))),
                ("kind", Json::str("ppe-cache-export")),
            ])
            .render()
        )?;
        for key in keys {
            let path = self.entry_path(key);
            let loaded = self
                .read_entry_bytes(&path)
                .ok()
                .flatten()
                .and_then(|bytes| payload_json(&bytes, key, self.max_entry_bytes));
            match loaded {
                Some(payload) => {
                    let line = Json::obj(vec![
                        ("entry", payload),
                        ("key", Json::str(key.to_string())),
                    ]);
                    writeln!(out, "{}", line.render())?;
                    report.exported += 1;
                }
                None => {
                    self.faults[FaultKind::BadPayload as usize].fetch_add(1, Relaxed);
                    report.skipped += 1;
                }
            }
        }
        Ok(report)
    }

    /// Reads an export stream, validating every line, and commits each
    /// entry with the atomic write protocol. A bad line is rejected and
    /// counted; it never aborts the rest of the stream.
    ///
    /// # Errors
    ///
    /// Read-only tiers refuse; a missing or wrong-version export header
    /// rejects the whole stream; I/O errors on the input surface.
    pub fn import(&self, input: &mut dyn BufRead) -> io::Result<ImportReport> {
        if self.read_only() {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "cannot import into a read-only cache dir",
            ));
        }
        let mut report = ImportReport::default();
        let mut header_seen = false;
        let metrics = Metrics::new(); // local counters; callers read the report
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = Json::parse(&line) else {
                report.rejected += 1;
                continue;
            };
            if !header_seen {
                header_seen = true;
                let version = v.get("format_version").and_then(Json::as_u64);
                let kind = v.get("kind").and_then(Json::as_str);
                if kind != Some("ppe-cache-export") || version != Some(u64::from(FORMAT_VERSION)) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "not a ppe cache export for format version {FORMAT_VERSION}: {line}"
                        ),
                    ));
                }
                continue;
            }
            let parsed = v
                .get("key")
                .and_then(Json::as_str)
                .and_then(|hex| u128::from_str_radix(hex, 16).ok())
                .map(CacheKey)
                .zip(v.get("entry").map(|e| e.render()));
            let Some((key, payload)) = parsed else {
                report.rejected += 1;
                continue;
            };
            // Re-validate through the same decoder a load would use: an
            // import must never plant an entry a load would quarantine.
            let bytes = encode_entry(key, payload.as_bytes());
            if decode_entry(&bytes, key, self.max_entry_bytes).is_err() {
                report.rejected += 1;
                continue;
            }
            let stores_before = metrics.disk_stores.load(Relaxed);
            let outcome =
                decode_entry(&bytes, key, self.max_entry_bytes).expect("validated one line above");
            self.store(key, &outcome, &metrics);
            if metrics.disk_stores.load(Relaxed) > stores_before {
                report.imported += 1;
            } else {
                report.rejected += 1;
            }
        }
        if !header_seen {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "empty import stream (missing export header)",
            ));
        }
        Ok(report)
    }
}

/// Serializes one entry file: header + JSON payload.
fn encode_entry(key: CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&key.0.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Validates an entry file against `expected` and decodes its payload.
fn decode_entry(
    bytes: &[u8],
    expected: CacheKey,
    max_entry_bytes: usize,
) -> Result<CachedOutcome, FaultKind> {
    let payload = verify_entry(bytes, expected, max_entry_bytes)?;
    let text = std::str::from_utf8(payload).map_err(|_| FaultKind::BadPayload)?;
    decode_payload(text).ok_or(FaultKind::BadPayload)
}

/// The header checks shared by load and export, returning the verified
/// payload slice.
fn verify_entry(
    bytes: &[u8],
    expected: CacheKey,
    max_entry_bytes: usize,
) -> Result<&[u8], FaultKind> {
    if bytes.len() < HEADER_BYTES {
        return Err(FaultKind::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(FaultKind::BadMagic);
    }
    let field = |start: usize, len: usize| &bytes[start..start + len];
    let version = u32::from_le_bytes(field(8, 4).try_into().expect("fixed width"));
    if version != FORMAT_VERSION {
        return Err(FaultKind::WrongVersion);
    }
    let key = u128::from_le_bytes(field(12, 16).try_into().expect("fixed width"));
    if key != expected.0 {
        return Err(FaultKind::KeyMismatch);
    }
    let declared = u64::from_le_bytes(field(28, 8).try_into().expect("fixed width"));
    if declared > max_entry_bytes as u64 {
        return Err(FaultKind::Oversized);
    }
    let declared = declared as usize;
    let actual = bytes.len() - HEADER_BYTES;
    if actual < declared {
        return Err(FaultKind::Truncated);
    }
    if actual > declared {
        return Err(FaultKind::LengthMismatch);
    }
    let stored = u128::from_le_bytes(field(36, 16).try_into().expect("fixed width"));
    let payload = &bytes[HEADER_BYTES..];
    if checksum(payload) != stored {
        return Err(FaultKind::ChecksumMismatch);
    }
    Ok(payload)
}

/// Extracts the payload of an intact entry as parsed JSON (for export).
fn payload_json(bytes: &[u8], expected: CacheKey, max_entry_bytes: usize) -> Option<Json> {
    let payload = verify_entry(bytes, expected, max_entry_bytes).ok()?;
    let text = std::str::from_utf8(payload).ok()?;
    // Decode fully, not just parse: an exported line must round-trip.
    decode_payload(text)?;
    Json::parse(text).ok()
}

/// 128-bit FNV-1a over the payload, domain-separated from the key hashes.
fn checksum(payload: &[u8]) -> u128 {
    let mut h = KeyHasher::new(CHECKSUM_TAG);
    h.write_bytes(payload);
    h.finish().0
}

/// Renders a [`CachedOutcome`] as the canonical JSON payload.
pub(crate) fn encode_payload(outcome: &CachedOutcome) -> String {
    Json::obj(vec![
        (
            "closure_fp",
            Json::str(format!("{:016x}", outcome.closure_fingerprint)),
        ),
        (
            "degradations",
            Json::Arr(outcome.degradations.iter().map(degradation_json).collect()),
        ),
        ("entry", Json::str(outcome.entry.clone())),
        ("residual", Json::str(outcome.residual.clone())),
        ("stats", stats_json(&outcome.stats)),
    ])
    .render()
}

/// Parses the canonical JSON payload back into a [`CachedOutcome`].
/// `None` on any missing or ill-typed field.
pub(crate) fn decode_payload(text: &str) -> Option<CachedOutcome> {
    let v = Json::parse(text).ok()?;
    let residual = v.get("residual")?.as_str()?.to_owned();
    let entry = v.get("entry")?.as_str()?.to_owned();
    let closure_fingerprint = {
        let hex = v.get("closure_fp")?.as_str()?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()?
    };
    let s = v.get("stats")?;
    let num = |field: &str| s.get(field).and_then(Json::as_u64);
    let stats = PeStats {
        reductions: num("reductions")?,
        residual_prims: num("residual_prims")?,
        static_branches: num("static_branches")?,
        dynamic_branches: num("dynamic_branches")?,
        unfolds: num("unfolds")?,
        specializations: num("specializations")?,
        cache_hits: num("cache_hits")?,
        steps: num("steps")?,
    };
    let mut degradations = Vec::new();
    for d in v.get("degradations")?.as_array()? {
        degradations.push(DegradationEvent {
            budget: budget_from_name(d.get("budget")?.as_str()?)?,
            function: match d.get("function") {
                Some(f) => Some(Symbol::intern(f.as_str()?)),
                None => None,
            },
            depth: u32::try_from(d.get("depth")?.as_u64()?).ok()?,
            count: d.get("count")?.as_u64()?,
        });
    }
    Some(CachedOutcome {
        residual,
        stats,
        degradations,
        entry,
        closure_fingerprint,
    })
}

/// Inverse of [`ppe_online::Budget`]'s `Display` names (the wire and disk
/// spelling of a budget).
fn budget_from_name(name: &str) -> Option<ppe_online::Budget> {
    use ppe_online::Budget;
    Some(match name {
        "fuel" => Budget::Fuel,
        "deadline" => Budget::Deadline,
        "unfold depth" => Budget::UnfoldDepth,
        "specialization cache" => Budget::SpecializationCache,
        "residual size" => Budget::ResidualSize,
        "recursion depth" => Budget::RecursionDepth,
        "cache bytes" => Budget::CacheBytes,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_online::Budget;
    use std::sync::atomic::AtomicU64;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "ppe-persist-unit-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn outcome() -> CachedOutcome {
        CachedOutcome {
            residual: "(define (f x) (+ x 1))".to_owned(),
            stats: PeStats {
                reductions: 3,
                unfolds: 2,
                ..PeStats::default()
            },
            degradations: vec![DegradationEvent {
                budget: Budget::Fuel,
                function: Some(Symbol::intern("f")),
                depth: 4,
                count: 2,
            }],
            entry: "f".to_owned(),
            closure_fingerprint: 0x1234_5678_9abc_def0,
        }
    }

    #[test]
    fn payload_roundtrips() {
        let original = outcome();
        let decoded = decode_payload(&encode_payload(&original)).unwrap();
        assert_eq!(decoded.residual, original.residual);
        assert_eq!(decoded.stats, original.stats);
        assert_eq!(decoded.degradations, original.degradations);
    }

    #[test]
    fn store_then_load_roundtrips() {
        let scratch = Scratch::new();
        let tier = PersistTier::open(PersistConfig::new(&scratch.0)).unwrap();
        let metrics = Metrics::new();
        let key = CacheKey(0xfeed_beef);
        assert!(tier.load(key, &metrics).is_none(), "empty dir misses");
        tier.store(key, &outcome(), &metrics);
        let loaded = tier.load(key, &metrics).expect("stored entry loads");
        assert_eq!(loaded.residual, outcome().residual);
        let s = metrics.snapshot();
        assert_eq!((s.disk_misses, s.disk_stores, s.disk_hits), (1, 1, 1));
        assert!(tier.fault_report().is_empty());
    }

    #[test]
    fn every_header_violation_is_detected() {
        let key = CacheKey(7);
        let payload = encode_payload(&outcome());
        let good = encode_entry(key, payload.as_bytes());
        assert!(decode_entry(&good, key, 1 << 20).is_ok());

        let check = |bytes: Vec<u8>, expect: FaultKind| {
            assert_eq!(decode_entry(&bytes, key, 1 << 20).unwrap_err(), expect);
        };
        check(good[..10].to_vec(), FaultKind::Truncated);
        check(good[..good.len() - 3].to_vec(), FaultKind::Truncated);
        let mut torn = good.clone();
        torn.extend_from_slice(b"trailing");
        check(torn, FaultKind::LengthMismatch);
        let mut magic = good.clone();
        magic[0] ^= 0xff;
        check(magic, FaultKind::BadMagic);
        let mut version = good.clone();
        version[8] = 99;
        check(version, FaultKind::WrongVersion);
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        check(flipped, FaultKind::ChecksumMismatch);
        check(
            encode_entry(CacheKey(8), payload.as_bytes()),
            FaultKind::KeyMismatch,
        );
        assert_eq!(
            decode_entry(&good, key, 8).unwrap_err(),
            FaultKind::Oversized,
            "a tiny cap rejects the declared length"
        );
        // Valid frame around an invalid payload.
        check(encode_entry(key, b"not json"), FaultKind::BadPayload);
        check(
            encode_entry(key, br#"{"residual": 5}"#),
            FaultKind::BadPayload,
        );
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recovered_from() {
        let scratch = Scratch::new();
        let tier = PersistTier::open(PersistConfig::new(&scratch.0)).unwrap();
        let metrics = Metrics::new();
        let key = CacheKey(42);
        tier.store(key, &outcome(), &metrics);
        // Flip one payload bit on disk.
        let path = tier.entry_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(tier.load(key, &metrics).is_none(), "corrupt entry misses");
        assert!(!path.exists(), "corrupt entry was moved aside");
        let s = metrics.snapshot();
        assert_eq!((s.disk_corrupt, s.disk_quarantined), (1, 1));
        assert_eq!(tier.fault_report().count(FaultKind::ChecksumMismatch), 1);
        assert_eq!(tier.stats().unwrap().quarantined, 1);
        // The slot is reusable immediately.
        tier.store(key, &outcome(), &metrics);
        assert!(tier.load(key, &metrics).is_some());
    }

    #[test]
    fn read_only_mode_loads_but_never_writes() {
        let scratch = Scratch::new();
        let rw = PersistTier::open(PersistConfig::new(&scratch.0)).unwrap();
        let metrics = Metrics::new();
        rw.store(CacheKey(1), &outcome(), &metrics);

        let ro = PersistTier::open(PersistConfig {
            mode: PersistMode::ReadOnly,
            ..PersistConfig::new(&scratch.0)
        })
        .unwrap();
        assert!(ro.load(CacheKey(1), &metrics).is_some());
        ro.store(CacheKey(2), &outcome(), &metrics);
        assert!(
            ro.load(CacheKey(2), &metrics).is_none(),
            "read-only store is a no-op"
        );
        assert!(ro.gc(0, false).is_err());
        assert!(ro.import(&mut io::empty()).is_err());
    }

    #[test]
    fn gc_keeps_newest_entries_and_sweeps_tmp() {
        let scratch = Scratch::new();
        let tier = PersistTier::open(PersistConfig::new(&scratch.0)).unwrap();
        let metrics = Metrics::new();
        for k in 0..4u128 {
            tier.store(CacheKey(k), &outcome(), &metrics);
        }
        fs::write(scratch.0.join("orphan.tmp-1-1"), b"torn").unwrap();
        let report = tier.gc(0, false).unwrap();
        assert_eq!(report.removed_entries, 4);
        assert_eq!(report.removed_tmp, 1);
        assert_eq!(tier.stats().unwrap().entries, 0);
    }

    #[test]
    fn export_import_roundtrips() {
        let scratch = Scratch::new();
        let tier = PersistTier::open(PersistConfig::new(&scratch.0)).unwrap();
        let metrics = Metrics::new();
        for k in [3u128, 1, 2] {
            tier.store(CacheKey(k), &outcome(), &metrics);
        }
        let mut exported = Vec::new();
        let report = tier.export(&mut exported).unwrap();
        assert_eq!(report.exported, 3);
        assert_eq!(report.skipped, 0);

        let target = Scratch::new();
        let fresh = PersistTier::open(PersistConfig::new(&target.0)).unwrap();
        let imported = fresh.import(&mut exported.as_slice()).unwrap();
        assert_eq!(imported.imported, 3);
        assert_eq!(imported.rejected, 0);
        for k in [1u128, 2, 3] {
            assert!(fresh.load(CacheKey(k), &metrics).is_some(), "key {k}");
        }
        // A second export of the imported dir is byte-identical: the
        // format is canonical.
        let mut again = Vec::new();
        fresh.export(&mut again).unwrap();
        assert_eq!(exported, again);
    }

    #[test]
    fn import_rejects_garbage_without_aborting() {
        let scratch = Scratch::new();
        let tier = PersistTier::open(PersistConfig::new(&scratch.0)).unwrap();
        let header = format!(r#"{{"format_version":{FORMAT_VERSION},"kind":"ppe-cache-export"}}"#);
        let good = format!(
            r#"{{"entry":{},"key":"{}"}}"#,
            encode_payload(&outcome()),
            CacheKey(9)
        );
        let stream = format!("{header}\nnot json\n{{\"key\":\"zz\"}}\n{good}\n");
        let report = tier.import(&mut stream.as_bytes()).unwrap();
        assert_eq!(report.imported, 1);
        assert_eq!(report.rejected, 2);
        // Wrong-version header refuses the stream outright.
        let bad = "{\"format_version\":99,\"kind\":\"ppe-cache-export\"}\n";
        assert!(tier.import(&mut bad.as_bytes()).is_err());
    }

    #[test]
    fn fault_report_renders_like_a_degradation_report() {
        let report = FaultReport {
            counts: {
                let mut c = [0u64; FAULT_KINDS];
                c[FaultKind::Truncated as usize] = 2;
                c[FaultKind::ChecksumMismatch as usize] = 1;
                c
            },
        };
        assert_eq!(report.total(), 3);
        assert_eq!(report.to_string(), "truncated ×2, checksum-mismatch ×1");
        assert_eq!(
            report.to_json().render(),
            r#"{"checksum-mismatch":1,"truncated":2}"#
        );
        assert_eq!(FaultReport::default().to_string(), "no disk faults");
    }
}
