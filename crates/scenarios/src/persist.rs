//! The persistent, versioned, content-addressed policy-surface store.
//!
//! The in-memory [`SurfaceCache`](crate::SurfaceCache) loses every solved
//! surface at process exit; this module gives it a durable backing
//! directory so run N+1 of the same sweep does zero solves. Layout:
//!
//! ```text
//! <cache-dir>/
//!   manifest.json            # version + entry index (insertion order)
//!   surface-<16-hex>.bin     # one binary record per surface, keyed by hash
//! ```
//!
//! The manifest is the index: one [`ManifestEntry`] per surface with the
//! hash, state-space shape, parameter fingerprint, and cost metadata —
//! everything lookups and cost estimation need *without* touching the
//! record files. Surfaces themselves are loaded lazily on first hit.
//!
//! Record format: a versioned binary columnar layout (`.bin`, see
//! [`encode_record`]) — a checksummed 40-byte header followed by
//! length-prefixed sections in which every field is one contiguous
//! little-endian array, 8-byte aligned, so the `f64` payloads
//! (fingerprint, domain box, surpluses) land in the same
//! structure-of-arrays shape the kernels' `PointBlock` consumes and the
//! restore is a bounds-checked copy instead of a float parse. A record's
//! file name is a pure function of its hash ([`surface_file_name`]); a
//! manifest row naming any other path is dropped at open, so nothing read
//! from the manifest can point outside the cache directory.
//!
//! Durability rules:
//!
//! * every file (manifest and records) is written atomically *and
//!   durably* — serialized to a dot-prefixed temp file in the same
//!   directory, fsynced, renamed, and the directory fsynced after — so
//!   a crash at any point leaves either the previous version or the
//!   complete new one, never a torn or empty file that a rename alone
//!   (buffered in the page cache) could still surface;
//! * an unknown manifest format version is skipped with a warning (the
//!   store starts empty), never a panic;
//! * a corrupt or truncated record file is skipped with a warning at load
//!   time, dropped from the index, and counted in the telemetry;
//! * eviction is LRU-by-insertion with configurable max-entries and
//!   max-bytes bounds ([`EvictionPolicy`]), applied on every deposit, so
//!   the directory provably never exceeds the configured budget.
//!
//! Concurrency: the index lives behind an `RwLock`, so any number of
//! readers can consult it simultaneously, and **record-file I/O happens
//! outside every lock**. The read path is: snapshot the [`ManifestEntry`]
//! under the read lock, release it, read + validate the record file with
//! no lock held, then hand the surface to the owning cache for promotion.
//! Deposits serialize against each other on a writer mutex (the manifest
//! rewrite must be ordered), but the record file itself is written before
//! the mutex is taken — concurrent readers never wait on a writer's disk
//! I/O, and vice versa. This removes the single-hot-path bottleneck the
//! serving front-end needs gone: N clients restoring N different surfaces
//! proceed in parallel.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use serde::{Deserialize, Serialize};

use hddm_core::StateRecord;

use crate::cache::{CachedSurface, ShapeKey};
use crate::hash::{fingerprint_distance, HashId, ScenarioHasher};

/// Current on-disk format version of the manifest.
pub const PERSIST_VERSION: u32 = 1;

/// Current version of the binary columnar record format.
pub const BINARY_RECORD_VERSION: u32 = 1;

/// Magic bytes opening every binary record file.
pub const RECORD_MAGIC: [u8; 8] = *b"HDDMSURF";

/// The index file name inside a cache directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Size bounds of a persistent store, enforced on every deposit by
/// evicting the oldest entries first (LRU-by-insertion). `None` means
/// unbounded in that dimension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionPolicy {
    /// Maximum number of persisted surfaces.
    pub max_entries: Option<usize>,
    /// Maximum total bytes of the persisted record files.
    pub max_bytes: Option<u64>,
}

/// One surface's row in the manifest index: everything a lookup needs to
/// decide exact/warm/miss — and a cost estimate — without reading the
/// record file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Scenario content hash (hex-encoded in JSON).
    pub hash: HashId,
    /// State-space shape of the cached surface.
    pub shape: ShapeKey,
    /// Parameter fingerprint of the producing scenario.
    pub fingerprint: Vec<f64>,
    /// Time-iteration steps the producing solve took.
    pub steps: usize,
    /// Measured wall-clock seconds of the producing solve.
    pub cost_seconds: f64,
    /// Size of the record file in bytes (the eviction currency).
    pub bytes: u64,
    /// Record file name, relative to the cache directory.
    pub file: String,
}

/// The parsed manifest (used for reading; writing streams borrowed
/// entries directly to avoid cloning the index).
#[derive(Clone, Debug, Deserialize)]
struct Manifest {
    version: u32,
    entries: Vec<ManifestEntry>,
}

fn warn(message: &str) {
    eprintln!("hddm-scenarios: warning: {message}");
}

/// Record file name for a hash.
pub fn surface_file_name(hash: u64) -> String {
    format!("surface-{}.bin", HashId(hash))
}

/// Writes `bytes` to `path` atomically **and durably**: temp file in the
/// same directory, fsync, rename, fsync the directory. The dot-prefixed
/// temp name can never be mistaken for a record file, and a crash
/// between any two steps leaves the previous version of `path` intact.
/// Without the temp-file fsync, a crash shortly *after* the rename could
/// surface the new name over still-unwritten data (an empty or truncated
/// record despite the atomic contract); without the directory fsync, the
/// rename itself may not survive the crash. The temp name carries a
/// process-wide counter on top of the pid: record files are written
/// outside the store's locks, so two threads depositing the same surface
/// concurrently must not collide on the temp path.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
    static TMP_COUNTER: AtomicUsize = AtomicUsize::new(0);
    // ORDERING: Relaxed — temp-name uniqueness needs only RMW atomicity;
    // no other memory is synchronized through the counter.
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-{}-{unique}-{name}", std::process::id()));
    let target = dir.join(name);
    let write_synced = || -> std::io::Result<()> {
        use std::io::Write;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    };
    write_synced().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!("write {}: {e}", tmp.display())
    })?;
    fs::rename(&tmp, &target).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!("rename {} -> {}: {e}", tmp.display(), target.display())
    })?;
    // Make the rename durable: fsync the directory so the new directory
    // entry reaches disk. Best effort — not every platform lets a
    // directory be opened and synced (the data itself is already safe).
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The persistent backing store of a `SurfaceCache`: a cache directory,
/// its parsed manifest index, and the eviction policy.
///
/// Lock discipline (all internal — the owning cache never holds its own
/// shard locks across a store call):
///
/// * `index` (`RwLock`) — the manifest rows. Read-mostly; lookups and
///   cost estimation take the read lock, snapshot what they need, and
///   release before any file I/O.
/// * `writer` (`Mutex`) — serializes mutations (deposit, corrupt-entry
///   discard) so the manifest on disk is always the last writer's view.
///   Record-file writes happen *before* the writer lock is taken.
#[derive(Debug)]
pub(crate) struct Store {
    dir: PathBuf,
    policy: EvictionPolicy,
    index: RwLock<Vec<ManifestEntry>>,
    writer: Mutex<()>,
    evictions: AtomicUsize,
    skipped: AtomicUsize,
    poisonings: AtomicUsize,
}

impl Store {
    /// Opens (or initializes) a cache directory: creates it if missing,
    /// loads the manifest index, and sweeps leftover temp files from
    /// crashed writers. An unreadable, unparseable, or version-mismatched
    /// manifest is skipped with a warning — the store starts empty and
    /// the index is rewritten at the current version on the next deposit.
    /// A row whose `file` is not the name its hash determines (a damaged
    /// or hostile manifest, or a record format this version cannot read)
    /// is dropped the same way, so no later read or delete can follow it
    /// out of the directory. Record files the index does not reference
    /// (crash leftovers, or the remains of a skipped manifest or row) are
    /// deleted, so they cannot leak past the eviction budget forever.
    pub fn open<P: AsRef<Path>>(dir: P, policy: EvictionPolicy) -> Result<Store, String> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;

        let mut entries = Vec::new();
        let mut skipped = 0usize;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            match fs::read_to_string(&manifest_path) {
                Ok(text) => match serde_json::from_str::<Manifest>(&text) {
                    Ok(manifest) if manifest.version == PERSIST_VERSION => {
                        entries = manifest.entries;
                        entries.retain(|e| {
                            let named_by_hash = e.file == surface_file_name(e.hash.0);
                            if !named_by_hash {
                                warn(&format!(
                                    "cache manifest row {} names {:?}, not its record file; \
                                     ignoring it",
                                    e.hash, e.file
                                ));
                                skipped += 1;
                            }
                            named_by_hash
                        });
                    }
                    Ok(manifest) => {
                        warn(&format!(
                            "cache manifest {} has unknown format version {} (expected \
                             {PERSIST_VERSION}); ignoring {} persisted entr(ies)",
                            manifest_path.display(),
                            manifest.version,
                            manifest.entries.len()
                        ));
                        // The now-unreferenced record files are counted
                        // (and deleted) by the sweep below.
                        skipped += 1;
                    }
                    Err(e) => {
                        warn(&format!(
                            "corrupt cache manifest {} ({e}); starting empty",
                            manifest_path.display()
                        ));
                        skipped += 1;
                    }
                },
                Err(e) => {
                    warn(&format!(
                        "unreadable cache manifest {} ({e}); starting empty",
                        manifest_path.display()
                    ));
                    skipped += 1;
                }
            }
        }

        // Sweep files the index does not account for: temp files from
        // crashed writers, and record files orphaned by a crash between
        // the record write and the manifest write — or by a skipped
        // manifest above. Without this, unindexed files would accumulate
        // outside the eviction budget forever.
        if let Ok(listing) = fs::read_dir(&dir) {
            for entry in listing.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with(".tmp-") {
                    let _ = fs::remove_file(entry.path());
                } else if name.starts_with("surface-") && !entries.iter().any(|e| e.file == name) {
                    warn(&format!("removing unindexed cache record {name}"));
                    let _ = fs::remove_file(entry.path());
                    skipped += 1;
                }
            }
        }
        Ok(Store {
            dir,
            policy,
            index: RwLock::new(entries),
            writer: Mutex::new(()),
            evictions: AtomicUsize::new(0),
            skipped: AtomicUsize::new(skipped),
            poisonings: AtomicUsize::new(0),
        })
    }

    // Poisoned guards are recovered, cleared, and counted: the guarded
    // state (the index vector) is consistent at every point a panic can
    // interrupt it, so a crashing thread must not cascade. The count
    // rolls up into `CacheStats::lock_poisonings`.

    fn index_read(&self) -> std::sync::RwLockReadGuard<'_, Vec<ManifestEntry>> {
        self.index.read().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            self.index.clear_poison();
            poisoned.into_inner()
        })
    }

    fn index_write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<ManifestEntry>> {
        self.index.write().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            self.index.clear_poison();
            poisoned.into_inner()
        })
    }

    fn writer_lock(&self) -> std::sync::MutexGuard<'_, ()> {
        self.writer.lock().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            self.writer.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Poisoned store locks recovered over this store's lifetime.
    pub fn poisonings(&self) -> usize {
        // ORDERING: Relaxed — statistics read; staleness is acceptable.
        self.poisonings.load(Ordering::Relaxed)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of persisted surfaces in the index.
    pub fn len(&self) -> usize {
        self.index_read().len()
    }

    /// Total bytes of the persisted record files per the index.
    pub fn total_bytes(&self) -> u64 {
        self.index_read().iter().map(|e| e.bytes).sum()
    }

    /// Entries evicted over this store's lifetime.
    pub fn evictions(&self) -> usize {
        // ORDERING: Relaxed — statistics read; staleness is acceptable.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Corrupt / version-mismatched artifacts skipped over this store's
    /// lifetime.
    pub fn skipped(&self) -> usize {
        // ORDERING: Relaxed — statistics read; staleness is acceptable.
        self.skipped.load(Ordering::Relaxed)
    }

    /// Whether `hash` is currently indexed.
    pub fn contains(&self, hash: u64) -> bool {
        self.index_read().iter().any(|e| e.hash.0 == hash)
    }

    /// Snapshot of the index row for `hash`, if persisted. The clone is
    /// deliberate: the caller reads the record file *after* releasing the
    /// index lock.
    pub fn entry(&self, hash: u64) -> Option<ManifestEntry> {
        self.index_read().iter().find(|e| e.hash.0 == hash).cloned()
    }

    /// The nearest persisted same-shape neighbour within `radius` whose
    /// hash `exclude` does not claim (entries already promoted into
    /// memory were scanned there), per the manifest index alone — no file
    /// I/O, shared read lock only. Used by the warm-start lookup and cost
    /// estimation so both always pick the same neighbour.
    pub fn best_candidate<F: Fn(u64) -> bool>(
        &self,
        shape: ShapeKey,
        fingerprint: &[f64],
        radius: f64,
        exclude: F,
    ) -> Option<(f64, ManifestEntry)> {
        let index = self.index_read();
        let mut best: Option<(f64, &ManifestEntry)> = None;
        for entry in index.iter() {
            if entry.shape != shape || exclude(entry.hash.0) {
                continue;
            }
            let d = fingerprint_distance(&entry.fingerprint, fingerprint);
            if d <= radius && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, entry));
            }
        }
        best.map(|(d, entry)| (d, entry.clone()))
    }

    /// Reads and validates the record file for an index snapshot taken
    /// earlier. **Holds no lock** — this is the disk restore the serving
    /// front-end runs concurrently across threads. On failure the caller
    /// must [`Store::discard`] the entry.
    pub fn read_record(&self, entry: &ManifestEntry) -> Result<CachedSurface, String> {
        let bytes = fs::read(self.dir.join(&entry.file)).map_err(|e| format!("read: {e}"))?;
        let surface = decode_record(&bytes)?;
        if surface.hash != entry.hash.0 {
            return Err(format!(
                "record hash {} does not match index hash {}",
                HashId(surface.hash),
                entry.hash
            ));
        }
        if surface.shape != entry.shape {
            return Err("record shape does not match index shape".into());
        }
        if surface.fingerprint != entry.fingerprint {
            return Err("record fingerprint does not match index fingerprint".into());
        }
        Ok(surface)
    }

    /// Drops `hash` from the index (corrupt record file), deletes the
    /// file, counts the skip, and rewrites the manifest so the next
    /// process does not rediscover the dead row. Idempotent: a concurrent
    /// discard of the same hash is a no-op.
    pub fn discard(&self, hash: u64) {
        let _writer = self.writer_lock();
        let gone = {
            let mut index = self.index_write();
            match index.iter().position(|e| e.hash.0 == hash) {
                Some(pos) => index.remove(pos),
                None => return, // another thread already discarded it
            }
        };
        let _ = fs::remove_file(self.dir.join(&gone.file));
        // ORDERING: Relaxed — statistics tally; no ordering dependency.
        self.skipped.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.write_manifest() {
            warn(&format!("failed to rewrite cache manifest: {e}"));
        }
    }

    /// Deposits a surface: writes its record file atomically (**before**
    /// taking any lock), then — under the writer mutex — updates the
    /// index, applies the eviction policy, and rewrites the manifest
    /// atomically. Returns the hashes of any evicted surfaces so the
    /// in-memory cache can drop them too.
    pub fn insert(&self, surface: &CachedSurface) -> Result<Vec<u64>, String> {
        let name = surface_file_name(surface.hash);
        let encoded = encode_record(surface);
        let bytes = encoded.len() as u64;
        // Record-file I/O outside every lock: the atomic temp+rename
        // means concurrent writers of the same hash race to an
        // interchangeable result (identical scenario ⇒ identical surface
        // up to cost telemetry), and readers never see a torn file.
        write_atomic(&self.dir, &name, &encoded)?;

        let entry = ManifestEntry {
            hash: HashId(surface.hash),
            shape: surface.shape,
            fingerprint: surface.fingerprint.clone(),
            steps: surface.steps,
            cost_seconds: surface.cost_seconds,
            bytes,
            file: name,
        };

        let _writer = self.writer_lock();
        let mut evicted = Vec::new();
        let mut evicted_files: Vec<String> = Vec::new();
        {
            let mut index = self.index_write();
            // Re-deposits of the same scenario replace in place (last
            // writer wins, like the in-memory map) and keep their
            // eviction slot; the record file was overwritten above.
            match index.iter_mut().find(|e| e.hash == entry.hash) {
                Some(slot) => *slot = entry,
                None => index.push(entry),
            }

            loop {
                let over_entries = self.policy.max_entries.is_some_and(|m| index.len() > m);
                let total: u64 = index.iter().map(|e| e.bytes).sum();
                let over_bytes = self.policy.max_bytes.is_some_and(|m| total > m);
                if index.is_empty() || !(over_entries || over_bytes) {
                    break;
                }
                let gone = index.remove(0);
                // ORDERING: Relaxed — statistics tally; the index update
                // itself is ordered by the RwLock write guard.
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted.push(gone.hash.0);
                evicted_files.push(gone.file);
            }
        }
        // Evicted record files are deleted only after the index guard is
        // gone: readers (`load`) share that RwLock and must never block
        // on disk I/O. The writer mutex still serializes the deletions
        // with the manifest rewrite below, so a crash between the two
        // leaves at worst an orphaned file, never a dangling index row.
        for file in &evicted_files {
            let _ = fs::remove_file(self.dir.join(file));
        }

        // A budget smaller than a single surface evicts the deposit
        // itself: the directory bound still holds, but the surface must
        // not silently vanish from the in-memory tier too — that would
        // disable all caching. Keep it in memory (exclude it from the
        // evicted list) and say so.
        if let Some(pos) = evicted.iter().position(|&h| h == surface.hash) {
            warn(&format!(
                "cache budget is too small for a single surface ({bytes} bytes); \
                 surface {} stays in memory only",
                HashId(surface.hash)
            ));
            evicted.remove(pos);
        }

        self.write_manifest()?;
        Ok(evicted)
    }

    /// Rewrites the manifest atomically from the in-memory index.
    fn write_manifest(&self) -> Result<(), String> {
        let mut out = String::new();
        out.push('{');
        serde::write_key("version", &mut out);
        PERSIST_VERSION.serialize_json(&mut out);
        out.push(',');
        serde::write_key("entries", &mut out);
        self.index_read().serialize_json(&mut out);
        out.push('}');
        write_atomic(&self.dir, MANIFEST_FILE, out.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Binary columnar record format
// ---------------------------------------------------------------------------
//
// ```text
// header (40 bytes):
//   0..8    magic "HDDMSURF"
//   8..12   u32  format version (BINARY_RECORD_VERSION)
//   12..16  u32  reserved (zero; keeps the header 8-byte aligned)
//   16..24  u64  payload length in bytes
//   24..32  u64  FNV-1a-64 checksum of the payload
//   32..40  u64  FNV-1a-64 checksum of header bytes 0..32
// payload (all integers/floats little-endian, sections in order):
//   u64 hash · u64 dim · u64 ndofs · u64 num_states · u64 steps
//   f64 final_sup_change · f64 cost_seconds
//   u64 len + f64[len]  fingerprint
//   u64 len + f64[len]  domain_lo
//   u64 len + f64[len]  domain_hi
//   num_states × state record:
//     u64 len + (u32 index, u16 l, u16 i)[len]   xps      (8 B/entry)
//     u64 len + u32[len] (+ zero pad to 8 B)     chains
//     u64 len + u32[len] (+ zero pad to 8 B)     order
//     u64 nfreq
//     u64 len + f64[len]                         surplus
// ```
//
// Every section is one contiguous array of its field (columnar /
// structure-of-arrays, the layout `PointBlock` and the batch kernels
// consume) and every f64 section starts 8-byte aligned, so a restore is
// a bounds-checked memcpy per section — no float parsing. `f64` goes
// through `to_le_bytes`/`from_le_bytes`, so the round trip is bit-exact
// including NaN payloads and signed zeros.

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hasher = ScenarioHasher::default();
    hasher.write_bytes(bytes);
    hasher.finish()
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64_section(out: &mut Vec<u8>, vs: &[f64]) {
    push_u64(out, vs.len() as u64);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn push_u32_section(out: &mut Vec<u8>, vs: &[u32]) {
    push_u64(out, vs.len() as u64);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if vs.len() % 2 == 1 {
        out.extend_from_slice(&0u32.to_le_bytes()); // keep 8-byte alignment
    }
}

/// Encodes a surface into the versioned binary columnar record format.
pub fn encode_record(surface: &CachedSurface) -> Vec<u8> {
    let mut payload = Vec::new();
    push_u64(&mut payload, surface.hash);
    push_u64(&mut payload, surface.shape.dim as u64);
    push_u64(&mut payload, surface.shape.ndofs as u64);
    push_u64(&mut payload, surface.shape.num_states as u64);
    push_u64(&mut payload, surface.steps as u64);
    payload.extend_from_slice(&surface.final_sup_change.to_le_bytes());
    payload.extend_from_slice(&surface.cost_seconds.to_le_bytes());
    push_f64_section(&mut payload, &surface.fingerprint);
    push_f64_section(&mut payload, &surface.domain_lo);
    push_f64_section(&mut payload, &surface.domain_hi);
    for record in &surface.records {
        push_u64(&mut payload, record.xps.len() as u64);
        for &(index, l, i) in &record.xps {
            payload.extend_from_slice(&index.to_le_bytes());
            payload.extend_from_slice(&l.to_le_bytes());
            payload.extend_from_slice(&i.to_le_bytes());
        }
        push_u32_section(&mut payload, &record.chains);
        push_u32_section(&mut payload, &record.order);
        push_u64(&mut payload, record.nfreq as u64);
        push_f64_section(&mut payload, &record.surplus);
    }

    let mut out = Vec::with_capacity(40 + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&BINARY_RECORD_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    push_u64(&mut out, payload.len() as u64);
    push_u64(&mut out, fnv64(&payload));
    let header_checksum = fnv64(&out[..32]);
    push_u64(&mut out, header_checksum);
    out.extend_from_slice(&payload);
    out
}

/// A bounds-checked little-endian reader over a record payload. Every
/// length is validated against the remaining bytes *before* any
/// allocation, so a corrupt or truncated record fails with a typed error
/// (→ the store's skip-and-warn path), never a panic or a huge alloc.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.at < n {
            return Err(format!(
                "truncated record: wanted {n} bytes at offset {}, {} remain",
                self.at,
                self.bytes.len() - self.at
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A section length, validated so `len × elem_bytes` fits in the
    /// remaining payload.
    fn section_len(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let len = self.u64()?;
        let remaining = (self.bytes.len() - self.at) as u64;
        if len
            .checked_mul(elem_bytes as u64)
            .is_none_or(|b| b > remaining)
        {
            return Err(format!(
                "corrupt record: section of {len} × {elem_bytes}-byte elements \
                 exceeds the {remaining} remaining bytes"
            ));
        }
        Ok(len as usize)
    }

    fn f64_section(&mut self) -> Result<Vec<f64>, String> {
        let len = self.section_len(8)?;
        let raw = self.take(len * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u32_section(&mut self) -> Result<Vec<u32>, String> {
        let len = self.section_len(4)?;
        let raw = self.take(len * 4)?;
        let vs = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if len % 2 == 1 {
            self.take(4)?; // alignment pad
        }
        Ok(vs)
    }
}

/// Decodes and fully self-validates a binary record. Cross-checks
/// against the manifest row happen in [`Store::read_record`].
pub fn decode_record(bytes: &[u8]) -> Result<CachedSurface, String> {
    if bytes.len() < 40 {
        return Err(format!("truncated record header ({} bytes)", bytes.len()));
    }
    if bytes[..8] != RECORD_MAGIC {
        return Err("not a binary surface record (bad magic)".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != BINARY_RECORD_VERSION {
        return Err(format!(
            "binary record format version {version} (expected {BINARY_RECORD_VERSION})"
        ));
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload_checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let header_checksum = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
    if fnv64(&bytes[..32]) != header_checksum {
        return Err("record header checksum mismatch".into());
    }
    let payload = &bytes[40..];
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "record payload is {} bytes, header says {payload_len}",
            payload.len()
        ));
    }
    if fnv64(payload) != payload_checksum {
        return Err("record payload checksum mismatch".into());
    }

    let mut r = Reader {
        bytes: payload,
        at: 0,
    };
    let hash = r.u64()?;
    let shape = ShapeKey {
        dim: r.u64()? as usize,
        ndofs: r.u64()? as usize,
        num_states: r.u64()? as usize,
    };
    let steps = r.u64()? as usize;
    let final_sup_change = r.f64()?;
    let cost_seconds = r.f64()?;
    let fingerprint = r.f64_section()?;
    let domain_lo = r.f64_section()?;
    let domain_hi = r.f64_section()?;
    if shape.num_states > payload.len() / 8 {
        return Err(format!(
            "corrupt record: {} discrete states exceed the payload",
            shape.num_states
        ));
    }
    let mut records = Vec::with_capacity(shape.num_states);
    for _ in 0..shape.num_states {
        let nxps = r.section_len(8)?;
        let raw = r.take(nxps * 8)?;
        let xps = raw
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[0..4].try_into().unwrap()),
                    u16::from_le_bytes(c[4..6].try_into().unwrap()),
                    u16::from_le_bytes(c[6..8].try_into().unwrap()),
                )
            })
            .collect();
        let chains = r.u32_section()?;
        let order = r.u32_section()?;
        let nfreq = r.u64()? as usize;
        let surplus = r.f64_section()?;
        records.push(StateRecord {
            xps,
            chains,
            order,
            nfreq,
            surplus,
        });
    }
    if r.at != payload.len() {
        return Err(format!(
            "corrupt record: {} trailing bytes after the last section",
            payload.len() - r.at
        ));
    }

    validate_surface(CachedSurface {
        hash,
        shape,
        fingerprint,
        domain_lo,
        domain_hi,
        records,
        steps,
        final_sup_change,
        cost_seconds,
    })
}

/// The semantic validation every decoded record passes: consistent
/// shapes, a sane domain box, well-formed compressed state records.
fn validate_surface(surface: CachedSurface) -> Result<CachedSurface, String> {
    let shape = surface.shape;
    if surface.records.len() != shape.num_states {
        return Err(format!(
            "{} state records for {} discrete states",
            surface.records.len(),
            shape.num_states
        ));
    }
    if surface.domain_lo.len() != shape.dim || surface.domain_hi.len() != shape.dim {
        return Err(format!(
            "domain box dims {}/{} do not match shape dim {}",
            surface.domain_lo.len(),
            surface.domain_hi.len(),
            shape.dim
        ));
    }
    for (lo, hi) in surface.domain_lo.iter().zip(&surface.domain_hi) {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(format!("degenerate domain box [{lo}, {hi}]"));
        }
    }
    for (z, record) in surface.records.iter().enumerate() {
        record
            .validate(shape.dim, shape.ndofs)
            .map_err(|e| format!("state record {z}: {e}"))?;
    }
    Ok(surface)
}
