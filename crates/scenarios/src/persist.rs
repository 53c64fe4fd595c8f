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
//! Record format: one [`hddm_core::record`] frame (`.bin`, magic
//! `HDDMSURF`) — the checksummed 40-byte header, this module's own fields
//! (hash, shape, cost telemetry, fingerprint; see [`encode_record`]) and
//! the policy body every stored policy shares, laid out and validated by
//! `hddm-core`. A record's file name is a pure function of its hash
//! ([`surface_file_name`]); a manifest row naming any other path is
//! dropped at open, so nothing read from the manifest can point outside
//! the cache directory.
//!
//! Durability rules:
//!
//! * every file (manifest and records) is written atomically *and
//!   durably* through [`hddm_core::record::write_atomic`] — a dot-prefixed
//!   temp file in the same directory, fsynced, renamed, and the directory
//!   fsynced after — so a crash at any point leaves either the previous
//!   version or the complete new one, never a torn or empty file that a
//!   rename alone (buffered in the page cache) could still surface;
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

use hddm_core::record::{write_atomic, Reader, Writer};

use crate::cache::{CachedSurface, ShapeKey};
use crate::hash::{fingerprint_distance, HashId};

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
        write_atomic(&self.dir.join(&name), &encoded).map_err(|e| e.to_string())?;

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
        write_atomic(&self.dir.join(MANIFEST_FILE), out.as_bytes()).map_err(|e| e.to_string())
    }
}

/// Encodes a surface as one `HDDMSURF` record.
///
/// ```text
/// payload, behind the frame header of `hddm_core::record`:
///   u64 hash · u64 dim · u64 ndofs · u64 num_states · u64 steps
///   f64 final_sup_change · f64 cost_seconds
///   u64 len + f64[len]  fingerprint
///   the policy body (domain box, then the states' arrays)
/// ```
pub fn encode_record(surface: &CachedSurface) -> Vec<u8> {
    let mut w = Writer::new(RECORD_MAGIC, BINARY_RECORD_VERSION);
    w.u64(surface.hash);
    w.u64(surface.shape.dim as u64);
    w.u64(surface.shape.ndofs as u64);
    w.u64(surface.shape.num_states as u64);
    w.u64(surface.steps as u64);
    w.f64(surface.final_sup_change);
    w.f64(surface.cost_seconds);
    w.f64_section(&surface.fingerprint);
    w.policy(&surface.policy);
    w.finish()
}

/// Decodes and fully self-validates a record. Cross-checks against the
/// manifest row happen in [`Store::read_record`].
pub fn decode_record(bytes: &[u8]) -> Result<CachedSurface, String> {
    let mut r = Reader::open(RECORD_MAGIC, BINARY_RECORD_VERSION, bytes)?;
    let hash = r.u64()?;
    let shape = ShapeKey {
        dim: r.usize()?,
        ndofs: r.usize()?,
        num_states: r.usize()?,
    };
    let steps = r.usize()?;
    let final_sup_change = r.f64()?;
    let cost_seconds = r.f64()?;
    let fingerprint = r.f64_section()?;
    let policy = r.policy(shape.dim, shape.ndofs, shape.num_states)?;
    r.finish()?;
    Ok(CachedSurface {
        hash,
        shape,
        fingerprint,
        policy,
        steps,
        final_sup_change,
        cost_seconds,
    })
}
