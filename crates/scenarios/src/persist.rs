//! The persistent, versioned, content-addressed policy-surface store.
//!
//! The in-memory [`SurfaceCache`](crate::SurfaceCache) loses every solved
//! surface at process exit; this module gives it a durable backing
//! directory so run N+1 of the same sweep does zero solves. Layout:
//!
//! ```text
//! <cache-dir>/
//!   surface-<16-hex>.bin     # one record per surface, named by its hash
//! ```
//!
//! The record files are the index. A record is one [`hddm_core::record`]
//! frame (magic `HDDMSURF`): the checksummed 40-byte header, this module's
//! own fields (hash, shape, cost telemetry, fingerprint; see
//! [`encode_record`]) and the policy body every stored policy shares, laid
//! out and validated by `hddm-core`. Opening a directory lists it, verifies
//! each record's frame and reads the fields in front of its policy body —
//! everything lookups and cost estimation need — through the helper
//! [`decode_record`] starts with; policy bodies are decoded lazily on
//! first hit. The index is ordered by (file mtime, name), oldest first, so
//! eviction order survives a reopen.
//!
//! Crash contract and damage rules:
//!
//! * a record is committed by the cache's write-behind commit stage (see
//!   [`crate::cache`]), one group at a time: each record is written to a
//!   dot-prefixed temp file in the same directory, fsynced and renamed
//!   ([`Store::commit`]); then one directory fsync ([`Store::sync_dir`])
//!   makes the group's renames durable. A crash leaves, for each record,
//!   the previous one or the complete new one, plus at worst a `.tmp-*`
//!   file the next open removes. A deposit whose commit had not yet run
//!   is simply absent, and its scenario is solved again. There is no
//!   second file to keep in step, so an indexed-but-missing record or an
//!   unindexed one cannot come out of a crash;
//! * a file open cannot use — a name that is not [`surface_file_name`] of
//!   a hash, a frame that fails to verify (torn, bit-flipped, empty, or
//!   another format version, such as a version-1 record an older build
//!   checksummed a byte at a time), a frame holding another hash than its
//!   name — is removed with a warning and counted in the telemetry, and its
//!   scenario is solved again on its next request. A record's
//!   path is a function of its hash alone: nothing read from a file's
//!   contents is ever opened;
//! * a record damaged after open fails its full decode on first hit, is
//!   dropped from the index and deleted, counted the same way;
//! * eviction is oldest-first with configurable max-entries and max-bytes
//!   bounds ([`EvictionPolicy`]), applied on every commit, so the
//!   directory provably never exceeds the configured budget.
//!
//! Concurrency: the index lives behind an `RwLock`, so any number of
//! readers can consult it simultaneously, and **record-file I/O happens
//! outside every lock**. The read path is: snapshot the index row under the
//! read lock, release it, read + validate the record file with no lock
//! held, then hand the surface to the owning cache for promotion. A commit
//! writes its record before taking any lock, updates the index under a
//! short write guard, and deletes evicted files after that guard drops —
//! concurrent readers never wait on the writer's disk I/O, and vice versa.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::SystemTime;

use hddm_core::record::{self, Reader, Writer};

use crate::cache::{CachedSurface, ShapeKey};
use crate::hash::{fingerprint_distance, HashId};

/// Current version of the binary columnar record format. Version 2
/// frames checksum a word at a time; a version-1 record (byte-wise
/// FNV-1a) is removed at open and its scenario re-solved.
pub const BINARY_RECORD_VERSION: u32 = 2;

/// Magic bytes opening every binary record file.
pub const RECORD_MAGIC: [u8; 8] = *b"HDDMSURF";

/// Size bounds of a persistent store, enforced on every commit by
/// evicting the oldest entries first. `None` means unbounded in that
/// dimension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionPolicy {
    /// Maximum number of persisted surfaces.
    pub max_entries: Option<usize>,
    /// Maximum total bytes of the persisted record files.
    pub max_bytes: Option<u64>,
}

/// One surface's row in the index: everything a lookup needs to decide
/// exact/warm/miss — and a cost estimate — without reading the record file
/// again. Its file is [`surface_file_name`] of `hash`.
#[derive(Clone, Debug)]
pub(crate) struct IndexRow {
    pub hash: HashId,
    pub shape: ShapeKey,
    pub fingerprint: Vec<f64>,
    pub cost_seconds: f64,
    /// Size of the record file in bytes (the eviction currency).
    pub bytes: u64,
}

fn warn(message: &str) {
    eprintln!("hddm-scenarios: warning: {message}");
}

/// Record file name for a hash.
pub fn surface_file_name(hash: u64) -> String {
    format!("surface-{}.bin", HashId(hash))
}

/// The persistent backing store of a `SurfaceCache`: a cache directory,
/// the index its record files give, and the eviction policy.
///
/// Lock discipline (all internal — the owning cache never holds its own
/// shard locks across a store call): `index` (`RwLock`) is the one lock.
/// Lookups and cost estimation take the read lock, snapshot what they
/// need, and release before any file I/O; commits and discards take the
/// write lock for the row update alone and touch files outside it.
#[derive(Debug)]
pub(crate) struct Store {
    dir: PathBuf,
    policy: EvictionPolicy,
    index: RwLock<Vec<IndexRow>>,
    evictions: AtomicUsize,
    skipped: AtomicUsize,
    poisonings: AtomicUsize,
}

impl Store {
    /// Opens (or initializes) a cache directory: creates it if missing and
    /// builds the index from its record files, oldest mtime first (ties by
    /// name; a name is its hash in fixed-width hex, so the hash orders
    /// ties the same). A `surface-*` file whose name, frame or embedded
    /// hash does not check out is removed and counted in `skipped`;
    /// `.tmp-*` files (torn deposits) and the `manifest.json` index older
    /// builds kept beside their records are removed unread.
    pub fn open<P: AsRef<Path>>(dir: P, policy: EvictionPolicy) -> Result<Store, String> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        let listing =
            fs::read_dir(&dir).map_err(|e| format!("list cache dir {}: {e}", dir.display()))?;

        let mut rows = Vec::new();
        let mut skipped = 0usize;
        for entry in listing.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") || name == "manifest.json" {
                let _ = fs::remove_file(entry.path());
            } else if name.starts_with("surface-") {
                match read_row(&entry.path(), &name) {
                    Ok(row) => rows.push(row),
                    Err(e) => {
                        warn(&format!("removing cache record {name} ({e})"));
                        let _ = fs::remove_file(entry.path());
                        skipped += 1;
                    }
                }
            }
        }
        rows.sort_by_key(|(mtime, row)| (*mtime, row.hash));
        Ok(Store {
            dir,
            policy,
            index: RwLock::new(rows.into_iter().map(|(_, row)| row).collect()),
            evictions: AtomicUsize::new(0),
            skipped: AtomicUsize::new(skipped),
            poisonings: AtomicUsize::new(0),
        })
    }

    // Poisoned guards are recovered, cleared, and counted: the guarded
    // state (the index vector) is consistent at every point a panic can
    // interrupt it, so a crashing thread must not cascade. The count
    // rolls up into `CacheStats::lock_poisonings`.

    fn index_read(&self) -> std::sync::RwLockReadGuard<'_, Vec<IndexRow>> {
        self.index.read().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            self.index.clear_poison();
            poisoned.into_inner()
        })
    }

    fn index_write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<IndexRow>> {
        self.index.write().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.poisonings.fetch_add(1, Ordering::Relaxed);
            self.index.clear_poison();
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

    /// Damaged, misnamed or version-mismatched records skipped over this
    /// store's lifetime.
    pub fn skipped(&self) -> usize {
        // ORDERING: Relaxed — statistics read; staleness is acceptable.
        self.skipped.load(Ordering::Relaxed)
    }

    /// Snapshot of the index row for `hash`, if persisted. The clone is
    /// deliberate: the caller reads the record file *after* releasing the
    /// index lock.
    pub fn entry(&self, hash: u64) -> Option<IndexRow> {
        self.index_read().iter().find(|e| e.hash.0 == hash).cloned()
    }

    /// The nearest persisted same-shape neighbour within `radius` whose
    /// hash `exclude` does not claim (entries already promoted into
    /// memory were scanned there), per the index alone — no file I/O,
    /// shared read lock only. Used by the warm-start lookup and cost
    /// estimation so both always pick the same neighbour.
    pub fn best_candidate<F: Fn(u64) -> bool>(
        &self,
        shape: ShapeKey,
        fingerprint: &[f64],
        radius: f64,
        exclude: F,
    ) -> Option<(f64, IndexRow)> {
        let index = self.index_read();
        let mut best: Option<(f64, &IndexRow)> = None;
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
    pub fn read_record(&self, entry: &IndexRow) -> Result<CachedSurface, String> {
        let path = self.dir.join(surface_file_name(entry.hash.0));
        let bytes = fs::read(path).map_err(|e| format!("read: {e}"))?;
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

    /// Drops `hash` from the index (damaged record file), deletes the
    /// file, and counts the skip. Idempotent: a concurrent discard of the
    /// same hash is a no-op.
    pub fn discard(&self, hash: u64) {
        {
            let mut index = self.index_write();
            match index.iter().position(|e| e.hash.0 == hash) {
                Some(pos) => index.remove(pos),
                None => return, // another thread already discarded it
            };
        }
        let _ = fs::remove_file(self.dir.join(surface_file_name(hash)));
        // ORDERING: Relaxed — statistics tally; no ordering dependency.
        self.skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Commits one surface of a group: writes its record file under a temp
    /// name, fsyncs it and renames it into place (**before** taking any
    /// lock), then — under the index write guard — moves its row to the
    /// back and applies the eviction policy, and deletes the evicted files
    /// after the guard drops. Returns the hashes of any evicted surfaces so
    /// the in-memory cache can drop them too. The rename is durable only
    /// after [`Store::sync_dir`], which the commit stage calls once per
    /// group.
    pub fn commit(&self, surface: &CachedSurface) -> Result<Vec<u64>, String> {
        let encoded = encode_record(surface);
        let bytes = encoded.len() as u64;
        // Readers never see a torn file: they find the previous record or
        // the renamed new one.
        record::stage(&self.dir.join(surface_file_name(surface.hash)), &encoded)
            .and_then(record::Staged::publish)
            .map_err(|e| e.to_string())?;

        let row = IndexRow {
            hash: HashId(surface.hash),
            shape: surface.shape,
            fingerprint: surface.fingerprint.clone(),
            cost_seconds: surface.cost_seconds,
            bytes,
        };
        let mut evicted = Vec::new();
        {
            let mut index = self.index_write();
            // A re-deposit (last writer wins, like the in-memory map) is
            // the newest entry: its record was just rewritten, so after a
            // reopen its mtime puts it at the back too.
            index.retain(|e| e.hash != row.hash);
            index.push(row);

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
            }
        }
        // Evicted record files are deleted only after the index guard is
        // gone: readers (`entry`, `best_candidate`) share that RwLock and must never block
        // on disk I/O. A crash before the deletion leaves a record the
        // next open indexes and the next commit evicts again.
        for &hash in &evicted {
            let _ = fs::remove_file(self.dir.join(surface_file_name(hash)));
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
        Ok(evicted)
    }

    /// Makes the renames of every [`Store::commit`] so far durable: one
    /// fsync of the cache directory.
    pub fn sync_dir(&self) {
        record::sync_dir(&self.dir);
    }
}

/// Reads and verifies the record `name` at `path` and builds its index row
/// from the fields in front of its policy body. The name must be
/// [`surface_file_name`] of a hash — checked before the file is read — and
/// the frame must hold that hash.
fn read_row(path: &Path, name: &str) -> Result<(SystemTime, IndexRow), String> {
    let named = name
        .strip_prefix("surface-")
        .and_then(|rest| rest.strip_suffix(".bin"))
        .and_then(|hex| HashId::from_hex(hex).ok())
        .filter(|hash| surface_file_name(hash.0) == name)
        .ok_or("not named surface-<16 hex digits>.bin")?;
    // Bytes and mtime from one open file: a rename between two lookups of
    // `path` cannot pair one record's bytes with another's mtime, and the
    // mtime orders eviction.
    let mut file = fs::File::open(path).map_err(|e| format!("read: {e}"))?;
    let mtime = file
        .metadata()
        .and_then(|m| m.modified())
        .map_err(|e| format!("mtime: {e}"))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| format!("read: {e}"))?;
    let head = read_head(&mut Reader::open(
        RECORD_MAGIC,
        BINARY_RECORD_VERSION,
        &bytes,
    )?)?;
    if head.hash != named.0 {
        return Err(format!("holds the record of {}", HashId(head.hash)));
    }
    let row = IndexRow {
        hash: named,
        shape: head.shape,
        fingerprint: head.fingerprint,
        cost_seconds: head.cost_seconds,
        bytes: bytes.len() as u64,
    };
    Ok((mtime, row))
}

/// The fields an `HDDMSURF` payload carries in front of its policy body.
struct Head {
    hash: u64,
    shape: ShapeKey,
    steps: usize,
    final_sup_change: f64,
    cost_seconds: f64,
    fingerprint: Vec<f64>,
}

/// Reads a record's [`Head`] — the first half of [`decode_record`], and
/// all of what [`Store::open`] reads.
fn read_head(r: &mut Reader) -> Result<Head, String> {
    Ok(Head {
        hash: r.u64()?,
        shape: ShapeKey {
            dim: r.usize()?,
            ndofs: r.usize()?,
            num_states: r.usize()?,
        },
        steps: r.usize()?,
        final_sup_change: r.f64()?,
        cost_seconds: r.f64()?,
        fingerprint: r.f64_section()?,
    })
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
/// index row happen in [`Store::read_record`].
pub fn decode_record(bytes: &[u8]) -> Result<CachedSurface, String> {
    let mut r = Reader::open(RECORD_MAGIC, BINARY_RECORD_VERSION, bytes)?;
    let head = read_head(&mut r)?;
    let shape = head.shape;
    let policy = r.policy(shape.dim, shape.ndofs, shape.num_states)?;
    r.finish()?;
    Ok(CachedSurface {
        hash: head.hash,
        shape,
        fingerprint: head.fingerprint,
        policy,
        steps: head.steps,
        final_sup_change: head.final_sup_change,
        cost_seconds: head.cost_seconds,
    })
}
