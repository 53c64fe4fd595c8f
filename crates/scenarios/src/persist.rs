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
//! The record files seed the catalogue at open. A record is one
//! [`hddm_core::record`] frame (magic `HDDMSURF`): the checksummed 40-byte
//! header, this module's own fields (hash, shape, cost telemetry,
//! fingerprint; see [`encode_record`]) and the policy body every stored
//! policy shares, laid out and validated by `hddm-core`. Opening a
//! directory lists it, verifies each record's frame and reads the fields in
//! front of its policy body — everything lookups and cost estimation need —
//! through the helper [`decode_record`] starts with, and hands them to the
//! cache, whose catalogue holds them from then on; policy bodies are decoded
//! lazily on first hit. The listing is ordered by (file mtime, name), oldest
//! first, so eviction order survives a reopen.
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
//!   second file to keep in step, so a listed-but-missing record or an
//!   unlisted one cannot come out of a crash;
//! * a file open cannot use — a name that is not [`surface_file_name`] of
//!   a hash, a frame that fails to verify (torn, bit-flipped, empty, or
//!   another format version, such as a version-1 record an older build
//!   checksummed a byte at a time), a frame holding another hash than its
//!   name — is removed with a warning and counted in the telemetry, and its
//!   scenario is solved again on its next request. A record's
//!   path is a function of its hash alone: nothing read from a file's
//!   contents is ever opened;
//! * a record damaged after open fails its full decode on first hit, is
//!   dropped from the catalogue and deleted, counted the same way;
//! * eviction is oldest-first with configurable max-entries and max-bytes
//!   bounds ([`EvictionPolicy`]), applied by the commit stage on every
//!   commit, so the directory provably never exceeds the configured budget.
//!
//! Concurrency: the store holds no lock and no state beyond its path. Each
//! call touches one record file (or the directory, for `Store::sync_dir`),
//! and the cache makes every call outside its own locks: a restore reads
//! its record with no lock held, and the commit stage writes, evicts and
//! deletes records before or after the short shard guards that update the
//! catalogue, so concurrent readers never wait on the writer's disk I/O,
//! and vice versa.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use hddm_core::record::{self, Reader, Writer};

use crate::cache::{CachedSurface, ShapeKey};
use crate::hash::HashId;

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

/// A record as [`Store::open`] lists it: the fields in front of its policy
/// body, which is all the cache's catalogue keeps of a surface it has not
/// loaded. Its file is [`surface_file_name`] of `hash`.
pub(crate) struct Listed {
    pub hash: u64,
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

/// The cache directory of a `SurfaceCache`. It keeps no state beyond the
/// path: what the directory holds is listed once, at open, into the
/// cache's catalogue, and every later call touches one record file.
#[derive(Debug)]
pub(crate) struct Store {
    dir: PathBuf,
}

impl Store {
    /// Opens (or initializes) a cache directory: creates it if missing and
    /// lists its record files, oldest mtime first (ties by name; a name is
    /// its hash in fixed-width hex, so the hash orders ties the same).
    /// Returns the store, the listed records and the number of `surface-*`
    /// files removed because their name, frame or embedded hash does not
    /// check out; `.tmp-*` files (torn deposits) and the `manifest.json`
    /// index older builds kept beside their records are removed unread.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<(Store, Vec<Listed>, usize), String> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| format!("create cache dir {}: {e}", dir.display()))?;
        let listing =
            fs::read_dir(&dir).map_err(|e| format!("list cache dir {}: {e}", dir.display()))?;

        let mut records = Vec::new();
        let mut skipped = 0usize;
        for entry in listing.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") || name == "manifest.json" {
                let _ = fs::remove_file(entry.path());
            } else if name.starts_with("surface-") {
                match list_record(&entry.path(), &name) {
                    Ok(record) => records.push(record),
                    Err(e) => {
                        warn(&format!("removing cache record {name} ({e})"));
                        let _ = fs::remove_file(entry.path());
                        skipped += 1;
                    }
                }
            }
        }
        records.sort_by_key(|(mtime, record)| (*mtime, record.hash));
        let records = records.into_iter().map(|(_, record)| record).collect();
        Ok((Store { dir }, records, skipped))
    }

    /// Reads and validates the record file of `hash`, which must hold the
    /// `shape` and `fingerprint` the catalogue lists for it. **Holds no
    /// lock**: this is the disk restore the serving front-end runs
    /// concurrently across threads.
    pub fn read_record(
        &self,
        hash: u64,
        shape: ShapeKey,
        fingerprint: &[f64],
    ) -> Result<CachedSurface, String> {
        let bytes = fs::read(self.path(hash)).map_err(|e| format!("read: {e}"))?;
        let surface = decode_record(&bytes)?;
        if surface.hash != hash {
            return Err(format!(
                "record hash {} does not match its name {}",
                HashId(surface.hash),
                HashId(hash)
            ));
        }
        if surface.shape != shape || surface.fingerprint != fingerprint {
            return Err("record shape or fingerprint does not match the catalogue".into());
        }
        Ok(surface)
    }

    /// Writes a surface's record file under a temp name, fsyncs it and
    /// renames it into place, and returns its size in bytes. Readers never
    /// see a torn file: they find the previous record or the renamed new
    /// one. The rename is durable only after [`Store::sync_dir`], which the
    /// commit stage calls once per group.
    pub fn commit(&self, surface: &CachedSurface) -> Result<u64, String> {
        let encoded = encode_record(surface);
        record::stage(&self.path(surface.hash), &encoded)
            .and_then(record::Staged::publish)
            .map_err(|e| e.to_string())?;
        Ok(encoded.len() as u64)
    }

    /// Deletes the record file of `hash` (evicted or damaged). A missing
    /// file is no error.
    pub fn remove_record(&self, hash: u64) {
        let _ = fs::remove_file(self.path(hash));
    }

    /// Makes the renames of every [`Store::commit`] so far durable: one
    /// fsync of the cache directory.
    pub fn sync_dir(&self) {
        record::sync_dir(&self.dir);
    }

    fn path(&self, hash: u64) -> PathBuf {
        self.dir.join(surface_file_name(hash))
    }
}

/// Reads and verifies the record `name` at `path` and lists it from the
/// fields in front of its policy body. The name must be
/// [`surface_file_name`] of a hash — checked before the file is read — and
/// the frame must hold that hash.
fn list_record(path: &Path, name: &str) -> Result<(SystemTime, Listed), String> {
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
    let record = Listed {
        hash: named.0,
        shape: head.shape,
        fingerprint: head.fingerprint,
        cost_seconds: head.cost_seconds,
        bytes: bytes.len() as u64,
    };
    Ok((mtime, record))
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
/// catalogue happen in [`Store::read_record`].
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
