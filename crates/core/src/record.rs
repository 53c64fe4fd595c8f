//! The byte form of a [`PolicySet`]: the one place the compressed layout
//! of Sec. IV-B — the `xps` dictionary, the 0-terminated chain matrix, the
//! order permutation and the chain-ordered surplus matrix — is spelled in
//! bytes. A policy-surface record of the scenario cache (`HDDMSURF`) and a
//! [`Checkpoint`](crate::Checkpoint) (`HDDMCKPT`) are the same thing: a
//! checksummed frame around a few fields of their own and one policy body,
//! written by a [`Writer`], read back by a [`Reader`], put on disk by
//! [`write_atomic`]. The structural check on the way back in is
//! [`CompressedGrid::try_from_raw_parts`], nothing else.
//!
//! ```text
//! frame — a 40-byte header, then the payload:
//!   0..8    magic (the caller's)
//!   8..12   u32  format version (the caller's)
//!   12..16  u32  reserved (zero; keeps the header 8-byte aligned)
//!   16..24  u64  payload length in bytes
//!   24..32  u64  FNV-1a-64 checksum of the payload
//!   32..40  u64  FNV-1a-64 checksum of header bytes 0..32
//! policy body (all integers/floats little-endian, sections in order):
//!   u64 len + f64[len]  domain_lo
//!   u64 len + f64[len]  domain_hi
//!   num_states × state:
//!     u64 len + (u32 index, u16 l, u16 i)[len]   xps      (8 B/entry)
//!     u64 len + u32[len] (+ zero pad to 8 B)     chains
//!     u64 len + u32[len] (+ zero pad to 8 B)     order
//!     u64 nfreq
//!     u64 len + f64[len]                         surplus
//! ```
//!
//! Every section is one contiguous array of its field (columnar /
//! structure-of-arrays, the layout `PointBlock` and the batch kernels
//! consume) and every `f64` section starts 8-byte aligned, so a restore is
//! a bounds-checked copy per section — no float parsing. `f64` goes
//! through `to_le_bytes`/`from_le_bytes`, so the round trip is bit-exact
//! including NaN payloads and signed zeros. The shape `(dim, ndofs,
//! num_states)` is not part of the body: the caller stores it among its
//! own fields and hands it to [`Reader::policy`].

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use hddm_asg::BoxDomain;
use hddm_compress::{CompressedGrid, XpsEntry};
use hddm_kernels::CompressedState;

use crate::policy::PolicySet;

const HEADER_BYTES: usize = 40;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut state = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        state = (state ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Stamps payload length and both checksums into the header of `frame`.
pub(crate) fn stamp(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(HEADER_BYTES);
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&fnv64(payload).to_le_bytes());
    let header_checksum = fnv64(&header[..32]);
    header[32..40].copy_from_slice(&header_checksum.to_le_bytes());
}

/// Builds one frame in place: the header is reserved up front, fields are
/// appended behind it, [`Writer::finish`] stamps length and checksums.
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty frame of the given format.
    pub fn new(magic: [u8; 8], version: u32) -> Writer {
        let mut bytes = vec![0; HEADER_BYTES];
        bytes[..8].copy_from_slice(&magic);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        Writer { bytes }
    }

    /// Appends one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `f64`, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f64` section.
    pub fn f64_section(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn u32_section(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        if vs.len() % 2 == 1 {
            self.bytes.extend_from_slice(&0u32.to_le_bytes()); // keep 8-byte alignment
        }
    }

    /// Appends the policy body: the domain box, then every state's arrays.
    pub fn policy(&mut self, policy: &PolicySet) {
        self.f64_section(policy.domain.lo());
        self.f64_section(policy.domain.hi());
        for z in 0..policy.states.num_states() {
            let state = policy.states.state(z);
            let grid = &state.grid;
            self.u64(grid.xps().len() as u64);
            for e in grid.xps() {
                self.bytes.extend_from_slice(&e.index.to_le_bytes());
                self.bytes.extend_from_slice(&e.l.to_le_bytes());
                self.bytes.extend_from_slice(&e.i.to_le_bytes());
            }
            self.u32_section(grid.chains());
            self.u32_section(grid.order());
            self.u64(grid.nfreq() as u64);
            self.f64_section(&state.surplus);
        }
    }

    /// Seals the frame and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        stamp(&mut self.bytes);
        self.bytes
    }
}

/// A bounds-checked little-endian reader over the payload of a verified
/// frame. Every length is validated against the remaining bytes *before*
/// any allocation, so a corrupt or truncated file fails with an error
/// naming what is wrong, never a panic or an allocation larger than the
/// input.
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Verifies the frame around `bytes` — magic, version, payload length
    /// and both checksums — and opens its payload.
    pub fn open(magic: [u8; 8], version: u32, bytes: &'a [u8]) -> Result<Reader<'a>, String> {
        if bytes.len() < HEADER_BYTES {
            return Err(format!("truncated record header ({} bytes)", bytes.len()));
        }
        let (header, payload) = bytes.split_at(HEADER_BYTES);
        if header[..8] != magic {
            return Err(format!(
                "not a {} record (bad magic)",
                String::from_utf8_lossy(&magic)
            ));
        }
        let found = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if found != version {
            return Err(format!(
                "record format version {found} (expected {version})"
            ));
        }
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let (payload_len, payload_checksum, header_checksum) = (word(16), word(24), word(32));
        if fnv64(&header[..32]) != header_checksum {
            return Err("record header checksum mismatch".into());
        }
        if payload.len() as u64 != payload_len {
            return Err(format!(
                "record payload is {} bytes, header says {payload_len}",
                payload.len()
            ));
        }
        if fnv64(payload) != payload_checksum {
            return Err("record payload checksum mismatch".into());
        }
        Ok(Reader {
            bytes: payload,
            at: 0,
        })
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated record: wanted {n} bytes at offset {}, {} remain",
                self.at,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads one `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    /// Reads one `u64` that has to fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("corrupt record: {v} does not fit a usize"))
    }

    /// Reads one `f64`, bit for bit.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A section length, validated so `len × elem_bytes` fits in the
    /// remaining payload.
    fn section_len(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let len = self.u64()?;
        let remaining = self.remaining() as u64;
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

    /// Reads a length-prefixed `f64` section.
    pub fn f64_section(&mut self) -> Result<Vec<f64>, String> {
        let len = self.section_len(8)?;
        let raw = self.take(len * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn u32_section(&mut self) -> Result<Vec<u32>, String> {
        let len = self.section_len(4)?;
        let raw = self.take(len * 4)?;
        let vs = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        if len % 2 == 1 {
            self.take(4)?; // alignment pad
        }
        Ok(vs)
    }

    /// Reads the policy body of a policy of the given shape and checks it:
    /// a sane domain box of `dim` sides, `num_states` states whose arrays
    /// pass [`CompressedGrid::try_from_raw_parts`], one surplus row of
    /// `ndofs` coefficients per grid point.
    pub fn policy(
        &mut self,
        dim: usize,
        ndofs: usize,
        num_states: usize,
    ) -> Result<PolicySet, String> {
        if dim < 1 || ndofs < 1 || num_states < 1 {
            return Err(format!(
                "dim {dim} / ndofs {ndofs} / {num_states} discrete states must be positive"
            ));
        }
        let lo = self.f64_section()?;
        let hi = self.f64_section()?;
        if lo.len() != dim || hi.len() != dim {
            return Err(format!(
                "domain box dims {}/{} do not match shape dim {dim}",
                lo.len(),
                hi.len()
            ));
        }
        for (lo, hi) in lo.iter().zip(&hi) {
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(format!("degenerate domain box [{lo}, {hi}]"));
            }
        }
        // A state is five length or stride words at the very least.
        if num_states > self.remaining() / 40 {
            return Err(format!(
                "corrupt record: {num_states} discrete states exceed the payload"
            ));
        }
        let states = (0..num_states)
            .map(|z| {
                self.state(dim, ndofs)
                    .map_err(|e| format!("state {z}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PolicySet::new(states, BoxDomain::new(lo, hi)))
    }

    fn state(&mut self, dim: usize, ndofs: usize) -> Result<CompressedState, String> {
        let nxps = self.section_len(8)?;
        let xps = self
            .take(nxps * 8)?
            .chunks_exact(8)
            .map(|c| XpsEntry {
                index: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                l: u16::from_le_bytes(c[4..6].try_into().expect("2 bytes")),
                i: u16::from_le_bytes(c[6..8].try_into().expect("2 bytes")),
            })
            .collect();
        let chains = self.u32_section()?;
        let order = self.u32_section()?;
        let nfreq = self.usize()?;
        let surplus = self.f64_section()?;
        let grid = CompressedGrid::try_from_raw_parts(dim, nfreq, xps, chains, order)?;
        if grid.nno().checked_mul(ndofs) != Some(surplus.len()) {
            return Err(format!(
                "surplus length {} does not match nno {} × ndofs {ndofs}",
                surplus.len(),
                grid.nno()
            ));
        }
        Ok(CompressedState::from_parts(grid, surplus, ndofs))
    }

    /// Ends the read: anything left behind the last field is damage.
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!(
                "corrupt record: {n} trailing bytes after the last section"
            )),
        }
    }
}

/// Writes `bytes` to `path` atomically **and durably**: temp file in the
/// same directory, fsync, rename, fsync the directory. The dot-prefixed
/// temp name can never be mistaken for the target, and a crash between
/// any two steps leaves the previous version of `path` intact. Without
/// the temp-file fsync, a crash shortly *after* the rename could surface
/// the new name over still-unwritten data (an empty or truncated file
/// despite the atomic contract); without the directory fsync, the rename
/// itself may not survive the crash. The temp name carries a process-wide
/// counter on top of the pid: the scenario cache writes record files
/// outside its locks, so two threads depositing the same surface
/// concurrently must not collide on the temp path.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_COUNTER: AtomicUsize = AtomicUsize::new(0);
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("{} names no file", path.display())))?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    // ORDERING: Relaxed — temp-name uniqueness needs only RMW atomicity;
    // no other memory is synchronized through the counter.
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        ".tmp-{}-{unique}-{}",
        std::process::id(),
        name.to_string_lossy()
    ));
    let write_synced = || -> io::Result<()> {
        use std::io::Write;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()
    };
    let context = |what: String, e: io::Error| {
        let _ = fs::remove_file(&tmp);
        io::Error::new(e.kind(), format!("{what}: {e}"))
    };
    write_synced().map_err(|e| context(format!("write {}", tmp.display()), e))?;
    fs::rename(&tmp, path)
        .map_err(|e| context(format!("rename {} -> {}", tmp.display(), path.display()), e))?;
    // Make the rename durable: fsync the directory so the new directory
    // entry reaches disk. Best effort — not every platform lets a
    // directory be opened and synced (the data itself is already safe).
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}
