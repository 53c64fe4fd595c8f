//! The kernel-facing compressed grid: `xps` + `chains` + point reordering,
//! assembled by the [`crate::pipeline`] stages. The kernels that walk it
//! (Fig. 5) live in `hddm-kernels`.

use hddm_asg::{basis, SparseGrid};

use crate::pipeline::{
    build_chains, decompose, renumber, transition, unique_elements, XiSparse, XpsEntry,
};

/// Name of the process-global registry counter incremented by every
/// [`CompressedGrid::build`] (see [`builds_total`]).
pub const BUILDS_COUNTER: &str = "hddm_compress_builds_total";

/// The [`BUILDS_COUNTER`] instrument, resolved once.
fn builds_counter() -> &'static std::sync::Arc<hddm_telemetry::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<hddm_telemetry::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| hddm_telemetry::Registry::global().counter(BUILDS_COUNTER))
}

/// Process-wide number of full compression-pipeline runs
/// ([`CompressedGrid::build`]), read from the [`BUILDS_COUNTER`]
/// instrument on [`hddm_telemetry::Registry::global`].
pub fn builds_total() -> u64 {
    builds_counter().get()
}

/// Compression statistics reported alongside Table I.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompressionStats {
    /// Fraction of `(0,0)` pairs in the conceptual dense `Ξ` matrix.
    pub zero_fraction: f64,
    /// Bytes of the compressed structure (`xps` + `chains`).
    pub compressed_bytes: usize,
    /// Bytes of the dense `nno × d` pair matrix it replaces.
    pub dense_bytes: usize,
}

/// A sparse grid compressed per Sec. IV-B, ready for the optimized
/// interpolation kernels.
///
/// Invariants:
/// * `xps[0]` is the neutral sentinel `(j,ł,í) = (0,0,0)` with basis value 1;
/// * `chains` has `nno × nfreq` entries; row `p` lists the `xps` ids of
///   point `p`'s non-trivial 1-D factors, 0-terminated;
/// * `order[p]` maps the chain row `p` back to the dense id in the original
///   [`SparseGrid`] — surplus matrices must be permuted with
///   [`CompressedGrid::reorder_rows`] before kernels touch them.
#[derive(Clone, Debug)]
pub struct CompressedGrid {
    dim: usize,
    nno: usize,
    nfreq: usize,
    xps: Vec<XpsEntry>,
    chains: Vec<u32>,
    order: Vec<u32>,
    stats: CompressionStats,
}

impl CompressedGrid {
    /// Runs the full compression pipeline on a grid.
    pub fn build(grid: &SparseGrid) -> Self {
        builds_counter().inc();
        let xi = XiSparse::from_grid(grid);
        let zero_fraction = xi.zero_fraction();
        let nfreq = xi.nfreq().max(1);
        let mats = decompose(&xi);
        let renumberings: Vec<_> = mats.iter().map(|m| renumber(m, grid.len())).collect();
        let transitions: Vec<Vec<u32>> = renumberings
            .windows(2)
            .map(|w| transition(&w[0], &w[1]))
            .collect();
        let unique = unique_elements(&mats);
        let (mut chains, mut order) = if mats.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            build_chains(&renumberings, &transitions, &unique, nfreq)
        };
        // Points with no non-zero factors (the root node) carry all-zero
        // chains and are appended after the chained points.
        for (p, row) in xi.rows.iter().enumerate() {
            if row.is_empty() {
                order.push(p as u32);
                chains.extend(std::iter::repeat_n(0, nfreq));
            }
        }
        debug_assert_eq!(order.len(), grid.len());
        debug_assert_eq!(chains.len(), grid.len() * nfreq);

        let xps = unique.xps;
        let compressed_bytes = xps.len() * std::mem::size_of::<XpsEntry>() + chains.len() * 4;
        let dense_bytes = grid.len() * grid.dim() * 2 * std::mem::size_of::<u16>();
        CompressedGrid {
            dim: grid.dim(),
            nno: grid.len(),
            nfreq,
            xps,
            chains,
            order,
            stats: CompressionStats {
                zero_fraction,
                compressed_bytes,
                dense_bytes,
            },
        }
    }

    /// Reassembles a compressed grid from its raw arrays — the one
    /// structural check between stored bytes (policy records, checkpoints)
    /// and the kernels. Every invariant the chain walk indexes by is
    /// verified and a violation is an `Err` naming it, never a panic: the
    /// arrays may come from a damaged file. Nothing larger than the input
    /// is allocated. `stats` are recomputed from the arrays.
    pub fn try_from_raw_parts(
        dim: usize,
        nfreq: usize,
        xps: Vec<XpsEntry>,
        chains: Vec<u32>,
        order: Vec<u32>,
    ) -> Result<Self, String> {
        if dim < 1 {
            return Err("dimension must be positive".into());
        }
        if nfreq < 1 {
            return Err("nfreq must be positive".into());
        }
        if xps.first() != Some(&XpsEntry::SENTINEL) {
            return Err(format!(
                "xps[0] must be the sentinel, got {:?}",
                xps.first()
            ));
        }
        if !chains.len().is_multiple_of(nfreq) {
            return Err(format!(
                "chains length {} not a multiple of nfreq {nfreq}",
                chains.len()
            ));
        }
        let nno = chains.len() / nfreq;
        if order.len() != nno {
            return Err(format!(
                "order length {} does not match nno {nno}",
                order.len()
            ));
        }
        let mut seen = vec![false; nno];
        for &o in &order {
            if (o as usize) >= nno || std::mem::replace(&mut seen[o as usize], true) {
                return Err("order is not a permutation".into());
            }
        }
        let mut nonzero = 0usize;
        for &c in &chains {
            if (c as usize) >= xps.len() {
                return Err(format!("chain entry {c} out of xps range"));
            }
            if c != 0 {
                nonzero += 1;
            }
        }
        for e in &xps[1..] {
            if (e.index as usize) >= dim || e.l < 2 {
                return Err(format!("invalid xps entry {e:?}"));
            }
        }
        // `dim` is whatever the file claimed: saturate rather than wrap.
        let cells = nno.saturating_mul(dim);
        let zero_fraction = 1.0 - nonzero as f64 / cells.max(1) as f64;
        let compressed_bytes = xps.len() * std::mem::size_of::<XpsEntry>() + chains.len() * 4;
        let dense_bytes = cells.saturating_mul(2 * std::mem::size_of::<u16>());
        Ok(CompressedGrid {
            dim,
            nno,
            nfreq,
            xps,
            chains,
            order,
            stats: CompressionStats {
                zero_fraction,
                compressed_bytes,
                dense_bytes,
            },
        })
    }

    /// A compressed grid over no points at all — the seed of incremental
    /// construction via [`Self::append_nodes`].
    pub fn empty(dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be positive");
        CompressedGrid {
            dim,
            nno: 0,
            nfreq: 1,
            xps: vec![XpsEntry::SENTINEL],
            chains: Vec::new(),
            order: Vec::new(),
            stats: CompressionStats {
                zero_fraction: 1.0,
                compressed_bytes: std::mem::size_of::<XpsEntry>(),
                dense_bytes: 0,
            },
        }
    }

    /// Appends grid points to the compressed structure **without
    /// re-running the pipeline**: a chain row is a point's non-trivial
    /// 1-D factors as `xps` ids in ascending dimension order, so new
    /// points only need their elements interned into the (tiny) `xps`
    /// dictionary and one row appended to `chains`/`order`. The chain
    /// stride widens in place when a new point has more non-zeros than
    /// any before it (old rows keep their 0 terminators).
    ///
    /// Every kernel invariant of [`Self::try_from_raw_parts`] is preserved,
    /// and the result is independent of how a sequence of appends is
    /// batched — appending ids `A` then `B` is bitwise identical to
    /// appending `A ∪ B` at once. The *row order* is append order, not
    /// the pipeline's frequency-sorted order, so an appended grid is a
    /// valid (equally exact) interpolant with a different — still
    /// streaming — surplus layout.
    pub fn append_nodes(&mut self, grid: &SparseGrid, new_ids: &[u32]) {
        assert_eq!(grid.dim(), self.dim, "grid dim mismatch");
        use std::collections::HashMap;
        let mut seen: HashMap<XpsEntry, u32> = self
            .xps
            .iter()
            .enumerate()
            .map(|(id, &e)| (e, id as u32))
            .collect();

        for &p in new_ids {
            let node = grid.node(p as usize);
            let row_len = node.active_count();
            if row_len > self.nfreq {
                // Widen the stride: old rows are re-laid with trailing
                // zeros (the chain terminator), identical to what a
                // one-shot append with the wider stride would hold.
                let mut widened = vec![0u32; self.nno * row_len];
                for (r, chain) in self.chains.chunks_exact(self.nfreq).enumerate() {
                    widened[r * row_len..r * row_len + self.nfreq].copy_from_slice(chain);
                }
                self.chains = widened;
                self.nfreq = row_len;
            }
            let start = self.chains.len();
            self.chains.extend(std::iter::repeat_n(0, self.nfreq));
            for (k, c) in node.active().enumerate() {
                let (l, i) = basis::scaled_pair(c.level, c.index);
                debug_assert!(l >= 2, "active coord must be level >= 2");
                let entry = XpsEntry {
                    index: c.dim as u32,
                    l,
                    i,
                };
                let id = *seen.entry(entry).or_insert_with(|| {
                    self.xps.push(entry);
                    (self.xps.len() - 1) as u32
                });
                self.chains[start + k] = id;
            }
            self.order.push(p);
            self.nno += 1;
        }

        let nonzero = self.chains.iter().filter(|&&c| c != 0).count();
        self.stats = CompressionStats {
            zero_fraction: 1.0 - nonzero as f64 / (self.nno * self.dim).max(1) as f64,
            compressed_bytes: self.xps.len() * std::mem::size_of::<XpsEntry>()
                + self.chains.len() * 4,
            dense_bytes: self.nno * self.dim * 2 * std::mem::size_of::<u16>(),
        };
        debug_assert!(self.order.iter().all(|&o| (o as usize) < grid.len()));
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of grid points `nno`.
    #[inline]
    pub fn nno(&self) -> usize {
        self.nno
    }

    /// Number of frequencies (chain stride).
    #[inline]
    pub fn nfreq(&self) -> usize {
        self.nfreq
    }

    /// The unique-element array (`xps[0]` is the sentinel). Its length is
    /// the "# xps/state" column of Table I.
    #[inline]
    pub fn xps(&self) -> &[XpsEntry] {
        &self.xps
    }

    /// The chains matrix, row-major `nno × nfreq`.
    #[inline]
    pub fn chains(&self) -> &[u32] {
        &self.chains
    }

    /// Chain-position → original dense grid id.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Compression statistics.
    #[inline]
    pub fn stats(&self) -> CompressionStats {
        self.stats
    }

    /// Permutes a row-major `nno × ndofs` matrix from grid order into chain
    /// order (the paper's "surplus matrix reordering").
    pub fn reorder_rows(&self, src: &[f64], ndofs: usize) -> Vec<f64> {
        assert_eq!(src.len(), self.nno * ndofs);
        let mut dst = vec![0.0; src.len()];
        for (new_pos, &orig) in self.order.iter().enumerate() {
            let from = orig as usize * ndofs;
            dst[new_pos * ndofs..(new_pos + 1) * ndofs].copy_from_slice(&src[from..from + ndofs]);
        }
        dst
    }

    /// Inverse of [`reorder_rows`](Self::reorder_rows).
    pub fn restore_rows(&self, src: &[f64], ndofs: usize) -> Vec<f64> {
        assert_eq!(src.len(), self.nno * ndofs);
        let mut dst = vec![0.0; src.len()];
        for (new_pos, &orig) in self.order.iter().enumerate() {
            let to = orig as usize * ndofs;
            dst[to..to + ndofs].copy_from_slice(&src[new_pos * ndofs..(new_pos + 1) * ndofs]);
        }
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{regular_grid, NodeKey, SparseGrid};

    /// `try_from_raw_parts` with one array of `cg` replaced.
    fn rebuild_with(
        cg: &CompressedGrid,
        dim: usize,
        nfreq: usize,
        edit: impl FnOnce(&mut Vec<XpsEntry>, &mut Vec<u32>, &mut Vec<u32>),
    ) -> Result<CompressedGrid, String> {
        let (mut xps, mut chains, mut order) =
            (cg.xps().to_vec(), cg.chains().to_vec(), cg.order().to_vec());
        edit(&mut xps, &mut chains, &mut order);
        CompressedGrid::try_from_raw_parts(dim, nfreq, xps, chains, order)
    }

    #[test]
    fn raw_parts_reject_bad_order() {
        let cg = CompressedGrid::build(&regular_grid(3, 3));
        let err = rebuild_with(&cg, cg.dim(), cg.nfreq(), |_, _, order| order[0] = order[1]);
        assert_eq!(err.unwrap_err(), "order is not a permutation");
    }

    #[test]
    fn raw_parts_reject_dangling_chain() {
        let cg = CompressedGrid::build(&regular_grid(3, 3));
        let dangling = cg.xps().len() as u32 + 7;
        let err = rebuild_with(&cg, cg.dim(), cg.nfreq(), |_, chains, _| {
            chains[0] = dangling
        });
        assert!(err.unwrap_err().contains("out of xps range"));
    }

    /// The structural check every stored policy passes on its way back to
    /// a kernel: each corruption is an `Err` naming the broken invariant.
    #[test]
    fn raw_parts_validate_catches_structural_corruption() {
        let cg = CompressedGrid::build(&regular_grid(3, 3));
        let (dim, nfreq) = (cg.dim(), cg.nfreq());
        assert!(rebuild_with(&cg, dim, nfreq, |_, _, _| {}).is_ok());

        let err = |r: Result<CompressedGrid, String>| r.unwrap_err();
        // Truncated payload: a chain row cut short.
        let e = err(rebuild_with(&cg, dim, nfreq, |_, chains, _| {
            chains.pop();
        }));
        assert!(e.contains("multiple of nfreq"), "{e}");
        let e = err(rebuild_with(&cg, dim, nfreq, |xps, _, _| {
            xps[0] = XpsEntry {
                index: 1,
                l: 2,
                i: 3,
            }
        }));
        assert!(e.contains("sentinel"), "{e}");
        let e = err(rebuild_with(&cg, dim, nfreq, |_, _, order| {
            order[0] = u32::MAX
        }));
        assert!(e.contains("permutation"), "{e}");
        let e = err(rebuild_with(&cg, dim, nfreq, |_, chains, _| {
            chains[0] = u32::MAX
        }));
        assert!(e.contains("xps range"), "{e}");
        // The arrays themselves are fine but the claimed shape is not.
        let e = err(rebuild_with(&cg, dim - 1, nfreq, |_, _, _| {}));
        assert!(e.contains("invalid xps entry"), "{e}");
        assert!(rebuild_with(&cg, dim, 0, |_, _, _| {}).is_err());
    }

    #[test]
    fn reorder_roundtrip() {
        let grid = regular_grid(3, 3);
        let cg = CompressedGrid::build(&grid);
        let src: Vec<f64> = (0..grid.len() * 2).map(|v| v as f64).collect();
        let there = cg.reorder_rows(&src, 2);
        let back = cg.restore_rows(&there, 2);
        assert_eq!(src, back);
    }

    #[test]
    fn order_is_permutation() {
        let grid = regular_grid(5, 3);
        let cg = CompressedGrid::build(&grid);
        let mut seen = vec![false; grid.len()];
        for &orig in cg.order() {
            assert!(!seen[orig as usize], "duplicate {orig}");
            seen[orig as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chains_complexity_is_nno_times_nfreq() {
        // The headline claim of Sec. IV-B: iteration count drops from
        // nno × d to nno × nfreq.
        let grid = regular_grid(59, 3);
        let cg = CompressedGrid::build(&grid);
        assert_eq!(cg.nfreq(), 2);
        assert_eq!(cg.chains().len(), grid.len() * 2);
        // vs. dense: grid.len() * 59 iterations.
        assert!(cg.chains().len() * 29 < grid.len() * 59);
    }

    #[test]
    fn compression_shrinks_memory() {
        let grid = regular_grid(59, 3);
        let cg = CompressedGrid::build(&grid);
        let stats = cg.stats();
        assert!(
            stats.compressed_bytes * 5 < stats.dense_bytes,
            "compressed {} vs dense {}",
            stats.compressed_bytes,
            stats.dense_bytes
        );
        assert!(stats.zero_fraction > 0.96);
    }

    #[test]
    fn append_nodes_batching_is_invisible() {
        // Appending in many small batches must be bitwise identical to
        // one big append — the extend-equals-rebuild contract.
        let grid = regular_grid(4, 4);
        let all: Vec<u32> = (0..grid.len() as u32).collect();
        let mut oneshot = CompressedGrid::empty(4);
        oneshot.append_nodes(&grid, &all);
        let mut batched = CompressedGrid::empty(4);
        let mut at = 0usize;
        let mut step = 1usize;
        while at < all.len() {
            let end = (at + step).min(all.len());
            batched.append_nodes(&grid, &all[at..end]);
            at = end;
            step = step * 2 + 1;
        }
        assert_eq!(oneshot.nno(), batched.nno());
        assert_eq!(oneshot.nfreq(), batched.nfreq());
        assert_eq!(oneshot.xps(), batched.xps());
        assert_eq!(oneshot.chains(), batched.chains());
        assert_eq!(oneshot.order(), batched.order());
    }

    #[test]
    fn append_widens_the_chain_stride_in_place() {
        use hddm_asg::ActiveCoord;
        let mut grid = SparseGrid::new(3);
        grid.insert(NodeKey::root());
        let first = grid.len() as u32;
        let mut cg = CompressedGrid::empty(3);
        cg.append_nodes(&grid, &(0..first).collect::<Vec<_>>());
        assert_eq!(cg.nfreq(), 1);
        // A node with three active dims forces nfreq 1 → 3.
        grid.insert_closed(NodeKey::from_coords([
            ActiveCoord {
                dim: 0,
                level: 2,
                index: 0,
            },
            ActiveCoord {
                dim: 1,
                level: 2,
                index: 2,
            },
            ActiveCoord {
                dim: 2,
                level: 2,
                index: 0,
            },
        ]));
        let rest: Vec<u32> = (first..grid.len() as u32).collect();
        cg.append_nodes(&grid, &rest);
        assert_eq!(cg.nfreq(), 3);
        assert_eq!(cg.nno(), grid.len());
        assert_eq!(cg.chains().len(), grid.len() * 3);
        // Widened old rows terminate with zeros.
        assert_eq!(&cg.chains()[..3], &[0, 0, 0]);
    }

    #[test]
    fn xpv_fits_gpu_shared_memory_for_300k_grid() {
        // Sec. IV-B: xps of the 300k grid (473 doubles) "easily fits the
        // cache as well as the GPU shared memory (48 KB)".
        let grid = regular_grid(59, 4);
        let cg = CompressedGrid::build(&grid);
        assert_eq!(cg.xps().len(), 473);
        assert!(cg.xps().len() * 8 < 48 * 1024);
    }
}
