//! Kernel-facing interpolant states: the dense baseline format and the
//! compressed format, each bundling index structure + surplus matrix.

use hddm_asg::{DenseIndexMatrix, SparseGrid};
use hddm_compress::CompressedGrid;

/// Interpolant in the *dense* format of the paper's earlier work [18]
/// (Heinecke–Pflüger-style `nno × d` index matrix). Consumed by the `gold`
/// kernel only; kept as the baseline every optimization is measured
/// against.
#[derive(Clone, Debug)]
pub struct DenseState {
    /// The `nno × d` pre-scaled `(ł, í)` matrix.
    pub matrix: DenseIndexMatrix,
    /// Row-major `nno × ndofs` surpluses in grid order.
    pub surplus: Vec<f64>,
    /// Degrees of freedom per point (118 in the OLG application).
    pub ndofs: usize,
}

impl DenseState {
    /// Bundles a grid and its (grid-ordered) surpluses.
    pub fn new(grid: &SparseGrid, surplus: Vec<f64>, ndofs: usize) -> Self {
        assert_eq!(surplus.len(), grid.len() * ndofs);
        DenseState {
            matrix: DenseIndexMatrix::from_grid(grid),
            surplus,
            ndofs,
        }
    }
}

/// Interpolant in the compressed format of Sec. IV-B. Surpluses are stored
/// in chain order (the "surplus matrix reordering").
#[derive(Clone, Debug)]
pub struct CompressedState {
    /// Chains + xps structure.
    pub grid: CompressedGrid,
    /// Row-major `nno × ndofs` surpluses in *chain* order.
    pub surplus: Vec<f64>,
    /// Degrees of freedom per point.
    pub ndofs: usize,
}

impl CompressedState {
    /// Compresses a grid and permutes grid-ordered surpluses into chain
    /// order.
    pub fn new(grid: &SparseGrid, surplus_grid_order: &[f64], ndofs: usize) -> Self {
        let cg = CompressedGrid::build(grid);
        let surplus = cg.reorder_rows(surplus_grid_order, ndofs);
        CompressedState {
            grid: cg,
            surplus,
            ndofs,
        }
    }

    /// Wraps an existing compressed grid with surpluses already in chain
    /// order (used when the driver extends an interpolant incrementally).
    pub fn from_parts(grid: CompressedGrid, surplus_chain_order: Vec<f64>, ndofs: usize) -> Self {
        assert_eq!(surplus_chain_order.len(), grid.nno() * ndofs);
        CompressedState {
            grid,
            surplus: surplus_chain_order,
            ndofs,
        }
    }

    /// An interpolant over no points at all — the seed of incremental
    /// construction ([`Self::append_rows`]). Evaluates to zero everywhere.
    pub fn empty(dim: usize, ndofs: usize) -> Self {
        CompressedState {
            grid: CompressedGrid::empty(dim),
            surplus: Vec::new(),
            ndofs,
        }
    }

    /// Appends the grid points `new_ids` (dense ids into `grid`) together
    /// with their surplus rows (`new_ids.len() × ndofs`, in `new_ids`
    /// order) to this interpolant **without recompressing**: chain rows
    /// are derived per point and appended, the `xps` dictionary grows
    /// only by genuinely new 1-D elements, and the reorder invariant is
    /// preserved — `order` maps every appended chain row back to its
    /// dense id, so [`CompressedGrid::restore_rows`] keeps working.
    ///
    /// Appending the same ids in one call or split across many calls
    /// produces **bitwise identical** states (the extend-equals-rebuild
    /// property the driver's incremental hierarchization relies on).
    pub fn append_rows(&mut self, grid: &SparseGrid, new_ids: &[u32], rows: &[f64]) {
        assert_eq!(
            rows.len(),
            new_ids.len() * self.ndofs,
            "ragged surplus rows"
        );
        self.grid.append_nodes(grid, new_ids);
        self.surplus.extend_from_slice(rows);
    }

    /// Whether the batch walk over `other` takes exactly the steps it
    /// takes over `self` — same dimension, `nfreq`, `xps` and `chains`,
    /// whatever the surpluses — so one walk can serve both.
    pub(crate) fn walks_like(&self, other: &CompressedState) -> bool {
        let (a, b) = (&self.grid, &other.grid);
        a.dim() == b.dim()
            && a.nfreq() == b.nfreq()
            && a.xps() == b.xps()
            && a.chains() == b.chains()
    }
}

/// Reusable per-thread evaluation scratch. Sized for the largest state it
/// has seen; the `xpv` array is the cache/shared-memory resident working
/// set the compression was designed around. The single-point kernel keeps
/// its compacted survivor list here, and the batch walk its entry-major
/// `xpv` block, chain-product lanes and surviving-chain list, and its
/// gradient buffers once a chunk has gradient lanes, sized once per block
/// — never reallocated per point.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Clamped 1-D basis values, one per `xps` entry.
    pub xpv: Vec<f64>,
    /// Entry-major basis-value block for batched evaluation
    /// (`nxps × chunk`).
    xpv_block: Vec<f64>,
    /// Per-point chain products (`chunk`), written only on the live lanes
    /// of the chain being walked — the lanes of its column-mask bound —
    /// and read only on its alive ones; every other lane holds
    /// whatever an earlier chain left there.
    temps: Vec<f64>,
    /// Per-xps-entry nonzero-lane masks (`nxps`), the chain pruning index.
    colmask: Vec<u64>,
    /// Chains the column-mask bound kept for the current chunk (`nno`).
    survivors: Vec<u32>,
    /// Hat slopes of a chunk with gradient lanes, entry-major like the
    /// basis block (`nxps × chunk`; empty until such a chunk).
    slopes: Vec<f64>,
    /// Per-factor partial products of one chain on a chunk with gradient
    /// lanes (`nfreq × chunk`; empty until such a chunk).
    partials: Vec<f64>,
    /// The single-point kernel's surviving chain rows, in chain order (one
    /// slot per chain of the range it walks).
    point_rows: Vec<u32>,
    /// The products of `point_rows`, slot for slot.
    point_temps: Vec<f64>,
    /// High-water marks of the batch buffers (`xpv_block`, `temps`,
    /// `survivors`, `slopes`, `partials`) and the single-point ones
    /// (`point_rows`, `point_temps`), asserting that capacity is monotone
    /// across the chunks of a batch and the calls of a point stream (a
    /// shrink would mean a reallocation snuck back into the hot loop).
    watermark: [usize; 7],
}

/// `buf[..len]`, grown first if it is shorter. `mark` is the buffer's
/// high-water mark: in debug builds a request at or below it must not
/// reallocate.
#[inline]
fn sized<'a, T: Copy + Default>(
    buf: &'a mut Vec<T>,
    len: usize,
    mark: &mut usize,
    name: &str,
) -> &'a mut [T] {
    let cap = buf.capacity();
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    debug_assert!(
        len > *mark || buf.capacity() == cap,
        "{name} reallocated below its high-water mark"
    );
    *mark = (*mark).max(len);
    &mut buf[..len]
}

impl Scratch {
    /// Ensures capacity for a state with `nxps` unique elements.
    #[inline]
    pub fn prepare(&mut self, nxps: usize) -> &mut [f64] {
        if self.xpv.len() < nxps {
            self.xpv.resize(nxps, 0.0);
        }
        &mut self.xpv[..nxps]
    }

    /// Ensures single-point capacity for `nxps` unique elements and a
    /// range of `chains` chain rows, and returns the `xpv` array and the
    /// survivor list with its products. A call sizes no batch buffer.
    #[inline]
    pub(crate) fn prepare_point(&mut self, nxps: usize, chains: usize) -> PointBuffers<'_> {
        let [.., rows, temps] = &mut self.watermark;
        if self.xpv.len() < nxps {
            self.xpv.resize(nxps, 0.0);
        }
        PointBuffers {
            xpv: &mut self.xpv[..nxps],
            rows: sized(&mut self.point_rows, chains, rows, "point survivor list"),
            temps: sized(&mut self.point_temps, chains, temps, "point temps"),
        }
    }

    /// Ensures batch capacity for `nxps` unique elements × a chunk of
    /// `chunk` points over `nno` chains of at most `nfreq` factors and
    /// returns the chunk's buffers; `slopes` and `partials` are empty
    /// unless the chunk has `gradient` lanes, so a value-only walk never
    /// touches them. Buffers only ever grow — sized by the first
    /// (largest) chunk of a batch, then reused; the debug assertion fires
    /// if a request at or below the high-water mark ever reallocates,
    /// i.e. if per-chunk reallocation sneaks back into the hot loop.
    #[inline]
    pub(crate) fn prepare_batch(
        &mut self,
        nxps: usize,
        chunk: usize,
        nno: usize,
        nfreq: usize,
        gradient: bool,
    ) -> BatchBuffers<'_> {
        let [xpv, temps, survivors, slopes, partials, ..] = &mut self.watermark;
        if self.colmask.len() < nxps {
            self.colmask.resize(nxps, 0);
        }
        let lanes = if gradient { chunk } else { 0 };
        BatchBuffers {
            xpvb: sized(&mut self.xpv_block, nxps * chunk, xpv, "xpv block"),
            temps: sized(&mut self.temps, chunk, temps, "temps"),
            colmask: &mut self.colmask[..nxps],
            survivors: sized(&mut self.survivors, nno, survivors, "survivor list"),
            slopes: sized(&mut self.slopes, nxps * lanes, slopes, "slope block"),
            partials: sized(&mut self.partials, nfreq * lanes, partials, "partials"),
        }
    }
}

/// One single-point call's buffers (see [`Scratch::prepare_point`]).
pub(crate) struct PointBuffers<'a> {
    pub(crate) xpv: &'a mut [f64],
    pub(crate) rows: &'a mut [u32],
    pub(crate) temps: &'a mut [f64],
}

/// One chunk's buffers of the batch walk (see [`Scratch::prepare_batch`]).
pub(crate) struct BatchBuffers<'a> {
    pub(crate) xpvb: &'a mut [f64],
    pub(crate) temps: &'a mut [f64],
    pub(crate) colmask: &'a mut [u64],
    pub(crate) survivors: &'a mut [u32],
    pub(crate) slopes: &'a mut [f64],
    pub(crate) partials: &'a mut [f64],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{interpolate_batch, interpolate_states_batch, Gradients, PointBlock};
    use crate::KernelKind;
    use hddm_asg::regular_grid;

    /// A value-only walk never sizes the gradient buffers, so it touches
    /// no more memory than the value rows need; a gradient point sizes
    /// them.
    #[test]
    fn a_value_walk_leaves_the_gradient_buffers_empty() {
        let grid = regular_grid(3, 4);
        let state = CompressedState::new(&grid, &vec![0.5; grid.len() * 2], 2);
        let rows: Vec<f64> = (0..70 * 3).map(|k| (k as f64 * 0.137) % 1.0).collect();
        let block = PointBlock::from_rows(3, &rows);
        let mut scratch = Scratch::default();
        for kind in KernelKind::COMPRESSED {
            interpolate_batch(kind, &state, &block, &mut scratch, &mut vec![0.0; 70 * 2]);
            assert_eq!((scratch.slopes.len(), scratch.partials.len()), (0, 0));
        }
        interpolate_states_batch(
            KernelKind::X86,
            std::slice::from_ref(&state),
            &block,
            &mut scratch,
            &mut vec![0.0; 70 * 2],
            Gradients {
                points: 1,
                coeffs: 0..2,
                out: &mut [0.0; 3 * 2],
            },
        );
        assert!(!scratch.slopes.is_empty() && !scratch.partials.is_empty());
    }

    /// A stream of single-point calls on one scratch sizes its survivor
    /// list once and never reallocates it, and sizes no batch buffer.
    #[test]
    fn single_point_calls_reuse_their_buffers_and_size_no_batch_block() {
        let grid = regular_grid(3, 4);
        let state = CompressedState::new(&grid, &vec![0.5; grid.len() * 2], 2);
        let mut scratch = Scratch::default();
        let mut out = [0.0; 2];
        let mut first = None;
        for call in 0..100 {
            let x = [
                (call as f64 * 0.137) % 1.0,
                0.3,
                (call as f64 * 0.071) % 1.0,
            ];
            let kind = KernelKind::COMPRESSED[call % 4];
            kind.evaluate_compressed(&state, &x, &mut scratch, &mut out);
            let buffers = (
                scratch.xpv.as_ptr(),
                scratch.point_rows.as_ptr(),
                scratch.point_rows.capacity(),
                scratch.point_temps.as_ptr(),
                scratch.point_temps.capacity(),
            );
            assert_eq!(*first.get_or_insert(buffers), buffers, "call {call}");
        }
        assert_eq!(scratch.point_rows.len(), grid.len());
        assert!(scratch.xpv_block.is_empty() && scratch.temps.is_empty());
        assert!(scratch.colmask.is_empty() && scratch.survivors.is_empty());
    }
}
