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
}

/// Reusable per-thread evaluation scratch. Sized for the largest state it
/// has seen; the `xpv` array is the cache/shared-memory resident working
/// set the compression was designed around. The batch kernels keep their
/// entry-major `xpv` block, chain-product vector and surviving-chain list
/// here too, sized once per block — never reallocated per point.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Clamped 1-D basis values, one per `xps` entry.
    pub xpv: Vec<f64>,
    /// Entry-major basis-value block for batched evaluation
    /// (`nxps × chunk`).
    xpv_block: Vec<f64>,
    /// Per-point running chain products (`chunk`).
    temps: Vec<f64>,
    /// Per-xps-entry nonzero-lane masks (`nxps`), the chain pruning index.
    colmask: Vec<u64>,
    /// Chains the column-mask bound kept for the current chunk (`nno`).
    survivors: Vec<u32>,
    /// The gradient walk's hat slopes, entry-major like the basis block
    /// (`nxps × chunk`).
    slopes: Vec<f64>,
    /// The gradient walk's per-factor partial products of one chain
    /// (`nfreq × chunk`).
    partials: Vec<f64>,
    /// High-water marks of the batch buffers (`xpv_block`, `temps`,
    /// `survivors`, `slopes`, `partials`), asserting that capacity is
    /// monotone across the chunks of a batch (a shrink would mean a
    /// reallocation snuck back into the hot loop).
    watermark: [usize; 5],
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

    /// Ensures batch capacity for `nxps` unique elements × a chunk of
    /// `chunk` points over `nno` chains, returning the `(xpv_block,
    /// temps, colmask, survivors)` buffers. Buffers only ever grow —
    /// sized by the first (largest) chunk of a batch, then reused; the
    /// debug assertion fires if a request at or below the high-water
    /// mark ever reallocates, i.e. if per-chunk reallocation sneaks back
    /// into the hot loop.
    #[inline]
    pub fn prepare_batch(
        &mut self,
        nxps: usize,
        chunk: usize,
        nno: usize,
    ) -> (&mut [f64], &mut [f64], &mut [u64], &mut [u32]) {
        let [xpv, temps, survivors, ..] = &mut self.watermark;
        if self.colmask.len() < nxps {
            self.colmask.resize(nxps, 0);
        }
        (
            sized(&mut self.xpv_block, nxps * chunk, xpv, "xpv block"),
            sized(&mut self.temps, chunk, temps, "temps"),
            &mut self.colmask[..nxps],
            sized(&mut self.survivors, nno, survivors, "survivor list"),
        )
    }

    /// [`Self::prepare_batch`] plus the gradient walk's `(slopes,
    /// partials)` buffers for chains of at most `nfreq` factors, under the
    /// same high-water assertion.
    #[inline]
    pub(crate) fn prepare_gradient_batch(
        &mut self,
        nxps: usize,
        chunk: usize,
        nno: usize,
        nfreq: usize,
    ) -> GradientBuffers<'_> {
        let [xpv, temps, survivors, slopes, partials] = &mut self.watermark;
        if self.colmask.len() < nxps {
            self.colmask.resize(nxps, 0);
        }
        GradientBuffers {
            xpvb: sized(&mut self.xpv_block, nxps * chunk, xpv, "xpv block"),
            temps: sized(&mut self.temps, chunk, temps, "temps"),
            colmask: &mut self.colmask[..nxps],
            survivors: sized(&mut self.survivors, nno, survivors, "survivor list"),
            slopes: sized(&mut self.slopes, nxps * chunk, slopes, "slope block"),
            partials: sized(&mut self.partials, nfreq * chunk, partials, "partials"),
        }
    }
}

/// One chunk's buffers of the gradient walk (see
/// [`Scratch::prepare_gradient_batch`]).
pub(crate) struct GradientBuffers<'a> {
    pub(crate) xpvb: &'a mut [f64],
    pub(crate) temps: &'a mut [f64],
    pub(crate) colmask: &'a mut [u64],
    pub(crate) survivors: &'a mut [u32],
    pub(crate) slopes: &'a mut [f64],
    pub(crate) partials: &'a mut [f64],
}
