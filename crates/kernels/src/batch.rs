//! Batched multi-point interpolation — the block restructuring of the
//! compressed kernels for wide vector units (Sec. V-A's "evaluate many
//! points per kernel launch" transformation, applied to the CPU kernels).
//!
//! The single-point kernels walk the whole `chains` matrix — and stream
//! the whole surplus matrix — once **per query point**. For the hot
//! consumers (hierarchization of a refinement frontier, warm-start
//! projection, a frontier's warm starts) the queries arrive in blocks of
//! dozens to thousands of points, so the batched kernels restructure the
//! loops the way the paper restructures them for Xeon Phi and GPUs:
//!
//! * queries live in an SoA [`PointBlock`] (`coords[d][pt]`), so the
//!   per-`xps`-entry gather `x[j]` becomes a contiguous stream over the
//!   point axis;
//! * the `xpv` fill produces an `nxps × npts` block (entry-major), one
//!   basis evaluation per `(entry, point)` — the same arithmetic as the
//!   single-point fill, vectorized across points;
//! * each compressed chain is walked **once per block**: the chain's xpv
//!   factor column multiplies into an `npts`-wide running product, so the
//!   chain loads and loop control amortize over the block;
//! * each surplus row is loaded **once per block** and accumulated into
//!   every surviving point's output row while it is cache-resident — the
//!   `nno × ndofs` stream that dominates single-point evaluation shrinks
//!   by the block width.
//!
//! Blocks are processed in chunks of [`BATCH_CHUNK`] points so the
//! working set (`xpv` block + output rows) stays cache-sized; results are
//! independent per point, so chunking never changes values. Every variant
//! is **bitwise identical** to its single-point counterpart (same basis
//! expression, same chain-walk order, same axpy routine, same
//! accumulation order per point) — the golden tests assert `==`, not a
//! tolerance.

use crate::data::{CompressedState, Scratch};
use crate::vector::VectorIsa;
use crate::KernelKind;
use hddm_asg::linear_basis;

/// Points per internal processing chunk. 64 keeps the entry-major xpv
/// block (`nxps × 64` doubles) and the active output rows inside L2 for
/// the paper's grids (473 xps ⇒ ~242 KB) while amortizing every chain
/// walk and surplus-row load across 64 points.
pub const BATCH_CHUNK: usize = 64;

// The alive-lane mask of a chunk is a single u64 (bit k ⇔ point k's chain
// product is non-zero); the chunk width must not outgrow it.
const _: () = assert!(BATCH_CHUNK <= 64);

/// What the walk did on one [`BATCH_CHUNK`]-point chunk — the integers a
/// device cost model prices (one chunk is one launch, and a roofline
/// `max(flops/peak, bytes/bw)` is taken per launch, so the counts are
/// per chunk). They depend only on the grid and the points: the masks
/// are data-determined, so every accumulator reports the same records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkCounts {
    /// Points in the chunk (`≤ BATCH_CHUNK`; only the last can be short).
    pub chunk: usize,
    /// Factor columns streamed by chains the column-mask bound kept (an
    /// all-sentinel chain counts one).
    pub factor_cols: usize,
    /// Surplus rows accumulated: chains with at least one alive lane.
    pub rows_touched: usize,
    /// Alive `(chain, point)` pairs, i.e. row accumulations performed.
    pub alive_pairs: usize,
}

/// A block of query points in structure-of-arrays layout: coordinate `d`
/// of point `p` lives at `column(d)[p]`. This is the layout the batched
/// kernels consume — the per-dimension gather of the xpv fill reads a
/// contiguous run instead of striding through point-major rows.
#[derive(Clone, Debug, Default)]
pub struct PointBlock {
    dim: usize,
    npts: usize,
    /// `dim` columns of `npts` coordinates each: `coords[d * npts + p]`.
    coords: Vec<f64>,
}

impl PointBlock {
    /// An empty block of `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        PointBlock {
            dim,
            npts: 0,
            coords: Vec::new(),
        }
    }

    /// An empty block with room for `capacity` points per dimension.
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        PointBlock {
            dim,
            npts: 0,
            coords: Vec::with_capacity(dim * capacity),
        }
    }

    /// Builds a block from point-major rows (`npts × dim`, the layout the
    /// rest of the code base passes around) by transposing into SoA.
    pub fn from_rows(dim: usize, rows: &[f64]) -> Self {
        let mut block = PointBlock::new(dim);
        block.set_rows(rows);
        block
    }

    /// Replaces the block's points with the point-major `rows`
    /// (`npts × dim`), keeping the allocation: callers that evaluate block
    /// after block (the policy oracle inside the point solver) refill one
    /// `PointBlock` instead of building a new one per call.
    pub fn set_rows(&mut self, rows: &[f64]) {
        let dim = self.dim;
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(rows.len() % dim, 0, "ragged point rows");
        let npts = rows.len() / dim;
        self.npts = npts;
        self.coords.clear();
        self.coords.resize(rows.len(), 0.0);
        for p in 0..npts {
            for d in 0..dim {
                self.coords[d * npts + p] = rows[p * dim + d];
            }
        }
    }

    /// Appends one point (given as a `dim`-length row). Re-strides every
    /// column, so building a block point-by-point is quadratic — hot
    /// paths should gather rows and transpose once with
    /// [`PointBlock::from_rows`]; `push` is for small or incremental
    /// blocks.
    pub fn push(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.dim);
        let old = self.npts;
        self.npts += 1;
        // Grow each column in place, back to front, so the existing
        // columns shift into their new strided positions.
        self.coords.resize(self.dim * self.npts, 0.0);
        for d in (0..self.dim).rev() {
            for p in (0..old).rev() {
                self.coords[d * self.npts + p] = self.coords[d * old + p];
            }
        }
        for d in 0..self.dim {
            self.coords[d * self.npts + old] = x[d];
        }
    }

    /// Removes all points, keeping the allocation.
    pub fn clear(&mut self) {
        self.npts = 0;
        self.coords.clear();
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.npts
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.npts == 0
    }

    /// Dimensionality of the points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The contiguous coordinate column of dimension `d`.
    #[inline]
    pub fn column(&self, d: usize) -> &[f64] {
        &self.coords[d * self.npts..(d + 1) * self.npts]
    }

    /// Copies point `p` into the point-major row `out`.
    pub fn point(&self, p: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim);
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.coords[d * self.npts + p];
        }
    }
}

/// A per-chain chunk accumulator: for every set bit `k` of `mask` (the
/// chunk's alive lanes, bit `k` ⇔ `temps[k] != 0`), performs
/// `out[k·stride ..][..row.len()] += temps[k] · row`, ascending `k`.
/// Hoisting the whole point loop behind one (possibly `target_feature`)
/// function call amortizes the call and loop-setup overhead that a
/// per-point axpy pays `npts` times per chain, and the bitmask walk
/// visits exactly the alive lanes — no branchy scan over the (mostly
/// dead) chunk. `stride` is the full `ndofs` row pitch.
type RowAccum = fn(&[f64], u64, &[f64], &mut [f64], usize);

/// Scalar accumulator with the exact inner loop shape of the
/// single-point `x86` kernel, so the scalar batch variant stays bitwise
/// equal to it.
fn accum_scalar(temps: &[f64], mut mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let temp = temps[k];
        let slot = &mut out[k * stride..k * stride + row.len()];
        for (o, s) in slot.iter_mut().zip(row) {
            *o += temp * s;
        }
    }
}

/// Portable lane accumulator matching `lanes::axpy::<N>` per point.
fn accum_lanes<const N: usize>(
    temps: &[f64],
    mut mask: u64,
    row: &[f64],
    out: &mut [f64],
    stride: usize,
) {
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        crate::lanes::axpy::<N>(temps[k], row, &mut out[k * stride..k * stride + row.len()]);
    }
}

// SAFETY: caller must ensure the host supports AVX and that for every
// set bit `k` of `mask`, `temps[k]` exists and
// `out[k * stride .. k * stride + row.len()]` is in bounds — both are
// established by the caller's slice indexing (`temps[k]` and the `out`
// range expression panic before any raw pointer is formed if violated).
// Inner loops are bounded by `j + 4 <= n` / `j < n` with `n = row.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn accum_avx(temps: &[f64], mut mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    use std::arch::x86_64::*;
    let n = row.len();
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let temp = temps[k];
        let va = _mm256_set1_pd(temp);
        let y = out[k * stride..k * stride + n].as_mut_ptr();
        let mut j = 0usize;
        while j + 4 <= n {
            let vx = _mm256_loadu_pd(row.as_ptr().add(j));
            let vy = _mm256_loadu_pd(y.add(j));
            _mm256_storeu_pd(y.add(j), _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
            j += 4;
        }
        while j < n {
            *y.add(j) += temp * row.get_unchecked(j);
            j += 1;
        }
    }
}

// SAFETY: caller must ensure the host supports AVX2+FMA; same per-bit
// bounds contract and in-bounds argument as [`accum_avx`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn accum_avx2(temps: &[f64], mut mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    use std::arch::x86_64::*;
    let n = row.len();
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let temp = temps[k];
        let va = _mm256_set1_pd(temp);
        let y = out[k * stride..k * stride + n].as_mut_ptr();
        let mut j = 0usize;
        while j + 4 <= n {
            let vx = _mm256_loadu_pd(row.as_ptr().add(j));
            let vy = _mm256_loadu_pd(y.add(j));
            _mm256_storeu_pd(y.add(j), _mm256_fmadd_pd(va, vx, vy));
            j += 4;
        }
        while j < n {
            *y.add(j) += temp * row.get_unchecked(j);
            j += 1;
        }
    }
}

// SAFETY: caller must ensure the host supports AVX-512F; same per-bit
// bounds contract as [`accum_avx`]. The ragged tail uses masked
// loads/stores enabling exactly the `n - j < 8` in-bounds lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accum_avx512(temps: &[f64], mut mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    use std::arch::x86_64::*;
    let n = row.len();
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let temp = temps[k];
        let va = _mm512_set1_pd(temp);
        let y = out[k * stride..k * stride + n].as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let vx = _mm512_loadu_pd(row.as_ptr().add(j));
            let vy = _mm512_loadu_pd(y.add(j));
            _mm512_storeu_pd(y.add(j), _mm512_fmadd_pd(va, vx, vy));
            j += 8;
        }
        if j < n {
            let mask = (1u8 << (n - j)) - 1;
            let vx = _mm512_maskz_loadu_pd(mask, row.as_ptr().add(j));
            let vy = _mm512_maskz_loadu_pd(mask, y.add(j));
            _mm512_mask_storeu_pd(y.add(j), mask, _mm512_fmadd_pd(va, vx, vy));
        }
    }
}

/// Safe wrapper around [`accum_avx`]; callable only after detection.
fn accum_avx_safe(temps: &[f64], mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    debug_assert!(VectorIsa::Avx.native());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: selected only when the `avx` feature was detected.
    unsafe {
        accum_avx(temps, mask, row, out, stride)
    }
    #[cfg(not(target_arch = "x86_64"))]
    accum_lanes::<4>(temps, mask, row, out, stride)
}

/// Safe wrapper around [`accum_avx2`]; callable only after detection.
fn accum_avx2_safe(temps: &[f64], mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    debug_assert!(VectorIsa::Avx2.native());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: selected only when `avx2` and `fma` were detected.
    unsafe {
        accum_avx2(temps, mask, row, out, stride)
    }
    #[cfg(not(target_arch = "x86_64"))]
    accum_lanes::<4>(temps, mask, row, out, stride)
}

/// Safe wrapper around [`accum_avx512`]; callable only after detection.
fn accum_avx512_safe(temps: &[f64], mask: u64, row: &[f64], out: &mut [f64], stride: usize) {
    debug_assert!(VectorIsa::Avx512.native());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: selected only when `avx512f` was detected.
    unsafe {
        accum_avx512(temps, mask, row, out, stride)
    }
    #[cfg(not(target_arch = "x86_64"))]
    accum_lanes::<8>(temps, mask, row, out, stride)
}

/// Processes points `lo..hi` of `block`, writing `out[k·ndofs ..]` for
/// the `k`-th point of the span, and hands each chunk's [`ChunkCounts`]
/// to `sink`. Shared core of every batch variant — the only basis fill
/// and chain walk in the repository. With a no-op sink the counters are
/// dead stores the compiler drops, so the un-observed path pays nothing.
#[allow(clippy::too_many_arguments)]
fn batch_span(
    kernel: KernelKind,
    state: &CompressedState,
    block: &PointBlock,
    lo: usize,
    hi: usize,
    scratch: &mut Scratch,
    out: &mut [f64],
    mut sink: impl FnMut(ChunkCounts),
) {
    let accum = accum_for(kernel);
    let cg = &state.grid;
    let ndofs = state.ndofs;
    debug_assert_eq!(out.len(), (hi - lo) * ndofs);
    let xps = cg.xps();
    let nfreq = cg.nfreq();
    let chains = cg.chains();
    let surplus = &state.surplus;
    out.fill(0.0);

    let mut at = lo;
    while at < hi {
        let chunk = (hi - at).min(BATCH_CHUNK);
        let (xpvb, temps, colmask) = scratch.prepare_batch(xps.len(), chunk);
        let full = if chunk == 64 {
            u64::MAX
        } else {
            (1u64 << chunk) - 1
        };

        // Loop 1, blocked: basis values of every xps entry at every point
        // of the chunk. Entry-major so the chain walk reads contiguous
        // point columns; the per-entry coordinate gather is a contiguous
        // slice of the SoA block. Each entry's nonzero-lane mask is built
        // in the same pass — the chain pruning index of loop 2.
        for (e, entry) in xps.iter().enumerate() {
            let xs = &block.column(entry.index as usize)[at..at + chunk];
            let slot = &mut xpvb[e * chunk..(e + 1) * chunk];
            let mut m = 0u64;
            for k in 0..chunk {
                let v = linear_basis(xs[k], entry.l, entry.i).max(0.0);
                slot[k] = v;
                m |= ((v != 0.0) as u64) << k;
            }
            colmask[e] = m;
        }
        colmask[0] = full; // the sentinel evaluates to 1 everywhere

        // Loop 2, blocked over points: every chain is walked once per
        // chunk. The AND of its factors' column masks bounds the alive
        // lanes from above, so a chain whose support misses the whole
        // chunk — the overwhelmingly common case on sparse grids — costs
        // a few u64 ANDs and no floating-point work at all. Surviving
        // chains compute the exact products: the vector starts as the
        // first factor column (`1·x ≡ x`, so this is bitwise the
        // single-point walk) and multiplies the remaining factors
        // unconditionally — a dead lane's zero just propagates
        // (`0 · finite = 0`, the value the single-point early exit
        // produces), keeping the loop branch-free and vectorizable.
        let mut counts = ChunkCounts {
            chunk,
            ..ChunkCounts::default()
        };
        {
            for (p, chain) in chains.chunks_exact(nfreq).enumerate() {
                // Chain length: position of the 0 terminator. The typical
                // grid has nfreq ≤ 2, so the product below is one fused
                // pass over the chunk (multiply + aliveness reduction),
                // not a copy + multiply + scan triple.
                let len = chain.iter().position(|&i| i == 0).unwrap_or(nfreq);
                let mut bound = full;
                for &idx in &chain[..len] {
                    bound &= colmask[idx as usize];
                }
                if bound == 0 {
                    // Some factor is zero on every lane ⇒ every product
                    // is zero ⇒ the single-point kernel would skip every
                    // point of the chunk too. (NaN factors set their
                    // column-mask bits, so NaN lanes are never pruned.)
                    continue;
                }
                counts.factor_cols += len.max(1);
                // The alive mask (bit k ⇔ `temps[k] != 0.0`) is rebuilt
                // exactly from the products — a product can still
                // underflow to zero on a lane the bound kept.
                let mut mask = 0u64;
                match len {
                    0 => {
                        // All-sentinel chain (the root): product is 1.
                        temps[..chunk].fill(1.0);
                        mask = full;
                    }
                    1 => {
                        let c0 = &xpvb[chain[0] as usize * chunk..][..chunk];
                        for k in 0..chunk {
                            let v = c0[k];
                            temps[k] = v;
                            mask |= ((v != 0.0) as u64) << k;
                        }
                    }
                    2 => {
                        let c0 = &xpvb[chain[0] as usize * chunk..][..chunk];
                        let c1 = &xpvb[chain[1] as usize * chunk..][..chunk];
                        for k in 0..chunk {
                            let v = c0[k] * c1[k];
                            temps[k] = v;
                            mask |= ((v != 0.0) as u64) << k;
                        }
                    }
                    _ => {
                        let c0 = &xpvb[chain[0] as usize * chunk..][..chunk];
                        let c1 = &xpvb[chain[1] as usize * chunk..][..chunk];
                        for k in 0..chunk {
                            temps[k] = c0[k] * c1[k];
                        }
                        for &idx in &chain[2..len - 1] {
                            let col = &xpvb[idx as usize * chunk..][..chunk];
                            for (t, &v) in temps[..chunk].iter_mut().zip(col) {
                                *t *= v;
                            }
                        }
                        let last = &xpvb[chain[len - 1] as usize * chunk..][..chunk];
                        for k in 0..chunk {
                            let w = temps[k] * last[k];
                            temps[k] = w;
                            mask |= ((w != 0.0) as u64) << k;
                        }
                    }
                }
                // Chains dead for the whole chunk (the common case on
                // sparse grids — most grid functions' supports miss most
                // points) skip the accumulator entirely.
                if mask == 0 {
                    continue;
                }
                counts.rows_touched += 1;
                counts.alive_pairs += mask.count_ones() as usize;
                // The surplus row is resident for every alive lane's
                // accumulation; dead points are not even visited, as in
                // the single-point kernel's skip. One accumulator call
                // covers the whole chunk.
                let row = &surplus[p * ndofs..(p + 1) * ndofs];
                let o = (at - lo) * ndofs;
                accum(
                    &temps[..chunk],
                    mask,
                    row,
                    &mut out[o..o + chunk * ndofs],
                    ndofs,
                );
            }
        }
        sink(counts);
        at += chunk;
    }
}

/// Validates the shared preconditions of every batch entry point.
fn check_batch(state: &CompressedState, block: &PointBlock, out: &[f64]) {
    assert_eq!(block.dim(), state.grid.dim(), "point/grid dim mismatch");
    assert_eq!(
        out.len(),
        block.len() * state.ndofs,
        "output must be npts × ndofs"
    );
}

/// The chunk accumulator of `kernel`'s batch variant, falling back to
/// the portable lane implementation of the same width when the CPU lacks
/// the feature (mirroring the single-point kernels' substitution table).
fn accum_for(kernel: KernelKind) -> RowAccum {
    match (kernel, kernel.native()) {
        (KernelKind::Gold, _) => panic!("gold kernel requires DenseState"),
        (KernelKind::X86, _) => accum_scalar,
        (KernelKind::Avx, true) => accum_avx_safe,
        (KernelKind::Avx2, true) => accum_avx2_safe,
        (KernelKind::Avx512, true) => accum_avx512_safe,
        (KernelKind::Avx | KernelKind::Avx2, false) => accum_lanes::<4>,
        (KernelKind::Avx512, false) => accum_lanes::<8>,
    }
}

/// `kernel`'s batch walk over the whole block, whatever its width,
/// handing each chunk's [`ChunkCounts`] to `sink` in chunk order.
pub(crate) fn walk(
    kernel: KernelKind,
    state: &CompressedState,
    block: &PointBlock,
    scratch: &mut Scratch,
    out: &mut [f64],
    sink: impl FnMut(ChunkCounts),
) {
    check_batch(state, block, out);
    batch_span(kernel, state, block, 0, block.len(), scratch, out, sink);
}

/// `kernel`'s batch walk over the whole block, returning one
/// [`ChunkCounts`] per chunk, in chunk order. `out` is
/// point-major `npts × ndofs`; per point it is bitwise `kernel`'s
/// single-point result. Panics for [`KernelKind::Gold`], which needs the
/// dense format.
pub fn interpolate_batch(
    kernel: KernelKind,
    state: &CompressedState,
    block: &PointBlock,
    scratch: &mut Scratch,
    out: &mut [f64],
) -> Vec<ChunkCounts> {
    let mut counts = Vec::with_capacity(block.len().div_ceil(BATCH_CHUNK));
    walk(kernel, state, block, scratch, out, |c| counts.push(c));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    fn make_state(dim: usize, n: u8, ndofs: usize) -> CompressedState {
        let grid = regular_grid(dim, n);
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| ((t + k + 1) as f64 * v).sin() + v * v)
                    .sum();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        CompressedState::new(&grid, &surplus, ndofs)
    }

    fn probe_rows(dim: usize, count: usize) -> Vec<f64> {
        (0..count * dim)
            .map(|s| ((s * 29 + 7) as f64 * 0.01937 + 0.003) % 1.0)
            .collect()
    }

    #[test]
    fn soa_transpose_roundtrips() {
        let rows = probe_rows(3, 5);
        let block = PointBlock::from_rows(3, &rows);
        assert_eq!(block.len(), 5);
        assert_eq!(block.dim(), 3);
        let mut x = [0.0; 3];
        for p in 0..5 {
            block.point(p, &mut x);
            assert_eq!(&x[..], &rows[p * 3..(p + 1) * 3]);
        }
        // push() builds the same layout incrementally.
        let mut pushed = PointBlock::new(3);
        for p in 0..5 {
            pushed.push(&rows[p * 3..(p + 1) * 3]);
        }
        assert_eq!(pushed.coords, block.coords);
    }

    #[test]
    fn batch_matches_single_point_bitwise() {
        let state = make_state(4, 3, 7);
        let rows = probe_rows(4, 13);
        let block = PointBlock::from_rows(4, &rows);
        let mut scratch = Scratch::default();
        let mut got = vec![0.0; 13 * 7];
        interpolate_batch(
            KernelKind::X86,
            &state,
            &block,
            &mut Scratch::default(),
            &mut got,
        );
        let mut want = vec![0.0; 7];
        for p in 0..13 {
            crate::x86::interpolate(&state, &rows[p * 4..(p + 1) * 4], &mut scratch, &mut want);
            assert_eq!(&got[p * 7..(p + 1) * 7], &want[..], "point {p}");
        }
    }

    #[test]
    fn chunked_spans_do_not_change_results() {
        // More points than one chunk: interior chunk boundaries must be
        // invisible.
        let state = make_state(3, 3, 3);
        let rows = probe_rows(3, BATCH_CHUNK * 2 + 5);
        let block = PointBlock::from_rows(3, &rows);
        let mut scratch = Scratch::default();
        let n = block.len();
        let mut got = vec![0.0; n * 3];
        interpolate_batch(
            KernelKind::X86,
            &state,
            &block,
            &mut Scratch::default(),
            &mut got,
        );
        let mut want = vec![0.0; 3];
        for p in 0..n {
            crate::x86::interpolate(&state, &rows[p * 3..(p + 1) * 3], &mut scratch, &mut want);
            assert_eq!(&got[p * 3..(p + 1) * 3], &want[..], "point {p}");
        }
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let state = make_state(2, 2, 2);
        let block = PointBlock::new(2);
        let mut out: Vec<f64> = Vec::new();
        interpolate_batch(
            KernelKind::X86,
            &state,
            &block,
            &mut Scratch::default(),
            &mut out,
        );
    }
}
