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
//! * each compressed chain is walked **once per block**: its xpv factor
//!   columns are ANDed into a bound of the lanes it can be alive on and
//!   multiplied on those lanes only, so the chain loads and loop control
//!   amortize over the block and the products follow the live
//!   `(chain, point)` pairs;
//! * each surplus row is loaded **once per block** and accumulated into
//!   every surviving point's output row while it is cache-resident — the
//!   `nno × ndofs` stream that dominates single-point evaluation shrinks
//!   by the block width.
//!
//! Blocks are processed in chunks of [`BATCH_CHUNK`] points so the
//! working set (`xpv` block + output rows) stays cache-sized; results are
//! independent per point, so chunking never changes values. After the
//! fill, a chunk is three passes:
//!
//! 1. **bound** — every chain ANDs the nonzero-lane masks of its factor
//!    columns, without a branch, and the chains left with a lane are
//!    compacted into a list;
//! 2. **products** — each listed chain folds its bound again and, lane by
//!    lane over the bound's value lanes, multiplies its factors left to
//!    right, setting a lane's alive bit iff its product is non-zero (a
//!    chain of at most one factor is its column and the column's mask);
//! 3. **accumulation** — its surplus row goes into the alive lanes' output
//!    rows, strip by strip: up to four registers of the row stay loaded
//!    across all alive lanes before the next strip is touched.
//!
//! (Passes 2 and 3 alternate per listed chain, so one product vector is
//! live at a time.) A lane outside a chain's bound holds a zero factor,
//! and every factor is finite and ≥ 0 (each fill clamps with `f64::max`,
//! which also turns a NaN coordinate's factors into 0), so its product
//! is the zero the single-point walk skips: forming products on the
//! bound's lanes only is bitwise the dense product over the chunk.
//!
//! The same walk is the Newton Jacobian's source: the last
//! [`Gradients::points`] points of a block want the gradient of a
//! coefficient range instead of their value row, and for a chunk with
//! such lanes the fill adds a hat-slope column per `xps` entry and each
//! listed chain its partial products. A value-only evaluation is the walk
//! with `Gradients::default()`: the same source, in an instance with the
//! gradient branches compiled out, which sizes no gradient buffer.
//!
//! The walk takes a **run of states** whose grids walk alike (the
//! discrete states of one policy that share a grid, as recorded by
//! `MultiState::runs`): per chunk the fill, slopes, bound pass, survivor
//! list, chain products and gradient partials are computed once, and each
//! state's surplus rows are then accumulated into that state's own output
//! block. A single state is a run of one.
//!
//! The whole chunk walk is compiled once per vector kernel inside one
//! `#[target_feature]` entry (`avx`, `avx2,fma`, `avx512f`): fill, masks
//! and products auto-vectorize at that kernel's width and the accumulator
//! is inlined intrinsics. `x86` is compiled for the baseline target; a
//! vector kernel the host lacks runs the baseline walk with the portable
//! [`crate::lanes`] accumulator of its width.
//!
//! Every variant is **bitwise identical** to its single-point counterpart
//! (same basis expression, same factor order, the same instruction for
//! every output element — fused or not, by its position in the row — and
//! the same chain order per point) — the golden tests assert `==`, not a
//! tolerance. Every output element receives the same instructions in
//! chain order whatever else the walk carries, so a state's values and
//! gradients are bitwise those of a walk of it alone, and its values
//! those of a walk without gradient points.

use std::ops::Range;

use crate::data::{CompressedState, Scratch};
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
///
/// `factor_cols` is a dense-column count — what a device that multiplies
/// whole factor columns streams — and is priced as `factor_cols × chunk`.
/// The CPU walk forms a chain's products on its bound's lanes only, which
/// leaves every count unchanged.
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
}

/// Scalar accumulator with the exact inner loop shape of the
/// single-point `x86` kernel, so the scalar batch variant stays bitwise
/// equal to it: for every set bit `k` of `mask` (the chunk's alive lanes),
/// ascending, `out[k·stride ..][..row.len()] += temps[k] · row`.
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

/// The vector kernels' side of the walk: one `#[target_feature]` entry per
/// kernel and the strip accumulator those entries inline.
#[cfg(target_arch = "x86_64")]
mod isa {
    use super::{span, ChunkCounts, CompressedState, Gradients, PointBlock, Scratch};
    use std::arch::x86_64::*;

    /// The register operations of one vector kernel, which
    /// [`accum_strips`] is written over.
    trait Simd {
        /// One register of `W` doubles.
        type V: Copy;
        /// Doubles per register.
        const W: usize;
        // SAFETY: caller must ensure the host supports the kernel's
        // instruction set — as for every method of this trait.
        unsafe fn splat(a: f64) -> Self::V;
        // SAFETY: caller must also ensure `W` readable doubles at `p`.
        unsafe fn load(p: *const f64) -> Self::V;
        /// `y[..W] += a · x`, by the instruction(s) of the single-point
        /// kernel's vector body.
        // SAFETY: caller must also ensure `W` writable doubles at `y`.
        unsafe fn axpy(a: Self::V, x: Self::V, y: *mut f64);
        /// `y[..n] += a · x[..n]` for the `n < W` elements past the last
        /// whole register, as the single-point kernel's tail computes them.
        // SAFETY: caller must also ensure `n` readable doubles at `x` and
        // `n` writable ones at `y`.
        unsafe fn tail(a: f64, x: *const f64, y: *mut f64, n: usize);
    }

    /// The 4-wide kernels: `avx` multiplies then adds, `avx2` fuses.
    struct Ymm<const FMA: bool>;

    impl<const FMA: bool> Simd for Ymm<FMA> {
        type V = __m256d;
        const W: usize = 4;
        // SAFETY: register-only; the caller vouches for AVX.
        #[inline(always)]
        unsafe fn splat(a: f64) -> __m256d {
            _mm256_set1_pd(a)
        }
        // SAFETY: unaligned load of the 4 doubles the caller vouches for.
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        // SAFETY: unaligned load and store of the 4 doubles at `y`; the
        // fused arm exists only in `Ymm<true>`, whose caller vouches for
        // FMA.
        #[inline(always)]
        unsafe fn axpy(a: __m256d, x: __m256d, y: *mut f64) {
            let acc = _mm256_loadu_pd(y);
            let sum = if FMA {
                _mm256_fmadd_pd(a, x, acc)
            } else {
                _mm256_add_pd(acc, _mm256_mul_pd(a, x))
            };
            _mm256_storeu_pd(y, sum);
        }
        // SAFETY: touches `x[j]` and `y[j]` for `j < n` only.
        #[inline(always)]
        unsafe fn tail(a: f64, x: *const f64, y: *mut f64, n: usize) {
            for j in 0..n {
                *y.add(j) += a * *x.add(j);
            }
        }
    }

    /// The 8-wide kernel: FMA on zmm registers, masked FMA in the tail.
    struct Zmm;

    impl Simd for Zmm {
        type V = __m512d;
        const W: usize = 8;
        // SAFETY: register-only; the caller vouches for AVX-512F.
        #[inline(always)]
        unsafe fn splat(a: f64) -> __m512d {
            _mm512_set1_pd(a)
        }
        // SAFETY: unaligned load of the 8 doubles the caller vouches for.
        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m512d {
            _mm512_loadu_pd(p)
        }
        // SAFETY: unaligned load and store of the 8 doubles at `y`.
        #[inline(always)]
        unsafe fn axpy(a: __m512d, x: __m512d, y: *mut f64) {
            _mm512_storeu_pd(y, _mm512_fmadd_pd(a, x, _mm512_loadu_pd(y)));
        }
        // SAFETY: the mask enables exactly the `n < 8` in-bounds lanes of
        // both loads and of the store.
        #[inline(always)]
        unsafe fn tail(a: f64, x: *const f64, y: *mut f64, n: usize) {
            let m = (1u8 << n) - 1;
            let (vx, vy) = (_mm512_maskz_loadu_pd(m, x), _mm512_maskz_loadu_pd(m, y));
            _mm512_mask_storeu_pd(y, m, _mm512_fmadd_pd(_mm512_set1_pd(a), vx, vy));
        }
    }

    /// Registers of the surplus row a full strip holds — 16 doubles on the
    /// 4-wide kernels, 32 on the 8-wide one; the rest of the register file
    /// is the broadcast product and the output row in flight.
    const STRIP: usize = 4;

    /// One strip of `NV` registers: `x` is loaded once and stays in
    /// registers while every alive lane's `NV · W` outputs at
    /// `y + k · stride` take their multiply-add.
    // SAFETY: caller must ensure `S`'s instruction set, `NV · S::W`
    // readable doubles at `x` and, for every set bit `k` of `mask`,
    // `temps[k]` and `NV · S::W` writable doubles at `y + k · stride`.
    #[inline(always)]
    unsafe fn strip<S: Simd, const NV: usize>(
        temps: &[f64],
        mut mask: u64,
        x: *const f64,
        y: *mut f64,
        stride: usize,
    ) {
        let mut regs = [S::splat(0.0); NV];
        for (v, reg) in regs.iter_mut().enumerate() {
            *reg = S::load(x.add(v * S::W));
        }
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let a = S::splat(*temps.get_unchecked(k));
            for (v, &reg) in regs.iter().enumerate() {
                S::axpy(a, reg, y.add(k * stride + v * S::W));
            }
        }
    }

    /// The vector kernels' chunk accumulator — [`super::accum_scalar`]'s
    /// contract, walked strip by strip: the row is read once per chain,
    /// not once per alive lane, while every output element still takes
    /// the instruction the single-point kernel gives it (vector body or
    /// tail, by its position in the row) and every point still sees its
    /// chains in chain order.
    // SAFETY: caller must ensure the host supports `S`'s instruction set.
    // The highest alive lane is checked once against `temps` and `out`,
    // which bounds every lower one; within a lane the full strips, the
    // remaining whole registers and the tail cover `j < row.len()` once
    // each.
    #[inline(always)]
    unsafe fn accum_strips<S: Simd>(
        temps: &[f64],
        mask: u64,
        row: &[f64],
        out: &mut [f64],
        stride: usize,
    ) {
        let Some(top) = mask.checked_ilog2() else {
            return;
        };
        let (top, n) = (top as usize, row.len());
        assert!(top < temps.len() && top * stride + n <= out.len());
        let (x, y) = (row.as_ptr(), out.as_mut_ptr());
        let whole = n / S::W;
        let mut v = 0;
        while v + STRIP <= whole {
            strip::<S, STRIP>(temps, mask, x.add(v * S::W), y.add(v * S::W), stride);
            v += STRIP;
        }
        let (xv, yv) = (x.add(v * S::W), y.add(v * S::W));
        match whole - v {
            3 => strip::<S, 3>(temps, mask, xv, yv, stride),
            2 => strip::<S, 2>(temps, mask, xv, yv, stride),
            1 => strip::<S, 1>(temps, mask, xv, yv, stride),
            _ => {}
        }
        let (j, rest) = (whole * S::W, n % S::W);
        let mut lanes = if rest == 0 { 0 } else { mask };
        while lanes != 0 {
            let k = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            S::tail(temps[k], x.add(j), y.add(k * stride + j), rest);
        }
    }

    /// The entry of one vector kernel: [`span`] with the strip
    /// accumulator of `$isa`, all of it compiled with `$features` enabled.
    macro_rules! entry {
        ($name:ident, $features:literal, $isa:ty) => {
            // SAFETY: caller must ensure the host supports `$features`.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $name(
                states: &[CompressedState],
                block: &PointBlock,
                scratch: &mut Scratch,
                values: &mut [f64],
                gradients: Gradients<'_>,
                sink: impl FnMut(ChunkCounts),
            ) {
                span(
                    states,
                    block,
                    scratch,
                    values,
                    gradients,
                    sink,
                    |t, m, row, o, stride| {
                        // SAFETY: this entry's caller vouched for the features.
                        unsafe { accum_strips::<$isa>(t, m, row, o, stride) }
                    },
                )
            }
        };
    }
    entry!(walk_avx, "avx", Ymm<false>);
    entry!(walk_avx2, "avx2,fma", Ymm<true>);
    entry!(walk_avx512, "avx512f", Zmm);
}

/// Bit `k` ⇔ `v[k] != 0.0` (`v.len() ≤ 64`): a basis column's nonzero
/// lanes. No column holds a NaN: every fill clamps with `f64::max`, which
/// drops it, so a NaN coordinate gives zero factors.
#[inline(always)]
fn alive(v: &[f64]) -> u64 {
    let mut mask = 0u64;
    for (k, &x) in v.iter().enumerate() {
        mask |= ((x != 0.0) as u64) << k;
    }
    mask
}

/// What a walk computes besides value rows: which points of the block
/// want a gradient instead, of which coefficients, and where it goes.
/// `Gradients::default()` asks for none — a value-only walk.
#[derive(Debug, Default)]
pub struct Gradients<'a> {
    /// The last `points` points of the block want the gradient and no
    /// value row; the points before them want their value row only.
    pub points: usize,
    /// The coefficients differentiated: a contiguous range of the
    /// surplus row.
    pub coeffs: Range<usize>,
    /// `states × points × dim × coeffs.len()`, state-major, then
    /// dimension-major per point: `out[((s·points + g)·dim + t)·len + c]`
    /// is `∂ coefficient (coeffs.start + c) / ∂ x_t` of the walk's state
    /// `s` at gradient point `g`, in unit-cube coordinates.
    pub out: &'a mut [f64],
}

/// The slope of `linear_basis(x, l, i).max(0)` where that value is `v`:
/// `−l·sign(x·l − i)` where the hat is positive — at its peak the right
/// derivative `−l`, which is what a forward difference sees — and `0`
/// where it is zero, so a chain the bound pass prunes has no gradient
/// either.
#[inline(always)]
fn hat_slope(x: f64, l: f64, i: f64, v: f64) -> f64 {
    // `x·l − i` is `+0.0` at the peak, so `−t` carries the sign bit there.
    if v > 0.0 {
        l.copysign(-(x * l - i))
    } else {
        0.0
    }
}

/// Evaluates `block` chunk by chunk on a run of states that walk alike
/// (the first state's grid is walked). The first `npts − gradients.points`
/// points get state `s`'s value row of point `k` in `values[(s·npts +
/// k)·ndofs ..]`; the rest get the gradient of `gradients.coeffs` in
/// `gradients.out` (see [`Gradients`]), and their value rows are left as
/// zeros. `sink` gets the counts of the value lanes of every chunk that
/// has one — once: they are every state's, and the records of a walk of
/// the value points alone.
///
/// The only *block* basis fill and chain walk — the single-point walks
/// are `x86::interpolate`, `vector::skeleton` and
/// `CompressedGrid::fill_xpv` with its scalar interpolants — inlined into
/// one entry per kernel, so each pass below is compiled for that kernel's
/// instruction set and `accum` is a direct, inlined call. With a no-op
/// sink the counters are dead stores the compiler drops.
///
/// A chain of factors `f_1…f_L` has the partial derivative `s_k ·
/// ∏_{m≠k} f_m` in the dimension of factor `k`, where `s_k` is the
/// factor's hat slope; the partials come from one prefix and one suffix
/// pass over the chain (the slope column itself when `L = 1`), once per
/// chunk and chain, and go into every state's gradient rows through the
/// kernel's own `accum`, one call per factor. Every lane's arithmetic is
/// its own, so neither values nor gradients depend on the block or the
/// chunk a point is in, nor on the run a state is in.
///
/// A block without gradient points runs an instance of the chunk loop in
/// which every gradient branch is compiled out: left in but untaken, they
/// made the `avx2` value walk ≈ 3 % slower on Table II's grid (d = 59,
/// 2,048 points, on a 2-vCPU AVX-512 Xeon).
#[inline(always)]
fn span(
    states: &[CompressedState],
    block: &PointBlock,
    scratch: &mut Scratch,
    values: &mut [f64],
    gradients: Gradients<'_>,
    sink: impl FnMut(ChunkCounts),
    accum: impl Fn(&[f64], u64, &[f64], &mut [f64], usize),
) {
    if gradients.points == 0 {
        chunks::<false>(states, block, scratch, values, gradients, sink, &accum)
    } else {
        chunks::<true>(states, block, scratch, values, gradients, sink, &accum)
    }
}

/// [`span`]'s chunk loop; `GRADIENTS` is whether the block has gradient
/// points.
#[inline(always)]
fn chunks<const GRADIENTS: bool>(
    states: &[CompressedState],
    block: &PointBlock,
    scratch: &mut Scratch,
    values: &mut [f64],
    gradients: Gradients<'_>,
    mut sink: impl FnMut(ChunkCounts),
    accum: impl Fn(&[f64], u64, &[f64], &mut [f64], usize),
) {
    let cg = &states[0].grid;
    let (dim, ndofs) = (cg.dim(), states[0].ndofs);
    let xps = cg.xps();
    let nfreq = cg.nfreq();
    let chains = cg.chains();
    let Gradients {
        points: grads,
        coeffs,
        out: gradient,
    } = gradients;
    let (len, stride) = (coeffs.len(), dim * coeffs.len());
    let npts = block.len();
    let nv = npts - grads;
    let (values_per_state, gradient_per_state) = (npts * ndofs, grads * stride);
    values.fill(0.0);
    gradient.fill(0.0);

    let mut at = 0;
    while at < npts {
        let chunk = (npts - at).min(BATCH_CHUNK);
        let full = u64::MAX >> (64 - chunk);
        // Lanes `..cv` want values, lanes `cv..` gradients.
        let cv = nv.saturating_sub(at).min(chunk);
        let vmask = if cv == 0 { 0 } else { full >> (chunk - cv) };
        let gmask = if GRADIENTS { full & !vmask } else { 0 };
        let buf = scratch.prepare_batch(xps.len(), chunk, cg.nno(), nfreq, gmask != 0);
        let (xpvb, slopes) = (buf.xpvb, buf.slopes);

        // Loop 1, blocked: basis values of every xps entry at every point
        // of the chunk. Entry-major so the chain walk reads contiguous
        // point columns; the per-entry coordinate gather is a contiguous
        // slice of the SoA block. Each entry's nonzero-lane mask — the
        // chain pruning index of the bound pass — comes with it, and its
        // slopes where a lane wants them.
        for (e, entry) in xps.iter().enumerate() {
            let xs = &block.column(entry.index as usize)[at..at + chunk];
            let slot = &mut xpvb[e * chunk..(e + 1) * chunk];
            for (v, &x) in slot.iter_mut().zip(xs) {
                *v = linear_basis(x, entry.l, entry.i).max(0.0);
            }
            buf.colmask[e] = alive(slot);
            if gmask != 0 {
                let (l, i) = (entry.l as f64, entry.i as f64);
                let slope = &mut slopes[e * chunk..(e + 1) * chunk];
                for ((s, &v), &x) in slope.iter_mut().zip(&*slot).zip(xs) {
                    *s = hat_slope(x, l, i, v);
                }
            }
        }
        // The sentinel is 1 on every lane, whatever coordinate 0 holds:
        // an all-sentinel chain (the root) reads this column as its
        // product.
        xpvb[..chunk].fill(1.0);
        buf.colmask[0] = full;

        // Bound pass, branch-free: the AND of a chain's column masks
        // bounds its alive lanes from above (padding slots index the
        // sentinel, whose mask is `full`, so no length is needed), and a
        // chain whose support misses the whole chunk — the overwhelmingly
        // common case on sparse grids — ends here. (A NaN coordinate's
        // factors are 0, so the chains of its dimension are pruned on its
        // lane, as the single-point walk skips them.)
        let mut kept = 0;
        for (p, chain) in chains.chunks_exact(nfreq).enumerate() {
            let mut bound = full;
            for &idx in chain {
                bound &= buf.colmask[idx as usize];
            }
            buf.survivors[kept] = p as u32;
            kept += (bound != 0) as usize;
        }

        // Products and accumulation, over the survivors only: each
        // product once, into every state's rows. Each state's value rows
        // of the chunk start at `vo`, its gradient rows from the chunk's
        // first gradient lane `cv` on at `go`.
        let mut counts = ChunkCounts {
            chunk: cv,
            ..ChunkCounts::default()
        };
        let vo = |s: usize| s * values_per_state + at * ndofs;
        let g0 = (at + cv).saturating_sub(nv);
        let go = |s: usize| s * gradient_per_state + g0 * stride;
        let col = |idx: u32| &xpvb[idx as usize * chunk..][..chunk];
        for &p in &buf.survivors[..kept] {
            let p = p as usize;
            let chain = &chains[p * nfreq..(p + 1) * nfreq];
            let len_p = chain.iter().position(|&i| i == 0).unwrap_or(nfreq);
            let factors = &chain[..len_p];
            // The lanes on which every factor is non-zero — the only lanes
            // the chain's product can be alive on.
            let bound = factors
                .iter()
                .fold(full, |b, &idx| b & buf.colmask[idx as usize]);
            if bound & vmask != 0 {
                counts.factor_cols += len_p.max(1);
                // A chain of at most one factor *is* its column, alive
                // mask included. A longer one multiplies its factors left
                // to right (`1·x ≡ x`, so this is bitwise the single-point
                // walk) on the value lanes of its bound only: every factor
                // is finite and ≥ 0, so a lane outside the bound holds a
                // zero factor and its product is the zero the single-point
                // early exit skips. A lane is alive iff its product is
                // non-zero, which it need not be on a lane the bound kept:
                // the product can underflow.
                let (product, mask) = if len_p <= 1 {
                    (col(chain[0]), buf.colmask[chain[0] as usize])
                } else {
                    let (a, b) = (col(factors[0]), col(factors[1]));
                    let temps = &mut buf.temps[..chunk];
                    let mut mask = 0;
                    let mut lanes = bound & vmask;
                    while lanes != 0 {
                        let k = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        let mut t = a[k] * b[k];
                        for &idx in &factors[2..] {
                            t *= xpvb[idx as usize * chunk + k];
                        }
                        temps[k] = t;
                        mask |= ((t != 0.0) as u64) << k;
                    }
                    (&*temps, mask)
                };
                if mask & vmask != 0 {
                    counts.rows_touched += 1;
                    counts.alive_pairs += (mask & vmask).count_ones() as usize;
                    for (s, state) in states.iter().enumerate() {
                        let row = &state.surplus[p * ndofs..(p + 1) * ndofs];
                        let value_chunk = &mut values[vo(s)..vo(s) + chunk * ndofs];
                        accum(product, mask & vmask, row, value_chunk, ndofs);
                    }
                }
            }
            // A gradient lane needs every factor positive — the bound, not
            // the product, which could underflow.
            let gm = bound & gmask;
            if gm == 0 || len_p == 0 {
                continue;
            }
            // Where a factor's dimension starts in a gradient row; lane `j`
            // of the chunk is gradient row `j − cv`.
            let offset = |idx: u32| xps[idx as usize].index as usize * len;
            // Lane by lane — a chain is alive on few lanes — `s_k` times
            // the prefix product, then times the suffix product; a lone
            // factor's partial is its slope column.
            let mut lanes = if len_p == 1 { 0 } else { gm };
            while lanes != 0 {
                let j = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let f = |k: usize| xpvb[factors[k] as usize * chunk + j];
                let partial = &mut buf.partials[j..];
                partial[0] = slopes[factors[0] as usize * chunk + j];
                let mut run = f(0);
                for k in 1..len_p {
                    partial[k * chunk] = slopes[factors[k] as usize * chunk + j] * run;
                    run *= f(k);
                }
                run = f(len_p - 1);
                for k in (0..len_p - 1).rev() {
                    partial[k * chunk] *= run;
                    run *= f(k);
                }
            }
            let (partials, first) = match len_p {
                1 => (&*slopes, factors[0] as usize * chunk),
                _ => (&*buf.partials, 0),
            };
            for (s, state) in states.iter().enumerate() {
                let row = &state.surplus[p * ndofs + coeffs.start..p * ndofs + coeffs.end];
                let gradient_chunk = &mut gradient[go(s)..go(s) + (chunk - cv) * stride];
                for (k, &idx) in factors.iter().enumerate() {
                    let partial = &partials[first + k * chunk + cv..first + (k + 1) * chunk];
                    accum(
                        partial,
                        gm >> cv,
                        row,
                        &mut gradient_chunk[offset(idx)..],
                        stride,
                    );
                }
            }
        }
        if cv > 0 {
            sink(counts);
        }
        at += chunk;
    }
}

/// `kernel`'s batch walk over the whole block for a run of states that
/// walk alike (see [`span`]), whatever its width, handing the counts of
/// each chunk's value lanes to `sink` in chunk order. A vector kernel the
/// host lacks falls back to the portable lane accumulator of the same
/// width (mirroring the single-point kernels' substitution table). The
/// run is checked in full only in debug builds: comparing the grids costs
/// a walk's bound pass.
pub(crate) fn walk(
    kernel: KernelKind,
    states: &[CompressedState],
    block: &PointBlock,
    scratch: &mut Scratch,
    values: &mut [f64],
    gradients: Gradients<'_>,
    sink: impl FnMut(ChunkCounts),
) {
    let first = states.first().expect("a run holds at least one state");
    let (ns, dim, npts, ndofs) = (states.len(), block.dim(), block.len(), first.ndofs);
    assert_eq!(dim, first.grid.dim(), "point/grid dim mismatch");
    assert!(
        states[1..]
            .iter()
            .all(|s| s.ndofs == ndofs && s.grid.nno() == first.grid.nno()),
        "a run's states must share ndofs and grid size"
    );
    debug_assert!(
        states[1..].iter().all(|s| first.walks_like(s)),
        "a run's states must walk alike"
    );
    assert_eq!(
        values.len(),
        ns * npts * ndofs,
        "values must be states × npts × ndofs"
    );
    assert!(gradients.points <= npts, "more gradient points than points");
    assert!(gradients.coeffs.end <= ndofs, "coefficients out of the row");
    assert_eq!(
        gradients.out.len(),
        ns * gradients.points * dim * gradients.coeffs.len(),
        "gradients must be states × points × dim × coefficients"
    );
    let (g, s) = (gradients, sink);
    match (kernel, kernel.native()) {
        (KernelKind::Gold, _) => panic!("gold kernel requires DenseState"),
        (KernelKind::X86, _) => span(states, block, scratch, values, g, s, accum_scalar),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `native()` detected `avx`.
        (KernelKind::Avx, true) => unsafe { isa::walk_avx(states, block, scratch, values, g, s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `native()` detected `avx2` and `fma`.
        (KernelKind::Avx2, true) => unsafe { isa::walk_avx2(states, block, scratch, values, g, s) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `native()` detected `avx512f`.
        (KernelKind::Avx512, true) => unsafe {
            isa::walk_avx512(states, block, scratch, values, g, s)
        },
        (KernelKind::Avx | KernelKind::Avx2, _) => {
            span(states, block, scratch, values, g, s, accum_lanes::<4>)
        }
        (KernelKind::Avx512, _) => span(states, block, scratch, values, g, s, accum_lanes::<8>),
    }
}

/// `kernel`'s value walk over the whole block, returning one
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
    let state = std::slice::from_ref(state);
    interpolate_states_batch(kernel, state, block, scratch, out, Gradients::default())
}

/// `kernel`'s batch walk over the whole block for a run of states that
/// walk alike (consecutive states of one `MultiState` run): the first
/// `npts − gradients.points` points get their value rows in `values`
/// (`states × npts × ndofs`), each state's bitwise what
/// [`interpolate_batch`] writes for it, and the rest the gradient of
/// `gradients.coeffs` in `gradients.out` (see [`Gradients`]); their value
/// rows are zeros. A point's gradient does not depend on the block it is
/// in. The counts — one record per chunk with a value point, each
/// state's — are exactly what [`interpolate_batch`] reports for a block
/// of the value points alone (none when there are none): a device model
/// prices value walks. Panics for [`KernelKind::Gold`].
pub fn interpolate_states_batch(
    kernel: KernelKind,
    states: &[CompressedState],
    block: &PointBlock,
    scratch: &mut Scratch,
    values: &mut [f64],
    gradients: Gradients<'_>,
) -> Vec<ChunkCounts> {
    let mut counts = Vec::with_capacity(block.len().div_ceil(BATCH_CHUNK));
    walk(kernel, states, block, scratch, values, gradients, |c| {
        counts.push(c)
    });
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
        for d in 0..3 {
            let want: Vec<f64> = rows.chunks_exact(3).map(|x| x[d]).collect();
            assert_eq!(block.column(d), &want[..], "column {d}");
        }
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
