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
//!    lane over the bound's lanes, multiplies its factors left to
//!    right, setting a lane's alive bit iff its product is non-zero (a
//!    chain of at most one factor is its column and the column's mask);
//! 3. **accumulation** — its surplus row goes into the alive lanes' output
//!    rows, strip by strip: up to four registers of the row stay loaded
//!    across all alive lanes before the next strip is touched (a lone
//!    alive lane streams the row register by register).
//!
//! (Passes 2 and 3 alternate per listed chain, so one product vector is
//! live at a time.) A lane outside a chain's bound holds a zero factor,
//! and every factor is finite and ≥ 0 (each fill clamps with `f64::max`,
//! which also turns a NaN coordinate's factors into 0), so its product
//! is the zero the single-point walk drops: forming products on the
//! bound's lanes only is bitwise the dense product over the chunk.
//!
//! The same walk is the Newton Jacobian's source: the last
//! [`Gradients::points`] points of a block want the gradient of a
//! coefficient range as well as their value row, and for a chunk with
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
//! Each vector kernel has one `#[target_feature]` entry (`avx`,
//! `avx2,fma`, `avx512f`), generic over what it runs: this chunk walk, or
//! the single-point kernel — Fig. 5's fill and chain loop, written once
//! for all four kernels, which forms every chain's product without a
//! branch and compacts the survivors (about a quarter of the chains on
//! Table II's grid) before it adds their rows, because Fig. 5's early
//! exit mispredicts (see [`PointJob`]). Fill, masks and products
//! auto-vectorize at the kernel's width and the accumulator is inlined
//! intrinsics. There is one rounding rule (`FUSED_BLOCK`): a kernel
//! either multiplies, then adds (`x86`, `avx`), or fuses every element of
//! a row but its last `n % 4` (`avx2`, `avx512`), so its register width is
//! a speed choice only and the two kernels of a class agree bit for bit.
//! `x86`, and a vector kernel the host lacks, run the same loops at the
//! baseline target with the portable accumulator of the class
//! (`accum_portable`), which rounds every element as the native one does.
//! A kernel gives the same values on every host.
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

/// The fused kernels' one rounding rule (`avx2` and `avx512`): of a row
/// of `n` elements, the first `n − n % FUSED_BLOCK` take one fused
/// multiply-add each and the last `n % FUSED_BLOCK` a multiply, then an
/// add; the block is `avx2`'s register. The unfused kernels (`x86` and
/// `avx`) multiply, then add, everywhere. A kernel's values are therefore
/// set by whether it fuses, not by its register width: `x86` ≡ `avx` and
/// `avx2` ≡ `avx512`, bit for bit.
const FUSED_BLOCK: usize = 4;

/// The accumulator contract, in portable code: for every set bit `k` of
/// `mask` (the chunk's alive lanes), ascending, `out[k·stride
/// ..][..row.len()] += temps[k] · row`, each element rounded by
/// [`FUSED_BLOCK`]'s rule (fused or not by its position in the row) as a
/// native accumulator of the class computes it. The `x86` kernel's only
/// accumulator, and a vector kernel's on a host without its instruction
/// set.
fn accum_portable<const FUSED: bool>(
    temps: &[f64],
    mut mask: u64,
    row: &[f64],
    out: &mut [f64],
    stride: usize,
) {
    let body = row.len() - row.len() % FUSED_BLOCK;
    while mask != 0 {
        let k = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let a = temps[k];
        let slot = &mut out[k * stride..k * stride + row.len()];
        for (j, (o, &x)) in slot.iter_mut().zip(row).enumerate() {
            let fused = FUSED && j < body;
            *o = if fused { a.mul_add(x, *o) } else { *o + a * x };
        }
    }
}

/// What runs over a kernel's row accumulator: the batch walk
/// ([`BlockJob`]) or the single-point kernel ([`PointJob`]). A kernel's
/// `#[target_feature]` entry is generic over the job, so either is
/// compiled for its instruction set with the accumulator inlined.
trait Job {
    /// What the job returns.
    type Out;
    /// Runs the job with `accum(temps, mask, row, out, stride)`, which
    /// meets [`accum_portable`]'s contract.
    fn run(self, accum: impl Fn(&[f64], u64, &[f64], &mut [f64], usize)) -> Self::Out;
}

/// The vector kernels' native side: one `#[target_feature]` entry per
/// kernel and the strip accumulator those entries inline.
#[cfg(target_arch = "x86_64")]
mod isa {
    use super::{Job, FUSED_BLOCK};
    use std::arch::x86_64::*;

    /// The register operations of one vector kernel, which
    /// [`accum_strips`] is written over: its row multiply-add by
    /// [`FUSED_BLOCK`]'s rule, in registers of `W` doubles.
    trait Simd {
        /// Doubles per register.
        const W: usize;
        /// One register of `W` doubles.
        type V: Copy;
        // SAFETY: caller must ensure the host supports the kernel's
        // instruction set — as for every method of this trait.
        unsafe fn splat(a: f64) -> Self::V;
        // SAFETY: caller must also ensure `W` readable doubles at `p`.
        unsafe fn load(p: *const f64) -> Self::V;
        /// `y[..W] += a · x`, fused iff the kernel fuses.
        // SAFETY: caller must also ensure `W` writable doubles at `y`.
        unsafe fn axpy(a: Self::V, x: Self::V, y: *mut f64);
        /// `y[..n] += a · x[..n]` for the `n < W` elements past the last
        /// whole register, by [`FUSED_BLOCK`]'s rule: where the kernel
        /// fuses, all but the last `n % FUSED_BLOCK` fuse.
        // SAFETY: caller must also ensure `n` readable doubles at `x` and
        // `n` writable ones at `y`.
        unsafe fn tail(a: f64, x: *const f64, y: *mut f64, n: usize);
    }

    /// The 4-wide kernels: `avx` multiplies then adds, `avx2` fuses; a
    /// tail (`n < 4`) is the last `n % 4` of its row, so it never fuses.
    struct Ymm<const FMA: bool>;

    impl<const FMA: bool> Simd for Ymm<FMA> {
        const W: usize = FUSED_BLOCK;
        type V = __m256d;
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
        // SAFETY: touches `x[j]` and `y[j]` for `j < n` only (`n < 4`).
        #[inline(always)]
        unsafe fn tail(a: f64, x: *const f64, y: *mut f64, n: usize) {
            // Element by element, not a loop: LLVM turns a loop of at most
            // three trips into masked moves, which cost the single-point
            // kernel (a masked store the next chain's masked load of the
            // same elements waits on).
            if n > 0 {
                *y += a * *x;
            }
            if n > 1 {
                *y.add(1) += a * *x.add(1);
            }
            if n > 2 {
                *y.add(2) += a * *x.add(2);
            }
        }
    }

    /// The 8-wide kernel: it fuses, and its masked tail (`n < 8`) rounds as
    /// `avx2`'s row of `n` does — a blend that takes the fused sum on the
    /// first `n − n % 4` lanes and the multiply-then-add on the rest.
    struct Zmm;

    impl Simd for Zmm {
        const W: usize = 8;
        type V = __m512d;
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
            let fused = (1u8 << (n - n % FUSED_BLOCK)) - 1;
            let (va, vx, vy) = (
                _mm512_set1_pd(a),
                _mm512_maskz_loadu_pd(m, x),
                _mm512_maskz_loadu_pd(m, y),
            );
            let unfused = _mm512_add_pd(vy, _mm512_mul_pd(va, vx));
            let sum = _mm512_mask_blend_pd(fused, unfused, _mm512_fmadd_pd(va, vx, vy));
            _mm512_mask_storeu_pd(y, m, sum);
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

    /// The vector kernels' accumulator — `super::accum_portable`'s
    /// contract, walked strip by strip: the row is read once per chain,
    /// not once per alive lane, while every output element still takes
    /// its kernel's instruction (vector body or tail, by its position in
    /// the row) and every point still sees its chains in chain order.
    // SAFETY: caller must ensure the host supports `S`'s instruction set.
    // The highest alive lane is checked once against `temps` and `out`,
    // which bounds every lower one; within a lane the full strips, the
    // remaining whole registers and the tail — or, for a lone lane, the
    // registers while `j + W <= n` and the tail — cover `j < row.len()`
    // once each.
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
        if mask & (mask - 1) == 0 {
            // One alive lane — always, in the single-point kernel — has no
            // strip to share: the row streams register by register. With
            // strips and a masked `Ymm` tail, single-point `avx2` read
            // ×1.04–1.06 against the former loop on Table II's grid.
            let (a, y) = (S::splat(temps[top]), y.add(top * stride));
            let mut j = 0;
            while j + S::W <= n {
                S::axpy(a, S::load(x.add(j)), y.add(j));
                j += S::W;
            }
            if j < n {
                S::tail(temps[top], x.add(j), y.add(j), n - j);
            }
            return;
        }
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

    /// The entry of one vector kernel: a [`Job`] run with the strip
    /// accumulator of `$isa`, all of it compiled with `$features` enabled.
    macro_rules! entry {
        ($name:ident, $features:literal, $isa:ty) => {
            // SAFETY: caller must ensure the host supports `$features`.
            #[target_feature(enable = $features)]
            pub(super) unsafe fn $name<J: Job>(job: J) -> J::Out {
                job.run(|t, m, row, o, stride| {
                    // SAFETY: this entry's caller vouched for the features.
                    unsafe { accum_strips::<$isa>(t, m, row, o, stride) }
                })
            }
        };
    }
    entry!(avx, "avx", Ymm<false>);
    entry!(avx2, "avx2,fma", Ymm<true>);
    entry!(avx512, "avx512f", Zmm);
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
    /// The last `points` points of the block want the gradient as well
    /// as their value row; the points before them want their value row
    /// only.
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

/// The batch walk: `block` chunk by chunk on a run of states that walk
/// alike (the first state's grid is walked). Every point `k` gets state
/// `s`'s value row in `values[(s·npts + k)·ndofs ..]`, and the last
/// `gradients.points` points also the gradient of `gradients.coeffs` in
/// `gradients.out` (see [`Gradients`]). `sink` gets the counts of every
/// chunk — once: they are every state's, and the records of a value walk
/// of the same block.
///
/// The only *block* basis fill and chain walk (the single-point one is
/// [`PointJob`]), inlined into one entry per kernel, so each pass below is
/// compiled for that kernel's instruction set and `accum` is a direct,
/// inlined call. With a no-op sink the counters are dead stores the
/// compiler drops.
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
struct BlockJob<'a, S> {
    states: &'a [CompressedState],
    block: &'a PointBlock,
    scratch: &'a mut Scratch,
    values: &'a mut [f64],
    gradients: Gradients<'a>,
    sink: S,
}

impl<S: FnMut(ChunkCounts)> Job for BlockJob<'_, S> {
    type Out = ();

    #[inline(always)]
    fn run(self, accum: impl Fn(&[f64], u64, &[f64], &mut [f64], usize)) {
        let BlockJob {
            states,
            block,
            scratch,
            values,
            gradients,
            sink,
        } = self;
        if gradients.points == 0 {
            chunks::<false>(states, block, scratch, values, gradients, sink, &accum)
        } else {
            chunks::<true>(states, block, scratch, values, gradients, sink, &accum)
        }
    }
}

/// The single-point kernel, Fig. 5 (left), in three steps over the chain
/// rows `points` (ascending), into `out` (cleared first), none of which
/// branches on a product:
///
/// 1. **fill** — `xpv` gets the clamped basis value of every `xps` entry
///    at `x`, and the sentinel `xpv[0]` is 1 whatever `x[0]` holds;
/// 2. **walk** — every chain's product over all `nfreq` slots, left to
///    right, goes into the survivor list, and the list's cursor advances
///    iff the product is non-zero;
/// 3. **accumulate** — the survivors' surplus rows go into `out` in chain
///    order, each row prefetched [`PREFETCH_AHEAD`] survivors early.
///
/// Returns whether any chain survived. This is bitwise Fig. 5's early-exit
/// walk: a padding slot multiplies by the sentinel (`1·x ≡ x`), every
/// factor is finite and ≥ 0 (the fill clamps with `f64::max`), so a
/// product that reaches zero stays `+0`, the zero the early exit skipped,
/// and the survivors reach `accum` in the same order. It is faster
/// because on Table II's grid (d = 59, 7,081 chains, 2,048 uniform
/// points, a 2-vCPU AVX-512 Xeon) about a quarter of the chains survive
/// at a point and the early exit's data-dependent branches mispredict:
/// its loop took 162–185 ms per pass over the points, the same products
/// without a branch 29–53 ms (fastest to upper quartile of 15 passes).
struct PointJob<'a> {
    state: &'a CompressedState,
    x: &'a [f64],
    scratch: &'a mut Scratch,
    points: Range<usize>,
    out: &'a mut [f64],
}

/// How many survivors ahead the single-point accumulation prefetches a
/// surplus row: the survivors are a data-dependent subset of the rows, so
/// the hardware prefetcher's stride guess misses their starts.
const PREFETCH_AHEAD: usize = 2;

impl Job for PointJob<'_> {
    type Out = bool;

    #[inline(always)]
    fn run(self, accum: impl Fn(&[f64], u64, &[f64], &mut [f64], usize)) -> bool {
        let PointJob {
            state,
            x,
            scratch,
            points,
            out,
        } = self;
        let (cg, ndofs) = (&state.grid, state.ndofs);
        assert_eq!(x.len(), cg.dim());
        assert_eq!(out.len(), ndofs);
        let (xps, nfreq) = (cg.xps(), cg.nfreq());
        let buf = scratch.prepare_point(xps.len(), points.len());
        let xpv = buf.xpv;
        for (v, entry) in xpv.iter_mut().zip(xps) {
            *v = linear_basis(x[entry.index as usize], entry.l, entry.i).max(0.0);
        }
        xpv[0] = 1.0;
        let kept = compact(cg.chains(), nfreq, points, xpv, buf.rows, buf.temps);
        out.fill(0.0);
        let (rows, temps) = (&buf.rows[..kept], &buf.temps[..kept]);
        let row = |p: u32| &state.surplus[p as usize * ndofs..][..ndofs];
        for (k, (&p, temp)) in rows.iter().zip(temps).enumerate() {
            if let Some(&ahead) = rows.get(k + PREFETCH_AHEAD) {
                prefetch(row(ahead));
            }
            accum(std::slice::from_ref(temp), 1, row(p), out, ndofs);
        }
        kept > 0
    }
}

/// The single-point walk: every chain row of `points` forms its product
/// over all `nfreq` slots of `chains`, left to right, from `xpv` (whose
/// sentinel `xpv[0]` is 1), and the rows with a non-zero product are
/// written to `rows` with their products in `temps`, in chain order,
/// without a branch. Returns how many survived.
#[inline(always)]
fn compact(
    chains: &[u32],
    nfreq: usize,
    points: Range<usize>,
    xpv: &[f64],
    rows: &mut [u32],
    temps: &mut [f64],
) -> usize {
    let chains = &chains[points.start * nfreq..points.end * nfreq];
    let mut kept = 0;
    for (p, chain) in points.zip(chains.chunks_exact(nfreq)) {
        let temp = chain.iter().fold(1.0, |t, &i| t * xpv[i as usize]);
        rows[kept] = p as u32;
        temps[kept] = temp;
        kept += (temp != 0.0) as usize;
    }
    kept
}

/// Asks for every 64-byte line of `row` to be brought into cache; a no-op
/// off x86_64.
#[inline(always)]
fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for j in (0..row.len()).step_by(8).chain(row.len().checked_sub(1)) {
        // SAFETY: `j < row.len()`, so the address is inside `row`; a
        // prefetch is a hint that reads nothing and cannot fault.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                row.as_ptr().add(j).cast(),
            )
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// [`BlockJob`]'s chunk loop; `GRADIENTS` is whether the block has gradient
/// points. Every lane gets its value row; the gradient lanes are the last
/// `grads` of the block.
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
        // Lanes `cv..` want gradients too.
        let cv = nv.saturating_sub(at).min(chunk);
        let gmask = match cv {
            _ if !GRADIENTS => 0,
            0 => full,
            _ => full & !(full >> (chunk - cv)),
        };
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
        // lane, as the single-point walk drops them.)
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
            chunk,
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
            counts.factor_cols += len_p.max(1);
            // A chain of at most one factor *is* its column, alive mask
            // included. A longer one multiplies its factors left to right
            // (`1·x ≡ x`, so this is bitwise the single-point walk) on the
            // lanes of its bound only: every factor is finite and ≥ 0, so a
            // lane outside the bound holds a zero factor and its product is
            // a zero the single-point walk drops. A lane is alive iff its
            // product is non-zero, which it need not be on a lane the bound
            // kept: the product can underflow.
            let (product, mask) = if len_p <= 1 {
                (col(chain[0]), buf.colmask[chain[0] as usize])
            } else {
                let (a, b) = (col(factors[0]), col(factors[1]));
                let temps = &mut buf.temps[..chunk];
                let mut mask = 0;
                let mut lanes = bound;
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
            if mask != 0 {
                counts.rows_touched += 1;
                counts.alive_pairs += mask.count_ones() as usize;
                for (s, state) in states.iter().enumerate() {
                    let row = &state.surplus[p * ndofs..(p + 1) * ndofs];
                    let value_chunk = &mut values[vo(s)..vo(s) + chunk * ndofs];
                    accum(product, mask, row, value_chunk, ndofs);
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
        sink(counts);
        at += chunk;
    }
}

/// `kernel`'s batch walk over the whole block for a run of states that
/// walk alike (see [`BlockJob`]), whatever its width, handing the counts
/// of each chunk to `sink` in chunk order. The run is
/// checked in full only in debug builds: comparing the grids costs a
/// walk's bound pass.
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
    let job = BlockJob {
        states,
        block,
        scratch,
        values,
        gradients,
        sink,
    };
    dispatch(kernel, job)
}

/// `kernel`'s single-point evaluation at `x` over the chain rows `points`
/// (all of them for the whole interpolant; see [`PointJob`]), into `out`;
/// whether any chain survived.
pub(crate) fn point(
    kernel: KernelKind,
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    points: Range<usize>,
    out: &mut [f64],
) -> bool {
    let job = PointJob {
        state,
        x,
        scratch,
        points,
        out,
    };
    dispatch(kernel, job)
}

/// Runs `job` with `kernel`'s accumulator: inside the kernel's
/// `#[target_feature]` entry where the host has its instruction set, and
/// with [`portable`] where it does not.
fn dispatch<J: Job>(kernel: KernelKind, job: J) -> J::Out {
    match (kernel, kernel.native()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `native()` detected `avx`.
        (KernelKind::Avx, true) => unsafe { isa::avx(job) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `native()` detected `avx2` and `fma`.
        (KernelKind::Avx2, true) => unsafe { isa::avx2(job) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `native()` detected `avx512f`.
        (KernelKind::Avx512, true) => unsafe { isa::avx512(job) },
        _ => portable(kernel, job),
    }
}

/// Runs `job` with the portable accumulator of `kernel`'s class, compiled
/// for the baseline target: the `x86` kernel, and a vector kernel on a
/// host without its instruction set.
fn portable<J: Job>(kernel: KernelKind, job: J) -> J::Out {
    match kernel {
        KernelKind::Gold => panic!("gold kernel requires DenseState"),
        KernelKind::X86 | KernelKind::Avx => job.run(accum_portable::<false>),
        KernelKind::Avx2 | KernelKind::Avx512 => job.run(accum_portable::<true>),
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
/// walk alike (consecutive states of one `MultiState` run): every point
/// gets its value rows in `values` (`states × npts × ndofs`), each
/// state's bitwise what [`interpolate_batch`] writes for it, and the last
/// `gradients.points` points also the gradient of `gradients.coeffs` in
/// `gradients.out` (see [`Gradients`]). A point's gradient does not depend
/// on the block it is in. The counts — one record per chunk, each
/// state's — are exactly what [`interpolate_batch`] reports for the same
/// block: a device model prices value walks. Panics for
/// [`KernelKind::Gold`].
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
    use hddm_asg::{basis, hierarchize, regular_grid, tabulate, ActiveCoord, NodeKey, SparseGrid};
    use std::collections::BTreeSet;

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
            KernelKind::X86.evaluate_compressed(
                &state,
                &rows[p * 4..(p + 1) * 4],
                &mut scratch,
                &mut want,
            );
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
            KernelKind::X86.evaluate_compressed(
                &state,
                &rows[p * 3..(p + 1) * 3],
                &mut scratch,
                &mut want,
            );
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

    /// The walk keeps exactly the chains whose left-to-right product is
    /// non-zero, in chain order, with those products: over every chain of
    /// 0 to `nfreq` factors of a zero, an underflowing and two positive
    /// entries, on the whole range and on a slice. A NaN first coordinate
    /// leaves the fill's sentinel at 1, so the factorless (root) chain
    /// still survives with product 1.
    #[test]
    fn the_walk_keeps_the_chains_with_a_non_zero_product_in_order() {
        let xpv = [1.0, 0.5, 0.0, 0.75, 1e-200];
        let nfreq = 3;
        let mut chains = Vec::new();
        for len in 0..=nfreq as u32 {
            for code in 0..4u32.pow(len) {
                chains.extend((0..nfreq as u32).map(|k| match k < len {
                    true => 1 + code / 4u32.pow(k) % 4,
                    false => 0,
                }));
            }
        }
        let nno = chains.len() / nfreq;
        let reference = |points: Range<usize>| -> Vec<(u32, u64)> {
            points
                .filter_map(|p| {
                    let chain = &chains[p * nfreq..(p + 1) * nfreq];
                    let t = chain
                        .iter()
                        .take_while(|&&i| i != 0)
                        .fold(1.0f64, |t, &i| t * xpv[i as usize]);
                    (t != 0.0).then_some((p as u32, t.to_bits()))
                })
                .collect()
        };
        for points in [0..nno, 7..40] {
            let (mut rows, mut temps) = (vec![0; nno], vec![0.0; nno]);
            let kept = compact(&chains, nfreq, points.clone(), &xpv, &mut rows, &mut temps);
            let got: Vec<(u32, u64)> = rows[..kept]
                .iter()
                .zip(&temps[..kept])
                .map(|(&p, t)| (p, t.to_bits()))
                .collect();
            assert_eq!(got, reference(points));
        }
        // Every length survives somewhere, and the underflow does not.
        let lengths: BTreeSet<usize> = reference(0..nno)
            .iter()
            .map(|&(p, _)| chains[p as usize * nfreq..][..nfreq].partition_point(|&i| i != 0))
            .collect();
        assert_eq!(lengths, (0..=nfreq).collect());
        assert!(!reference(0..nno)
            .iter()
            .any(|&(p, _)| chains[p as usize * nfreq..][..2] == [4, 4]));

        let state = make_state(3, 3, 2);
        let (x, mut out) = ([f64::NAN, 0.3, 0.6], [0.0; 2]);
        let mut scratch = Scratch::default();
        for kernel in KernelKind::COMPRESSED {
            kernel.evaluate_compressed(&state, &x, &mut scratch, &mut out);
            assert_eq!(scratch.xpv[0], 1.0, "{}", kernel.name());
        }
        let (cg, nno) = (&state.grid, state.grid.nno());
        let (mut rows, mut temps) = (vec![0; nno], vec![0.0; nno]);
        let kept = compact(
            cg.chains(),
            cg.nfreq(),
            0..nno,
            &scratch.xpv,
            &mut rows,
            &mut temps,
        );
        let root = cg.chains().chunks_exact(cg.nfreq()).position(|c| c[0] == 0);
        let survivor = rows[..kept].iter().position(|&p| Some(p as usize) == root);
        assert_eq!(survivor.map(|k| temps[k]), Some(1.0));
    }

    /// Runs a kernel's accumulator once.
    struct RowJob<'a> {
        temps: &'a [f64],
        mask: u64,
        row: &'a [f64],
        out: &'a mut [f64],
        stride: usize,
    }

    impl Job for RowJob<'_> {
        type Out = ();

        fn run(self, accum: impl Fn(&[f64], u64, &[f64], &mut [f64], usize)) {
            accum(self.temps, self.mask, self.row, self.out, self.stride)
        }
    }

    /// `job` with `kernel`'s native accumulator, or with its portable one.
    fn run<J: Job>(kernel: KernelKind, native: bool, job: J) -> J::Out {
        assert!(!native || kernel.native());
        if native {
            dispatch(kernel, job)
        } else {
            portable(kernel, job)
        }
    }

    /// The two rounding classes of [`FUSED_BLOCK`]'s rule.
    const CLASSES: [[KernelKind; 2]; 2] = [
        [KernelKind::X86, KernelKind::Avx],
        [KernelKind::Avx2, KernelKind::Avx512],
    ];

    /// Asserts that `f` gives the same result for every kernel of a class,
    /// each through its portable accumulator and, where the host has it,
    /// its native one.
    fn classes_agree<T: PartialEq>(what: &str, f: impl Fn(KernelKind, bool) -> T) {
        for class in CLASSES {
            let want = f(class[0], false);
            for kernel in class {
                for native in [false, true].into_iter().filter(|&n| !n || kernel.native()) {
                    let way = if native { "native" } else { "portable" };
                    assert!(
                        f(kernel, native) == want,
                        "{what}: {} {way} differs from {} portable",
                        kernel.name(),
                        class[0].name()
                    );
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The `mask` lanes of a row of `n`, through `kernel`'s native or
    /// portable accumulator.
    fn accumulate_row(kernel: KernelKind, native: bool, mask: u64, n: usize) -> Vec<u64> {
        let temps: Vec<f64> = (0..5).map(|k| 0.1 + (k as f64 * 1.7).sin().abs()).collect();
        let row: Vec<f64> = (0..n)
            .map(|j| ((j * 37 + 11) as f64 * 0.618).sin())
            .collect();
        let stride = n + 3;
        let mut out: Vec<f64> = (0..5 * stride).map(|j| (j as f64 * 0.377).cos()).collect();
        let job = RowJob {
            temps: &temps,
            mask,
            row: &row,
            out: &mut out,
            stride,
        };
        run(kernel, native, job);
        bits(&out)
    }

    /// The portable accumulator rounds every element as the native one
    /// does, and the kernels of a class round alike: every row length up
    /// to four registers past a full strip, so every strip remainder and
    /// tail (0–17), and the OLG row (118), on three alive lanes and on a
    /// lone one. The model is `f64::mul_add` and `y + a * x`, not the
    /// intrinsics, so this is the check of the intrinsic code.
    #[test]
    fn the_fallback_fuses_where_the_kernel_fuses() {
        for (mask, n) in [0b10110, 0b100]
            .into_iter()
            .flat_map(|m| (0..=17).chain([118]).map(move |n| (m, n)))
        {
            classes_agree(&format!("row of {n}, lanes {mask:#b}"), |kernel, native| {
                accumulate_row(kernel, native, mask, n)
            });
        }
        // The rows tell a fused body from an unfused one.
        assert_ne!(
            accumulate_row(KernelKind::Avx, false, 0b100, 118),
            accumulate_row(KernelKind::Avx2, false, 0b100, 118)
        );
    }

    /// A closed adaptive grid in 4 dimensions with chains of up to three
    /// factors at levels 2–5.
    fn adaptive_grid() -> SparseGrid {
        let mut grid = SparseGrid::new(4);
        grid.insert(NodeKey::root());
        for s in 0..24usize {
            let coords = (0..1 + s % 3).map(|t| {
                let level = 2 + ((s + t) % 4) as u8;
                let indices = basis::level_indices(level);
                ActiveCoord {
                    dim: ((s + t) % 4) as u16,
                    level,
                    index: indices[(s * 7 + t) % indices.len()],
                }
            });
            grid.insert_closed(NodeKey::from_coords(coords));
        }
        grid
    }

    /// The single-point kernel and the walk, values and gradients, give
    /// the same bits through the native and the portable accumulator, and
    /// for every kernel of a class; and the portable single-point kernel
    /// of a class gives the walk's value rows, the gradient points' too.
    /// On an adaptive grid and on Table II's (d = 59, level 3, where about
    /// a quarter of the chains survive at a point).
    #[test]
    fn native_and_portable_kernels_agree_bitwise() {
        let (ndofs, grads) = (118, 5);
        for (grid, npts) in [(adaptive_grid(), 70), (regular_grid(59, 3), 16)] {
            let dim = grid.dim();
            let surplus: Vec<f64> = (0..grid.len() * ndofs)
                .map(|j| (j as f64 * 0.7548776662).sin())
                .collect();
            let state = CompressedState::new(&grid, &surplus, ndofs);
            let rows = probe_rows(dim, npts);
            let block = PointBlock::from_rows(dim, &rows);
            let single = |kernel, native| {
                let mut out = vec![0.0; npts * ndofs];
                let mut scratch = Scratch::default();
                for (x, o) in rows.chunks_exact(dim).zip(out.chunks_exact_mut(ndofs)) {
                    let job = PointJob {
                        state: &state,
                        x,
                        scratch: &mut scratch,
                        points: 0..state.grid.nno(),
                        out: o,
                    };
                    run(kernel, native, job);
                }
                bits(&out)
            };
            let walk = |kernel, native| {
                let mut values = vec![0.0; npts * ndofs];
                let mut gradient = vec![0.0; grads * dim * 9];
                let job = BlockJob {
                    states: std::slice::from_ref(&state),
                    block: &block,
                    scratch: &mut Scratch::default(),
                    values: &mut values,
                    gradients: Gradients {
                        points: grads,
                        coeffs: 100..109,
                        out: &mut gradient,
                    },
                    sink: |_: ChunkCounts| {},
                };
                run(kernel, native, job);
                [bits(&values), bits(&gradient)]
            };
            classes_agree("single point", single);
            classes_agree("walk", walk);
            for [kernel, _] in CLASSES {
                let ([values, _], single) = (walk(kernel, false), single(kernel, false));
                assert!(values == single, "{} d = {dim}", kernel.name());
            }
        }
    }
}
