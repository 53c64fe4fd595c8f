//! The manually vectorized compressed-format kernels: `avx`, `avx2` and
//! `avx512` (Sec. V-A).
//!
//! All three share the structure of the `x86` kernel — xpv fill, scalar
//! chain walk, vectorized surplus accumulation — and differ in the
//! instruction set of the accumulation (`value[dof] += temp ·
//! surplus(i, dof)`, the only loop with enough arithmetic density to
//! vectorize):
//!
//! * **avx** — 4-wide `vmulpd`/`vaddpd` (no FMA, Sandy/Ivy Bridge);
//! * **avx2** — 4-wide `vfmadd231pd` (Haswell/Broadwell);
//! * **avx512** — 8-wide `vfmadd231pd` on zmm registers, plus the paper's
//!   intra-kernel thread parallelization with partial vector sums whose
//!   zero contributions "initiate no actual memory flow"
//!   ([`interpolate_avx512_mt`]).
//!
//! On hosts without the corresponding instruction set the entry points fall
//! back to the portable lane implementations of [`crate::lanes`], which
//! produce identical results with the same blocking.

use crate::data::{CompressedState, Scratch};
use hddm_asg::linear_basis;

/// Which vector ISA a kernel variant targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorIsa {
    /// 4-wide, multiply + add (AVX).
    Avx,
    /// 4-wide, fused multiply-add (AVX2 + FMA).
    Avx2,
    /// 8-wide, fused multiply-add (AVX-512F).
    Avx512,
}

impl VectorIsa {
    /// Whether the running CPU supports this ISA natively.
    pub fn native(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                VectorIsa::Avx => std::arch::is_x86_feature_detected!("avx"),
                VectorIsa::Avx2 => {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                VectorIsa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }
}

/// Shared skeleton: fills `xpv`, walks chains, and calls `axpy(temp, row,
/// out)` for every surviving point.
#[inline(always)]
fn skeleton<F: FnMut(f64, &[f64], &mut [f64])>(
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
    mut axpy: F,
) {
    let cg = &state.grid;
    let ndofs = state.ndofs;
    assert_eq!(x.len(), cg.dim());
    assert_eq!(out.len(), ndofs);
    let xps = cg.xps();
    let xpv = scratch.prepare(xps.len());
    for (v, entry) in xpv.iter_mut().zip(xps) {
        *v = linear_basis(x[entry.index as usize], entry.l, entry.i).max(0.0);
    }
    out.fill(0.0);
    let nfreq = cg.nfreq();
    let chains = cg.chains();
    for (p, chain) in chains.chunks_exact(nfreq).enumerate() {
        let temp = chain_product(chain, xpv);
        if temp == 0.0 {
            continue;
        }
        let row = &state.surplus[p * ndofs..(p + 1) * ndofs];
        axpy(temp, row, out);
    }
}

/// Walks one chain: the product of its xpv factors, 0 when any factor
/// kills it. Slot 0 terminates (the sentinel).
#[inline(always)]
pub fn chain_product(chain: &[u32], xpv: &[f64]) -> f64 {
    let mut temp = 1.0;
    for &idx in chain {
        if idx == 0 {
            break;
        }
        temp *= xpv[idx as usize];
        if temp == 0.0 {
            return 0.0;
        }
    }
    temp
}

/// Safe wrapper around the AVX axpy; callable only after detection.
fn axpy_avx_safe(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert!(VectorIsa::Avx.native());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: selected only when the `avx` feature was detected at runtime.
    unsafe {
        axpy_avx(a, x, y)
    }
    #[cfg(not(target_arch = "x86_64"))]
    crate::lanes::axpy::<4>(a, x, y)
}

/// Safe wrapper around the AVX2+FMA axpy; callable only after detection.
fn axpy_avx2_safe(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert!(VectorIsa::Avx2.native());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: selected only when `avx2` and `fma` were detected at runtime.
    unsafe {
        axpy_avx2(a, x, y)
    }
    #[cfg(not(target_arch = "x86_64"))]
    crate::lanes::axpy::<4>(a, x, y)
}

/// Safe wrapper around the AVX-512F axpy; callable only after detection.
fn axpy_avx512_safe(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert!(VectorIsa::Avx512.native());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: selected only when `avx512f` was detected at runtime.
    unsafe {
        axpy_avx512(a, x, y)
    }
    #[cfg(not(target_arch = "x86_64"))]
    crate::lanes::axpy::<8>(a, x, y)
}

/// An accumulation routine `y += a·x` (shared with the batch kernels).
pub(crate) type Axpy = fn(f64, &[f64], &mut [f64]);

/// Picks the accumulation routine for an ISA, falling back to the portable
/// lane implementation of the same width when the CPU lacks the feature.
pub(crate) fn select_axpy(isa: VectorIsa) -> Axpy {
    match (isa, isa.native()) {
        (VectorIsa::Avx, true) => axpy_avx_safe,
        (VectorIsa::Avx2, true) => axpy_avx2_safe,
        (VectorIsa::Avx512, true) => axpy_avx512_safe,
        (VectorIsa::Avx | VectorIsa::Avx2, false) => crate::lanes::axpy::<4>,
        (VectorIsa::Avx512, false) => crate::lanes::axpy::<8>,
    }
}

/// The `avx` kernel: 4-wide multiply + add.
pub fn interpolate_avx(state: &CompressedState, x: &[f64], scratch: &mut Scratch, out: &mut [f64]) {
    let axpy = select_axpy(VectorIsa::Avx);
    skeleton(state, x, scratch, out, axpy);
}

/// The `avx2` kernel: 4-wide FMA.
pub fn interpolate_avx2(
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
) {
    let axpy = select_axpy(VectorIsa::Avx2);
    skeleton(state, x, scratch, out, axpy);
}

/// The `avx512` kernel (single-threaded core): 8-wide FMA on zmm registers.
pub fn interpolate_avx512(
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
) {
    let axpy = select_axpy(VectorIsa::Avx512);
    skeleton(state, x, scratch, out, axpy);
}

/// The full `avx512` kernel of Sec. V-A: the point loop is split across
/// `threads` workers, each producing a partial vector sum with 512-bit FMA;
/// partials that received no contribution are skipped in the reduction
/// ("handled specially to initiate no actual memory flow").
pub fn interpolate_avx512_mt(state: &CompressedState, x: &[f64], threads: usize, out: &mut [f64]) {
    let cg = &state.grid;
    let ndofs = state.ndofs;
    assert_eq!(x.len(), cg.dim());
    assert_eq!(out.len(), ndofs);
    let threads = threads.max(1);
    let nno = cg.nno();
    if threads == 1 || nno < 4 * threads {
        let mut scratch = Scratch::default();
        interpolate_avx512(state, x, &mut scratch, out);
        return;
    }

    // xpv is shared read-only across workers (it is small — the paper maps
    // it to L1/shared memory).
    let xps = cg.xps();
    let mut xpv = vec![0.0f64; xps.len()];
    for (v, entry) in xpv.iter_mut().zip(xps) {
        *v = linear_basis(x[entry.index as usize], entry.l, entry.i).max(0.0);
    }

    let nfreq = cg.nfreq();
    let chains = cg.chains();
    let surplus = &state.surplus;
    let chunk = nno.div_ceil(threads);
    let axpy = select_axpy(VectorIsa::Avx512);
    let mut partials: Vec<(bool, Vec<f64>)> = Vec::with_capacity(threads);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(nno);
            let xpv = &xpv;
            handles.push(scope.spawn(move || {
                let mut partial = vec![0.0f64; ndofs];
                let mut touched = false;
                for p in lo..hi {
                    let temp = chain_product(&chains[p * nfreq..(p + 1) * nfreq], xpv);
                    if temp == 0.0 {
                        continue;
                    }
                    touched = true;
                    let row = &surplus[p * ndofs..(p + 1) * ndofs];
                    axpy(temp, row, &mut partial);
                }
                (touched, partial)
            }));
        }
        for h in handles {
            partials.push(h.join().expect("avx512 worker panicked"));
        }
    });

    out.fill(0.0);
    for (touched, partial) in &partials {
        if !*touched {
            continue; // zero partial: no memory traffic
        }
        crate::lanes::add_assign::<8>(partial, out);
    }
}

/// Best-available axpy on this host (AVX-512 → AVX2 → portable); exported
/// for reuse by the GPU simulator and the solver's dense updates.
#[inline]
pub fn axpy_best(a: f64, x: &[f64], y: &mut [f64]) {
    if VectorIsa::Avx512.native() {
        axpy_avx512_safe(a, x, y);
    } else if VectorIsa::Avx2.native() {
        axpy_avx2_safe(a, x, y);
    } else {
        crate::lanes::axpy::<8>(a, x, y);
    }
}

// SAFETY: caller must ensure the host supports AVX (the
// `#[target_feature]` contract) and that `x.len() == y.len()`. All
// loads/stores stay below `n = x.len()`: the vector loop stops at
// `k + 4 <= n` and the scalar tail at `k < n`, so `get_unchecked` and
// the unaligned intrinsics never touch past either slice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn axpy_avx(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm256_set1_pd(a);
    let mut k = 0usize;
    while k + 4 <= n {
        let vx = _mm256_loadu_pd(x.as_ptr().add(k));
        let vy = _mm256_loadu_pd(y.as_ptr().add(k));
        let prod = _mm256_mul_pd(va, vx);
        _mm256_storeu_pd(y.as_mut_ptr().add(k), _mm256_add_pd(vy, prod));
        k += 4;
    }
    while k < n {
        *y.get_unchecked_mut(k) += a * x.get_unchecked(k);
        k += 1;
    }
}

// SAFETY: caller must ensure the host supports AVX2+FMA and that
// `x.len() == y.len()`; same in-bounds argument as [`axpy_avx`] (vector
// loop bounded by `k + 4 <= n`, scalar tail by `k < n`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm256_set1_pd(a);
    let mut k = 0usize;
    while k + 4 <= n {
        let vx = _mm256_loadu_pd(x.as_ptr().add(k));
        let vy = _mm256_loadu_pd(y.as_ptr().add(k));
        _mm256_storeu_pd(y.as_mut_ptr().add(k), _mm256_fmadd_pd(va, vx, vy));
        k += 4;
    }
    while k < n {
        *y.get_unchecked_mut(k) += a * x.get_unchecked(k);
        k += 1;
    }
}

// SAFETY: caller must ensure the host supports AVX-512F and that
// `x.len() == y.len()`. The full-width loop is bounded by `k + 8 <= n`;
// the tail uses masked loads/stores whose mask `(1 << (n - k)) - 1`
// enables exactly the `n - k < 8` in-bounds lanes, so no out-of-bounds
// element is ever touched.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm512_set1_pd(a);
    let mut k = 0usize;
    while k + 8 <= n {
        let vx = _mm512_loadu_pd(x.as_ptr().add(k));
        let vy = _mm512_loadu_pd(y.as_ptr().add(k));
        _mm512_storeu_pd(y.as_mut_ptr().add(k), _mm512_fmadd_pd(va, vx, vy));
        k += 8;
    }
    if k < n {
        // Masked tail: AVX-512 handles ragged ndofs (118 = 14·8 + 6).
        let mask = (1u8 << (n - k)) - 1;
        let vx = _mm512_maskz_loadu_pd(mask, x.as_ptr().add(k));
        let vy = _mm512_maskz_loadu_pd(mask, y.as_ptr().add(k));
        _mm512_mask_storeu_pd(y.as_mut_ptr().add(k), mask, _mm512_fmadd_pd(va, vx, vy));
    }
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
                    .map(|(t, &v)| ((t + k + 1) as f64 * v).cos())
                    .product();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        CompressedState::new(&grid, &surplus, ndofs)
    }

    fn probe_points(dim: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|s| {
                (0..dim)
                    .map(|t| ((s * 31 + t * 17) as f64 * 0.02347 + 0.005) % 1.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_vector_kernels_match_scalar() {
        // ndofs = 118 exercises the masked AVX-512 tail (118 = 14·8 + 6)
        // and the 4-wide remainder path (118 = 29·4 + 2).
        let state = make_state(4, 3, 118);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; 118];
        let mut got = vec![0.0; 118];
        for x in probe_points(4, 25) {
            crate::x86::interpolate(&state, &x, &mut scratch, &mut want);
            for kernel in [interpolate_avx, interpolate_avx2, interpolate_avx512] {
                kernel(&state, &x, &mut scratch, &mut got);
                for k in 0..118 {
                    assert!(
                        (got[k] - want[k]).abs() < 1e-12,
                        "dof {k}: {} vs {}",
                        got[k],
                        want[k]
                    );
                }
            }
        }
    }

    #[test]
    fn multithreaded_avx512_matches_single() {
        let state = make_state(3, 4, 7);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; 7];
        let mut got = vec![0.0; 7];
        for x in probe_points(3, 10) {
            interpolate_avx512(&state, &x, &mut scratch, &mut want);
            for threads in [1usize, 2, 3, 8] {
                interpolate_avx512_mt(&state, &x, threads, &mut got);
                for k in 0..7 {
                    assert!(
                        (got[k] - want[k]).abs() < 1e-12,
                        "threads={threads} dof {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn isa_detection_is_consistent() {
        // On any host, native() must at least not panic; on x86_64 with
        // AVX2, AVX is implied.
        let avx = VectorIsa::Avx.native();
        let avx2 = VectorIsa::Avx2.native();
        if avx2 {
            assert!(avx, "AVX2 implies AVX");
        }
    }

    #[test]
    fn chain_product_short_circuits() {
        let xpv = [1.0, 0.5, 0.0, 2.0];
        assert_eq!(chain_product(&[1, 3], &xpv), 1.0);
        assert_eq!(chain_product(&[2, 3], &xpv), 0.0);
        assert_eq!(chain_product(&[0, 3], &xpv), 1.0); // terminator first
        assert_eq!(chain_product(&[3, 1, 0], &xpv), 1.0);
    }
}
