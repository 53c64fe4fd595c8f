//! Portable fixed-width lane helpers.
//!
//! These mirror the 4-wide (AVX/AVX2) and 8-wide (AVX-512) register
//! blocking of the intrinsic kernels using plain arrays, so the `avx*`
//! kernel entry points still run — with identical results and the same
//! blocking structure — on hardware without the corresponding instruction
//! sets. LLVM auto-vectorizes these loops where the ISA allows.

/// `y[k] += a * x[k]` blocked `N` lanes at a time, with a scalar tail.
#[inline(always)]
pub fn axpy<const N: usize>(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(N);
    let mut yc = y.chunks_exact_mut(N);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        let mut lane = [0.0f64; N];
        for k in 0..N {
            lane[k] = a * xs[k];
        }
        for k in 0..N {
            ys[k] += lane[k];
        }
    }
    for (xs, ys) in xc.remainder().iter().zip(yc.into_remainder()) {
        *ys += a * xs;
    }
}

/// `y[k] += x[k]` blocked `N` lanes at a time (used for partial-sum
/// reductions).
#[inline(always)]
pub fn add_assign<const N: usize>(x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(N);
    let mut yc = y.chunks_exact_mut(N);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for k in 0..N {
            ys[k] += xs[k];
        }
    }
    for (xs, ys) in xc.remainder().iter().zip(yc.into_remainder()) {
        *ys += xs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar() {
        for len in [0usize, 1, 3, 4, 7, 8, 117, 118, 128] {
            let x: Vec<f64> = (0..len).map(|v| v as f64 * 0.5 - 3.0).collect();
            let mut y4: Vec<f64> = (0..len).map(|v| v as f64).collect();
            let mut y8 = y4.clone();
            let mut yref = y4.clone();
            axpy::<4>(1.75, &x, &mut y4);
            axpy::<8>(1.75, &x, &mut y8);
            for (r, xv) in yref.iter_mut().zip(&x) {
                *r += 1.75 * xv;
            }
            assert_eq!(y4, yref, "len={len}");
            assert_eq!(y8, yref, "len={len}");
        }
    }

    #[test]
    fn add_assign_matches_scalar() {
        let x: Vec<f64> = (0..118).map(|v| (v as f64).sin()).collect();
        let mut y = vec![1.0; 118];
        add_assign::<8>(&x, &mut y);
        for (k, v) in y.iter().enumerate() {
            assert!((v - (1.0 + x[k])).abs() < 1e-15);
        }
    }
}
