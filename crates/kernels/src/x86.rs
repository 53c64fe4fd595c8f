//! The `x86` kernel: the compressed data format "in a most trivial way" —
//! scalar code, no explicit vectorization (Fig. 5 left). This is the
//! kernel that isolates the benefit of the data structure itself
//! (≈4.4×/4.15× over `gold` in Fig. 6).

use crate::data::{CompressedState, Scratch};
use crate::KernelKind;

/// Evaluates the interpolant at unit-cube point `x`, accumulating into
/// `out` (cleared first). Complexity `|xps| + nno × nfreq` plus the surplus
/// accumulation: Fig. 5 (left)'s two loops, the basis fill and the chain
/// walk with its early exit, which every compressed kernel shares.
pub fn interpolate(state: &CompressedState, x: &[f64], scratch: &mut Scratch, out: &mut [f64]) {
    KernelKind::X86.evaluate_compressed(state, x, scratch, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DenseState;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    #[test]
    fn matches_gold_kernel() {
        let grid = regular_grid(5, 3);
        let ndofs = 4;
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x.iter().map(|v| v.powi(k as i32 + 1)).sum();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        let mut got = vec![0.0; ndofs];
        let mut want = vec![0.0; ndofs];
        for s in 0..50 {
            let x: Vec<f64> = (0..5)
                .map(|t| ((s * 7 + t * 13) as f64 * 0.0831 + 0.021) % 1.0)
                .collect();
            interpolate(&compressed, &x, &mut scratch, &mut got);
            crate::gold::interpolate(&dense, &x, &mut want);
            for k in 0..ndofs {
                assert!(
                    (got[k] - want[k]).abs() < 1e-12,
                    "s={s} dof={k}: {} vs {}",
                    got[k],
                    want[k]
                );
            }
        }
    }
}
