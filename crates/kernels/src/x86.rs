//! The `x86` kernel: the compressed data format "in a most trivial way" —
//! scalar code, no explicit vectorization (Fig. 5 left). This is the
//! kernel that isolates the benefit of the data structure itself
//! (≈4.4×/4.15× over `gold` in Fig. 6).

use crate::data::{CompressedState, Scratch};
use hddm_asg::linear_basis;

/// Evaluates the interpolant at unit-cube point `x`, accumulating into
/// `out` (cleared first). Complexity `|xps| + nno × nfreq` plus the surplus
/// accumulation.
pub fn interpolate(state: &CompressedState, x: &[f64], scratch: &mut Scratch, out: &mut [f64]) {
    let cg = &state.grid;
    let ndofs = state.ndofs;
    assert_eq!(x.len(), cg.dim());
    assert_eq!(out.len(), ndofs);
    let xps = cg.xps();
    let xpv = scratch.prepare(xps.len());

    // Loop 1 of Fig. 5 (left): the meaningful 1-D basis evaluations.
    for (v, entry) in xpv.iter_mut().zip(xps) {
        let xp = linear_basis(x[entry.index as usize], entry.l, entry.i);
        *v = xp.max(0.0);
    }

    // Loop 2: chain walk + surplus accumulation.
    out.fill(0.0);
    let nfreq = cg.nfreq();
    let chains = cg.chains();
    let surplus = &state.surplus;
    let mut ichain = 0usize;
    for p in 0..cg.nno() {
        let mut temp = 1.0;
        let mut dead = false;
        for k in 0..nfreq {
            let idx = chains[ichain + k] as usize;
            if idx == 0 {
                break;
            }
            temp *= xpv[idx];
            if temp == 0.0 {
                dead = true;
                break;
            }
        }
        ichain += nfreq;
        if dead {
            continue;
        }
        let row = &surplus[p * ndofs..(p + 1) * ndofs];
        for (o, s) in out.iter_mut().zip(row) {
            *o += temp * s;
        }
    }
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
