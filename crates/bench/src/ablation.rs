//! Ablation variants of the production kernels: code that exists only to
//! be timed against the real thing by the `ablations` bin, and therefore
//! lives here rather than in `hddm-kernels`' API.

use hddm_asg::linear_basis;
use hddm_compress::CompressedGrid;
use hddm_kernels::{CompressedState, Scratch};

/// Ablation variant of [`hddm_kernels::x86::interpolate`]: the chain walk
/// runs to completion even after `temp` hits zero (the `goto zero` early
/// exit of Fig. 5 is disabled), and dead points still touch their surplus
/// rows with a `temp = 0` multiply. Isolates how much of the kernel's
/// speed comes from skipping the (many) points whose support excludes `x`.
pub fn interpolate_no_skip(
    state: &CompressedState,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
) {
    let cg = &state.grid;
    let ndofs = state.ndofs;
    assert_eq!(x.len(), cg.dim());
    assert_eq!(out.len(), ndofs);
    let xps = cg.xps();
    let xpv = scratch.prepare(xps.len());
    for (v, entry) in xpv.iter_mut().zip(xps) {
        let xp = linear_basis(x[entry.index as usize], entry.l, entry.i);
        *v = xp.max(0.0);
    }
    out.fill(0.0);
    let nfreq = cg.nfreq();
    let chains = cg.chains();
    let surplus = &state.surplus;
    let mut ichain = 0usize;
    for p in 0..cg.nno() {
        let mut temp = 1.0;
        for k in 0..nfreq {
            let idx = chains[ichain + k] as usize;
            // The sentinel chain entry 0 maps to xpv[0] = 1, so absent
            // slots multiply by the neutral element — no branch at all.
            temp *= xpv[idx];
        }
        ichain += nfreq;
        let row = &surplus[p * ndofs..(p + 1) * ndofs];
        for (o, s) in out.iter_mut().zip(row) {
            *o += temp * s;
        }
    }
}

/// Ablation variant of [`hddm_kernels::x86::interpolate`] *without* the
/// surplus matrix reordering: `surplus_grid_order` stays in the original
/// grid order and every live point gathers its row through the `order`
/// indirection. Chains and arithmetic are identical — only the memory
/// access pattern changes from streaming to scattered, which is precisely
/// the effect the paper's "surplus matrix reordering" removes.
pub fn interpolate_unordered(
    grid: &CompressedGrid,
    surplus_grid_order: &[f64],
    ndofs: usize,
    x: &[f64],
    scratch: &mut Scratch,
    out: &mut [f64],
) {
    assert_eq!(x.len(), grid.dim());
    assert_eq!(surplus_grid_order.len(), grid.nno() * ndofs);
    assert_eq!(out.len(), ndofs);
    let xps = grid.xps();
    let xpv = scratch.prepare(xps.len());
    for (v, entry) in xpv.iter_mut().zip(xps) {
        *v = linear_basis(x[entry.index as usize], entry.l, entry.i).max(0.0);
    }
    out.fill(0.0);
    let chains = grid.chains().chunks_exact(grid.nfreq());
    for (chain, &orig) in chains.zip(grid.order()) {
        let mut temp = 1.0;
        for &idx in chain.iter().take_while(|&&idx| idx != 0) {
            temp *= xpv[idx as usize];
            if temp == 0.0 {
                break;
            }
        }
        if temp == 0.0 {
            continue;
        }
        let orig = orig as usize;
        let row = &surplus_grid_order[orig * ndofs..(orig + 1) * ndofs];
        for (o, s) in out.iter_mut().zip(row) {
            *o += temp * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};
    use hddm_kernels::x86;

    #[test]
    fn no_skip_variant_matches_skipping_kernel() {
        let grid = regular_grid(6, 3);
        let ndofs = 3;
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = (k as f64 + 1.0) * x.iter().product::<f64>() + x[0];
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        let mut a = vec![0.0; ndofs];
        let mut b = vec![0.0; ndofs];
        for s in 0..40 {
            let x: Vec<f64> = (0..6)
                .map(|t| ((s * 3 + t * 17) as f64 * 0.0577 + 0.009) % 1.0)
                .collect();
            x86::interpolate(&compressed, &x, &mut scratch, &mut a);
            interpolate_no_skip(&compressed, &x, &mut scratch, &mut b);
            for k in 0..ndofs {
                assert!((a[k] - b[k]).abs() < 1e-12, "s={s} dof={k}");
            }
        }
    }
}
