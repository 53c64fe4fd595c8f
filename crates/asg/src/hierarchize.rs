//! Hierarchization: turning nodal values into hierarchical surpluses
//! (`α_{ľ,í}` of Eq. 12/14) and back.
//!
//! The transform is applied dimension-wise (the *unidirectional principle*):
//! for each dimension `t`, the grid points that agree in every other
//! dimension form a one-dimensional sub-hierarchy, on which the 1-D stencil
//! runs fine-to-coarse:
//!
//! * level 1: surplus = value (the constant basis),
//! * level 2: `α = v − v(root)` (the level-1 "prediction" at the boundary
//!   is the constant interpolant),
//! * level `l ≥ 3`: `α = v − ½·(v_left + v_right)` with the support
//!   endpoints of Eq. (5) as neighbors.
//!
//! A [`Stencil`] is that list of updates for one grid, built once: for
//! each dimension in order, one `(row, left, right, level)` entry per node
//! above level 1 there, its endpoints found with [`SparseGrid::find`],
//! stably sorted finest level first. Applying it is one flat loop
//! (reversed within each dimension for the inverse), so a grid that is
//! hierarchized many times — the start grid every state of a
//! time-iteration step shares — pays for the lookups once.
//!
//! **Why one flat order gives the same bits as sub-hierarchy by
//! sub-hierarchy.** Dimension `t`'s sub-hierarchies touch disjoint rows,
//! so they may interleave. Within one, an update reads only strictly
//! coarser rows of its own sub-hierarchy (the root, or support endpoints of
//! lower levels), so updates of equal level do not depend on each other and
//! any level-sorted order performs, per row, the same operations on the
//! same operands. `tests/properties.rs` keeps a sub-hierarchy-wise
//! transform as the reference and compares with `to_bits`.
//!
//! Validity requires the grid to be **ancestor-closed**
//! ([`SparseGrid::insert_closed`]) so every endpoint value exists. Each
//! point carries `ndofs` degrees of freedom (a surplus-matrix row); the
//! stencil is applied row-wise, which is exactly the memory layout the
//! vectorized kernels consume.

use std::cmp::Reverse;
use std::ops::Range;

use crate::basis;
use crate::grid::SparseGrid;

/// In-place nodal-values → hierarchical-surpluses transform.
///
/// `values` is row-major `grid.len() × ndofs`, row `i` belonging to
/// `grid.node(i)`. Builds the grid's [`Stencil`]; keep one instead when
/// the same grid is hierarchized again.
///
/// # Panics
/// If the matrix shape is wrong or the grid is not ancestor-closed.
pub fn hierarchize(grid: &SparseGrid, values: &mut [f64], ndofs: usize) {
    Stencil::of(grid).hierarchize(values, ndofs);
}

/// In-place hierarchical-surpluses → nodal-values transform (the inverse of
/// [`hierarchize`]); used by tests and by incremental refinement restarts.
pub fn dehierarchize(grid: &SparseGrid, values: &mut [f64], ndofs: usize) {
    Stencil::of(grid).dehierarchize(values, ndofs);
}

/// One 1-D update, `row ∓= wl·left + wr·right` (rows are dense node ids),
/// its weights fixed by `level`.
#[derive(Clone, Copy, Debug)]
struct Update {
    row: u32,
    left: u32,
    right: u32,
    level: u8,
}

/// The hierarchization updates of one grid, independent of the values and
/// of `ndofs` (see the module docs).
#[derive(Clone, Debug)]
pub struct Stencil {
    /// Points of the grid it was built for.
    len: usize,
    /// `updates[dims[t].clone()]` are dimension `t`'s, finest level first.
    dims: Vec<Range<usize>>,
    updates: Vec<Update>,
}

impl Stencil {
    /// Lists the updates of `grid`.
    ///
    /// # Panics
    /// If an endpoint is missing (the grid is not ancestor-closed); the
    /// message names the endpoint and the dimension.
    pub fn of(grid: &SparseGrid) -> Stencil {
        let mut dims = Vec::with_capacity(grid.dim());
        let mut updates = Vec::new();
        for t in 0..grid.dim() as u16 {
            let first = updates.len();
            for (row, node) in grid.nodes().iter().enumerate() {
                let find = |level, index| grid.find(&node.with_coord(t, level, index));
                let (level, index) = node.coord(t);
                let (left, right) = match level {
                    1 => continue,
                    2 => {
                        let root = find(1, 1).unwrap_or_else(|| {
                            panic!("grid not ancestor-closed: missing root in dim {t}")
                        });
                        (root, root)
                    }
                    _ => {
                        let endpoint = |(l, i): (u8, u32)| {
                            find(l, i).unwrap_or_else(|| {
                                panic!("grid not ancestor-closed: missing {:?} in dim {t}", (l, i))
                            })
                        };
                        let (lp, rp) = basis::support_endpoints(level, index);
                        (endpoint(lp), endpoint(rp))
                    }
                };
                let row = row as u32;
                updates.push(Update {
                    row,
                    left,
                    right,
                    level,
                });
            }
            updates[first..].sort_by_key(|u| Reverse(u.level));
            dims.push(first..updates.len());
        }
        Stencil {
            len: grid.len(),
            dims,
            updates,
        }
    }

    /// In-place nodal values → surpluses (see [`hierarchize`]).
    pub fn hierarchize(&self, values: &mut [f64], ndofs: usize) {
        self.transform(values, ndofs, Direction::Forward);
    }

    /// In-place surpluses → nodal values (see [`dehierarchize`]).
    pub fn dehierarchize(&self, values: &mut [f64], ndofs: usize) {
        self.transform(values, ndofs, Direction::Backward);
    }

    fn transform(&self, values: &mut [f64], ndofs: usize, dir: Direction) {
        assert_eq!(
            values.len(),
            self.len * ndofs,
            "value matrix must be len() x ndofs"
        );
        let mut scratch = vec![0.0f64; ndofs];
        let at = |id: u32| id as usize * ndofs;
        let mut update = |u: &Update| {
            let (wl, wr) = if u.level == 2 { (1.0, 0.0) } else { (0.5, 0.5) };
            let (row, left, right) = (at(u.row), at(u.left), at(u.right));
            apply(values, row, left, right, wl, wr, ndofs, dir, &mut scratch);
        };
        for range in &self.dims {
            let updates = self.updates[range.clone()].iter();
            // Fine-to-coarse for hierarchization, coarse-to-fine for the
            // inverse (so "predictions" always use fully (un)transformed data).
            match dir {
                Direction::Forward => updates.for_each(&mut update),
                Direction::Backward => updates.rev().for_each(&mut update),
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Forward,
    Backward,
}

/// `row ∓= wl·left + wr·right` (minus for forward, plus for backward).
#[allow(clippy::too_many_arguments)]
#[inline]
fn apply(
    values: &mut [f64],
    row: usize,
    left: usize,
    right: usize,
    wl: f64,
    wr: f64,
    ndofs: usize,
    dir: Direction,
    scratch: &mut [f64],
) {
    for k in 0..ndofs {
        scratch[k] = wl * values[left + k] + wr * values[right + k];
    }
    let target = &mut values[row..row + ndofs];
    match dir {
        Direction::Forward => {
            for k in 0..ndofs {
                target[k] -= scratch[k];
            }
        }
        Direction::Backward => {
            for k in 0..ndofs {
                target[k] += scratch[k];
            }
        }
    }
}

/// Evaluates the interpolant defined by (grid, surpluses) at a unit-cube
/// point — the straightforward reference implementation (Eq. 14). The
/// optimized equivalents live in `hddm-kernels`; this one exists to define
/// correctness.
pub fn interpolate_reference(
    grid: &SparseGrid,
    surpluses: &[f64],
    ndofs: usize,
    x: &[f64],
    out: &mut [f64],
) {
    assert_eq!(x.len(), grid.dim());
    assert_eq!(out.len(), ndofs);
    assert_eq!(surpluses.len(), grid.len() * ndofs);
    out.fill(0.0);
    for (i, node) in grid.nodes().iter().enumerate() {
        let weight = node.basis_at(x);
        if weight == 0.0 {
            continue;
        }
        let row = &surpluses[i * ndofs..(i + 1) * ndofs];
        for (o, s) in out.iter_mut().zip(row) {
            *o += weight * s;
        }
    }
}

/// Fills `values` (row-major `grid.len() × ndofs`) by evaluating `f` at
/// every grid point; convenience for building interpolants of known
/// functions.
pub fn tabulate<F>(grid: &SparseGrid, ndofs: usize, mut f: F) -> Vec<f64>
where
    F: FnMut(&[f64], &mut [f64]),
{
    let mut values = vec![0.0; grid.len() * ndofs];
    let mut x = vec![0.0; grid.dim()];
    for i in 0..grid.len() {
        grid.unit_point_of(i, &mut x);
        f(&x, &mut values[i * ndofs..(i + 1) * ndofs]);
    }
    values
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::node::{ActiveCoord, NodeKey};
    use crate::regular::regular_grid;

    fn key(coords: &[(u16, u8, u32)]) -> NodeKey {
        NodeKey::from_coords(coords.iter().map(|&(dim, level, index)| ActiveCoord {
            dim,
            level,
            index,
        }))
    }

    /// Interpolation must reproduce the tabulated values exactly at every
    /// grid point — the defining property of hierarchization.
    fn assert_exact_at_nodes(grid: &SparseGrid, ndofs: usize) {
        let values = tabulate(grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| (t + k + 1) as f64 * v * v)
                    .sum::<f64>()
                    + (k as f64).sin();
            }
        });
        let mut surpluses = values.clone();
        hierarchize(grid, &mut surpluses, ndofs);
        let mut x = vec![0.0; grid.dim()];
        let mut out = vec![0.0; ndofs];
        for i in 0..grid.len() {
            grid.unit_point_of(i, &mut x);
            interpolate_reference(grid, &surpluses, ndofs, &x, &mut out);
            for k in 0..ndofs {
                let expected = values[i * ndofs + k];
                assert!(
                    (out[k] - expected).abs() < 1e-12,
                    "node {i} dof {k}: {} vs {}",
                    out[k],
                    expected
                );
            }
        }
    }

    #[test]
    fn exact_on_regular_grids() {
        assert_exact_at_nodes(&regular_grid(1, 4), 1);
        assert_exact_at_nodes(&regular_grid(2, 4), 3);
        assert_exact_at_nodes(&regular_grid(3, 3), 2);
        assert_exact_at_nodes(&regular_grid(4, 3), 1);
    }

    #[test]
    fn exact_on_adaptive_grid() {
        let mut grid = SparseGrid::new(2);
        grid.insert_closed(key(&[(0, 4, 3), (1, 2, 0)]));
        grid.insert_closed(key(&[(1, 3, 3)]));
        assert_exact_at_nodes(&grid, 2);
    }

    #[test]
    fn roundtrip_hierarchize_dehierarchize() {
        let grid = regular_grid(3, 4);
        let original = tabulate(&grid, 2, |x, out| {
            out[0] = (x[0] * 3.0 + x[1]).cos();
            out[1] = x[2].exp();
        });
        let mut work = original.clone();
        hierarchize(&grid, &mut work, 2);
        dehierarchize(&grid, &mut work, 2);
        for (a, b) in work.iter().zip(&original) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_function_has_single_surplus() {
        let grid = regular_grid(3, 3);
        let mut values = vec![7.5; grid.len()];
        hierarchize(&grid, &mut values, 1);
        let root = grid.find(&NodeKey::root()).unwrap() as usize;
        for (i, v) in values.iter().enumerate() {
            if i == root {
                assert!((v - 7.5).abs() < 1e-14);
            } else {
                assert!(v.abs() < 1e-14, "non-root surplus {v} at {i}");
            }
        }
    }

    #[test]
    fn multilinear_function_is_reproduced_everywhere_with_boundary() {
        // With boundary points (level 2) present, a 1-D piecewise-linear
        // interpolant reproduces x exactly once level >= 2 in that dim.
        let grid = regular_grid(1, 3);
        let mut values = tabulate(&grid, 1, |x, out| out[0] = 2.0 * x[0] - 0.5);
        hierarchize(&grid, &mut values, 1);
        let mut out = [0.0];
        for k in 0..=16 {
            let x = [k as f64 / 16.0];
            interpolate_reference(&grid, &values, 1, &x, &mut out);
            assert!(
                (out[0] - (2.0 * x[0] - 0.5)).abs() < 1e-12,
                "x={} -> {}",
                x[0],
                out[0]
            );
        }
    }

    #[test]
    fn surplus_decay_for_smooth_function() {
        // |α| = O(2^{-2|ľ|₁}) for smooth f (Sec. III): deeper surpluses
        // should be markedly smaller on average.
        let grid = regular_grid(2, 5);
        let mut values = tabulate(&grid, 1, |x, out| {
            out[0] = (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).cos()
        });
        hierarchize(&grid, &mut values, 1);
        let mut by_level: HashMap<u32, (f64, usize)> = HashMap::new();
        for (i, node) in grid.nodes().iter().enumerate() {
            let level = node.level_sum(2);
            let e = by_level.entry(level).or_default();
            e.0 += values[i].abs();
            e.1 += 1;
        }
        let avg = |l: u32| {
            let (sum, count) = by_level[&l];
            sum / count as f64
        };
        // Compare interior hierarchical levels (boundary levels 2-3 carry
        // large corrections by construction).
        assert!(
            avg(6) < avg(4),
            "avg|α| level 6 {} !< level 4 {}",
            avg(6),
            avg(4)
        );
    }
}
