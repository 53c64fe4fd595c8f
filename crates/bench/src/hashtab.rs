//! Hash-table ASG interpolation — the *other* conventional storage scheme.
//!
//! Sec. IV-B of the paper opens: "the most widespread techniques for
//! storing ASGs are matrix-kind of structures (see, e.g., [23]) or **hash
//! tables** (see, e.g., [22])". The dense matrix baseline is the `gold`
//! kernel; this module supplies the hash-table baseline so the `ablations`
//! bin — its one caller — can place the compression scheme against *both*
//! incumbents.
//!
//! Evaluation exploits that within one 1-D level the hat supports tile the
//! interval: at a point `x` and level multi-index `ľ` at most one tensor
//! basis is non-zero, and its index vector `í(x, ľ)` is computable in
//! `O(d_active)`. The interpolant is therefore a loop over the *occupied
//! level sets* of the grid with one hash probe each:
//!
//! ```text
//! u(x) = Σ_{ľ occupied} φ_{ľ,í(x,ľ)}(x) · α_{ľ,í(x,ľ)}   (if present)
//! ```
//!
//! Compared with the compressed chains format this does asymptotically
//! *less* arithmetic (`#levels ≪ nno` probes), but every probe is a
//! pointer-chasing hash lookup with poor locality — exactly the trade-off
//! the paper's compression resolves in favour of streaming.

use std::collections::HashMap;

use hddm_asg::{support_index, NodeKey, SparseGrid};

/// One occupied level multi-index, stored sparsely: the dimensions whose
/// level exceeds 1, ascending.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct LevelKey(Box<[(u16, u8)]>);

impl LevelKey {
    fn of(node: &NodeKey) -> Self {
        LevelKey(node.active().map(|c| (c.dim, c.level)).collect())
    }
}

/// Interpolant in hash-table storage: surplus rows keyed by `(ľ, í)`, plus
/// the list of occupied level sets the evaluator walks.
#[derive(Clone, Debug)]
pub struct HashState {
    dim: usize,
    /// Degrees of freedom per point.
    pub ndofs: usize,
    /// Row-major `nno × ndofs` surpluses in grid order.
    pub surplus: Vec<f64>,
    table: HashMap<NodeKey, u32>,
    levels: Vec<LevelKey>,
}

impl HashState {
    /// Indexes a grid and its (grid-ordered) surpluses into a hash table.
    pub fn new(grid: &SparseGrid, surplus_grid_order: &[f64], ndofs: usize) -> Self {
        assert_eq!(surplus_grid_order.len(), grid.len() * ndofs);
        let mut table = HashMap::with_capacity(grid.len());
        let mut levels = Vec::new();
        let mut seen: HashMap<LevelKey, ()> = HashMap::new();
        for (row, node) in grid.nodes().iter().enumerate() {
            table.insert(node.clone(), row as u32);
            let lk = LevelKey::of(node);
            if seen.insert(lk.clone(), ()).is_none() {
                levels.push(lk);
            }
        }
        HashState {
            dim: grid.dim(),
            ndofs,
            surplus: surplus_grid_order.to_vec(),
            table,
            levels,
        }
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of occupied level sets (the probe count per evaluation).
    #[inline]
    pub fn num_level_sets(&self) -> usize {
        self.levels.len()
    }

    /// Number of stored points.
    #[inline]
    pub fn nno(&self) -> usize {
        self.table.len()
    }
}

/// Evaluates the hash-stored interpolant at unit-cube `x`, accumulating
/// into `out` (cleared first). One hash probe per occupied level set.
pub fn interpolate(state: &HashState, x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), state.dim);
    assert_eq!(out.len(), state.ndofs);
    out.fill(0.0);
    let ndofs = state.ndofs;
    let mut coords: Vec<(u16, u8, u32)> = Vec::with_capacity(8);
    'levels: for lk in &state.levels {
        let mut temp = 1.0;
        coords.clear();
        for &(dim, level) in lk.0.iter() {
            match support_index(level, x[dim as usize]) {
                Some((i, v)) => {
                    temp *= v;
                    coords.push((dim, level, i));
                }
                None => continue 'levels,
            }
        }
        let key = NodeKey::from_coords(
            coords
                .iter()
                .map(|&(dim, level, index)| hddm_asg::ActiveCoord { dim, level, index }),
        );
        if let Some(&row) = state.table.get(&key) {
            let r = row as usize * ndofs;
            for (o, s) in out.iter_mut().zip(&state.surplus[r..r + ndofs]) {
                *o += temp * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate, ActiveCoord};
    use hddm_kernels::{gold, DenseState};

    fn wavy(x: &[f64], out: &mut [f64]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = x
                .iter()
                .enumerate()
                .map(|(t, &v)| ((t + k + 1) as f64 * v).cos() + v * v)
                .sum();
        }
    }

    fn check_against_gold(grid: &SparseGrid, ndofs: usize) {
        let mut surplus = tabulate(grid, ndofs, wavy);
        hierarchize(grid, &mut surplus, ndofs);
        let dense = DenseState::new(grid, surplus.clone(), ndofs);
        let hashed = HashState::new(grid, &surplus, ndofs);
        let mut got = vec![0.0; ndofs];
        let mut want = vec![0.0; ndofs];
        for s in 0..60 {
            let x: Vec<f64> = (0..grid.dim())
                .map(|t| ((s * 11 + t * 7) as f64 * 0.0719 + 0.013) % 1.0)
                .collect();
            interpolate(&hashed, &x, &mut got);
            gold::interpolate(&dense, &x, &mut want);
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

    #[test]
    fn matches_gold_on_regular_grids() {
        for dim in [1usize, 2, 4, 6] {
            for n in 2..=4u8 {
                check_against_gold(&regular_grid(dim, n), 3);
            }
        }
    }

    #[test]
    fn matches_gold_on_adaptive_grid() {
        let mut grid = SparseGrid::new(4);
        grid.insert_closed(NodeKey::from_coords([
            ActiveCoord {
                dim: 0,
                level: 5,
                index: 7,
            },
            ActiveCoord {
                dim: 3,
                level: 3,
                index: 1,
            },
        ]));
        grid.insert_closed(NodeKey::from_coords([
            ActiveCoord {
                dim: 1,
                level: 4,
                index: 5,
            },
            ActiveCoord {
                dim: 2,
                level: 2,
                index: 2,
            },
        ]));
        check_against_gold(&grid, 2);
    }

    #[test]
    fn exact_at_grid_points() {
        let grid = regular_grid(3, 4);
        let ndofs = 2;
        let values = tabulate(&grid, ndofs, wavy);
        let mut surplus = values.clone();
        hierarchize(&grid, &mut surplus, ndofs);
        let hashed = HashState::new(&grid, &surplus, ndofs);
        let mut out = vec![0.0; ndofs];
        let mut x = vec![0.0; 3];
        for i in 0..grid.len() {
            grid.unit_point_of(i, &mut x);
            interpolate(&hashed, &x, &mut out);
            for k in 0..ndofs {
                assert!((out[k] - values[i * ndofs + k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn level_set_count_is_small_for_high_dim() {
        // d = 59, level 3: level sets are {root} ∪ {one dim at 2} ∪ {one dim
        // at 3} ∪ {two dims at 2} = 1 + 59 + 59 + C(59,2) = 1830.
        let grid = regular_grid(59, 3);
        let hashed = HashState::new(&grid, &vec![0.0; grid.len()], 1);
        assert_eq!(hashed.num_level_sets(), 1 + 59 + 59 + 59 * 58 / 2);
        assert_eq!(hashed.nno(), 7081);
    }
}
