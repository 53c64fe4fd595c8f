//! Adaptive (a posteriori) refinement: add the children of nodes whose
//! surplus passes the error-estimator test `g(α) ≥ ε` (Sec. III).

use crate::grid::SparseGrid;
use crate::node::NodeKey;

/// How a surplus row is folded into the scalar refinement indicator `g(α)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SurplusNorm {
    /// `g(α) = max_k |α_k|` — conservative, the default.
    MaxAbs,
    /// `g(α) = (Σ_k α_k²/ndofs)^{1/2}` — averages across dofs.
    Rms,
}

impl SurplusNorm {
    /// Applies the norm to one surplus row.
    pub fn indicator(self, row: &[f64]) -> f64 {
        match self {
            SurplusNorm::MaxAbs => row.iter().fold(0.0f64, |m, v| m.max(v.abs())),
            SurplusNorm::Rms => (row.iter().map(|v| v * v).sum::<f64>() / row.len() as f64).sqrt(),
        }
    }

    /// Batched indicator evaluation: folds the surplus rows of the dense
    /// ids in `ids` (row-major `grid.len() × ndofs` matrix) into
    /// `out[k] = g(α_{ids[k]})` in one pass. The single entry point both
    /// refinement sweeps route their candidate evaluation through — and
    /// the seam a vectorized or offloaded indicator kernel slots into.
    pub fn indicators(self, surpluses: &[f64], ndofs: usize, ids: &[u32], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            ids.iter()
                .map(|&i| self.indicator(&surpluses[i as usize * ndofs..(i as usize + 1) * ndofs])),
        );
    }
}

/// Refinement policy: threshold, depth cap, and indicator norm.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// Refinement threshold ε ≥ 0; children are spawned where `g(α) ≥ ε`.
    pub epsilon: f64,
    /// Maximum one-based level any coordinate may reach (`Lmax` in the
    /// paper's runs, which used `Lmax = 6`).
    pub max_level: u8,
    /// Surplus-to-indicator reduction.
    pub norm: SurplusNorm,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            epsilon: 1e-2,
            max_level: 6,
            norm: SurplusNorm::MaxAbs,
        }
    }
}

/// Outcome of one refinement sweep.
#[derive(Clone, Debug, Default)]
pub struct RefineReport {
    /// Dense indices of the nodes whose indicator passed the threshold.
    pub refined_parents: Vec<u32>,
    /// Dense indices of the newly inserted nodes (children + any ancestors
    /// required to keep the grid closed).
    pub new_nodes: Vec<u32>,
}

/// One refinement sweep: for every node with `g(α_node) ≥ ε` insert all of
/// its children (ancestor-closed), unless a child would exceed `max_level`.
///
/// `surpluses` is row-major `grid.len() × ndofs` and must correspond to the
/// grid *before* the call. Newly created nodes get no surplus here — the
/// caller solves/evaluates them and extends its value matrix (that is the
/// per-level loop of Fig. 2).
pub fn refine(
    grid: &mut SparseGrid,
    surpluses: &[f64],
    ndofs: usize,
    config: &RefineConfig,
) -> RefineReport {
    assert_eq!(surpluses.len(), grid.len() * ndofs);
    let before = grid.len() as u32;
    let candidates: Vec<u32> = (0..before).collect();
    let mut report = sweep(grid, surpluses, ndofs, &candidates, config);
    report.new_nodes = (before..grid.len() as u32).collect();
    debug_assert!(grid.is_ancestor_closed());
    report
}

/// The shared candidate sweep of both refinement variants: evaluates the
/// indicators of `candidates` as one batched pass
/// ([`SurplusNorm::indicators`]), then inserts the passing nodes'
/// children (ancestor-closed, level-capped). `new_nodes` is left for the
/// caller to fill from the grid growth.
fn sweep(
    grid: &mut SparseGrid,
    surpluses: &[f64],
    ndofs: usize,
    candidates: &[u32],
    config: &RefineConfig,
) -> RefineReport {
    let mut report = RefineReport::default();
    let dim = grid.dim();
    let mut indicators = Vec::new();
    config
        .norm
        .indicators(surpluses, ndofs, candidates, &mut indicators);
    // Collect candidate children first so indicator evaluation sees a
    // frozen grid.
    let mut children: Vec<NodeKey> = Vec::new();
    for (&i, &g) in candidates.iter().zip(&indicators) {
        if g >= config.epsilon {
            report.refined_parents.push(i);
            for child in grid.node(i as usize).children(dim) {
                if child.level_max() <= config.max_level {
                    children.push(child);
                }
            }
        }
    }
    for child in children {
        grid.insert_closed(child);
    }
    report
}

/// Refines every node of the current deepest refinement level whose
/// indicator passes — the variant used when the grid is grown level by
/// level inside a time-iteration step (only the freshest level can spawn
/// children, older levels were already swept).
pub fn refine_frontier(
    grid: &mut SparseGrid,
    surpluses: &[f64],
    ndofs: usize,
    frontier: &[u32],
    config: &RefineConfig,
) -> RefineReport {
    assert_eq!(surpluses.len(), grid.len() * ndofs);
    let before = grid.len() as u32;
    let mut report = sweep(grid, surpluses, ndofs, frontier, config);
    report.new_nodes = (before..grid.len() as u32).collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchize::{hierarchize, tabulate};
    use crate::regular::regular_grid;

    #[test]
    fn surplus_norms() {
        let row = [3.0, -4.0];
        assert_eq!(SurplusNorm::MaxAbs.indicator(&row), 4.0);
        assert!((SurplusNorm::Rms.indicator(&row) - (12.5f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn zero_threshold_refines_everything() {
        let mut grid = regular_grid(2, 2);
        let n = grid.len();
        let surpluses = vec![1.0; n];
        let report = refine(
            &mut grid,
            &surpluses,
            1,
            &RefineConfig {
                epsilon: 0.0,
                max_level: 8,
                norm: SurplusNorm::MaxAbs,
            },
        );
        assert_eq!(report.refined_parents.len(), n);
        assert!(grid.len() > n);
        assert!(grid.is_ancestor_closed());
    }

    #[test]
    fn huge_threshold_refines_nothing() {
        let mut grid = regular_grid(2, 3);
        let n = grid.len();
        let surpluses = vec![1.0; n];
        let report = refine(
            &mut grid,
            &surpluses,
            1,
            &RefineConfig {
                epsilon: 10.0,
                max_level: 8,
                norm: SurplusNorm::MaxAbs,
            },
        );
        assert!(report.refined_parents.is_empty());
        assert!(report.new_nodes.is_empty());
        assert_eq!(grid.len(), n);
    }

    #[test]
    fn max_level_caps_depth() {
        let mut grid = regular_grid(1, 3);
        let surpluses = vec![1.0; grid.len()];
        refine(
            &mut grid,
            &surpluses,
            1,
            &RefineConfig {
                epsilon: 0.0,
                max_level: 3,
                norm: SurplusNorm::MaxAbs,
            },
        );
        assert_eq!(grid.max_level(), 3);
    }

    #[test]
    fn adaptivity_localizes_on_a_kink() {
        // f has a kink at x0 = 0.3 (deliberately off the dyadic lattice):
        // refinement should concentrate points near it (the "distinct local
        // features" motivation of Sec. III).
        let kink = 0.3;
        let mut grid = regular_grid(1, 3);
        let config = RefineConfig {
            epsilon: 1e-4,
            max_level: 10,
            norm: SurplusNorm::MaxAbs,
        };
        for _ in 0..8 {
            let mut values = tabulate(&grid, 1, |x, out| {
                out[0] = (x[0] - kink).abs();
            });
            hierarchize(&grid, &mut values, 1);
            let report = refine(&mut grid, &values, 1, &config);
            if report.new_nodes.is_empty() {
                break;
            }
        }
        let mut near = 0usize;
        let mut far = 0usize;
        let mut x = [0.0];
        for i in 0..grid.len() {
            grid.unit_point_of(i, &mut x);
            if grid.node(i).level_max() >= 7 {
                if (x[0] - kink).abs() < 0.12 {
                    near += 1;
                } else {
                    far += 1;
                }
            }
        }
        assert!(near > far, "deep nodes near kink {near} vs far {far}");
    }

    #[test]
    fn frontier_refinement_only_touches_frontier() {
        let mut grid = regular_grid(2, 2);
        // The refinement-level-2 nodes: `|l|_1 = d + 1`.
        let frontier: Vec<u32> = (0..grid.len() as u32)
            .filter(|&i| grid.node(i as usize).level_sum(2) == 3)
            .collect();
        let surpluses = vec![1.0; grid.len()];
        let report = refine_frontier(
            &mut grid,
            &surpluses,
            1,
            &frontier,
            &RefineConfig {
                epsilon: 0.0,
                max_level: 8,
                norm: SurplusNorm::MaxAbs,
            },
        );
        assert_eq!(report.refined_parents.len(), frontier.len());
        assert!(!report.new_nodes.is_empty());
    }
}
