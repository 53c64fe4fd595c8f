//! Golden-value kernel equivalence: on randomized adaptive grids with
//! randomized surpluses and evaluation points (seeded `ChaCha8Rng`, so CI
//! is deterministic), every optimized path must agree with the dense
//! `gold` baseline to ≤ 1e-12 — the compressed scalar kernel and each
//! vectorized kernel.
//!
//! The paper's claim (Sec. IV-B/V-A) is that compression and
//! vectorization are *exact* reformulations, not approximations; this
//! suite pins that with absolute tolerances an order of magnitude below
//! the proptest suites' 1e-10.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{basis, regular_grid, ActiveCoord, NodeKey, SparseGrid};
use hddm_kernels::{gold, x86, CompressedState, DenseState, KernelKind, Scratch};

const TOL: f64 = 1e-12;

/// A random ancestor-closed adaptive grid in `dim` dimensions.
fn random_grid(dim: usize, nodes: usize, rng: &mut ChaCha8Rng) -> SparseGrid {
    let mut grid = SparseGrid::new(dim);
    grid.insert(NodeKey::root());
    for _ in 0..nodes {
        let actives = rng.gen_range(1..=3.min(dim));
        let mut coords: Vec<ActiveCoord> = Vec::new();
        for _ in 0..actives {
            let d = rng.gen_range(0..dim) as u16;
            if coords.iter().any(|c| c.dim == d) {
                continue;
            }
            let level = rng.gen_range(2..=5u32) as u8;
            let indices = basis::level_indices(level);
            let index = indices[rng.gen_range(0..indices.len())];
            coords.push(ActiveCoord {
                dim: d,
                level,
                index,
            });
        }
        grid.insert_closed(NodeKey::from_coords(coords));
    }
    grid
}

fn random_surplus(grid: &SparseGrid, ndofs: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..grid.len() * ndofs)
        .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
        .collect()
}

fn random_point(dim: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..dim).map(|_| rng.gen::<f64>()).collect()
}

/// gold vs compressed-scalar (`x86`) and every vector kernel,
/// over 20 random adaptive grids × 8 random points each.
#[test]
fn gold_vs_compressed_and_lane_kernels_on_random_grids() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    for round in 0..20 {
        let dim = rng.gen_range(2..=5usize);
        let ndofs = rng.gen_range(1..=4usize);
        let grid = random_grid(dim, rng.gen_range(0..10), &mut rng);
        let surplus = random_surplus(&grid, ndofs, &mut rng);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; ndofs];
        let mut got = vec![0.0; ndofs];
        for _ in 0..8 {
            let x = random_point(dim, &mut rng);
            gold::interpolate(&dense, &x, &mut want);

            x86::interpolate(&compressed, &x, &mut scratch, &mut got);
            for k in 0..ndofs {
                assert!(
                    (got[k] - want[k]).abs() <= TOL,
                    "round {round}: x86 dof {k}: {} vs gold {}",
                    got[k],
                    want[k]
                );
            }

            for kind in KernelKind::COMPRESSED {
                kind.evaluate_compressed(&compressed, &x, &mut scratch, &mut got);
                for k in 0..ndofs {
                    assert!(
                        (got[k] - want[k]).abs() <= TOL,
                        "round {round}: {} dof {k}: {} vs gold {}",
                        kind.name(),
                        got[k],
                        want[k]
                    );
                }
            }
        }
    }
}

/// Regular (non-adaptive) grids too: the level-3 grid in 4-D, all kernels,
/// interpolating a polynomial tabulated and hierarchized through the
/// public pipeline.
#[test]
fn regular_grid_kernels_agree_end_to_end() {
    let grid = regular_grid(4, 3);
    let ndofs = 2;
    let mut values = hddm_asg::tabulate(&grid, ndofs, |x, out| {
        out[0] = x[0] * x[1] + 0.5 * x[2] - x[3];
        out[1] = (x[0] - 0.5) * (x[3] - 0.25);
    });
    hddm_asg::hierarchize(&grid, &mut values, ndofs);
    let dense = DenseState::new(&grid, values.clone(), ndofs);
    let compressed = CompressedState::new(&grid, &values, ndofs);
    let mut scratch = Scratch::default();
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let mut want = vec![0.0; ndofs];
    let mut got = vec![0.0; ndofs];
    for _ in 0..32 {
        let x = random_point(4, &mut rng);
        gold::interpolate(&dense, &x, &mut want);
        for kind in KernelKind::COMPRESSED {
            kind.evaluate_compressed(&compressed, &x, &mut scratch, &mut got);
            for k in 0..ndofs {
                assert!(
                    (got[k] - want[k]).abs() <= TOL,
                    "{}: dof {k}: {} vs {}",
                    kind.name(),
                    got[k],
                    want[k]
                );
            }
        }
    }
}
