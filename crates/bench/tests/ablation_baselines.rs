//! The baselines that exist only for the `ablations` bin — hash-table
//! storage, the chain walk without its zero-skip and the chain walk over
//! grid-ordered surplus rows — compute the same interpolant as the dense
//! reference on arbitrary adaptive grids, so the bin times alternatives,
//! not different answers.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{
    basis, hierarchize, interpolate_reference, regular_grid, tabulate, ActiveCoord, NodeKey,
    SparseGrid,
};
use hddm_bench::ablation::{interpolate_no_skip, interpolate_unordered};
use hddm_bench::hashtab::{self, HashState};
use hddm_compress::CompressedGrid;
use hddm_kernels::{gold, CompressedState, DenseState, KernelKind, Scratch};

/// Strategy: a random ancestor-closed adaptive grid in `dim` dimensions
/// (the population of the root `compression_equivalence` suite).
fn adaptive_grid(dim: usize) -> impl Strategy<Value = SparseGrid> {
    let coords = prop::collection::vec((0..dim as u16, 2u8..=5u8, any::<u32>()), 0..12);
    coords.prop_map(move |raw| {
        let mut grid = SparseGrid::new(dim);
        grid.insert(NodeKey::root());
        for nodes in raw.chunks(2) {
            // One coordinate per dimension: keep the first occurrence.
            let mut seen = std::collections::HashSet::new();
            let active = nodes.iter().filter(|c| seen.insert(c.0)).map(|&(d, l, i)| {
                let indices = hddm_asg::basis::level_indices(l);
                ActiveCoord {
                    dim: d,
                    level: l,
                    index: indices[(i as usize) % indices.len()],
                }
            });
            grid.insert_closed(NodeKey::from_coords(active));
        }
        grid
    })
}

/// xorshift values in `[-0.5, 0.5)`.
fn rnd(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

proptest! {
    // Cases and RNG seed are pinned so CI explores the identical grid
    // population every run — a failure here reproduces locally verbatim.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0x0C04_0004))]

    /// The hash-table storage scheme (the paper's *other* incumbent,
    /// Sec. IV-B) agrees with the dense reference.
    #[test]
    fn hash_table_equals_reference(
        grid in adaptive_grid(4),
        seed in any::<u64>(),
    ) {
        let ndofs = 3;
        let mut state = seed | 1;
        let surplus: Vec<f64> = (0..grid.len() * ndofs).map(|_| rnd(&mut state)).collect();
        let hashed = HashState::new(&grid, &surplus, ndofs);
        let mut got = vec![0.0; ndofs];
        let mut want = vec![0.0; ndofs];
        for _ in 0..5 {
            let x: Vec<f64> = (0..4).map(|_| rnd(&mut state) + 0.5).collect();
            hashtab::interpolate(&hashed, &x, &mut got);
            interpolate_reference(&grid, &surplus, ndofs, &x, &mut want);
            for k in 0..ndofs {
                prop_assert!((got[k] - want[k]).abs() <= 1e-12,
                    "dof {} at {:?}: {} vs {}", k, x, got[k], want[k]);
            }
        }
    }

    /// The two chain-walk ablation variants (no zero-skip; grid-order
    /// surplus gather) agree with the dense reference.
    #[test]
    fn ablation_variants_agree(
        grid in adaptive_grid(3),
        seed in any::<u64>(),
    ) {
        let ndofs = 2;
        let mut state = seed | 1;
        let surplus: Vec<f64> = (0..grid.len() * ndofs).map(|_| rnd(&mut state)).collect();
        let cg = CompressedGrid::build(&grid);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; ndofs];
        let mut got = vec![0.0; ndofs];
        for _ in 0..4 {
            let x: Vec<f64> = (0..3).map(|_| rnd(&mut state) + 0.5).collect();
            interpolate_reference(&grid, &surplus, ndofs, &x, &mut want);
            interpolate_no_skip(&compressed, &x, &mut scratch, &mut got);
            for k in 0..ndofs {
                prop_assert!((got[k] - want[k]).abs() <= 1e-12, "no_skip dof {}", k);
            }
            interpolate_unordered(&cg, &surplus, ndofs, &x, &mut scratch, &mut got);
            for k in 0..ndofs {
                prop_assert!((got[k] - want[k]).abs() <= 1e-12, "unordered dof {}", k);
            }
        }
    }
}

/// The grid-ordered gather and the `x86` kernel over reordered rows are
/// the same interpolant.
#[test]
fn unordered_variant_matches_reordered() {
    let grid = regular_grid(4, 4);
    let ndofs = 3;
    let mut surplus = tabulate(&grid, ndofs, |x, out| {
        for (k, o) in out.iter_mut().enumerate() {
            *o = x
                .iter()
                .enumerate()
                .map(|(t, &v)| ((t + 1) as f64 * v).sin() + (k as f64 + 0.5) * v * v)
                .sum::<f64>();
        }
    });
    hierarchize(&grid, &mut surplus, ndofs);
    let cg = CompressedGrid::build(&grid);
    let reordered =
        CompressedState::from_parts(cg.clone(), cg.reorder_rows(&surplus, ndofs), ndofs);
    let mut scratch = Scratch::default();
    let mut a = vec![0.0; ndofs];
    let mut b = vec![0.0; ndofs];
    for s in 0..30 {
        let x: Vec<f64> = (0..4)
            .map(|t| ((s as f64 + 0.37) * 0.61 + t as f64 * 0.217) % 1.0)
            .collect();
        KernelKind::X86.evaluate_compressed(&reordered, &x, &mut scratch, &mut a);
        interpolate_unordered(&cg, &surplus, ndofs, &x, &mut scratch, &mut b);
        for k in 0..ndofs {
            assert!((a[k] - b[k]).abs() < 1e-12, "dof {k} at {x:?}");
        }
    }
}

/// The grid-ordered gather agrees with the dense `gold` kernel to ≤ 1e-12
/// on 20 seeded random adaptive grids × 8 random points each.
#[test]
fn gold_vs_grid_ordered_interpolation() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC044_E55A);
    for round in 0..20 {
        let dim = rng.gen_range(2..=4usize);
        let ndofs = rng.gen_range(1..=3usize);
        let mut grid = SparseGrid::new(dim);
        grid.insert(NodeKey::root());
        for _ in 0..rng.gen_range(0..8) {
            let mut coords: Vec<ActiveCoord> = Vec::new();
            for _ in 0..rng.gen_range(1..=3.min(dim)) {
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
        let surplus: Vec<f64> = (0..grid.len() * ndofs)
            .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
            .collect();
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let cg = CompressedGrid::build(&grid);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; ndofs];
        let mut got = vec![0.0; ndofs];
        for _ in 0..8 {
            let x: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            gold::interpolate(&dense, &x, &mut want);
            interpolate_unordered(&cg, &surplus, ndofs, &x, &mut scratch, &mut got);
            for k in 0..ndofs {
                assert!(
                    (got[k] - want[k]).abs() <= 1e-12,
                    "round {round}: dof {k}: {} vs gold {}",
                    got[k],
                    want[k]
                );
            }
        }
    }
}
