//! Property tests of incremental `CompressedState` extension: however a
//! grid's nodes are split into frontier batches, extending a state batch
//! by batch must be **bitwise identical** — structure and evaluation — to
//! rebuilding it from scratch over the full node set in one shot, and
//! must agree with the full compression pipeline to the golden 1e-12.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{basis, ActiveCoord, NodeKey, SparseGrid};
use hddm_kernels::{CompressedState, KernelKind, PointBlock, Scratch};

/// A seeded random ancestor-closed adaptive grid.
fn random_grid(dim: usize, nodes: usize, seed: u64) -> SparseGrid {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut grid = SparseGrid::new(dim);
    grid.insert(NodeKey::root());
    for _ in 0..nodes {
        let actives = rng.gen_range(1..=2.min(dim));
        let mut coords: Vec<ActiveCoord> = Vec::new();
        for _ in 0..actives {
            let d = rng.gen_range(0..dim) as u16;
            if coords.iter().any(|c| c.dim == d) {
                continue;
            }
            let level = rng.gen_range(2..=4u32) as u8;
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

fn random_rows(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect()
}

proptest! {
    // Cases and RNG seed pinned: CI explores the identical population
    // every run, so a failure reproduces locally verbatim.
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0xE71E_4D01))]

    /// Batched extension equals rebuild-from-scratch, bitwise.
    #[test]
    fn extend_from_frontier_equals_rebuild_bitwise(
        grid_seed in 0u64..1000,
        row_seed in 0u64..1000,
        dim in 2usize..5,
        splits in proptest::collection::vec(1usize..9, 1..6),
    ) {
        let grid = random_grid(dim, 60, grid_seed);
        let ndofs = 1 + (row_seed % 4) as usize;
        let rows = random_rows(grid.len() * ndofs, row_seed);
        let all: Vec<u32> = (0..grid.len() as u32).collect();

        // Rebuild from scratch: every node in one shot.
        let mut oneshot = CompressedState::empty(dim, ndofs);
        oneshot.append_rows(&grid, &all, &rows);

        // Extension: the same nodes split into arbitrary frontier
        // batches (sizes drawn from `splits`, cycled).
        let mut extended = CompressedState::empty(dim, ndofs);
        let mut at = 0usize;
        let mut s = 0usize;
        while at < all.len() {
            let end = (at + splits[s % splits.len()]).min(all.len());
            extended.append_rows(
                &grid,
                &all[at..end],
                &rows[at * ndofs..end * ndofs],
            );
            at = end;
            s += 1;
        }

        // Structure: identical arrays.
        prop_assert_eq!(oneshot.grid.nfreq(), extended.grid.nfreq());
        prop_assert_eq!(oneshot.grid.xps(), extended.grid.xps());
        prop_assert_eq!(oneshot.grid.chains(), extended.grid.chains());
        prop_assert_eq!(oneshot.grid.order(), extended.grid.order());
        prop_assert_eq!(
            oneshot.surplus.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            extended.surplus.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // Evaluation: bitwise identical at random probes (single-point
        // and batched paths both).
        let probes = random_rows(dim * 16, grid_seed ^ row_seed).iter().map(|v| (v + 1.0) / 2.0).collect::<Vec<_>>();
        let block = PointBlock::from_rows(dim, &probes);
        let mut scratch = Scratch::default();
        let mut a = vec![0.0; block.len() * ndofs];
        let mut b = vec![0.0; block.len() * ndofs];
        KernelKind::X86.evaluate_compressed_batch(&oneshot, &block, &mut scratch, &mut a);
        KernelKind::X86.evaluate_compressed_batch(&extended, &block, &mut scratch, &mut b);
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The incremental representation agrees with the full compression
    /// pipeline to the golden tolerance (the two walk the points in
    /// different orders, so bitwise equality is not expected here).
    #[test]
    fn extended_state_matches_pipeline_compression(
        grid_seed in 0u64..1000,
        row_seed in 0u64..1000,
    ) {
        let dim = 3usize;
        let ndofs = 2usize;
        let grid = random_grid(dim, 50, grid_seed);
        let rows = random_rows(grid.len() * ndofs, row_seed);
        let all: Vec<u32> = (0..grid.len() as u32).collect();

        let mut extended = CompressedState::empty(dim, ndofs);
        extended.append_rows(&grid, &all, &rows);
        // `rows` are grid-ordered surpluses; the pipeline state reorders
        // the same surpluses into its own chain order.
        let pipeline = CompressedState::from_parts(
            hddm_compress::CompressedGrid::build(&grid),
            hddm_compress::CompressedGrid::build(&grid).reorder_rows(&rows, ndofs),
            ndofs,
        );

        let probes = random_rows(dim * 12, grid_seed.wrapping_mul(31) ^ row_seed)
            .iter()
            .map(|v| (v + 1.0) / 2.0)
            .collect::<Vec<_>>();
        let mut scratch = Scratch::default();
        let mut a = vec![0.0; ndofs];
        let mut b = vec![0.0; ndofs];
        for x in probes.chunks_exact(dim) {
            KernelKind::X86.evaluate_compressed(&extended, x, &mut scratch, &mut a);
            KernelKind::X86.evaluate_compressed(&pipeline, x, &mut scratch, &mut b);
            for k in 0..ndofs {
                prop_assert!((a[k] - b[k]).abs() < 1e-12, "dof {} at {:?}", k, x);
            }
        }
    }
}
