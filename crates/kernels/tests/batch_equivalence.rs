//! Golden-value equivalence of the batched interpolation engine: on
//! seeded random adaptive grids (deterministic `ChaCha8Rng`), every
//! kernel's `interpolate_batch` walk must
//!
//! * match the dense `gold` baseline to ≤ 1e-12, and
//! * match its own single-point counterpart **bitwise** (the batch
//!   restructuring reorders memory traffic, never arithmetic),
//!
//! across block sizes `npts ∈ {1, 7, 64}` (covering a degenerate block,
//! an uneven chunk tail, and a full chunk) and a ragged `ndofs` that
//! exercises the vector kernels' remainder paths.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{basis, ActiveCoord, NodeKey, SparseGrid};
use hddm_kernels::{
    batch, gold, x86, ChunkCounts, CompressedState, DenseState, KernelKind, PointBlock, Scratch,
    BATCH_CHUNK,
};

const TOL: f64 = 1e-12;

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

fn random_block(dim: usize, npts: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..npts * dim).map(|_| rng.gen::<f64>()).collect()
}

type SingleFn = fn(&CompressedState, &[f64], &mut Scratch, &mut [f64]);

/// Every kernel with a batch walk next to the single-point function it
/// must equal.
const VARIANTS: [(KernelKind, SingleFn); 4] = [
    (KernelKind::X86, x86::interpolate),
    (KernelKind::Avx, hddm_kernels::vector::interpolate_avx),
    (KernelKind::Avx2, hddm_kernels::vector::interpolate_avx2),
    (KernelKind::Avx512, hddm_kernels::vector::interpolate_avx512),
];

/// `kind`'s batch walk and its per-chunk counts.
fn batch_fn(
    kind: KernelKind,
    state: &CompressedState,
    block: &PointBlock,
    scratch: &mut Scratch,
    out: &mut [f64],
) -> Vec<ChunkCounts> {
    batch::interpolate_batch(kind, state, block, scratch, out)
}

#[test]
fn batched_kernels_match_gold_and_single_point() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBA7C4);
    // ndofs 11 leaves a ragged tail in both 4- and 8-wide accumulators.
    for (dim, nodes, ndofs) in [(2usize, 40usize, 1usize), (4, 120, 11), (6, 200, 5)] {
        let grid = random_grid(dim, nodes, &mut rng);
        let surplus = random_surplus(&grid, ndofs, &mut rng);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let state = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        for npts in [1usize, 7, 64] {
            let rows = random_block(dim, npts, &mut rng);
            let block = PointBlock::from_rows(dim, &rows);
            let mut want_gold = vec![0.0; ndofs];
            let mut want_single = vec![0.0; ndofs];
            for (kind, single_fn) in VARIANTS {
                let name = kind.name();
                let mut got = vec![0.0; npts * ndofs];
                batch_fn(kind, &state, &block, &mut scratch, &mut got);
                for p in 0..npts {
                    let x = &rows[p * dim..(p + 1) * dim];
                    gold::interpolate(&dense, x, &mut want_gold);
                    single_fn(&state, x, &mut scratch, &mut want_single);
                    let row = &got[p * ndofs..(p + 1) * ndofs];
                    for k in 0..ndofs {
                        assert!(
                            (row[k] - want_gold[k]).abs() < TOL,
                            "{name} npts={npts} point {p} dof {k} vs gold: {} vs {}",
                            row[k],
                            want_gold[k]
                        );
                        assert_eq!(
                            row[k].to_bits(),
                            want_single[k].to_bits(),
                            "{name} npts={npts} point {p} dof {k}: batch must be \
                             bitwise equal to the single-point kernel"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn kernel_kind_batch_dispatch_matches_variants() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD15A);
    let grid = random_grid(3, 80, &mut rng);
    let ndofs = 7;
    let surplus = random_surplus(&grid, ndofs, &mut rng);
    let state = CompressedState::new(&grid, &surplus, ndofs);
    let rows = random_block(3, 9, &mut rng);
    let block = PointBlock::from_rows(3, &rows);
    let mut scratch = Scratch::default();
    let mut want = vec![0.0; 9 * ndofs];
    let mut got = vec![0.0; 9 * ndofs];
    for kind in KernelKind::COMPRESSED {
        kind.evaluate_compressed_batch(&state, &block, &mut scratch, &mut got);
        batch_fn(kind, &state, &block, &mut scratch, &mut want);
        assert_eq!(got, want, "{kind:?}");
    }
}

/// The narrowest blocks — one, two and three points, where a chunk's
/// setup amortizes least and a one-point tail is the whole chunk — take
/// the batch walk like any other and stay bitwise equal to the
/// single-point kernel, on a cache-resident grid and on one whose
/// surpluses are far larger than cache (each side of 100 k nodes). There
/// is no width below which the dispatch entry switches paths.
#[test]
fn dispatch_below_the_crossover_is_bitwise_equal_to_both_paths() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC705);
    let small = random_grid(3, 90, &mut rng);
    let large = hddm_asg::regular_grid(43, 4);
    assert!(small.len() < 100_000 && large.len() >= 100_000);
    for (grid, ndofs) in [(small, 5), (large, 2)] {
        let dim = grid.dim();
        let surplus = random_surplus(&grid, ndofs, &mut rng);
        let state = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        for npts in 1..=3 {
            let rows = random_block(dim, npts, &mut rng);
            let block = PointBlock::from_rows(dim, &rows);
            for (kind, single_fn) in VARIANTS {
                let mut got = vec![0.0; npts * ndofs];
                kind.evaluate_compressed_batch(&state, &block, &mut scratch, &mut got);
                let mut want_single = vec![0.0; ndofs];
                for p in 0..npts {
                    let x = &rows[p * dim..(p + 1) * dim];
                    single_fn(&state, x, &mut scratch, &mut want_single);
                    for k in 0..ndofs {
                        assert_eq!(
                            got[p * ndofs + k].to_bits(),
                            want_single[k].to_bits(),
                            "{kind:?} nno={} npts={npts} point {p} dof {k} vs single",
                            state.grid.nno()
                        );
                    }
                }
            }
        }
    }
}

/// The counts a device model prices are a property of the grid and the
/// points (the masks are data-determined), not of the accumulator: one
/// record per chunk, identical across kernels, and bounded by the grid.
#[test]
fn chunk_counts_are_per_chunk_bounded_and_kernel_independent() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0C7);
    let grid = random_grid(4, 150, &mut rng);
    let ndofs = 5;
    let surplus = random_surplus(&grid, ndofs, &mut rng);
    let state = CompressedState::new(&grid, &surplus, ndofs);
    let nno = state.grid.nno();
    let mut scratch = Scratch::default();
    for npts in [
        0usize,
        1,
        7,
        BATCH_CHUNK,
        BATCH_CHUNK + 1,
        BATCH_CHUNK * 3 + 17,
    ] {
        let rows = random_block(4, npts, &mut rng);
        let block = PointBlock::from_rows(4, &rows);
        let mut out = vec![0.0; npts * ndofs];
        let want = batch_fn(KernelKind::X86, &state, &block, &mut scratch, &mut out);
        assert_eq!(want.len(), npts.div_ceil(BATCH_CHUNK), "npts={npts}");
        assert_eq!(want.iter().map(|c| c.chunk).sum::<usize>(), npts);
        for (i, c) in want.iter().enumerate() {
            assert!(
                c.chunk == BATCH_CHUNK || i + 1 == want.len(),
                "short interior chunk"
            );
            assert!(c.rows_touched <= nno, "npts={npts} chunk {i}: {c:?}");
            assert!(
                c.alive_pairs <= c.rows_touched * c.chunk,
                "npts={npts} chunk {i}: {c:?}"
            );
            // Every point sees at least the root.
            assert!(c.alive_pairs >= c.chunk && c.factor_cols >= c.rows_touched);
        }
        for kind in KernelKind::COMPRESSED {
            let got = batch_fn(kind, &state, &block, &mut scratch, &mut out);
            assert_eq!(got, want, "{kind:?} npts={npts}");
        }
    }
}
