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
//! exercises the vector kernels' remainder paths; then across every
//! register-strip shape and chunk edge, on the blocks whose alive masks
//! are hardest to get right, and against a golden [`ChunkCounts`] vector.
//!
//! The gradient walk must give the value walk's values bit for bit, the
//! slope of an affine function its grids reproduce, a difference quotient
//! of the interpolant off knots and on them, and a point the same gradient
//! whatever block it is walked in.

use std::ops::Range;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{basis, hierarchize, regular_grid, tabulate, ActiveCoord, NodeKey, SparseGrid};
use hddm_kernels::{
    batch, gold, x86, ChunkCounts, CompressedState, DenseState, Gradients, KernelKind, PointBlock,
    Scratch, BATCH_CHUNK,
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

/// Every kernel's batch walk over `rows` equals its single-point function
/// bitwise and — with `dense` given — the `gold` baseline to [`TOL`];
/// returns the per-chunk counts, which no kernel may report differently.
fn assert_block_matches(
    state: &CompressedState,
    dense: Option<&DenseState>,
    rows: &[f64],
) -> Vec<ChunkCounts> {
    let (dim, ndofs) = (state.grid.dim(), state.ndofs);
    let npts = rows.len() / dim;
    let block = PointBlock::from_rows(dim, rows);
    let mut scratch = Scratch::default();
    let mut want_gold = vec![0.0; ndofs];
    let mut want_single = vec![0.0; ndofs];
    let mut counts: Option<Vec<ChunkCounts>> = None;
    for (kind, single_fn) in VARIANTS {
        let name = kind.name();
        let mut got = vec![0.0; npts * ndofs];
        let got_counts = batch_fn(kind, state, &block, &mut scratch, &mut got);
        assert_eq!(
            counts.get_or_insert_with(|| got_counts.clone()),
            &got_counts,
            "{name} ndofs={ndofs} npts={npts}: counts differ between kernels"
        );
        for p in 0..npts {
            let x = &rows[p * dim..(p + 1) * dim];
            single_fn(state, x, &mut scratch, &mut want_single);
            let row = &got[p * ndofs..(p + 1) * ndofs];
            if let Some(dense) = dense {
                gold::interpolate(dense, x, &mut want_gold);
                for k in 0..ndofs {
                    assert!(
                        (row[k] - want_gold[k]).abs() < TOL,
                        "{name} ndofs={ndofs} npts={npts} point {p} dof {k} vs gold: {} vs {}",
                        row[k],
                        want_gold[k]
                    );
                }
            }
            for k in 0..ndofs {
                assert_eq!(
                    row[k].to_bits(),
                    want_single[k].to_bits(),
                    "{name} ndofs={ndofs} npts={npts} point {p} dof {k}: batch must be \
                     bitwise equal to the single-point kernel"
                );
            }
        }
    }
    counts.expect("VARIANTS is not empty")
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
        for npts in [1usize, 7, 64] {
            let rows = random_block(dim, npts, &mut rng);
            assert_block_matches(&state, Some(&dense), &rows);
        }
    }
}

/// The strip accumulators hold 16 (4-wide kernels) or 32 (8-wide) doubles
/// of a surplus row in registers: `ndofs` below, at and past one register,
/// one strip and several strips, each with and without a ragged tail,
/// against chunks one short of full, full, one over and two-and-a-bit.
#[test]
fn every_strip_shape_and_chunk_edge_matches_gold_and_single_point() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x57A1B);
    let grid = random_grid(3, 60, &mut rng);
    for ndofs in [3usize, 4, 8, 12, 16, 17, 23, 37, 118] {
        let surplus = random_surplus(&grid, ndofs, &mut rng);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let state = CompressedState::new(&grid, &surplus, ndofs);
        for npts in [1usize, 7, 63, 64, 65, 130] {
            let rows = random_block(3, npts, &mut rng);
            assert_block_matches(&state, Some(&dense), &rows);
        }
    }
}

/// A factor that is exactly 0 on some lanes (a coordinate on a knot), a
/// NaN coordinate (every factor of its dimension clamps to 0) between
/// dead lanes, and a chunk whose every lane is dead for most chains: the
/// column-mask bound, the exact alive mask and the single-point early
/// exit must agree lane for lane.
#[test]
fn knot_nan_and_all_dead_lanes_match_the_single_point_skip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDEAD);
    let dim = 4;
    let grid = random_grid(dim, 150, &mut rng);
    let ndofs = 9;
    let surplus = random_surplus(&grid, ndofs, &mut rng);
    let dense = DenseState::new(&grid, surplus.clone(), ndofs);
    let state = CompressedState::new(&grid, &surplus, ndofs);

    // Every third lane sits on level-2..4 knots in one or all dimensions.
    let mut rows = random_block(dim, 70, &mut rng);
    for (p, x) in rows.chunks_exact_mut(dim).enumerate() {
        match p % 6 {
            0 => x[p % dim] = [0.0, 0.25, 0.5, 0.75, 1.0][p % 5],
            3 => x.fill([0.5, 0.125, 0.875][p % 3]),
            _ => {}
        }
    }
    assert_block_matches(&state, Some(&dense), &rows);

    // NaN lanes beside lanes the knots kill; `gold` has no defined value
    // at NaN, the single-point kernels do.
    for p in [1usize, 8, 63, 64, 69] {
        rows[p * dim + p % dim] = f64::NAN;
    }
    assert_block_matches(&state, None, &rows);

    // One corner cell: every chain whose support lies elsewhere is dead
    // on all 64 lanes, so few rows are touched and those on every lane.
    let corner: Vec<f64> = random_block(dim, BATCH_CHUNK, &mut rng)
        .iter()
        .map(|u| u / 64.0)
        .collect();
    let counts = assert_block_matches(&state, Some(&dense), &corner);
    assert!(
        counts[0].rows_touched * 4 < state.grid.nno(),
        "{:?} of {} rows",
        counts[0],
        state.grid.nno()
    );
    assert_eq!(counts[0].alive_pairs, counts[0].rows_touched * BATCH_CHUNK);
}

/// A chain product can underflow to exactly 0.0 on a lane where no factor
/// is 0 — the bound keeps the lane, the exact mask must clear it, as the
/// single-point early exit does. 21 factors of 2⁻⁵³ do it (20 are still a
/// subnormal); the row is infinite so an unskipped lane would read NaN.
#[test]
fn an_underflowed_product_clears_the_lane_the_bound_kept() {
    let dim = 21;
    let mut grid = SparseGrid::new(dim);
    grid.insert(NodeKey::root());
    grid.insert(NodeKey::from_coords((0..dim as u16).map(|d| ActiveCoord {
        dim: d,
        level: 2,
        index: 0,
    })));
    let ndofs = 5;
    let mut surplus = vec![1.0; 2 * ndofs];
    surplus[ndofs..].fill(f64::INFINITY);
    let state = CompressedState::new(&grid, &surplus, ndofs);

    // φ_{2,0}(x) = 1 − 2x: 2⁻⁵³ just left of the knot, ½ at ¼, 0 past ½.
    let tiny = 0.5 - f64::EPSILON / 4.0;
    let mut rows = Vec::new();
    for p in 0..9 {
        rows.extend(std::iter::repeat_n([tiny, 0.25, 0.75][p % 3], dim));
    }
    let counts = assert_block_matches(&state, None, &rows);
    let mut out = vec![0.0; 9 * ndofs];
    KernelKind::Avx2.evaluate_compressed_batch(
        &state,
        &PointBlock::from_rows(dim, &rows),
        &mut Scratch::default(),
        &mut out,
    );
    for (p, row) in out.chunks_exact(ndofs).enumerate() {
        let want = if p % 3 == 1 { f64::INFINITY } else { 1.0 };
        assert!(row.iter().all(|&v| v == want), "point {p}: {row:?}");
    }
    // The root on all nine lanes, the deep node on the three ¼-lanes only.
    assert_eq!(
        counts,
        [ChunkCounts {
            chunk: 9,
            factor_cols: 1 + dim,
            rows_touched: 2,
            alive_pairs: 9 + 3,
        }]
    );
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
fn one_to_three_point_blocks_equal_the_single_point_kernels_on_small_and_large_grids() {
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

/// The per-chunk counts `hddm-gpu` prices, pinned for one seeded grid and
/// block (captured before the walk compacted its survivors into a list):
/// a change to how chains are pruned or lanes masked must not move the
/// modeled device cost unnoticed.
#[test]
fn chunk_counts_equal_the_golden_vector() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    let grid = random_grid(5, 180, &mut rng);
    let ndofs = 6;
    let surplus = random_surplus(&grid, ndofs, &mut rng);
    let state = CompressedState::new(&grid, &surplus, ndofs);
    let rows = random_block(5, 2 * BATCH_CHUNK + 11, &mut rng);
    let counts = assert_block_matches(&state, None, &rows);
    let golden = [
        (64, 2209, 980, 7771),
        (64, 2121, 949, 7615),
        (11, 1300, 613, 1329),
    ];
    let want = golden.map(
        |(chunk, factor_cols, rows_touched, alive_pairs)| ChunkCounts {
            chunk,
            factor_cols,
            rows_touched,
            alive_pairs,
        },
    );
    assert_eq!(counts, want, "nno = {}", state.grid.nno());
}

/// `kind`'s gradient walk over one block: the value rows at `value_rows`,
/// then the gradient of `coeffs` at `gradient_rows`.
fn gradient_walk(
    kind: KernelKind,
    state: &CompressedState,
    value_rows: &[f64],
    gradient_rows: &[f64],
    coeffs: Range<usize>,
) -> (Vec<f64>, Vec<f64>) {
    let dim = state.grid.dim();
    let rows = [value_rows, gradient_rows].concat();
    let (npts, grads) = (rows.len() / dim, gradient_rows.len() / dim);
    let mut values = vec![f64::NAN; npts * state.ndofs];
    let mut gradient = vec![f64::NAN; grads * dim * coeffs.len()];
    batch::interpolate_gradient_batch(
        kind,
        state,
        &PointBlock::from_rows(dim, &rows),
        &mut Scratch::default(),
        &mut values,
        Gradients {
            points: grads,
            coeffs,
            out: &mut gradient,
        },
    );
    (values, gradient)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// Over the strip-shape × chunk-edge matrix, a block of value points
/// followed by the same points as gradient points: the value rows are
/// the value walk's bit for bit (and the gradient points' rows zero), and
/// the gradients are those of a walk of the gradient points alone.
#[test]
fn gradient_walk_values_equal_the_value_walk_on_every_strip_shape_and_chunk_edge() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6AD1);
    let grid = random_grid(3, 60, &mut rng);
    for ndofs in [3usize, 4, 8, 12, 16, 17, 23, 37, 118] {
        let surplus = random_surplus(&grid, ndofs, &mut rng);
        let state = CompressedState::new(&grid, &surplus, ndofs);
        let coeffs = 1..ndofs - 1;
        for npts in [1usize, 7, 63, 64, 65, 130] {
            let rows = random_block(3, npts, &mut rng);
            for kind in KernelKind::COMPRESSED {
                let at = format!("{kind:?} ndofs={ndofs} npts={npts}");
                let mut want = vec![0.0; npts * ndofs];
                batch::interpolate_batch(
                    kind,
                    &state,
                    &PointBlock::from_rows(3, &rows),
                    &mut Scratch::default(),
                    &mut want,
                );
                let (values, gradient) = gradient_walk(kind, &state, &rows, &rows, coeffs.clone());
                assert_eq!(bits(&values[..npts * ndofs]), bits(&want), "{at}");
                assert!(values[npts * ndofs..].iter().all(|&v| v == 0.0), "{at}");
                let (_, alone) = gradient_walk(kind, &state, &[], &rows, coeffs.clone());
                assert_eq!(bits(&gradient), bits(&alone), "{at}");
            }
        }
    }
}

/// A level ≥ 2 grid reproduces an affine function exactly, so the
/// gradient of its interpolant is the function's slope, coefficient by
/// coefficient (points off the level-1 knot `½`, where the level-2 hats
/// both vanish).
#[test]
fn the_gradient_of_an_affine_function_is_its_slope() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xAFF1);
    let (dim, ndofs) = (4, 5);
    let slope = |k: usize, t: usize| (k as f64 + 1.0) * (t as f64 - 1.5);
    for level in [2u8, 3, 4] {
        let grid = regular_grid(dim, level);
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = 0.3 * k as f64
                    + x.iter()
                        .enumerate()
                        .map(|(t, v)| slope(k, t) * v)
                        .sum::<f64>();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        let state = CompressedState::new(&grid, &surplus, ndofs);
        let rows = random_block(dim, 70, &mut rng);
        for kind in KernelKind::COMPRESSED {
            let (_, gradient) = gradient_walk(kind, &state, &[], &rows, 0..ndofs);
            for (g, point) in gradient.chunks_exact(dim * ndofs).enumerate() {
                for (t, partials) in point.chunks_exact(ndofs).enumerate() {
                    for (k, &got) in partials.iter().enumerate() {
                        assert!(
                            (got - slope(k, t)).abs() < 1e-12,
                            "{kind:?} level {level} point {g} ∂{k}/∂x{t}: {got} vs {}",
                            slope(k, t)
                        );
                    }
                }
            }
        }
    }
}

/// Every kernel's gradient at `rows` against `quotient(x, t, c)`, a
/// difference quotient of coefficient `c` in dimension `t` at `x`.
fn assert_gradient_matches(
    state: &CompressedState,
    rows: &[f64],
    quotient: impl Fn(&[f64], usize, usize) -> f64,
    what: &str,
) {
    let (dim, ndofs) = (state.grid.dim(), state.ndofs);
    for kind in KernelKind::COMPRESSED {
        let (_, gradient) = gradient_walk(kind, state, &[], rows, 0..ndofs);
        for (x, point) in rows
            .chunks_exact(dim)
            .zip(gradient.chunks_exact(dim * ndofs))
        {
            for (t, partials) in point.chunks_exact(ndofs).enumerate() {
                for (c, &got) in partials.iter().enumerate() {
                    let want = quotient(x, t, c);
                    assert!(
                        (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                        "{kind:?} {what} at {x:?}: ∂{c}/∂x{t} {got} vs {want}"
                    );
                }
            }
        }
    }
}

/// `state`'s value walk at one point.
fn value_at(state: &CompressedState, x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; state.ndofs];
    batch::interpolate_batch(
        KernelKind::X86,
        state,
        &PointBlock::from_rows(x.len(), x),
        &mut Scratch::default(),
        &mut out,
    );
    out
}

/// Off knots the interpolant is linear in a neighbourhood of the point,
/// so the gradient is a central difference to O(h). On a knot of level 5
/// (the random grids' finest) a hat peaks or nothing happens, so the
/// gradient is the right derivative — a forward difference.
#[test]
fn the_gradient_is_a_difference_quotient_off_knots_and_on_them() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6D1F);
    let dim = 4;
    let grid = random_grid(dim, 150, &mut rng);
    let state = CompressedState::new(&grid, &random_surplus(&grid, 6, &mut rng), 6);
    let h = 1e-7;
    let stepped = |x: &[f64], t: usize, by: f64| {
        let mut x = x.to_vec();
        x[t] += by;
        x
    };
    let rows = random_block(dim, 40, &mut rng);
    assert_gradient_matches(
        &state,
        &rows,
        |x, t, c| {
            let (ahead, behind) = (
                value_at(&state, &stepped(x, t, h)),
                value_at(&state, &stepped(x, t, -h)),
            );
            (ahead[c] - behind[c]) / (2.0 * h)
        },
        "off knots",
    );
    let mut knots = random_block(dim, 40, &mut rng);
    for (p, x) in knots.chunks_exact_mut(dim).enumerate() {
        for (t, v) in x.iter_mut().enumerate() {
            if (p + t) % 2 == 0 {
                *v = (2 * ((p * 7 + t * 3) % 8) + 1) as f64 / 16.0;
            }
        }
    }
    assert_gradient_matches(
        &state,
        &knots,
        |x, t, c| (value_at(&state, &stepped(x, t, h))[c] - value_at(&state, x)[c]) / h,
        "on knots",
    );
}

/// A point's gradient alone, in blocks of 7, 64 and 130 points, at the
/// last lane of a chunk and the first of the next, and behind value
/// points that push it across a chunk edge: the same bits.
#[test]
fn a_points_gradient_does_not_depend_on_its_block() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C);
    let dim = 5;
    let grid = random_grid(dim, 180, &mut rng);
    let ndofs = 9;
    let state = CompressedState::new(&grid, &random_surplus(&grid, ndofs, &mut rng), ndofs);
    let coeffs = 2..7;
    let stride = dim * coeffs.len();
    let point = random_block(dim, 1, &mut rng);
    for kind in KernelKind::COMPRESSED {
        let (_, alone) = gradient_walk(kind, &state, &[], &point, coeffs.clone());
        for (npts, at) in [(7, 3), (64, 63), (65, 64), (130, 0), (130, 129)] {
            let mut rows = random_block(dim, npts, &mut rng);
            rows[at * dim..(at + 1) * dim].copy_from_slice(&point);
            for values in [0, 1, 60] {
                let ahead = random_block(dim, values, &mut rng);
                let (_, gradient) = gradient_walk(kind, &state, &ahead, &rows, coeffs.clone());
                assert_eq!(
                    bits(&gradient[at * stride..(at + 1) * stride]),
                    bits(&alone),
                    "{kind:?}: lane {at} of {npts} behind {values} value points"
                );
            }
        }
    }
}
