//! The compressed grid of `hddm-compress` is an exact reformulation of the
//! sparse-grid interpolant: evaluated through the `x86` kernel on
//! `CompressedState::from_parts`, a grid built by the pipeline, rebuilt
//! from its raw arrays or assembled by appends agrees with the reference
//! interpolant and is exact at the grid points.

use hddm_asg::{
    hierarchize, interpolate_reference, regular_grid, tabulate, ActiveCoord, NodeKey, SparseGrid,
};
use hddm_compress::CompressedGrid;
use hddm_kernels::{CompressedState, KernelKind, Scratch};

fn smooth(x: &[f64], out: &mut [f64]) {
    for (k, o) in out.iter_mut().enumerate() {
        *o = x
            .iter()
            .enumerate()
            .map(|(t, &v)| ((t + 1) as f64 * v).sin() + (k as f64 + 0.5) * v * v)
            .sum::<f64>();
    }
}

/// `cg` with the grid-ordered `surplus` permuted into its chain order.
fn state(cg: &CompressedGrid, surplus: &[f64], ndofs: usize) -> CompressedState {
    CompressedState::from_parts(cg.clone(), cg.reorder_rows(surplus, ndofs), ndofs)
}

/// The `x86` kernel's value of `state` at `x`.
fn eval(state: &CompressedState, x: &[f64], scratch: &mut Scratch) -> Vec<f64> {
    let mut out = vec![0.0; state.ndofs];
    KernelKind::X86.evaluate_compressed(state, x, scratch, &mut out);
    out
}

fn check_equivalence(grid: &SparseGrid, ndofs: usize, points: &[Vec<f64>]) {
    let mut surplus = tabulate(grid, ndofs, smooth);
    hierarchize(grid, &mut surplus, ndofs);
    let compressed = state(&CompressedGrid::build(grid), &surplus, ndofs);
    let mut scratch = Scratch::default();
    let mut want = vec![0.0; ndofs];
    for x in points {
        let got = eval(&compressed, x, &mut scratch);
        interpolate_reference(grid, &surplus, ndofs, x, &mut want);
        for k in 0..ndofs {
            assert!(
                (got[k] - want[k]).abs() < 1e-11,
                "dof {k} at {x:?}: {} vs {}",
                got[k],
                want[k]
            );
        }
    }
}

fn lattice_points(dim: usize, per_dim: usize) -> Vec<Vec<f64>> {
    // Deterministic off-grid sample points.
    let mut points = Vec::new();
    for s in 0..per_dim {
        let mut x = vec![0.0; dim];
        for (t, v) in x.iter_mut().enumerate() {
            *v = ((s as f64 + 0.37) * 0.61 + t as f64 * 0.217) % 1.0;
        }
        points.push(x);
    }
    points
}

#[test]
fn equivalent_to_reference_on_regular_grids() {
    for dim in [1usize, 2, 3, 5] {
        for n in 2..=4u8 {
            let grid = regular_grid(dim, n);
            check_equivalence(&grid, 3, &lattice_points(dim, 25));
        }
    }
}

#[test]
fn equivalent_on_adaptive_grid() {
    let mut grid = SparseGrid::new(3);
    let coord = |dim, level, index| ActiveCoord { dim, level, index };
    // Vectors, not arrays: rustc 1.95 at opt-level 3 dies with SIGILL on
    // `from_coords` of a one-element array here.
    grid.insert_closed(NodeKey::from_coords(vec![coord(0, 4, 3), coord(2, 3, 1)]));
    grid.insert_closed(NodeKey::from_coords(vec![coord(1, 5, 9)]));
    check_equivalence(&grid, 2, &lattice_points(3, 40));
}

#[test]
fn exact_at_grid_points() {
    let grid = regular_grid(4, 3);
    let ndofs = 2;
    let values = tabulate(&grid, ndofs, smooth);
    let mut surplus = values.clone();
    hierarchize(&grid, &mut surplus, ndofs);
    let compressed = state(&CompressedGrid::build(&grid), &surplus, ndofs);
    let mut scratch = Scratch::default();
    let mut x = vec![0.0; 4];
    for i in 0..grid.len() {
        grid.unit_point_of(i, &mut x);
        let out = eval(&compressed, &x, &mut scratch);
        for k in 0..ndofs {
            assert!((out[k] - values[i * ndofs + k]).abs() < 1e-11);
        }
    }
}

#[test]
fn raw_parts_roundtrip() {
    let grid = regular_grid(5, 3);
    let cg = CompressedGrid::build(&grid);
    let rebuilt = CompressedGrid::try_from_raw_parts(
        cg.dim(),
        cg.nfreq(),
        cg.xps().to_vec(),
        cg.chains().to_vec(),
        cg.order().to_vec(),
    )
    .unwrap();
    assert_eq!(rebuilt.nno(), cg.nno());
    assert_eq!(rebuilt.chains(), cg.chains());
    assert_eq!(rebuilt.order(), cg.order());
    assert!((rebuilt.stats().zero_fraction - cg.stats().zero_fraction).abs() < 1e-12);
    // The rebuilt grid interpolates identically.
    let ndofs = 2;
    let mut surplus = tabulate(&grid, ndofs, smooth);
    hierarchize(&grid, &mut surplus, ndofs);
    let (a, b) = (
        state(&cg, &surplus, ndofs),
        state(&rebuilt, &surplus, ndofs),
    );
    let mut scratch = Scratch::default();
    for x in lattice_points(5, 10) {
        assert_eq!(eval(&a, &x, &mut scratch), eval(&b, &x, &mut scratch));
    }
}

#[test]
fn root_only_grid() {
    let mut grid = SparseGrid::new(7);
    grid.insert(NodeKey::root());
    let cg = CompressedGrid::build(&grid);
    assert_eq!(cg.nno(), 1);
    assert_eq!(cg.nfreq(), 1);
    assert_eq!(cg.chains(), &[0]);
    let compressed = state(&cg, &[3.25], 1);
    assert_eq!(
        eval(&compressed, &[0.1; 7], &mut Scratch::default()),
        [3.25]
    );
}

#[test]
fn appended_grid_interpolates_like_the_pipeline() {
    // Append order differs from the pipeline's frequency-sorted
    // order, but the interpolant it represents is the same function.
    let grid = regular_grid(3, 4);
    let ndofs = 2;
    let mut surplus = tabulate(&grid, ndofs, smooth);
    hierarchize(&grid, &mut surplus, ndofs);

    let built = CompressedGrid::build(&grid);

    let all: Vec<u32> = (0..grid.len() as u32).collect();
    let mut appended = CompressedGrid::empty(3);
    appended.append_nodes(&grid, &all);
    // Append order == grid order, so the surplus matrix needs no
    // permutation at all (order is the identity here).
    assert!(appended
        .order()
        .iter()
        .enumerate()
        .all(|(i, &o)| i == o as usize));
    assert_eq!(appended.reorder_rows(&surplus, ndofs), surplus);

    // The appended structure passes the structural check.
    let revalidated = CompressedGrid::try_from_raw_parts(
        appended.dim(),
        appended.nfreq(),
        appended.xps().to_vec(),
        appended.chains().to_vec(),
        appended.order().to_vec(),
    )
    .unwrap();
    assert!((revalidated.stats().zero_fraction - appended.stats().zero_fraction).abs() < 1e-12);

    let (built, appended) = (
        state(&built, &surplus, ndofs),
        state(&appended, &surplus, ndofs),
    );
    let mut scratch = Scratch::default();
    for x in lattice_points(3, 30) {
        let (a, b) = (
            eval(&built, &x, &mut scratch),
            eval(&appended, &x, &mut scratch),
        );
        for k in 0..ndofs {
            assert!((a[k] - b[k]).abs() < 1e-12, "dof {k} at {x:?}");
        }
    }
}
