//! Quickstart: adaptive sparse grids + index compression in five minutes.
//!
//! Builds an interpolant of a smooth 10-dimensional function, compresses
//! it with the Sec. IV-B pipeline, inspects the compression statistics,
//! and cross-checks every kernel against the dense baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hddm::asg::{hierarchize, refine, regular_grid, tabulate, RefineConfig, SurplusNorm};
use hddm::compress::CompressedGrid;
use hddm::gpu::GpuEngine;
use hddm::kernels::{gold, CompressedState, DenseState, KernelKind, PointBlock, Scratch};

fn f(x: &[f64]) -> f64 {
    // Smooth with a mild ridge: the kind of policy-function shape the
    // OLG model produces.
    let s: f64 = x.iter().sum();
    (0.5 * s).sin() + 1.0 / (1.0 + s * s / 4.0)
}

fn main() {
    let dim = 10;
    let ndofs = 1;

    // 1. A regular sparse grid (Eq. 13) — compare with the 2^n full grid.
    let mut grid = regular_grid(dim, 4);
    println!(
        "regular sparse grid: d = {dim}, level 4 -> {} points (a full tensor grid \
         at the same resolution would need {:.1e})",
        grid.len(),
        17f64.powi(dim as i32)
    );

    // 2. Tabulate + hierarchize, then refine adaptively twice.
    let mut values = tabulate(&grid, ndofs, |x, out| out[0] = f(x));
    hierarchize(&grid, &mut values, ndofs);
    for round in 0..2 {
        let report = refine(
            &mut grid,
            &values,
            ndofs,
            &RefineConfig {
                epsilon: 2e-3,
                max_level: 6,
                norm: SurplusNorm::MaxAbs,
            },
        );
        println!(
            "refinement round {round}: {} parents refined, {} new points (grid: {})",
            report.refined_parents.len(),
            report.new_nodes.len(),
            grid.len()
        );
        values = tabulate(&grid, ndofs, |x, out| out[0] = f(x));
        hierarchize(&grid, &mut values, ndofs);
    }

    // 3. Compress (the paper's core data structure).
    let cg = CompressedGrid::build(&grid);
    let stats = cg.stats();
    println!();
    println!(
        "compression: nfreq = {}, |xps| = {} unique 1-D factors",
        cg.nfreq(),
        cg.xps().len()
    );
    println!(
        "  zeros eliminated: {:.1}%   memory {:.0} kB -> {:.0} kB ({:.1}x)",
        stats.zero_fraction * 100.0,
        stats.dense_bytes as f64 / 1e3,
        stats.compressed_bytes as f64 / 1e3,
        stats.dense_bytes as f64 / stats.compressed_bytes as f64
    );
    println!(
        "  xpv working set: {} B (fits L1 cache and the P100's 48 kB shared memory)",
        cg.xps().len() * 8
    );

    // 4. Every kernel produces the same numbers.
    let dense = DenseState::new(&grid, values.clone(), ndofs);
    let compressed = CompressedState::new(&grid, &values, ndofs);
    let mut scratch = Scratch::default();
    let x: Vec<f64> = (0..dim).map(|t| 0.1 + 0.08 * t as f64).collect();
    let mut reference = [0.0];
    gold::interpolate(&dense, &x, &mut reference);
    println!();
    println!("interpolating at a probe point (truth = {:.6}):", f(&x));
    println!("  {:<10} {:.10}", "gold", reference[0]);
    let mut out = [0.0];
    for kind in KernelKind::COMPRESSED {
        kind.evaluate_compressed(&compressed, &x, &mut scratch, &mut out);
        println!("  {:<10} {:.10}", kind.name(), out[0]);
        assert!((out[0] - reference[0]).abs() < 1e-12);
    }
    // The device backend: a single point is a one-point block, walked by
    // the `avx2` kernel and priced as one P100 launch.
    let run = GpuEngine::new()
        .evaluate_batch(
            &compressed,
            &PointBlock::from_rows(dim, &x),
            &mut scratch,
            &mut out,
        )
        .expect("fits the device");
    println!(
        "  {:<10} {:.10}  (modeled P100 time: {:.1} us)",
        "cuda",
        out[0],
        run.timing.modeled_seconds * 1e6
    );
    assert!((out[0] - reference[0]).abs() < 1e-12);
    println!();
    println!("all kernels agree to machine precision.");
}
