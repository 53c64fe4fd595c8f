//! Kernel shoot-out on a mid-size grid: a quick interactive version of the
//! Table II experiment (the full 59-dimensional cases live in
//! `cargo run -p hddm-bench --release --bin table2`).
//!
//! ```text
//! cargo run --release --example kernel_shootout [dim] [level]
//! ```

use std::time::Instant;

use hddm::asg::regular_grid;
use hddm::compress::CompressedGrid;
use hddm::gpu::GpuEngine;
use hddm::kernels::{gold, CompressedState, DenseState, KernelKind, PointBlock, Scratch};

fn main() {
    let dim: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let level: u8 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let ndofs = 118;
    let evals = 500usize;

    let grid = regular_grid(dim, level);
    let cg = CompressedGrid::build(&grid);
    println!(
        "grid: d = {dim}, level {level} -> {} points, nfreq = {}, |xps| = {}",
        grid.len(),
        cg.nfreq(),
        cg.xps().len()
    );

    // Synthetic surpluses with smooth decay.
    let surplus: Vec<f64> = (0..grid.len() * ndofs)
        .map(|k| ((k as f64 * 0.61803).sin()) * 0.5f64.powi((k % 7) as i32))
        .collect();
    let dense = DenseState::new(&grid, surplus.clone(), ndofs);
    let compressed = CompressedState::new(&grid, &surplus, ndofs);

    let points: Vec<Vec<f64>> = (0..evals)
        .map(|s| {
            (0..dim)
                .map(|t| ((s * 29 + t * 13) as f64 * 0.0173) % 1.0)
                .collect()
        })
        .collect();
    let mut out = vec![0.0; ndofs];
    let mut scratch = Scratch::default();

    println!("\n{:<16} {:>14} {:>10}", "kernel", "us/eval", "vs gold");
    let t0 = Instant::now();
    for x in &points {
        gold::interpolate(&dense, x, &mut out);
    }
    let gold_time = t0.elapsed().as_secs_f64() / evals as f64;
    println!("{:<16} {:>14.2} {:>9.2}x", "gold", gold_time * 1e6, 1.0);

    for kind in KernelKind::COMPRESSED {
        let t0 = Instant::now();
        for x in &points {
            kind.evaluate_compressed(&compressed, x, &mut scratch, &mut out);
        }
        let t = t0.elapsed().as_secs_f64() / evals as f64;
        println!(
            "{:<16} {:>14.2} {:>9.2}x",
            kind.name(),
            t * 1e6,
            gold_time / t
        );
    }

    // A single point on the device is a one-point block: one launch,
    // priced from the counts of the host walk. Modeled, so no ratio
    // against the measured rows.
    let engine = GpuEngine::new();
    let mut modeled = 0.0;
    for x in &points {
        let block = PointBlock::from_rows(dim, x);
        modeled += engine
            .evaluate_batch(&compressed, &block, &mut scratch, &mut out)
            .expect("fits the P100")
            .timing
            .modeled_seconds;
    }
    println!(
        "{:<16} {:>14.2} {:>10}   (roofline model incl. launch overhead)",
        "cuda (P100)",
        modeled / evals as f64 * 1e6,
        "modeled"
    );
}
