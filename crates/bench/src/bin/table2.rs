//! Regenerates **Table II** (kernel runtimes) and **Fig. 6** (normalized
//! speedups): average execution time of each interpolation kernel over
//! randomly sampled points, on the "7k" and "300k" grids with
//! `ndofs = 118`.
//!
//! ```text
//! cargo run -p hddm-bench --release --bin table2 [points-per-case]
//! ```
//!
//! The `cuda` row is the P100 cost model (`hddm_gpu::GpuEngine`) over the
//! walk of a one-point block — this machine has no GPU (README, "GPU
//! backend"). It is *modeled*, so it is printed without a ratio against
//! the measured rows.

use hddm_bench::{random_points, time_avg, KernelCase, NDOFS};
use hddm_gpu::GpuEngine;
use hddm_kernels::{gold, vector, KernelKind, PointBlock, Scratch};

fn main() {
    let points: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);

    println!("Table II — interpolation kernel performance (ndofs = {NDOFS}, avg over {points} random points)");
    println!(
        "host AVX support: avx={} avx2+fma={} avx512f={}",
        vector::VectorIsa::Avx.native(),
        vector::VectorIsa::Avx2.native(),
        vector::VectorIsa::Avx512.native()
    );
    println!();

    for (name, level, reps) in [("7k", 3u8, points), ("300k", 4u8, points)] {
        println!("building \"{name}\" case (level {level})...");
        let case = KernelCase::build(name, level, NDOFS);
        let xs = random_points(59, reps, 0xBEEF);
        let mut out = vec![0.0; NDOFS];
        let mut scratch = Scratch::default();

        let mut rows: Vec<(String, f64)> = Vec::new();

        // gold — dense scalar baseline.
        let mut iter = xs.chunks_exact(59).cycle();
        let gold_time = time_avg(reps, || {
            gold::interpolate(&case.dense, iter.next().unwrap(), &mut out);
        });
        rows.push(("gold".into(), gold_time));

        // compressed kernels.
        for kind in KernelKind::COMPRESSED {
            let mut iter = xs.chunks_exact(59).cycle();
            let t = time_avg(reps, || {
                kind.evaluate_compressed(
                    &case.compressed,
                    iter.next().unwrap(),
                    &mut scratch,
                    &mut out,
                );
            });
            rows.push((kind.name().into(), t));
        }

        // avx512 with intra-kernel threading (the paper's full variant).
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if threads > 1 {
            let mut iter = xs.chunks_exact(59).cycle();
            let t = time_avg(reps.min(200), || {
                vector::interpolate_avx512_mt(
                    &case.compressed,
                    iter.next().unwrap(),
                    threads,
                    &mut out,
                );
            });
            rows.push((format!("avx512 ({threads}t)"), t));
        }

        // cuda — a single point on the device is a one-point block: one
        // launch, priced from the counts of the host walk.
        let engine = GpuEngine::new();
        let sample = reps.min(200);
        let mut modeled = 0.0;
        for x in xs.chunks_exact(59).take(sample) {
            let block = PointBlock::from_rows(59, x);
            modeled += engine
                .evaluate_batch(&case.compressed, &block, &mut scratch, &mut out)
                .expect("fits P100")
                .timing
                .modeled_seconds;
        }
        modeled /= sample.max(1) as f64;

        println!(
            "\n  \"{name}\" test ({} points, {} xps/state):",
            case.grid.len(),
            case.compressed.grid.xps().len()
        );
        println!("  {:<18} {:>12} {:>10}", "version", "time [sec]", "vs gold");
        for (kernel, t) in &rows {
            println!("  {:<18} {:>12.6} {:>9.2}x", kernel, t, gold_time / t);
        }
        println!(
            "  {:<18} {:>12.6} {:>10}",
            "cuda (P100)", modeled, "modeled"
        );
    }

    println!();
    println!("Paper (Table II / Fig. 6) reference shape: x86/avx/avx2 ≈ 4.4x/4.1x over gold;");
    println!("avx512 20.8x (7k) / 3.6x (300k) with intra-kernel threads; cuda 68.6x / 6.7x.");
}
