//! Criterion benchmarks of the interpolation kernels (the statistical
//! companion to the `table2` report binary). Grid sizes are scaled so one
//! `cargo bench` pass stays in minutes; the full Table-II grids run via
//! the binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hddm_asg::regular_grid;
use hddm_bench::{random_points, synthetic_surpluses};
use hddm_gpu::GpuEngine;
use hddm_kernels::{
    gold, hashtab, CompressedState, DenseState, HashState, KernelKind, PointBlock, Scratch,
};

fn bench_kernels(c: &mut Criterion) {
    let ndofs = 118;
    for (label, dim, level) in [("d59-L3-7k", 59usize, 3u8), ("d16-L4", 16, 4)] {
        let grid = regular_grid(dim, level);
        let surplus = synthetic_surpluses(&grid, ndofs, 7);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        let xs = random_points(dim, 64, 11);
        let mut out = vec![0.0; ndofs];
        let mut scratch = Scratch::default();

        let mut group = c.benchmark_group(format!("interpolate/{label}"));
        group.throughput(Throughput::Elements(grid.len() as u64));

        let mut it = xs.chunks_exact(dim).cycle();
        group.bench_function(BenchmarkId::from_parameter("gold"), |b| {
            b.iter(|| gold::interpolate(&dense, it.next().unwrap(), &mut out))
        });
        for kind in KernelKind::COMPRESSED {
            let mut it = xs.chunks_exact(dim).cycle();
            group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
                b.iter(|| {
                    kind.evaluate_compressed(
                        &compressed,
                        it.next().unwrap(),
                        &mut scratch,
                        &mut out,
                    )
                })
            });
        }
        // A single point on the device backend: a one-point block through
        // the `avx2` walk, priced and pool-tracked by the engine.
        let engine = GpuEngine::new();
        let blocks: Vec<PointBlock> = xs
            .chunks_exact(dim)
            .map(|x| PointBlock::from_rows(dim, x))
            .collect();
        let mut it = blocks.iter().cycle();
        group.bench_function(BenchmarkId::from_parameter("gpu-observed"), |b| {
            b.iter(|| {
                engine.evaluate_batch(&compressed, it.next().unwrap(), &mut scratch, &mut out)
            })
        });
        // The hash-table incumbent (Sec. IV-B's other storage scheme).
        let hashed = HashState::new(&grid, &surplus, ndofs);
        let mut it = xs.chunks_exact(dim).cycle();
        group.bench_function(BenchmarkId::from_parameter("hash-table"), |b| {
            b.iter(|| hashtab::interpolate(&hashed, it.next().unwrap(), &mut out))
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
