//! Hot-path microbenchmarks: single-point vs **batched** interpolation
//! and the rebuild-per-level vs **incremental** surplus path — the two
//! optimizations of the batched interpolation engine — written to a
//! machine-readable `BENCH_hotpaths.json` that seeds the repo's bench
//! trajectory.
//!
//! ```text
//! cargo run --release -p hddm-bench --bin hot-paths -- \
//!     [--smoke] [--out BENCH_hotpaths.json] [--expect-speedup 2.0] \
//!     [--threads N]
//! ```
//!
//! `--smoke` shrinks repetitions (and drops the 300k case) so CI finishes
//! in seconds; `--expect-speedup X` exits non-zero unless every batched
//! interpolation measurement at `npts ≥ 64` reaches `X ×` the
//! single-point points/sec — the acceptance gate on the batch engine.
//! Narrower rows are reported, not gated: below the dispatch crossover
//! the batch entry point *is* the single-point kernel (pinned bitwise by
//! `hddm-kernels`' `dispatch_below_the_crossover_…` test), so their
//! ratio times one code path against itself.
//! Each row's `modeled` object is the P100 device model's price of the
//! same block (`hddm_gpu::price_block` over the walk's chunk counts);
//! it is never divided into a measured figure and never gated.
//! `--threads N` overrides the detected parallelism for the threaded
//! batch rows, so the mt kernel is exercised (and recorded, rather than
//! `"skipped"`) even on hosts that report a single core.

use std::time::Instant;

use serde::Serialize;

use hddm_asg::{refine_frontier, regular_grid, RefineConfig, SparseGrid, SurplusNorm};
use hddm_bench::{random_points, synthetic_surpluses, NDOFS};
use hddm_compress::{builds_total, CompressedGrid};
use hddm_core::IncrementalHierarchizer;
use hddm_gpu::{price_block, Device, LaunchOptions};
use hddm_kernels::{batch, CompressedState, KernelKind, PointBlock, Scratch, VectorIsa};

/// The threaded-batch measurement of a row. `Skipped` (serialized as the
/// string `"skipped"`) means the measurement did not run — single-thread
/// host, or a block too small to split — and can never be mistaken for a
/// measured 0 pts/s.
enum MtThroughput {
    Skipped,
    Measured(f64),
}

impl Serialize for MtThroughput {
    fn serialize_json(&self, out: &mut String) {
        match self {
            MtThroughput::Skipped => serde::write_json_string("skipped", out),
            MtThroughput::Measured(pps) => pps.serialize_json(out),
        }
    }
}

/// One interpolation measurement: the same `npts` points evaluated
/// one-at-a-time and as one block.
#[derive(Serialize)]
struct InterpolationRow {
    case: String,
    grid_points: usize,
    ndofs: usize,
    kernel: &'static str,
    npts: usize,
    /// Points per second through the single-point kernel.
    single_pps: f64,
    /// Points per second through `evaluate_compressed_batch`.
    batch_pps: f64,
    /// Points per second through the threaded batch kernel, or
    /// `"skipped"` when the host or block cannot exercise it.
    batch_mt_pps: MtThroughput,
    /// `batch_pps / single_pps`.
    speedup: f64,
    /// The device model's figures for the same block — not measurements.
    modeled: ModeledGpu,
}

/// What the P100 device model prices the block's walk at (`price_block`
/// over the chunk counts of the batch walk).
#[derive(Serialize)]
struct ModeledGpu {
    /// Modeled device points per second: launch latency + PCIe
    /// point/result transfers + roofline kernel time per 64-point chunk;
    /// surface upload excluded — the pool's one-time cost.
    gpu_pps: f64,
    /// Simulated kernel launches for the block (one per 64-point chunk).
    gpu_launches: usize,
    /// Achieved occupancy of the launches, in `[0, 1]`.
    gpu_occupancy: f64,
}

/// The incremental-surplus measurement: one adaptive grid construction,
/// hierarchized level by level.
#[derive(Serialize)]
struct IncrementalRow {
    dim: usize,
    ndofs: usize,
    levels: usize,
    grid_points: usize,
    /// Seconds with the old algorithm: recompress + reorder + evaluate
    /// point-by-point per level group.
    rebuild_seconds: f64,
    /// Seconds through `IncrementalHierarchizer` (extend + batch).
    incremental_seconds: f64,
    speedup: f64,
    /// Compression-pipeline runs each variant performed (the incremental
    /// path must not compress at all during construction).
    compressions_rebuild: usize,
    compressions_incremental: usize,
}

#[derive(Serialize)]
struct Host {
    avx: bool,
    avx2_fma: bool,
    avx512f: bool,
    threads: usize,
}

#[derive(Serialize)]
struct Report {
    mode: &'static str,
    host: Host,
    interpolation: Vec<InterpolationRow>,
    incremental: IncrementalRow,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_hotpaths.json".into());
    let expect_speedup: Option<f64> = flag_value(&args, "--expect-speedup")
        .map(|v| v.parse().expect("--expect-speedup takes a number"));

    let threads = match flag_value(&args, "--threads") {
        Some(v) => {
            let n: usize = v.parse().expect("--threads takes a count ≥ 1");
            assert!(n >= 1, "--threads takes a count ≥ 1");
            n
        }
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let host = Host {
        avx: VectorIsa::Avx.native(),
        avx2_fma: VectorIsa::Avx2.native(),
        avx512f: VectorIsa::Avx512.native(),
        threads,
    };
    println!(
        "hot-paths: mode={} avx={} avx2+fma={} avx512f={} threads={}",
        if smoke { "smoke" } else { "full" },
        host.avx,
        host.avx2_fma,
        host.avx512f,
        host.threads
    );

    let mut interpolation = Vec::new();
    let cases: &[(&str, u8)] = if smoke {
        &[("7k", 3)]
    } else {
        &[("7k", 3), ("300k", 4)]
    };
    let block_sizes: &[usize] = if smoke {
        &[1, 2, 3, 7, 64]
    } else {
        &[1, 2, 3, 7, 64, 256]
    };
    for &(name, level) in cases {
        let grid = regular_grid(59, level);
        let surplus = synthetic_surpluses(&grid, NDOFS, 7);
        let state = CompressedState::new(&grid, &surplus, NDOFS);
        println!("case {name}: {} grid points", grid.len());
        for &npts in block_sizes {
            let row = bench_interpolation(name, &state, npts, smoke, threads);
            println!(
                "  npts={:4}  single {:>12.0} pts/s  batch {:>12.0} pts/s  speedup {:.2}x  \
                 modeled gpu {:>12.0} pts/s ({} launches, occ {:.2})",
                npts,
                row.single_pps,
                row.batch_pps,
                row.speedup,
                row.modeled.gpu_pps,
                row.modeled.gpu_launches,
                row.modeled.gpu_occupancy
            );
            interpolation.push(row);
        }
    }

    let incremental = bench_incremental(smoke);
    println!(
        "incremental surpluses: {} points over {} levels — rebuild {:.3}s \
         ({} compressions) vs incremental {:.3}s ({} compressions), speedup {:.2}x",
        incremental.grid_points,
        incremental.levels,
        incremental.rebuild_seconds,
        incremental.compressions_rebuild,
        incremental.incremental_seconds,
        incremental.compressions_incremental,
        incremental.speedup
    );

    let report = Report {
        mode: if smoke { "smoke" } else { "full" },
        host,
        interpolation,
        incremental,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if let Some(floor) = expect_speedup {
        let mut failed = false;
        for row in &report.interpolation {
            if row.npts >= 64 && row.speedup < floor {
                eprintln!(
                    "FAIL: {} npts={} speedup {:.2}x below the {floor}x floor",
                    row.case, row.npts, row.speedup
                );
                failed = true;
            }
            // The threaded kernel must clear the same floor wherever it
            // was actually measured (threads > 1 and a splittable block)
            // — a silent mt regression must not hide behind the
            // single-threaded gate.
            if let MtThroughput::Measured(mt_pps) = row.batch_mt_pps {
                let mt_speedup = mt_pps / row.single_pps.max(1e-12);
                if row.npts >= 64 && mt_speedup < floor {
                    eprintln!(
                        "FAIL: {} npts={} mt speedup {:.2}x below the {floor}x floor",
                        row.case, row.npts, mt_speedup
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("all gated measurements clear the {floor}x floor");
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} takes a value"))
            .clone()
    })
}

/// Times `npts` evaluations through the single-point kernel and through
/// one batched call, repeated until the slower side accumulates enough
/// wall clock to trust the ratio.
fn bench_interpolation(
    case: &str,
    state: &CompressedState,
    npts: usize,
    smoke: bool,
    threads: usize,
) -> InterpolationRow {
    let kernel = KernelKind::Avx2; // the driver default; lane-fallback off x86
    let dim = state.grid.dim();
    let ndofs = state.ndofs;
    let rows = random_points(dim, npts, 0xB10C + npts as u64);
    let block = PointBlock::from_rows(dim, &rows);
    let reps = if smoke { 4 } else { 16 };
    let rounds = if smoke { 4 } else { 6 };

    let mut scratch = Scratch::default();
    let mut out_single = vec![0.0; ndofs];
    let mut out_batch = vec![0.0; npts * ndofs];

    // Interleave the two measurements and keep each side's best round:
    // frequency scaling and scheduler noise hit both sides alike instead
    // of whichever happened to run first.
    let mut single_seconds = f64::INFINITY;
    let mut batch_seconds = f64::INFINITY;
    let mut mt_seconds = f64::INFINITY;
    let measure_mt = npts >= hddm_kernels::BATCH_CHUNK * 2 && threads > 1;
    for round in 0..rounds + 1 {
        let start = Instant::now();
        for _ in 0..reps {
            for p in 0..npts {
                kernel.evaluate_compressed(
                    state,
                    &rows[p * dim..(p + 1) * dim],
                    &mut scratch,
                    &mut out_single,
                );
            }
        }
        let single = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..reps {
            kernel.evaluate_compressed_batch(state, &block, &mut scratch, &mut out_batch);
        }
        let batch = start.elapsed().as_secs_f64();
        if round == 0 {
            // Sanity, while `out_batch` still holds the same-kernel
            // batch result (the mt rounds below overwrite it with the
            // AVX-512-path output, which is a *different* kernel and
            // only tolerance-equal to AVX2): the batch must reproduce
            // the single-point values exactly.
            assert_eq!(
                &out_batch[(npts - 1) * ndofs..],
                &out_single[..],
                "batch/single mismatch on the last point"
            );
            continue; // warm-up round: caches, page faults, scratch sizing
        }
        single_seconds = single_seconds.min(single);
        batch_seconds = batch_seconds.min(batch);
        if measure_mt {
            let start = Instant::now();
            for _ in 0..reps {
                batch::interpolate_batch_avx512_mt(state, &block, threads, &mut out_batch);
            }
            mt_seconds = mt_seconds.min(start.elapsed().as_secs_f64());
        }
    }

    // The GPU figures are modeled, not measured: the walk's chunk counts
    // depend only on the grid and the points, and pricing them is pure,
    // so one counted evaluation suffices.
    let counts = batch::interpolate_batch(kernel, state, &block, &mut scratch, &mut out_batch);
    let timing = price_block(&Device::p100(), &LaunchOptions::default(), state, &counts)
        .expect("bench grids launch cleanly on the P100 model");

    let total = (reps * npts) as f64;
    InterpolationRow {
        case: case.into(),
        grid_points: state.grid.nno(),
        ndofs,
        kernel: kernel.name(),
        npts,
        single_pps: total / single_seconds.max(1e-12),
        batch_pps: total / batch_seconds.max(1e-12),
        batch_mt_pps: if measure_mt {
            MtThroughput::Measured(total / mt_seconds.max(1e-12))
        } else {
            MtThroughput::Skipped
        },
        speedup: single_seconds / batch_seconds.max(1e-12),
        modeled: ModeledGpu {
            gpu_pps: npts as f64 / timing.modeled_seconds.max(1e-12),
            gpu_launches: timing.launches,
            gpu_occupancy: timing.occupancy,
        },
    }
}

/// Builds one adaptive grid level by level on a kinked target function
/// and hierarchizes it twice: with the pre-batch algorithm (recompress
/// the partial grid per level group) and with the incremental
/// hierarchizer. Both produce the same interpolant (≤ 1e-12 by the core
/// test suite); here only time and compression counts are compared.
fn bench_incremental(smoke: bool) -> IncrementalRow {
    let dim = if smoke { 6 } else { 8 };
    let ndofs = if smoke { 32 } else { 64 };
    let max_level = if smoke { 5 } else { 6 };
    let f = |x: &[f64], out: &mut [f64]| {
        for (k, o) in out.iter_mut().enumerate() {
            *o = (x[0] - 0.3).abs() * (k as f64 * 0.1 + 1.0)
                + ((x[1] - 0.6) * 8.0).tanh() * 0.5
                + x.iter().skip(2).map(|v| v * v).sum::<f64>();
        }
    };
    let config = RefineConfig {
        epsilon: if smoke { 5e-4 } else { 2e-4 },
        max_level,
        norm: SurplusNorm::MaxAbs,
    };

    // Pass 1: discover the level-by-level construction (grid + frontiers
    // + solved values), so both hierarchization variants replay the
    // identical workload.
    let mut grid = regular_grid(dim, 2);
    let mut frontier: Vec<u32> = (0..grid.len() as u32).collect();
    let mut frontiers: Vec<Vec<u32>> = Vec::new();
    let mut solved_batches: Vec<Vec<f64>> = Vec::new();
    let mut surpluses: Vec<f64> = Vec::new();
    {
        let mut hier = IncrementalHierarchizer::new(KernelKind::Avx2, dim, ndofs);
        let mut unit = vec![0.0; dim];
        loop {
            let mut solved = vec![0.0; frontier.len() * ndofs];
            for (i, &p) in frontier.iter().enumerate() {
                grid.unit_point_of(p as usize, &mut unit);
                f(&unit, &mut solved[i * ndofs..(i + 1) * ndofs]);
            }
            let new = hier.extend(&grid, &frontier, &solved);
            surpluses.extend_from_slice(&new);
            frontiers.push(frontier.clone());
            solved_batches.push(solved);
            let report = refine_frontier(&mut grid, &surpluses, ndofs, &frontier, &config);
            if report.new_nodes.is_empty() {
                break;
            }
            frontier = report.new_nodes;
        }
    }

    // The first frontier must be hierarchized against the start-level
    // grid (its dense ids are a prefix of the final grid's).
    let start_grid = regular_grid(dim, 2);

    // Pass 2: time the old rebuild-per-group algorithm.
    let before_rebuild = builds_total();
    let start = Instant::now();
    let rebuilt = hierarchize_with_rebuilds(&start_grid, &grid, &frontiers, &solved_batches, ndofs);
    let rebuild_seconds = start.elapsed().as_secs_f64();
    let compressions_rebuild = builds_total() - before_rebuild;

    // Pass 3: time the incremental hierarchizer on the same workload.
    let before_inc = builds_total();
    let start = Instant::now();
    let mut hier = IncrementalHierarchizer::new(KernelKind::Avx2, dim, ndofs);
    let mut incremental: Vec<f64> = Vec::new();
    for (level, (frontier, solved)) in frontiers.iter().zip(&solved_batches).enumerate() {
        let g = if level == 0 { &start_grid } else { &grid };
        let new = hier.extend(g, frontier, solved);
        incremental.extend_from_slice(&new);
    }
    let incremental_seconds = start.elapsed().as_secs_f64();
    let compressions_incremental = builds_total() - before_inc;

    // Sanity: same surpluses to golden tolerance.
    for (a, b) in rebuilt.iter().zip(&incremental) {
        assert!((a - b).abs() < 1e-10, "rebuild/incremental mismatch");
    }

    IncrementalRow {
        dim,
        ndofs,
        levels: frontiers.len(),
        grid_points: grid.len(),
        rebuild_seconds,
        incremental_seconds,
        speedup: rebuild_seconds / incremental_seconds.max(1e-12),
        compressions_rebuild: compressions_rebuild as usize,
        compressions_incremental: compressions_incremental as usize,
    }
}

/// The pre-batch `incremental_surpluses` algorithm, reproduced verbatim
/// for comparison: per ascending-level-sum group, rebuild the partial
/// grid's compression, reorder the partial surpluses, and evaluate each
/// group point through the single-point kernel.
fn hierarchize_with_rebuilds(
    start_grid: &SparseGrid,
    grid: &SparseGrid,
    frontiers: &[Vec<u32>],
    solved_batches: &[Vec<f64>],
    ndofs: usize,
) -> Vec<f64> {
    let dim = grid.dim();
    let kernel = KernelKind::Avx2;
    let mut all: Vec<f64> = Vec::new();
    let mut partial_grid = SparseGrid::new(dim);
    let mut partial_surplus: Vec<f64> = Vec::new();
    let mut scratch = Scratch::default();
    let mut unit = vec![0.0; dim];
    let mut interp = vec![0.0; ndofs];

    for (frontier, solved) in frontiers.iter().zip(solved_batches) {
        if partial_surplus.is_empty() {
            let mut values = solved.clone();
            hddm_asg::hierarchize(start_grid, &mut values, ndofs);
            all.extend_from_slice(&values);
            for &p in frontier {
                partial_grid.insert(grid.node(p as usize).clone());
            }
            partial_surplus.extend_from_slice(&values);
            continue;
        }
        let mut order: Vec<usize> = (0..frontier.len()).collect();
        let level_of = |pos: usize| grid.node(frontier[pos] as usize).level_sum(dim);
        order.sort_by_key(|&pos| level_of(pos));
        let mut out = vec![0.0; frontier.len() * ndofs];
        let mut at = 0usize;
        while at < order.len() {
            let group_level = level_of(order[at]);
            let group_end = order[at..]
                .iter()
                .position(|&pos| level_of(pos) != group_level)
                .map(|offset| at + offset)
                .unwrap_or(order.len());
            let cg = CompressedGrid::build(&partial_grid);
            let state = CompressedState::from_parts(
                cg.clone(),
                cg.reorder_rows(&partial_surplus, ndofs),
                ndofs,
            );
            for &pos in &order[at..group_end] {
                let p = frontier[pos] as usize;
                grid.unit_point_of(p, &mut unit);
                kernel.evaluate_compressed(&state, &unit, &mut scratch, &mut interp);
                for k in 0..ndofs {
                    out[pos * ndofs + k] = solved[pos * ndofs + k] - interp[k];
                }
            }
            for &pos in &order[at..group_end] {
                let p = frontier[pos] as usize;
                partial_grid.insert(grid.node(p).clone());
                partial_surplus.extend_from_slice(&out[pos * ndofs..(pos + 1) * ndofs]);
            }
            at = group_end;
        }
        all.extend_from_slice(&out);
    }
    all
}
