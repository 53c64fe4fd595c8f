//! `interp_stream`: the paper's Table II regime with only the kernels
//! running — Table I's "7k" surface (d = 59, 7,081 nodes, 118
//! coefficients; a 6.7 MB surplus matrix) evaluated at 2,048 seeded
//! points, one point per call (`op_ms`) and all points in one `PointBlock`
//! (`fast_op_ms`).
//!
//! The same layer is used two ways and each has its own end-to-end
//! metric: ROADMAP's "one batch kernel" must not speed one path by
//! slowing the other unnoticed.

use std::hint::black_box;
use std::time::Instant;

use hddm::asg::regular_grid;
use hddm::gpu::GpuEngine;
use hddm::kernels::{gold, CompressedState, DenseState, KernelKind, PointBlock, Scratch};

use crate::gen::{self, INTERP_DIM, INTERP_NDOFS, INTERP_POINTS};
use crate::metrics::MetricSet;
use crate::run::{set_op_metric, Checks, Ctx, Outcome, SetUps};
use crate::stats;
use crate::trace::Trace;

/// The driver's default kernel (`DriverConfig::default().kernel`).
const KERNEL: KernelKind = KernelKind::Avx2;
const GOLD_POINTS: usize = 64;
/// Batch passes per repetition: about as long as its one single-point
/// pass, and interleaved with it, so both paths see the same host.
const BATCH_PASSES_PER_REP: usize = 4;
/// One single-point pass (≈ 0.24 s) and its batch passes (≈ 0.085 s each)
/// on a quiet host ([`Ctx::reps`]).
const NOMINAL_REP_S: f64 = 0.6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Single,
    Batch,
}

struct Case {
    state: CompressedState,
    points: Vec<f64>,
    block: PointBlock,
}

fn build_case(level: u8, npoints: usize, seed: u64) -> Case {
    let grid = regular_grid(INTERP_DIM, level);
    let surplus = gen::synthetic_surpluses(&grid, INTERP_NDOFS, seed);
    let points = gen::uniform_points(INTERP_DIM, npoints, seed);
    Case {
        state: CompressedState::new(&grid, &surplus, INTERP_NDOFS),
        block: PointBlock::from_rows(INTERP_DIM, &points),
        points,
    }
}

fn single_pass(case: &Case, scratch: &mut Scratch, out: &mut [f64]) {
    for (x, row) in case
        .points
        .chunks_exact(INTERP_DIM)
        .zip(out.chunks_exact_mut(INTERP_NDOFS))
    {
        KERNEL.evaluate_compressed(&case.state, black_box(x), scratch, row);
    }
    black_box(out);
}

fn batch_pass(case: &Case, scratch: &mut Scratch, out: &mut [f64]) {
    KERNEL.evaluate_compressed_batch(&case.state, black_box(&case.block), scratch, out);
    black_box(out);
}

/// Seconds of one pass over `case` along `path`.
fn timed_pass(path: Path, case: &Case, scratch: &mut Scratch, out: &mut [f64]) -> f64 {
    let start = Instant::now();
    match path {
        Path::Single => single_pass(case, scratch, out),
        Path::Batch => batch_pass(case, scratch, out),
    }
    start.elapsed().as_secs_f64()
}

/// Batch output must equal single-point output bit for bit, and the first
/// 64 points must be within 1e-12 of the dense `gold` kernel. Returns the
/// points that differ and the largest deviation from gold.
fn verify(case: &Case, seed: u64, checks: &mut Checks) -> (u64, f64) {
    let mut scratch = Scratch::default();
    let mut single = vec![0.0; INTERP_POINTS * INTERP_NDOFS];
    let mut batch = vec![0.0; INTERP_POINTS * INTERP_NDOFS];
    single_pass(case, &mut scratch, &mut single);
    batch_pass(case, &mut scratch, &mut batch);
    let differing = single
        .chunks_exact(INTERP_NDOFS)
        .zip(batch.chunks_exact(INTERP_NDOFS))
        .filter(|(s, b)| s.iter().zip(*b).any(|(x, y)| x.to_bits() != y.to_bits()))
        .count() as u64;
    checks.check(differing == 0, || {
        format!("{differing} of {INTERP_POINTS} points: batch output != single-point output")
    });

    let grid = regular_grid(INTERP_DIM, 3);
    let dense = DenseState::new(
        &grid,
        gen::synthetic_surpluses(&grid, INTERP_NDOFS, seed),
        INTERP_NDOFS,
    );
    let mut want = vec![0.0; INTERP_NDOFS];
    let mut max_dev = 0.0f64;
    for (x, got) in case
        .points
        .chunks_exact(INTERP_DIM)
        .zip(single.chunks_exact(INTERP_NDOFS))
        .take(GOLD_POINTS)
    {
        gold::interpolate(&dense, x, &mut want);
        for (g, w) in got.iter().zip(&want) {
            max_dev = max_dev.max((g - w).abs());
        }
    }
    checks.check(max_dev <= 1e-12, || {
        format!("max |compressed - gold| = {max_dev:e} on {GOLD_POINTS} points, limit 1e-12")
    });
    (differing, max_dev)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setups = SetUps::default();
    let mut scratch = Scratch::default();
    let mut out = vec![0.0; INTERP_POINTS * INTERP_NDOFS];
    let (mut single_s, mut batch_s) = (Vec::new(), Vec::new());
    let reps = ctx.reps(NOMINAL_REP_S);
    let mut case = None;
    for _ in 0..reps {
        drop(case.take());
        let built = case.insert(setups.time(|| build_case(3, INTERP_POINTS, ctx.seed)));
        single_s.push(timed_pass(Path::Single, built, &mut scratch, &mut out));
        for _ in 0..BATCH_PASSES_PER_REP {
            batch_s.push(timed_pass(Path::Batch, built, &mut scratch, &mut out));
        }
    }
    let case = case.expect("at least one repetition ran");

    let mut metrics = MetricSet::end_to_end();
    let mut checks = Checks::default();
    let (differing, _) = verify(&case, ctx.seed, &mut checks);
    let mut notes = vec![
        set_op_metric(
            &mut metrics,
            "op_ms",
            &single_s,
            "one single-point pass over 2,048 points",
        ),
        set_op_metric(
            &mut metrics,
            "fast_op_ms",
            &batch_s,
            "one batch pass over the same 2,048 points in one PointBlock",
        ),
        setups.set_metric(
            &mut metrics,
            "grid, surpluses, compressed state and point block from the seed",
        ),
    ];
    let pps = |name: &str| INTERP_POINTS as f64 / (metrics.get(name).expect("set above") * 1e-3);
    notes.push(format!(
        "points/s of the fastest pass: single {:.1}, batch {:.1}",
        pps("op_ms"),
        pps("fast_op_ms")
    ));
    Outcome {
        checks,
        attempted: (reps * (1 + BATCH_PASSES_PER_REP) * INTERP_POINTS) as u64,
        failed: differing,
        metrics,
        repetitions: reps,
        notes,
    }
}

/// Microseconds per point of `reps` passes along `path` (after one
/// discarded warm-up pass), median.
fn us_per_point(path: Path, case: &Case, reps: usize, trace: &Trace, span: &'static str) -> f64 {
    let npoints = case.points.len() / INTERP_DIM;
    let mut scratch = Scratch::default();
    let mut out = vec![0.0; npoints * INTERP_NDOFS];
    timed_pass(path, case, &mut scratch, &mut out);
    let seconds: Vec<f64> = (0..reps)
        .map(|rep| {
            trace
                .time(span, None, rep as u64, |_| {
                    timed_pass(path, case, &mut scratch, &mut out)
                })
                .0
        })
        .collect();
    stats::median(&seconds) / npoints as f64 * 1e6
}

/// Points per second when the 2,048 points arrive in blocks of `npts`
/// (2 and 7 straddle the single/batch crossover, 64 is one full chunk).
fn blocked_pps(case: &Case, npts: usize) -> f64 {
    let blocks: Vec<PointBlock> = case
        .points
        .chunks(npts * INTERP_DIM)
        .map(|rows| PointBlock::from_rows(INTERP_DIM, rows))
        .collect();
    let mut scratch = Scratch::default();
    let mut out = vec![0.0; npts * INTERP_NDOFS];
    let start = Instant::now();
    for block in &blocks {
        let rows = &mut out[..block.len() * INTERP_NDOFS];
        KERNEL.evaluate_compressed_batch(&case.state, black_box(block), &mut scratch, rows);
        black_box(rows);
    }
    INTERP_POINTS as f64 / start.elapsed().as_secs_f64()
}

pub fn run_traced(ctx: &Ctx, trace: &Trace) -> Outcome {
    let reps = if ctx.smoke { 1 } else { 3 };
    let case = build_case(3, INTERP_POINTS, ctx.seed);
    let mut checks = Checks::default();
    let (differing, max_dev) = verify(&case, ctx.seed, &mut checks);
    let mut metrics = MetricSet::per_layer();
    metrics.set("kernels.max_abs_dev_vs_gold", max_dev);
    // An upper bound, computed from array sizes: one pass streams at most
    // the whole surplus matrix per point (single) or per 64-point chunk.
    metrics.set(
        "kernels.surplus_bytes_computed.7k",
        (case.state.grid.nno() * INTERP_NDOFS * 8) as f64,
    );
    metrics.set(
        "kernels.single_us_per_point.7k",
        us_per_point(Path::Single, &case, reps, trace, "kernels.single_pass.7k"),
    );
    metrics.set(
        "kernels.batch_us_per_point.7k",
        us_per_point(Path::Batch, &case, reps, trace, "kernels.batch_pass.7k"),
    );
    for npts in [2, 7, 64] {
        let name = format!("kernels.batch_pps.npts{npts}.7k");
        metrics.set(&name, blocked_pps(&case, npts));
    }
    gpu_probe(&case, reps, trace, &mut metrics, &mut checks);
    // The 300k grid (265 MB of surpluses, about this host's L3) is timed
    // here only, after the 7k figures are in: 128 points, per layer, never
    // end to end.
    if !ctx.smoke {
        let large = build_case(4, 128, ctx.seed);
        metrics.set(
            "kernels.single_us_per_point.300k",
            us_per_point(Path::Single, &large, 1, trace, "kernels.single_pass.300k"),
        );
        metrics.set(
            "kernels.batch_us_per_point.300k",
            us_per_point(Path::Batch, &large, 1, trace, "kernels.batch_pass.300k"),
        );
    }
    let notes = vec![format!(
        "7k surface: {} nodes, {} xps entries; kernel {}",
        case.state.grid.nno(),
        case.state.grid.xps().len(),
        KERNEL.name()
    )];
    Outcome {
        checks,
        attempted: (2 * reps * INTERP_POINTS) as u64,
        failed: differing,
        metrics,
        repetitions: reps,
        notes,
    }
}

/// The simulated device on the same block: wall time is measured, every
/// `model_` figure is the device model's own and repeats exactly.
fn gpu_probe(
    case: &Case,
    reps: usize,
    trace: &Trace,
    metrics: &mut MetricSet,
    checks: &mut Checks,
) {
    let engine = GpuEngine::new();
    let mut scratch = Scratch::default();
    let mut out = vec![0.0; INTERP_POINTS * INTERP_NDOFS];
    let mut walls = Vec::new();
    let mut timing = None;
    for rep in 0..reps {
        let (run, wall) = trace.time("gpu.evaluate_batch.7k", None, rep as u64, |_| {
            engine.evaluate_batch(&case.state, &case.block, &mut scratch, &mut out)
        });
        walls.push(wall);
        match run {
            Ok(run) => timing = Some(run.timing),
            Err(e) => checks.check(false, || {
                format!("simulated device refused the block: {e:?}")
            }),
        }
    }
    let Some(timing) = timing else { return };
    let n = INTERP_POINTS as f64;
    metrics.set("gpu.block_wall_pps.7k", n / stats::median(&walls));
    metrics.set(
        "gpu.model_us_per_point.7k",
        timing.modeled_seconds / n * 1e6,
    );
    metrics.set("gpu.model_dram_bytes_per_point.7k", timing.dram_bytes / n);
    metrics.set("gpu.model_flops_per_point.7k", timing.flops / n);
    metrics.set("gpu.model_launches", timing.launches as f64);
}
