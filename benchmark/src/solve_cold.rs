//! `solve_cold`: the paper's product — a cold adaptive-sparse-grid
//! time-iteration solve of the OLG economy to a stated accuracy, on one
//! thread (the plain baseline of the same problem). The single-point
//! kernel dominates (oracle ≈ 0.84 of wall); cache, persistence and
//! serving do nothing.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hddm::asg::{hierarchize, refine_frontier, regular_grid, RefineConfig, SurplusNorm};
use hddm::compress::CompressedGrid;
use hddm::core::{DriverConfig, OlgStep, PolicySet, StepModel, StepReport, TimeIteration};
use hddm::kernels::KernelKind;
use hddm::olg::{euler_errors_on_box, Calibration, OlgModel};
use hddm::sched::PoolConfig;
use hddm::telemetry::Registry;

use crate::gen;
use crate::metrics::MetricSet;
use crate::run::{set_op_metric, timed, Checks, Ctx, Outcome, SetUps};
use crate::stats;
use crate::trace::{SpanId, Trace};
use crate::traced_step::{BoundaryCounters, BoundaryTotals, TracedStep};

const TOLERANCE: f64 = 1e-5;
/// The converged policy must be at least this accurate (mean Euler error
/// on 500 seeded points of the box): time to a solution *of stated
/// accuracy*.
const EULER_LIMIT: f64 = 1e-3;
/// Accuracy checks per solve: a check takes ≈ 12 ms, so several cost
/// little.
const CHECKS_PER_SOLVE: usize = 4;
/// A solve with its checks takes ≈ 1.25 s on a quiet host ([`Ctx::reps`]).
const NOMINAL_REP_S: f64 = 1.3;
const PHASES: [(&str, &str); 4] = [
    ("core.policy_update_s", "hddm_solve_policy_update_seconds"),
    ("core.hierarchize_s", "hddm_solve_hierarchize_seconds"),
    ("core.refine_s", "hddm_solve_refine_seconds"),
    ("core.compress_s", "hddm_solve_compress_seconds"),
];

/// One rung of the size ladder.
struct Instance {
    calibration: Calibration,
    refine_epsilon: Option<f64>,
}

/// `.s`, the workload itself: d = 4, two states, ε = 1e-2, ≈ 1,400 points
/// per state, 8 steps.
fn instance_s() -> Instance {
    Instance {
        calibration: gen::solve_calibration(),
        refine_epsilon: Some(1e-2),
    }
}

fn driver_config(instance: &Instance, threads: usize, telemetry: Option<Registry>) -> DriverConfig {
    DriverConfig {
        refine_epsilon: instance.refine_epsilon,
        max_level: 4,
        tolerance: TOLERANCE,
        max_steps: 60,
        pool: PoolConfig { threads, grain: 4 },
        telemetry,
        ..Default::default()
    }
}

struct Solved {
    seconds: f64,
    steps: usize,
    points_per_state: Vec<usize>,
    points_solved: u64,
    failures: u64,
    converged: bool,
    policy: PolicySet,
}

fn solved(seconds: f64, reports: &[StepReport], policy: PolicySet) -> Solved {
    let last = reports.last().expect("max_steps ≥ 1 yields ≥ 1 report");
    Solved {
        seconds,
        steps: reports.len(),
        points_per_state: last.points_per_state.clone(),
        points_solved: reports
            .iter()
            .flat_map(|r| r.level_points.iter().flatten())
            .sum::<usize>() as u64,
        failures: reports.iter().map(|r| r.solver_failures as u64).sum(),
        converged: last.sup_change < TOLERANCE,
        policy,
    }
}

/// The set-up of a solve: the driver around the step-0 policy (the constant
/// initial row on the start-level grid of every state).
fn driver<M: StepModel>(step: M, config: &DriverConfig) -> TimeIteration<M> {
    TimeIteration::new(step, config.clone())
}

/// The operation: iterate to convergence — `TimeIteration::run()`, or, when
/// `spans` names a trace, a parent span and a repetition, the loop `run()`
/// is, with a span per step.
fn solve<M: StepModel>(mut ti: TimeIteration<M>, spans: Option<(&Trace, SpanId, u64)>) -> Solved {
    let start = Instant::now();
    let reports = match spans {
        None => ti.run(),
        Some((trace, parent, rep)) => {
            let mut reports = Vec::new();
            for _ in 0..ti.config.max_steps {
                let (report, _) = trace.time("core.step", Some(parent), rep, |_| ti.step());
                let done = report.sup_change < ti.config.tolerance;
                reports.push(report);
                if done {
                    break;
                }
            }
            reports
        }
    };
    solved(start.elapsed().as_secs_f64(), &reports, ti.policy)
}

fn solve_plain(model: &OlgModel, config: &DriverConfig) -> Solved {
    solve(driver(OlgStep::new(model.clone()), config), None)
}

fn solve_traced(
    model: OlgModel,
    config: &DriverConfig,
    counters: &BoundaryCounters,
    spans: (&Trace, SpanId, u64),
) -> Solved {
    let step = TracedStep {
        inner: OlgStep::new(model),
        counters,
    };
    solve(driver(step, config), Some(spans))
}

/// The light operation: the accuracy check of a solved policy — mean Euler
/// error on 500 seeded points of the box.
fn euler_err_mean(model: &OlgModel, policy: &PolicySet, seed: u64) -> f64 {
    let mut oracle = policy.oracle(KernelKind::Avx2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    euler_errors_on_box(model, &mut oracle, 500, &mut rng).mean_error
}

/// Every repetition must be the same solve as the first: converged, same
/// step count, same grids, no solver failure.
fn check_against(first: &Solved, i: usize, s: &Solved, checks: &mut Checks) {
    checks.check(s.converged, || {
        format!("solve {i} did not converge in {} steps", s.steps)
    });
    checks.check(s.failures == 0, || {
        format!("solve {i}: {} solver failures", s.failures)
    });
    checks.check(
        s.steps == first.steps && s.points_per_state == first.points_per_state,
        || {
            format!(
                "solve {i} differs: {} steps {:?} points vs {} steps {:?}",
                s.steps, s.points_per_state, first.steps, first.points_per_state
            )
        },
    );
}

fn counts(solves: &[Solved]) -> (u64, u64) {
    let attempted = solves.iter().map(|s| s.points_solved).sum();
    let failed = solves
        .iter()
        .map(|s| s.failures + u64::from(!s.converged))
        .sum();
    (attempted, failed)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let instance = instance_s();
    let config = driver_config(&instance, 1, None);
    let mut checks = Checks::default();
    let mut setups = SetUps::default();
    // Only the first solve is kept (every other must equal it), so memory
    // does not grow with the repetitions.
    let mut first: Option<Solved> = None;
    let (mut attempted, mut failed) = (0, 0);
    let (mut solve_s, mut check_s) = (Vec::new(), Vec::new());
    let mut err = f64::NAN;
    let reps = ctx.reps(NOMINAL_REP_S);
    for i in 0..reps {
        let (model, ti) = setups.time(|| {
            let model = OlgModel::new(instance.calibration.clone());
            let ti = driver(OlgStep::new(model.clone()), &config);
            (model, ti)
        });
        let s = solve(ti, None);
        solve_s.push(s.seconds);
        for _ in 0..CHECKS_PER_SOLVE {
            let (e, seconds) = timed(|| euler_err_mean(&model, &s.policy, ctx.seed));
            err = e;
            check_s.push(seconds);
        }
        attempted += s.points_solved;
        failed += s.failures + u64::from(!s.converged);
        check_against(first.as_ref().unwrap_or(&s), i, &s, &mut checks);
        first.get_or_insert(s);
    }
    let first = first.expect("at least one solve ran");
    checks.check(err < EULER_LIMIT, || {
        format!("mean Euler error {err:e} ≥ {EULER_LIMIT:e}")
    });

    let mut metrics = MetricSet::end_to_end();
    let notes = vec![
        set_op_metric(
            &mut metrics,
            "op_ms",
            &solve_s,
            "one cold solve to sup_change < 1e-5 (TimeIteration::run)",
        ),
        set_op_metric(
            &mut metrics,
            "fast_op_ms",
            &check_s,
            "one accuracy check of the solved policy (Euler errors on 500 points)",
        ),
        setups.set_metric(
            &mut metrics,
            "the economy from its calibration and the driver around the step-0 policy",
        ),
        format!(
            "{} steps, {:?} points per state, {} point solves per solve, mean Euler error {err:.3e}",
            first.steps, first.points_per_state, first.points_solved
        ),
    ];
    Outcome {
        checks,
        attempted,
        failed,
        metrics,
        repetitions: reps,
        notes,
    }
}

fn phase_sums(registry: &Registry) -> [f64; 4] {
    PHASES.map(|(_, instrument)| registry.histogram(instrument).sum_seconds())
}

/// One traced solve of a ladder instance: wall seconds and the share of
/// it spent inside oracle calls.
fn ladder_rung(instance: &Instance, trace: &Trace, span: &'static str) -> (f64, f64, bool) {
    let model = OlgModel::new(instance.calibration.clone());
    let config = driver_config(instance, 1, None);
    let counters = BoundaryCounters::default();
    let id = trace.open(span, None, 0);
    let s = solve_traced(model, &config, &counters, (trace, id, 0));
    trace.close(id);
    (
        s.seconds,
        counters.totals().oracle_s / s.seconds,
        s.converged,
    )
}

/// Regrows an adaptive grid from the converged policy of state 0 (the
/// driver's per-level loop with evaluation in place of solving) and times
/// the two whole-grid passes the driver runs on it: a full
/// hierarchization and a compression build. Milliseconds, medians of 5.
fn grid_probes(policy: &PolicySet, instance: &Instance) -> (f64, f64, usize) {
    let dim = policy.domain.dim();
    let ndofs = policy.states.ndofs();
    let mut oracle = policy.oracle(KernelKind::Avx2);
    let mut grid = regular_grid(dim, 2);
    let mut values: Vec<f64> = Vec::new();
    let mut frontier: Vec<u32> = (0..grid.len() as u32).collect();
    let mut unit = vec![0.0; dim];
    let mut row = vec![0.0; ndofs];
    let refine = RefineConfig {
        epsilon: instance.refine_epsilon.unwrap_or(f64::INFINITY),
        max_level: 4,
        norm: SurplusNorm::MaxAbs,
    };
    loop {
        for &p in &frontier {
            grid.unit_point_of(p as usize, &mut unit);
            oracle.eval_unit(0, &unit, &mut row);
            values.extend_from_slice(&row);
        }
        let mut surpluses = values.clone();
        hierarchize(&grid, &mut surpluses, ndofs);
        let report = refine_frontier(&mut grid, &surpluses, ndofs, &frontier, &refine);
        if report.new_nodes.is_empty() {
            break;
        }
        frontier = report.new_nodes;
    }
    let time_ms = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&samples)
    };
    let hierarchize_ms = time_ms(&mut || {
        let mut surpluses = values.clone();
        hierarchize(&grid, &mut surpluses, ndofs);
        std::hint::black_box(&surpluses);
    });
    let build_ms = time_ms(&mut || {
        std::hint::black_box(CompressedGrid::build(&grid));
    });
    (hierarchize_ms, build_ms, grid.len())
}

pub fn run_traced(ctx: &Ctx, trace: &Trace) -> Outcome {
    let reps = if ctx.smoke { 1 } else { 3 };
    let instance = instance_s();
    let model = OlgModel::new(instance.calibration.clone());
    let registry = Registry::new();
    let plain_config = driver_config(&instance, 1, None);
    let traced_config = driver_config(&instance, 1, Some(registry.clone()));
    let two_thread_config = driver_config(&instance, 2, None);
    let counters = BoundaryCounters::default();

    // Untraced, traced and two-thread solves interleaved rep by rep, so a
    // slow episode of the host falls on all three.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut two_thread = Vec::new();
    let mut boundary: Vec<BoundaryTotals> = Vec::new();
    let mut phases: Vec<[f64; 4]> = Vec::new();
    for rep in 0..reps as u64 {
        plain.push(solve_plain(&model, &plain_config));
        let (before, phases_before) = (counters.totals(), phase_sums(&registry));
        let id = trace.open("solve_cold.rep", None, rep);
        traced.push(solve_traced(
            model.clone(),
            &traced_config,
            &counters,
            (trace, id, rep),
        ));
        trace.close(id);
        boundary.push(counters.totals().minus(&before));
        let after = phase_sums(&registry);
        phases.push(std::array::from_fn(|k| after[k] - phases_before[k]));
        two_thread.push(solve_plain(&model, &two_thread_config));
    }

    let mut checks = Checks::default();
    let all: Vec<Solved> = plain.into_iter().chain(traced).chain(two_thread).collect();
    for (i, s) in all.iter().enumerate() {
        check_against(&all[0], i, s, &mut checks);
    }
    let (plain, rest) = all.split_at(reps);
    let (traced, two_thread) = rest.split_at(reps);
    let same_work = |b: &BoundaryTotals| {
        (b.oracle_calls, b.point_solves) == (boundary[0].oracle_calls, boundary[0].point_solves)
    };
    checks.check(boundary.iter().all(same_work), || {
        "oracle calls or point solves differ between traced repetitions".to_string()
    });
    let err = euler_err_mean(&model, &traced[0].policy, ctx.seed);
    checks.check(err < EULER_LIMIT, || {
        format!("mean Euler error {err:e} ≥ {EULER_LIMIT:e}")
    });

    let med = |f: &dyn Fn(usize) -> f64| stats::median(&(0..reps).map(f).collect::<Vec<_>>());
    let wall = med(&|r| traced[r].seconds);
    let plain_wall = med(&|r| plain[r].seconds);
    let oracle_s = med(&|r| boundary[r].oracle_s);
    let point_self_s = med(&|r| boundary[r].point_self_s());
    let b = boundary[0];

    let mut metrics = MetricSet::per_layer();
    metrics.set("kernels.oracle_calls", b.oracle_calls as f64);
    metrics.set("kernels.oracle_busy_s", oracle_s);
    metrics.set(
        "kernels.oracle_us_per_call",
        oracle_s / b.oracle_calls as f64 * 1e6,
    );
    metrics.set(
        "kernels.oracle_share",
        med(&|r| boundary[r].oracle_s / traced[r].seconds),
    );
    metrics.set("olg.point_solves", b.point_solves as f64);
    metrics.set("olg.point_self_s", point_self_s);
    metrics.set(
        "olg.oracle_calls_per_point",
        b.oracle_calls as f64 / b.point_solves as f64,
    );
    metrics.set(
        "solver.newton_iters_per_point",
        b.newton_iterations as f64 / b.point_solves as f64,
    );
    metrics.set("solver.failures", b.point_failures as f64);
    metrics.set("core.steps", traced[0].steps as f64);
    metrics.set("core.points_solved", traced[0].points_solved as f64);
    let per_state = &traced[0].points_per_state;
    metrics.set(
        "core.final_points_per_state",
        per_state.iter().sum::<usize>() as f64 / per_state.len() as f64,
    );
    metrics.set("core.euler_err_mean", err);
    let mut phase_total = 0.0;
    for (k, (name, _)) in PHASES.iter().enumerate() {
        let seconds = med(&|r| phases[r][k]);
        metrics.set(name, seconds);
        phase_total += seconds;
    }
    let unattributed = 1.0 - phase_total / wall;
    metrics.set("core.unattributed_share", unattributed);
    // Pair by pair: the two solves of a pair ran back to back, so a slow
    // episode of the host cancels.
    metrics.set(
        "telemetry.trace_overhead_share",
        med(&|r| traced[r].seconds / plain[r].seconds - 1.0),
    );
    let two_thread_wall = med(&|r| two_thread[r].seconds);
    metrics.set("sched.solve_2t_s", two_thread_wall);
    metrics.set("sched.pool_eff_2t", plain_wall / (2.0 * two_thread_wall));

    let (hierarchize_ms, build_ms, regrown) = grid_probes(&traced[0].policy, &instance);
    metrics.set("asg.hierarchize_ms", hierarchize_ms);
    metrics.set("compress.build_ms", build_ms);

    // How cost moves with size: a regular d = 9 grid (the sweep economy),
    // this workload, and a d = 5 adaptive solve of several seconds.
    metrics.set("core.solve_s.s", wall);
    metrics.set("kernels.oracle_share.s", oracle_s / wall);
    let xs = Instance {
        calibration: Calibration::small(10, 7, 4, 0.04),
        refine_epsilon: None,
    };
    let (xs_s, xs_share, xs_ok) = ladder_rung(&xs, trace, "solve_cold.ladder.xs");
    metrics.set("core.solve_s.xs", xs_s);
    metrics.set("kernels.oracle_share.xs", xs_share);
    checks.check(xs_ok, || "ladder rung xs did not converge".to_string());
    if !ctx.smoke {
        let m = Instance {
            calibration: Calibration::small(6, 4, 2, 0.04),
            refine_epsilon: Some(3e-2),
        };
        let (m_s, m_share, m_ok) = ladder_rung(&m, trace, "solve_cold.ladder.m");
        metrics.set("core.solve_s.m", m_s);
        metrics.set("kernels.oracle_share.m", m_share);
        checks.check(m_ok, || "ladder rung m did not converge".to_string());
    }

    let policy_update_s = metrics.get("core.policy_update_s").expect("set above");
    let notes = vec![
        format!(
            "traced solve {wall:.4} s vs untraced {plain_wall:.4} s (n={reps} each, interleaved)"
        ),
        format!(
            "attribution: phases cover {:.3} of wall (unattributed {unattributed:.3}, want ≤ 0.05); \
             oracle + point self = {:.3} of policy update (want ≥ 0.95)",
            phase_total / wall,
            (oracle_s + point_self_s) / policy_update_s
        ),
        format!(
            "dominance: kernels.oracle_share = {:.3} (designed ≥ 0.8); cache, persist, serve: 0 calls",
            oracle_s / wall
        ),
        format!("grid probes on {regrown} regrown points (state 0)"),
    ];
    let (attempted, failed) = counts(traced);
    Outcome {
        checks,
        attempted,
        failed,
        metrics,
        repetitions: reps,
        notes,
    }
}
