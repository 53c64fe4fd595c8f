//! `sweep_warm`: many small solves — a 32-scenario Monte-Carlo sweep of
//! the d = 9 economy on its regular level-2 grid, through `run_set` on a
//! serial executor over a fresh persistent cache directory: lookup → warm
//! projection → solve → durable deposit. Newton and the OLG algebra
//! dominate (≈ 0.58), the oracle is ≈ 0.27, the durable deposits ≈ 0.05
//! of each scenario (fsync is cheap on this host's virtio disk). Serial, so
//! warm-start provenance and step counts repeat.

use std::path::Path;
use std::time::Instant;

use hddm::core::{DriverConfig, OlgStep, TimeIteration};
use hddm::gpu::ExecutionBackend;
use hddm::kernels::KernelKind;
use hddm::scenarios::{
    fingerprint, persist, project_policy_with, run_set, scenario_hash, ExecutorConfig, Lookup,
    Scenario, ScenarioSet, ShapeKey, SurfaceCache, SweepReport,
};
use hddm::sched::PoolConfig;
use hddm::solver::NewtonOptions;

use crate::gen::{self, SWEEP_SCENARIOS};
use crate::metrics::MetricSet;
use crate::run::{set_op_metric, timed, Checks, Ctx, Outcome, ScratchDir, SetUps};
use crate::stats;
use crate::trace::Trace;
use crate::traced_step::{BoundaryCounters, TracedStep};

fn executor(dir: Option<&Path>, warm_start: bool) -> ExecutorConfig {
    ExecutorConfig {
        threads: 1,
        cache_dir: dir.map(Path::to_path_buf),
        warm_start,
        ..ExecutorConfig::default()
    }
}

struct Sweep {
    seconds: f64,
    report: SweepReport,
    resweep_seconds: Vec<f64>,
    resweeps: Vec<SweepReport>,
    /// The first handle: every surface in memory, its registry filled.
    cache: SurfaceCache,
    _dir: ScratchDir,
}

/// Re-sweeps per sweep: the re-sweep takes a millisecond or two, so
/// several of them — each through its own fresh handle — cost little.
const RESWEEPS_PER_SWEEP: usize = 8;
/// A sweep with its re-sweeps takes ≈ 1.05 s on a quiet host
/// ([`Ctx::reps`]).
const NOMINAL_REP_S: f64 = 1.25;

/// What a sweep starts from: the scenario set from the seed and an open
/// cache on a fresh directory.
struct Ready {
    set: ScenarioSet,
    config: ExecutorConfig,
    cache: SurfaceCache,
    dir: ScratchDir,
}

fn set_up(ctx: &Ctx) -> Ready {
    let set = gen::sweep_set(ctx.seed);
    let dir = ScratchDir::new(ctx, "sweep");
    let config = executor(Some(&dir.0), true);
    let cache = config.open_cache().expect("a fresh cache directory opens");
    Ready {
        set,
        config,
        cache,
        dir,
    }
}

/// The heavy operation (`run_set` with its durable deposits), then the
/// light one: the same set again through a fresh handle on the directory,
/// every surface restored from disk.
fn sweep(ready: Ready) -> Sweep {
    let Ready {
        set,
        config,
        cache,
        dir,
    } = ready;
    let (report, seconds) = timed(|| run_set(&set, &cache, &config).expect("a valid set runs"));
    let (resweeps, resweep_seconds) = (0..RESWEEPS_PER_SWEEP)
        .map(|_| {
            let reopened = SurfaceCache::open(&dir.0).expect("the directory just written reopens");
            timed(|| run_set(&set, &reopened, &config).expect("the same set runs again"))
        })
        .unzip();
    Sweep {
        seconds,
        report,
        resweep_seconds,
        resweeps,
        cache,
        _dir: dir,
    }
}

fn steps_total(report: &SweepReport) -> usize {
    report.scenarios.iter().map(|s| s.steps).sum()
}

/// Every scenario converges; the re-sweep is 32/32 exact with zero steps;
/// every repetition is the same sweep.
fn check_sweep(i: usize, s: &Sweep, first: &Sweep, checks: &mut Checks) {
    checks.check(s.report.all_converged(), || {
        format!("sweep {i}: a scenario did not converge")
    });
    for resweep in &s.resweeps {
        checks.check(
            resweep.exact_hits == SWEEP_SCENARIOS && steps_total(resweep) == 0,
            || {
                format!(
                    "sweep {i}: re-sweep through a fresh handle gave {} exact hits and {} steps",
                    resweep.exact_hits,
                    steps_total(resweep)
                )
            },
        );
    }
    let key = |s: &Sweep| {
        (
            s.report.cold_solves,
            s.report.warm_starts,
            steps_total(&s.report),
        )
    };
    checks.check(key(s) == key(first), || {
        format!(
            "sweep {i}: (cold, warm, steps) {:?} differs from {:?}",
            key(s),
            key(first)
        )
    });
}

fn not_converged(report: &SweepReport) -> u64 {
    report.scenarios.iter().filter(|s| !s.converged).count() as u64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut setups = SetUps::default();
    // Only the first sweep is kept (every other must equal it); its
    // directory goes when the run ends.
    let mut first: Option<Sweep> = None;
    let (mut sweep_s, mut resweep_s) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let reps = ctx.reps(NOMINAL_REP_S);
    for i in 0..reps {
        let s = sweep(setups.time(|| set_up(ctx)));
        check_sweep(i, &s, first.as_ref().unwrap_or(&s), &mut checks);
        failed += not_converged(&s.report);
        sweep_s.push(s.seconds);
        resweep_s.extend_from_slice(&s.resweep_seconds);
        first.get_or_insert(s);
    }
    let first = first.expect("at least one sweep ran");

    let mut metrics = MetricSet::end_to_end();
    let notes = vec![
        set_op_metric(
            &mut metrics,
            "op_ms",
            &sweep_s,
            "one 32-scenario sweep with durable deposits (run_set)",
        ),
        set_op_metric(
            &mut metrics,
            "fast_op_ms",
            &resweep_s,
            "the same sweep again through a fresh handle on the directory",
        ),
        setups.set_metric(
            &mut metrics,
            "the scenario set from the seed and an open cache on a fresh directory",
        ),
        format!(
            "{} cold + {} warm solves, {} steps per sweep; re-sweep: {} exact",
            first.report.cold_solves,
            first.report.warm_starts,
            steps_total(&first.report),
            first.resweeps[0].exact_hits,
        ),
    ];
    Outcome {
        checks,
        attempted: (reps * SWEEP_SCENARIOS) as u64,
        failed,
        metrics,
        repetitions: reps,
        notes,
    }
}

/// What the executor's private `driver_config` builds for a scenario.
fn driver_config(scenario: &Scenario, cache: &SurfaceCache) -> DriverConfig {
    let s = &scenario.solve;
    DriverConfig {
        kernel: KernelKind::Avx2,
        backend: ExecutionBackend::Cpu,
        telemetry: Some(cache.registry().clone()),
        start_level: s.start_level,
        refine_epsilon: s.refine_epsilon,
        max_level: s.max_level,
        pool: PoolConfig {
            threads: s.solver_threads,
            grain: 1,
        },
        max_steps: s.max_steps,
        tolerance: s.tolerance,
        ..Default::default()
    }
}

#[derive(Default)]
struct Replica {
    seconds: f64,
    steps: usize,
    cold: usize,
    warm: usize,
    project_s: Vec<f64>,
    deposit_s: Vec<f64>,
}

/// The sweep again, one public call at a time — what `run_set` does per
/// scenario on a serial executor — with a span around each layer call and
/// the point problem's two boundaries counted. `run_set` builds its own
/// step model, so this is the only way to see inside a scenario from
/// outside; its step and warm-start counts must equal `run_set`'s.
fn replica_sweep(
    ctx: &Ctx,
    set: &ScenarioSet,
    counters: &BoundaryCounters,
    trace: &Trace,
    rep: u64,
    checks: &mut Checks,
) -> Replica {
    let dir = ScratchDir::new(ctx, "sweep-replica");
    let cache = SurfaceCache::open(&dir.0).expect("a fresh cache directory opens");
    let mut out = Replica::default();
    let sweep_span = trace.open("sweep_warm.rep", None, rep);
    let start = Instant::now();
    for (i, scenario) in set.scenarios.iter().enumerate() {
        let request = rep * SWEEP_SCENARIOS as u64 + i as u64;
        let scenario_span = trace.open("scenarios.scenario", Some(sweep_span), request);
        let span = Some(scenario_span);
        let began = Instant::now();
        let (hash, shape, fp) = (
            scenario_hash(scenario),
            ShapeKey::of(scenario),
            fingerprint(scenario),
        );
        let (looked_up, _) = trace.time("scenarios.lookup", span, request, |_| {
            cache.lookup(hash, shape, &fp, true)
        });
        let (model, _) = trace.time("olg.build_model", span, request, |_| {
            scenario
                .build_model()
                .expect("generated scenarios are valid")
        });
        let step = TracedStep {
            inner: OlgStep {
                model,
                newton: NewtonOptions {
                    max_iterations: scenario.solve.newton_max_iterations,
                    ..Default::default()
                },
            },
            counters,
        };
        let config = driver_config(scenario, &cache);
        let mut ti = match looked_up {
            Lookup::Warm(surface) => {
                let (projected, seconds) = trace.time("scenarios.project", span, request, |_| {
                    project_policy_with(
                        &surface.restore_policy(),
                        &step.inner.model.lower,
                        &step.inner.model.upper,
                        scenario.solve.start_level,
                        config.kernel,
                        &config.backend,
                    )
                    .expect("a surface of the same economy projects")
                });
                out.project_s.push(seconds);
                out.warm += 1;
                TimeIteration::with_policy(step, config, projected, 0)
            }
            Lookup::Miss => {
                out.cold += 1;
                TimeIteration::new(step, config)
            }
            Lookup::Exact(_) => {
                checks.check(false, || {
                    format!("scenario {i} was already in a fresh cache")
                });
                continue;
            }
        };
        let (reports, _) = trace.time("core.solve", span, request, |_| ti.run());
        let last = reports.last().expect("max_steps ≥ 1 yields ≥ 1 report");
        out.steps += reports.len();
        let wall = began.elapsed().as_secs_f64();
        let ((), seconds) = trace.time("scenarios.deposit", span, request, |_| {
            cache.store_policy(
                hash,
                shape,
                fp,
                &ti.policy,
                reports.len(),
                last.sup_change,
                wall,
            )
        });
        out.deposit_s.push(seconds);
        trace.close(scenario_span);
    }
    out.seconds = start.elapsed().as_secs_f64();
    trace.close(sweep_span);
    out
}

/// Microseconds of one call of `f`, median over `calls` calls.
fn probe_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Cache and persistence probes on the surfaces of a finished sweep.
fn cache_probes(ctx: &Ctx, set: &ScenarioSet, done: &Sweep, metrics: &mut MetricSet) {
    let keys: Vec<_> = set
        .scenarios
        .iter()
        .map(|s| (scenario_hash(s), ShapeKey::of(s), fingerprint(s)))
        .collect();
    let surface = done
        .cache
        .lookup_exact(keys[0].0, keys[0].1, &keys[0].2)
        .expect("the sweep deposited its first scenario");
    // Memory-resident, quiescent: the exact-hit fast path of the server.
    metrics.set(
        "scenarios.lookup_us",
        probe_us(100 * keys.len(), |i| {
            let (hash, shape, fp) = &keys[i % keys.len()];
            std::hint::black_box(done.cache.lookup_exact(*hash, *shape, fp));
        }),
    );
    let bytes = persist::encode_record(&surface);
    metrics.set("scenarios.record_bytes", bytes.len() as f64);
    metrics.set(
        "scenarios.encode_us",
        probe_us(200, |_| {
            std::hint::black_box(persist::encode_record(&surface));
        }),
    );
    metrics.set(
        "scenarios.decode_us",
        probe_us(200, |_| {
            std::hint::black_box(persist::decode_record(&bytes).expect("own encoding decodes"));
        }),
    );
    if ctx.smoke {
        return;
    }
    // The same deposit with 1,000 entries already indexed: each deposit
    // rewrites the whole manifest, so this is what a long-lived cache pays.
    let dir = ScratchDir::new(ctx, "sweep-1k");
    let cache = SurfaceCache::open(&dir.0).expect("a fresh cache directory opens");
    let policy = surface.restore_policy();
    let deposit = |i: u64| {
        let start = Instant::now();
        cache.store_policy(
            0x1000_0000 + i,
            surface.shape,
            surface.fingerprint.clone(),
            &policy,
            surface.steps,
            surface.final_sup_change,
            surface.cost_seconds,
        );
        start.elapsed().as_secs_f64() * 1e3
    };
    (0..1000).for_each(|i| {
        deposit(i);
    });
    let at_1k: Vec<f64> = (1000..1021).map(deposit).collect();
    metrics.set("scenarios.deposit_ms_at_1k", stats::median(&at_1k));
}

pub fn run_traced(ctx: &Ctx, trace: &Trace) -> Outcome {
    let reps = if ctx.smoke { 1 } else { 3 };
    let set = gen::sweep_set(ctx.seed);
    let counters = BoundaryCounters::default();
    let mut checks = Checks::default();

    let mut sweeps = Vec::new();
    let mut replicas = Vec::new();
    let mut boundary = Vec::new();
    for rep in 0..reps as u64 {
        sweeps.push(sweep(set_up(ctx)));
        let before = counters.totals();
        replicas.push(replica_sweep(ctx, &set, &counters, trace, rep, &mut checks));
        boundary.push(counters.totals().minus(&before));
    }
    for (i, s) in sweeps.iter().enumerate() {
        check_sweep(i, s, &sweeps[0], &mut checks);
    }
    let first = &sweeps[0];
    for (i, r) in replicas.iter().enumerate() {
        let want = (
            first.report.cold_solves,
            first.report.warm_starts,
            steps_total(&first.report),
        );
        checks.check((r.cold, r.warm, r.steps) == want, || {
            format!(
                "replica {i}: (cold, warm, steps) {:?} differs from run_set's {want:?}",
                (r.cold, r.warm, r.steps)
            )
        });
    }

    let med = |f: &dyn Fn(usize) -> f64| stats::median(&(0..reps).map(f).collect::<Vec<_>>());
    let b = boundary[0];
    let oracle_s = med(&|r| boundary[r].oracle_s);
    let oracle_share = med(&|r| boundary[r].oracle_s / replicas[r].seconds);
    let point_share = med(&|r| boundary[r].point_self_s() / replicas[r].seconds);
    let mut metrics = MetricSet::per_layer();
    metrics.set("kernels.oracle_calls", b.oracle_calls as f64);
    metrics.set("kernels.oracle_busy_s", oracle_s);
    metrics.set(
        "kernels.oracle_us_per_call",
        oracle_s / b.oracle_calls as f64 * 1e6,
    );
    metrics.set("kernels.oracle_share", oracle_share);
    metrics.set("olg.point_solves", b.point_solves as f64);
    metrics.set("olg.point_self_s", med(&|r| boundary[r].point_self_s()));
    metrics.set(
        "olg.oracle_calls_per_point",
        b.oracle_calls as f64 / b.point_solves as f64,
    );
    metrics.set(
        "solver.newton_iters_per_point",
        b.newton_iterations as f64 / b.point_solves as f64,
    );
    metrics.set("solver.failures", b.point_failures as f64);

    metrics.set("scenarios.sweep_cold", first.report.cold_solves as f64);
    metrics.set("scenarios.sweep_warm", first.report.warm_starts as f64);
    metrics.set("scenarios.sweep_exact", first.resweeps[0].exact_hits as f64);
    metrics.set("scenarios.steps_total", steps_total(&first.report) as f64);
    // The same set with warm starts off (in memory): what reuse saved.
    let all_cold = run_set(&set, &SurfaceCache::default(), &executor(None, false))
        .expect("the same set runs cold");
    checks.check(all_cold.all_converged(), || {
        "the all-cold sweep did not converge".to_string()
    });
    metrics.set(
        "scenarios.warm_steps_saved",
        steps_total(&all_cold) as f64 - steps_total(&first.report) as f64,
    );
    metrics.set(
        "scenarios.restore_us",
        med(&|r| sweeps[r].resweep_seconds[0]) / SWEEP_SCENARIOS as f64 * 1e6,
    );
    let projects: Vec<f64> = replicas
        .iter()
        .flat_map(|r| r.project_s.iter().copied())
        .collect();
    metrics.set("scenarios.project_ms", stats::median(&projects) * 1e3);
    let deposits: Vec<f64> = replicas
        .iter()
        .flat_map(|r| r.deposit_s.iter().copied())
        .collect();
    metrics.set("scenarios.deposit_ms_p50", stats::median(&deposits) * 1e3);
    let deposit_share = med(&|r| {
        let registry = sweeps[r].cache.registry();
        registry
            .histogram("hddm_cache_deposit_seconds")
            .sum_seconds()
            / sweeps[r].seconds
    });
    metrics.set("scenarios.deposit_share", deposit_share);
    cache_probes(ctx, &set, first, &mut metrics);

    let notes = vec![
        format!(
            "run_set sweep {:.4} s, replica {:.4} s (medians of {reps}); re-sweep {:.2} ms",
            med(&|r| sweeps[r].seconds),
            med(&|r| replicas[r].seconds),
            med(&|r| sweeps[r].resweep_seconds[0]) * 1e3
        ),
        format!(
            "dominance: oracle {oracle_share:.3} of the sweep (designed ≤ 0.5), Newton + OLG algebra {point_share:.3}, durable deposits {deposit_share:.3}; serve: 0 calls"
        ),
    ];
    Outcome {
        checks,
        attempted: (reps * SWEEP_SCENARIOS) as u64,
        failed: sweeps.iter().map(|s| not_converged(&s.report)).sum(),
        metrics,
        repetitions: reps,
        notes,
    }
}
