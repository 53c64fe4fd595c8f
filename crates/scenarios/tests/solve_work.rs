//! The exact work of the benchmark's two solve workloads, read from the
//! registry's `hddm_solve_*` counters: Newton iterations, Jacobians,
//! oracle walks, systems started from a carried factor and carried
//! factors the safeguard replaced, with the step counts they took. These
//! are the point solver's own counts, not timings, so they are exact on
//! any host; a change that gives back the saving of the fused start row,
//! of the inexact point solve or of the carried factors fails here by
//! name. Release only: the two solves take ≈ 15 s in a debug build.

use hddm_core::{DriverConfig, OlgStep, TimeIteration};
use hddm_olg::{Calibration, OlgModel};
use hddm_scenarios::{run_set, ExecutorConfig, Knob, Scenario, ScenarioSet, SurfaceCache};
use hddm_sched::PoolConfig;
use hddm_telemetry::Registry;

/// `(newton_iterations, jacobians, oracle_walks, carried, refreshes)` a
/// registry has counted.
fn work(registry: &Registry) -> [u64; 5] {
    let snapshot = registry.snapshot();
    [
        "hddm_solve_newton_iterations_total",
        "hddm_solve_jacobians_total",
        "hddm_solve_oracle_walks_total",
        "hddm_solve_jacobians_carried_total",
        "hddm_solve_jacobian_refreshes_total",
    ]
    .map(|name| snapshot.counter(name).expect("registered by the solve"))
}

/// The benchmark's `solve_cold`: 8 steps to `[1405, 1380]` points.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_cold_solve_does_its_pinned_work() {
    let registry = Registry::new();
    let config = DriverConfig {
        refine_epsilon: Some(1e-2),
        max_level: 4,
        tolerance: 1e-5,
        max_steps: 60,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        telemetry: Some(registry.clone()),
        ..Default::default()
    };
    let model = OlgModel::new(Calibration::small(5, 3, 2, 0.04));
    let reports = TimeIteration::new(OlgStep::new(model), config).run();
    let solves: usize = reports
        .iter()
        .flat_map(|r| r.level_points.iter().flatten())
        .sum();
    let failures: usize = reports.iter().map(|r| r.solver_failures).sum();
    assert_eq!(reports.len(), 8);
    assert_eq!(reports[7].points_per_state, [1405, 1380]);
    assert_eq!((solves, failures), (18_430, 0));
    // 46,455 / 20,427 / 2,898 when every point was solved to 1e-9 and its
    // first Jacobian took a round of its own; 29,023 / 18,949 / 1,441
    // before a settled node carried its factor into the next step.
    assert_eq!(work(&registry), [31_821, 7_750, 2_419, 11_199, 0]);
}

/// The benchmark's `sweep_warm` set at seed 1: one cold and 31 warm
/// solves.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_seed_1_sweep_does_its_pinned_work() {
    let base = Scenario::from_calibration("sweep", Calibration::small(10, 7, 4, 0.04));
    let jitter = [
        (Knob::Beta, 0.004),
        (Knob::Depreciation, 0.004),
        (Knob::LaborTaxShift, 0.01),
    ];
    let set = ScenarioSet::monte_carlo(&base, 32, 1, &jitter).expect("admissible draws");
    let cache = SurfaceCache::default();
    let report = run_set(&set, &cache, &ExecutorConfig::serial()).expect("a valid set runs");
    let steps: usize = report.scenarios.iter().map(|s| s.steps).sum();
    assert_eq!(
        (report.cold_solves, report.warm_starts, steps),
        (1, 31, 430)
    );
    // 67,294 / 32,798 / 5,619 when every point was solved to 1e-9 and
    // its first Jacobian took a round of its own; 429 steps and 34,259 /
    // 32,640 / 2,052 before a settled node carried its factor into the
    // next step.
    assert_eq!(work(cache.registry()), [37_047, 3_277, 4_300, 29_439, 0]);
}
