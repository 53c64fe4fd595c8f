//! A sweep compresses exactly once per scenario it solves, not once per
//! state per step: every scenario's states stay on the level-2 start grid,
//! and each run's kit compresses that grid once — for the cold run's
//! step-0 policy or a warm run's projection, and no step compresses it
//! again. One `#[test]` in a process of its own, so the exact delta of the
//! process-wide `hddm_compress_builds_total` counter holds.

use hddm_compress::builds_total;
use hddm_olg::Calibration;
use hddm_scenarios::{run_set, ExecutorConfig, Knob, Scenario, ScenarioSet, SurfaceCache};

/// The benchmark's `sweep_warm` set at seed 1 (429 steps, 1 cold and 31
/// warm solves; 7 s in a debug build, so release only).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_sweep_compresses_once_per_run() {
    let base = Scenario::from_calibration("sweep", Calibration::small(10, 7, 4, 0.04));
    let jitter = [
        (Knob::Beta, 0.004),
        (Knob::Depreciation, 0.004),
        (Knob::LaborTaxShift, 0.01),
    ];
    let set = ScenarioSet::monte_carlo(&base, 32, 1, &jitter).expect("admissible draws");

    let before = builds_total();
    let report = run_set(&set, &SurfaceCache::default(), &ExecutorConfig::serial())
        .expect("a valid set runs");
    let builds = builds_total() - before;

    let steps: usize = report.scenarios.iter().map(|s| s.steps).sum();
    assert_eq!(
        (report.cold_solves, report.warm_starts, steps),
        (1, 31, 429)
    );
    assert_eq!(builds, 32, "one compression per run");
}
