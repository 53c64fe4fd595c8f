//! The compression pipeline runs once per refined state per step, however
//! many refinement levels the step grows: the incremental hierarchizer
//! extends its state level by level instead of recompressing, and on a
//! world of several ranks each rank compresses every state once, built or
//! received. A state that never leaves the start grid is not compressed
//! at all: the run's kit compressed the start grid once (for the step-0
//! policy, a warm start's projection or the first such state), and the
//! state's rows only go into its chain order. The tests read the exact delta of
//! the process-wide `hddm_compress_builds_total` counter, so they hold a
//! lock of this process while they run.

use std::sync::{Mutex, MutexGuard, PoisonError};

use hddm_cluster::{Comm, ThreadComm};
use hddm_compress::builds_total;
use hddm_core::{DriverConfig, OlgStep, TimeIteration};
use hddm_olg::{Calibration, OlgModel};
use hddm_sched::PoolConfig;

/// One test at a time reads the counter.
fn alone() -> MutexGuard<'static, ()> {
    static COUNTER: Mutex<()> = Mutex::new(());
    COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn compression_runs_once_per_solve_not_once_per_level() {
    let _alone = alone();
    let config = DriverConfig {
        refine_epsilon: Some(5e-3),
        max_level: 3,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    };
    let model = || OlgStep::new(OlgModel::new(Calibration::small(4, 3, 2, 0.05)));
    let mut ti = TimeIteration::new(model(), config.clone());
    let ns = 2;

    let before = builds_total();
    let report = ti.step();
    assert!(
        report.level_points.len() > 1,
        "refinement must produce multiple level groups: {:?}",
        report.level_points
    );
    assert_eq!(builds_total() - before, ns, "one compression per state");

    // Two ranks each build one state and receive the other: the count is
    // read between barriers, after every rank's initial policy is built
    // and before any step starts, then after every rank's step.
    let deltas = ThreadComm::launch(2, |world| {
        let mut ti = TimeIteration::over(world.clone(), model(), config.clone());
        world.barrier();
        let before = builds_total();
        world.barrier();
        let report = ti.step();
        world.barrier();
        (report.level_points.len(), builds_total() - before)
    });
    for (levels, delta) in deltas {
        assert!(levels > 1);
        assert_eq!(delta, 2 * ns, "each rank compresses every state once");
    }
}

#[test]
fn a_run_that_never_refines_compresses_once() {
    let _alone = alone();
    let config = DriverConfig {
        max_steps: 4,
        tolerance: 0.0,
        pool: PoolConfig {
            threads: 2,
            grain: 4,
        },
        ..Default::default()
    };
    let model = || OlgStep::new(OlgModel::new(Calibration::small(4, 3, 2, 0.05)));

    // The step-0 policy's compression is the kit's.
    let before = builds_total();
    let mut ti = TimeIteration::new(model(), config.clone());
    let reports = ti.run();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.level_points.len() == 1));
    assert_eq!(builds_total() - before, 1, "one compression per run");

    // A run resumed around a policy compresses the start grid at its
    // first step.
    let before = builds_total();
    let mut resumed = TimeIteration::with_policy(model(), config.clone(), ti.policy.clone(), 4);
    assert_eq!(resumed.run().len(), 4);
    assert_eq!(builds_total() - before, 1, "one compression per run");

    // A warm start's projection compresses the start grid on the run's
    // kit, and its steps reuse that compression.
    let before = builds_total();
    let mut warm = TimeIteration::warm(model(), config.clone(), &ti.policy).expect("same shape");
    assert_eq!(warm.run().len(), 4);
    assert_eq!(builds_total() - before, 1, "one compression per run");

    // Two ranks each build one state and receive the other, still on the
    // start grid: neither step compresses. The count is read between
    // barriers, as above.
    let deltas = ThreadComm::launch(2, |world| {
        let mut ti = TimeIteration::over(world.clone(), model(), config.clone());
        world.barrier();
        let before = builds_total();
        world.barrier();
        let steps = ti.run().len();
        world.barrier();
        (steps, builds_total() - before)
    });
    assert_eq!(deltas, [(4, 0), (4, 0)]);
}

/// The benchmark's `solve_cold` (8 s in a debug build, so release only):
/// its two states refine in each of its 8 steps, so each step compresses
/// both, and the step-0 policy adds one.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_cold_solve_compresses_each_refined_state_once_per_step() {
    let _alone = alone();
    let config = DriverConfig {
        refine_epsilon: Some(1e-2),
        max_level: 4,
        tolerance: 1e-5,
        max_steps: 60,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    };
    let before = builds_total();
    let model = OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.04)));
    let reports = TimeIteration::new(model, config).run();
    assert_eq!(reports.len(), 8);
    assert!(reports.iter().all(|r| r.level_points.len() > 1));
    assert_eq!(builds_total() - before, 17);
}
