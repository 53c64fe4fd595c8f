//! The compression pipeline runs once per state per step, however many
//! refinement levels the step grows: the incremental hierarchizer extends
//! its state level by level instead of recompressing. One `#[test]` in a
//! process of its own, so the exact delta of the process-wide
//! `hddm_compress_builds_total` counter holds.

use hddm_cluster::SerialComm;
use hddm_compress::builds_total;
use hddm_core::{distributed_step, DriverConfig, OlgStep, TimeIteration};
use hddm_olg::{Calibration, OlgModel};
use hddm_sched::PoolConfig;

#[test]
fn compression_runs_once_per_solve_not_once_per_level() {
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

    // The distributed step runs the same level loop.
    let before = builds_total();
    let (_, report) = distributed_step(&SerialComm, &model(), &ti.policy, &config, 1);
    assert!(report.level_points.len() > 1);
    assert_eq!(builds_total() - before, ns);
}
