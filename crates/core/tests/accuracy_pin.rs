//! The accuracy of the two solves the benchmark times, pinned loosely
//! enough for a change to Newton's schedule to keep and tightly enough to
//! catch a change that buys speed with accuracy: each solve's step count,
//! and the mean and max Euler-equation errors (Judd, 1992) of its policy
//! on 500 points of the box (`ChaCha8Rng` seed 1, `avx2` oracle) within
//! 1e-3 relative of the values recorded when the point solves took a fresh
//! Jacobian every step. Release only: the cold solve takes ≈ 8 s in a
//! debug build.

use hddm_core::{DriverConfig, OlgStep, TimeIteration};
use hddm_kernels::KernelKind;
use hddm_olg::{euler_errors_on_box, Calibration, OlgModel};
use hddm_sched::PoolConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Solves `model` under `config` and checks its step count and Euler
/// errors against `(mean, max)`.
fn assert_accuracy(model: OlgModel, config: DriverConfig, steps: usize, want: (f64, f64)) {
    let mut ti = TimeIteration::new(OlgStep::new(model.clone()), config);
    let reports = ti.run();
    assert_eq!(reports.len(), steps);
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let errors = euler_errors_on_box(&model, &mut oracle, 500, &mut ChaCha8Rng::seed_from_u64(1));
    for (name, got, want) in [
        ("mean", errors.mean_error, want.0),
        ("max", errors.max_error, want.1),
    ] {
        let relative = (got - want).abs() / want;
        assert!(
            relative <= 1e-3,
            "{name} Euler error {got:e}, want {want:e}"
        );
    }
}

/// The benchmark's `solve_cold`: ε = 1e-2, `Lmax` = 4, to 1e-5.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_cold_solve_keeps_its_accuracy() {
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
    let model = OlgModel::new(Calibration::small(5, 3, 2, 0.04));
    assert_accuracy(model, config, 8, (1.796591e-4, 1.709163e-3));
}

/// The base economy of the benchmark's `sweep_warm`, solved cold on its
/// regular level-2 grid to 1e-6.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_sweep_base_economy_keeps_its_accuracy() {
    let config = DriverConfig {
        tolerance: 1e-6,
        ..Default::default()
    };
    let model = OlgModel::new(Calibration::small(10, 7, 4, 0.04));
    assert_accuracy(model, config, 15, (1.411838e-2, 1.470433e-1));
}
