//! Cross-instance determinism: two drivers built from the same calibration
//! in the same process must produce bit-identical policies. This guards
//! the checkpoint/restart path (a resumed run continues the interrupted
//! one exactly) against hash-seed or iteration-order nondeterminism.
//!
//! Two solves are pinned outright, by the FNV-1a-64 of every state's
//! surplus bits in chain order, state after state. The pins hold for the
//! fused class of kernels on any host: `avx2` (the driver's default) and
//! `avx512` round alike, and each gives the same bits natively or, on a
//! host without its instruction set, through its portable arithmetic. The
//! solves are a four-state `d = 9` economy on its regular grid, whose
//! states share one grid and so one walk, at 1, 2 and 4 threads, on every
//! rank of a world of 1, 3, 4 and 8 ranks (states multiplexed, a group per
//! state, groups of two) and under `avx512`; and the benchmark's cold
//! adaptive solve, whose states are refined apart, on one process, on
//! every rank of 1–4 ranks and under `avx512`. A hash moves with the last
//! bit of any surplus, so the cold solve also pins what a change to
//! Newton's rounding must keep: its grid, no failed point, its Euler
//! errors to ten significant digits, and its step reports. A warm start
//! from a refined surface is pinned the same way, policy and reports.
//!
//! Every pinned run carries Jacobian factors from step to step (its
//! `hddm_solve_jacobians_carried_total` is asserted positive), so the
//! pins also hold the factor store to thread-, rank- and kernel-equality:
//! a factor keyed by anything but its grid node, or left behind by the
//! world exchange or a group's merge, changes a hash.

use hddm_cluster::ThreadComm;
use hddm_core::{project_policy_with, DriverConfig, OlgStep, PolicySet, StepReport, TimeIteration};
use hddm_kernels::KernelKind;
use hddm_olg::{euler_errors_on_box, Calibration, OlgModel, PolicyOracle};
use hddm_sched::PoolConfig;
use hddm_telemetry::Registry;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn config(max_steps: usize) -> DriverConfig {
    DriverConfig {
        kernel: KernelKind::X86,
        start_level: 2,
        max_steps,
        tolerance: 0.0,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    }
}

fn probe(ti: &TimeIteration<OlgStep>, x: &[f64]) -> Vec<Vec<f64>> {
    let mut oracle = ti.policy.oracle(KernelKind::X86);
    (0..2)
        .map(|z| {
            let mut row = vec![0.0; 8];
            oracle.eval(z, x, &mut row);
            row
        })
        .collect()
}

#[test]
fn two_fresh_runs_are_bitwise_identical() {
    let make = || OlgModel::new(Calibration::small(5, 3, 2, 0.03));
    let x = make().steady.state_vector();
    let mut a = TimeIteration::new(OlgStep::new(make()), config(4));
    a.run();
    let mut b = TimeIteration::new(OlgStep::new(make()), config(4));
    b.run();
    assert_eq!(probe(&a, &x), probe(&b, &x));
}

#[test]
fn multithreaded_run_matches_single_thread() {
    // Disjoint-row writes and the deterministic merge make thread count
    // irrelevant to the result.
    let make = || OlgModel::new(Calibration::small(5, 3, 2, 0.03));
    let x = make().steady.state_vector();
    let mut serial = TimeIteration::new(OlgStep::new(make()), config(3));
    serial.run();
    let mut cfg = config(3);
    cfg.pool = PoolConfig {
        threads: 4,
        grain: 1,
    };
    let mut parallel = TimeIteration::new(OlgStep::new(make()), cfg);
    parallel.run();
    assert_eq!(probe(&serial, &x), probe(&parallel, &x));
}

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The hash of every surplus's bits, state by state, in chain order.
fn policy_hash(policy: &PolicySet) -> u64 {
    let states = (0..policy.states.num_states()).map(|z| policy.states.state(z));
    fnv1a(states.flat_map(|state| state.surplus.iter().map(|v| v.to_bits())))
}

/// The hash of every field of every report but the wall clock: `step`,
/// `sup_change` and `l2_change` bits, `points_per_state`, `level_points`
/// level-major and `solver_failures`.
fn report_hash(reports: &[StepReport]) -> u64 {
    fnv1a(reports.iter().flat_map(|r| {
        let head = [r.step as u64, r.sup_change.to_bits(), r.l2_change.to_bits()];
        let points = r
            .points_per_state
            .iter()
            .chain(r.level_points.iter().flatten());
        head.into_iter()
            .chain(points.map(|&p| p as u64))
            .chain([r.solver_failures as u64])
    }))
}

/// The systems a registry has seen start from a carried factor.
fn carried(registry: &Registry) -> u64 {
    let snapshot = registry.snapshot();
    snapshot
        .counter("hddm_solve_jacobians_carried_total")
        .unwrap_or(0)
}

/// Runs `make`'s driver over a world of each size in `ranks` and checks
/// that every rank ends at the policy hash `want`.
fn pin_across_ranks(
    ranks: &[usize],
    want: u64,
    make: impl Fn(ThreadComm) -> TimeIteration<OlgStep, ThreadComm> + Sync,
) {
    for &n in ranks {
        let hashes = ThreadComm::launch(n, |world| {
            let mut ti = make(world);
            ti.run();
            policy_hash(&ti.policy)
        });
        for (rank, hash) in hashes.into_iter().enumerate() {
            assert_eq!(hash, want, "rank {rank} of {n}");
        }
    }
}

#[test]
fn the_shared_grid_economy_solves_to_its_pinned_policy_on_any_thread_count() {
    for threads in [1, 2, 4] {
        let registry = Registry::new();
        let config = DriverConfig {
            tolerance: 1e-5,
            max_steps: 14,
            pool: PoolConfig {
                threads,
                ..PoolConfig::default()
            },
            telemetry: Some(registry.clone()),
            ..Default::default()
        };
        let model = OlgModel::new(Calibration::small(10, 7, 4, 0.04));
        let mut ti = TimeIteration::new(OlgStep::new(model), config);
        ti.run();
        assert_eq!(
            policy_hash(&ti.policy),
            0x03f8_b1a5_cab1_feec,
            "{threads} threads"
        );
        assert!(carried(&registry) > 0, "{threads} threads carry no factor");
    }
}

#[test]
fn the_shared_grid_economy_solves_to_its_pinned_policy_under_avx512() {
    let config = DriverConfig {
        kernel: KernelKind::Avx512,
        tolerance: 1e-5,
        max_steps: 14,
        pool: PoolConfig {
            threads: 1,
            ..PoolConfig::default()
        },
        ..Default::default()
    };
    let model = OlgModel::new(Calibration::small(10, 7, 4, 0.04));
    let mut ti = TimeIteration::new(OlgStep::new(model), config);
    ti.run();
    assert_eq!(policy_hash(&ti.policy), 0x03f8_b1a5_cab1_feec);
}

#[test]
fn the_shared_grid_economy_solves_to_its_pinned_policy_on_any_rank_count() {
    let registry = Registry::new();
    let config = DriverConfig {
        tolerance: 1e-5,
        max_steps: 14,
        pool: PoolConfig {
            threads: 1,
            ..PoolConfig::default()
        },
        telemetry: Some(registry.clone()),
        ..Default::default()
    };
    pin_across_ranks(&[1, 3, 4, 8], 0x03f8_b1a5_cab1_feec, |world| {
        let model = OlgModel::new(Calibration::small(10, 7, 4, 0.04));
        TimeIteration::over(world, OlgStep::new(model), config.clone())
    });
    assert!(carried(&registry) > 0, "no rank carried a factor");
}

/// A warm start as the scenario engine makes one: a source economy solved
/// until its states refine off the start grid, so the projection walks a
/// grid other than the target's, and a neighbouring calibration of the
/// same shape run from that surface. [`TimeIteration::warm`] and
/// [`project_policy_with`] + [`TimeIteration::with_policy`] reach the same
/// pinned policy and step reports.
#[test]
fn a_warm_start_from_a_refined_surface_reaches_its_pinned_policy() {
    let config = DriverConfig {
        refine_epsilon: Some(5e-3),
        max_level: 3,
        max_steps: 3,
        tolerance: 0.0,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    };
    let source = OlgModel::new(Calibration::small(4, 3, 2, 0.05));
    let mut source = TimeIteration::new(OlgStep::new(source), config.clone());
    source.run();
    let surface = &source.policy;
    let target = || OlgStep::new(OlgModel::new(Calibration::small(4, 3, 2, 0.06)));

    let warm = TimeIteration::warm(target(), config.clone(), surface).expect("same shape");
    let step = target();
    let (lo, hi) = (&step.model.lower, &step.model.upper);
    let (level, kernel, backend) = (config.start_level, config.kernel, &config.backend);
    let projected =
        project_policy_with(surface, lo, hi, level, kernel, backend).expect("same shape");
    assert_ne!(surface.points_per_state(), projected.points_per_state());
    let resumed = TimeIteration::with_policy(step, config, projected, 0);

    for (path, mut ti) in [("warm", warm), ("project + with_policy", resumed)] {
        let reports = ti.run();
        assert_eq!(policy_hash(&ti.policy), 0xf548_2910_eb62_dfbe, "{path}");
        assert_eq!(report_hash(&reports), 0x60f7_8bef_8ce7_10eb, "{path}");
    }
}

/// The benchmark's `solve_cold` (8 s in a debug build, so release only).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_cold_adaptive_solve_reaches_its_pinned_policy() {
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
    let registry = Registry::new();
    let traced = DriverConfig {
        telemetry: Some(registry.clone()),
        ..config.clone()
    };
    let mut ti = TimeIteration::new(OlgStep::new(model.clone()), traced);
    let reports = ti.run();
    assert!(carried(&registry) > 0);
    assert_eq!(report_hash(&reports), 0x64d3_b8a7_c956_f4bd);
    assert_eq!(reports.len(), 8);
    assert_eq!(reports[7].points_per_state, [1405, 1380]);
    assert_eq!(reports.iter().map(|r| r.solver_failures).sum::<usize>(), 0);
    // The benchmark's accuracy check: 500 points of the box, seed 1.
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let errors = euler_errors_on_box(&model, &mut oracle, 500, &mut ChaCha8Rng::seed_from_u64(1));
    assert_eq!(format!("{:.9e}", errors.mean_error), "1.796590717e-4");
    assert_eq!(format!("{:.9e}", errors.max_error), "1.709165025e-3");
    assert_eq!(policy_hash(&ti.policy), 0x8dd3_42eb_cbd6_f44d);
    pin_across_ranks(&[1, 2, 3, 4], 0x8dd3_42eb_cbd6_f44d, |world| {
        TimeIteration::over(world, OlgStep::new(model.clone()), config.clone())
    });
    let avx512 = DriverConfig {
        kernel: KernelKind::Avx512,
        ..config
    };
    let mut ti = TimeIteration::new(OlgStep::new(model), avx512);
    ti.run();
    assert_eq!(policy_hash(&ti.policy), 0x8dd3_42eb_cbd6_f44d, "avx512");
}

/// An adaptive three-state economy on two and three ranks, whose states
/// change hands between steps as their grids grow: a rank then builds a
/// state whose factors it received in the last step's world exchange, so
/// every rank must hold every state's store.
#[test]
fn states_that_change_ranks_keep_their_factors() {
    let registry = Registry::new();
    let config = DriverConfig {
        refine_epsilon: Some(5e-3),
        max_level: 3,
        max_steps: 4,
        tolerance: 0.0,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        telemetry: Some(registry.clone()),
        ..Default::default()
    };
    let model = || OlgStep::new(OlgModel::new(Calibration::small(4, 3, 3, 0.05)));
    let mut alone = TimeIteration::new(model(), config.clone());
    let reports = alone.run();
    assert!(carried(&registry) > 0);
    // Which states the first of two ranks builds, step by step: the
    // split must change for the exchange to matter.
    let mut splits = reports
        .iter()
        .map(|r| hddm_cluster::multiplex_states(&r.points_per_state, 2).swap_remove(0));
    let first = splits.next().expect("four steps");
    assert!(
        splits.any(|split| split != first),
        "the states never change ranks"
    );
    let want = policy_hash(&alone.policy);
    pin_across_ranks(&[2, 3], want, |world| {
        TimeIteration::over(world, model(), config.clone())
    });
}
