//! Cross-instance determinism: two drivers built from the same calibration
//! in the same process must produce bit-identical policies. This guards
//! the checkpoint/restart path (a resumed run continues the interrupted
//! one exactly) against hash-seed or iteration-order nondeterminism.
//!
//! Two solves are pinned outright, by the FNV-1a-64 of every state's
//! surplus bits in chain order, state after state, on the `avx2` kernel
//! (the driver's default) — natively or, on a host without AVX2 and FMA,
//! through its portable arithmetic, which gives the same bits: a
//! four-state `d = 9` economy on its regular grid, whose states share one
//! grid and so one walk, at 1, 2 and 4 threads and on every rank of a
//! world of 1, 3, 4 and 8 ranks (states multiplexed, a group per state,
//! groups of two);
//! and the benchmark's cold adaptive solve, whose states are refined
//! apart, on one process and on every rank of 1–4 ranks. A hash moves
//! with the last bit of any surplus, so the cold solve also pins what a
//! change to Newton's rounding must keep: its grid, no failed point, its
//! Euler errors to ten significant digits, and its step reports.

use hddm_cluster::ThreadComm;
use hddm_core::{DriverConfig, OlgStep, PolicySet, StepReport, TimeIteration};
use hddm_kernels::KernelKind;
use hddm_olg::{euler_errors_on_box, Calibration, OlgModel, PolicyOracle};
use hddm_sched::PoolConfig;
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
        let config = DriverConfig {
            tolerance: 1e-5,
            max_steps: 14,
            pool: PoolConfig {
                threads,
                ..PoolConfig::default()
            },
            ..Default::default()
        };
        let model = OlgModel::new(Calibration::small(10, 7, 4, 0.04));
        let mut ti = TimeIteration::new(OlgStep::new(model), config);
        ti.run();
        assert_eq!(
            policy_hash(&ti.policy),
            0x30e3_25bb_2685_05ea,
            "{threads} threads"
        );
    }
}

#[test]
fn the_shared_grid_economy_solves_to_its_pinned_policy_on_any_rank_count() {
    let config = DriverConfig {
        tolerance: 1e-5,
        max_steps: 14,
        pool: PoolConfig {
            threads: 1,
            ..PoolConfig::default()
        },
        ..Default::default()
    };
    pin_across_ranks(&[1, 3, 4, 8], 0x30e3_25bb_2685_05ea, |world| {
        let model = OlgModel::new(Calibration::small(10, 7, 4, 0.04));
        TimeIteration::over(world, OlgStep::new(model), config.clone())
    });
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
    let mut ti = TimeIteration::new(OlgStep::new(model.clone()), config.clone());
    let reports = ti.run();
    assert_eq!(report_hash(&reports), 0x319e_bfda_a5bb_2ba9);
    assert_eq!(reports.len(), 8);
    assert_eq!(reports[7].points_per_state, [1405, 1380]);
    assert_eq!(reports.iter().map(|r| r.solver_failures).sum::<usize>(), 0);
    // The benchmark's accuracy check: 500 points of the box, seed 1.
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let errors = euler_errors_on_box(&model, &mut oracle, 500, &mut ChaCha8Rng::seed_from_u64(1));
    assert_eq!(format!("{:.9e}", errors.mean_error), "1.796588794e-4");
    assert_eq!(format!("{:.9e}", errors.max_error), "1.709162130e-3");
    assert_eq!(policy_hash(&ti.policy), 0x8405_ce1b_446e_ab77);
    pin_across_ranks(&[1, 2, 3, 4], 0x8405_ce1b_446e_ab77, |world| {
        TimeIteration::over(world, OlgStep::new(model.clone()), config.clone())
    });
}
