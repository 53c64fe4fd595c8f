//! Cross-instance determinism: two drivers built from the same calibration
//! in the same process must produce bit-identical policies. This guards
//! the checkpoint/restart path (a resumed run continues the interrupted
//! one exactly) against hash-seed or iteration-order nondeterminism.
//!
//! Two solves are pinned outright, by the FNV-1a-64 of every state's
//! surplus bits in chain order, state after state, on the `avx2` kernel
//! (the driver's default) where the host has it: a four-state `d = 9`
//! economy on its regular grid, whose states share one grid and so one
//! walk, at 1, 2 and 4 threads; and the benchmark's cold adaptive solve,
//! whose states are refined apart.

use hddm_core::{DriverConfig, OlgStep, PolicySet, TimeIteration};
use hddm_kernels::KernelKind;
use hddm_olg::{Calibration, OlgModel, PolicyOracle};
use hddm_sched::PoolConfig;

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

/// FNV-1a-64 over the little-endian bytes of every surplus, state by
/// state, in chain order.
fn policy_hash(policy: &PolicySet) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for z in 0..policy.states.num_states() {
        for v in &policy.states.state(z).surplus {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn the_shared_grid_economy_solves_to_its_pinned_policy_on_any_thread_count() {
    if !KernelKind::Avx2.native() {
        return;
    }
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
            0x87c2_981e_04a0_5a4a,
            "{threads} threads"
        );
    }
}

/// The benchmark's `solve_cold` (8 s in a debug build, so release only).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn the_cold_adaptive_solve_reaches_its_pinned_policy() {
    if !KernelKind::Avx2.native() {
        return;
    }
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
    let mut ti = TimeIteration::new(OlgStep::new(model), config);
    assert_eq!(ti.run().len(), 8);
    assert_eq!(policy_hash(&ti.policy), 0x9aa4_2c65_9af2_185d);
}
