//! The block path against the point-at-a-time path, on the kernels.
//!
//! `OlgStep` overrides `StepModel::solve_point_rows` with the lockstep
//! block solve; a model that implements only `solve_point_row` (the shape
//! of the benchmark's `TracedStep`) gets the provided loop, in which every
//! oracle call is a single point. Both must build the same policies bit
//! for bit, whatever the thread count — and so must a block solve and a
//! loop of point solves against the same `AsgOracle`, for every kernel —
//! in every exponent class of the CRRA kernel (`γ` of 1, 2 and 3 take the
//! multiplication form, 2.5 is `powf`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hddm_cluster::ThreadComm;
use hddm_core::{DriverConfig, OlgStep, PolicySet, StepModel, TimeIteration};
use hddm_kernels::{BlockObserver, ChunkCounts, CompressedState, ExecutionBackend, KernelKind};
use hddm_olg::{Calibration, OlgModel, PointScratch, PolicyOracle};
use hddm_sched::PoolConfig;
use hddm_solver::SolverError;
use hddm_telemetry::Registry;

/// `OlgStep` without its block override.
struct RowOnly(OlgStep);

impl StepModel for RowOnly {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn ndofs(&self) -> usize {
        self.0.ndofs()
    }
    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        self.0.bounds()
    }
    fn initial_row(&self) -> Vec<f64> {
        self.0.initial_row()
    }
    fn solve_point_row(
        &self,
        z: usize,
        x_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
    ) -> Result<Vec<f64>, SolverError> {
        self.0.solve_point_row(z, x_phys, warm, oracle)
    }
}

const GAMMAS: [f64; 4] = [1.0, 2.0, 2.5, 3.0];

/// The `solve_cold` instance of the benchmark of record, at risk aversion
/// `gamma` (the benchmark's is 2).
fn instance_with(gamma: f64) -> OlgModel {
    OlgModel::new(Calibration {
        gamma,
        ..Calibration::small(5, 3, 2, 0.04)
    })
}

fn instance() -> OlgModel {
    instance_with(2.0)
}

fn config(threads: usize) -> DriverConfig {
    DriverConfig {
        refine_epsilon: Some(1e-2),
        max_level: 4,
        tolerance: 1e-5,
        max_steps: 2,
        pool: PoolConfig { threads, grain: 4 },
        ..Default::default()
    }
}

/// Grid sizes and every surplus's bits, state by state.
fn policy_bits(policy: &PolicySet) -> Vec<(usize, Vec<u64>)> {
    (0..policy.states.num_states())
        .map(|z| {
            let state = policy.states.state(z);
            let surplus = state.surplus.iter().map(|v| v.to_bits()).collect();
            (state.grid.nno(), surplus)
        })
        .collect()
}

/// [`config`] for the comparisons at `gamma`: the benchmark's γ refines
/// as the benchmark does; the grids of the more risk-averse economies
/// grow several times larger at that depth, so the other classes stop a
/// level earlier.
fn config_at(gamma: f64, threads: usize) -> DriverConfig {
    DriverConfig {
        max_level: if gamma == 2.0 { 4 } else { 3 },
        ..config(threads)
    }
}

fn two_steps<M: StepModel>(model: M, config: DriverConfig) -> (PolicySet, Vec<usize>) {
    let mut ti = TimeIteration::new(model, config);
    let failures = ti.run().iter().map(|r| r.solver_failures).collect();
    (ti.policy, failures)
}

#[test]
fn block_path_and_row_path_build_identical_policies() {
    for gamma in GAMMAS {
        let block_path = || OlgStep::new(instance_with(gamma));
        let (reference, failures) = two_steps(RowOnly(block_path()), config_at(gamma, 1));
        let reference = policy_bits(&reference);
        assert!(reference.iter().all(|(nno, _)| *nno > 100), "no refinement");
        for threads in [1, 2] {
            let at = format!("γ = {gamma}, {threads} threads");
            let (blocks, block_failures) = two_steps(block_path(), config_at(gamma, threads));
            assert_eq!(policy_bits(&blocks), reference, "block path, {at}");
            assert_eq!(block_failures, failures, "{at}");
            let (rows, row_failures) = two_steps(RowOnly(block_path()), config_at(gamma, threads));
            assert_eq!(policy_bits(&rows), reference, "row path, {at}");
            assert_eq!(row_failures, failures, "{at}");
        }
    }
}

#[test]
fn block_solve_equals_point_solves_on_every_kernel() {
    for gamma in GAMMAS {
        // A refined, non-trivial pnext: one adaptive step from the constant.
        let model = instance_with(gamma);
        let (policy, _) = two_steps(OlgStep::new(model.clone()), config_at(gamma, 1));
        let step = OlgStep::new(model);
        let (dim, ndofs) = (step.dim(), step.ndofs());
        let (lower, upper) = step.bounds();
        let warm = step.initial_row();
        for npts in [1usize, 7, 64, 130] {
            // States across the box, some outside it (the oracle clamps).
            let xs: Vec<f64> = (0..npts * dim)
                .map(|k| {
                    let u = ((k * 37 + 11) % 101) as f64 / 100.0 * 1.1 - 0.05;
                    lower[k % dim] + (upper[k % dim] - lower[k % dim]) * u
                })
                .collect();
            for kernel in KernelKind::COMPRESSED {
                let at = format!("γ = {gamma}, {kernel:?}, {npts} points");
                let mut oracle = policy.oracle(kernel);
                let mut rows = vec![0.0; npts * ndofs];
                let together = step.solve_point_rows(
                    1,
                    &xs,
                    &warm.repeat(npts),
                    &mut oracle,
                    &mut PointScratch::default(),
                    &mut rows,
                );
                let traffic = oracle.take_traffic();
                assert!(traffic.points > traffic.blocks || npts == 1, "{traffic:?}");
                for i in 0..npts {
                    let alone =
                        step.solve_point_row(1, &xs[i * dim..(i + 1) * dim], &warm, &mut oracle);
                    match (&together[i], alone) {
                        (Ok(()), Ok(alone)) => {
                            let got = rows[i * ndofs..(i + 1) * ndofs].iter().map(|v| v.to_bits());
                            let want = alone.iter().map(|v| v.to_bits());
                            assert!(got.eq(want), "{at}, point {i}");
                        }
                        (Err(got), Err(want)) => assert_eq!(got, &want),
                        (got, want) => panic!("{at}, point {i}: {got:?} vs {want:?}"),
                    }
                }
            }
        }
    }
}

/// Counts the points of every block an observed backend evaluates.
#[derive(Debug, Default)]
struct PointCounter(AtomicU64);

impl BlockObserver for PointCounter {
    fn observe(&self, _state: &CompressedState, counts: &[ChunkCounts]) {
        let points: usize = counts.iter().map(|c| c.chunk).sum();
        self.0.fetch_add(points as u64, Ordering::Relaxed);
    }
}

/// The named counters of a registry a solve has reported to.
fn counters<const N: usize>(registry: &Registry, names: [&str; N]) -> [u64; N] {
    let snapshot = registry.snapshot();
    names.map(|name| snapshot.counter(name).expect("registered by the solve"))
}

#[test]
fn solver_blocks_reach_the_registry_and_the_observer() {
    let (reference, _) = two_steps(OlgStep::new(instance()), config(1));
    let traffic = |registry: &Registry| {
        let names = [
            "hddm_solve_oracle_blocks_total",
            "hddm_solve_oracle_points_total",
            "hddm_solve_oracle_walks_total",
        ];
        let [blocks, points, walks] = counters(registry, names);
        (blocks, points, walks)
    };

    // The block path, observed, on two threads: same policies, its
    // blocks are wide, and the observer sees every point the oracle
    // evaluated (plus the driver's own warm-start and hierarchization blocks).
    let registry = Registry::new();
    let observer = Arc::new(PointCounter::default());
    let mut ti = TimeIteration::new(
        OlgStep::new(instance()),
        DriverConfig {
            backend: ExecutionBackend::Observed(observer.clone()),
            telemetry: Some(registry.clone()),
            ..config(2)
        },
    );
    let reports = ti.run();
    assert_eq!(policy_bits(&ti.policy), policy_bits(&reference));
    let (blocks, points, walks) = traffic(&registry);
    assert!(points > 8 * blocks, "{points} points in {blocks} blocks");
    // The first step's `pnext` is the start policy, one grid for both
    // states, so its blocks come in pairs per walk; the second's grids
    // are refined apart.
    assert!(
        walks < blocks && 2 * walks > blocks,
        "{blocks} blocks in {walks} walks"
    );
    assert!(observer.0.load(Ordering::Relaxed) > points);

    // The point solver's tally reaches the same registry: every residual
    // row with capital tomorrow is interpolated once per next state (the
    // value recursion reuses the accepted row's, and a Jacobian row's
    // points — every start row among them — are no oracle traffic), a
    // Jacobian row is no residual row — a converged system evaluated at
    // least one trial per Newton iteration (a forced refresh follows a
    // failed trial) — and thread count moves none of it.
    let work = |registry: &Registry| {
        counters(
            registry,
            [
                "hddm_solve_residual_rows_total",
                "hddm_solve_jacobians_total",
                "hddm_solve_newton_iterations_total",
            ],
        )
    };
    let [residual_rows, jacobians, iterations] = work(&registry);
    let interpolated = residual_rows * instance().num_states() as u64;
    assert!(
        points <= interpolated && points > interpolated / 100 * 99,
        "a rejected row is counted and not interpolated: {points} vs {interpolated}"
    );
    // Broyden updates carry the iterations between Jacobians.
    assert!(
        jacobians > 0 && iterations > jacobians,
        "{jacobians} Jacobians in {iterations} iterations"
    );
    let solved: usize = reports
        .iter()
        .flat_map(|r| r.level_points.iter().flatten())
        .sum();
    let failed: usize = reports.iter().map(|r| r.solver_failures).sum();
    assert!(residual_rows >= iterations && solved > failed);
    // Backtracks are rare: fewer than one per Jacobian, where counting its
    // finite-difference columns would add `dim` per Jacobian.
    assert!(residual_rows < iterations + jacobians);
    let one_thread = Registry::new();
    let mut ti = TimeIteration::new(
        OlgStep::new(instance()),
        DriverConfig {
            telemetry: Some(one_thread.clone()),
            ..config(1)
        },
    );
    ti.run();
    assert_eq!(work(&one_thread), [residual_rows, jacobians, iterations]);

    // The row path makes the same evaluations point solve by point
    // solve: every value evaluation is one point.
    let row_registry = Registry::new();
    let mut ti = TimeIteration::new(
        RowOnly(OlgStep::new(instance())),
        DriverConfig {
            telemetry: Some(row_registry.clone()),
            ..config(1)
        },
    );
    ti.run();
    let (row_blocks, row_points, row_walks) = traffic(&row_registry);
    assert_eq!(row_points, points);
    assert!(row_points == row_blocks && row_blocks > blocks);
    // A one-point call shares its walk as a wide one does.
    assert!(row_walks < row_blocks && 2 * row_walks > row_blocks);
}

#[test]
fn a_distributed_step_is_observed_and_timed_like_the_single_process_step() {
    // One step of the same instance on one rank and on two, whose ranks
    // share the observer and the registry: the observer sees the same
    // points (solver, warm-start and hierarchization blocks alike) and
    // the phase spans record the same number of levels.
    let measure = |step: &dyn Fn(&DriverConfig)| {
        let registry = Registry::new();
        let observer = Arc::new(PointCounter::default());
        step(&DriverConfig {
            backend: ExecutionBackend::Observed(observer.clone()),
            telemetry: Some(registry.clone()),
            ..config(1)
        });
        let snapshot = registry.snapshot();
        let levels = |name| snapshot.histogram(name).map_or(0, |h| h.count);
        (
            observer.0.load(Ordering::Relaxed),
            levels("hddm_solve_policy_update_seconds"),
            levels("hddm_solve_hierarchize_seconds"),
        )
    };
    let single = measure(&|config| {
        TimeIteration::new(OlgStep::new(instance()), config.clone()).step();
    });
    let distributed = measure(&|config| {
        ThreadComm::launch(2, |world| {
            TimeIteration::over(world, OlgStep::new(instance()), config.clone()).step();
        });
    });
    assert!(single.1 > 2 && single.2 == single.1, "{single:?}");
    assert_eq!(distributed, single);
}
