//! Integration tests spanning the whole stack: economy → driver → kernels
//! → compression → scheduler, plus the distributed code path over the
//! threaded communicator.

use hddm::cluster::{proportional_ranks, Comm, ThreadComm};
use hddm::core::{DriverConfig, OlgStep, TimeIteration};
use hddm::kernels::KernelKind;
use hddm::olg::{Calibration, OlgModel, PolicyOracle};
use hddm::sched::PoolConfig;

fn config(kernel: KernelKind, max_steps: usize) -> DriverConfig {
    DriverConfig {
        kernel,
        start_level: 2,
        max_steps,
        tolerance: 1e-7,
        pool: PoolConfig {
            threads: 2,
            grain: 2,
        },
        ..Default::default()
    }
}

/// The headline economics result at laptop scale: a stochastic OLG economy
/// solved to a recursive equilibrium, with Euler residuals vanishing at
/// grid points under the converged policy.
#[test]
fn stochastic_olg_reaches_equilibrium() {
    let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
    let check_model = model.clone();
    let mut ti = TimeIteration::new(OlgStep::new(model), config(KernelKind::Avx2, 80));
    let reports = ti.run();
    let last = reports.last().unwrap();
    assert!(
        last.sup_change < 1e-7,
        "not converged after {} steps: {}",
        reports.len(),
        last.sup_change
    );

    // Verify the fixed point: solving any grid point against the converged
    // policy must return (numerically) the policy itself.
    let mut oracle = ti.policy.oracle(KernelKind::X86);
    let mut scratch = hddm::olg::PointScratch::default();
    let x = check_model.steady.state_vector();
    for z in 0..check_model.num_states() {
        let mut warm = vec![0.0; check_model.ndofs()];
        oracle.eval(z, &x, &mut warm);
        let solution = check_model
            .solve_point(
                z,
                &x,
                &warm,
                &mut oracle,
                &mut scratch,
                &hddm::solver::NewtonOptions::default(),
            )
            .expect("point solve at equilibrium");
        for (a, s) in solution.savings.iter().enumerate() {
            assert!(
                (s - warm[a]).abs() < 5e-6 * (1.0 + warm[a].abs()),
                "state {z}, savings {a}: resolve {} vs policy {}",
                s,
                warm[a]
            );
        }
    }
}

/// Solution quality in the paper's own termination metric (Sec. V-D:
/// "average error below the satisfactory level of 0.1 percent"): the
/// converged policy's Euler errors along a simulated path must beat 10^-3
/// on average, and must be far smaller than the initial guess's errors.
#[test]
fn converged_policy_passes_the_papers_accuracy_bar() {
    use hddm::olg::{euler_errors_on_path, OlgModel};
    use rand::SeedableRng;

    let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
    let check_model = model.clone();
    let mut ti = TimeIteration::new(OlgStep::new(model), config(KernelKind::Avx2, 80));

    // Errors of the initial (steady-state-constant) policy.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let before = {
        let mut oracle = ti.policy.oracle(KernelKind::Avx2);
        euler_errors_on_path(&check_model, &mut oracle, 100, 10, &mut rng)
    };

    ti.run();

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let after = {
        let mut oracle = ti.policy.oracle(KernelKind::Avx2);
        euler_errors_on_path(&check_model, &mut oracle, 100, 10, &mut rng)
    };

    assert!(
        after.mean_error < 1e-3,
        "paper's 0.1% criterion violated: mean Euler error {}",
        after.mean_error
    );
    assert!(
        after.mean_error < before.mean_error,
        "time iteration did not improve accuracy: {} -> {}",
        before.mean_error,
        after.mean_error
    );
}

/// Every compressed kernel drives the same model to the same answer: bit
/// for bit within a rounding class (`x86` ≡ `avx`, `avx2` ≡ `avx512`), and
/// to 1e-8 across the two.
#[test]
fn kernels_are_interchangeable_in_the_driver() {
    let solve = |kernel| {
        let model = OlgModel::new(Calibration::deterministic(4, 3));
        let probe = model.steady.state_vector();
        let mut ti = TimeIteration::new(OlgStep::new(model), config(kernel, 40));
        ti.run();
        let mut oracle = ti.policy.oracle(kernel);
        let mut row = vec![0.0; 6];
        oracle.eval(0, &probe, &mut row);
        row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
    };
    let [x86, avx, avx2, avx512] = [
        KernelKind::X86,
        KernelKind::Avx,
        KernelKind::Avx2,
        KernelKind::Avx512,
    ]
    .map(solve);
    assert_eq!(x86, avx, "x86 vs avx");
    assert_eq!(avx2, avx512, "avx2 vs avx512");
    for (a, b) in x86.iter().zip(&avx2) {
        let (a, b) = (f64::from_bits(*a), f64::from_bits(*b));
        assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }
}

/// The adaptive path: refinement changes per-state grid sizes, and the
/// spread mirrors the paper's observation (Fig. 9 note: 69,026–76,645
/// points across states at convergence — sizes differ per state).
#[test]
fn adaptive_refinement_runs_through_the_driver() {
    let model = OlgModel::new(Calibration::small(4, 3, 2, 0.08));
    let mut driver_config = config(KernelKind::Avx2, 3);
    driver_config.refine_epsilon = Some(5e-4);
    driver_config.max_level = 4;
    let mut ti = TimeIteration::new(OlgStep::new(model), driver_config);
    let reports = ti.run();
    let last = reports.last().unwrap();
    let level2 = hddm::asg::regular_grid_size(3, 2) as usize;
    assert!(
        last.points_per_state.iter().any(|&p| p > level2),
        "refinement never triggered: {:?}",
        last.points_per_state
    );
}

/// Distributed time step over the threaded communicator: ranks split into
/// per-state groups (Fig. 2), solve their share of points, and the merged
/// policy matches the serial run bit-for-bit (same solves, same order).
#[test]
fn distributed_step_matches_serial() {
    let ndofs = 8; // A=5 -> 2·4
    let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));

    // Serial reference: one step from the steady-state initial policy.
    let mut serial = TimeIteration::new(OlgStep::new(model.clone()), config(KernelKind::X86, 1));
    serial.step();
    let probe = model.steady.state_vector();
    let mut serial_row = vec![0.0; ndofs];
    serial
        .policy
        .oracle(KernelKind::X86)
        .eval(0, &probe, &mut serial_row);

    // Distributed: 4 ranks, comm split by state color, each group solves
    // its state's grid points, results allgathered and compared.
    let results = ThreadComm::launch(4, |world| {
        let ns = 2usize;
        let m = vec![1usize; ns]; // equal grids -> equal groups
        let counts = proportional_ranks(&m, world.size());
        // Color of this rank: first group covers ranks [0, counts[0]).
        let color = if world.rank() < counts[0] { 0 } else { 1 };
        let group = world.split(color);

        let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
        let ti = TimeIteration::new(OlgStep::new(model), config(KernelKind::X86, 1));
        // Each group solves the full grid of its state; ranks within the
        // group split the points.
        let grid = hddm::asg::regular_grid(4, 2);
        let domain = ti.policy.domain.clone();
        let mut rows = Vec::new();
        let mut oracle = ti.policy.oracle(KernelKind::X86);
        let mut scratch = hddm::olg::PointScratch::default();
        let mut unit = vec![0.0; 4];
        let mut phys = vec![0.0; 4];
        let step = OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.03)));
        for p in 0..grid.len() {
            if p % group.size() != group.rank() {
                continue;
            }
            grid.unit_point_of(p, &mut unit);
            domain.from_unit(&unit, &mut phys);
            let mut warm = vec![0.0; 8];
            oracle.eval(color, &phys, &mut warm);
            let solution = step
                .model
                .solve_point(
                    color,
                    &phys,
                    &warm,
                    &mut oracle,
                    &mut scratch,
                    &hddm::solver::NewtonOptions::default(),
                )
                .expect("distributed point solve");
            rows.push((p, solution.dof_row()));
        }
        // Merge within the group: flatten (p, row) pairs.
        let mut flat = Vec::new();
        for (p, row) in &rows {
            flat.push(*p as f64);
            flat.extend_from_slice(row);
        }
        let gathered = group.allgather(&flat);
        world.barrier();
        (color, group.rank(), gathered)
    });

    // Reassemble state-0 policy rows from the distributed run and compare
    // with the serial step at the grid points.
    let grid = hddm::asg::regular_grid(4, 2);
    let mut assembled = vec![vec![0.0; ndofs]; grid.len()];
    let mut seen = vec![false; grid.len()];
    for (color, _, gathered) in &results {
        if *color != 0 {
            continue;
        }
        for flat in gathered {
            let mut at = 0;
            while at < flat.len() {
                let p = flat[at] as usize;
                assembled[p].copy_from_slice(&flat[at + 1..at + 1 + ndofs]);
                seen[p] = true;
                at += 1 + ndofs;
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "distributed run missed points");

    // Serial step solved the same points against the same initial policy:
    // spot-check the steady-state-nearest grid point.
    let domain = serial.policy.domain.clone();
    let mut unit = vec![0.0; 4];
    let mut best = (0usize, f64::INFINITY);
    let mut phys = vec![0.0; 4];
    for p in 0..grid.len() {
        grid.unit_point_of(p, &mut unit);
        domain.from_unit(&unit, &mut phys);
        let d2: f64 = phys
            .iter()
            .zip(&probe)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        if d2 < best.1 {
            best = (p, d2);
        }
    }
    // The serial policy interpolated at that grid point equals the
    // distributed solve there.
    grid.unit_point_of(best.0, &mut unit);
    domain.from_unit(&unit, &mut phys);
    serial
        .policy
        .oracle(KernelKind::X86)
        .eval(0, &phys, &mut serial_row);
    for k in 0..ndofs {
        assert!(
            (serial_row[k] - assembled[best.0][k]).abs() < 1e-6 * (1.0 + serial_row[k].abs()),
            "dof {k}: serial {} vs distributed {}",
            serial_row[k],
            assembled[best.0][k]
        );
    }
}
