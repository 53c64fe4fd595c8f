//! Glue between the OLG economy and the time-iteration driver.

use hddm_olg::{OlgModel, PointScratch, PolicyOracle};
use hddm_solver::{Factors, NewtonOptions, SolverError};

use crate::driver::StepModel;

/// The OLG model wired into the driver, with its per-point Newton policy.
pub struct OlgStep {
    /// The economy.
    pub model: OlgModel,
    /// Per-point solver options.
    pub newton: NewtonOptions,
}

impl OlgStep {
    /// Wraps a model with default Newton options.
    pub fn new(model: OlgModel) -> Self {
        OlgStep {
            model,
            newton: NewtonOptions::default(),
        }
    }
}

impl StepModel for OlgStep {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn ndofs(&self) -> usize {
        self.model.ndofs()
    }

    fn num_states(&self) -> usize {
        self.model.num_states()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (self.model.lower.clone(), self.model.upper.clone())
    }

    fn initial_row(&self) -> Vec<f64> {
        // The steady-state policies/values — the paper restarts iterations
        // from coarse solutions; step 0 restarts from the steady state.
        self.model.steady.dof_row()
    }

    fn solve_point_row(
        &self,
        z: usize,
        x_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
    ) -> Result<Vec<f64>, SolverError> {
        let mut scratch = PointScratch::default();
        let solution =
            self.model
                .solve_point(z, x_phys, warm, oracle, &mut scratch, &self.newton)?;
        Ok(solution.dof_row())
    }

    /// The Euler system's unknowns, the savings `s_1…s_{A−1}`.
    fn unknowns(&self) -> usize {
        self.model.dim()
    }

    /// The block as one lockstep solve ([`OlgModel::solve_points`]).
    fn solve_point_rows(
        &self,
        z: usize,
        xs_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        factors: &mut Factors,
        rows: &mut [f64],
    ) -> Vec<Result<(), SolverError>> {
        let options = &self.newton;
        let reports =
            (self.model).solve_points(z, xs_phys, warm, oracle, scratch, options, factors, rows);
        reports.into_iter().map(|report| report.map(drop)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, TimeIteration};
    use hddm_kernels::KernelKind;
    use hddm_olg::Calibration;
    use hddm_sched::PoolConfig;

    fn driver_config(max_steps: usize) -> DriverConfig {
        DriverConfig {
            kernel: KernelKind::Avx2,
            start_level: 2,
            refine_epsilon: None,
            max_steps,
            tolerance: 1e-7,
            pool: PoolConfig {
                threads: 2,
                grain: 2,
            },
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_olg_converges_to_steady_state() {
        // With one discrete state, the recursive equilibrium is the
        // analytic steady state; time iteration must converge onto it.
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let steady_savings = model.steady.savings.clone();
        let x_bar = model.steady.state_vector();
        let mut ti = TimeIteration::new(OlgStep::new(model), driver_config(60));
        let reports = ti.run();
        let last = reports.last().unwrap();
        assert!(
            last.sup_change < 1e-7,
            "no convergence: {} after {} steps",
            last.sup_change,
            reports.len()
        );
        assert_eq!(last.solver_failures, 0);

        // The converged policy at the steady point reproduces steady
        // savings.
        let mut oracle = ti.policy.oracle(KernelKind::X86);
        let mut row = vec![0.0; 10];
        use hddm_olg::PolicyOracle as _;
        oracle.eval(0, &x_bar, &mut row);
        for (a, want) in steady_savings.iter().enumerate() {
            assert!(
                (row[a] - want).abs() < 1e-4 * (1.0 + want.abs()),
                "savings {a}: {} vs {}",
                row[a],
                want
            );
        }
    }

    #[test]
    fn policy_change_decays_monotonically_ish() {
        let model = OlgModel::new(Calibration::deterministic(5, 3));
        let mut ti = TimeIteration::new(OlgStep::new(model), driver_config(25));
        let reports = ti.run();
        assert!(reports.len() >= 5);
        // Time iteration is (at best) linearly convergent: demand decay by
        // a factor over 4-step windows rather than strict monotonicity.
        let changes: Vec<f64> = reports.iter().map(|r| r.sup_change).collect();
        for window in changes.windows(5).take(4) {
            assert!(window[4] < window[0], "no decay across window: {window:?}");
        }
    }

    #[test]
    fn stochastic_olg_step_runs_and_contracts() {
        let model = OlgModel::new(Calibration::small(5, 3, 2, 0.04));
        let mut ti = TimeIteration::new(OlgStep::new(model), driver_config(12));
        let reports = ti.run();
        let first = reports.first().unwrap().sup_change;
        let last = reports.last().unwrap().sup_change;
        assert!(
            last < first * 0.5,
            "insufficient contraction: {first} -> {last}"
        );
        // All states carry the same regular grid here.
        let points = &reports.last().unwrap().points_per_state;
        assert!(points.iter().all(|&p| p == points[0]));
    }
}
