//! Forward simulation of the economy under a (solved) policy: draw a
//! Markov path of discrete shocks, iterate the state transition, and
//! record aggregates — the standard post-solution step for computing
//! ergodic distributions and welfare statistics in the OLG literature.

use rand::Rng;

use crate::calibration::Calibration;
use crate::economy::{income, prices};
use crate::model::{OlgModel, PolicyOracle};

/// One simulated period.
#[derive(Clone, Debug)]
pub struct SimPeriod {
    /// Discrete state `z_t`.
    pub shock: usize,
    /// Aggregate capital `K_t`.
    pub capital: f64,
    /// Output `Y_t`.
    pub output: f64,
    /// Pre-tax interest rate `r_t`.
    pub interest: f64,
    /// Wage `w_t`.
    pub wage: f64,
    /// Aggregate consumption `C_t`.
    pub consumption: f64,
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct Simulation {
    /// The simulated path, one entry per period.
    pub path: Vec<SimPeriod>,
}

impl Simulation {
    /// Mean of a per-period quantity.
    pub fn mean<F: Fn(&SimPeriod) -> f64>(&self, f: F) -> f64 {
        self.path.iter().map(&f).sum::<f64>() / self.path.len().max(1) as f64
    }

    /// Standard deviation of a per-period quantity.
    pub fn std<F: Fn(&SimPeriod) -> f64 + Copy>(&self, f: F) -> f64 {
        let mean = self.mean(f);
        (self.path.iter().map(|p| (f(p) - mean).powi(2)).sum::<f64>()
            / self.path.len().max(1) as f64)
            .sqrt()
    }
}

/// Simulates `periods` periods from the steady state under the policy
/// served by `oracle`, drawing shocks from the model's Markov chain.
///
/// The state transition is the model's own (`x' = (Σ s_a, s_1, …)`,
/// clamped into the box `B` like the solver does).
pub fn simulate<R: Rng>(
    model: &OlgModel,
    oracle: &mut dyn PolicyOracle,
    periods: usize,
    burn_in: usize,
    rng: &mut R,
) -> Simulation {
    let cal: &Calibration = &model.cal;
    let a_max = cal.lifespan;
    let ndofs = model.ndofs();
    let mut z = 0usize;
    let mut x = model.steady.state_vector();
    let mut row = vec![0.0; ndofs];
    let mut wealth = Vec::new();
    let mut path = Vec::with_capacity(periods);

    for t in 0..periods + burn_in {
        oracle.eval(z, &x, &mut row);
        let savings = &row[..a_max - 1];
        let p = prices(cal, z, x[0].max(1e-9));
        if t >= burn_in {
            model.wealth_from_state(&x, &mut wealth);
            let mut consumption = 0.0;
            for a in 1..=a_max {
                let s_a = if a < a_max { savings[a - 1] } else { 0.0 };
                consumption += p.gross_return * wealth[a - 1] + income(cal, z, &p, a) - s_a;
            }
            path.push(SimPeriod {
                shock: z,
                capital: x[0],
                output: p.output,
                interest: p.interest,
                wage: p.wage,
                consumption,
            });
        }
        // Transition: x' from savings; z' from the chain.
        advance(model, savings, &mut x);
        z = cal.chain.step(z, rng);
    }
    Simulation { path }
}

/// A path's state transition: tomorrow's state of `savings`
/// ([`OlgModel::next_state`]) into `x`, clamped into the box `B` like the
/// solver does.
pub(crate) fn advance(model: &OlgModel, savings: &[f64], x: &mut Vec<f64>) {
    model.next_state(savings, x);
    for (d, v) in x.iter_mut().enumerate() {
        *v = v.clamp(model.lower[d], model.upper[d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use rand::SeedableRng;

    /// Constant steady-state policy oracle.
    struct SteadyOracle(Vec<f64>);
    impl PolicyOracle for SteadyOracle {
        fn eval(&mut self, _z: usize, _x: &[f64], out: &mut [f64]) {
            out.copy_from_slice(&self.0);
        }
    }

    #[test]
    fn deterministic_simulation_stays_at_steady_state() {
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let mut oracle = SteadyOracle(model.steady.dof_row());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let sim = simulate(&model, &mut oracle, 50, 0, &mut rng);
        for period in &sim.path {
            assert!(
                (period.capital - model.steady.capital).abs() < 1e-9,
                "K drifted: {} vs {}",
                period.capital,
                model.steady.capital
            );
        }
        // Aggregate accounting: C + δK = Y every period.
        for p in &sim.path {
            let lhs = p.consumption + model.cal.depreciation * p.capital;
            assert!((lhs - p.output).abs() < 1e-8 * p.output);
        }
    }

    #[test]
    fn stochastic_simulation_fluctuates_and_stays_in_box() {
        let model = OlgModel::new(Calibration::small(6, 4, 2, 0.08));
        let mut oracle = SteadyOracle(model.steady.dof_row());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let sim = simulate(&model, &mut oracle, 200, 10, &mut rng);
        assert_eq!(sim.path.len(), 200);
        // Output varies with the shock even under a constant policy.
        assert!(sim.std(|p| p.output) > 0.0);
        for p in &sim.path {
            assert!(p.capital >= model.lower[0] && p.capital <= model.upper[0]);
        }
        // Both shocks realized.
        let hit0 = sim.path.iter().any(|p| p.shock == 0);
        let hit1 = sim.path.iter().any(|p| p.shock == 1);
        assert!(hit0 && hit1);
    }

    #[test]
    fn statistics_helpers() {
        let sim = Simulation {
            path: vec![
                SimPeriod {
                    shock: 0,
                    capital: 1.0,
                    output: 2.0,
                    interest: 0.0,
                    wage: 0.0,
                    consumption: 0.0,
                },
                SimPeriod {
                    shock: 0,
                    capital: 3.0,
                    output: 4.0,
                    interest: 0.0,
                    wage: 0.0,
                    consumption: 0.0,
                },
            ],
        };
        assert_eq!(sim.mean(|p| p.capital), 2.0);
        assert_eq!(sim.std(|p| p.capital), 1.0);
    }
}
