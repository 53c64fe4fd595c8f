//! The deterministic steady state of the OLG economy.
//!
//! With a single discrete state, the recursive equilibrium of Sec. II
//! degenerates to a stationary allocation: constant prices, a lifecycle
//! consumption profile growing at `(βR̃)^{1/γ}`, and an asset path that
//! reproduces aggregate capital. It serves three roles here: convergence
//! oracle for the time-iteration tests, initial policy guess (the paper
//! restarts iterations from coarse solutions; we restart iteration 0 from
//! the steady state), and centering of the state-space box `B`.

use crate::calibration::{Calibration, RegimeSpec};
use crate::economy::{income, prices, utility, Prices};
use crate::markov::MarkovChain;
use hddm_solver::brent;

/// The steady-state allocation.
#[derive(Clone, Debug)]
pub struct SteadyState {
    /// Aggregate capital `K̄`.
    pub capital: f64,
    /// Steady prices.
    pub prices: Prices,
    /// Consumption by age, `c̄_a`, `a = 1..=A`.
    pub consumption: Vec<f64>,
    /// Beginning-of-period assets by age, `ω̄_a`, `a = 1..=A` (ω̄_1 = 0).
    pub assets: Vec<f64>,
    /// Savings by age (`s̄_a = ω̄_{a+1}`), `a = 1..=A−1`.
    pub savings: Vec<f64>,
    /// Lifetime values by age, `v̄_a = Σ_{k≥a} β^{k−a} u(c̄_k)`.
    pub values: Vec<f64>,
}

/// Reduces a stochastic calibration to its deterministic reference economy
/// (mean productivity and taxes, single absorbing state).
pub fn reference_calibration(cal: &Calibration) -> Calibration {
    let n = cal.num_states() as f64;
    let mean = |f: fn(&RegimeSpec) -> f64| cal.regimes.iter().map(f).sum::<f64>() / n;
    let mut reference = cal.clone();
    reference.regimes = vec![RegimeSpec {
        productivity: mean(|r| r.productivity),
        labor_tax: mean(|r| r.labor_tax),
        capital_tax: mean(|r| r.capital_tax),
    }];
    reference.chain = MarkovChain::deterministic();
    reference.validate().unwrap_or_else(|e| panic!("{e}"));
    reference
}

/// Given `K`, solves the stationary lifecycle and returns the implied
/// aggregate capital together with the allocation.
fn lifecycle(cal: &Calibration, capital: f64) -> (f64, SteadyState) {
    let a_max = cal.lifespan;
    let p = prices(cal, 0, capital);
    let growth = (cal.beta * p.gross_return).powf(1.0 / cal.gamma);
    let r = p.gross_return;

    // Present value of income and of the unit consumption profile.
    let mut pv_income = 0.0;
    let mut pv_consumption_unit = 0.0;
    let mut discount = 1.0; // 1/R̃^{a−1}
    let mut growth_pow = 1.0; // g^{a−1}
    for a in 1..=a_max {
        pv_income += income(cal, 0, &p, a) * discount;
        pv_consumption_unit += growth_pow * discount;
        discount /= r;
        growth_pow *= growth;
    }
    let c1 = pv_income / pv_consumption_unit;

    // assets[a] = ω̄_a for a = 1..=A, plus the terminal slot ω̄_{A+1}
    // (which must come out ≈ 0: no bequests).
    let mut consumption = Vec::with_capacity(a_max);
    let mut assets = vec![0.0; a_max + 2];
    let mut c = c1;
    for a in 1..=a_max {
        consumption.push(c);
        assets[a + 1] = r * assets[a] + income(cal, 0, &p, a) - c;
        c *= growth;
    }
    let implied: f64 = assets[1..=a_max].iter().sum();

    let savings: Vec<f64> = (1..a_max).map(|a| assets[a + 1]).collect();
    let mut values = vec![0.0; a_max];
    values[a_max - 1] = utility(cal.gamma, consumption[a_max - 1]);
    for a in (0..a_max - 1).rev() {
        values[a] = utility(cal.gamma, consumption[a]) + cal.beta * values[a + 1];
    }

    (
        implied,
        SteadyState {
            capital,
            prices: p,
            consumption,
            assets: assets[1..=a_max].to_vec(),
            savings,
            values,
        },
    )
}

/// Solves the steady state of (the deterministic reference of) `cal` by
/// bracketing the aggregate-capital fixed point `K_implied(K) = K`.
///
/// The bracket is anchored in interest-rate space: with long lifespans the
/// asset recursion compounds at `R̃^{A−1}`, so absurdly small `K` (huge
/// `r`) produces numerically explosive lifecycles and spurious
/// sign changes of the excess function. Restricting the search to the
/// economically admissible window `r ∈ [r_lo, r_hi]` keeps the root finder
/// on the equilibrium the literature calibrates to. A calibration whose
/// excess function keeps one sign over the whole window has no steady
/// state there, and gets an error naming the window.
pub fn solve_steady_state(cal: &Calibration) -> Result<SteadyState, String> {
    let reference = if cal.num_states() == 1 {
        cal.clone()
    } else {
        reference_calibration(cal)
    };
    let excess = |k: f64| lifecycle(&reference, k).0 - k;

    // K(r): invert r + δ = θ·ζ·K^{θ−1}·L^{1−θ}.
    let labor = reference.aggregate_labor();
    let theta = reference.capital_share;
    let zeta = reference.regimes[0].productivity;
    let k_of_r =
        |r: f64| labor * ((r + reference.depreciation) / (theta * zeta)).powf(1.0 / (theta - 1.0));

    // Sweep r downward; the excess is positive at high r (strong saving
    // motive) and negative at low r, with the equilibrium in between. The
    // admissible ceiling keeps `R̃^{A−1}` bounded (compounding stays
    // numerically tame): short lifespans tolerate high rates, the A = 60
    // economy does not.
    let tax = reference.regimes[0].capital_tax;
    let r_ceiling =
        ((1e6f64.powf(1.0 / (reference.lifespan as f64 - 1.0)) - 1.0) / (1.0 - tax)).min(2.0);
    let r_floor = 5e-4;
    let steps = 48;
    let ratio = (r_ceiling / r_floor).powf(1.0 / steps as f64);
    let mut bracket = None;
    let mut prev: Option<(f64, f64)> = None;
    let mut r = r_ceiling;
    for _ in 0..=steps {
        let k = k_of_r(r);
        let e = excess(k);
        if let Some((k_prev, e_prev)) = prev {
            if e_prev * e <= 0.0 {
                bracket = Some((k_prev, k));
                break;
            }
        }
        prev = Some((k, e));
        r /= ratio;
    }
    let (lo, hi) = bracket.ok_or_else(|| {
        format!("no steady-state bracket in r ∈ [{r_floor}, {r_ceiling}]; check calibration")
    })?;
    let k = brent(excess, lo, hi, 1e-12, 200)
        .map_err(|e| format!("steady-state root solve failed: {e}"))?;
    Ok(lifecycle(&reference, k).1)
}

impl SteadyState {
    /// The steady continuous state `x̄ = (K̄, ω̄_2, …, ω̄_{A−1})`.
    pub fn state_vector(&self) -> Vec<f64> {
        let a_max = self.assets.len();
        let mut x = Vec::with_capacity(a_max - 1);
        x.push(self.capital);
        x.extend_from_slice(&self.assets[1..a_max - 1]);
        x
    }

    /// The steady dof row `(s̄_1, …, s̄_{A−1}, v̄_1, …, v̄_{A−1})` — the
    /// constant initial guess `p⁰` of the time iteration.
    pub fn dof_row(&self) -> Vec<f64> {
        let mut row = self.savings.clone();
        row.extend_from_slice(&self.values[..self.values.len() - 1]);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_closes_the_lifecycle() {
        let cal = Calibration::deterministic(8, 6);
        let ss = solve_steady_state(&cal).unwrap();
        assert!(ss.capital > 0.0);
        // Fixed point: implied aggregate assets equal K.
        let implied: f64 = ss.assets.iter().sum();
        assert!((implied - ss.capital).abs() < 1e-8 * ss.capital.max(1.0));
        // Terminal wealth is exhausted: R̃ ω_A + pension − c_A = 0.
        let last_c = *ss.consumption.last().unwrap();
        let last_w = *ss.assets.last().unwrap();
        let leftover = ss.prices.gross_return * last_w + ss.prices.pension - last_c;
        assert!(leftover.abs() < 1e-9, "leftover {leftover}");
    }

    #[test]
    fn consumption_grows_at_euler_rate() {
        let cal = Calibration::deterministic(10, 7);
        let ss = solve_steady_state(&cal).unwrap();
        let g = (cal.beta * ss.prices.gross_return).powf(1.0 / cal.gamma);
        for a in 0..9 {
            let ratio = ss.consumption[a + 1] / ss.consumption[a];
            assert!((ratio - g).abs() < 1e-10, "age {a}");
        }
    }

    #[test]
    fn goods_market_clears() {
        // Σ c_a + δK = Y in steady state (investment replaces depreciation).
        let cal = Calibration::deterministic(8, 6);
        let ss = solve_steady_state(&cal).unwrap();
        let total_c: f64 = ss.consumption.iter().sum();
        let lhs = total_c + cal.depreciation * ss.capital;
        assert!(
            (lhs - ss.prices.output).abs() < 1e-8 * ss.prices.output,
            "C+δK = {lhs} vs Y = {}",
            ss.prices.output
        );
    }

    #[test]
    fn values_are_discounted_utility_sums() {
        let cal = Calibration::deterministic(6, 4);
        let ss = solve_steady_state(&cal).unwrap();
        let direct: f64 = ss
            .consumption
            .iter()
            .enumerate()
            .map(|(k, &c)| cal.beta.powi(k as i32) * utility(cal.gamma, c))
            .sum();
        assert!((ss.values[0] - direct).abs() < 1e-10);
    }

    #[test]
    fn reference_of_stochastic_calibration_averages_regimes() {
        let cal = Calibration::small(6, 4, 4, 0.10);
        let reference = reference_calibration(&cal);
        assert_eq!(reference.num_states(), 1);
        assert!((reference.regimes[0].productivity - 1.0).abs() < 1e-12);
        let ss = solve_steady_state(&cal).unwrap();
        assert!(ss.capital > 0.0);
    }

    #[test]
    fn state_vector_and_dofs_have_model_shape() {
        let cal = Calibration::deterministic(8, 6);
        let ss = solve_steady_state(&cal).unwrap();
        assert_eq!(ss.state_vector().len(), cal.dim());
        assert_eq!(ss.dof_row().len(), cal.ndofs());
        assert_eq!(ss.state_vector()[0], ss.capital);
    }

    #[test]
    fn headline_scale_steady_state_solves() {
        // d = 59 — the paper's scale; the solve is closed-form per K so
        // this is fast.
        let cal = Calibration::headline();
        let ss = solve_steady_state(&cal).unwrap();
        assert!(ss.capital > 0.0);
        assert_eq!(ss.state_vector().len(), 59);
        assert_eq!(ss.dof_row().len(), 118);
        // Sanity against the explosive spurious root: the interest rate is
        // in the calibrated band and no cohort's position dwarfs K.
        assert!(
            (0.005..0.20).contains(&ss.prices.interest),
            "r = {}",
            ss.prices.interest
        );
        for (a, &w) in ss.assets.iter().enumerate() {
            assert!(
                w.abs() < 2.0 * ss.capital,
                "cohort {a} assets {w} vs K {}",
                ss.capital
            );
        }
        // Lifecycle hump: assets peak around retirement (working years =
        // 46) and are drawn down toward the end of life.
        let peak = ss
            .assets
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((35..=55).contains(&peak), "asset peak at model age {peak}");
        assert!(
            *ss.assets.last().unwrap() < 0.5 * ss.assets[peak],
            "assets must be drawn down in very old age"
        );
    }
}
