//! Static equilibrium objects: factor prices from aggregates (Cobb–Douglas
//! marginal products), the pay-as-you-go pension, and the CRRA utility
//! kernel with its smooth consumption-floor extension.

use crate::calibration::Calibration;

/// Factor prices and fiscal transfers implied by `(z, K)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prices {
    /// Pre-tax wage per efficiency unit.
    pub wage: f64,
    /// Pre-tax net interest rate (marginal product of capital − δ).
    pub interest: f64,
    /// After-tax gross return factor `R̃ = 1 + r·(1 − τ_c)`.
    pub gross_return: f64,
    /// Pension benefit per retiree. PAYG budget: the paper's taxes "are
    /// used to fund a pay-as-you-go social security system", so both
    /// labor- and capital-tax revenue flow to retirees — which is also
    /// what closes the goods market (Walras's law).
    pub pension: f64,
    /// Output `Y = ζ K^θ L^{1−θ}`.
    pub output: f64,
}

/// Computes prices for discrete state `z` and aggregate capital `K`.
pub fn prices(cal: &Calibration, z: usize, capital: f64) -> Prices {
    debug_assert!(capital > 0.0, "aggregate capital must be positive");
    let regime = &cal.regimes[z];
    let labor = cal.aggregate_labor();
    let theta = cal.capital_share;
    let output = regime.productivity * capital.powf(theta) * labor.powf(1.0 - theta);
    let wage = (1.0 - theta) * output / labor;
    let interest = theta * output / capital - cal.depreciation;
    let gross_return = 1.0 + interest * (1.0 - regime.capital_tax);
    let revenue = regime.labor_tax * wage * labor + regime.capital_tax * interest * capital;
    let pension = revenue / cal.retirees() as f64;
    Prices {
        wage,
        interest,
        gross_return,
        pension,
        output,
    }
}

/// Non-asset income of generation `a` (1-based) under `p`: after-tax labor
/// earnings while working, the pension when retired.
#[inline]
pub fn income(cal: &Calibration, z: usize, p: &Prices, a: usize) -> f64 {
    debug_assert!((1..=cal.lifespan).contains(&a));
    if a <= cal.work_years {
        (1.0 - cal.regimes[z].labor_tax) * p.wage * cal.efficiency[a - 1]
    } else {
        p.pension
    }
}

/// Consumption floor below which marginal utility is extended linearly
/// (keeps per-point residuals defined on the whole grid box).
pub const C_FLOOR: f64 = 1e-6;

/// CRRA marginal utility `u'(c) = c^{−γ}` with a C¹ linear extension below
/// [`C_FLOOR`], so Newton never sees NaN on aggressive trial steps.
#[inline]
pub fn marginal_utility(gamma: f64, c: f64) -> f64 {
    if c >= C_FLOOR {
        c.powf(-gamma)
    } else {
        let base = C_FLOOR.powf(-gamma);
        let slope = -gamma * C_FLOOR.powf(-gamma - 1.0);
        base + slope * (c - C_FLOOR)
    }
}

/// CRRA utility `u(c) = c^{1−γ}/(1−γ)` (log for `γ = 1`), extended below
/// the floor consistently with [`marginal_utility`].
#[inline]
pub fn utility(gamma: f64, c: f64) -> f64 {
    let at = |c: f64| {
        if (gamma - 1.0).abs() < 1e-12 {
            c.ln()
        } else {
            (c.powf(1.0 - gamma) - 1.0) / (1.0 - gamma)
        }
    };
    if c >= C_FLOOR {
        at(c)
    } else {
        at(C_FLOOR) + marginal_utility(gamma, C_FLOOR) * (c - C_FLOOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::small(6, 4, 2, 0.05)
    }

    #[test]
    fn euler_theorem_exhausts_output() {
        // Cobb–Douglas: (r + δ)·K + w·L = Y.
        let cal = cal();
        let p = prices(&cal, 0, 2.5);
        let labor = cal.aggregate_labor();
        let total = (p.interest + cal.depreciation) * 2.5 + p.wage * labor;
        assert!((total - p.output).abs() < 1e-10);
    }

    #[test]
    fn pension_budget_balances() {
        // PAYG: benefits × retirees = labor-tax + capital-tax revenue.
        let cal = cal();
        for z in 0..cal.num_states() {
            let p = prices(&cal, z, 3.0);
            let revenue = cal.regimes[z].labor_tax * p.wage * cal.aggregate_labor()
                + cal.regimes[z].capital_tax * p.interest * 3.0;
            let outlays = p.pension * cal.retirees() as f64;
            assert!((revenue - outlays).abs() < 1e-12, "state {z}");
        }
    }

    #[test]
    fn higher_capital_lowers_interest() {
        let cal = cal();
        let p1 = prices(&cal, 0, 1.0);
        let p2 = prices(&cal, 0, 4.0);
        assert!(p2.interest < p1.interest);
        assert!(p2.wage > p1.wage);
    }

    #[test]
    fn productivity_scales_output() {
        let cal = Calibration::small(6, 4, 2, 0.10);
        let lo = prices(&cal, 0, 2.0); // ζ = 0.9
        let hi = prices(&cal, 1, 2.0); // ζ = 1.1
        assert!(hi.output > lo.output);
        let ratio = hi.output / lo.output;
        assert!((ratio - 1.1 / 0.9).abs() < 1e-10);
    }

    #[test]
    fn income_by_age() {
        let cal = cal();
        let p = prices(&cal, 0, 2.5);
        // Working ages earn after-tax wages; retirees get the pension.
        for a in 1..=cal.work_years {
            let expected = (1.0 - cal.regimes[0].labor_tax) * p.wage * cal.efficiency[a - 1];
            assert_eq!(income(&cal, 0, &p, a), expected);
        }
        for a in cal.work_years + 1..=cal.lifespan {
            assert_eq!(income(&cal, 0, &p, a), p.pension);
        }
    }

    #[test]
    fn marginal_utility_is_continuous_and_decreasing() {
        let gamma = 2.0;
        // C¹ continuity at the floor.
        let below = marginal_utility(gamma, C_FLOOR - 1e-12);
        let at = marginal_utility(gamma, C_FLOOR);
        assert!((below - at).abs() / at < 1e-5);
        // Monotone decreasing across the floor.
        let mut prev = marginal_utility(gamma, -0.5);
        for c in [-0.1, 0.0, C_FLOOR / 2.0, C_FLOOR, 0.01, 0.1, 1.0, 10.0] {
            let mu = marginal_utility(gamma, c);
            assert!(mu < prev, "c = {c}");
            prev = mu;
        }
    }

    #[test]
    fn utility_matches_closed_form_above_floor() {
        assert!((utility(2.0, 2.0) - (1.0 - 1.0 / 2.0)).abs() < 1e-12);
        assert!((utility(1.0, std::f64::consts::E) - 1.0) < 1e-12);
    }
}
