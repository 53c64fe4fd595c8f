//! Static equilibrium objects: factor prices from aggregates (Cobb–Douglas
//! marginal products), the pay-as-you-go pension, and the CRRA utility
//! kernel with its smooth consumption-floor extension.
//!
//! This file keeps the Euler algebra's `pow` budget: a residual row or a
//! Jacobian row of [`crate::OlgModel`] reaches libm once, for `K'^θ`
//! ([`PriceBasis::at`]). Prices of all `Ns` next states and their
//! `K'`-derivatives share that one power, `c^{−γ}` for the integer `γ`
//! every calibration in the repository uses is multiplications and one
//! division ([`inverse_power`]), and `u''(c)` is `−γ·u'(c)/c`.

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

/// What [`prices`] takes from the calibration alone: derived once per
/// model, never serialised.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PriceBasis {
    /// `L = Σ_a e_a`.
    labor: f64,
    /// `L^{1−θ}`.
    labor_factor: f64,
    retirees: f64,
}

/// A [`PriceBasis`] at one level of aggregate capital: `K^θ` is the one
/// `pow` the prices of every discrete state at `K` share.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PricesAt<'a> {
    cal: &'a Calibration,
    basis: PriceBasis,
    capital: f64,
    /// `K^θ`.
    capital_factor: f64,
}

impl PriceBasis {
    pub(crate) fn new(cal: &Calibration) -> Self {
        let labor = cal.aggregate_labor();
        PriceBasis {
            labor,
            labor_factor: labor.powf(1.0 - cal.capital_share),
            retirees: cal.retirees() as f64,
        }
    }

    /// The basis at aggregate capital `K`; `cal` is the calibration the
    /// basis was derived from.
    pub(crate) fn at<'a>(&self, cal: &'a Calibration, capital: f64) -> PricesAt<'a> {
        debug_assert!(capital > 0.0, "aggregate capital must be positive");
        PricesAt {
            cal,
            basis: *self,
            capital,
            capital_factor: capital.powf(cal.capital_share),
        }
    }
}

impl PricesAt<'_> {
    /// Prices in discrete state `z`: [`prices`]`(cal, z, K)`, bit for bit.
    pub(crate) fn prices(&self, z: usize) -> Prices {
        let PriceBasis {
            labor,
            labor_factor,
            retirees,
        } = self.basis;
        let cal = self.cal;
        let capital = self.capital;
        let regime = &cal.regimes[z];
        let theta = cal.capital_share;
        let output = regime.productivity * self.capital_factor * labor_factor;
        let wage = (1.0 - theta) * output / labor;
        let interest = theta * output / capital - cal.depreciation;
        let gross_return = 1.0 + interest * (1.0 - regime.capital_tax);
        let revenue = regime.labor_tax * wage * labor + regime.capital_tax * interest * capital;
        let pension = revenue / retirees;
        Prices {
            wage,
            interest,
            gross_return,
            pension,
            output,
        }
    }

    /// The `K`-derivative of every field of `p = self.prices(z)`, from the
    /// output it already holds: `dY/dK = θY/K`, and from it the wage,
    /// interest, `R̃` and pension. No power is taken.
    pub(crate) fn slopes(&self, z: usize, p: &Prices) -> Prices {
        let PriceBasis {
            labor, retirees, ..
        } = self.basis;
        let cal = self.cal;
        let capital = self.capital;
        let regime = &cal.regimes[z];
        let theta = cal.capital_share;
        let output = theta * p.output / capital;
        let wage = (1.0 - theta) * output / labor;
        // `r + δ = θY/K`, so `dr/dK = (θ − 1)·θY/K²`.
        let interest = (theta - 1.0) * output / capital;
        let gross_return = interest * (1.0 - regime.capital_tax);
        let revenue = regime.labor_tax * wage * labor
            + regime.capital_tax * (interest * capital + p.interest);
        Prices {
            wage,
            interest,
            gross_return,
            pension: revenue / retirees,
            output,
        }
    }
}

/// Computes prices for discrete state `z` and aggregate capital `K` — the
/// one-shot form of [`PriceBasis`] for callers that price one `(z, K)`.
pub fn prices(cal: &Calibration, z: usize, capital: f64) -> Prices {
    PriceBasis::new(cal).at(cal, capital).prices(z)
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

/// `c^{−e}` for `c > 0`. The exponents 1, 2, 3 and 4 — the `γ` (and, for
/// `u`, the `γ − 1`) of every calibration constructor — are explicit IEEE
/// multiplications and one division; every other exponent is `powf`. Not
/// `powi`: `std` leaves its precision unspecified, and the solved policies
/// are compared bit for bit across builds.
#[inline]
fn inverse_power(exponent: f64, c: f64) -> f64 {
    if exponent == 2.0 {
        1.0 / (c * c)
    } else if exponent == 1.0 {
        1.0 / c
    } else if exponent == 3.0 {
        1.0 / (c * c * c)
    } else if exponent == 4.0 {
        let square = c * c;
        1.0 / (square * square)
    } else {
        c.powf(-exponent)
    }
}

/// CRRA marginal utility `u'(c) = c^{−γ}` with a C¹ linear extension below
/// [`C_FLOOR`], so Newton never sees NaN on aggressive trial steps.
#[inline]
pub fn marginal_utility(gamma: f64, c: f64) -> f64 {
    marginal_utility_and_slope(gamma, c).0
}

/// `(u'(c), u''(c))`: [`marginal_utility`] and its derivative, which is
/// `−γ·u'(c)/c` above [`C_FLOOR`] (no second power) and the extension's
/// slope below it.
#[inline]
pub(crate) fn marginal_utility_and_slope(gamma: f64, c: f64) -> (f64, f64) {
    if c >= C_FLOOR {
        let mu = inverse_power(gamma, c);
        (mu, -gamma * mu / c)
    } else {
        let base = inverse_power(gamma, C_FLOOR);
        let slope = -gamma * inverse_power(gamma + 1.0, C_FLOOR);
        (base + slope * (c - C_FLOOR), slope)
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
            (inverse_power(gamma - 1.0, c) - 1.0) / (1.0 - gamma)
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

    /// `(f(x + h) − f(x − h)) / 2h` and the analytic `df` agree to O(h²).
    fn assert_slope(df: f64, f: impl Fn(f64) -> f64, x: f64, what: &str) {
        let h = 1e-5 * x.abs();
        let central = (f(x + h) - f(x - h)) / (2.0 * h);
        assert!(
            (df - central).abs() <= 1e-6 * (1.0 + central.abs()),
            "{what} at {x}: {df} vs {central}"
        );
    }

    #[test]
    fn price_slopes_are_the_derivatives_of_prices() {
        let cal = Calibration::small(8, 5, 3, 0.1);
        let basis = PriceBasis::new(&cal);
        for capital in [0.4, 1.7, 6.0] {
            for z in 0..cal.num_states() {
                let at = basis.at(&cal, capital);
                let slopes = at.slopes(z, &at.prices(z));
                type Field = fn(Prices) -> f64;
                let fields: [(&str, f64, Field); 5] = [
                    ("wage", slopes.wage, |p| p.wage),
                    ("interest", slopes.interest, |p| p.interest),
                    ("R̃", slopes.gross_return, |p| p.gross_return),
                    ("pension", slopes.pension, |p| p.pension),
                    ("output", slopes.output, |p| p.output),
                ];
                for (what, df, field) in fields {
                    assert_slope(df, |k| field(prices(&cal, z, k)), capital, what);
                }
            }
        }
    }

    #[test]
    fn the_slope_of_marginal_utility_is_its_derivative_in_every_class() {
        for gamma in [1.0, 2.0, 2.5, 3.0] {
            for c in [-0.3, C_FLOOR / 2.0, 2.0 * C_FLOOR, 0.01, 0.7, 3.0] {
                let (mu, slope) = marginal_utility_and_slope(gamma, c);
                assert_eq!(mu.to_bits(), marginal_utility(gamma, c).to_bits());
                assert_slope(slope, |c| marginal_utility(gamma, c), c, "u'");
            }
        }
    }

    /// Distance in units in the last place between two positive doubles.
    fn ulps(a: f64, b: f64) -> u64 {
        assert!(a > 0.0 && b > 0.0, "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The exponents that take the multiplication form, each with the
    /// distance from `powf` its roundings allow: one per multiplication
    /// and one for the division, against a `powf` that is itself not
    /// correctly rounded. Over 2·10⁷ draws the distances seen were 1, 1, 2
    /// and 3 ulp (the last on 0.2 % of inputs).
    const CLASSES: [(f64, u64); 4] = [(1.0, 2), (2.0, 2), (3.0, 2), (4.0, 3)];

    #[test]
    fn the_floor_extension_starts_from_the_kernel_in_every_class() {
        for gamma in [1.0, 2.0, 2.5, 3.0, 4.0, 5.0] {
            // u' is C¹ at the floor to the bit: the extension's base is
            // the kernel's own value there, and its slope is u''.
            let base = marginal_utility(gamma, C_FLOOR);
            assert_eq!(
                base.to_bits(),
                inverse_power(gamma, C_FLOOR).to_bits(),
                "γ = {gamma}"
            );
            let step = (C_FLOOR - 1e-9) - C_FLOOR;
            let below = marginal_utility(gamma, C_FLOOR + step);
            let slope = -gamma * inverse_power(gamma + 1.0, C_FLOOR);
            assert_eq!(
                below.to_bits(),
                (base + slope * step).to_bits(),
                "γ = {gamma}"
            );
            assert!(
                ulps(slope.abs(), gamma * base / C_FLOOR) <= 4,
                "γ = {gamma}"
            );
            // u is continuous there, with u' as its slope below.
            let at = utility(gamma, C_FLOOR);
            let under = utility(gamma, C_FLOOR + step);
            assert_eq!(under.to_bits(), (at + base * step).to_bits(), "γ = {gamma}");
        }
    }

    /// A small economy with every price-relevant parameter drawn.
    #[allow(clippy::too_many_arguments)]
    fn drawn_calibration(
        lifespan: usize,
        work_share: f64,
        num_states: usize,
        spread: f64,
        theta: f64,
        delta: f64,
        labor_tax: f64,
        capital_tax: f64,
    ) -> Calibration {
        let work_years = ((lifespan as f64 * work_share) as usize).clamp(1, lifespan - 1);
        let mut cal = Calibration {
            capital_share: theta,
            depreciation: delta,
            ..Calibration::small(lifespan, work_years, num_states, spread)
        };
        for (z, regime) in cal.regimes.iter_mut().enumerate() {
            regime.labor_tax = labor_tax + 0.01 * z as f64;
            regime.capital_tax = capital_tax + 0.02 * z as f64;
        }
        assert_eq!(cal.validate(), Ok(()));
        cal
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048).with_rng_seed(0x0220_0001))]

        /// The multiplication form is `powf` to within 2 ulp (3 for the
        /// exponent 4), for `u'` and for the power inside `u`, over the
        /// consumption range a solve visits (log-uniform in
        /// `[C_FLOOR, 1e3]`).
        #[test]
        fn class_kernel_is_within_two_ulp_of_powf(log_c in -6.0f64..3.0) {
            let c = 10f64.powf(log_c).max(C_FLOOR);
            for (gamma, bound) in CLASSES {
                let want = c.powf(-gamma);
                let got = marginal_utility(gamma, c);
                proptest::prop_assert!(
                    ulps(got, want) <= bound,
                    "γ = {gamma}, c = {c:e}: {got:e} vs {want:e}"
                );
                // `u` at γ + 1 is built on the same power of `c`.
                let u = utility(gamma + 1.0, c);
                proptest::prop_assert_eq!(u.to_bits(), ((got - 1.0) / -gamma).to_bits());
            }
        }

        /// Any other exponent *is* `powf`, in the parent's spelling of it.
        #[test]
        fn a_non_integer_gamma_is_powf_bit_for_bit(log_c in -8.0f64..3.0) {
            let gamma = 2.5f64;
            let c = 10f64.powf(log_c);
            let (mu, u) = if c >= C_FLOOR {
                (c.powf(-gamma), (c.powf(1.0 - gamma) - 1.0) / (1.0 - gamma))
            } else {
                let base = C_FLOOR.powf(-gamma);
                let slope = -gamma * C_FLOOR.powf(-gamma - 1.0);
                let at_floor = (C_FLOOR.powf(1.0 - gamma) - 1.0) / (1.0 - gamma);
                (base + slope * (c - C_FLOOR), at_floor + base * (c - C_FLOOR))
            };
            proptest::prop_assert_eq!(marginal_utility(gamma, c).to_bits(), mu.to_bits());
            proptest::prop_assert_eq!(utility(gamma, c).to_bits(), u.to_bits());
        }

        /// A row's `Ns` prices from the shared basis are `Ns` calls of
        /// `prices` — the parent's formula, spelled out here — bit for bit.
        #[test]
        fn prices_from_one_basis_equal_one_shot_prices(
            lifespan in 3usize..12,
            work_share in 0.3f64..0.9,
            num_states in 1usize..6,
            spread in 0.0f64..0.2,
            theta in 0.2f64..0.5,
            delta in 0.0f64..0.15,
            labor_tax in 0.0f64..0.4,
            capital_tax in 0.0f64..0.4,
            capital in 0.05f64..40.0,
        ) {
            let cal = drawn_calibration(
                lifespan, work_share, num_states, spread, theta, delta, labor_tax, capital_tax,
            );
            let at = PriceBasis::new(&cal).at(&cal, capital);
            for z in 0..cal.num_states() {
                let regime = &cal.regimes[z];
                let labor = cal.aggregate_labor();
                let output = regime.productivity * capital.powf(theta) * labor.powf(1.0 - theta);
                let wage = (1.0 - theta) * output / labor;
                let interest = theta * output / capital - cal.depreciation;
                let revenue =
                    regime.labor_tax * wage * labor + regime.capital_tax * interest * capital;
                let spelled = Prices {
                    wage,
                    interest,
                    gross_return: 1.0 + interest * (1.0 - regime.capital_tax),
                    pension: revenue / cal.retirees() as f64,
                    output,
                };
                for p in [at.prices(z), prices(&cal, z, capital)] {
                    let bits = |p: Prices| {
                        [p.wage, p.interest, p.gross_return, p.pension, p.output].map(f64::to_bits)
                    };
                    proptest::prop_assert_eq!(bits(p), bits(spelled), "z = {}", z);
                }
            }
        }
    }
}
