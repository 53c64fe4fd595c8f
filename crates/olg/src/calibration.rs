//! Calibration of the stochastic OLG economy (Sec. II): demographics,
//! preferences, technology, and the per-state productivity/tax-regime
//! configuration.

use crate::markov::MarkovChain;

/// One discrete state of the economy: a productivity level joined with a
/// tax regime ("booms, busts as well as different tax regimes").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegimeSpec {
    /// Total factor productivity `ζ_z`.
    pub productivity: f64,
    /// Labor-income tax `τ_l` funding the pay-as-you-go pension.
    pub labor_tax: f64,
    /// Capital-income tax `τ_c`.
    pub capital_tax: f64,
}

/// Full model calibration. `lifespan = A` periods of adult life (the paper:
/// 60 annual periods after age 20, so `d = A − 1 = 59`), retirement after
/// working age `work_years` (paper: average retirement at 65, pensions from
/// 66, i.e. 46 working years).
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Adult lifespan `A` in model periods.
    pub lifespan: usize,
    /// Number of working periods (ages `1..=work_years` supply labor).
    pub work_years: usize,
    /// Discount factor `β` per period.
    pub beta: f64,
    /// CRRA coefficient `γ`.
    pub gamma: f64,
    /// Capital share `θ` in Cobb–Douglas production.
    pub capital_share: f64,
    /// Depreciation rate `δ` per period.
    pub depreciation: f64,
    /// Age-efficiency units `e_a` for `a = 1..=A` (zero after
    /// `work_years`).
    pub efficiency: Vec<f64>,
    /// One spec per discrete state `z`.
    pub regimes: Vec<RegimeSpec>,
    /// Markov chain over the discrete states.
    pub chain: MarkovChain,
}

impl Calibration {
    /// Validates internal consistency, returning the first violation as a
    /// diagnostic naming the parameter and its value: finiteness of all
    /// scalar parameters, `β ∈ (0, 1)`, `γ > 0`, `θ ∈ (0, 1)`, `δ ∈ [0, 1]`,
    /// a positive hump profile over working ages (zero in retirement), one
    /// regime per Markov state with positive productivity and taxes in
    /// `[0, 1)`, and row-stochastic transition rows. Swept and hand-edited
    /// calibrations fail with it instead of silently producing NaN policy
    /// surfaces downstream; the built-in calibrations panic with it.
    pub fn validate(&self) -> Result<(), String> {
        let (lifespan, work_years) = (self.lifespan, self.work_years);
        if lifespan < 2 {
            return Err(format!(
                "need at least two generations, got lifespan {lifespan}"
            ));
        }
        if work_years < 1 || work_years >= lifespan {
            return Err(format!(
                "retirement must happen strictly inside the lifespan: \
                 work_years {work_years} vs lifespan {lifespan}"
            ));
        }
        for (name, value) in [
            ("beta", self.beta),
            ("gamma", self.gamma),
            ("capital_share", self.capital_share),
            ("depreciation", self.depreciation),
        ] {
            if !value.is_finite() {
                return Err(format!("{name} must be finite, got {value}"));
            }
        }
        if self.beta <= 0.0 || self.beta >= 1.0 {
            return Err(format!(
                "discount factor beta must lie in (0, 1), got {}",
                self.beta
            ));
        }
        if self.gamma <= 0.0 {
            return Err(format!("CRRA gamma must be positive, got {}", self.gamma));
        }
        if self.capital_share <= 0.0 || self.capital_share >= 1.0 {
            return Err(format!(
                "capital share must lie in (0, 1), got {}",
                self.capital_share
            ));
        }
        if !(0.0..=1.0).contains(&self.depreciation) {
            return Err(format!(
                "depreciation must lie in [0, 1], got {}",
                self.depreciation
            ));
        }
        if self.efficiency.len() != lifespan {
            return Err(format!(
                "efficiency profile has {} entries for lifespan {lifespan}",
                self.efficiency.len()
            ));
        }
        for (age, &e) in self.efficiency.iter().enumerate() {
            if age < work_years {
                if !(e.is_finite() && e > 0.0) {
                    return Err(format!(
                        "working age {age} must have positive efficiency, got {e}"
                    ));
                }
            } else if e != 0.0 {
                return Err(format!(
                    "retired age {age} must have zero efficiency, got {e}"
                ));
            }
        }
        let states = self.chain.num_states();
        if self.regimes.len() != states {
            return Err(format!(
                "{} regime specs for {states} Markov states",
                self.regimes.len()
            ));
        }
        for (z, r) in self.regimes.iter().enumerate() {
            if !(r.productivity.is_finite() && r.productivity > 0.0) {
                return Err(format!(
                    "regime of state {z}: productivity must be positive, got {}",
                    r.productivity
                ));
            }
            for (name, tax) in [("labor tax", r.labor_tax), ("capital tax", r.capital_tax)] {
                if !(tax.is_finite() && (0.0..1.0).contains(&tax)) {
                    return Err(format!(
                        "regime of state {z}: {name} must lie in [0, 1), got {tax}"
                    ));
                }
            }
        }
        for z in 0..states {
            let sum: f64 = self.chain.row(z).iter().sum();
            if (sum - 1.0).abs() >= 1e-10 {
                return Err(format!("Markov row {z} sums to {sum}, expected 1"));
            }
        }
        Ok(())
    }

    /// Continuous state dimensionality `d = A − 1`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lifespan - 1
    }

    /// Coefficients per grid point per state: `2·(A−1)` (asset-demand and
    /// value functions; 118 in the headline calibration).
    #[inline]
    pub fn ndofs(&self) -> usize {
        2 * (self.lifespan - 1)
    }

    /// Number of discrete states `Ns`.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.regimes.len()
    }

    /// Aggregate labor supply `L = Σ_a e_a` (unit cohort masses).
    pub fn aggregate_labor(&self) -> f64 {
        self.efficiency.iter().sum()
    }

    /// Number of retired cohorts.
    #[inline]
    pub fn retirees(&self) -> usize {
        self.lifespan - self.work_years
    }

    /// The hump-shaped age-efficiency profile used throughout:
    /// `ln e_a = 0.07·age − 0.00095·age²` (a standard quadratic log-hump),
    /// normalized to mean 1 over working ages, zero in retirement.
    pub fn hump_efficiency(lifespan: usize, work_years: usize) -> Vec<f64> {
        let mut e: Vec<f64> = (0..lifespan)
            .map(|a| {
                if a < work_years {
                    let age = a as f64 + 1.0;
                    (0.07 * age - 0.00095 * age * age).exp()
                } else {
                    0.0
                }
            })
            .collect();
        let mean = e.iter().take(work_years).sum::<f64>() / work_years as f64;
        for v in e.iter_mut() {
            *v /= mean;
        }
        e
    }

    /// The headline calibration of Sec. II: `A = 60` annual periods
    /// (d = 59), retirement after 46 working years (age 66 in calendar
    /// terms), `Ns = 16` states from 4 productivity levels × 4 tax
    /// regimes.
    pub fn headline() -> Calibration {
        Self::annual(60, 46)
    }

    /// An annually calibrated economy with the paper's 16-state shock
    /// structure but adjustable demographics — used to scale the model
    /// down to laptop-size while preserving its form.
    pub fn annual(lifespan: usize, work_years: usize) -> Calibration {
        let productivity = MarkovChain::persistent(4, 0.92);
        let taxes = MarkovChain::persistent(4, 0.95);
        let chain = productivity.product(&taxes);
        let zeta = [0.97, 0.99, 1.01, 1.03];
        let tax_regimes = [(0.26, 0.16), (0.30, 0.20), (0.34, 0.24), (0.30, 0.28)];
        let mut regimes = Vec::with_capacity(16);
        for z_prod in 0..4 {
            for z_tax in 0..4 {
                let (labor_tax, capital_tax) = tax_regimes[z_tax];
                regimes.push(RegimeSpec {
                    productivity: zeta[z_prod],
                    labor_tax,
                    capital_tax,
                });
            }
        }
        let calibration = Calibration {
            lifespan,
            work_years,
            beta: 0.97,
            gamma: 2.0,
            capital_share: 0.33,
            depreciation: 0.06,
            efficiency: Self::hump_efficiency(lifespan, work_years),
            regimes,
            chain,
        };
        calibration.validate().unwrap_or_else(|e| panic!("{e}"));
        calibration
    }

    /// A small stochastic economy for tests and examples: `lifespan`
    /// generations, `num_states` equiprobable persistent states with
    /// productivity spread `±spread` around 1 and a common tax pair.
    pub fn small(
        lifespan: usize,
        work_years: usize,
        num_states: usize,
        spread: f64,
    ) -> Calibration {
        let chain = MarkovChain::persistent(num_states, 0.8);
        let regimes = (0..num_states)
            .map(|z| {
                let tilt = if num_states == 1 {
                    0.0
                } else {
                    2.0 * z as f64 / (num_states - 1) as f64 - 1.0
                };
                RegimeSpec {
                    productivity: 1.0 + spread * tilt,
                    labor_tax: 0.25 + 0.03 * tilt,
                    capital_tax: 0.15,
                }
            })
            .collect();
        let calibration = Calibration {
            lifespan,
            work_years,
            beta: 0.95,
            gamma: 2.0,
            capital_share: 0.33,
            depreciation: 0.08,
            efficiency: Self::hump_efficiency(lifespan, work_years),
            regimes,
            chain,
        };
        calibration.validate().unwrap_or_else(|e| panic!("{e}"));
        calibration
    }

    /// The deterministic (single-state) version of [`small`](Self::small),
    /// whose recursive equilibrium is the analytic steady state — the
    /// convergence oracle of the test suite.
    pub fn deterministic(lifespan: usize, work_years: usize) -> Calibration {
        Self::small(lifespan, work_years, 1, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper_shape() {
        let c = Calibration::headline();
        assert_eq!(c.lifespan, 60);
        assert_eq!(c.dim(), 59);
        assert_eq!(c.ndofs(), 118);
        assert_eq!(c.num_states(), 16);
        assert_eq!(c.retirees(), 14); // ages 47..60 (calendar 67..80+)
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn efficiency_profile_is_a_hump() {
        let e = Calibration::hump_efficiency(60, 46);
        // Rises early, falls late, zero in retirement.
        assert!(e[10] > e[0]);
        let peak = e
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((20..46).contains(&peak), "peak at {peak}");
        assert!(e[45] < e[peak]);
        assert_eq!(e[46], 0.0);
        assert_eq!(e[59], 0.0);
        // Normalized to mean one over working life.
        let mean: f64 = e.iter().take(46).sum::<f64>() / 46.0;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_economies_validate() {
        for states in [1usize, 2, 4] {
            let c = Calibration::small(6, 4, states, 0.05);
            assert_eq!(c.num_states(), states);
            assert_eq!(c.dim(), 5);
            assert_eq!(c.validate(), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "retirement must happen strictly inside")]
    fn rejects_no_retirement() {
        let mut c = Calibration::small(6, 4, 1, 0.0);
        c.work_years = 6;
        c.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Every admissibility rule rejects with its own diagnostic instead of
    /// silently producing NaN surfaces downstream.
    #[test]
    fn typed_rejections_cover_every_parameter() {
        let base = || Calibration::small(6, 4, 2, 0.05);
        assert_eq!(base().validate(), Ok(()));
        let rejects = |change: fn(&mut Calibration), message: &str| {
            let mut c = base();
            change(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains(message), "{err:?} does not say {message:?}");
        };
        rejects(|c| c.lifespan = 1, "got lifespan 1");
        rejects(|c| c.work_years = 6, "work_years 6 vs lifespan 6");
        rejects(|c| c.beta = f64::NAN, "beta must be finite");
        rejects(|c| c.beta = 1.0, "beta must lie in (0, 1)");
        rejects(|c| c.gamma = 0.0, "gamma must be positive");
        rejects(
            |c| c.capital_share = 1.0,
            "capital share must lie in (0, 1)",
        );
        rejects(|c| c.depreciation = -0.1, "depreciation must lie in [0, 1]");
        rejects(|c| c.efficiency.truncate(5), "has 5 entries for lifespan 6");
        rejects(
            |c| c.efficiency[2] = 0.0,
            "working age 2 must have positive",
        );
        rejects(|c| c.efficiency[5] = 0.3, "retired age 5 must have zero");
        rejects(
            |c| c.regimes.truncate(1),
            "1 regime specs for 2 Markov states",
        );
        rejects(
            |c| c.regimes[1].productivity = 0.0,
            "state 1: productivity must be positive",
        );
        rejects(
            |c| c.regimes[0].labor_tax = 1.0,
            "state 0: labor tax must lie in [0, 1)",
        );
    }

    #[test]
    fn errors_display_the_offending_value() {
        let mut c = Calibration::small(6, 4, 1, 0.0);
        c.beta = 1.25;
        let msg = c.validate().unwrap_err();
        assert!(msg.contains("1.25"), "{msg}");
    }
}
