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

/// A rejected [`Calibration`]: which parameter is inadmissible and why.
/// Returned by [`Calibration::try_validate`] so swept and hand-edited
/// calibrations fail with a diagnosis instead of silently producing NaN
/// policy surfaces downstream.
#[derive(Clone, Debug, PartialEq)]
pub enum CalibrationError {
    /// `lifespan < 2`: no overlapping generations.
    LifespanTooShort {
        /// The offending lifespan.
        lifespan: usize,
    },
    /// `work_years` outside `1..lifespan`.
    RetirementOutsideLifespan {
        /// The offending working-period count.
        work_years: usize,
        /// Adult lifespan `A`.
        lifespan: usize,
    },
    /// A scalar preference/technology parameter is NaN or infinite.
    NonFinite {
        /// Parameter name (`beta`, `gamma`, …).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Discount factor outside `(0, 1)`.
    BetaOutOfRange {
        /// The offending `β`.
        beta: f64,
    },
    /// CRRA coefficient `γ ≤ 0`.
    GammaNotPositive {
        /// The offending `γ`.
        gamma: f64,
    },
    /// Capital share outside `(0, 1)`.
    CapitalShareOutOfRange {
        /// The offending `θ`.
        capital_share: f64,
    },
    /// Depreciation outside `[0, 1]`.
    DepreciationOutOfRange {
        /// The offending `δ`.
        depreciation: f64,
    },
    /// `efficiency.len() != lifespan`.
    EfficiencyLengthMismatch {
        /// Length of the supplied profile.
        len: usize,
        /// Adult lifespan `A`.
        lifespan: usize,
    },
    /// A working age with non-positive (or non-finite) efficiency.
    BadWorkingEfficiency {
        /// Offending age (0-based).
        age: usize,
        /// The offending efficiency units.
        value: f64,
    },
    /// A retired age with non-zero efficiency.
    RetiredEfficiencyNonZero {
        /// Offending age (0-based).
        age: usize,
        /// The offending efficiency units.
        value: f64,
    },
    /// `regimes.len() != chain.num_states()`.
    RegimeCountMismatch {
        /// Number of regime specs.
        regimes: usize,
        /// Number of Markov states.
        states: usize,
    },
    /// A regime with non-positive/non-finite productivity or a tax rate
    /// outside `[0, 1)`.
    BadRegime {
        /// Offending discrete state `z`.
        state: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A Markov transition row that is not a probability distribution
    /// (possible when a chain is constructed by hand).
    NonStochasticRow {
        /// Offending row `z`.
        state: usize,
        /// Row sum found.
        sum: f64,
    },
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::LifespanTooShort { lifespan } => {
                write!(f, "need at least two generations, got lifespan {lifespan}")
            }
            CalibrationError::RetirementOutsideLifespan {
                work_years,
                lifespan,
            } => write!(
                f,
                "retirement must happen strictly inside the lifespan: \
                 work_years {work_years} vs lifespan {lifespan}"
            ),
            CalibrationError::NonFinite { name, value } => {
                write!(f, "{name} must be finite, got {value}")
            }
            CalibrationError::BetaOutOfRange { beta } => {
                write!(f, "discount factor beta must lie in (0, 1), got {beta}")
            }
            CalibrationError::GammaNotPositive { gamma } => {
                write!(f, "CRRA gamma must be positive, got {gamma}")
            }
            CalibrationError::CapitalShareOutOfRange { capital_share } => {
                write!(f, "capital share must lie in (0, 1), got {capital_share}")
            }
            CalibrationError::DepreciationOutOfRange { depreciation } => {
                write!(f, "depreciation must lie in [0, 1], got {depreciation}")
            }
            CalibrationError::EfficiencyLengthMismatch { len, lifespan } => {
                write!(
                    f,
                    "efficiency profile has {len} entries for lifespan {lifespan}"
                )
            }
            CalibrationError::BadWorkingEfficiency { age, value } => {
                write!(
                    f,
                    "working age {age} must have positive efficiency, got {value}"
                )
            }
            CalibrationError::RetiredEfficiencyNonZero { age, value } => {
                write!(
                    f,
                    "retired age {age} must have zero efficiency, got {value}"
                )
            }
            CalibrationError::RegimeCountMismatch { regimes, states } => {
                write!(f, "{regimes} regime specs for {states} Markov states")
            }
            CalibrationError::BadRegime { state, reason } => {
                write!(f, "regime of state {state}: {reason}")
            }
            CalibrationError::NonStochasticRow { state, sum } => {
                write!(f, "Markov row {state} sums to {sum}, expected 1")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

impl Calibration {
    /// Validates internal consistency, panicking with the diagnostic of
    /// [`try_validate`](Self::try_validate) on the first violation — the
    /// construction-time guard used by the built-in calibrations.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Validates internal consistency, returning the first violation as a
    /// typed [`CalibrationError`]: finiteness of all scalar parameters,
    /// `β ∈ (0, 1)`, `γ > 0`, `θ ∈ (0, 1)`, `δ ∈ [0, 1]`, a positive
    /// hump profile over working ages (zero in retirement), one regime
    /// per Markov state with positive productivity and taxes in `[0, 1)`,
    /// and row-stochastic transition rows.
    pub fn try_validate(&self) -> Result<(), CalibrationError> {
        if self.lifespan < 2 {
            return Err(CalibrationError::LifespanTooShort {
                lifespan: self.lifespan,
            });
        }
        if self.work_years < 1 || self.work_years >= self.lifespan {
            return Err(CalibrationError::RetirementOutsideLifespan {
                work_years: self.work_years,
                lifespan: self.lifespan,
            });
        }
        for (name, value) in [
            ("beta", self.beta),
            ("gamma", self.gamma),
            ("capital_share", self.capital_share),
            ("depreciation", self.depreciation),
        ] {
            if !value.is_finite() {
                return Err(CalibrationError::NonFinite { name, value });
            }
        }
        if self.beta <= 0.0 || self.beta >= 1.0 {
            return Err(CalibrationError::BetaOutOfRange { beta: self.beta });
        }
        if self.gamma <= 0.0 {
            return Err(CalibrationError::GammaNotPositive { gamma: self.gamma });
        }
        if self.capital_share <= 0.0 || self.capital_share >= 1.0 {
            return Err(CalibrationError::CapitalShareOutOfRange {
                capital_share: self.capital_share,
            });
        }
        if !(0.0..=1.0).contains(&self.depreciation) {
            return Err(CalibrationError::DepreciationOutOfRange {
                depreciation: self.depreciation,
            });
        }
        if self.efficiency.len() != self.lifespan {
            return Err(CalibrationError::EfficiencyLengthMismatch {
                len: self.efficiency.len(),
                lifespan: self.lifespan,
            });
        }
        for (a, &e) in self.efficiency.iter().enumerate() {
            if a < self.work_years {
                if !(e.is_finite() && e > 0.0) {
                    return Err(CalibrationError::BadWorkingEfficiency { age: a, value: e });
                }
            } else if e != 0.0 {
                return Err(CalibrationError::RetiredEfficiencyNonZero { age: a, value: e });
            }
        }
        if self.regimes.len() != self.chain.num_states() {
            return Err(CalibrationError::RegimeCountMismatch {
                regimes: self.regimes.len(),
                states: self.chain.num_states(),
            });
        }
        for (z, r) in self.regimes.iter().enumerate() {
            if !(r.productivity.is_finite() && r.productivity > 0.0) {
                return Err(CalibrationError::BadRegime {
                    state: z,
                    reason: format!("productivity must be positive, got {}", r.productivity),
                });
            }
            for (name, tax) in [("labor tax", r.labor_tax), ("capital tax", r.capital_tax)] {
                if !(tax.is_finite() && (0.0..1.0).contains(&tax)) {
                    return Err(CalibrationError::BadRegime {
                        state: z,
                        reason: format!("{name} must lie in [0, 1), got {tax}"),
                    });
                }
            }
        }
        for z in 0..self.chain.num_states() {
            let sum: f64 = self.chain.row(z).iter().sum();
            if (sum - 1.0).abs() >= 1e-10 {
                return Err(CalibrationError::NonStochasticRow { state: z, sum });
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
        calibration.validate();
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
        calibration.validate();
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
        c.validate();
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
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "retirement must happen strictly inside")]
    fn rejects_no_retirement() {
        let mut c = Calibration::small(6, 4, 1, 0.0);
        c.work_years = 6;
        c.validate();
    }

    /// Every admissibility rule returns its own typed rejection instead of
    /// silently producing NaN surfaces downstream.
    #[test]
    fn typed_rejections_cover_every_parameter() {
        let base = || Calibration::small(6, 4, 2, 0.05);
        assert_eq!(base().try_validate(), Ok(()));

        let mut c = base();
        c.lifespan = 1;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::LifespanTooShort { lifespan: 1 })
        ));

        let mut c = base();
        c.work_years = 6;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::RetirementOutsideLifespan { work_years: 6, .. })
        ));

        let mut c = base();
        c.beta = f64::NAN;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::NonFinite { name: "beta", .. })
        ));

        let mut c = base();
        c.beta = 1.0;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::BetaOutOfRange { .. })
        ));

        let mut c = base();
        c.gamma = 0.0;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::GammaNotPositive { .. })
        ));

        let mut c = base();
        c.capital_share = 1.0;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::CapitalShareOutOfRange { .. })
        ));

        let mut c = base();
        c.depreciation = -0.1;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::DepreciationOutOfRange { .. })
        ));

        let mut c = base();
        c.efficiency.pop();
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::EfficiencyLengthMismatch { len: 5, .. })
        ));

        let mut c = base();
        c.efficiency[2] = 0.0;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::BadWorkingEfficiency { age: 2, .. })
        ));

        let mut c = base();
        c.efficiency[5] = 0.3;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::RetiredEfficiencyNonZero { age: 5, .. })
        ));

        let mut c = base();
        c.regimes.pop();
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::RegimeCountMismatch {
                regimes: 1,
                states: 2
            })
        ));

        let mut c = base();
        c.regimes[1].productivity = 0.0;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::BadRegime { state: 1, .. })
        ));

        let mut c = base();
        c.regimes[0].labor_tax = 1.0;
        assert!(matches!(
            c.try_validate(),
            Err(CalibrationError::BadRegime { state: 0, .. })
        ));
    }

    #[test]
    fn errors_display_the_offending_value() {
        let mut c = Calibration::small(6, 4, 1, 0.0);
        c.beta = 1.25;
        let msg = c.try_validate().unwrap_err().to_string();
        assert!(msg.contains("1.25"), "{msg}");
    }
}
