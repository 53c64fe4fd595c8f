//! Scenario definitions: a fully resolved counterfactual economy plus the
//! solver settings to run it, and [`ScenarioSet`] builders for grid and
//! Monte-Carlo sweeps over a base calibration.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_olg::{BoxPolicy, Calibration, MarkovChain, OlgModel};

/// Refinement + solver settings of one scenario (the per-run knobs of
/// `DriverConfig` and the Newton iteration budget that affect the
/// *solution*, not the hardware mapping).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveSettings {
    /// Regular sparse-grid level every time step starts from.
    pub start_level: u8,
    /// Adaptive refinement threshold ε; `None` keeps the regular grid.
    pub refine_epsilon: Option<f64>,
    /// Maximum refinement level `Lmax`.
    pub max_level: u8,
    /// Time-iteration step budget.
    pub max_steps: usize,
    /// Convergence tolerance on the sup policy change.
    pub tolerance: f64,
    /// Per-point Newton iteration budget.
    pub newton_max_iterations: usize,
    /// Threads of the intra-scenario point-solve pool. Excluded from the
    /// scenario hash: the per-point solves are independent and merged in
    /// index order, so thread count cannot change the solution.
    pub solver_threads: usize,
}

impl Default for SolveSettings {
    fn default() -> Self {
        SolveSettings {
            start_level: 2,
            refine_epsilon: None,
            max_level: 6,
            max_steps: 60,
            tolerance: 1e-6,
            newton_max_iterations: 60,
            solver_threads: 1,
        }
    }
}

/// One fully resolved experiment: a calibrated economy, the state-box
/// reform applied to it, and the solver settings. The [`crate::hash`]
/// module derives the cache identity from everything here except `name`
/// (two scenarios with identical physics share a policy surface no matter
/// what they are called).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display label ("baseline", "beta=0.96/tax-reform", …).
    pub name: String,
    /// The economy to solve.
    pub calibration: Calibration,
    /// State-space box policy (a "box reform" widens or re-centers the
    /// domain the policy surface is solved on).
    pub box_policy: BoxPolicy,
    /// Refinement + solver settings.
    pub solve: SolveSettings,
}

impl Scenario {
    /// Wraps a calibration with default box policy and solver settings.
    pub fn from_calibration(name: &str, calibration: Calibration) -> Scenario {
        Scenario {
            name: name.to_string(),
            calibration,
            box_policy: BoxPolicy::default(),
            solve: SolveSettings::default(),
        }
    }

    /// Validates the scenario end to end: the calibration through
    /// [`Calibration::validate`], positive/finite box-policy spans,
    /// and a sane solver configuration. Returns a human-readable
    /// diagnostic naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.calibration
            .validate()
            .map_err(|e| format!("scenario {:?}: {e}", self.name))?;
        let b = &self.box_policy;
        for (name, v, must_be_positive) in [
            ("capital_span", b.capital_span, true),
            ("wealth_rel", b.wealth_rel, false),
            ("wealth_abs", b.wealth_abs, true),
        ] {
            if !v.is_finite() || v < 0.0 || (must_be_positive && v <= 0.0) {
                return Err(format!(
                    "scenario {:?}: box policy {name} must be {} and finite, got {v}",
                    self.name,
                    if must_be_positive {
                        "positive"
                    } else {
                        "non-negative"
                    }
                ));
            }
        }
        let s = &self.solve;
        if s.start_level < 1 {
            return Err(format!("scenario {:?}: start_level must be ≥ 1", self.name));
        }
        if s.max_level < s.start_level {
            return Err(format!(
                "scenario {:?}: max_level {} below start_level {}",
                self.name, s.max_level, s.start_level
            ));
        }
        if s.max_steps == 0 || s.newton_max_iterations == 0 {
            return Err(format!(
                "scenario {:?}: step/iteration budgets must be positive",
                self.name
            ));
        }
        if !(s.tolerance.is_finite() && s.tolerance > 0.0) {
            return Err(format!(
                "scenario {:?}: tolerance must be positive, got {}",
                self.name, s.tolerance
            ));
        }
        if let Some(eps) = s.refine_epsilon {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(format!(
                    "scenario {:?}: refine_epsilon must be positive, got {eps}",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Builds the OLG model (steady state + state box) for this scenario:
    /// [`Scenario::validate`]'s diagnostic, or the steady-state solve's
    /// when the calibration has no steady state. The latter is not part of
    /// `validate`, which the serving front-end runs on every request
    /// before its exact-hit lookup; the executor reports it as
    /// [`ExecutorError::Model`](crate::ExecutorError::Model).
    pub fn build_model(&self) -> Result<OlgModel, String> {
        self.validate()?;
        OlgModel::with_box(self.calibration.clone(), self.box_policy)
            .map_err(|e| format!("scenario {:?}: {e}", self.name))
    }

    /// Continuous state dimensionality `d = A − 1`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.calibration.dim()
    }

    /// Coefficients per grid point.
    #[inline]
    pub fn ndofs(&self) -> usize {
        self.calibration.ndofs()
    }
}

/// A sweepable scenario parameter. Multiplicative knobs (`Beta`, …) are
/// set to the axis value directly; `*Shift` knobs are added to every
/// regime's base rate; `Persistence` rebuilds the Markov chain as a
/// symmetric persistent chain over the same state count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Knob {
    /// Discount factor `β`.
    Beta,
    /// CRRA coefficient `γ`.
    Gamma,
    /// Depreciation rate `δ`.
    Depreciation,
    /// Capital share `θ`.
    CapitalShare,
    /// Multiplies every regime's productivity `ζ_z`.
    ProductivityScale,
    /// Adds to every regime's labor tax `τ_l` (a pension reform).
    LaborTaxShift,
    /// Adds to every regime's capital tax `τ_c`.
    CapitalTaxShift,
    /// Rebuilds the shock chain as `MarkovChain::persistent(Ns, value)`.
    Persistence,
    /// Box reform: relative half-width for aggregate capital.
    CapitalSpan,
    /// Box reform: relative half-width per cohort asset level.
    WealthRel,
}

impl Knob {
    /// Short label used in generated scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            Knob::Beta => "beta",
            Knob::Gamma => "gamma",
            Knob::Depreciation => "delta",
            Knob::CapitalShare => "theta",
            Knob::ProductivityScale => "zeta",
            Knob::LaborTaxShift => "dtaul",
            Knob::CapitalTaxShift => "dtauc",
            Knob::Persistence => "rho",
            Knob::CapitalSpan => "kspan",
            Knob::WealthRel => "wrel",
        }
    }

    /// The knob's current value in `scenario` (shift knobs read 0: they
    /// are deltas against the base, not absolute levels).
    pub fn read(&self, scenario: &Scenario) -> f64 {
        match self {
            Knob::Beta => scenario.calibration.beta,
            Knob::Gamma => scenario.calibration.gamma,
            Knob::Depreciation => scenario.calibration.depreciation,
            Knob::CapitalShare => scenario.calibration.capital_share,
            Knob::ProductivityScale => 1.0,
            Knob::LaborTaxShift | Knob::CapitalTaxShift => 0.0,
            Knob::Persistence => scenario.calibration.chain.prob(0, 0),
            Knob::CapitalSpan => scenario.box_policy.capital_span,
            Knob::WealthRel => scenario.box_policy.wealth_rel,
        }
    }

    /// Applies `value` to `scenario` (see the enum docs for semantics).
    /// Most knobs write the raw value and leave admissibility to
    /// [`Scenario::validate`]; `Persistence` must reject out-of-`[0, 1]`
    /// values here, because an invalid probability cannot even be stored
    /// in a [`MarkovChain`].
    pub fn apply(&self, scenario: &mut Scenario, value: f64) -> Result<(), String> {
        match self {
            Knob::Beta => scenario.calibration.beta = value,
            Knob::Gamma => scenario.calibration.gamma = value,
            Knob::Depreciation => scenario.calibration.depreciation = value,
            Knob::CapitalShare => scenario.calibration.capital_share = value,
            Knob::ProductivityScale => {
                for r in &mut scenario.calibration.regimes {
                    r.productivity *= value;
                }
            }
            Knob::LaborTaxShift => {
                for r in &mut scenario.calibration.regimes {
                    r.labor_tax += value;
                }
            }
            Knob::CapitalTaxShift => {
                for r in &mut scenario.calibration.regimes {
                    r.capital_tax += value;
                }
            }
            Knob::Persistence => {
                if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                    return Err(format!("persistence must lie in [0, 1], got {value}"));
                }
                let ns = scenario.calibration.chain.num_states();
                scenario.calibration.chain = MarkovChain::persistent(ns, value);
            }
            Knob::CapitalSpan => scenario.box_policy.capital_span = value,
            Knob::WealthRel => scenario.box_policy.wealth_rel = value,
        }
        Ok(())
    }
}

/// An ordered batch of scenarios — the unit the executor runs.
#[derive(Clone, Debug)]
pub struct ScenarioSet {
    /// The scenarios, in construction order.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// A single-scenario set.
    pub fn single(scenario: Scenario) -> ScenarioSet {
        ScenarioSet {
            scenarios: vec![scenario],
        }
    }

    /// Number of scenarios.
    #[inline]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Cartesian grid sweep: every combination of the axis values applied
    /// to `base`, in row-major order (last axis fastest). Each resulting
    /// calibration is validated; the first inadmissible combination
    /// aborts the build with its typed diagnostic.
    pub fn grid(base: &Scenario, axes: &[(Knob, Vec<f64>)]) -> Result<ScenarioSet, String> {
        for (knob, values) in axes {
            if values.is_empty() {
                return Err(format!("axis {} has no values", knob.label()));
            }
        }
        let total: usize = axes.iter().map(|(_, v)| v.len()).product();
        let mut scenarios = Vec::with_capacity(total);
        for flat in 0..total {
            let mut scenario = base.clone();
            let mut rest = flat;
            let mut parts = Vec::with_capacity(axes.len());
            // Row-major: later axes vary fastest.
            for (knob, values) in axes.iter().rev() {
                let value = values[rest % values.len()];
                rest /= values.len();
                knob.apply(&mut scenario, value)
                    .map_err(|e| format!("axis {}: {e}", knob.label()))?;
                parts.push(format!("{}={value}", knob.label()));
            }
            parts.reverse();
            scenario.name = format!("{}/{}", base.name, parts.join(","));
            scenario.validate()?;
            scenarios.push(scenario);
        }
        Ok(ScenarioSet { scenarios })
    }

    /// The demo sweep used by the `scenarios` CLI and the integration
    /// tests: a 4 × 4 grid over `β` and `δ` around a small two-state
    /// stochastic economy — 16 scenarios close enough that the
    /// policy-surface cache warm-starts most of them. Fails with a
    /// diagnostic on inadmissible demographics (the demographics must be
    /// checked before `Calibration::small` would assert on them).
    pub fn demo(lifespan: usize, work_years: usize) -> Result<ScenarioSet, String> {
        if lifespan < 2 || work_years < 1 || work_years >= lifespan {
            return Err(format!(
                "demo sweep needs lifespan ≥ 2 and 1 ≤ work_years < lifespan, \
                 got lifespan {lifespan}, work_years {work_years}"
            ));
        }
        let base =
            Scenario::from_calibration("demo", Calibration::small(lifespan, work_years, 2, 0.03));
        ScenarioSet::grid(
            &base,
            &[
                (Knob::Beta, vec![0.948, 0.95, 0.952, 0.954]),
                (Knob::Depreciation, vec![0.078, 0.08, 0.082, 0.084]),
            ],
        )
    }

    /// Seeded Monte-Carlo sweep: `n` scenarios, each jittering every
    /// listed knob uniformly within ±`half_width` of its base value
    /// (shift knobs: within ±`half_width` of zero). Deterministic in
    /// `seed`. Draws that produce an inadmissible calibration are
    /// rejected and redrawn, up to a bounded number of attempts.
    pub fn monte_carlo(
        base: &Scenario,
        n: usize,
        seed: u64,
        jitter: &[(Knob, f64)],
    ) -> Result<ScenarioSet, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scenarios = Vec::with_capacity(n);
        let mut attempts = 0usize;
        while scenarios.len() < n {
            attempts += 1;
            if attempts > 100 * n.max(1) {
                return Err(format!(
                    "monte_carlo: only {}/{n} admissible draws after {attempts} attempts",
                    scenarios.len()
                ));
            }
            let mut scenario = base.clone();
            let mut admissible = true;
            for (knob, half_width) in jitter {
                let u: f64 = rng.gen();
                let offset = half_width * (2.0 * u - 1.0);
                let value = match knob {
                    Knob::LaborTaxShift | Knob::CapitalTaxShift => offset,
                    _ => knob.read(base) + offset,
                };
                // An out-of-range draw (e.g. persistence above 1) is a
                // rejected draw, like any other inadmissible jitter.
                if knob.apply(&mut scenario, value).is_err() {
                    admissible = false;
                    break;
                }
            }
            scenario.name = format!("{}/mc{:03}", base.name, scenarios.len());
            if admissible && scenario.validate().is_ok() {
                scenarios.push(scenario);
            }
        }
        Ok(ScenarioSet { scenarios })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario::from_calibration("test", Calibration::small(5, 3, 2, 0.03))
    }

    #[test]
    fn grid_sweep_is_the_cartesian_product() {
        let set = ScenarioSet::grid(
            &base(),
            &[
                (Knob::Beta, vec![0.94, 0.95, 0.96]),
                (Knob::Depreciation, vec![0.07, 0.08]),
            ],
        )
        .unwrap();
        assert_eq!(set.len(), 6);
        // Row-major: the last axis varies fastest.
        assert!((set.scenarios[0].calibration.beta - 0.94).abs() < 1e-15);
        assert!((set.scenarios[0].calibration.depreciation - 0.07).abs() < 1e-15);
        assert!((set.scenarios[1].calibration.depreciation - 0.08).abs() < 1e-15);
        assert!((set.scenarios[2].calibration.beta - 0.95).abs() < 1e-15);
        // Names encode the coordinates.
        assert_eq!(set.scenarios[0].name, "test/beta=0.94,delta=0.07");
        // All distinct.
        let mut names: Vec<_> = set.scenarios.iter().map(|s| s.name.clone()).collect();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn grid_sweep_rejects_inadmissible_axis_values() {
        let err = ScenarioSet::grid(&base(), &[(Knob::Beta, vec![0.95, 1.5])]).unwrap_err();
        assert!(err.contains("beta"), "{err}");
    }

    #[test]
    fn monte_carlo_is_deterministic_in_the_seed() {
        let jitter = [(Knob::Beta, 0.01), (Knob::ProductivityScale, 0.02)];
        let a = ScenarioSet::monte_carlo(&base(), 8, 7, &jitter).unwrap();
        let b = ScenarioSet::monte_carlo(&base(), 8, 7, &jitter).unwrap();
        let c = ScenarioSet::monte_carlo(&base(), 8, 8, &jitter).unwrap();
        assert_eq!(a.len(), 8);
        for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
            assert_eq!(x.calibration.beta.to_bits(), y.calibration.beta.to_bits());
        }
        // A different seed actually moves the draws.
        assert!(a
            .scenarios
            .iter()
            .zip(&c.scenarios)
            .any(|(x, y)| x.calibration.beta != y.calibration.beta));
        // Every draw is admissible.
        for s in &a.scenarios {
            s.validate().unwrap();
        }
    }

    #[test]
    fn shift_knobs_move_every_regime() {
        let mut s = base();
        let before: Vec<f64> = s.calibration.regimes.iter().map(|r| r.labor_tax).collect();
        Knob::LaborTaxShift.apply(&mut s, 0.02).unwrap();
        for (r, b) in s.calibration.regimes.iter().zip(&before) {
            assert!((r.labor_tax - (b + 0.02)).abs() < 1e-15);
        }
        s.validate().unwrap();
    }

    #[test]
    fn persistence_knob_rebuilds_the_chain() {
        let mut s = base();
        Knob::Persistence.apply(&mut s, 0.6).unwrap();
        assert!((s.calibration.chain.prob(0, 0) - 0.6).abs() < 1e-15);
        assert_eq!(s.calibration.chain.num_states(), 2);
        s.validate().unwrap();
    }

    #[test]
    fn out_of_range_persistence_is_rejected_not_panicked() {
        // Grid axis: typed error naming the axis.
        let err = ScenarioSet::grid(&base(), &[(Knob::Persistence, vec![1.2])]).unwrap_err();
        assert!(err.contains("rho") && err.contains("persistence"), "{err}");
        // Monte Carlo: an out-of-range draw counts as rejected-and-redrawn.
        let set = ScenarioSet::monte_carlo(&base(), 4, 3, &[(Knob::Persistence, 0.19)]).unwrap();
        assert_eq!(set.len(), 4);
        for s in &set.scenarios {
            let p = s.calibration.chain.prob(0, 0);
            assert!((0.0..=1.0).contains(&p), "persistence {p}");
        }
        // A base that can never validate exhausts the attempt budget
        // with a diagnostic instead of looping forever.
        let mut bad = base();
        bad.solve.tolerance = -1.0;
        let err = ScenarioSet::monte_carlo(&bad, 2, 3, &[(Knob::Beta, 0.01)]).unwrap_err();
        assert!(err.contains("admissible"), "{err}");
    }

    #[test]
    fn demo_rejects_inadmissible_demographics() {
        let err = ScenarioSet::demo(3, 3).unwrap_err();
        assert!(err.contains("work_years"), "{err}");
        let err = ScenarioSet::demo(1, 0).unwrap_err();
        assert!(err.contains("lifespan"), "{err}");
        assert_eq!(ScenarioSet::demo(4, 3).unwrap().len(), 16);
    }

    #[test]
    fn validate_rejects_bad_box_and_solver_settings() {
        let mut s = base();
        s.box_policy.capital_span = 0.0;
        assert!(s.validate().unwrap_err().contains("capital_span"));

        let mut s = base();
        s.solve.tolerance = -1.0;
        assert!(s.validate().unwrap_err().contains("tolerance"));

        let mut s = base();
        s.solve.max_level = 1;
        assert!(s.validate().unwrap_err().contains("max_level"));
    }
}
