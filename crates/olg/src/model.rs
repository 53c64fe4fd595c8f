//! The per-grid-point equilibrium system of the stochastic OLG model
//! (Sec. II-A): given `(z, x)` and next period's policy `p_next`, solve the
//! `A−1` Euler equations for today's savings vector and recover the value
//! functions — the function `f` of the functional equation (3).
//!
//! The unit of work is a **block of points**. [`OlgModel::solve_points`]
//! hands the points' Euler systems to the lockstep Newton
//! ([`hddm_solver::newton_block`]); each of its rounds arrives here as a
//! set of savings rows, and the residual is evaluated in three passes:
//! next states from the savings rows, **one [`PolicyOracle::eval_block`]
//! per next discrete state** over all rows of the round — the
//! interpolation of `pnext` the paper's kernels exist for, now dozens to
//! hundreds of points wide — then the Euler algebra row by row. What
//! depends only on the point (today's prices, wealth, incomes) is computed
//! once per point solve, what depends only on the calibration (`L`,
//! `L^{1−θ}`) once per model, and the `Ns` prices of a row share its one
//! `K'^θ` — the only call into libm a row makes, and it is made in
//! `economy.rs`, where the transcendental budget is kept. Every row sees
//! the arithmetic a lone [`OlgModel::solve_point`] applies to it, so a
//! point's solution does not depend on its block; `solve_point`,
//! [`OlgModel::euler_residuals`] and [`OlgModel::values_at`] are the
//! one-point and one-row cases of the same code.

use crate::calibration::Calibration;
use crate::economy::{income, marginal_utility, utility, PriceBasis, Prices};
use crate::steady::{solve_steady_state, SteadyState};
use hddm_solver::{newton_block, NewtonOptions, NewtonReport, NewtonWorkspace, SolverError};

/// Next-period policy interpolation, the hot path the paper's kernels
/// accelerate. The time-iteration driver implements this on top of the
/// compressed ASG kernels; tests implement it with closed forms.
pub trait PolicyOracle {
    /// Writes the `ndofs` interpolated coefficients
    /// `(ŝ'_1…ŝ'_{A−1}, v̂'_1…v̂'_{A−1})` of discrete state `z_next` at the
    /// *physical* state `x_next` into `out`. Implementations clamp
    /// `x_next` into the domain box (the paper's truncation).
    fn eval(&mut self, z_next: usize, x_next: &[f64], out: &mut [f64]);

    /// [`Self::eval`] at a block of `dim`-dimensional states: `xs` is
    /// point-major `npts × dim`, `out` point-major `npts × ndofs`. Row
    /// `i` of `out` must be exactly what `eval` writes for row `i` of
    /// `xs`; the provided implementation loops `eval`, kernel-backed
    /// oracles evaluate the block in one walk.
    fn eval_block(&mut self, z_next: usize, dim: usize, xs: &[f64], out: &mut [f64]) {
        let npts = xs.len() / dim;
        if npts == 0 {
            return;
        }
        let ndofs = out.len() / npts;
        for (x, row) in xs.chunks_exact(dim).zip(out.chunks_exact_mut(ndofs)) {
            self.eval(z_next, x, row);
        }
    }
}

/// Blanket implementation so plain closures can serve as oracles in tests.
impl<F> PolicyOracle for F
where
    F: FnMut(usize, &[f64], &mut [f64]),
{
    fn eval(&mut self, z_next: usize, x_next: &[f64], out: &mut [f64]) {
        self(z_next, x_next, out)
    }
}

/// Reusable buffers of the point solver (one per worker thread): the
/// Newton workspace, the per-point contexts, one round's rows and the
/// rows kept for the value recursion. Everything is sized by the first
/// (largest) block and reused across rounds and blocks.
#[derive(Clone, Debug, Default)]
pub struct PointScratch {
    newton: NewtonWorkspace,
    /// The Newton unknowns: every point's savings (`m × (A−1)`).
    savings: Vec<f64>,
    points: PointContexts,
    round: RoundBuffers,
    kept: KeptRows,
    tally: SolveTally,
}

impl PointScratch {
    /// Returns the work of the block solves since the last call and
    /// starts a new tally.
    pub fn take_tally(&mut self) -> SolveTally {
        std::mem::take(&mut self.tally)
    }
}

/// What [`OlgModel::solve_points`] did on a scratch: the counts that tell
/// cost per residual row from number of rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveTally {
    /// Euler systems handed to Newton (one per point).
    pub systems: u64,
    /// Savings rows the residual rounds were asked to evaluate.
    pub residual_rows: u64,
    /// Finite-difference Jacobians of the systems that converged.
    pub jacobians: u64,
    /// Newton iterations of the systems that converged.
    pub newton_iterations: u64,
}

/// What the residual needs of each point `(z, x)` of a block and no
/// savings row changes.
#[derive(Clone, Debug, Default)]
struct PointContexts {
    /// `0..m`: the owners of a round in which every point contributes
    /// its one row, in order.
    identity: Vec<usize>,
    z: Vec<usize>,
    /// Resources by age before saving, `R̃·ω_a + income_a` for
    /// `a = 1..A` (`m × A`): consumption is this minus savings.
    resources: Vec<f64>,
    wealth: Vec<f64>,
}

/// One round of residual rows.
#[derive(Clone, Debug, Default)]
struct RoundBuffers {
    /// Rows whose next state exists (positive capital tomorrow).
    valid: Vec<usize>,
    /// Their next states, `valid × d`.
    x_next: Vec<f64>,
    /// `pnext` there, one `valid × ndofs` block per next discrete state.
    policy_next: Vec<f64>,
    prices_next: Vec<Prices>,
}

/// Per point, the interpolated `pnext` rows (`Ns × ndofs`) of its last
/// residual evaluation that was a single row, and the savings they belong
/// to. Newton's last single-row evaluation is the point it accepted, so
/// the value recursion at the solution finds its rows here.
#[derive(Clone, Debug, Default)]
struct KeptRows {
    has: Vec<bool>,
    savings: Vec<f64>,
    policy: Vec<f64>,
}

/// `pnext` at one next state, as laid out in a buffer: coefficient `k` of
/// next discrete state `z'` is `data[z' · stride + k]`.
#[derive(Clone, Copy)]
struct NextPolicy<'a> {
    data: &'a [f64],
    stride: usize,
}

impl NextPolicy<'_> {
    #[inline]
    fn at(&self, z_next: usize, k: usize) -> f64 {
        self.data[z_next * self.stride + k]
    }
}

/// The solved point: today's policies, values, and solver diagnostics.
#[derive(Clone, Debug)]
pub struct PointSolution {
    /// Savings `s_1..s_{A−1}`.
    pub savings: Vec<f64>,
    /// Values `v_1..v_{A−1}`.
    pub values: Vec<f64>,
    /// Consumption `c_1..c_A` at the solution.
    pub consumption: Vec<f64>,
    /// Newton diagnostics.
    pub report: NewtonReport,
}

impl PointSolution {
    /// Packs the solution into the `ndofs` surplus-row layout
    /// `(s_1…s_{A−1}, v_1…v_{A−1})`.
    pub fn dof_row(&self) -> Vec<f64> {
        let mut row = self.savings.clone();
        row.extend_from_slice(&self.values);
        row
    }
}

/// The OLG model bundled with its steady state and state-space box.
#[derive(Clone, Debug)]
pub struct OlgModel {
    /// Model calibration.
    pub cal: Calibration,
    /// Steady state of the deterministic reference economy.
    pub steady: SteadyState,
    /// Lower bounds of the state box `B` (length `d`).
    pub lower: Vec<f64>,
    /// Upper bounds of the state box `B` (length `d`).
    pub upper: Vec<f64>,
    /// The calibration-only part of the prices, derived from `cal` when
    /// the model is built (`cal` is not to be edited afterwards).
    basis: PriceBasis,
}

/// Width policy for the state box around the steady state.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BoxPolicy {
    /// Relative half-width for aggregate capital.
    pub capital_span: f64,
    /// Relative half-width applied to each cohort's steady asset level.
    pub wealth_rel: f64,
    /// Absolute half-width floor, as a fraction of the peak steady asset
    /// level (keeps near-zero cohorts from collapsing the box).
    pub wealth_abs: f64,
}

impl Default for BoxPolicy {
    fn default() -> Self {
        BoxPolicy {
            capital_span: 0.30,
            wealth_rel: 0.50,
            wealth_abs: 0.15,
        }
    }
}

impl OlgModel {
    /// Builds the model: solves the reference steady state and centers the
    /// box `B` on it.
    pub fn new(cal: Calibration) -> Self {
        Self::with_box(cal, BoxPolicy::default())
    }

    /// Builds with an explicit box policy.
    pub fn with_box(cal: Calibration, policy: BoxPolicy) -> Self {
        cal.validate();
        let steady = solve_steady_state(&cal);
        let d = cal.dim();
        let mut lower = Vec::with_capacity(d);
        let mut upper = Vec::with_capacity(d);
        lower.push(steady.capital * (1.0 - policy.capital_span));
        upper.push(steady.capital * (1.0 + policy.capital_span));
        let peak = steady
            .assets
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-6);
        for a in 2..cal.lifespan {
            let center = steady.assets[a - 1];
            let span = policy.wealth_rel * center.abs() + policy.wealth_abs * peak;
            lower.push(center - span);
            upper.push(center + span);
        }
        OlgModel {
            basis: PriceBasis::new(&cal),
            cal,
            steady,
            lower,
            upper,
        }
    }

    /// Continuous dimensionality `d = A − 1`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cal.dim()
    }

    /// Coefficients per point (`2·(A−1)`).
    #[inline]
    pub fn ndofs(&self) -> usize {
        self.cal.ndofs()
    }

    /// Number of discrete states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.cal.num_states()
    }

    /// Beginning-of-period wealth by age implied by the state vector:
    /// `ω_1 = 0`, `ω_a = x[a−1]` for `a = 2..A−1`, and the adding-up
    /// residual `ω_A = K − Σ_{a=2}^{A−1} ω_a`.
    pub fn wealth_from_state(&self, x: &[f64], wealth: &mut Vec<f64>) {
        let a_max = self.cal.lifespan;
        debug_assert_eq!(x.len(), a_max - 1);
        wealth.clear();
        wealth.push(0.0);
        let mut sum = 0.0;
        for a in 2..a_max {
            let w = x[a - 1];
            wealth.push(w);
            sum += w;
        }
        wealth.push(x[0] - sum);
    }

    /// The state tomorrow implied by today's savings:
    /// `x' = (Σ_a s_a, s_1, …, s_{A−2})`.
    pub fn next_state(&self, savings: &[f64], x_next: &mut Vec<f64>) {
        x_next.clear();
        self.extend_next_state(savings, x_next);
    }

    /// Appends the next state of `savings` to `x_next` (one more row of a
    /// point-major block).
    fn extend_next_state(&self, savings: &[f64], x_next: &mut Vec<f64>) {
        let a_max = self.cal.lifespan;
        debug_assert_eq!(savings.len(), a_max - 1);
        x_next.push(savings.iter().sum());
        x_next.extend_from_slice(&savings[..a_max - 2]);
    }

    /// Records the contexts of a block: point `i` is `(z_of(i), row i of xs)`.
    fn set_contexts(&self, points: &mut PointContexts, z_of: impl Fn(usize) -> usize, xs: &[f64]) {
        let cal = &self.cal;
        debug_assert_eq!(
            self.basis,
            PriceBasis::new(cal),
            "`cal` edited after the build"
        );
        let a_max = cal.lifespan;
        let m = xs.len() / self.dim();
        points.identity.clear();
        points.identity.extend(0..m);
        points.z.clear();
        points.z.extend((0..m).map(z_of));
        points.resources.resize(m * a_max, 0.0);
        let resources = points.resources.chunks_exact_mut(a_max);
        for ((x, &z), resources) in xs.chunks_exact(self.dim()).zip(&points.z).zip(resources) {
            let p = self.basis.at(cal, x[0].max(1e-9)).prices(z);
            self.wealth_from_state(x, &mut points.wealth);
            for a in 1..=a_max {
                resources[a - 1] = p.gross_return * points.wealth[a - 1] + income(cal, z, &p, a);
            }
        }
    }

    /// `pnext` of every next discrete state at the next states `x_next`
    /// (`npts × d`): one block evaluation per `z'`, written to
    /// `policy_next[z' · npts · ndofs ..]`.
    fn interpolate_next(
        &self,
        x_next: &[f64],
        oracle: &mut dyn PolicyOracle,
        policy_next: &mut Vec<f64>,
    ) {
        let npts = x_next.len() / self.dim();
        if npts == 0 {
            return;
        }
        policy_next.resize(self.num_states() * npts * self.ndofs(), 0.0);
        let blocks = policy_next.chunks_exact_mut(npts * self.ndofs());
        for (z_next, block) in blocks.enumerate() {
            oracle.eval_block(z_next, self.dim(), x_next, block);
        }
    }

    /// One round of Euler residuals: `rows` are savings vectors
    /// (`k × (A−1)`), `owners[i]` the point of `points` row `i` belongs
    /// to. Writes the relative residuals
    /// `1 − β·E[R̃'·u'(c'_{a+1})]/u'(c_a)` of row `i` into row `i` of `out`,
    /// or rejects it when implied aggregate capital tomorrow is
    /// non-positive (prices undefined). With `keep`, a point's rows of
    /// `pnext` are remembered whenever it contributed a single row.
    #[allow(clippy::too_many_arguments)]
    fn residual_rows(
        &self,
        points: &PointContexts,
        owners: &[usize],
        rows: &[f64],
        oracle: &mut dyn PolicyOracle,
        round: &mut RoundBuffers,
        mut keep: Option<&mut KeptRows>,
        out: &mut [f64],
        rejected: &mut [Option<SolverError>],
    ) {
        let cal = &self.cal;
        let a_max = cal.lifespan;
        let n = a_max - 1;
        let d = self.dim();
        let ndofs = self.ndofs();
        let ns = cal.num_states();

        // Next states from the savings rows.
        round.valid.clear();
        round.x_next.clear();
        for (r, savings) in rows.chunks_exact(n).enumerate() {
            let k_next: f64 = savings.iter().sum();
            if k_next <= 1e-9 {
                rejected[r] = Some(SolverError::Rejected(format!(
                    "non-positive aggregate capital tomorrow: {k_next}"
                )));
                continue;
            }
            round.valid.push(r);
            self.extend_next_state(savings, &mut round.x_next);
        }
        let valid = round.valid.len();

        // The interpolation: one block per next discrete state.
        self.interpolate_next(&round.x_next, oracle, &mut round.policy_next);

        // Euler algebra, row by row.
        for (i, &r) in round.valid.iter().enumerate() {
            let savings = &rows[r * n..(r + 1) * n];
            let owner = owners[r];
            let k_next = round.x_next[i * d];
            let at_k_next = self.basis.at(cal, k_next);
            round.prices_next.clear();
            round
                .prices_next
                .extend((0..ns).map(|z_next| at_k_next.prices(z_next)));
            let next = NextPolicy {
                data: &round.policy_next[i * ndofs..],
                stride: valid * ndofs,
            };
            self.euler_row(
                points.z[owner],
                &points.resources[owner * a_max..(owner + 1) * a_max],
                savings,
                &round.prices_next,
                next,
                &mut out[r * n..(r + 1) * n],
            );

            let alone = (r == 0 || owners[r - 1] != owner)
                && (r + 1 == owners.len() || owners[r + 1] != owner);
            if let (Some(kept), true) = (keep.as_deref_mut(), alone) {
                kept.has[owner] = true;
                kept.savings[owner * n..(owner + 1) * n].copy_from_slice(savings);
                let slot = &mut kept.policy[owner * ns * ndofs..(owner + 1) * ns * ndofs];
                for (z_next, row) in slot.chunks_exact_mut(ndofs).enumerate() {
                    row.copy_from_slice(&next.data[z_next * next.stride..][..ndofs]);
                }
            }
        }
    }

    /// The Euler residuals of one savings row — the only Euler loop.
    fn euler_row(
        &self,
        z: usize,
        resources: &[f64],
        savings: &[f64],
        prices_next: &[Prices],
        next: NextPolicy<'_>,
        out: &mut [f64],
    ) {
        let cal = &self.cal;
        let a_max = cal.lifespan;
        let transition = cal.chain.row(z);
        for a in 1..a_max {
            let c_today = resources[a - 1] - savings[a - 1];
            let mut expectation = 0.0;
            for (z_next, pn) in prices_next.iter().enumerate() {
                let pi = transition[z_next];
                if pi == 0.0 {
                    continue;
                }
                let s_next = if a + 1 < a_max {
                    next.at(z_next, a)
                } else {
                    0.0 // the oldest generation saves nothing
                };
                let c_tomorrow =
                    pn.gross_return * savings[a - 1] + income(cal, z_next, pn, a + 1) - s_next;
                expectation += pi * pn.gross_return * marginal_utility(cal.gamma, c_tomorrow);
            }
            out[a - 1] = 1.0 - cal.beta * expectation / marginal_utility(cal.gamma, c_today);
        }
    }

    /// The value functions `v_1..v_{A−1}` of one point at `savings`, written
    /// to `values` — the only value recursion.
    fn values_row(
        &self,
        z: usize,
        resources: &[f64],
        savings: &[f64],
        next: NextPolicy<'_>,
        values: &mut [f64],
    ) {
        let cal = &self.cal;
        let a_max = cal.lifespan;
        let ns = cal.num_states();
        let k_next: f64 = savings.iter().sum();
        let at_k_next = self.basis.at(cal, k_next.max(1e-9));

        let transition = cal.chain.row(z);
        for a in 1..a_max {
            let mut continuation = 0.0;
            for z_next in 0..ns {
                let pi = transition[z_next];
                if pi == 0.0 {
                    continue;
                }
                let v_next = if a + 1 < a_max {
                    next.at(z_next, (a_max - 1) + a)
                } else {
                    // v'_A is closed-form: the oldest consumes everything.
                    let pn = at_k_next.prices(z_next);
                    let c_last =
                        pn.gross_return * savings[a_max - 2] + income(cal, z_next, &pn, a_max);
                    utility(cal.gamma, c_last)
                };
                continuation += pi * v_next;
            }
            let consumption = resources[a - 1] - savings[a - 1];
            values[a - 1] = utility(cal.gamma, consumption) + cal.beta * continuation;
        }
    }

    /// The consumption profile `c_1..c_A` of one point at `savings`.
    fn consumption_row(resources: &[f64], savings: &[f64]) -> Vec<f64> {
        let working = resources.iter().zip(savings).map(|(r, s)| r - s);
        working.chain(resources.last().copied()).collect()
    }

    /// Euler residuals of one savings row per point: row `i` of `savings`
    /// at `(zs[i], row i of xs)`, as one round.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn euler_residual_rows(
        &self,
        zs: &[usize],
        xs: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        out: &mut [f64],
        rejected: &mut [Option<SolverError>],
    ) {
        let PointScratch { points, round, .. } = scratch;
        self.set_contexts(points, |i| zs[i], xs);
        let owners = &points.identity;
        self.residual_rows(points, owners, savings, oracle, round, None, out, rejected);
    }

    /// Evaluates the `A−1` relative Euler residuals
    /// `1 − β·E[R̃'·u'(c'_{a+1})]/u'(c_a)` at `(z, x)` for candidate
    /// `savings`, interpolating next-period policies through `oracle`.
    ///
    /// Returns `Err(Rejected)` when implied aggregate capital tomorrow is
    /// non-positive (prices undefined) — the Newton line search backs off.
    pub fn euler_residuals(
        &self,
        z: usize,
        x: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        out: &mut [f64],
    ) -> Result<(), SolverError> {
        debug_assert_eq!(out.len(), self.cal.lifespan - 1);
        let mut rejected = [None];
        self.euler_residual_rows(&[z], x, savings, oracle, scratch, out, &mut rejected);
        let [rejected] = rejected;
        rejected.map_or(Ok(()), Err)
    }

    /// Recovers the value functions `v_1..v_{A−1}` and consumption profile
    /// at `savings` (one oracle sweep over the next discrete states).
    pub fn values_at(
        &self,
        z: usize,
        x: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
    ) -> (Vec<f64>, Vec<f64>) {
        let PointScratch { points, round, .. } = scratch;
        self.set_contexts(points, |_| z, x);
        round.x_next.clear();
        self.extend_next_state(savings, &mut round.x_next);
        self.interpolate_next(&round.x_next, oracle, &mut round.policy_next);
        let next = NextPolicy {
            data: &round.policy_next,
            stride: self.ndofs(),
        };
        let mut values = vec![0.0; savings.len()];
        self.values_row(z, &points.resources, savings, next, &mut values);
        (values, Self::consumption_row(&points.resources, savings))
    }

    /// Solves the point problems of discrete state `z` at the states `xs`
    /// (`m × d`) together: lockstep Newton on the `m` Euler systems from
    /// the savings part of each row of `guesses` (`m` rows of at least
    /// `A−1` entries, e.g. dof rows), then the value recursion of every
    /// solved point. Where entry `i` of the result is `Ok`, row `i` of
    /// `rows` (`m × ndofs`) holds the dof row `(s_1…s_{A−1}, v_1…v_{A−1})`
    /// and the entry the Newton report of what [`Self::solve_point`]
    /// returns for point `i` alone, bit for bit; the rows of failed points
    /// are left as they were. The work is added to `scratch`'s tally.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_points(
        &self,
        z: usize,
        xs: &[f64],
        guesses: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        options: &NewtonOptions,
        rows: &mut [f64],
    ) -> Vec<Result<NewtonReport, SolverError>> {
        let a_max = self.cal.lifespan;
        let n = a_max - 1;
        let d = self.dim();
        let ndofs = self.ndofs();
        let ns = self.num_states();
        assert_eq!(xs.len() % d, 0, "ragged block of states");
        let m = xs.len() / d;
        assert_eq!(rows.len(), m * ndofs, "one dof row per point");
        if m == 0 {
            return Vec::new();
        }
        assert_eq!(guesses.len() % m, 0, "ragged block of guesses");
        let guess_len = guesses.len() / m;

        let PointScratch {
            newton,
            savings,
            points,
            round,
            kept,
            tally,
        } = scratch;
        self.set_contexts(points, |_| z, xs);
        savings.clear();
        for guess in guesses.chunks_exact(guess_len) {
            savings.extend_from_slice(&guess[..n]);
        }
        kept.has.clear();
        kept.has.resize(m, false);
        kept.savings.resize(m * n, 0.0);
        kept.policy.resize(m * ns * ndofs, 0.0);
        tally.systems += m as u64;
        let reports = newton_block(
            n,
            savings,
            options,
            newton,
            |owners, trials, out, rejected| {
                tally.residual_rows += owners.len() as u64;
                self.residual_rows(
                    points,
                    owners,
                    trials,
                    oracle,
                    round,
                    Some(kept),
                    out,
                    rejected,
                )
            },
        );

        for (s, (report, row)) in reports.iter().zip(rows.chunks_exact_mut(ndofs)).enumerate() {
            let Ok(report) = report else { continue };
            tally.jacobians += report.jacobian_evals as u64;
            tally.newton_iterations += report.iterations as u64;
            let savings = &savings[s * n..(s + 1) * n];
            let kept_here = kept.has[s]
                && savings
                    .iter()
                    .zip(&kept.savings[s * n..(s + 1) * n])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            let next = if kept_here {
                NextPolicy {
                    data: &kept.policy[s * ns * ndofs..(s + 1) * ns * ndofs],
                    stride: ndofs,
                }
            } else {
                round.x_next.clear();
                self.extend_next_state(savings, &mut round.x_next);
                self.interpolate_next(&round.x_next, oracle, &mut round.policy_next);
                NextPolicy {
                    data: &round.policy_next,
                    stride: ndofs,
                }
            };
            let resources = &points.resources[s * a_max..(s + 1) * a_max];
            let (row_savings, row_values) = row.split_at_mut(n);
            row_savings.copy_from_slice(savings);
            self.values_row(z, resources, savings, next, row_values);
        }
        reports
    }

    /// Solves the full point problem: Newton on the Euler system from
    /// `guess` (savings part of a dof row), then the value recursion —
    /// [`Self::solve_points`] with one point, plus the consumption profile.
    pub fn solve_point(
        &self,
        z: usize,
        x: &[f64],
        guess: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        options: &NewtonOptions,
    ) -> Result<PointSolution, SolverError> {
        let mut row = vec![0.0; self.ndofs()];
        let report = self
            .solve_points(z, x, guess, oracle, scratch, options, &mut row)
            .pop()
            .expect("one point in, one report out")?;
        let values = row.split_off(self.dim());
        let savings = row;
        let consumption = Self::consumption_row(&scratch.points.resources, &savings);
        Ok(PointSolution {
            savings,
            values,
            consumption,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle returning the steady-state dof row regardless of the query
    /// point — exact in the deterministic steady state.
    struct SteadyOracle {
        row: Vec<f64>,
    }

    impl PolicyOracle for SteadyOracle {
        fn eval(&mut self, _z: usize, _x: &[f64], out: &mut [f64]) {
            out.copy_from_slice(&self.row);
        }
    }

    #[test]
    fn steady_state_solves_the_euler_system() {
        // At x = x̄ with p_next = steady policies, the residuals must
        // vanish: the steady state is a recursive equilibrium of the
        // deterministic model.
        let model = OlgModel::new(Calibration::deterministic(8, 6));
        let x = model.steady.state_vector();
        let savings = model.steady.savings.clone();
        let mut oracle = SteadyOracle {
            row: model.steady.dof_row(),
        };
        let mut scratch = PointScratch::default();
        let mut out = vec![0.0; 7];
        model
            .euler_residuals(0, &x, &savings, &mut oracle, &mut scratch, &mut out)
            .unwrap();
        for (a, r) in out.iter().enumerate() {
            assert!(r.abs() < 1e-9, "Euler residual age {a}: {r}");
        }
    }

    #[test]
    fn steady_values_satisfy_bellman() {
        let model = OlgModel::new(Calibration::deterministic(8, 6));
        let x = model.steady.state_vector();
        let mut oracle = SteadyOracle {
            row: model.steady.dof_row(),
        };
        let mut scratch = PointScratch::default();
        let (values, consumption) = model.values_at(
            0,
            &x,
            &model.steady.savings.clone(),
            &mut oracle,
            &mut scratch,
        );
        for a in 0..values.len() {
            assert!(
                (values[a] - model.steady.values[a]).abs() < 1e-9,
                "value {a}: {} vs {}",
                values[a],
                model.steady.values[a]
            );
        }
        for a in 0..consumption.len() {
            assert!((consumption[a] - model.steady.consumption[a]).abs() < 1e-9);
        }
    }

    #[test]
    fn newton_recovers_steady_policies_from_perturbed_guess() {
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let x = model.steady.state_vector();
        let mut oracle = SteadyOracle {
            row: model.steady.dof_row(),
        };
        let mut scratch = PointScratch::default();
        let mut guess = model.steady.dof_row();
        for (k, g) in guess.iter_mut().enumerate() {
            *g *= 1.0 + 0.05 * ((k as f64).sin());
        }
        let solution = model
            .solve_point(
                0,
                &x,
                &guess,
                &mut oracle,
                &mut scratch,
                &NewtonOptions::default(),
            )
            .unwrap();
        for (a, s) in solution.savings.iter().enumerate() {
            assert!(
                (s - model.steady.savings[a]).abs() < 1e-6,
                "savings {a}: {s} vs {}",
                model.steady.savings[a]
            );
        }
    }

    #[test]
    fn state_transition_is_consistent() {
        // x' built from steady savings must reproduce the steady state.
        let model = OlgModel::new(Calibration::deterministic(8, 6));
        let mut x_next = Vec::new();
        model.next_state(&model.steady.savings, &mut x_next);
        let x_bar = model.steady.state_vector();
        for (t, (got, want)) in x_next.iter().zip(&x_bar).enumerate() {
            assert!((got - want).abs() < 1e-9, "dim {t}: {got} vs {want}");
        }
    }

    #[test]
    fn wealth_adding_up_constraint() {
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let x = model.steady.state_vector();
        let mut wealth = Vec::new();
        model.wealth_from_state(&x, &mut wealth);
        assert_eq!(wealth.len(), 6);
        assert_eq!(wealth[0], 0.0);
        let total: f64 = wealth.iter().sum();
        assert!((total - x[0]).abs() < 1e-12, "Σω = K");
        // Oldest cohort's wealth matches the steady path.
        assert!((wealth[5] - model.steady.assets[5]).abs() < 1e-9);
    }

    #[test]
    fn negative_capital_tomorrow_is_rejected() {
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let x = model.steady.state_vector();
        let savings = vec![-1.0; 5];
        let mut oracle = SteadyOracle {
            row: model.steady.dof_row(),
        };
        let mut scratch = PointScratch::default();
        let mut out = vec![0.0; 5];
        let err = model
            .euler_residuals(0, &x, &savings, &mut oracle, &mut scratch, &mut out)
            .unwrap_err();
        assert!(matches!(err, SolverError::Rejected(_)));
    }

    #[test]
    fn box_contains_steady_state() {
        let model = OlgModel::new(Calibration::small(8, 6, 2, 0.05));
        let x = model.steady.state_vector();
        for t in 0..model.dim() {
            assert!(
                model.lower[t] < x[t] && x[t] < model.upper[t],
                "dim {t}: {} not in [{}, {}]",
                x[t],
                model.lower[t],
                model.upper[t]
            );
        }
    }

    #[test]
    fn stochastic_point_solve_converges() {
        // Two-state economy, oracle = steady row (a consistent first
        // iterate of time iteration): Newton must converge at an off-center
        // point.
        let model = OlgModel::new(Calibration::small(6, 4, 2, 0.05));
        let mut x = model.steady.state_vector();
        for (t, v) in x.iter_mut().enumerate() {
            let span = model.upper[t] - model.lower[t];
            *v += 0.1 * span * if t % 2 == 0 { 1.0 } else { -1.0 };
        }
        let mut oracle = SteadyOracle {
            row: model.steady.dof_row(),
        };
        let mut scratch = PointScratch::default();
        let guess = model.steady.dof_row();
        for z in 0..2 {
            let solution = model
                .solve_point(
                    z,
                    &x,
                    &guess,
                    &mut oracle,
                    &mut scratch,
                    &NewtonOptions::default(),
                )
                .expect("point solve");
            assert!(solution.report.residual_norm < 1e-9);
            assert!(solution.consumption.iter().all(|&c| c > 0.0));
        }
    }
}
