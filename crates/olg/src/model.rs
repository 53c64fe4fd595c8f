//! The per-grid-point equilibrium system of the stochastic OLG model
//! (Sec. II-A): given `(z, x)` and next period's policy `p_next`, solve the
//! `A−1` Euler equations for today's savings vector and recover the value
//! functions — the function `f` of the functional equation (3).
//!
//! The unit of work is a **block of points**. [`OlgModel::solve_points`]
//! hands the points' Euler systems to the lockstep Newton
//! ([`hddm_solver::newton_rounds`]); each of its rounds arrives here as a
//! set of savings rows, each asking for its residuals, and a Jacobian row
//! (a point's start row, or a later refresh) for the Jacobian at that row
//! as well, and is evaluated in three passes: next states from the savings
//! rows, **one oracle call for all next discrete states** over all rows of
//! the round ([`PolicyOracle::eval_states_block`], every row's `pnext` and
//! the Jacobian rows' gradients together) — the interpolation of `pnext`
//! the paper's kernels exist for, "the policy functions of all the Ns
//! states at once", now dozens to hundreds of points wide — then the Euler
//! algebra row by row. A Jacobian is the exact Jacobian of the
//! interpolated system: the chain rule through `x' = (Σ s, s_1…s_{A−2})`,
//! the prices' `K'`-derivatives, the incomes, `u''` and `∇ₓ pnext` of the
//! `A−2` coefficients the algebra reads, one gradient row per next state
//! instead of `A−1` finite-difference rows; the same pass writes the row's
//! residuals, with the bits of a residual row's.
//!
//! A point is solved only as far as its time-iteration step needs: Newton
//! stops a system at `‖F‖_∞ ≤ τ = clamp(1e-2·‖F(x₀)‖_∞, 1e-9, 1e-4)`, 1 %
//! of the residual at its start `x₀` (inexact Newton: Dembo, Eisenstat and
//! Steihaug, 1982), never tighter than the solver's default 1e-9 and never
//! looser than 1e-4. A step moves the policy by far more than the digits a
//! 1e-9 solve buys, and the next step solves the point again from there.
//! `τ` depends on the start only, and the start on the policy, so a solve
//! is the same on any thread or rank count and after a checkpoint resume.
//!
//! What depends only on the
//! point (today's prices, wealth, incomes) is computed once per point
//! solve, what depends only on the calibration (`L`, `L^{1−θ}`) once per
//! model, and the `Ns` prices of a row (and their slopes) share its one
//! `K'^θ` — the only call into libm a row makes, and it is made in
//! `economy.rs`, where the transcendental budget is kept. Every row sees the arithmetic a lone
//! [`OlgModel::solve_point`] applies to it, so a point's solution does not
//! depend on its block; `solve_point`, [`OlgModel::euler_residuals`] and
//! [`OlgModel::values_at`] are the one-point and one-row cases of the same
//! code.

use std::ops::Range;

use crate::calibration::Calibration;
use crate::economy::{
    income, marginal_utility, marginal_utility_and_slope, utility, PriceBasis, Prices,
};
use crate::steady::{solve_steady_state, SteadyState};
use hddm_solver::{
    newton, newton_rounds, NewtonOptions, NewtonReport, NewtonWorkspace, Round, Rounds, SolverError,
};

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
    /// oracles evaluate the block in one walk. The point solver asks for
    /// all next states at once ([`Self::eval_states_block`]); this is the
    /// one-state form.
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

    /// `pnext` of all `ns` next discrete states at one block of
    /// `dim`-dimensional states `xs` (point-major `npts × dim`), the last
    /// `grads` of which also want the gradient of the coefficients
    /// `coeffs` with respect to the *physical* state. `values` is
    /// `ns × npts × ndofs`, one [`Self::eval_block`] block per state: every
    /// row is what `eval_block` writes, the gradient states' too. `gradient` is
    /// `ns × grads × dim × coeffs.len()`, state-major, then
    /// dimension-major per gradient state:
    /// `gradient[((z'·grads + g)·dim + t)·len + c] = ∂ coefficient
    /// (coeffs.start + c) of state z' / ∂ x_t` at gradient state `g`. A
    /// coordinate the domain clamp moves has derivative zero. `grads = 0`
    /// asks for values only.
    ///
    /// The provided implementation takes each state in turn: its
    /// `eval_block`, then forward differences over `eval_block` for the
    /// gradient states. Kernel-backed oracles prepare the block once and
    /// walk the states (and their gradient) together.
    #[allow(clippy::too_many_arguments)]
    fn eval_states_block(
        &mut self,
        ns: usize,
        dim: usize,
        xs: &[f64],
        grads: usize,
        coeffs: Range<usize>,
        values: &mut [f64],
        gradient: &mut [f64],
    ) {
        let npts = xs.len() / dim;
        if npts == 0 {
            return;
        }
        let (per_state, gradient_per_state) = (values.len() / ns, gradient.len() / ns);
        for z_next in 0..ns {
            forward_differences(
                self,
                z_next,
                dim,
                xs,
                grads,
                coeffs.clone(),
                &mut values[z_next * per_state..(z_next + 1) * per_state],
                &mut gradient[z_next * gradient_per_state..(z_next + 1) * gradient_per_state],
            );
        }
    }
}

/// One state's part of the provided [`PolicyOracle::eval_states_block`]:
/// `values` (`npts × ndofs`) from `eval_block`, and `gradient` (`grads ×
/// dim × coeffs.len()`) as forward differences over `eval_block` at the
/// last `grads` states.
#[allow(clippy::too_many_arguments)]
fn forward_differences<O: PolicyOracle + ?Sized>(
    oracle: &mut O,
    z_next: usize,
    dim: usize,
    xs: &[f64],
    grads: usize,
    coeffs: Range<usize>,
    values: &mut [f64],
    gradient: &mut [f64],
) {
    let npts = xs.len() / dim;
    let (ndofs, len) = (values.len() / npts, coeffs.len());
    // Every state's values: the answer for value states, the base of
    // the differences for gradient states.
    oracle.eval_block(z_next, dim, xs, values);
    if grads == 0 {
        return;
    }
    let from = npts - grads;
    let base = &values[from * ndofs..];
    let mut stepped = xs[from * dim..].to_vec();
    let mut at_step = vec![0.0; grads * ndofs];
    for t in 0..dim {
        for x in stepped.chunks_exact_mut(dim) {
            x[t] += FD_STEP * x[t].abs().max(1.0);
        }
        oracle.eval_block(z_next, dim, &stepped, &mut at_step);
        for (g, x) in stepped.chunks_exact_mut(dim).enumerate() {
            let x0 = xs[(from + g) * dim + t];
            let h = x[t] - x0; // the representable step
            x[t] = x0;
            let dt = &mut gradient[(g * dim + t) * len..][..len];
            let ahead = &at_step[g * ndofs + coeffs.start..g * ndofs + coeffs.end];
            let here = &base[g * ndofs + coeffs.start..g * ndofs + coeffs.end];
            for ((d, a), b) in dt.iter_mut().zip(ahead).zip(here) {
                *d = (a - b) / h;
            }
        }
    }
}

/// The relative step of the forward differences of the provided
/// [`PolicyOracle::eval_states_block`], `h_t = FD_STEP · max(|x_t|, 1)`.
const FD_STEP: f64 = 1e-7;

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
    /// Savings rows that asked for their residuals alone (line-search
    /// trials; a Jacobian row, every point's start row among them, is no
    /// residual row).
    pub residual_rows: u64,
    /// Jacobians of the systems that converged.
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

/// One round of residual rows and Jacobian rows.
#[derive(Clone, Debug, Default)]
struct RoundBuffers {
    /// Residual rows whose next state exists (positive capital tomorrow).
    valid: Vec<usize>,
    /// Jacobian rows whose next state exists.
    jacobians: Vec<JacobianRow>,
    /// The next states of the round's one oracle call (`npts × d`):
    /// `valid`'s, then the Jacobian rows'.
    x_next: Vec<f64>,
    /// `pnext` there, one `npts × ndofs` block per next discrete state.
    policy_next: Vec<f64>,
    /// `∇ₓ pnext` of the coefficients the Euler algebra reads at the
    /// gradient states, one `jacobians × d × (A−2)` block per next
    /// discrete state.
    gradient_next: Vec<f64>,
    prices_next: Vec<Prices>,
    /// The `K'`-derivatives of `prices_next`.
    slopes_next: Vec<Prices>,
}

/// A Jacobian row of a round: its row and its slot in the round's
/// Jacobians.
#[derive(Clone, Copy, Debug)]
struct JacobianRow {
    row: usize,
    slot: usize,
}

/// Per point, the interpolated `pnext` rows (`Ns × ndofs`) of its last
/// evaluated row, and the savings they belong to. Newton's last row is
/// the point it accepted, so the value recursion at the solution finds its
/// rows here.
#[derive(Clone, Debug, Default)]
struct KeptRows {
    has: Vec<bool>,
    savings: Vec<f64>,
    policy: Vec<f64>,
}

impl KeptRows {
    /// Whether point `s`'s kept rows belong to exactly these savings
    /// (`n` of them).
    fn holds(&self, s: usize, savings: &[f64]) -> bool {
        let n = savings.len();
        self.has[s]
            && savings
                .iter()
                .zip(&self.savings[s * n..(s + 1) * n])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
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

/// `∇ₓ pnext` of the coefficients `1..A−1` at one next state, as laid out
/// in a buffer: the `d` partials of coefficient `a` in next discrete state
/// `z'` are `data[z' · stride + t · (A−2) + a − 1]`, `t = 0..d`.
#[derive(Clone, Copy)]
struct NextGradient<'a> {
    data: &'a [f64],
    stride: usize,
    len: usize,
}

impl NextGradient<'_> {
    #[inline]
    fn at(&self, z_next: usize, a: usize, t: usize) -> f64 {
        self.data[z_next * self.stride + t * self.len + a - 1]
    }
}

/// The Euler systems of one block as the [`Rounds`] of the lockstep
/// Newton: the round's residual rows and Jacobian rows share one oracle
/// call for all next discrete states, and a Jacobian is the exact Jacobian
/// of the interpolated system.
struct EulerRounds<'a> {
    model: &'a OlgModel,
    points: &'a PointContexts,
    oracle: &'a mut dyn PolicyOracle,
    round: &'a mut RoundBuffers,
    kept: &'a mut KeptRows,
    tally: &'a mut SolveTally,
}

impl Rounds for EulerRounds<'_> {
    fn round(&mut self, round: Round<'_>) {
        self.tally.residual_rows += (round.owners.len() - round.jacobian_rows.len()) as u64;
        let keep = Some(&mut *self.kept);
        self.model
            .residual_rows(self.points, round, &mut *self.oracle, self.round, keep);
    }

    fn tolerance(&self, start_residual: f64) -> f64 {
        point_tolerance(start_residual)
    }
}

/// The share of its start residual `‖F(x₀)‖_∞` at which the point solver
/// stops a system.
const START_SHARE: f64 = 1e-2;

/// The loosest tolerance the point solver stops a system at, whatever its
/// start residual.
const LOOSEST_TOLERANCE: f64 = 1e-4;

/// The inexact point solve's `τ` (see the module docs): [`START_SHARE`]
/// of the start residual, no tighter than the solver's default and no
/// looser than [`LOOSEST_TOLERANCE`].
fn point_tolerance(start_residual: f64) -> f64 {
    (START_SHARE * start_residual).clamp(newton::TOLERANCE, LOOSEST_TOLERANCE)
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
#[derive(Clone, Copy, Debug, PartialEq)]
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
    ///
    /// # Panics
    ///
    /// If the calibration is invalid or has no steady state; a calibration
    /// from outside the program goes through [`OlgModel::with_box`].
    pub fn new(cal: Calibration) -> Self {
        Self::with_box(cal, BoxPolicy::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds with an explicit box policy, or says why the calibration is
    /// invalid or has no steady state.
    pub fn with_box(cal: Calibration, policy: BoxPolicy) -> Result<Self, String> {
        cal.validate()?;
        let steady = solve_steady_state(&cal)?;
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
        Ok(OlgModel {
            basis: PriceBasis::new(&cal),
            cal,
            steady,
            lower,
            upper,
        })
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
    /// (`npts × d`): one oracle call for all `z'`, state `z'` written to
    /// `policy_next[z' · npts · ndofs ..]`.
    fn interpolate_next(
        &self,
        x_next: &[f64],
        oracle: &mut dyn PolicyOracle,
        policy_next: &mut Vec<f64>,
    ) {
        let (d, ns) = (self.dim(), self.num_states());
        policy_next.resize(ns * (x_next.len() / d) * self.ndofs(), 0.0);
        oracle.eval_states_block(ns, d, x_next, 0, 0..0, policy_next, &mut []);
    }

    /// One round: `round.rows` are savings vectors (`k × (A−1)`),
    /// `round.owners[i]` the point of `points` row `i` belongs to. Writes
    /// the relative residuals `1 − β·E[R̃'·u'(c'_{a+1})]/u'(c_a)` of every
    /// row into its row of `round.out` and, for every Jacobian row, their
    /// exact Jacobian too; or rejects a row when implied aggregate capital
    /// tomorrow is non-positive (prices undefined). Every point contributes
    /// at most one row. With `keep`, a point's rows of `pnext` are
    /// remembered at each row for the value recursion.
    fn residual_rows(
        &self,
        points: &PointContexts,
        round: Round<'_>,
        oracle: &mut dyn PolicyOracle,
        bufs: &mut RoundBuffers,
        keep: Option<&mut KeptRows>,
    ) {
        let Round {
            owners,
            rows,
            jacobian_rows,
            out,
            jacobians,
            rejected,
        } = round;
        let cal = &self.cal;
        let a_max = cal.lifespan;
        let n = a_max - 1;
        let d = self.dim();
        let ndofs = self.ndofs();
        let ns = cal.num_states();

        // What every row needs of the walk.
        bufs.valid.clear();
        bufs.jacobians.clear();
        let mut requests = jacobian_rows.iter().enumerate().peekable();
        for (r, savings) in rows.chunks_exact(n).enumerate() {
            let request = requests.next_if(|&(_, &row)| row == r);
            let k_next: f64 = savings.iter().sum();
            if k_next <= 1e-9 {
                rejected[r] = Some(SolverError::Rejected(format!(
                    "non-positive aggregate capital tomorrow: {k_next}"
                )));
                continue;
            }
            match request {
                Some((slot, _)) => bufs.jacobians.push(JacobianRow { row: r, slot }),
                None => bufs.valid.push(r),
            }
        }
        let value_states = bufs.valid.len();
        let npts = value_states + bufs.jacobians.len();
        // The rows in walk order: the residual rows, then the Jacobian rows.
        let (valid, requested) = (&bufs.valid, &bufs.jacobians);
        let walked = || valid.iter().copied().chain(requested.iter().map(|j| j.row));
        bufs.x_next.clear();
        for r in walked() {
            self.extend_next_state(&rows[r * n..(r + 1) * n], &mut bufs.x_next);
        }

        // The interpolation: one oracle call for every next discrete
        // state, the round's value and gradient states together.
        let len = a_max - 2;
        let grads = bufs.jacobians.len();
        bufs.policy_next.resize(ns * npts * ndofs, 0.0);
        bufs.gradient_next.resize(ns * grads * d * len, 0.0);
        oracle.eval_states_block(
            ns,
            d,
            &bufs.x_next,
            grads,
            1..a_max - 1,
            &mut bufs.policy_next,
            &mut bufs.gradient_next,
        );
        let values_at = |state: usize| NextPolicy {
            data: &bufs.policy_next[state * ndofs..],
            stride: npts * ndofs,
        };

        // Euler algebra, row by row.
        for (i, &r) in bufs.valid.iter().enumerate() {
            let owner = owners[r];
            let at_k_next = self.basis.at(cal, bufs.x_next[i * d]);
            bufs.prices_next.clear();
            bufs.prices_next
                .extend((0..ns).map(|z_next| at_k_next.prices(z_next)));
            self.euler_row(
                points.z[owner],
                &points.resources[owner * a_max..(owner + 1) * a_max],
                &rows[r * n..(r + 1) * n],
                &bufs.prices_next,
                values_at(i),
                &mut out[r * n..(r + 1) * n],
            );
        }
        for (g, j) in bufs.jacobians.iter().enumerate() {
            let owner = owners[j.row];
            let at_k_next = self.basis.at(cal, bufs.x_next[(value_states + g) * d]);
            bufs.prices_next.clear();
            bufs.slopes_next.clear();
            for z_next in 0..ns {
                let p = at_k_next.prices(z_next);
                bufs.slopes_next.push(at_k_next.slopes(z_next, &p));
                bufs.prices_next.push(p);
            }
            let gradient = NextGradient {
                data: &bufs.gradient_next[g * d * len..],
                stride: grads * d * len,
                len,
            };
            self.euler_jacobian(
                points.z[owner],
                &points.resources[owner * a_max..(owner + 1) * a_max],
                &rows[j.row * n..(j.row + 1) * n],
                &bufs.prices_next,
                &bufs.slopes_next,
                values_at(value_states + g),
                gradient,
                &mut out[j.row * n..(j.row + 1) * n],
                &mut jacobians[j.slot * n * n..(j.slot + 1) * n * n],
            );
        }

        // Each point's `pnext` at the row it just evaluated.
        let Some(kept) = keep else {
            return;
        };
        for (i, r) in walked().enumerate() {
            let owner = owners[r];
            kept.has[owner] = true;
            kept.savings[owner * n..(owner + 1) * n].copy_from_slice(&rows[r * n..(r + 1) * n]);
            let next = values_at(i);
            let slot = &mut kept.policy[owner * ns * ndofs..(owner + 1) * ns * ndofs];
            for (z_next, row) in slot.chunks_exact_mut(ndofs).enumerate() {
                row.copy_from_slice(&next.data[z_next * next.stride..][..ndofs]);
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

    /// The Jacobian `J[a][b] = ∂F_a/∂s_b` of [`Self::euler_row`]'s
    /// residuals at one savings row, given `pnext`, its gradient and the
    /// prices with their `K'`-derivatives (`slopes_next`) at the row's next
    /// state — the chain rule through `x' = (Σ s, s_1…s_{A−2})`, the
    /// prices, the incomes, `u''` and `∇ₓ pnext` — and the residuals
    /// themselves in `out`, bit for bit `euler_row`'s: `E_a` and `u'(c_a)`
    /// are the same sums and calls. With `E_a` the
    /// expectation and `c'` tomorrow's consumption in `z'`,
    /// `∂F_a/∂s_b = −β/u'(c_a) · (∂E_a/∂s_b + [a = b]·E_a·u''(c_a)/u'(c_a))`
    /// and `∂E_a/∂s_b = Σ π (dR̃·u'(c') + R̃·u''(c')·∂c'/∂s_b)`, where
    /// `∂c'/∂s_b = dR̃·s_a + d income − ∂ŝ'/∂K' + [a = b]·R̃ − ∂ŝ'/∂s_b`.
    #[allow(clippy::too_many_arguments)]
    fn euler_jacobian(
        &self,
        z: usize,
        resources: &[f64],
        savings: &[f64],
        prices_next: &[Prices],
        slopes_next: &[Prices],
        next: NextPolicy<'_>,
        gradient: NextGradient<'_>,
        out: &mut [f64],
        jac: &mut [f64],
    ) {
        let cal = &self.cal;
        let a_max = cal.lifespan;
        let d = self.dim();
        let transition = cal.chain.row(z);
        for (a, row) in (1..a_max).zip(jac.chunks_exact_mut(a_max - 1)) {
            let s_a = savings[a - 1];
            let (mu, dmu) = marginal_utility_and_slope(cal.gamma, resources[a - 1] - s_a);
            // `common`: the part of `∂E_a/∂s_b` every `b` shares (through
            // `K'`); `own`: the `b = a` part; `row[b − 1]` gathers the rest.
            let (mut expectation, mut common, mut own) = (0.0, 0.0, 0.0);
            row.fill(0.0);
            let interior = a + 1 < a_max; // the oldest generation saves nothing
            for (z_next, (pn, dp)) in prices_next.iter().zip(slopes_next).enumerate() {
                let pi = transition[z_next];
                if pi == 0.0 {
                    continue;
                }
                let (s_next, ds_next_dk) = if interior {
                    (next.at(z_next, a), gradient.at(z_next, a, 0))
                } else {
                    (0.0, 0.0)
                };
                let c_tomorrow = pn.gross_return * s_a + income(cal, z_next, pn, a + 1) - s_next;
                let (mu_next, dmu_next) = marginal_utility_and_slope(cal.gamma, c_tomorrow);
                expectation += pi * pn.gross_return * mu_next;
                let weight = pi * pn.gross_return * dmu_next;
                let dc_dk = dp.gross_return * s_a + income(cal, z_next, dp, a + 1) - ds_next_dk;
                common += pi * dp.gross_return * mu_next + weight * dc_dk;
                own += weight * pn.gross_return;
                if interior {
                    for t in 1..d {
                        row[t - 1] -= weight * gradient.at(z_next, a, t);
                    }
                }
            }
            out[a - 1] = 1.0 - cal.beta * expectation / mu;
            let scale = -cal.beta / mu;
            for v in row.iter_mut() {
                *v = scale * (common + *v);
            }
            row[a - 1] += scale * (own + expectation * dmu / mu);
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
        let rows = Round {
            owners: &points.identity,
            rows: savings,
            jacobian_rows: &[],
            out,
            jacobians: &mut [],
            rejected,
        };
        self.residual_rows(points, rows, oracle, round, None);
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
        let mut rounds = EulerRounds {
            model: self,
            points,
            oracle: &mut *oracle,
            round,
            kept,
            tally,
        };
        let reports = newton_rounds(n, savings, options, newton, &mut rounds);

        for (s, (report, row)) in reports.iter().zip(rows.chunks_exact_mut(ndofs)).enumerate() {
            let Ok(report) = report else { continue };
            tally.jacobians += report.jacobian_evals as u64;
            tally.newton_iterations += report.iterations as u64;
            let savings = &savings[s * n..(s + 1) * n];
            let next = if kept.holds(s, savings) {
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
    use hddm_solver::norm_inf;

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
        // Solved to the documented `τ` — 1 % of the start residual, here
        // the 1e-4 cap — which takes out all but a thousandth of the
        // guess's distance to the steady policies.
        let tau = start_tolerance(&model, 0, &x, &guess, &mut oracle);
        assert!(
            solution.report.residual_norm <= tau,
            "{:?}",
            solution.report
        );
        let distance = |savings: &[f64]| {
            let steady = savings.iter().zip(&model.steady.savings);
            norm_inf(&steady.map(|(s, s_bar)| s - s_bar).collect::<Vec<_>>())
        };
        let (start, end) = (distance(&guess[..model.dim()]), distance(&solution.savings));
        assert!(end <= 1e-3 * start, "{end:e} from {start:e}");
    }

    /// The point solver's `τ` for the system at `(z, x)` from `guess`:
    /// 1 % of its start residual, between 1e-9 and 1e-4.
    fn start_tolerance(
        model: &OlgModel,
        z: usize,
        x: &[f64],
        guess: &[f64],
        oracle: &mut dyn PolicyOracle,
    ) -> f64 {
        let mut start = vec![0.0; model.dim()];
        let savings = &guess[..model.dim()];
        model
            .euler_residuals(
                z,
                x,
                savings,
                oracle,
                &mut PointScratch::default(),
                &mut start,
            )
            .unwrap();
        point_tolerance(norm_inf(&start))
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

    /// A smooth, curved `pnext` of the state clamped into the model's box
    /// (as the kernel-backed oracle clamps): the steady row, tilted and
    /// bent. It implements `eval` only, so its gradient is the provided
    /// forward differences.
    struct Bent {
        row: Vec<f64>,
        center: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
    }

    impl Bent {
        fn new(model: &OlgModel) -> Self {
            Bent {
                row: model.steady.dof_row(),
                center: model.steady.state_vector(),
                lower: model.lower.clone(),
                upper: model.upper.clone(),
            }
        }

        /// `(1 + Σ_t w_t·u_t + Σ_t u_t²/2, ∂/∂x_t)` at the clamped state,
        /// `u_t = (x_t − center_t)/10`; the partial is 0 where the clamp
        /// moved `x_t`.
        fn shape(&self, x: &[f64]) -> (f64, Vec<f64>) {
            let (mut level, mut partials) = (1.0, Vec::with_capacity(x.len()));
            for t in 0..x.len() {
                let clamped = x[t].clamp(self.lower[t], self.upper[t]);
                let u = (clamped - self.center[t]) / 10.0;
                let w = 0.2 + 0.1 * t as f64;
                level += w * u + 0.5 * u * u;
                let inside = clamped == x[t];
                partials.push(if inside { (w + u) / 10.0 } else { 0.0 });
            }
            (level, partials)
        }
    }

    impl PolicyOracle for Bent {
        fn eval(&mut self, z: usize, x: &[f64], out: &mut [f64]) {
            let (level, _) = self.shape(x);
            for (o, r) in out.iter_mut().zip(&self.row) {
                *o = r * level + 0.001 * z as f64;
            }
        }
    }

    /// [`Bent`] with its closed-form gradient.
    struct ExactBent(Bent);

    impl PolicyOracle for ExactBent {
        fn eval(&mut self, z: usize, x: &[f64], out: &mut [f64]) {
            self.0.eval(z, x, out)
        }

        fn eval_states_block(
            &mut self,
            ns: usize,
            dim: usize,
            xs: &[f64],
            grads: usize,
            coeffs: Range<usize>,
            values: &mut [f64],
            gradient: &mut [f64],
        ) {
            for (z_next, values) in values.chunks_exact_mut(values.len() / ns).enumerate() {
                self.eval_block(z_next, dim, xs, values);
            }
            // The gradient is every state's.
            let from = xs.len() / dim - grads;
            let states = std::iter::repeat_n(&xs[from * dim..], ns);
            let at = states.flat_map(|xs| xs.chunks_exact(dim));
            for (x, out) in at.zip(gradient.chunks_exact_mut(dim * coeffs.len())) {
                let (_, partials) = self.0.shape(x);
                for (dt, p) in out.chunks_exact_mut(coeffs.len()).zip(&partials) {
                    for (d, r) in dt.iter_mut().zip(&self.0.row[coeffs.clone()]) {
                        *d = r * p;
                    }
                }
            }
        }
    }

    /// The residuals and the Jacobian of one savings row at `(z, x)`
    /// through the round entry, as one Jacobian row, keeping its `pnext`
    /// when `keep`.
    fn jacobian_row_at(
        model: &OlgModel,
        z: usize,
        x: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        keep: bool,
    ) -> Result<(Vec<f64>, Vec<f64>), SolverError> {
        let n = savings.len();
        let PointScratch {
            points,
            round,
            kept,
            ..
        } = scratch;
        model.set_contexts(points, |_| z, x);
        let (mut out, mut jac, mut rejected) = (vec![0.0; n], vec![0.0; n * n], [None]);
        let rows = Round {
            owners: &[0],
            rows: savings,
            jacobian_rows: &[0],
            out: &mut out,
            jacobians: &mut jac,
            rejected: &mut rejected,
        };
        model.residual_rows(points, rows, oracle, round, keep.then_some(kept));
        let [rejected] = rejected;
        rejected.map_or(Ok((out, jac)), Err)
    }

    /// The Jacobian of one savings row at `(z, x)` (no kept rows).
    fn jacobian_at(
        model: &OlgModel,
        z: usize,
        x: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
    ) -> Result<Vec<f64>, SolverError> {
        jacobian_row_at(model, z, x, savings, oracle, scratch, false).map(|(_, jac)| jac)
    }

    /// `J[a][b]` against forward differences of the residuals in `s_b`.
    fn assert_jacobian_is_the_difference_quotient(
        model: &OlgModel,
        z: usize,
        x: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        case: &str,
    ) {
        let n = savings.len();
        let mut scratch = PointScratch::default();
        let jac = jacobian_at(model, z, x, savings, oracle, &mut scratch).unwrap();
        let (mut base, mut ahead) = (vec![0.0; n], vec![0.0; n]);
        model
            .euler_residuals(z, x, savings, oracle, &mut scratch, &mut base)
            .unwrap();
        for b in 0..n {
            let mut stepped = savings.to_vec();
            stepped[b] += 1e-7 * savings[b].abs().max(1.0);
            let h = stepped[b] - savings[b];
            model
                .euler_residuals(z, x, &stepped, oracle, &mut scratch, &mut ahead)
                .unwrap();
            for a in 0..n {
                let fd = (ahead[a] - base[a]) / h;
                let got = jac[a * n + b];
                assert!(
                    (got - fd).abs() <= 1e-5 * (1.0 + fd.abs()),
                    "{case}: ∂F_{a}/∂s_{b} {got} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn the_euler_jacobian_is_the_difference_quotient_of_the_residuals() {
        for gamma in [1.0, 2.0, 2.5, 3.0] {
            let model = OlgModel::new(Calibration {
                gamma,
                ..Calibration::small(6, 4, 2, 0.05)
            });
            let n = model.dim();
            let mut x = model.steady.state_vector();
            for (t, v) in x.iter_mut().enumerate() {
                *v += 0.1 * (model.upper[t] - model.lower[t]) * if t % 2 == 0 { 1.0 } else { -1.0 };
            }
            let steady = &model.steady.savings;
            let interior: Vec<f64> = (0..n)
                .map(|a| steady[a] * (1.0 + 0.03 * a as f64))
                .collect();
            // Today's consumption at age 1 below the floor in every state.
            let mut points = PointContexts::default();
            let mut starving = interior.clone();
            for z in 0..model.num_states() {
                model.set_contexts(&mut points, |_| z, &x);
                starving[0] = starving[0].max(points.resources[0] + 0.05);
            }
            // Tomorrow's state above the box in every coordinate.
            let outside: Vec<f64> = steady.iter().map(|s| 1.9 * s + 0.05).collect();
            let mut next = Vec::new();
            model.next_state(&outside, &mut next);
            assert!(next.iter().zip(&model.upper).all(|(x, hi)| x > hi));
            for (case, savings) in [
                ("interior", &interior),
                ("below the floor", &starving),
                ("outside the box", &outside),
            ] {
                for z in 0..model.num_states() {
                    let case = format!("γ = {gamma}, z = {z}, {case}");
                    let mut bent = Bent::new(&model);
                    assert_jacobian_is_the_difference_quotient(
                        &model,
                        z,
                        &x,
                        savings,
                        &mut bent,
                        &format!("{case}, differenced ∇pnext"),
                    );
                    let mut exact = ExactBent(Bent::new(&model));
                    assert_jacobian_is_the_difference_quotient(
                        &model,
                        z,
                        &x,
                        savings,
                        &mut exact,
                        &format!("{case}, exact ∇pnext"),
                    );
                }
            }
        }
    }

    /// A Jacobian row reads the walk's own `pnext`: rows kept from an
    /// earlier residual round at the same savings change none of its
    /// bits, and the row keeps its own `pnext` for the value recursion.
    #[test]
    fn a_kept_row_gives_the_jacobian_an_interpolation_would() {
        let model = OlgModel::new(Calibration::small(6, 4, 2, 0.05));
        let x = model.steady.state_vector();
        let savings: Vec<f64> = model.steady.savings.iter().map(|s| s * 1.02).collect();
        let mut oracle = ExactBent(Bent::new(&model));
        let mut scratch = PointScratch::default();
        let interpolated = jacobian_at(&model, 0, &x, &savings, &mut oracle, &mut scratch);
        // A residual round with kept rows, then the Jacobian row.
        let (n, ns, ndofs) = (model.dim(), model.num_states(), model.ndofs());
        let PointScratch {
            points,
            round,
            kept,
            ..
        } = &mut scratch;
        kept.has = vec![false];
        kept.savings = vec![0.0; n];
        kept.policy = vec![0.0; ns * ndofs];
        let (mut out, mut rejected) = (vec![0.0; n], [None]);
        let rows = Round {
            owners: &[0],
            rows: &savings,
            jacobian_rows: &[],
            out: &mut out,
            jacobians: &mut [],
            rejected: &mut rejected,
        };
        model.residual_rows(points, rows, &mut oracle, round, Some(kept));
        assert!(kept.holds(0, &savings));
        let residual_kept = kept.policy.clone();
        kept.has[0] = false;
        let from_kept = jacobian_row_at(&model, 0, &x, &savings, &mut oracle, &mut scratch, true);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (_, from_kept) = from_kept.unwrap();
        assert_eq!(bits(&from_kept), bits(&interpolated.unwrap()));
        assert!(scratch.kept.holds(0, &savings));
        assert_eq!(bits(&scratch.kept.policy), bits(&residual_kept));
    }

    /// A Jacobian row's residuals are a residual row's, bit for bit: the
    /// start row of a point solve carries the residuals Newton tests, and
    /// they must be the ones a residual round gives. Inside the box, below
    /// the consumption floor and outside the box, in every exponent class.
    #[test]
    fn a_jacobian_rows_residuals_are_the_residual_rows_bits() {
        for gamma in [1.0, 2.0, 2.5, 3.0] {
            let model = OlgModel::new(Calibration {
                gamma,
                ..Calibration::small(6, 4, 2, 0.05)
            });
            let x = model.steady.state_vector();
            let n = model.dim();
            let steady = &model.steady.savings;
            let interior: Vec<f64> = steady.iter().map(|s| s * 1.02).collect();
            let mut starving = interior.clone();
            let mut points = PointContexts::default();
            model.set_contexts(&mut points, |_| 1, &x);
            starving[0] = points.resources[0] + 0.05;
            let outside: Vec<f64> = steady.iter().map(|s| 1.9 * s + 0.05).collect();
            for (case, savings) in [
                ("interior", &interior),
                ("below the floor", &starving),
                ("outside the box", &outside),
            ] {
                for z in 0..model.num_states() {
                    let at = format!("γ = {gamma}, z = {z}, {case}");
                    let mut scratch = PointScratch::default();
                    let mut residual = vec![0.0; n];
                    let mut oracle = ExactBent(Bent::new(&model));
                    model
                        .euler_residuals(z, &x, savings, &mut oracle, &mut scratch, &mut residual)
                        .unwrap();
                    let (fused, _) =
                        jacobian_row_at(&model, z, &x, savings, &mut oracle, &mut scratch, false)
                            .unwrap();
                    let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fused), bits(&residual), "{at}");
                }
            }
        }
    }

    #[test]
    fn stochastic_point_solve_converges() {
        // Two-state economy, oracle = steady row (a consistent first
        // iterate of time iteration): Newton must converge at an off-center
        // point, to the documented `τ` of its start.
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
            let tau = start_tolerance(&model, z, &x, &guess, &mut oracle);
            assert!(
                solution.report.residual_norm <= tau,
                "{:?}",
                solution.report
            );
            assert!(solution.consumption.iter().all(|&c| c > 0.0));
        }
    }
}
