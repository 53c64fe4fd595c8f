//! The per-grid-point equilibrium system of the stochastic OLG model
//! (Sec. II-A): given `(z, x)` and next period's policy `p_next`, solve the
//! `A−1` Euler equations for today's savings vector and recover the value
//! functions — the function `f` of the functional equation (3).
//!
//! The unit of work is a **block of points**. [`OlgModel::solve_points`]
//! hands the points' Euler systems to the lockstep Newton
//! ([`hddm_solver::newton_rounds`]); each of its rounds arrives here as a
//! set of savings rows, each asking for its residuals or for the
//! Jacobian at that row, and is evaluated in three passes: next states
//! from the savings rows, **one walk per next discrete state** over all
//! rows of the round — the interpolation of `pnext` the paper's kernels
//! exist for, now dozens to hundreds of points wide
//! ([`PolicyOracle::eval_block`], or [`PolicyOracle::eval_block_gradient`]
//! when the round holds Jacobian rows) — then the Euler algebra row by
//! row. A Jacobian is the exact Jacobian of the interpolated system: the
//! chain rule through `x' = (Σ s, s_1…s_{A−2})`, the prices'
//! `K'`-derivatives, the incomes, `u''` and `∇ₓ pnext` of the `A−2`
//! coefficients the algebra reads, one gradient row per next state
//! instead of `A−1` finite-difference rows; its `pnext` is the row the
//! point's last residual row kept. What depends only on the point (today's
//! prices, wealth, incomes) is computed once per point solve, what depends
//! only on the calibration (`L`, `L^{1−θ}`) once per model, and the `Ns`
//! prices of a row (and their slopes) share its one `K'^θ` — the only call
//! into libm a row makes, and it is made in `economy.rs`, where the
//! transcendental budget is kept. Every row sees the arithmetic a lone
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
    newton_rounds, NewtonOptions, NewtonReport, NewtonWorkspace, Round, Rounds, SolverError,
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

    /// [`Self::eval_block`] whose last `grads` states want, instead of
    /// their value row, the gradient of the coefficients `coeffs` with
    /// respect to the *physical* state. `values` is `npts × ndofs` and its
    /// first `npts − grads` rows are what `eval_block` writes (the rows of
    /// gradient states are left unspecified); `gradient` is `grads × dim ×
    /// coeffs.len()`, dimension-major per state:
    /// `gradient[(g·dim + t)·len + c] = ∂ coefficient (coeffs.start + c) /
    /// ∂ x_t` at gradient state `g`. A coordinate the domain clamp moves
    /// has derivative zero.
    ///
    /// The provided implementation takes forward differences over
    /// `eval_block`, with the step of a finite-difference Newton column;
    /// kernel-backed oracles walk the gradient.
    #[allow(clippy::too_many_arguments)]
    fn eval_block_gradient(
        &mut self,
        z_next: usize,
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
        let (ndofs, len) = (values.len() / npts, coeffs.len());
        // Every state's values: the answer for value states, the base of
        // the differences for gradient states.
        self.eval_block(z_next, dim, xs, values);
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
            self.eval_block(z_next, dim, &stepped, &mut at_step);
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
}

/// The relative step of [`PolicyOracle::eval_block_gradient`]'s forward
/// differences: [`NewtonOptions`]' default `fd_step`.
const FD_STEP: f64 = 1e-7;

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
    /// Savings rows whose residuals the rounds were asked to evaluate
    /// (initial guesses and line-search trials; a Jacobian is no residual
    /// row).
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

/// One round of residual rows and Jacobian requests.
#[derive(Clone, Debug, Default)]
struct RoundBuffers {
    /// Residual rows whose next state exists (positive capital tomorrow).
    valid: Vec<usize>,
    /// Jacobian requests whose next state exists.
    jacobians: Vec<JacobianRow>,
    /// The next states of one walk per next discrete state (`npts × d`):
    /// `valid`'s, then those of the Jacobian rows whose `pnext`
    /// [`KeptRows`] does not hold, then every Jacobian row's.
    x_next: Vec<f64>,
    /// `pnext` there, one `npts × ndofs` block per next discrete state
    /// (the rows of the gradient states are not `pnext`).
    policy_next: Vec<f64>,
    /// `∇ₓ pnext` of the coefficients the Euler algebra reads at the
    /// gradient states, one `jacobians × d × (A−2)` block per next
    /// discrete state.
    gradient_next: Vec<f64>,
    prices_next: Vec<Prices>,
    /// The `K'`-derivatives of `prices_next`.
    slopes_next: Vec<Prices>,
}

/// A Jacobian request of a round: its row, its slot in the round's
/// Jacobians and, when [`KeptRows`] does not hold its `pnext`, the value
/// state that interpolates it.
#[derive(Clone, Copy, Debug)]
struct JacobianRow {
    row: usize,
    slot: usize,
    values: Option<usize>,
}

/// Per point, the interpolated `pnext` rows (`Ns × ndofs`) of its last
/// residual row, and the savings they belong to. Newton's last residual
/// row is the point it accepted, so the value recursion at the solution
/// finds its rows here, and so, usually, does a Jacobian at the current
/// iterate.
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
/// Newton: the round's residual rows and Jacobian requests share one walk
/// per next discrete state, and a Jacobian is the exact Jacobian of the
/// interpolated system.
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

    fn supplies_jacobians(&self) -> bool {
        true
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

    /// One round: `round.rows` are savings vectors (`k × (A−1)`),
    /// `round.owners[i]` the point of `points` row `i` belongs to. Writes
    /// the relative residuals `1 − β·E[R̃'·u'(c'_{a+1})]/u'(c_a)` of every
    /// residual row into its row of `round.out` and, for every Jacobian
    /// row, their exact Jacobian with `pnext` interpolated; or rejects a
    /// row when implied aggregate capital tomorrow is non-positive (prices
    /// undefined). Every point contributes at most one row. With `keep`,
    /// a point's rows of `pnext` are remembered at each residual row, and
    /// a Jacobian at the savings they belong to reads them instead of
    /// interpolating them again.
    fn residual_rows(
        &self,
        points: &PointContexts,
        round: Round<'_>,
        oracle: &mut dyn PolicyOracle,
        bufs: &mut RoundBuffers,
        mut keep: Option<&mut KeptRows>,
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
        let mut misses = 0;
        for (r, savings) in rows.chunks_exact(n).enumerate() {
            let request = requests.next_if(|&(_, &row)| row == r);
            let k_next: f64 = savings.iter().sum();
            if k_next <= 1e-9 {
                rejected[r] = Some(SolverError::Rejected(format!(
                    "non-positive aggregate capital tomorrow: {k_next}"
                )));
                continue;
            }
            let Some((slot, _)) = request else {
                bufs.valid.push(r);
                continue;
            };
            let kept = keep
                .as_deref()
                .is_some_and(|kept| kept.holds(owners[r], savings));
            let values = (!kept).then(|| {
                misses += 1;
                misses - 1
            });
            bufs.jacobians.push(JacobianRow {
                row: r,
                slot,
                values,
            });
        }
        let first_miss = bufs.valid.len();
        let value_states = first_miss + misses;
        let npts = value_states + bufs.jacobians.len();
        bufs.x_next.clear();
        let missed = bufs.jacobians.iter().filter(|j| j.values.is_some());
        let value_rows = bufs.valid.iter().copied().chain(missed.map(|j| j.row));
        for r in value_rows.chain(bufs.jacobians.iter().map(|j| j.row)) {
            self.extend_next_state(&rows[r * n..(r + 1) * n], &mut bufs.x_next);
        }

        // The interpolation: one walk per next discrete state.
        let len = a_max - 2;
        let grads = bufs.jacobians.len();
        if grads == 0 {
            self.interpolate_next(&bufs.x_next, oracle, &mut bufs.policy_next);
        } else {
            bufs.policy_next.resize(ns * npts * ndofs, 0.0);
            bufs.gradient_next.resize(ns * grads * d * len, 0.0);
            for z_next in 0..ns {
                oracle.eval_block_gradient(
                    z_next,
                    d,
                    &bufs.x_next,
                    grads,
                    1..a_max - 1,
                    &mut bufs.policy_next[z_next * npts * ndofs..(z_next + 1) * npts * ndofs],
                    &mut bufs.gradient_next
                        [z_next * grads * d * len..(z_next + 1) * grads * d * len],
                );
            }
        }
        let values_at = |state: usize| NextPolicy {
            data: &bufs.policy_next[state * ndofs..],
            stride: npts * ndofs,
        };

        // Euler algebra, row by row.
        for (i, &r) in bufs.valid.iter().enumerate() {
            let savings = &rows[r * n..(r + 1) * n];
            let owner = owners[r];
            let at_k_next = self.basis.at(cal, bufs.x_next[i * d]);
            bufs.prices_next.clear();
            bufs.prices_next
                .extend((0..ns).map(|z_next| at_k_next.prices(z_next)));
            let next = values_at(i);
            self.euler_row(
                points.z[owner],
                &points.resources[owner * a_max..(owner + 1) * a_max],
                savings,
                &bufs.prices_next,
                next,
                &mut out[r * n..(r + 1) * n],
            );
            if let Some(kept) = keep.as_deref_mut() {
                kept.has[owner] = true;
                kept.savings[owner * n..(owner + 1) * n].copy_from_slice(savings);
                let slot = &mut kept.policy[owner * ns * ndofs..(owner + 1) * ns * ndofs];
                for (z_next, row) in slot.chunks_exact_mut(ndofs).enumerate() {
                    row.copy_from_slice(&next.data[z_next * next.stride..][..ndofs]);
                }
            }
        }
        for (g, j) in bufs.jacobians.iter().enumerate() {
            let savings = &rows[j.row * n..(j.row + 1) * n];
            let owner = owners[j.row];
            let at_k_next = self.basis.at(cal, bufs.x_next[(value_states + g) * d]);
            bufs.prices_next.clear();
            bufs.slopes_next.clear();
            for z_next in 0..ns {
                let p = at_k_next.prices(z_next);
                bufs.slopes_next.push(at_k_next.slopes(z_next, &p));
                bufs.prices_next.push(p);
            }
            let next = match j.values {
                Some(miss) => values_at(first_miss + miss),
                None => NextPolicy {
                    data: &keep.as_deref().expect("only a kept row is a hit").policy
                        [owner * ns * ndofs..],
                    stride: ndofs,
                },
            };
            let gradient = NextGradient {
                data: &bufs.gradient_next[g * d * len..],
                stride: grads * d * len,
                len,
            };
            self.euler_jacobian(
                points.z[owner],
                &points.resources[owner * a_max..(owner + 1) * a_max],
                savings,
                &bufs.prices_next,
                &bufs.slopes_next,
                next,
                gradient,
                &mut jacobians[j.slot * n * n..(j.slot + 1) * n * n],
            );
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
    /// prices, the incomes, `u''` and `∇ₓ pnext`. With `E_a` the
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

        fn eval_block_gradient(
            &mut self,
            z_next: usize,
            dim: usize,
            xs: &[f64],
            grads: usize,
            coeffs: Range<usize>,
            values: &mut [f64],
            gradient: &mut [f64],
        ) {
            self.eval_block(z_next, dim, xs, values);
            let from = xs.len() / dim - grads;
            let per_state = gradient.chunks_exact_mut(dim * coeffs.len());
            for (x, out) in xs[from * dim..].chunks_exact(dim).zip(per_state) {
                let (_, partials) = self.0.shape(x);
                for (dt, p) in out.chunks_exact_mut(coeffs.len()).zip(&partials) {
                    for (d, r) in dt.iter_mut().zip(&self.0.row[coeffs.clone()]) {
                        *d = r * p;
                    }
                }
            }
        }
    }

    /// The Jacobian of one savings row at `(z, x)` through the round entry,
    /// with `pnext` interpolated (no kept rows).
    fn jacobian_at(
        model: &OlgModel,
        z: usize,
        x: &[f64],
        savings: &[f64],
        oracle: &mut dyn PolicyOracle,
        scratch: &mut PointScratch,
        keep: bool,
    ) -> Result<Vec<f64>, SolverError> {
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
        rejected.map_or(Ok(jac), Err)
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
        let jac = jacobian_at(model, z, x, savings, oracle, &mut scratch, false).unwrap();
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

    /// A Jacobian at the savings of the point's last residual row reads
    /// the kept `pnext` instead of interpolating it: the same bits.
    #[test]
    fn a_kept_row_gives_the_jacobian_an_interpolation_would() {
        let model = OlgModel::new(Calibration::small(6, 4, 2, 0.05));
        let x = model.steady.state_vector();
        let savings: Vec<f64> = model.steady.savings.iter().map(|s| s * 1.02).collect();
        let mut oracle = ExactBent(Bent::new(&model));
        let mut scratch = PointScratch::default();
        let interpolated = jacobian_at(&model, 0, &x, &savings, &mut oracle, &mut scratch, false);
        // A residual round with kept rows, then the Jacobian reads them.
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
        let from_kept = jacobian_at(&model, 0, &x, &savings, &mut oracle, &mut scratch, true);
        let bits =
            |j: Result<Vec<f64>, _>| j.unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(from_kept), bits(interpolated));
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
