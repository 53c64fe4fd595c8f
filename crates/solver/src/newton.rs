//! Damped Newton with a caller-supplied or finite-difference Jacobian,
//! Armijo line search and optional Broyden rank-1 updates — the
//! square-system substitute for the Ipopt NLP solver the paper calls per
//! grid point (Sec. IV-A).
//!
//! The per-point equilibrium systems of the OLG model are smooth and
//! square (~59 equations in 59 unknowns), so a globalized Newton iteration
//! converges to the same roots an interior-point method finds, while
//! keeping the cost profile the paper optimizes for: the residual
//! evaluations (each of which interpolates all `Ns` next-period policies)
//! dominate everything else.
//!
//! There is one iteration body, [`newton_rounds`], and it advances `m`
//! independent systems in **rounds**: each round every unfinished system
//! contributes the evaluation it needs next — its initial residual, a
//! Jacobian, or one line-search trial — and one [`Rounds::round`] call
//! evaluates all of them. The caller can therefore turn the residual's
//! inner interpolation into one wide operation per round instead of one
//! call per point. A caller that [supplies
//! Jacobians](Rounds::supplies_jacobians) answers a Jacobian request with
//! one `n × n` matrix in the same call; for any other, a Jacobian is `n`
//! forward-difference residual rows. Each system walks exactly the
//! trajectory it walks alone (same evaluation points, same arithmetic,
//! same order), so results do not depend on which other systems share the
//! block. [`newton_block`] is the closure form of the finite-difference
//! caller and [`newton`] its `m = 1` case.

use crate::linalg::{lu_factor, lu_solve, matvec, norm2, norm_inf, rank1_update};
use crate::SolverError;

/// Newton solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct NewtonOptions {
    /// Convergence tolerance on `‖F‖_∞`.
    pub tolerance: f64,
    /// Maximum Newton iterations.
    pub max_iterations: usize,
    /// Relative finite-difference step for a Jacobian the caller does
    /// not supply.
    pub fd_step: f64,
    /// Armijo sufficient-decrease constant.
    pub armijo_c: f64,
    /// Backtracking factor.
    pub backtrack: f64,
    /// Smallest admissible step length before the search is declared
    /// stalled.
    pub min_step: f64,
    /// Recompute the Jacobian every `broyden_refresh` iterations; in
    /// between, apply Broyden rank-1 updates (1 = full Newton every
    /// iteration).
    pub broyden_refresh: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            tolerance: 1e-9,
            max_iterations: 60,
            fd_step: 1e-7,
            armijo_c: 1e-4,
            backtrack: 0.5,
            min_step: 1e-10,
            broyden_refresh: 5,
        }
    }
}

/// Convergence report.
#[derive(Clone, Copy, Debug, Default)]
pub struct NewtonReport {
    /// Newton iterations performed.
    pub iterations: usize,
    /// Final `‖F‖_∞`.
    pub residual_norm: f64,
    /// Residual evaluations (the interpolation-dominated cost the paper
    /// counts), a finite-difference Jacobian's `n` columns included.
    pub residual_evals: usize,
    /// Full Jacobians, supplied or by finite differences.
    pub jacobian_evals: usize,
}

/// One round of [`newton_rounds`]: every row an unfinished system needs
/// evaluated next. A system's rows are consecutive: one for an initial
/// residual, a Jacobian request or a line-search trial, or — when the
/// caller does not supply Jacobians — `n` forward-difference columns.
#[derive(Debug)]
pub struct Round<'a> {
    /// `owners[i]`: the system row `i` belongs to.
    pub owners: &'a [usize],
    /// `k × n` evaluation points, row-major.
    pub rows: &'a [f64],
    /// The rows, ascending, that ask for the Jacobian `∂F/∂x` at their
    /// point instead of the residual (always empty for a caller that does
    /// not supply Jacobians).
    pub jacobian_rows: &'a [usize],
    /// `k × n`: row `i` takes `F_{owners[i]}(rows[i])` for every row not
    /// in `jacobian_rows`.
    pub out: &'a mut [f64],
    /// One row-major `n × n` block per entry of `jacobian_rows`, in
    /// order: `J[a][b] = ∂F_a/∂x_b`.
    pub jacobians: &'a mut [f64],
    /// Row `i`'s point is rejected when set. A rejected trial shrinks the
    /// step; a rejected initial guess or Jacobian fails its system — the
    /// other systems of the block are not affected.
    pub rejected: &'a mut [Option<SolverError>],
}

/// The caller's side of [`newton_rounds`]: one call per round.
pub trait Rounds {
    /// Evaluates every row of `round`, or rejects it. Rows the call
    /// neither writes nor rejects keep stale values.
    fn round(&mut self, round: Round<'_>);

    /// Whether [`Self::round`] answers Jacobian requests. When it does
    /// not (the default), a Jacobian is `n` forward-difference residual
    /// rows `F(x + h_j e_j)` with `h_j = fd_step · max(|x_j|, 1)`.
    fn supplies_jacobians(&self) -> bool {
        false
    }
}

/// A residual closure `eval(owners, rows, out, rejected)` is a caller
/// whose Jacobians are finite differences.
impl<E> Rounds for E
where
    E: FnMut(&[usize], &[f64], &mut [f64], &mut [Option<SolverError>]),
{
    fn round(&mut self, round: Round<'_>) {
        self(round.owners, round.rows, round.out, round.rejected)
    }
}

/// What a system asks the next round to evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// `F(x)` at the initial guess.
    Initial,
    /// The Jacobian at `x`: one request, or the `n` forward-difference
    /// columns `F(x + h_j e_j)`.
    Jacobian,
    /// One line-search trial `F(x + α d)`.
    Trial,
    /// Finished; its outcome is recorded.
    Done,
}

/// Scalar state of one system between rounds (its vectors live in the
/// flat buffers of [`NewtonWorkspace`]).
#[derive(Clone, Copy, Debug)]
struct System {
    phase: Phase,
    /// The `iter` of `for iter in 0..max_iterations`.
    iter: usize,
    /// Accepted steps since the last Jacobian; `usize::MAX` forces one.
    since_refresh: usize,
    /// Whether `lu` holds a factorization.
    factored: bool,
    /// Current line-search step length.
    alpha: f64,
    /// Merit `½‖F(x)‖²` the line search compares against.
    merit0: f64,
    report: NewtonReport,
}

/// Buffers of [`newton_rounds`], reusable across calls: per-system vectors
/// and matrices in flat `m × n` / `m × n × n` arrays plus the row buffers
/// of a round. Capacity only grows, so a worker that keeps one workspace
/// allocates on its first (largest) block and never again.
#[derive(Clone, Debug, Default)]
pub struct NewtonWorkspace {
    systems: Vec<System>,
    fx: Vec<f64>,
    step: Vec<f64>,
    jac: Vec<f64>,
    lu: Vec<f64>,
    pivots: Vec<u32>,
    // Broyden temporaries (`n` each).
    dx: Vec<f64>,
    b_dx: Vec<f64>,
    // One round: the system each row belongs to, the evaluation points,
    // the rows that request a supplied Jacobian, the residual rows, the
    // supplied Jacobians and the per-row rejections.
    owners: Vec<usize>,
    rows: Vec<f64>,
    jacobian_rows: Vec<usize>,
    out: Vec<f64>,
    jacobians: Vec<f64>,
    rejected: Vec<Option<SolverError>>,
}

impl NewtonWorkspace {
    /// Sizes the per-system buffers for `m` systems of `n` unknowns, all
    /// about to evaluate their initial guess.
    fn reset(&mut self, m: usize, n: usize) {
        self.systems.clear();
        self.systems.resize(
            m,
            System {
                phase: Phase::Initial,
                iter: 0,
                since_refresh: usize::MAX, // force a Jacobian on the first iteration
                factored: false,
                alpha: 1.0,
                merit0: 0.0,
                report: NewtonReport::default(),
            },
        );
        self.fx.resize(m * n, 0.0);
        self.step.resize(m * n, 0.0);
        self.jac.resize(m * n * n, 0.0);
        self.lu.resize(m * n * n, 0.0);
        self.pivots.resize(m * n, 0);
        self.dx.resize(n, 0.0);
        self.b_dx.resize(n, 0.0);
    }

    /// Consumes the rows the last round evaluated for system `s`, which
    /// start at row `r`, then runs the system on until it needs another
    /// evaluation (`None`) or finishes (`Some`). `x` is the system's
    /// current iterate; `slot` is the index of its Jacobian in the round's
    /// supplied Jacobians, if it requested one.
    fn consume(
        &mut self,
        s: usize,
        r: usize,
        slot: Option<usize>,
        x: &mut [f64],
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        let n = x.len();
        let sys = &mut self.systems[s];
        let fx = &mut self.fx[s * n..(s + 1) * n];
        match sys.phase {
            Phase::Initial => {
                if let Some(error) = self.rejected[r].take() {
                    return Some(Err(error));
                }
                fx.copy_from_slice(&self.out[r * n..(r + 1) * n]);
                sys.report.residual_evals += 1;
            }
            Phase::Jacobian => {
                let jac = &mut self.jac[s * n * n..(s + 1) * n * n];
                if let Some(slot) = slot {
                    if let Some(error) = self.rejected[r].take() {
                        return Some(Err(error));
                    }
                    jac.copy_from_slice(&self.jacobians[slot * n * n..(slot + 1) * n * n]);
                } else {
                    // A rejected column fails the system with the first
                    // rejected column's error.
                    if let Some(error) = self.rejected[r..r + n].iter_mut().find_map(Option::take) {
                        return Some(Err(error));
                    }
                    // Forward differences: `J[:,j] = (F(x + h_j e_j) − F(x)) / h_j`.
                    for j in 0..n {
                        let at = (r + j) * n;
                        let h_actual = self.rows[at + j] - x[j]; // exact representable step
                        for i in 0..n {
                            jac[i * n + j] = (self.out[at + i] - fx[i]) / h_actual;
                        }
                    }
                    sys.report.residual_evals += n;
                }
                sys.report.jacobian_evals += 1;
                sys.since_refresh = 0;
                let lu = &mut self.lu[s * n * n..(s + 1) * n * n];
                lu.copy_from_slice(jac);
                if let Err(error) = lu_factor(lu, &mut self.pivots[s * n..(s + 1) * n]) {
                    return Some(Err(error));
                }
                sys.factored = true;
                return self.search(s, n, opts);
            }
            Phase::Trial => {
                let f_trial = &self.out[r * n..(r + 1) * n];
                // A point rejected by the model (e.g. negative
                // consumption) shrinks the step like a failed merit test.
                let accepted = self.rejected[r].take().is_none() && {
                    sys.report.residual_evals += 1;
                    let merit = 0.5 * norm2(f_trial).powi(2);
                    merit <= sys.merit0 * (1.0 - 2.0 * opts.armijo_c * sys.alpha)
                        || merit < sys.merit0 * 1e-8
                };
                if !accepted {
                    sys.alpha *= opts.backtrack;
                    return self.next_trial(s, n, opts);
                }

                // Broyden update B += ((Δf − B·Δx) Δxᵀ)/(Δxᵀ·Δx); Δx = α·d.
                let jac = &mut self.jac[s * n * n..(s + 1) * n * n];
                let step = &self.step[s * n..(s + 1) * n];
                for (dx, d) in self.dx.iter_mut().zip(step) {
                    *dx = d * sys.alpha;
                }
                matvec(jac, &self.dx, &mut self.b_dx);
                let dx_dot = self.dx.iter().map(|v| v * v).sum::<f64>();
                if dx_dot > 0.0 {
                    for k in 0..n {
                        self.b_dx[k] = (f_trial[k] - fx[k]) - self.b_dx[k];
                    }
                    rank1_update(jac, 1.0 / dx_dot, &self.b_dx, &self.dx);
                    // Refactor the updated approximation (cheap at these sizes).
                    if sys.since_refresh + 1 < opts.broyden_refresh {
                        let lu = &mut self.lu[s * n * n..(s + 1) * n * n];
                        lu.copy_from_slice(jac);
                        if lu_factor(lu, &mut self.pivots[s * n..(s + 1) * n]).is_err() {
                            sys.since_refresh = usize::MAX; // force a fresh Jacobian
                        }
                    }
                }
                sys.since_refresh = sys.since_refresh.saturating_add(1);

                x.copy_from_slice(&self.rows[r * n..(r + 1) * n]);
                fx.copy_from_slice(f_trial);
                sys.iter += 1;
            }
            Phase::Done => unreachable!("a finished system contributes no rows"),
        }
        self.iterate(s, n, opts)
    }

    /// The top of iteration `sys.iter`: convergence test, then either a
    /// Jacobian request or the Newton direction and its first trial.
    fn iterate(
        &mut self,
        s: usize,
        n: usize,
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        let sys = &mut self.systems[s];
        let fx = &self.fx[s * n..(s + 1) * n];
        if sys.iter >= opts.max_iterations {
            sys.report.residual_norm = norm_inf(fx);
            return Some(if sys.report.residual_norm <= opts.tolerance {
                sys.report.iterations = opts.max_iterations;
                Ok(sys.report)
            } else {
                Err(SolverError::MaxIterations {
                    residual: sys.report.residual_norm,
                })
            });
        }
        sys.report.iterations = sys.iter;
        sys.report.residual_norm = norm_inf(fx);
        if sys.report.residual_norm <= opts.tolerance {
            return Some(Ok(sys.report));
        }
        if sys.since_refresh >= opts.broyden_refresh || !sys.factored {
            sys.phase = Phase::Jacobian;
            return None;
        }
        self.search(s, n, opts)
    }

    /// Newton direction `J d = −F` and the start of the Armijo
    /// backtracking on the merit function `½‖F‖²`.
    fn search(
        &mut self,
        s: usize,
        n: usize,
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        let sys = &mut self.systems[s];
        let fx = &self.fx[s * n..(s + 1) * n];
        let step = &mut self.step[s * n..(s + 1) * n];
        for (d, f) in step.iter_mut().zip(fx) {
            *d = -*f;
        }
        lu_solve(
            &self.lu[s * n * n..(s + 1) * n * n],
            &self.pivots[s * n..(s + 1) * n],
            step,
        );
        sys.merit0 = 0.5 * norm2(fx).powi(2);
        sys.alpha = 1.0;
        self.next_trial(s, n, opts)
    }

    /// Requests the trial at the current step length, or handles an
    /// exhausted search.
    fn next_trial(
        &mut self,
        s: usize,
        n: usize,
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        let sys = &mut self.systems[s];
        if sys.alpha >= opts.min_step {
            sys.phase = Phase::Trial;
            return None;
        }
        // A stall with a Broyden-approximated Jacobian often recovers
        // after a fresh factorization; force one (it costs an iteration)
        // before giving up.
        if sys.since_refresh > 0 {
            sys.since_refresh = usize::MAX;
            sys.iter += 1;
            return self.iterate(s, n, opts);
        }
        Some(Err(SolverError::LineSearchStalled {
            iteration: sys.iter,
            residual: sys.report.residual_norm,
        }))
    }
}

/// Solves `m` independent square systems `F_s(x_s) = 0` of `n` unknowns
/// each, in lockstep rounds. `xs` holds the `m` initial guesses row-major
/// (`m × n`) and is overwritten with the final iterates; the result has
/// one entry per system, in order. Each round is one
/// [`Rounds::round`] call (see [`Round`]); how a Jacobian is built is the
/// only thing [`Rounds::supplies_jacobians`] changes — the LU, the
/// Broyden schedule, the line search and the rejection rules are the same.
pub fn newton_rounds<R: Rounds + ?Sized>(
    n: usize,
    xs: &mut [f64],
    opts: &NewtonOptions,
    work: &mut NewtonWorkspace,
    rounds: &mut R,
) -> Vec<Result<NewtonReport, SolverError>> {
    assert!(n > 0, "empty system");
    assert_eq!(xs.len() % n, 0, "ragged block of systems");
    let m = xs.len() / n;
    let supplied = rounds.supplies_jacobians();
    work.reset(m, n);
    let mut outcomes: Vec<Option<Result<NewtonReport, SolverError>>> = vec![None; m];

    loop {
        // Gather: what every unfinished system needs evaluated next.
        work.owners.clear();
        work.rows.clear();
        work.jacobian_rows.clear();
        for (s, x) in xs.chunks_exact(n).enumerate() {
            match work.systems[s].phase {
                Phase::Done => {}
                Phase::Initial => {
                    work.owners.push(s);
                    work.rows.extend_from_slice(x);
                }
                Phase::Jacobian if supplied => {
                    work.jacobian_rows.push(work.owners.len());
                    work.owners.push(s);
                    work.rows.extend_from_slice(x);
                }
                Phase::Jacobian => {
                    for j in 0..n {
                        work.owners.push(s);
                        work.rows.extend_from_slice(x);
                        let h = opts.fd_step * x[j].abs().max(1.0);
                        let at = work.rows.len() - n + j;
                        work.rows[at] = x[j] + h;
                    }
                }
                Phase::Trial => {
                    work.owners.push(s);
                    let alpha = work.systems[s].alpha;
                    let step = &work.step[s * n..(s + 1) * n];
                    work.rows
                        .extend(x.iter().zip(step).map(|(x, d)| x + alpha * d));
                }
            }
        }
        let count = work.owners.len();
        if count == 0 {
            break;
        }
        // Stale rows are harmless: the round overwrites every row it does
        // not reject, and a rejected row is never read.
        work.out.resize(count * n, 0.0);
        work.jacobians.resize(work.jacobian_rows.len() * n * n, 0.0);
        work.rejected.clear();
        work.rejected.resize(count, None);
        rounds.round(Round {
            owners: &work.owners,
            rows: &work.rows,
            jacobian_rows: &work.jacobian_rows,
            out: &mut work.out,
            jacobians: &mut work.jacobians,
            rejected: &mut work.rejected,
        });

        // Scatter: every owner consumes its rows and runs on.
        let (mut r, mut slots) = (0, 0..);
        while r < count {
            let s = work.owners[r];
            let (taken, slot) = match work.systems[s].phase {
                Phase::Jacobian if supplied => (1, slots.next()),
                Phase::Jacobian => (n, None),
                _ => (1, None),
            };
            if let Some(outcome) = work.consume(s, r, slot, &mut xs[s * n..(s + 1) * n], opts) {
                work.systems[s].phase = Phase::Done;
                outcomes[s] = Some(outcome);
            }
            r += taken;
        }
    }
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("the round loop ends when every system has finished"))
        .collect()
}

/// [`newton_rounds`] for a residual closure: each round calls
/// `eval(owners, rows, out, rejected)` once, which writes
/// `F_{owners[i]}(rows[i])` into row `i` of `out` or rejects the point by
/// setting `rejected[i]`, and every Jacobian is `n` forward-difference
/// rows.
pub fn newton_block<E>(
    n: usize,
    xs: &mut [f64],
    opts: &NewtonOptions,
    work: &mut NewtonWorkspace,
    mut eval: E,
) -> Vec<Result<NewtonReport, SolverError>>
where
    E: FnMut(&[usize], &[f64], &mut [f64], &mut [Option<SolverError>]),
{
    newton_rounds(n, xs, opts, work, &mut eval)
}

/// Solves `F(x) = 0` for square `F`, starting from `x` (overwritten with
/// the solution) — [`newton_block`] with one system.
///
/// `f(x, out)` writes the residual into `out` and may reject an evaluation
/// point by returning `Err`, which the line search treats as "step too
/// long".
pub fn newton<F>(mut f: F, x: &mut [f64], opts: &NewtonOptions) -> Result<NewtonReport, SolverError>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<(), SolverError>,
{
    let n = x.len();
    let mut work = NewtonWorkspace::default();
    newton_block(n, x, opts, &mut work, |_, rows, out, rejected| {
        let evaluated = rows.chunks_exact(n).zip(out.chunks_exact_mut(n));
        for ((row, out), rejected) in evaluated.zip(rejected) {
            *rejected = f(row, out).err();
        }
    })
    .pop()
    .expect("one system in, one outcome out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_linear_system() {
        // F(x) = A x − b.
        let mut x = vec![0.0, 0.0];
        let report = newton(
            |x, out| {
                out[0] = 2.0 * x[0] + x[1] - 5.0;
                out[1] = x[0] - 3.0 * x[1] + 1.0;
                Ok(())
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 1.0).abs() < 1e-8);
        assert!(report.iterations <= 3);
    }

    #[test]
    fn solves_rosenbrock_critical_point() {
        // Gradient of Rosenbrock: root at (1, 1).
        let mut x = vec![-1.2, 1.0];
        let report = newton(
            |x, out| {
                out[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
                out[1] = 200.0 * (x[1] - x[0] * x[0]);
                Ok(())
            },
            &mut x,
            &NewtonOptions {
                max_iterations: 500,
                broyden_refresh: 1, // full Newton: the valley defeats rank-1 updates
                ..Default::default()
            },
        )
        .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-6, "x = {x:?}, {report:?}");
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn solves_exponential_system() {
        // x0 = exp(-x1), x1 = exp(-x0): symmetric fixed point.
        let mut x = vec![1.0, 0.1];
        newton(
            |x, out| {
                out[0] = x[0] - (-x[1]).exp();
                out[1] = x[1] - (-x[0]).exp();
                Ok(())
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] - x[1]).abs() < 1e-8);
        assert!((x[0] - (-x[0]).exp()).abs() < 1e-8);
    }

    #[test]
    fn euler_like_crra_system() {
        // A miniature consumption-savings FOC: u'(c) = β R u'(w − c) with
        // CRRA u; closed form c = w / (1 + (βR)^{1/γ}).
        let (beta, r, w, gamma): (f64, f64, f64, f64) = (0.96, 1.05, 2.0, 2.0);
        let mut x = vec![1.0];
        newton(
            |x, out| {
                let c = x[0];
                if c <= 0.0 || c >= w {
                    return Err(SolverError::Rejected("consumption out of bounds".into()));
                }
                out[0] = c.powf(-gamma) - beta * r * (w - c).powf(-gamma);
                Ok(())
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        let expected = w / (1.0 + (beta * r).powf(1.0 / gamma));
        assert!((x[0] - expected).abs() < 1e-8);
    }

    #[test]
    fn rejected_evaluations_shrink_the_step() {
        // Residual undefined for x <= 0; start far so full steps overshoot.
        let mut x = vec![5.0];
        newton(
            |x, out| {
                if x[0] <= 0.0 {
                    return Err(SolverError::Rejected("x must be positive".into()));
                }
                out[0] = x[0].ln();
                Ok(())
            },
            &mut x,
            &NewtonOptions {
                max_iterations: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn reports_max_iterations_on_hopeless_system() {
        // F(x) = 1 + x² has no real root.
        let mut x = vec![0.0];
        let err = newton(
            |x, out| {
                out[0] = 1.0 + x[0] * x[0];
                Ok(())
            },
            &mut x,
            &NewtonOptions {
                max_iterations: 15,
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            SolverError::MaxIterations { residual }
            | SolverError::LineSearchStalled { residual, .. } => {
                assert!(residual >= 0.5)
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn broyden_reduces_jacobian_builds() {
        let count_jacobians = |refresh: usize| {
            let mut x = vec![3.0, -2.0, 1.5, 0.5];
            let report = newton(
                |x, out| {
                    out[0] = x[0] * x[0] - 1.0 + 0.1 * x[1];
                    out[1] = x[1] * x[1] * x[1] + 8.0 + 0.1 * x[2];
                    out[2] = (x[2] - 0.5).exp() - 1.0 + 0.05 * x[3];
                    out[3] = x[3] - 0.25 * x[0];
                    Ok(())
                },
                &mut x,
                &NewtonOptions {
                    broyden_refresh: refresh,
                    max_iterations: 300,
                    ..Default::default()
                },
            )
            .unwrap();
            report.jacobian_evals
        };
        let full = count_jacobians(1);
        let broyden = count_jacobians(8);
        assert!(broyden < full, "broyden {broyden} jacobians vs full {full}");
    }

    /// `F(x) = (x₀² − 2, x₀x₁ − 1)` with its exact Jacobian; a system
    /// whose guess is `x₀ = 0` has a singular Jacobian there, and one with
    /// `x₀ < 0` has its Jacobian rejected.
    struct Exact {
        requests: usize,
    }

    impl Rounds for Exact {
        fn round(&mut self, round: Round<'_>) {
            let mut requests = round.jacobian_rows.iter().enumerate().peekable();
            for (i, x) in round.rows.chunks_exact(2).enumerate() {
                if let Some((slot, _)) = requests.next_if(|&(_, &row)| row == i) {
                    self.requests += 1;
                    if x[0] < 0.0 {
                        round.rejected[i] = Some(SolverError::Rejected("x0 < 0".into()));
                    }
                    let jac = [2.0 * x[0], 0.0, x[1], x[0]];
                    round.jacobians[slot * 4..(slot + 1) * 4].copy_from_slice(&jac);
                } else {
                    round.out[2 * i] = x[0] * x[0] - 2.0;
                    round.out[2 * i + 1] = x[0] * x[1] - 1.0;
                }
            }
        }

        fn supplies_jacobians(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_supplied_jacobian_is_one_request_and_no_residual_row() {
        let opts = NewtonOptions::default();
        let guesses = [3.0, 2.0, 0.0, 1.0, 1.0, 0.2, -3.0, -1.0];
        let mut xs = guesses.to_vec();
        let mut exact = Exact { requests: 0 };
        let reports = newton_rounds(
            2,
            &mut xs,
            &opts,
            &mut NewtonWorkspace::default(),
            &mut exact,
        );
        assert!(matches!(
            reports[1],
            Err(SolverError::SingularJacobian { .. })
        ));
        assert!(matches!(reports[3], Err(SolverError::Rejected(_))));
        let mut requests = 2; // the failed systems' one request each
        for s in [0, 2] {
            let report = reports[s].as_ref().expect("converges");
            let x = &xs[2 * s..2 * s + 2];
            assert!((x[0] - 2f64.sqrt()).abs() < 1e-9 && (x[1] - 0.5f64.sqrt()).abs() < 1e-9);
            requests += report.jacobian_evals;
            // The initial residual and one accepted trial per iteration
            // (no step is rejected on this system): a Jacobian adds none.
            assert_eq!(report.residual_evals, report.iterations + 1, "{report:?}");
            // The same root by finite differences, with `n` more residual
            // rows per Jacobian.
            let mut fd = guesses[2 * s..2 * s + 2].to_vec();
            let by_fd = newton(
                |x, out| {
                    out[0] = x[0] * x[0] - 2.0;
                    out[1] = x[0] * x[1] - 1.0;
                    Ok(())
                },
                &mut fd,
                &opts,
            )
            .unwrap();
            assert!((fd[0] - x[0]).abs() < 1e-9 && (fd[1] - x[1]).abs() < 1e-9);
            assert_eq!(
                by_fd.residual_evals,
                by_fd.iterations + 1 + 2 * by_fd.jacobian_evals
            );
        }
        assert_eq!(exact.requests, requests);
    }

    #[test]
    fn converges_on_59_dim_system() {
        // Same scale as the paper's per-point system: d=59 coupled mildly
        // nonlinear equations.
        let n = 59;
        let mut x = vec![0.5; n];
        let report = newton(
            |x, out| {
                for i in 0..n {
                    let neighbor = x[(i + 1) % n];
                    out[i] = x[i].powi(3) + 2.0 * x[i] - 1.0 - 0.3 * neighbor;
                }
                Ok(())
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!(report.residual_norm < 1e-9);
        // Symmetric system: all components equal, root of x^3 + 1.7x − 1.
        for v in &x {
            assert!((v - x[0]).abs() < 1e-8);
        }
        assert!((x[0].powi(3) + 1.7 * x[0] - 1.0).abs() < 1e-8);
    }
}
