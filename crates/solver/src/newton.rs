//! Damped Newton with finite-difference Jacobian, Armijo line search and
//! optional Broyden rank-1 updates — the square-system substitute for the
//! Ipopt NLP solver the paper calls per grid point (Sec. IV-A).
//!
//! The per-point equilibrium systems of the OLG model are smooth and
//! square (~59 equations in 59 unknowns), so a globalized Newton iteration
//! converges to the same roots an interior-point method finds, while
//! keeping the cost profile the paper optimizes for: the residual
//! evaluations (each of which interpolates all `Ns` next-period policies)
//! dominate everything else.
//!
//! There is one iteration body, [`newton_block`], and it advances `m`
//! independent systems in **rounds**: each round every unfinished system
//! contributes the evaluation points it needs next — its initial residual,
//! all `n` finite-difference columns of a Jacobian at once, or one
//! line-search trial — and a single callback evaluates all of them. The
//! caller can therefore turn the residual's inner interpolation into one
//! wide operation per round instead of one call per point. Each system
//! walks exactly the trajectory it walks alone (same evaluation points,
//! same arithmetic, same order), so results do not depend on which other
//! systems share the block; [`newton`] is the `m = 1` case.

use crate::linalg::{lu_factor, lu_solve, matvec, norm2, norm_inf, rank1_update};
use crate::SolverError;

/// Newton solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct NewtonOptions {
    /// Convergence tolerance on `‖F‖_∞`.
    pub tolerance: f64,
    /// Maximum Newton iterations.
    pub max_iterations: usize,
    /// Relative finite-difference step for the Jacobian.
    pub fd_step: f64,
    /// Armijo sufficient-decrease constant.
    pub armijo_c: f64,
    /// Backtracking factor.
    pub backtrack: f64,
    /// Smallest admissible step length before the search is declared
    /// stalled.
    pub min_step: f64,
    /// Recompute the finite-difference Jacobian every `broyden_refresh`
    /// iterations; in between, apply Broyden rank-1 updates (1 =
    /// full Newton every iteration).
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
    /// counts).
    pub residual_evals: usize,
    /// Full finite-difference Jacobian constructions.
    pub jacobian_evals: usize,
}

/// What a system asks the next round to evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// `F(x)` at the initial guess.
    Initial,
    /// The `n` forward-difference columns `F(x + h_j e_j)`.
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
    /// Accepted steps since the last finite-difference Jacobian;
    /// `usize::MAX` forces one.
    since_refresh: usize,
    /// Whether `lu` holds a factorization.
    factored: bool,
    /// Current line-search step length.
    alpha: f64,
    /// Merit `½‖F(x)‖²` the line search compares against.
    merit0: f64,
    report: NewtonReport,
}

/// Buffers of [`newton_block`], reusable across calls: per-system vectors
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
    // the residual rows and the per-row rejections.
    owners: Vec<usize>,
    rows: Vec<f64>,
    out: Vec<f64>,
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
                since_refresh: usize::MAX, // force FD Jacobian on first iteration
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
    /// current iterate.
    fn consume(
        &mut self,
        s: usize,
        r: usize,
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
                // A rejected column fails the system with the first
                // rejected column's error.
                if let Some(error) = self.rejected[r..r + n].iter_mut().find_map(Option::take) {
                    return Some(Err(error));
                }
                // Forward differences: `J[:,j] = (F(x + h_j e_j) − F(x)) / h_j`.
                let jac = &mut self.jac[s * n * n..(s + 1) * n * n];
                for j in 0..n {
                    let at = (r + j) * n;
                    let h_actual = self.rows[at + j] - x[j]; // exact representable step
                    for i in 0..n {
                        jac[i * n + j] = (self.out[at + i] - fx[i]) / h_actual;
                    }
                }
                sys.report.residual_evals += n;
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
                            sys.since_refresh = usize::MAX; // force FD refresh
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
/// one entry per system, in order.
///
/// Each round calls `eval(owners, rows, out, rejected)` once: `rows` is
/// `k × n` evaluation points, `owners[i]` the system row `i` belongs to
/// (a system's rows are consecutive: one for an initial residual or a
/// line-search trial, `n` for the columns of a Jacobian), and `eval`
/// writes `F_{owners[i]}(rows[i])` into row `i` of `out` or rejects the
/// point by setting `rejected[i]`. A rejected trial shrinks the step, a
/// rejected initial guess or Jacobian column fails that system — the
/// other systems of the block are not affected.
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
    assert!(n > 0, "empty system");
    assert_eq!(xs.len() % n, 0, "ragged block of systems");
    let m = xs.len() / n;
    work.reset(m, n);
    let mut outcomes: Vec<Option<Result<NewtonReport, SolverError>>> = vec![None; m];

    loop {
        // Gather: what every unfinished system needs evaluated next.
        work.owners.clear();
        work.rows.clear();
        for (s, x) in xs.chunks_exact(n).enumerate() {
            match work.systems[s].phase {
                Phase::Done => {}
                Phase::Initial => {
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
        // Stale rows are harmless: `eval` overwrites every row it does
        // not reject, and a rejected row is never read.
        work.out.resize(count * n, 0.0);
        work.rejected.clear();
        work.rejected.resize(count, None);
        eval(&work.owners, &work.rows, &mut work.out, &mut work.rejected);

        // Scatter: every owner consumes its rows and runs on.
        let mut r = 0;
        while r < count {
            let s = work.owners[r];
            let taken = if work.systems[s].phase == Phase::Jacobian {
                n
            } else {
                1
            };
            if let Some(outcome) = work.consume(s, r, &mut xs[s * n..(s + 1) * n], opts) {
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
