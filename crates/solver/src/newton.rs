//! Damped Newton with a caller-supplied Jacobian, Armijo line search and
//! Broyden rank-1 updates between Jacobians — the square-system
//! substitute for the Ipopt NLP solver the paper calls per grid point
//! (Sec. IV-A).
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
//! call per point. Every request is one row: a Jacobian request is
//! answered with one `n × n` matrix in the same call. Each system walks
//! exactly the trajectory it walks alone (same evaluation points, same
//! arithmetic, same order), so results do not depend on which other
//! systems share the block.

use crate::linalg::{lu_factor, lu_solve, matvec, norm2, norm_inf, rank1_update};
use crate::SolverError;

/// Convergence tolerance on `‖F‖_∞`.
const TOLERANCE: f64 = 1e-9;
/// Armijo sufficient-decrease constant.
const ARMIJO_C: f64 = 1e-4;
/// Line-search backtracking factor.
const BACKTRACK: f64 = 0.5;
/// Smallest admissible step length before the search is declared
/// stalled.
const MIN_STEP: f64 = 1e-10;
/// A fresh Jacobian every `BROYDEN_REFRESH` accepted steps, Broyden
/// rank-1 updates in between. Measured on the benchmark's cold solve
/// against 1 (full Newton), 2 and 8: full Newton builds 1.8× the
/// Jacobians and is slower, 2 is slower too and 8 is no faster.
const BROYDEN_REFRESH: usize = 5;

/// Newton solver configuration: the iteration budget. The rest of the
/// schedule is fixed: `‖F‖_∞ ≤ 1e-9`, Armijo constant `1e-4`,
/// backtracking by `0.5` down to a step of `1e-10`, and a fresh Jacobian
/// every 5 accepted steps with Broyden updates in between.
#[derive(Clone, Copy, Debug)]
pub struct NewtonOptions {
    /// Maximum Newton iterations.
    pub max_iterations: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions { max_iterations: 60 }
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
    /// Jacobians requested.
    pub jacobian_evals: usize,
}

/// One round of [`newton_rounds`]: the one row each unfinished system
/// needs evaluated next — an initial residual, a Jacobian request or a
/// line-search trial.
#[derive(Debug)]
pub struct Round<'a> {
    /// `owners[i]`: the system row `i` belongs to.
    pub owners: &'a [usize],
    /// `k × n` evaluation points, row-major.
    pub rows: &'a [f64],
    /// The rows, ascending, that ask for the Jacobian `∂F/∂x` at their
    /// point instead of the residual.
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
    /// Evaluates every row of `round` — its residual, or its Jacobian for
    /// a row in `jacobian_rows` — or rejects it. Rows the call neither
    /// writes nor rejects keep stale values.
    fn round(&mut self, round: Round<'_>);
}

/// What a system asks the next round to evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// `F(x)` at the initial guess.
    Initial,
    /// The Jacobian at `x`.
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
    // the rows that request a Jacobian, the residual rows, the Jacobians
    // and the per-row rejections.
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

    /// Consumes the row `r` the last round evaluated for system `s`, then
    /// runs the system on until it needs another evaluation (`None`) or
    /// finishes (`Some`). `x` is the system's current iterate; `slot`
    /// counts the round's Jacobian requests before row `r`, so it indexes
    /// this row's Jacobian if the row is one.
    fn consume(
        &mut self,
        s: usize,
        r: usize,
        slot: usize,
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
                if let Some(error) = self.rejected[r].take() {
                    return Some(Err(error));
                }
                let jac = &mut self.jac[s * n * n..(s + 1) * n * n];
                jac.copy_from_slice(&self.jacobians[slot * n * n..(slot + 1) * n * n]);
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
                    merit <= sys.merit0 * (1.0 - 2.0 * ARMIJO_C * sys.alpha)
                        || merit < sys.merit0 * 1e-8
                };
                if !accepted {
                    sys.alpha *= BACKTRACK;
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
                    if sys.since_refresh + 1 < BROYDEN_REFRESH {
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
            return Some(if sys.report.residual_norm <= TOLERANCE {
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
        if sys.report.residual_norm <= TOLERANCE {
            return Some(Ok(sys.report));
        }
        if sys.since_refresh >= BROYDEN_REFRESH || !sys.factored {
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
        if sys.alpha >= MIN_STEP {
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
/// [`Rounds::round`] call (see [`Round`]).
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
    work.reset(m, n);
    let mut outcomes: Vec<Option<Result<NewtonReport, SolverError>>> = vec![None; m];

    loop {
        // Gather: the row every unfinished system needs evaluated next.
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
                Phase::Jacobian => {
                    work.jacobian_rows.push(work.owners.len());
                    work.owners.push(s);
                    work.rows.extend_from_slice(x);
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

        // Scatter: every owner consumes its row and runs on.
        let mut slot = 0;
        for r in 0..count {
            let s = work.owners[r];
            let jacobian = work.systems[s].phase == Phase::Jacobian;
            if let Some(outcome) = work.consume(s, r, slot, &mut xs[s * n..(s + 1) * n], opts) {
                work.systems[s].phase = Phase::Done;
                outcomes[s] = Some(outcome);
            }
            slot += usize::from(jacobian);
        }
    }
    outcomes
        .into_iter()
        .map(|outcome| outcome.expect("the round loop ends when every system has finished"))
        .collect()
}
