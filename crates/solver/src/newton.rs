//! Damped Newton with a caller-supplied Jacobian, Armijo line search and
//! Broyden updates between Jacobians — the square-system substitute for
//! the Ipopt NLP solver the paper calls per grid point (Sec. IV-A).
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
//! contributes the evaluation it needs next — its start row, a Jacobian,
//! or one line-search trial — and one [`Rounds::round`] call evaluates
//! all of them. The caller can therefore turn the residual's inner
//! interpolation into one wide operation per round instead of one call per
//! point. Every request is one row, and every row is answered with its
//! residual; a Jacobian row also gets its `n × n` matrix in the same call.
//! A system's start row is a Jacobian row: the first iteration always
//! takes a Jacobian at the start point, so it rides with the first
//! residual instead of costing a round of its own. Each system walks
//! exactly the trajectory it walks alone (same evaluation points, same
//! arithmetic, same order), so results do not depend on which other
//! systems share the block.
//!
//! A system stops at `‖F‖_∞ ≤ τ`, where `τ` is its caller's
//! [`Rounds::tolerance`] at the system's start residual: [`TOLERANCE`]
//! unless the caller needs less. A caller whose systems are the inner
//! solves of an outer iteration can stop each one at a fraction of its own
//! start residual — inexact Newton (Dembo, Eisenstat and Steihaug, 1982) —
//! and `τ` then depends only on where the system starts.
//!
//! Broyden runs in product form ("good" Broyden with Sherman–Morrison;
//! Dennis and Schnabel, 1983, §8.3; Kelley, 1995, ch. 7). A system
//! factors only its true Jacobians. Between two of them its inverse
//! approximation is `H_k = (I − q_{k−1} s_{k−1}ᵀ) ⋯ (I − q_0 s_0ᵀ) J⁻¹`:
//! the LU of the last Jacobian and one factor per accepted step, with
//! `s = α·d`, `y = ΔF`, `w = H_k y` and `q = (w − s)/(sᵀw)`. That is the
//! inverse of the matrix update `B_{k+1} = B_k + (y − B_k s) sᵀ/(sᵀs)`,
//! which is never formed.

use crate::linalg::{lu_factor, lu_solve, norm2, norm_inf, PIVOT_FLOOR};
use crate::SolverError;

/// The default convergence tolerance on `‖F‖_∞` ([`Rounds::tolerance`]).
pub const TOLERANCE: f64 = 1e-9;
/// Armijo sufficient-decrease constant.
const ARMIJO_C: f64 = 1e-4;
/// Line-search backtracking factor.
const BACKTRACK: f64 = 0.5;
/// Smallest admissible step length before the search is declared
/// stalled.
const MIN_STEP: f64 = 1e-10;
/// A fresh Jacobian every `BROYDEN_REFRESH` accepted steps, Broyden
/// updates in between, so a system stores at most `BROYDEN_REFRESH − 1`
/// product-form factors. Measured on the benchmark's cold solve against
/// 1 (full Newton), 2 and 8 while each update still refactored an
/// `n × n` approximation: full Newton builds 1.8× the Jacobians and is
/// slower, 2 is slower too and 8 is no faster.
const BROYDEN_REFRESH: usize = 5;
/// Broyden factor slots per system.
const FACTORS: usize = BROYDEN_REFRESH - 1;

/// Newton solver configuration: the iteration budget. The rest of the
/// schedule is fixed: Armijo constant `1e-4`, backtracking by `0.5` down
/// to a step of `1e-10`, and a fresh Jacobian every 5 accepted steps with
/// product-form Broyden updates of its LU in between. The tolerance is
/// the caller's ([`Rounds::tolerance`], `‖F‖_∞ ≤ 1e-9` by default).
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
/// needs evaluated next — its start row (residual and Jacobian at the
/// initial guess), a Jacobian request or a line-search trial.
#[derive(Debug)]
pub struct Round<'a> {
    /// `owners[i]`: the system row `i` belongs to.
    pub owners: &'a [usize],
    /// `k × n` evaluation points, row-major.
    pub rows: &'a [f64],
    /// The rows, ascending, that ask for the Jacobian `∂F/∂x` at their
    /// point as well as the residual: every system's start row, and every
    /// later Jacobian request.
    pub jacobian_rows: &'a [usize],
    /// `k × n`: row `i` takes `F_{owners[i]}(rows[i])`, Jacobian rows
    /// included. Newton reads a Jacobian row's residual only at the start
    /// point; a later one is the residual of the last accepted trial.
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
    /// Evaluates every row of `round` — its residual, and its Jacobian
    /// too for a row in `jacobian_rows` — or rejects it. Rows the call
    /// neither writes nor rejects keep stale values.
    fn round(&mut self, round: Round<'_>);

    /// The `τ` a system stops at (`‖F‖_∞ ≤ τ`), given `‖F(x₀)‖_∞` at its
    /// start point; asked once per system, when its start row arrives.
    /// [`TOLERANCE`] unless the caller solves less exactly.
    fn tolerance(&self, start_residual: f64) -> f64 {
        let _ = start_residual;
        TOLERANCE
    }
}

/// What a system asks the next round to evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    /// `F(x)` and the Jacobian at the initial guess.
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
    /// Accepted steps since the last Jacobian, and so the number of
    /// stored Broyden factors while it is below `BROYDEN_REFRESH`;
    /// `usize::MAX` forces a Jacobian.
    since_refresh: usize,
    /// Current line-search step length.
    alpha: f64,
    /// Merit `½‖F(x)‖²` the line search compares against.
    merit0: f64,
    /// The `τ` of `‖F‖_∞ ≤ τ`, set from the start residual.
    tolerance: f64,
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
    // The LU of each system's last Jacobian, and its Broyden factors:
    // `FACTORS` slots of `[q | s]` (`2n`) per system.
    lu: Vec<f64>,
    pivots: Vec<u32>,
    factors: Vec<f64>,
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
                since_refresh: 0, // the start row brings the first Jacobian
                alpha: 1.0,
                merit0: 0.0,
                tolerance: TOLERANCE,
                report: NewtonReport::default(),
            },
        );
        self.fx.resize(m * n, 0.0);
        self.step.resize(m * n, 0.0);
        self.lu.resize(m * n * n, 0.0);
        self.pivots.resize(m * n, 0);
        self.factors.resize(m * FACTORS * 2 * n, 0.0);
    }

    /// Consumes the row `r` the last round evaluated for system `s`, then
    /// runs the system on until it needs another evaluation (`None`) or
    /// finishes (`Some`). `x` is the system's current iterate; `slot`
    /// counts the round's Jacobian requests before row `r`, so it indexes
    /// this row's Jacobian if the row is one; `rounds` sets a start row's
    /// tolerance.
    fn consume<R: Rounds + ?Sized>(
        &mut self,
        s: usize,
        r: usize,
        slot: usize,
        x: &mut [f64],
        opts: &NewtonOptions,
        rounds: &R,
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
                sys.tolerance = rounds.tolerance(norm_inf(fx));
                // The first iteration takes the Jacobian that came with
                // the residual, unless the guess has converged.
                if let Some(outcome) = self.finished(s, n, opts) {
                    return Some(outcome);
                }
                return self.refresh(s, slot, n, opts);
            }
            Phase::Jacobian => {
                if let Some(error) = self.rejected[r].take() {
                    return Some(Err(error));
                }
                return self.refresh(s, slot, n, opts);
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

                // The Broyden factor of this step, unless the system
                // finishes on it or the next iteration takes a fresh
                // Jacobian anyway.
                let k = sys.since_refresh;
                let finishes =
                    sys.iter + 1 >= opts.max_iterations || norm_inf(f_trial) <= sys.tolerance;
                if k + 1 < BROYDEN_REFRESH && !finishes {
                    let factors = &mut self.factors[s * FACTORS * 2 * n..][..(k + 1) * 2 * n];
                    let (stored, factor) = factors.split_at_mut(k * 2 * n);
                    for (y, (after, before)) in factor.iter_mut().zip(f_trial.iter().zip(&*fx)) {
                        *y = after - before;
                    }
                    let inverse = Inverse {
                        lu: &self.lu[s * n * n..(s + 1) * n * n],
                        pivots: &self.pivots[s * n..(s + 1) * n],
                        factors: stored,
                    };
                    if !inverse.broyden_factor(sys.alpha, &self.step[s * n..(s + 1) * n], factor) {
                        sys.since_refresh = usize::MAX; // `B_{k+1}` is singular
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

    /// Takes the Jacobian in slot `slot` of the round as system `s`'s new
    /// one — its LU replaces the last, and the Broyden factors restart —
    /// and searches along its Newton direction.
    fn refresh(
        &mut self,
        s: usize,
        slot: usize,
        n: usize,
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        let sys = &mut self.systems[s];
        sys.report.jacobian_evals += 1;
        sys.since_refresh = 0;
        let lu = &mut self.lu[s * n * n..(s + 1) * n * n];
        lu.copy_from_slice(&self.jacobians[slot * n * n..(slot + 1) * n * n]);
        if let Err(error) = lu_factor(lu, &mut self.pivots[s * n..(s + 1) * n]) {
            return Some(Err(error));
        }
        self.search(s, n, opts)
    }

    /// The end test at the top of iteration `sys.iter`: the system's
    /// outcome once it has converged or spent its budget.
    fn finished(
        &mut self,
        s: usize,
        n: usize,
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        let sys = &mut self.systems[s];
        let fx = &self.fx[s * n..(s + 1) * n];
        sys.report.residual_norm = norm_inf(fx);
        if sys.iter >= opts.max_iterations {
            return Some(if sys.report.residual_norm <= sys.tolerance {
                sys.report.iterations = opts.max_iterations;
                Ok(sys.report)
            } else {
                Err(SolverError::MaxIterations {
                    residual: sys.report.residual_norm,
                })
            });
        }
        sys.report.iterations = sys.iter;
        (sys.report.residual_norm <= sys.tolerance).then_some(Ok(sys.report))
    }

    /// The top of iteration `sys.iter`: the end test, then either a
    /// Jacobian request or the Newton direction and its first trial.
    fn iterate(
        &mut self,
        s: usize,
        n: usize,
        opts: &NewtonOptions,
    ) -> Option<Result<NewtonReport, SolverError>> {
        if let Some(outcome) = self.finished(s, n, opts) {
            return Some(outcome);
        }
        let sys = &mut self.systems[s];
        if sys.since_refresh >= BROYDEN_REFRESH {
            sys.phase = Phase::Jacobian;
            return None;
        }
        self.search(s, n, opts)
    }

    /// Newton direction `d = −H_k F` and the start of the Armijo
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
        Inverse {
            lu: &self.lu[s * n * n..(s + 1) * n * n],
            pivots: &self.pivots[s * n..(s + 1) * n],
            factors: &self.factors[s * FACTORS * 2 * n..][..sys.since_refresh * 2 * n],
        }
        .apply(step);
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
        // A stall on a Broyden-updated inverse often recovers after a
        // fresh Jacobian; force one (it costs an iteration) before giving
        // up.
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

/// One system's inverse approximation `H_k`: the LU of its last Jacobian
/// and the `k` factors `[q | s]` stored since, oldest first.
struct Inverse<'a> {
    lu: &'a [f64],
    pivots: &'a [u32],
    factors: &'a [f64],
}

impl Inverse<'_> {
    /// `v ← H_k v`: the LU solve, then each factor `v ← v − q (sᵀv)` in
    /// the order the steps were accepted.
    fn apply(&self, v: &mut [f64]) {
        lu_solve(self.lu, self.pivots, v);
        for factor in self.factors.chunks_exact(2 * v.len()) {
            let (q, s) = factor.split_at(v.len());
            let sv = dot(s, v);
            for (vi, qi) in v.iter_mut().zip(q) {
                *vi -= qi * sv;
            }
        }
    }

    /// Turns `factor = [y | ·]`, `y = ΔF` over the accepted step
    /// `s = α·d`, into the factor `[q | s]` of
    /// `H_{k+1} = (I − q sᵀ) H_k`, `q = (w − s)/(sᵀw)`, `w = H_k y`.
    /// Returns `false`, with `factor` unspecified, when `sᵀw` is zero,
    /// below `lu_factor`'s pivot floor or not finite: the updated matrix
    /// `B_{k+1}` is singular exactly when `sᵀw = 0`.
    fn broyden_factor(&self, alpha: f64, d: &[f64], factor: &mut [f64]) -> bool {
        let (w, s) = factor.split_at_mut(d.len());
        self.apply(w);
        for (s, d) in s.iter_mut().zip(d) {
            *s = alpha * d;
        }
        let sw = dot(s, w);
        if sw.abs() < PIVOT_FLOOR || !sw.is_finite() {
            return false;
        }
        for (q, s) in w.iter_mut().zip(&*s) {
            *q = (*q - s) / sw;
        }
        true
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
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
                Phase::Initial | Phase::Jacobian => {
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
            let jacobian = matches!(work.systems[s].phase, Phase::Initial | Phase::Jacobian);
            let x = &mut xs[s * n..(s + 1) * n];
            if let Some(outcome) = work.consume(s, r, slot, x, opts, &*rounds) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::tests::{matvec, rank1_update, solve};

    /// Seeded xorshift draws in `[−0.5, 0.5)`.
    fn draws(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    #[test]
    fn the_product_form_applies_the_inverse_of_the_updated_matrix() {
        // `H_k v` from the stored factors against a dense solve with
        // `B_k`, the matrix the rank-1 updates build, for every `k` a
        // system can reach.
        let mut next = draws(0x9E37_79B9_7F4A_7C15);
        for n in [1, 4, 9] {
            let mut b: Vec<f64> = (0..n * n).map(|_| next()).collect();
            for i in 0..n {
                b[i * n + i] += n as f64 + 2.0;
            }
            let (mut lu, mut pivots) = (b.clone(), vec![0; n]);
            lu_factor(&mut lu, &mut pivots).unwrap();
            let mut factors = vec![0.0; FACTORS * 2 * n];
            for k in 0..=FACTORS {
                let (stored, rest) = factors.split_at_mut(k * 2 * n);
                let inverse = Inverse {
                    lu: &lu,
                    pivots: &pivots,
                    factors: stored,
                };
                let v: Vec<f64> = (0..n).map(|_| next()).collect();
                let (mut product, mut dense) = (v.clone(), v);
                inverse.apply(&mut product);
                solve(&b, &mut dense).unwrap();
                for (got, want) in product.iter().zip(&dense) {
                    let error = (got - want).abs();
                    assert!(error <= 1e-12 * norm_inf(&dense), "n={n} k={k}: {error:e}");
                }
                if k == FACTORS {
                    break;
                }
                // Step `k`: `s = α·d` and a `y` near `B_k s`, which keeps
                // `B_{k+1}` well conditioned.
                let alpha = 0.75 + next();
                let d: Vec<f64> = (0..n).map(|_| next()).collect();
                let s: Vec<f64> = d.iter().map(|d| alpha * d).collect();
                let mut bs = vec![0.0; n];
                matvec(&b, &s, &mut bs);
                let y: Vec<f64> = bs.iter().map(|v| v + 0.1 * next()).collect();
                let factor = &mut rest[..2 * n];
                factor[..n].copy_from_slice(&y);
                assert!(inverse.broyden_factor(alpha, &d, factor), "n={n} k={k}");
                let residual: Vec<f64> = y.iter().zip(&bs).map(|(y, bs)| y - bs).collect();
                rank1_update(&mut b, 1.0 / dot(&s, &s), &residual, &s);
            }
        }
    }

    /// One system of two unknowns on a script: round `i` is answered with
    /// `answers[i]` (its residual, followed by its Jacobian when it asks
    /// for one) and logged as `(asked for a Jacobian, point)`; a round past
    /// the script is rejected, which ends the solve.
    struct Scripted {
        answers: Vec<Vec<f64>>,
        log: Vec<(bool, Vec<f64>)>,
    }

    impl Rounds for Scripted {
        fn round(&mut self, round: Round<'_>) {
            let jacobian = round.jacobian_rows == [0];
            self.log.push((jacobian, round.rows.to_vec()));
            match self.answers.get(self.log.len() - 1) {
                Some(answer) => {
                    let (residual, matrix) = answer.split_at(round.out.len());
                    round.out.copy_from_slice(residual);
                    round.jacobians.copy_from_slice(matrix);
                }
                None => round.rejected[0] = Some(SolverError::Rejected("end of script".into())),
            }
        }
    }

    /// From `x = 0` with `F = (1, 0)` and `J = [[1, 1], [0, 1]]`, both in
    /// the start row, the Newton step is `s = (−1, 0)`; its trial answers
    /// `f_trial`, and the script ends there.
    fn one_step(f_trial: [f64; 2]) -> Vec<(bool, Vec<f64>)> {
        let mut script = Scripted {
            answers: vec![vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0], f_trial.to_vec()],
            log: Vec::new(),
        };
        let outcome = newton_rounds(
            2,
            &mut [0.0, 0.0],
            &NewtonOptions::default(),
            &mut NewtonWorkspace::default(),
            &mut script,
        );
        assert!(matches!(&outcome[..], [Err(SolverError::Rejected(_))]));
        assert_eq!(
            script.log[..2],
            [(true, vec![0.0, 0.0]), (false, vec![-1.0, 0.0])]
        );
        script.log
    }

    /// `F(x) = A x − b` with its exact Jacobian `A`.
    struct Linear {
        a: Vec<f64>,
        b: Vec<f64>,
    }

    impl Rounds for Linear {
        fn round(&mut self, round: Round<'_>) {
            let n = self.b.len();
            for (x, out) in round
                .rows
                .chunks_exact(n)
                .zip(round.out.chunks_exact_mut(n))
            {
                matvec(&self.a, x, out);
                for (f, b) in out.iter_mut().zip(&self.b) {
                    *f -= b;
                }
            }
            for jacobian in round.jacobians.chunks_exact_mut(n * n) {
                jacobian.copy_from_slice(&self.a);
            }
        }
    }

    #[test]
    fn a_linear_system_takes_one_newton_step_whatever_the_pivots() {
        // Its factorization swaps rows in every column (pivots [2, 2, 2]);
        // the root is (1, −2, ½).
        let mut system = Linear {
            a: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0],
            b: vec![-1.5, -3.0, -4.0],
        };
        let mut x = [0.0; 3];
        let outcome = newton_rounds(
            3,
            &mut x,
            &NewtonOptions::default(),
            &mut NewtonWorkspace::default(),
            &mut system,
        );
        let report = outcome[0].as_ref().unwrap();
        assert_eq!(report.iterations, 1, "{report:?}");
        for (got, want) in x.iter().zip([1.0, -2.0, 0.5]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
    }

    /// `F(x) = x² − 2` with its exact Jacobian, for systems that stop at
    /// `share` of their start residual (`share = 0`: the default).
    struct Sqrt2 {
        share: f64,
    }

    impl Rounds for Sqrt2 {
        fn round(&mut self, round: Round<'_>) {
            for (f, x) in round.out.iter_mut().zip(round.rows) {
                *f = x * x - 2.0;
            }
            for (slot, &i) in round.jacobian_rows.iter().enumerate() {
                round.jacobians[slot] = 2.0 * round.rows[i];
            }
        }

        fn tolerance(&self, start_residual: f64) -> f64 {
            if self.share == 0.0 {
                return TOLERANCE;
            }
            (self.share * start_residual).max(TOLERANCE)
        }
    }

    #[test]
    fn each_system_stops_at_the_tolerance_of_its_own_start() {
        // From 2 and from 10 side by side in one block: each system stops
        // at the share of its own start residual.
        let solve = |share: f64| {
            let mut xs = [2.0, 10.0];
            let opts = NewtonOptions::default();
            let mut rounds = Sqrt2 { share };
            let reports = newton_rounds(1, &mut xs, &opts, &mut Default::default(), &mut rounds);
            reports.into_iter().map(Result::unwrap).collect::<Vec<_>>()
        };
        let (full, inexact) = (solve(0.0), solve(1e-2));
        for (s, x0) in [2.0f64, 10.0].into_iter().enumerate() {
            let start = x0 * x0 - 2.0;
            assert!(full[s].residual_norm <= TOLERANCE, "{:?}", full[s]);
            assert!(inexact[s].residual_norm <= 1e-2 * start, "{:?}", inexact[s]);
            assert!(inexact[s].residual_norm > TOLERANCE, "{:?}", inexact[s]);
            assert!(
                inexact[s].iterations < full[s].iterations,
                "{inexact:?} {full:?}"
            );
        }
    }

    #[test]
    fn a_vanishing_broyden_denominator_takes_a_fresh_jacobian() {
        // `F` halves its merit, so the step is accepted, but
        // `y = (−½, −½)` gives `w = J⁻¹y = (0, −½)` and `sᵀw = 0`: the
        // updated matrix is singular, and the next round asks for the
        // Jacobian at the new point.
        assert_eq!(one_step([0.5, -0.5])[2], (true, vec![-1.0, 0.0]));
        // Control: `y = (−½, −0.4)` gives `sᵀw = 0.1`, and the next round
        // is a trial along the Broyden direction.
        assert!(!one_step([0.5, -0.4])[2].0);
    }
}
