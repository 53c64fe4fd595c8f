//! `newton_rounds` on small closed-form systems: linear, Rosenbrock's
//! valley, exponential and CRRA fixed points, rejected trials, a rootless
//! system, Broyden's savings in Jacobians, a supplied exact Jacobian and the
//! paper's 59-unknown size. Unless a test supplies its own [`Rounds`],
//! Jacobians are forward differences ([`common::ForwardDifferences`]).

mod common;

use common::solve_one;
use hddm_solver::{
    newton_rounds, Factors, NewtonOptions, NewtonWorkspace, Round, Rounds, SolverError,
};

#[test]
fn solves_linear_system() {
    // F(x) = A x − b.
    let mut x = vec![0.0, 0.0];
    let report = solve_one(
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
    let report = solve_one(
        |x, out| {
            out[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            out[1] = 200.0 * (x[1] - x[0] * x[0]);
            Ok(())
        },
        &mut x,
        &NewtonOptions {
            max_iterations: 500,
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
    solve_one(
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
    solve_one(
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
    solve_one(
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
        },
    )
    .unwrap();
    assert!((x[0] - 1.0).abs() < 1e-7);
}

#[test]
fn reports_max_iterations_on_hopeless_system() {
    // F(x) = 1 + x² has no real root.
    let mut x = vec![0.0];
    let err = solve_one(
        |x, out| {
            out[0] = 1.0 + x[0] * x[0];
            Ok(())
        },
        &mut x,
        &NewtonOptions { max_iterations: 15 },
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
    // Between Jacobians, Broyden updates carry the iterations: fewer
    // Jacobians than iterations, where full Newton builds one each.
    let mut x = vec![3.0, -2.0, 1.5, 0.5];
    let report = solve_one(
        |x, out| {
            out[0] = x[0] * x[0] - 1.0 + 0.1 * x[1];
            out[1] = x[1] * x[1] * x[1] + 8.0 + 0.1 * x[2];
            out[2] = (x[2] - 0.5).exp() - 1.0 + 0.05 * x[3];
            out[3] = x[3] - 0.25 * x[0];
            Ok(())
        },
        &mut x,
        &NewtonOptions {
            max_iterations: 300,
        },
    )
    .unwrap();
    assert!(
        report.jacobian_evals < report.iterations,
        "{} jacobians in {} iterations",
        report.jacobian_evals,
        report.iterations
    );
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
            round.out[2 * i] = x[0] * x[0] - 2.0;
            round.out[2 * i + 1] = x[0] * x[1] - 1.0;
            if let Some((slot, _)) = requests.next_if(|&(_, &row)| row == i) {
                self.requests += 1;
                if x[0] < 0.0 {
                    round.rejected[i] = Some(SolverError::Rejected("x0 < 0".into()));
                }
                let jac = [2.0 * x[0], 0.0, x[1], x[0]];
                round.jacobians[slot * 4..(slot + 1) * 4].copy_from_slice(&jac);
            }
        }
    }
}

/// Every system's start row is a Jacobian row that carries its residual
/// as well: a Jacobian is one request and adds no residual evaluation.
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
        &mut Factors::default(),
        &mut exact,
    );
    assert!(matches!(
        reports[1],
        Err(SolverError::SingularJacobian { .. })
    ));
    assert!(matches!(reports[3], Err(SolverError::Rejected(_))));
    let mut requests = 2; // the failed systems' start rows
    for s in [0, 2] {
        let report = reports[s].as_ref().expect("converges");
        let x = &xs[2 * s..2 * s + 2];
        assert!((x[0] - 2f64.sqrt()).abs() < 1e-9 && (x[1] - 0.5f64.sqrt()).abs() < 1e-9);
        requests += report.jacobian_evals;
        // The start row's residual and one accepted trial per iteration
        // (no step is rejected on this system): a Jacobian adds none.
        assert_eq!(report.residual_evals, report.iterations + 1, "{report:?}");
        // The same root by finite differences.
        let mut fd = guesses[2 * s..2 * s + 2].to_vec();
        solve_one(
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
    }
    assert_eq!(exact.requests, requests);
}

#[test]
fn converges_on_59_dim_system() {
    // Same scale as the paper's per-point system: d=59 coupled mildly
    // nonlinear equations.
    let n = 59;
    let mut x = vec![0.5; n];
    let report = solve_one(
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

/// `F(x) = x − 1` with its exact (identity) Jacobian, except that
/// component `nan` of every residual is NaN.
struct NanComponent {
    nan: usize,
}

impl Rounds for NanComponent {
    fn round(&mut self, round: Round<'_>) {
        let n = round.rows.len() / round.owners.len();
        for (out, x) in round
            .out
            .chunks_exact_mut(n)
            .zip(round.rows.chunks_exact(n))
        {
            for (o, x) in out.iter_mut().zip(x) {
                *o = x - 1.0;
            }
            out[self.nan] = f64::NAN;
        }
        for jac in round.jacobians.chunks_exact_mut(n * n) {
            jac.fill(0.0);
            jac.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
        }
    }
}

#[test]
fn a_nan_residual_is_never_converged() {
    // A residual that is NaN everywhere, and one whose other component
    // is already within tolerance: neither may pass the convergence test.
    for (guess, nan) in [(&[0.5][..], 0), (&[1.0, 1.0][..], 1)] {
        let mut x = guess.to_vec();
        let result = newton_rounds(
            x.len(),
            &mut x,
            &NewtonOptions::default(),
            &mut NewtonWorkspace::default(),
            &mut Factors::default(),
            &mut NanComponent { nan },
        )
        .pop()
        .unwrap();
        assert!(
            matches!(
                result,
                Err(SolverError::LineSearchStalled { iteration: 0, residual }) if residual.is_nan()
            ),
            "{guess:?}: {result:?}"
        );
    }
}
