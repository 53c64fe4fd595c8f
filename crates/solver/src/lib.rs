//! # hddm-solver — dense nonlinear solvers
//!
//! The per-grid-point equation solver of the HDDM stack: a globalized
//! (damped, line-searched) Newton method with caller-supplied or
//! finite-difference Jacobians and Broyden rank-1 updates, over a small
//! self-contained dense linear algebra core. This substitutes for Ipopt
//! [24] in the paper's pipeline (README, "Workspace layout").
//!
//! * [`linalg`] — dense matrices, LU with partial pivoting, norms;
//! * [`newton`] — the damped Newton driver: [`newton::newton_rounds`]
//!   advances many independent systems in lockstep rounds,
//!   [`newton::newton_block`] is its closure form with finite-difference
//!   Jacobians and [`newton::newton`] the one-system case;
//! * [`scalar`] — Brent's method for bracketed scalar roots.
//!
//! ```
//! use hddm_solver::{newton, NewtonOptions};
//!
//! let mut x = vec![2.0];
//! newton(|x, out| { out[0] = x[0] * x[0] - 2.0; Ok(()) }, &mut x,
//!        &NewtonOptions::default()).unwrap();
//! assert!((x[0] - 2f64.sqrt()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod linalg;
pub mod newton;
pub mod scalar;

pub use linalg::{norm2, norm_inf, DenseMatrix, Lu};
pub use newton::{
    newton, newton_block, newton_rounds, NewtonOptions, NewtonReport, NewtonWorkspace, Round,
    Rounds,
};
pub use scalar::brent;

/// Errors surfaced by the solvers. The time-iteration driver distinguishes
/// recoverable per-point failures (retried with a fresh initial guess) from
/// programming errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// The (approximate) Jacobian lost rank at `column`.
    SingularJacobian {
        /// Pivot column where elimination failed.
        column: usize,
    },
    /// Newton ran out of iterations; `residual` is the final `‖F‖_∞`.
    MaxIterations {
        /// Final residual max-norm.
        residual: f64,
    },
    /// The line search could not find an acceptable step.
    LineSearchStalled {
        /// Newton iteration at which the search stalled.
        iteration: usize,
        /// Residual max-norm at the stall.
        residual: f64,
    },
    /// The model rejected an evaluation point (e.g. negative consumption).
    Rejected(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::SingularJacobian { column } => {
                write!(f, "singular Jacobian at pivot column {column}")
            }
            SolverError::MaxIterations { residual } => {
                write!(
                    f,
                    "Newton exceeded max iterations (residual {residual:.3e})"
                )
            }
            SolverError::LineSearchStalled {
                iteration,
                residual,
            } => write!(
                f,
                "line search stalled at iteration {iteration} (residual {residual:.3e})"
            ),
            SolverError::Rejected(why) => write!(f, "evaluation rejected: {why}"),
        }
    }
}

impl std::error::Error for SolverError {}
