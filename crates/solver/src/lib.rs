//! # hddm-solver — dense nonlinear solvers
//!
//! The per-grid-point equation solver of the HDDM stack: a globalized
//! (damped, line-searched) Newton method with caller-supplied Jacobians
//! and Broyden updates between them, kept in product form on one LU per
//! Jacobian, on one fixed schedule (the constants of [`newton`];
//! [`NewtonOptions`] is the iteration budget, and the caller's
//! [`Rounds::tolerance`] where a system stops), over a small
//! self-contained dense linear algebra core. This substitutes for Ipopt
//! [24] in the paper's pipeline (README, "Workspace layout").
//!
//! * [`linalg`] — LU with partial pivoting on row-major slices, norms;
//! * [`newton`] — the damped Newton driver: [`newton::newton_rounds`]
//!   advances many independent systems in lockstep rounds, and its caller
//!   ([`Rounds`]) answers each round's rows with their residuals, and its
//!   Jacobian rows (every fresh system's start row among them) with their
//!   Jacobians as well; a system whose [`Factors`] slot carries the LU of
//!   an earlier Jacobian starts from it with a residual row;
//! * [`scalar`] — Brent's method for bracketed scalar roots.
//!
//! ```
//! use hddm_solver::{newton_rounds, Factors, NewtonOptions, NewtonWorkspace, Round, Rounds};
//!
//! /// `F(x) = x² − 2` and its Jacobian `2x`.
//! struct Sqrt2;
//! impl Rounds for Sqrt2 {
//!     fn round(&mut self, round: Round<'_>) {
//!         for (f, x) in round.out.iter_mut().zip(round.rows) {
//!             *f = x * x - 2.0;
//!         }
//!         for (slot, &i) in round.jacobian_rows.iter().enumerate() {
//!             round.jacobians[slot] = 2.0 * round.rows[i];
//!         }
//!     }
//! }
//!
//! let mut x = vec![2.0];
//! let opts = NewtonOptions::default();
//! let mut factors = Factors::default();
//! newton_rounds(1, &mut x, &opts, &mut NewtonWorkspace::default(), &mut factors, &mut Sqrt2)
//!     .pop()
//!     .unwrap()
//!     .unwrap();
//! assert!((x[0] - 2f64.sqrt()).abs() < 1e-9);
//!
//! // The slot now holds the LU of the last Jacobian: a second solve from
//! // a nearby guess starts from it with a residual row alone.
//! let mut y = vec![1.5];
//! let report = newton_rounds(1, &mut y, &opts, &mut NewtonWorkspace::default(), &mut factors, &mut Sqrt2)
//!     .pop()
//!     .unwrap()
//!     .unwrap();
//! assert!(report.carried && (y[0] - 2f64.sqrt()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linalg;
pub mod newton;
pub mod scalar;

pub use linalg::{norm2, norm_inf};
pub use newton::{
    newton_rounds, Factors, NewtonOptions, NewtonReport, NewtonWorkspace, Round, Rounds,
    CARRIED_CONTRACTION, CARRY_LIMIT,
};
pub use scalar::brent;

/// Errors surfaced by the solvers. The time-iteration driver distinguishes
/// recoverable per-point failures (retried with a fresh initial guess) from
/// programming errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverError {
    /// A Jacobian the caller supplied lost rank at `column`.
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
