//! # hddm-olg — the stochastic overlapping-generations economy
//!
//! The economic application of Sec. II of Kübler et al. (IPDPS 2018): an
//! annually calibrated stochastic OLG model with
//!
//! * `A` generations of adult life (headline: 60, so the continuous state
//!   `x = (K, ω₂, …, ω_{A−1})` has `d = 59` dimensions),
//! * `Ns` discrete Markov states mixing productivity shocks and tax
//!   regimes (headline: 16),
//! * a pay-as-you-go pension funded by the labor-income tax, retirement
//!   after 46 working years,
//! * per-point unknowns `(k̂_i, v̂_i)` — `2·(A−1) = 118` coefficients.
//!
//! The model is *parametric in `A` and `Ns`*: integration tests and the
//! convergence experiments (Fig. 9) run scaled-down instances with the
//! identical code path, while the grid/kernel experiments (Tables I–II,
//! Figs. 6–8) use the full 59-dimensional shape.
//!
//! Layering: this crate knows nothing about sparse grids; next-period
//! policies enter through the [`PolicyOracle`] trait that the
//! time-iteration driver (`hddm-core`) implements with the compressed ASG
//! kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod calibration;
pub mod economy;
pub mod markov;
pub mod model;
pub mod simulate;
pub mod steady;

pub use accuracy::{
    euler_errors_at, euler_errors_block, euler_errors_on_box, euler_errors_on_path,
    EulerErrorReport,
};
pub use calibration::{Calibration, CalibrationError, RegimeSpec};
pub use economy::{income, marginal_utility, prices, utility, Prices, C_FLOOR};
pub use markov::MarkovChain;
pub use model::{BoxPolicy, OlgModel, PointScratch, PointSolution, PolicyOracle, SolveTally};
pub use simulate::{simulate, SimPeriod, Simulation};
pub use steady::{reference_calibration, solve_steady_state, SteadyState};
