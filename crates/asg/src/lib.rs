//! # hddm-asg — adaptive sparse grids
//!
//! The sparse-grid substrate of the HDDM solver, reproducing Sec. III of
//! Kübler, Mikushin, Scheidegger & Schenk, *"Rethinking large-scale economic
//! modeling for efficiency"* (IPDPS 2018):
//!
//! * the one-dimensional hierarchical hat basis of Eq. (5)–(7), with the
//!   constant level-1 function that later enables index compression
//!   ([`basis`]);
//! * sparse multi-index nodes storing only level-≥2 coordinates ([`node`]);
//! * the grid container with ancestor-closed insertion ([`grid`]);
//! * regular sparse-grid enumeration and exact point counting for
//!   `V_n^S = ⊕_{|ľ|₁ ≤ n+d−1} W_ľ` ([`regular`]);
//! * surplus (de)hierarchization as a per-grid stencil, and a reference
//!   interpolant ([`hierarchize`]);
//! * a posteriori adaptive refinement `g(α) ≥ ε` ([`refine`]);
//! * box-domain scaling ([`domain`]) and the dense `(ł, í)` export consumed
//!   by the baseline `gold` kernel and by the compression pipeline
//!   ([`dense`]).
//!
//! Optimized interpolation lives in `hddm-kernels`; the compressed data
//! structure in `hddm-compress`.
//!
//! ## Example
//!
//! ```
//! use hddm_asg::{regular_grid, hierarchize, interpolate_reference};
//!
//! // Interpolate f(x, y) = x·y on a 2-D level-4 sparse grid.
//! let grid = regular_grid(2, 4);
//! let mut values = hddm_asg::tabulate(&grid, 1, |x, out| out[0] = x[0] * x[1]);
//! hierarchize(&grid, &mut values, 1);
//! let mut out = [0.0];
//! interpolate_reference(&grid, &values, 1, &[0.5, 0.25], &mut out);
//! assert!((out[0] - 0.125).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod basis;
pub mod dense;
pub mod domain;
pub mod grid;
pub mod hierarchize;
pub mod node;
pub mod refine;
pub mod regular;

pub use basis::{hat, linear_basis, scaled_pair, support_index, MAX_LEVEL};
pub use dense::DenseIndexMatrix;
pub use domain::BoxDomain;
pub use grid::SparseGrid;
pub use hierarchize::{dehierarchize, hierarchize, interpolate_reference, tabulate, Stencil};
pub use node::{ActiveCoord, NodeKey};
pub use refine::{refine, refine_frontier, RefineConfig, RefineReport, SurplusNorm};
pub use regular::{level_increment_size, regular_grid, regular_grid_size};
