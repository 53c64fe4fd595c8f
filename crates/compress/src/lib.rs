//! # hddm-compress — adaptive sparse grid index compression
//!
//! The novel data structure of Sec. IV-B of Kübler et al. (IPDPS 2018):
//! instead of iterating all `d` dimensions per grid point during
//! interpolation (`nno × d` basis evaluations, ≥95% of which are the
//! constant level-1 factor), points carry short **chains** of indices into
//! a deduplicated element array `xps`, reducing the complexity to
//! `nno × nfreq` with `nfreq ≤ 7` for the paper's grids — about an order of
//! magnitude — while the randomly accessed per-evaluation scratch (`xpv`,
//! |xps| ≤ 473 doubles) fits in L1 cache or GPU shared memory.
//!
//! [`pipeline`] exposes each construction stage (zero elimination, `ξ_freq`
//! decomposition, renumbering, transition matrices, unique elements,
//! Algorithm 2); [`CompressedGrid`] drives them and owns the kernel-facing
//! arrays. Arrays that come back from storage re-enter through
//! [`CompressedGrid::try_from_raw_parts`], the one structural check.
//!
//! ```
//! use hddm_asg::{regular_grid, hierarchize, tabulate};
//! use hddm_compress::CompressedGrid;
//!
//! let grid = regular_grid(4, 3);
//! let mut surplus = tabulate(&grid, 1, |x, out| out[0] = x.iter().sum());
//! hierarchize(&grid, &mut surplus, 1);
//!
//! let cg = CompressedGrid::build(&grid);
//! let reordered = cg.reorder_rows(&surplus, 1);
//! let mut xpv = vec![0.0; cg.xps().len()];
//! let mut out = [0.0];
//! cg.interpolate_scalar(&reordered, 1, &[0.5, 0.5, 0.5, 0.5], &mut xpv, &mut out);
//! assert!((out[0] - 2.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod compressed;
pub mod pipeline;

pub use compressed::{builds_total, CompressedGrid, CompressionStats, BUILDS_COUNTER};
pub use pipeline::{
    build_chains, decompose, renumber, transition, unique_elements, Renumbering, UniqueElements,
    XiElement, XiFreq, XiSparse, XpsEntry,
};
