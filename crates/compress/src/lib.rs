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
//! use hddm_asg::regular_grid;
//! use hddm_compress::{CompressedGrid, XpsEntry};
//!
//! let grid = regular_grid(4, 3);
//! let cg = CompressedGrid::build(&grid);
//! // One row of `nfreq` xps ids per point, 0-terminated; xps[0] is the
//! // neutral sentinel.
//! assert_eq!(cg.chains().len(), grid.len() * cg.nfreq());
//! assert_eq!(cg.xps()[0], XpsEntry::SENTINEL);
//! // Surplus rows follow the chains; the kernels (`hddm-kernels`) walk
//! // both.
//! let surplus: Vec<f64> = (0..grid.len()).map(|p| p as f64).collect();
//! assert_eq!(cg.restore_rows(&cg.reorder_rows(&surplus, 1), 1), surplus);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compressed;
pub mod pipeline;

pub use compressed::{builds_total, CompressedGrid, CompressionStats, BUILDS_COUNTER};
pub use pipeline::{
    build_chains, decompose, renumber, transition, unique_elements, Renumbering, UniqueElements,
    XiElement, XiFreq, XiSparse, XpsEntry,
};
