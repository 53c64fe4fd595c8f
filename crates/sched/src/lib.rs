//! # hddm-sched — work-stealing task scheduling
//!
//! The intra-node parallelization layer of Sec. IV-A, substituting for
//! Intel TBB: a work-stealing `parallel_for` over grid points
//! ([`pool::parallel_for`]). The accelerator leg of Fig. 2 is not a second
//! dispatcher here: the block path hands frontier slices to this pool and
//! an observed `ExecutionBackend` prices the blocks they evaluate
//! (`hddm-gpu`).
//!
//! The scheduler is deliberately independent of what the tasks do — the
//! time-iteration driver hands it per-grid-point equation solves, the
//! benches hand it synthetic loads.

#![warn(missing_docs)]

pub mod pool;

pub use pool::{parallel_for, parallel_for_init, Chunk, LoadStats, PoolConfig};
