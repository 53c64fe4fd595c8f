//! # hddm-sched — dynamic task scheduling
//!
//! The intra-node parallelization layer of Sec. IV-A, substituting for
//! Intel TBB: a `parallel_for` over grid points whose free workers take
//! the next chunk from a shared cursor ([`pool::parallel_for`]) — what
//! work stealing comes to on a flat index range. The accelerator leg of
//! Fig. 2 is not a second dispatcher here: the block path hands frontier
//! slices to this pool and an observed `ExecutionBackend` prices the
//! blocks they evaluate (`hddm-gpu`).
//!
//! The scheduler is deliberately independent of what the tasks do — the
//! time-iteration driver hands it frontier slices, the scenario executor
//! whole scenarios, the `scheduler` bin synthetic loads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::{parallel_for, parallel_for_init, LoadStats, PoolConfig};
