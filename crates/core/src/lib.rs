//! # hddm-core — the parallel time-iteration framework
//!
//! The top of the HDDM stack: Algorithm 1 of Kübler et al. (IPDPS 2018)
//! executed with the per-step structure of Fig. 2. Each step rebuilds one
//! adaptive sparse grid per discrete state — solving the frontier of grid
//! points in parallel through the `hddm-sched` pool, interpolating
//! next-period policies with the compressed kernels, hierarchizing, and
//! refining — then replaces the policy guess and repeats until the policy
//! stops moving.
//!
//! * [`driver`] — the [`TimeIteration`] state machine, generic over
//!   [`StepModel`] so toy contractions and the full OLG economy run through
//!   the identical code path, and over an MPI-like [`hddm_cluster::Comm`]
//!   so one process and a world of ranks run the identical step: per-state
//!   groups sized ∝ `M_z`, per-level frontier partitioning + allgather
//!   merge, and an exchange of the states a rank did not build (one
//!   process is a world of one rank, which exchanges nothing); a run
//!   starts cold, resumed, or warm from a cached surface;
//! * [`policy`] — per-state compressed interpolants + the kernel-backed
//!   policy oracle (domain clamping, unit-cube scaling);
//! * [`olg_step`] — the [`StepModel`] implementation for
//!   [`hddm_olg::OlgModel`];
//! * [`record`] — the byte form of a [`PolicySet`]: the one encode/decode
//!   pair for the compressed layout, its checksummed frame and the atomic
//!   file write, shared by checkpoints and the scenario cache's records;
//! * [`checkpoint`] — save/restart of the solver state between time steps
//!   (the paper's restart-with-smaller-ε protocol), one such record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod distributed;
pub mod driver;
pub mod olg_step;
pub mod policy;
pub mod record;

pub use checkpoint::Checkpoint;
pub use driver::{
    project_policy_with, DriverConfig, ProjectionError, StepModel, StepReport, TimeIteration,
};
pub use olg_step::OlgStep;
pub use policy::{AsgOracle, OracleBuffers, PolicySet};
