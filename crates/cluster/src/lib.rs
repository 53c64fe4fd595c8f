//! # hddm-cluster — message passing and cluster simulation
//!
//! The distributed layer of Sec. IV-A, substituting for MPI on the Cray
//! systems (README, "Workspace layout"):
//!
//! * [`comm`] — an MPI-flavored [`Comm`] trait with a threaded in-process
//!   backend ([`ThreadComm`], every rank an OS thread) and a no-op
//!   [`SerialComm`]; supports `split` into per-state sub-communicators,
//!   `barrier`, `allgather`, `allreduce`, `bcast`;
//! * [`assign`] — the proportional rank-group sizing of Sec. IV-A
//!   (`MPI_COMM_SIZE(z) ∝ M_z`), including the paper's footnote-5 example
//!   as a test;
//! * [`sim`] — a discrete-event strong-scaling simulator replaying the
//!   per-level distribute/solve/merge cycle on a parametric machine model
//!   (regenerates Fig. 8 for 1→4,096 nodes);
//! * [`nodesim`] — the single-node performance model behind Fig. 7;
//! * [`hetero`] — the work-preempting-scheduler ablation on heterogeneous
//!   worker fleets (static vs proportional vs stealing assignment), the
//!   model behind the `scheduler` bin and nothing else.

#![warn(missing_docs)]

pub mod assign;
pub mod comm;
pub mod hetero;
pub mod nodesim;
pub mod sim;

pub use assign::{multiplex_states, proportional_ranks};
pub use comm::{Comm, SerialComm, ThreadComm};
pub use hetero::{
    fluid_bound, mixed_fleet, schedule, straggler_costs, Assignment, ScheduleResult, WorkerSpec,
};
pub use nodesim::{fig7_variants, NodeVariant};
pub use sim::{simulate_step, strong_scaling_sweep, ClusterModel, LevelWork, StepTiming};
