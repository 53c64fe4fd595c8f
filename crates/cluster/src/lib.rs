//! # hddm-cluster — message passing and rank-group assignment
//!
//! The distributed layer of Sec. IV-A, substituting for MPI on the Cray
//! systems (README, "Workspace layout"):
//!
//! * [`comm`] — an MPI-flavored [`Comm`] trait with a threaded in-process
//!   backend ([`ThreadComm`], every rank an OS thread) and a no-op
//!   [`SerialComm`]; supports `split` into per-state sub-communicators,
//!   `barrier`, `allgather`, `allreduce`;
//! * [`assign`] — the proportional rank-group sizing of Sec. IV-A
//!   (`MPI_COMM_SIZE(z) ∝ M_z`), including the paper's footnote-5 example
//!   as a test.
//!
//! The Fig. 7 and Fig. 8 machine models live with their figures in
//! `hddm-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod comm;

pub use assign::{multiplex_states, proportional_ranks};
pub use comm::{Comm, SerialComm, ThreadComm};
