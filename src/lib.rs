//! # hddm — high-dimensional dynamic model solver
//!
//! An open-source reproduction of Kübler, Mikushin, Scheidegger & Schenk,
//! *"Rethinking large-scale economic modeling for efficiency: optimizations
//! for GPU and Xeon Phi clusters"* (IPDPS 2018): adaptive sparse grids with
//! index compression, vectorized interpolation kernels, a dynamic
//! `parallel_for` scheduler, a message-passing/cluster-simulation layer, and
//! a time-iteration driver solving stochastic overlapping-generations
//! economies.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`asg`] | `hddm-asg` | hierarchical basis, grids, refinement |
//! | [`compress`] | `hddm-compress` | Sec. IV-B index compression |
//! | [`kernels`] | `hddm-kernels` | gold/x86/avx/avx2/avx512 kernels |
//! | [`gpu`] | `hddm-gpu` | device model + launch pricing + surface pool |
//! | [`solver`] | `hddm-solver` | Newton/Broyden/LU (Ipopt substitute) |
//! | [`cluster`] | `hddm-cluster` | Comm runtime + scaling simulators |
//! | [`sched`] | `hddm-sched` | dynamic `parallel_for` over a shared cursor |
//! | [`olg`] | `hddm-olg` | the stochastic OLG economy |
//! | [`core`] | `hddm-core` | the time-iteration driver |
//! | [`scenarios`] | `hddm-scenarios` | batched multi-calibration sweeps + policy-surface cache |
//! | [`serve`] | `hddm-serve` | scenario serving facade: exact-hit fast path + miss micro-batching |
//! | [`telemetry`] | `hddm-telemetry` | lock-free metrics registry, span timing, JSON/text exposition |
//!
//! See `examples/quickstart.rs` for a five-minute tour and the README
//! ("Workspace layout", "Reproduction binaries") for the reproduction
//! inventory.
//!
//! ## End-to-end in eight lines
//!
//! ```
//! use hddm::core::{DriverConfig, OlgStep, TimeIteration};
//! use hddm::olg::{Calibration, OlgModel};
//!
//! // A 4-generation deterministic economy: time iteration must converge
//! // onto the analytic steady state.
//! let model = OlgModel::new(Calibration::deterministic(4, 3));
//! let mut ti = TimeIteration::new(OlgStep::new(model), DriverConfig {
//!     max_steps: 40, tolerance: 1e-9, ..Default::default()
//! });
//! let reports = ti.run();
//! assert!(reports.last().unwrap().sup_change < 1e-9);
//! ```

#![warn(missing_docs)]

pub use hddm_asg as asg;
pub use hddm_cluster as cluster;
pub use hddm_compress as compress;
pub use hddm_core as core;
pub use hddm_gpu as gpu;
pub use hddm_kernels as kernels;
pub use hddm_olg as olg;
pub use hddm_scenarios as scenarios;
pub use hddm_sched as sched;
pub use hddm_serve as serve;
pub use hddm_solver as solver;
pub use hddm_telemetry as telemetry;
