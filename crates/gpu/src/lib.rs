//! # hddm-gpu — software GPU: the P100 device model and launch pricing
//!
//! The accelerator leg of the hybrid scheme (Sec. IV-A / V-A),
//! substituting for the NVIDIA P100 + CUDA stack of "Piz Daint" (README,
//! "GPU backend"): a device model with SMs, per-block shared memory,
//! occupancy waves and transfer links ([`device`]).
//!
//! No interpolation arithmetic lives here: `hddm-kernels` walks every
//! block — a single point is a one-point block — and reports what the
//! walk did, [`pricing`] costs that as device launches, and [`backend`]'s
//! `GpuEngine` plugs the pricing into `hddm-kernels`' `ExecutionBackend`
//! as an observer. Performance is costed by a roofline model, since this
//! host has no GPU.

#![warn(missing_docs)]

pub mod backend;
pub mod device;
pub mod pricing;

pub use backend::{GpuEngine, GpuRun};
pub use device::{Device, GpuError};
pub use hddm_kernels::ExecutionBackend;
pub use pricing::{price_block, BatchTiming, LaunchOptions};
