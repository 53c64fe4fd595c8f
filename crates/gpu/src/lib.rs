//! # hddm-gpu — software GPU: device model, launch pricing, surface pool
//!
//! The accelerator leg of the hybrid scheme (Sec. IV-A / V-A),
//! substituting for the NVIDIA P100 + CUDA stack of "Piz Daint" (README,
//! "GPU backend"): a device model with SMs, per-block shared memory,
//! occupancy waves and transfer links ([`device`]).
//!
//! No interpolation arithmetic lives here: `hddm-kernels` walks every
//! block — a single point is a one-point block — and reports what the
//! walk did, [`pricing`] costs that as device launches, and [`backend`]'s
//! `GpuEngine` plugs the pricing (plus the device-resident surface
//! [`pool`]) into `hddm-kernels`' `ExecutionBackend` as an observer.
//! Performance is costed by a roofline model, since this host has no GPU.

#![warn(missing_docs)]

pub mod backend;
pub mod device;
pub mod pool;
pub mod pricing;

pub use backend::{GpuEngine, GpuRun, DEFAULT_POOL_BYTES};
pub use device::{Device, GpuError};
pub use hddm_kernels::ExecutionBackend;
pub use pool::{device_bytes, DevicePool, Residency, SurfaceId};
pub use pricing::{price_block, BatchTiming, LaunchOptions};
