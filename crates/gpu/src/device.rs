//! The software GPU device model: enough of the CUDA execution model
//! (SMs, blocks, shared memory, occupancy waves, transfer links) to cost
//! the paper's offloaded interpolation kernel.

/// Static device parameters.
#[derive(Clone, Debug)]
pub struct Device {
    /// Marketing name.
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// Shared memory per block in bytes (48 KB on the P100 — the budget
    /// the `xpv` array must fit, Sec. IV-B).
    pub shared_mem_per_block: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Hardware thread-residency limit per SM.
    pub max_threads_per_sm: usize,
    /// Threads per SM sustainable at this kernel's register usage ("for a
    /// given SM and register count", Sec. V-A). Divided by the block size
    /// this yields the occupancy for non-default launch geometries.
    pub reg_limited_threads_per_sm: usize,
    /// Peak FP64 throughput (FLOP/s).
    pub fp64_flops: f64,
    /// Device memory bandwidth (bytes/s).
    pub mem_bandwidth: f64,
    /// Host↔device link bandwidth (bytes/s).
    pub pcie_bandwidth: f64,
    /// Per-call launch + synchronization + driver latency (seconds).
    ///
    /// Calibrated against the paper's Table II: its measured "7k" cuda
    /// time of 122 µs on a P100 (whose kernel work is ≈10 µs at roofline)
    /// implies ≈100 µs of fixed per-call overhead in their setup, which
    /// also reconciles the 300k time (275 µs).
    pub launch_latency: f64,
}

impl Device {
    /// The NVIDIA Tesla P100 of "Piz Daint" (Cray XC50).
    pub fn p100() -> Device {
        Device {
            name: "NVIDIA Tesla P100".into(),
            sm_count: 56,
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            reg_limited_threads_per_sm: 512,
            fp64_flops: 4.7e12,
            mem_bandwidth: 732e9,
            pcie_bandwidth: 11e9,
            launch_latency: 1.0e-4,
        }
    }

    /// Maximum resident blocks per wave for a block size, limited by
    /// register pressure and the hardware thread/block caps.
    #[inline]
    pub fn max_concurrent_blocks_for(&self, block_size: usize) -> usize {
        let per_sm = (self.reg_limited_threads_per_sm / block_size.max(1))
            .min(self.max_threads_per_sm / block_size.max(1))
            // hardware blocks-per-SM ceiling, floor of one block
            .clamp(1, 32);
        self.sm_count * per_sm
    }
}

/// Errors raised when a kernel cannot be mapped onto the device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// The shared-memory working set (`xpv`) exceeds the per-block budget.
    SharedMemoryExceeded {
        /// Bytes the kernel needs.
        needed: usize,
        /// Bytes the device offers per block.
        available: usize,
    },
    /// Requested block size exceeds the device limit.
    BlockTooLarge {
        /// Requested threads per block.
        requested: usize,
        /// Device maximum.
        maximum: usize,
    },
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::SharedMemoryExceeded { needed, available } => write!(
                f,
                "shared memory exceeded: kernel needs {needed} B, block budget is {available} B"
            ),
            GpuError::BlockTooLarge { requested, maximum } => {
                write!(f, "block size {requested} exceeds device maximum {maximum}")
            }
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_parameters() {
        let device = Device::p100();
        assert_eq!(device.shared_mem_per_block, 49_152);
        assert_eq!(device.max_concurrent_blocks_for(128), 224);
        assert!(device.fp64_flops > 4e12);
    }

    #[test]
    fn error_messages() {
        let err = GpuError::SharedMemoryExceeded {
            needed: 50_000,
            available: 49_152,
        };
        assert!(err.to_string().contains("shared memory"));
    }
}
