//! The device engine behind the batched-kernel seam. The seam itself —
//! `ExecutionBackend` — lives in `hddm-kernels`, and so does the only
//! batch walk; a [`GpuEngine`] is a `BlockObserver` of that walk: it
//! keeps the surface device-resident (upload-once/reuse through the
//! pool), prices the walk's per-chunk counts as simulated launches
//! ([`price_block`]) and records both in registry-backed telemetry.

use std::sync::Arc;

use hddm_kernels::batch::interpolate_batch;
use hddm_kernels::{
    BlockObserver, ChunkCounts, CompressedState, ExecutionBackend, KernelKind, PointBlock, Scratch,
};
use hddm_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::device::{Device, GpuError};
use crate::pool::DevicePool;
use crate::pricing::{price_block, BatchTiming, LaunchOptions};

/// Default device-pool budget: the P100's 16 GB HBM2 minus headroom for
/// launch scratch and transfer buffers.
pub const DEFAULT_POOL_BYTES: usize = 14 << 30;

/// Registry instrument names for the GPU engine (also listed by the
/// `metrics-check` validator).
pub mod metric {
    /// Simulated kernel launches (one per 64-point chunk).
    pub const LAUNCHES: &str = "hddm_gpu_launches_total";
    /// Surface uploads (pool misses).
    pub const UPLOADS: &str = "hddm_gpu_uploads_total";
    /// Pool hits (surface already resident).
    pub const POOL_HITS: &str = "hddm_gpu_pool_hits_total";
    /// Surfaces evicted from the device pool.
    pub const POOL_EVICTIONS: &str = "hddm_gpu_pool_evictions_total";
    /// Achieved occupancy of the latest launch, in percent.
    pub const OCCUPANCY: &str = "hddm_gpu_occupancy";
    /// Device bytes currently resident in the pool.
    pub const POOL_RESIDENT_BYTES: &str = "hddm_gpu_pool_resident_bytes";
    /// Modeled PCIe upload seconds per pool miss (`hddm_model_*`: not a
    /// wall time).
    pub const UPLOAD_SECONDS: &str = "hddm_model_gpu_upload_seconds";
    /// Modeled kernel seconds per block evaluation (`hddm_model_*`: not
    /// a wall time).
    pub const KERNEL_SECONDS: &str = "hddm_model_gpu_kernel_seconds";
}

struct GpuInstruments {
    launches: Arc<Counter>,
    uploads: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_evictions: Arc<Counter>,
    occupancy: Arc<Gauge>,
    pool_resident_bytes: Arc<Gauge>,
    upload_seconds: Arc<Histogram>,
    kernel_seconds: Arc<Histogram>,
}

impl GpuInstruments {
    fn new(registry: &Registry) -> GpuInstruments {
        GpuInstruments {
            launches: registry.counter(metric::LAUNCHES),
            uploads: registry.counter(metric::UPLOADS),
            pool_hits: registry.counter(metric::POOL_HITS),
            pool_evictions: registry.counter(metric::POOL_EVICTIONS),
            occupancy: registry.gauge(metric::OCCUPANCY),
            pool_resident_bytes: registry.gauge(metric::POOL_RESIDENT_BYTES),
            upload_seconds: registry.histogram(metric::UPLOAD_SECONDS),
            kernel_seconds: registry.histogram(metric::KERNEL_SECONDS),
        }
    }
}

/// Report of one backend block evaluation on the device.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuRun {
    /// Launch-level cost/occupancy of the evaluation.
    pub timing: BatchTiming,
    /// Modeled upload seconds paid by this call (0 on a pool hit).
    pub upload_seconds: f64,
    /// Whether the surface was already device-resident.
    pub reused: bool,
}

struct EngineInner {
    device: Device,
    options: LaunchOptions,
    pool: DevicePool,
    instruments: Option<GpuInstruments>,
}

/// A shared handle to the simulated device: launch options, the
/// device-resident surface pool, and (optionally) registry-backed
/// telemetry. Cloning shares the pool — one device per fleet.
#[derive(Clone)]
pub struct GpuEngine {
    inner: Arc<EngineInner>,
}

impl GpuEngine {
    /// A P100 engine with default launch options and pool budget, no
    /// telemetry.
    pub fn new() -> GpuEngine {
        GpuEngine::configured(
            Device::p100(),
            LaunchOptions::default(),
            DEFAULT_POOL_BYTES,
            None,
        )
    }

    /// A default engine whose instruments register in `registry`.
    pub fn with_registry(registry: &Registry) -> GpuEngine {
        GpuEngine::configured(
            Device::p100(),
            LaunchOptions::default(),
            DEFAULT_POOL_BYTES,
            Some(registry),
        )
    }

    /// Full-control constructor.
    pub fn configured(
        device: Device,
        options: LaunchOptions,
        pool_capacity_bytes: usize,
        registry: Option<&Registry>,
    ) -> GpuEngine {
        GpuEngine {
            inner: Arc::new(EngineInner {
                device,
                options,
                pool: DevicePool::new(pool_capacity_bytes),
                instruments: registry.map(GpuInstruments::new),
            }),
        }
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The device-resident surface pool.
    pub fn pool(&self) -> &DevicePool {
        &self.inner.pool
    }

    /// Evaluates `state` at `block` with the `avx2` batch walk (the
    /// repo's default kernel) and prices it as one simulated launch per
    /// 64-point chunk. `out` holds the host walk's values whether or not
    /// the device model can map the launch.
    pub fn evaluate_batch(
        &self,
        state: &CompressedState,
        block: &PointBlock,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) -> Result<GpuRun, GpuError> {
        let counts = interpolate_batch(KernelKind::Avx2, state, block, scratch, out);
        self.price(state, &counts)
    }

    /// Prices one walked block: ensures the surface is resident
    /// (upload-once/reuse through the pool), prices the launches and
    /// records telemetry.
    fn price(&self, state: &CompressedState, counts: &[ChunkCounts]) -> Result<GpuRun, GpuError> {
        let inner = &*self.inner;
        let residency = inner
            .pool
            .ensure_resident(state, inner.device.pcie_bandwidth);
        let timing = price_block(&inner.device, &inner.options, state, counts)?;
        if let Some(ins) = &inner.instruments {
            if residency.reused {
                ins.pool_hits.inc();
            } else {
                ins.uploads.inc();
                ins.upload_seconds.record(residency.upload_seconds);
            }
            if residency.evicted > 0 {
                ins.pool_evictions.add(residency.evicted as u64);
            }
            ins.pool_resident_bytes
                .set(inner.pool.resident_bytes() as u64);
            if timing.launches > 0 {
                ins.launches.add(timing.launches as u64);
                ins.occupancy.set((timing.occupancy * 100.0).round() as u64);
                ins.kernel_seconds.record(timing.modeled_seconds);
            }
        }
        Ok(GpuRun {
            timing,
            upload_seconds: residency.upload_seconds,
            reused: residency.reused,
        })
    }
}

impl BlockObserver for GpuEngine {
    /// A block the device model cannot map (see [`price_block`]) stays
    /// unpriced; its values came from the host walk either way.
    fn observe(&self, state: &CompressedState, counts: &[ChunkCounts]) {
        let _ = self.price(state, counts);
    }
}

/// The observed backend whose observer is this engine (clones share the
/// pool and the instruments).
impl From<GpuEngine> for ExecutionBackend {
    fn from(engine: GpuEngine) -> ExecutionBackend {
        ExecutionBackend::Observed(Arc::new(engine))
    }
}

impl Default for GpuEngine {
    fn default() -> Self {
        GpuEngine::new()
    }
}

impl std::fmt::Debug for GpuEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuEngine")
            .field("device", &self.inner.device.name)
            .field("resident_surfaces", &self.inner.pool.resident_surfaces())
            .field("resident_bytes", &self.inner.pool.resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    fn make_state(dim: usize, n: u8, ndofs: usize) -> CompressedState {
        let grid = regular_grid(dim, n);
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x.iter().sum::<f64>() * (k + 1) as f64 + (k as f64).cos();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        CompressedState::new(&grid, &surplus, ndofs)
    }

    #[test]
    fn backend_dispatch_matches_scalar_batch() {
        let state = make_state(3, 3, 5);
        let rows: Vec<f64> = (0..9 * 3)
            .map(|k| (k as f64 * 0.173 + 0.01) % 1.0)
            .collect();
        let block = PointBlock::from_rows(3, &rows);
        let mut scratch = Scratch::default();
        let mut want = vec![0.0; 9 * 5];
        interpolate_batch(KernelKind::X86, &state, &block, &mut scratch, &mut want);
        let mut got = vec![0.0; 9 * 5];
        let engine = GpuEngine::new();
        ExecutionBackend::from(engine.clone()).evaluate_batch(
            KernelKind::X86,
            &state,
            &block,
            &mut scratch,
            &mut got,
        );
        assert_eq!(got, want);
        assert_eq!(engine.pool().resident_surfaces(), 1, "the block was priced");
    }

    #[test]
    fn engine_records_registry_telemetry() {
        let registry = Registry::new();
        let engine = GpuEngine::with_registry(&registry);
        let state = make_state(3, 3, 4);
        let rows: Vec<f64> = (0..70 * 3)
            .map(|k| (k as f64 * 0.091 + 0.02) % 1.0)
            .collect();
        let block = PointBlock::from_rows(3, &rows);
        let mut scratch = Scratch::default();
        let mut out = vec![0.0; 70 * 4];
        let first = engine
            .evaluate_batch(&state, &block, &mut scratch, &mut out)
            .unwrap();
        assert!(!first.reused);
        let second = engine
            .evaluate_batch(&state, &block, &mut scratch, &mut out)
            .unwrap();
        assert!(second.reused);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(metric::UPLOADS), Some(1));
        assert_eq!(snap.counter(metric::POOL_HITS), Some(1));
        // 70 points ⇒ 2 chunks per call ⇒ 4 launches over both calls.
        assert_eq!(snap.counter(metric::LAUNCHES), Some(4));
        assert!(snap.gauge(metric::OCCUPANCY).unwrap() > 0);
        assert!(snap.gauge(metric::POOL_RESIDENT_BYTES).unwrap() > 0);
        assert!(snap.histogram(metric::UPLOAD_SECONDS).is_some());
        assert!(snap.histogram(metric::KERNEL_SECONDS).is_some());
    }
}
