//! The device engine behind the batched-kernel seam. The seam itself —
//! `ExecutionBackend` — lives in `hddm-kernels`, and so does the only
//! batch walk; a [`GpuEngine`] is a `BlockObserver` of that walk: it
//! prices the walk's per-chunk counts as simulated launches
//! ([`price_block`]) and records them in registry-backed telemetry.

use std::sync::Arc;

use hddm_kernels::batch::interpolate_batch;
use hddm_kernels::{
    BlockObserver, ChunkCounts, CompressedState, ExecutionBackend, KernelKind, PointBlock, Scratch,
};
use hddm_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::device::{Device, GpuError};
use crate::pricing::{price_block, BatchTiming, LaunchOptions};

/// Registry instrument names for the GPU engine (also listed by the
/// `metrics-check` validator).
pub mod metric {
    /// Simulated kernel launches (one per 64-point chunk).
    pub const LAUNCHES: &str = "hddm_gpu_launches_total";
    /// Achieved occupancy of the latest launch, in percent.
    pub const OCCUPANCY: &str = "hddm_gpu_occupancy";
    /// Modeled kernel seconds per block evaluation (`hddm_model_*`: not
    /// a wall time).
    pub const KERNEL_SECONDS: &str = "hddm_model_gpu_kernel_seconds";
}

#[derive(Clone)]
struct GpuInstruments {
    launches: Arc<Counter>,
    occupancy: Arc<Gauge>,
    kernel_seconds: Arc<Histogram>,
}

impl GpuInstruments {
    fn new(registry: &Registry) -> GpuInstruments {
        GpuInstruments {
            launches: registry.counter(metric::LAUNCHES),
            occupancy: registry.gauge(metric::OCCUPANCY),
            kernel_seconds: registry.histogram(metric::KERNEL_SECONDS),
        }
    }
}

/// Report of one backend block evaluation on the device.
#[derive(Clone, Copy, Debug, Default)]
pub struct GpuRun {
    /// Launch-level cost/occupancy of the evaluation.
    pub timing: BatchTiming,
}

/// The simulated device: a P100, its launch options and (optionally)
/// registry-backed telemetry. Clones record into the same instruments.
#[derive(Clone)]
pub struct GpuEngine {
    device: Device,
    options: LaunchOptions,
    instruments: Option<GpuInstruments>,
}

impl GpuEngine {
    /// A P100 engine with default launch options, no telemetry.
    pub fn new() -> GpuEngine {
        GpuEngine {
            device: Device::p100(),
            options: LaunchOptions::default(),
            instruments: None,
        }
    }

    /// A default engine whose instruments register in `registry`.
    pub fn with_registry(registry: &Registry) -> GpuEngine {
        GpuEngine {
            instruments: Some(GpuInstruments::new(registry)),
            ..GpuEngine::new()
        }
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

    /// Prices one walked block and records its launches.
    fn price(&self, state: &CompressedState, counts: &[ChunkCounts]) -> Result<GpuRun, GpuError> {
        let timing = price_block(&self.device, &self.options, state, counts)?;
        if let Some(ins) = &self.instruments {
            if timing.launches > 0 {
                ins.launches.add(timing.launches as u64);
                ins.occupancy.set((timing.occupancy * 100.0).round() as u64);
                ins.kernel_seconds.record(timing.modeled_seconds);
            }
        }
        Ok(GpuRun { timing })
    }
}

impl BlockObserver for GpuEngine {
    /// A block the device model cannot map (see [`price_block`]) stays
    /// unpriced; its values came from the host walk either way.
    fn observe(&self, state: &CompressedState, counts: &[ChunkCounts]) {
        let _ = self.price(state, counts);
    }
}

/// The observed backend whose observer is this engine.
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
            .field("device", &self.device.name)
            .field("options", &self.options)
            .field("instrumented", &self.instruments.is_some())
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

    /// A 70-point block of `dim`-dimensional probe points: two chunks.
    fn block_of_70(dim: usize) -> PointBlock {
        let rows: Vec<f64> = (0..70 * dim)
            .map(|k| (k as f64 * 0.091 + 0.02) % 1.0)
            .collect();
        PointBlock::from_rows(dim, &rows)
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
        let registry = Registry::new();
        ExecutionBackend::from(GpuEngine::with_registry(&registry)).evaluate_batch(
            KernelKind::X86,
            &state,
            &block,
            &mut scratch,
            &mut got,
        );
        assert_eq!(got, want);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(metric::LAUNCHES),
            Some(1),
            "the block was priced"
        );
    }

    #[test]
    fn engine_records_registry_telemetry() {
        let registry = Registry::new();
        let engine = GpuEngine::with_registry(&registry);
        let state = make_state(3, 3, 4);
        let block = block_of_70(3);
        let mut scratch = Scratch::default();
        let mut out = vec![0.0; 70 * 4];
        for _ in 0..2 {
            engine
                .evaluate_batch(&state, &block, &mut scratch, &mut out)
                .unwrap();
        }
        let snap = registry.snapshot();
        // 70 points ⇒ 2 chunks per call ⇒ 4 launches over both calls.
        assert_eq!(snap.counter(metric::LAUNCHES), Some(4));
        assert!(snap.gauge(metric::OCCUPANCY).unwrap() > 0);
        let kernel = snap.histogram(metric::KERNEL_SECONDS).unwrap();
        assert_eq!(kernel.count, 2);
        assert!(kernel.sum_seconds > 0.0);
    }

    /// The engine registers its three instruments and nothing else, and
    /// clones of one engine record into the same ones.
    #[test]
    fn engine_registers_three_instruments_shared_by_clones() {
        let registry = Registry::new();
        let engine = GpuEngine::with_registry(&registry);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .chain(snap.gauges.iter().map(|g| g.name.as_str()))
            .chain(snap.histograms.iter().map(|h| h.name.as_str()))
            .collect();
        assert_eq!(
            names,
            [metric::LAUNCHES, metric::OCCUPANCY, metric::KERNEL_SECONDS]
        );

        let state = make_state(3, 3, 4);
        let block = block_of_70(3);
        let mut scratch = Scratch::default();
        let mut out = vec![0.0; 70 * 4];
        for e in [engine.clone(), engine] {
            e.evaluate_batch(&state, &block, &mut scratch, &mut out)
                .unwrap();
        }
        assert_eq!(registry.snapshot().counter(metric::LAUNCHES), Some(4));
    }
}
