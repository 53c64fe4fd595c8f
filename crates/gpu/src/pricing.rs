//! The device cost model of a batched block evaluation. The block is
//! walked once, by `hddm_kernels::batch` on the host; this module prices
//! what that walk reports ([`ChunkCounts`]) as the launches a P100 would
//! have run, mapped the way Sec. V-A maps the single-point kernel: one
//! launch per 64-point chunk, chains distributed across ≤ one wave of
//! blocks, the chunk's tiles in per-block shared memory (the `xpv` basis
//! tile only when the budget allows, else it spills to DRAM), and each
//! launch costing its latency, the PCIe transfer of its points and
//! results, and the roofline `max(flops/peak, bytes/bw)` of its work.

use hddm_kernels::{ChunkCounts, CompressedState};

use crate::device::{Device, GpuError};

/// Tunable launch choices — the knobs the `ablations` bin sweeps.
#[derive(Clone, Copy, Debug)]
pub struct LaunchOptions {
    /// Threads per block. The paper picks 128, "closest to the ndofs per
    /// point" (118); other sizes waste thread lanes or occupancy.
    pub block_size: usize,
    /// Stage `xpv` in per-block shared memory (the paper's design). When
    /// `false` the tile stays in device DRAM and every surviving chain
    /// re-streams its factor columns from there — the configuration the
    /// compression scheme was designed to avoid.
    pub stage_xpv_shared: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            block_size: 128,
            stage_xpv_shared: true,
        }
    }
}

/// Cost/occupancy report of a batched block evaluation (all launches).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTiming {
    /// Modeled wall seconds: per-chunk launch latency + point/result
    /// PCIe transfers + roofline kernel time. Uploading the surface
    /// itself is excluded: it is paid once per surface, not per call.
    pub modeled_seconds: f64,
    /// Simulated kernel launches (one per chunk).
    pub launches: usize,
    /// Blocks per launch (chains distributed across ≤ one wave).
    pub blocks: usize,
    /// Occupancy waves per launch (1 = the paper's target).
    pub waves: usize,
    /// Achieved occupancy: resident threads over the device's
    /// thread-residency limit, in `[0, 1]`.
    pub occupancy: f64,
    /// Bytes moved through device memory.
    pub dram_bytes: f64,
    /// Floating-point operations executed.
    pub flops: f64,
    /// Whether the `xpv` basis tile fit the shared-memory budget
    /// alongside the coordinate tile (else it spilled to DRAM).
    pub xpv_staged: bool,
}

/// Derives the shared-memory mapping of one chunk launch: the
/// coordinate tile, ballot table and product tile must fit (else the
/// kernel cannot launch at all); the `nxps × chunk` basis tile is
/// staged only when it also fits — on the paper's grids (473 xps ⇒
/// ~242 KB per 64-point tile vs a 48 KB budget) it usually does not,
/// and the walk re-reads basis columns from DRAM instead. Returns
/// whether the `xpv` tile is staged.
fn plan_shared(
    device: &Device,
    options: &LaunchOptions,
    dim: usize,
    nxps: usize,
    chunk: usize,
) -> Result<bool, GpuError> {
    let f64s = std::mem::size_of::<f64>();
    // Coordinate tile + per-entry ballot words + product tile.
    let base = dim * chunk * f64s + nxps * 8 + chunk * f64s;
    if base > device.shared_mem_per_block {
        return Err(GpuError::SharedMemoryExceeded {
            needed: base,
            available: device.shared_mem_per_block,
        });
    }
    let xpv_bytes = nxps * chunk * f64s;
    Ok(options.stage_xpv_shared && base + xpv_bytes <= device.shared_mem_per_block)
}

/// Prices the walk of one block against `state` — `counts` holds one
/// record per chunk, as `hddm_kernels::batch` reports them — as one
/// simulated launch per chunk. Pure: the same counts always price the
/// same. Fails when the launch cannot be mapped onto the device (block
/// size over the limit, base tiles over the shared-memory budget).
pub fn price_block(
    device: &Device,
    options: &LaunchOptions,
    state: &CompressedState,
    counts: &[ChunkCounts],
) -> Result<BatchTiming, GpuError> {
    let cg = &state.grid;
    let ndofs = state.ndofs;
    let (dim, nxps, nno, nfreq) = (cg.dim(), cg.xps().len(), cg.nno(), cg.nfreq());

    let bs = options.block_size;
    if bs == 0 || bs > device.max_threads_per_block {
        return Err(GpuError::BlockTooLarge {
            requested: bs,
            maximum: device.max_threads_per_block,
        });
    }

    // Launch geometry: the chain axis is distributed across as many
    // blocks as stay resident in one wave (the single-point kernel's
    // strategy, unchanged — the point axis lives inside the chunk).
    let max_blocks = device.max_concurrent_blocks_for(bs);
    let grid_size = max_blocks.min(nno.max(1));
    let waves = grid_size.div_ceil(max_blocks).max(1);
    let resident_blocks = grid_size.min(max_blocks);
    let occupancy =
        (resident_blocks * bs) as f64 / (device.sm_count * device.max_threads_per_sm) as f64;

    let mut timing = BatchTiming {
        blocks: grid_size,
        waves,
        occupancy,
        xpv_staged: true,
        ..BatchTiming::default()
    };

    let f64s = std::mem::size_of::<f64>() as f64;
    for c in counts {
        let chunk = c.chunk;
        let xpv_staged = plan_shared(device, options, dim, nxps, chunk)?;
        timing.xpv_staged &= xpv_staged;
        // Two 32-lane ballots per entry build the nonzero-lane word of a
        // 64-point chunk.
        let warps = chunk.div_ceil(32);

        // --- Roofline cost of this launch.
        // DRAM: chain indices for every chain, surplus rows of chains
        // with at least one alive lane, and the chunk's output rows.
        let mut dram = (nno * nfreq * 4) as f64
            + (c.rows_touched * ndofs) as f64 * f64s
            + (chunk * ndofs) as f64 * f64s;
        if !xpv_staged {
            // Spilled xpv: the fill writes the whole tile to DRAM and
            // every surviving chain re-streams its factor columns
            // (coalesced — columns are contiguous in the tile).
            dram += (nxps * chunk) as f64 * f64s + (c.factor_cols * chunk) as f64 * f64s;
        }
        // FLOPs: basis fill (3 ops per entry-lane) + ballot/AND words +
        // chain products + FMA accumulation. The dof loop issues
        // warp-granular rounds per alive pair, so ragged ndofs waste
        // lanes exactly as in the single-point kernel's cost model.
        let dof_issue_slots = ndofs.div_ceil(32) * 32;
        let flops = (nxps * chunk * 3
            + nxps * warps
            + nno * nfreq
            + c.factor_cols * chunk
            + c.alive_pairs * dof_issue_slots * 2) as f64;
        let kernel_time = (flops / device.fp64_flops).max(dram / device.mem_bandwidth);
        // PCIe: the chunk's coordinate tile up, its output rows down.
        let transfer_bytes = (dim * chunk + chunk * ndofs) as f64 * f64s;
        let transfer = transfer_bytes / device.pcie_bandwidth;

        timing.launches += 1;
        timing.modeled_seconds += device.launch_latency + transfer + kernel_time * waves as f64;
        timing.dram_bytes += dram;
        timing.flops += flops;
    }
    Ok(timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};
    use hddm_kernels::batch::interpolate_batch;
    use hddm_kernels::{KernelKind, PointBlock, Scratch, BATCH_CHUNK};

    fn make_state(dim: usize, n: u8, ndofs: usize) -> CompressedState {
        let grid = regular_grid(dim, n);
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| ((t + k + 1) as f64 * v).sin() + v * v)
                    .sum();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        CompressedState::new(&grid, &surplus, ndofs)
    }

    /// The chunk counts of walking `npts` deterministic probe points.
    fn walk_counts(state: &CompressedState, npts: usize) -> Vec<ChunkCounts> {
        let dim = state.grid.dim();
        let rows: Vec<f64> = (0..npts * dim)
            .map(|s| ((s * 29 + 7) as f64 * 0.01937 + 0.003) % 1.0)
            .collect();
        let block = PointBlock::from_rows(dim, &rows);
        let mut out = vec![0.0; npts * state.ndofs];
        interpolate_batch(
            KernelKind::X86,
            state,
            &block,
            &mut Scratch::default(),
            &mut out,
        )
    }

    fn price(
        device: &Device,
        options: &LaunchOptions,
        state: &CompressedState,
        npts: usize,
    ) -> Result<BatchTiming, GpuError> {
        price_block(device, options, state, &walk_counts(state, npts))
    }

    /// The formulas were moved out of the deleted device walk, not
    /// rewritten: these are the figures that walk reported for this
    /// fixture at the commit before the move.
    #[test]
    fn parent_timing_is_pinned() {
        let state = make_state(4, 3, 7);
        let t = price(
            &Device::p100(),
            &LaunchOptions::default(),
            &state,
            BATCH_CHUNK + 13,
        )
        .unwrap();
        assert_eq!(t.launches, 2, "two chunks ⇒ two launches");
        assert_eq!((t.blocks, t.waves), (41, 1));
        assert!(t.xpv_staged);
        assert_eq!(t.dram_bytes, 9392.0);
        assert_eq!(t.flops, 82989.0);
        assert_eq!(t.modeled_seconds, 0.00020063502632252067);
        assert_eq!(t.occupancy, 0.04575892857142857);
    }

    #[test]
    fn chunk_launch_count_and_empty_block() {
        let state = make_state(3, 3, 5);
        let device = Device::p100();
        let options = LaunchOptions::default();
        let t = price(&device, &options, &state, 0).unwrap();
        assert_eq!(t.launches, 0);
        assert_eq!(t.modeled_seconds, 0.0);
        for (npts, launches) in [(1usize, 1usize), (64, 1), (65, 2), (256, 4)] {
            let t = price(&device, &options, &state, npts).unwrap();
            assert_eq!(t.launches, launches, "npts={npts}");
        }
        // A single point on the device is a one-point chunk: one launch.
        let counts = walk_counts(&state, 1);
        assert_eq!((counts.len(), counts[0].chunk), (1, 1));
        let t = price_block(&device, &options, &state, &counts).unwrap();
        assert_eq!((t.dram_bytes, t.flops), (640.0, 755.0));
        // The chain indices of every node are streamed per launch, so the
        // same point costs more on a bigger grid.
        let bigger = price(&device, &options, &make_state(3, 5, 5), 1).unwrap();
        assert!(bigger.dram_bytes > t.dram_bytes);
    }

    #[test]
    fn spilled_xpv_costs_more_dram() {
        // A grid whose xpv tile (nxps × 64 doubles) overflows 8 KB.
        let state = make_state(4, 4, 8);
        let device = Device::p100();
        let mut small = device.clone();
        // Room for the base tiles but never the xpv tile.
        small.shared_mem_per_block = 8 * 1024;
        let options = LaunchOptions::default();
        let t_big = price(&device, &options, &state, 64).unwrap();
        let t_small = price(&small, &options, &state, 64).unwrap();
        assert!(t_big.xpv_staged && !t_small.xpv_staged);
        assert!(t_small.dram_bytes > t_big.dram_bytes);
        assert!(t_small.modeled_seconds >= t_big.modeled_seconds);
        // Asked not to stage, the tile spills even where it would fit.
        let global = LaunchOptions {
            stage_xpv_shared: false,
            ..options
        };
        let t_global = price(&device, &global, &state, 64).unwrap();
        assert!(!t_global.xpv_staged);
        assert!(t_global.dram_bytes > t_big.dram_bytes);
        assert!(t_global.modeled_seconds >= t_big.modeled_seconds);
    }

    #[test]
    fn base_tiles_must_fit_shared_memory() {
        let state = make_state(4, 3, 4);
        let mut tiny = Device::p100();
        tiny.shared_mem_per_block = 64;
        let r = price(&tiny, &LaunchOptions::default(), &state, 8);
        assert!(matches!(r, Err(GpuError::SharedMemoryExceeded { .. })));
    }

    #[test]
    fn oversized_block_size_is_rejected() {
        let device = Device::p100();
        let threads = |block_size| LaunchOptions {
            block_size,
            ..LaunchOptions::default()
        };
        let state = make_state(2, 2, 2);
        for block_size in [0, 4096] {
            let r = price(&device, &threads(block_size), &state, 4);
            assert!(matches!(r, Err(GpuError::BlockTooLarge { .. })));
        }
        // A legal but large block size cuts residency, not the wave count:
        // on a grid with more nodes than stay resident at 512 threads the
        // chains still go through in a single wave of fewer blocks.
        let state = make_state(4, 4, 7);
        assert!(state.grid.nno() > device.max_concurrent_blocks_for(512));
        let blocks_at = |block_size| {
            let t = price(&device, &threads(block_size), &state, 4).unwrap();
            assert_eq!(t.waves, 1, "block_size={block_size}");
            t.blocks
        };
        assert!(blocks_at(512) < blocks_at(128));
    }
}
