//! The GPU backend's value contract. There is one batch walk
//! (`hddm_kernels::batch`) and the device engine only observes and
//! prices it, so the contract is equality, not closeness: the observed
//! backend returns **bitwise** what the CPU backend returns for the same
//! kernel at every block width (including the widths the CPU backend
//! routes single-point), and the engine's own entry is the `avx2` walk
//! and stays within ≤ 1e-12 of the dense `gold` baseline.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{hierarchize, regular_grid, tabulate};
use hddm_gpu::{ExecutionBackend, GpuEngine};
use hddm_kernels::{batch, gold, CompressedState, DenseState, KernelKind, PointBlock, Scratch};

const TOL: f64 = 1e-12;

fn random_rows(dim: usize, npts: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..npts * dim).map(|_| rng.gen::<f64>()).collect()
}

/// A smooth function on a regular grid, in both kernel formats.
fn smooth(dim: usize, level: u8, ndofs: usize) -> (DenseState, CompressedState) {
    let grid = regular_grid(dim, level);
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
    let compressed = CompressedState::new(&grid, &surplus, ndofs);
    (DenseState::new(&grid, surplus, ndofs), compressed)
}

fn smooth_state(dim: usize, level: u8, ndofs: usize) -> CompressedState {
    smooth(dim, level, ndofs).1
}

/// The engine's own entry (`GpuEngine::evaluate_batch`) is the `avx2`
/// batch walk — bitwise — and ≤ 1e-12 from gold, over block widths
/// 1/7/64/256 × ragged ndofs, one launch per chunk.
#[test]
fn gpu_backend_joins_the_kernel_golden_suite() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6B00);
    let engine = GpuEngine::new();
    let mut scratch = Scratch::default();
    // Ragged ndofs on purpose: never a multiple of a lane or warp width.
    for (dim, level, ndofs) in [(2usize, 4u8, 1usize), (3, 3, 5), (4, 3, 11), (5, 2, 7)] {
        let (dense, compressed) = smooth(dim, level, ndofs);
        for npts in [1usize, 7, 64, 256] {
            let rows = random_rows(dim, npts, &mut rng);
            let block = PointBlock::from_rows(dim, &rows);
            let mut got = vec![0.0; npts * ndofs];
            let run = engine
                .evaluate_batch(&compressed, &block, &mut scratch, &mut got)
                .expect("paper-scale grids launch cleanly");
            assert_eq!(run.timing.launches, npts.div_ceil(64));
            let mut avx2 = vec![0.0; npts * ndofs];
            batch::interpolate_batch(
                KernelKind::Avx2,
                &compressed,
                &block,
                &mut scratch,
                &mut avx2,
            );
            assert_eq!(got, avx2, "dim {dim} npts {npts}: engine vs avx2 walk");
            let mut want = vec![0.0; ndofs];
            for p in 0..npts {
                gold::interpolate(&dense, &rows[p * dim..(p + 1) * dim], &mut want);
                for k in 0..ndofs {
                    let g = got[p * ndofs + k];
                    assert!(
                        (g - want[k]).abs() <= TOL,
                        "dim {dim} npts {npts} point {p} dof {k}: {g} vs gold {}",
                        want[k]
                    );
                }
            }
        }
    }
}

/// The backend dispatch entry (the seam the driver/serve consumers use):
/// observed by the device engine or not, a block evaluates to bitwise
/// the same values for every kernel, narrow blocks included.
#[test]
fn backend_dispatch_matches_every_cpu_kernel() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6B01);
    let gpu = ExecutionBackend::from(GpuEngine::new());
    let mut scratch = Scratch::default();
    for ndofs in [1usize, 3, 7, 11] {
        let state = smooth_state(4, 3, ndofs);
        for npts in [1usize, 2, 7, 64, 256] {
            let rows = random_rows(4, npts, &mut rng);
            let block = PointBlock::from_rows(4, &rows);
            for kind in KernelKind::COMPRESSED {
                let mut got = vec![0.0; npts * ndofs];
                gpu.evaluate_batch(kind, &state, &block, &mut scratch, &mut got);
                let mut cpu = vec![0.0; npts * ndofs];
                ExecutionBackend::Cpu.evaluate_batch(kind, &state, &block, &mut scratch, &mut cpu);
                assert_eq!(got, cpu, "{kind:?} ndofs {ndofs} npts {npts}");
            }
        }
    }
}
