//! Shared helpers for the benchmark harness: grid construction with
//! synthetic surpluses, deterministic random evaluation points, timing
//! utilities, and the OLG point-solve calibration used by the Fig. 7/8
//! models — plus what only one reproduction bin runs: the Fig. 7 node
//! model ([`nodesim`]), the Fig. 8 strong-scaling simulator ([`sim`]),
//! and the two `ablations` baselines, the hash-table storage scheme
//! ([`hashtab`]) and the chain walk that streams every row instead of the
//! survivors' ([`ablation`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod hashtab;
pub mod nodesim;
pub mod sim;

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_asg::{regular_grid, SparseGrid};
use hddm_kernels::{CompressedState, DenseState};

/// The paper's per-point coefficient count (`2·59`).
pub const NDOFS: usize = 118;

/// Builds the Table-I grid of a given level in `d = 59` dimensions.
pub fn paper_grid(level: u8) -> SparseGrid {
    regular_grid(59, level)
}

/// Synthetic surpluses: deterministic pseudo-random values with the decay
/// profile of a smooth function (`|α| ~ 2^{−2·excess}`), so kernel timing
/// sees realistic zero/non-zero chain behaviour.
pub fn synthetic_surpluses(grid: &SparseGrid, ndofs: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dim = grid.dim();
    let mut out = Vec::with_capacity(grid.len() * ndofs);
    for node in grid.nodes() {
        let excess = node.level_sum(dim) - dim as u32;
        let scale = 0.25f64.powi(excess as i32);
        for _ in 0..ndofs {
            out.push(scale * (rng.gen::<f64>() - 0.5));
        }
    }
    out
}

/// Deterministic uniform evaluation points in the unit cube (`n × dim`).
pub fn random_points(dim: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen::<f64>()).collect()
}

/// A ready-to-run kernel test case (both data formats of Table II).
pub struct KernelCase {
    /// Case name ("7k" / "300k").
    pub name: &'static str,
    /// The grid.
    pub grid: SparseGrid,
    /// Dense-format state (gold kernel).
    pub dense: DenseState,
    /// Compressed-format state (all other kernels).
    pub compressed: CompressedState,
}

impl KernelCase {
    /// Builds one of the Table-I cases.
    pub fn build(name: &'static str, level: u8, ndofs: usize) -> KernelCase {
        let grid = paper_grid(level);
        let surplus = synthetic_surpluses(&grid, ndofs, 0xA5A5 + level as u64);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        KernelCase {
            name,
            grid,
            dense,
            compressed,
        }
    }
}

/// Times `f` over `reps` calls and returns average seconds per call.
pub fn time_avg<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps.max(1) as f64
}

/// Measures the single-thread per-point OLG solve time on the *headline*
/// 59-dimensional model against a level-`level` policy grid — the one
/// calibration input of the Fig. 7/8 machine models.
pub fn calibrate_point_seconds(sample_points: usize, level: u8) -> f64 {
    use hddm_core::{DriverConfig, OlgStep, TimeIteration};
    use hddm_kernels::KernelKind;
    use hddm_olg::{Calibration, OlgModel, PolicyOracle};
    use hddm_sched::PoolConfig;

    let model = OlgModel::new(Calibration::headline());
    let step = OlgStep::new(model);
    let ti = TimeIteration::new(
        step,
        DriverConfig {
            kernel: KernelKind::Avx2,
            start_level: level,
            pool: PoolConfig {
                threads: 1,
                grain: 1,
            },
            ..Default::default()
        },
    );
    let domain = ti.policy.domain.clone();
    let grid = regular_grid(59, level);
    let n = sample_points.min(grid.len());
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let mut scratch = hddm_olg::PointScratch::default();
    let mut unit = vec![0.0; 59];
    let mut phys = vec![0.0; 59];
    let mut warm = vec![0.0; NDOFS];
    let step = OlgStep::new(OlgModel::new(Calibration::headline()));

    let start = Instant::now();
    let mut solved = 0usize;
    for p in 0..n {
        grid.unit_point_of(p * grid.len() / n, &mut unit);
        domain.from_unit(&unit, &mut phys);
        oracle.eval(p % 16, &phys, &mut warm);
        if step
            .model
            .solve_point(
                p % 16,
                &phys,
                &warm,
                &mut oracle,
                &mut scratch,
                &step.newton,
            )
            .is_ok()
        {
            solved += 1;
        }
    }
    start.elapsed().as_secs_f64() / solved.max(1) as f64
}
