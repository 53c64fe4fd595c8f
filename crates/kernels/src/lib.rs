//! # hddm-kernels — optimized sparse grid interpolation kernels
//!
//! The kernel family of Sec. V-A of Kübler et al. (IPDPS 2018):
//!
//! | kernel   | data format  | vectorization                           | class   |
//! |----------|--------------|-----------------------------------------|---------|
//! | `gold`   | dense `nno×d`| none (baseline of [18])                 | —       |
//! | `x86`    | compressed   | none — isolates the data-structure gain | unfused |
//! | `avx`    | compressed   | 4-wide mul+add                          | unfused |
//! | `avx2`   | compressed   | 4-wide FMA                              | fused   |
//! | `avx512` | compressed   | 8-wide FMA + intra-kernel threading     | fused   |
//!
//! `x86` is the compressed format "in a most trivial way" — scalar code,
//! no explicit vectorization (Fig. 5, left) — so it isolates the gain of
//! the data structure itself (≈4.4× / 4.15× over `gold` in Fig. 6). Its
//! loops, which every compressed kernel shares, cost `|xps| + nno ×
//! nfreq` plus the surplus accumulation: the basis fill of every `xps`
//! entry, then the chain walk, which forms every chain's product without
//! a branch and compacts the survivors into a list, then the addition of
//! each survivor's surplus row. Fig. 5 leaves a chain at its first zero
//! factor instead; on Table II's grid about a quarter of the chains
//! survive at a point, and that exit's mispredicted branches cost more
//! than the products it saves (over 2,048 points on a 2-vCPU AVX-512
//! Xeon the early-exit loop took 162–185 ms, the branch-free walk 29–53
//! ms, and the rest of a single-point pass about 200 ms). The values are
//! bitwise the same.
//!
//! The compressed kernels round by one rule, in two classes: the unfused
//! ones multiply, then add; the fused ones fuse every element of a row of
//! `n` but the last `n % 4`, which multiply, then add. So `x86` ≡
//! `avx` and `avx2` ≡ `avx512` bit for bit, and a kernel's instruction set
//! is a speed choice only. Kernels are selected at runtime through
//! [`KernelKind`]. Each class's multiply-add is defined once ([`batch`])
//! and serves a kernel's single-point evaluation, its batch walk and its
//! portable fallback, which a host without the instruction set runs with
//! the same bits. There is no `cuda` walk: `hddm-gpu` prices these
//! kernels' batch walk as device launches (a single point is a one-point
//! block).
//!
//! Block consumers evaluate through an [`ExecutionBackend`]. There is one
//! batch walk ([`batch`]), and it also gives the Newton Jacobian its
//! gradient points ([`Gradients`]), which get their value rows too; a
//! backend other than `Cpu` does not evaluate differently, it
//! *observes*: the walk reports per-chunk [`ChunkCounts`] of its value
//! rows and a [`BlockObserver`] —
//! `hddm-gpu`'s device model — prices them. The dependency points from
//! the model to this crate.

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod data;
pub mod gold;
pub mod multi;
pub mod vector;

pub use backend::{BlockObserver, ExecutionBackend};
pub use batch::{ChunkCounts, Gradients, PointBlock, BATCH_CHUNK};
pub use data::{CompressedState, DenseState, Scratch};
pub use multi::MultiState;

/// Runtime-selectable interpolation kernel, named as in Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Dense-format scalar baseline.
    Gold,
    /// Compressed-format scalar.
    X86,
    /// Compressed + AVX.
    Avx,
    /// Compressed + AVX2/FMA.
    Avx2,
    /// Compressed + AVX-512 (single-threaded core; use
    /// [`vector::interpolate_avx512_mt`] for the threaded variant).
    Avx512,
}

impl KernelKind {
    /// All compressed-format kernels (everything but `gold`).
    pub const COMPRESSED: [KernelKind; 4] = [
        KernelKind::X86,
        KernelKind::Avx,
        KernelKind::Avx2,
        KernelKind::Avx512,
    ];

    /// The kernel's name as printed in Table II / Fig. 6.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Gold => "gold",
            KernelKind::X86 => "x86",
            KernelKind::Avx => "avx",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Whether this kernel runs with its native instruction set on this
    /// host (scalar kernels always do) — the one instruction-set
    /// detection.
    pub fn native(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                KernelKind::Gold | KernelKind::X86 => true,
                KernelKind::Avx => std::arch::is_x86_feature_detected!("avx"),
                KernelKind::Avx2 => {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                KernelKind::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(self, KernelKind::Gold | KernelKind::X86)
        }
    }

    /// Evaluates a compressed-format interpolant. Panics for
    /// [`KernelKind::Gold`], which needs the dense format.
    pub fn evaluate_compressed(
        self,
        state: &CompressedState,
        x: &[f64],
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        batch::point(self, state, x, scratch, 0..state.grid.nno(), out);
    }

    /// Evaluates a compressed-format interpolant at a whole
    /// [`PointBlock`] (`out` is point-major `npts × ndofs`). Each variant
    /// is bitwise equal to looping its single-point counterpart over the
    /// block, but walks the compressed structure — and streams the
    /// surplus matrix — once per block instead of once per point: the
    /// [`ExecutionBackend::Cpu`] walk. Panics for [`KernelKind::Gold`],
    /// which needs the dense format.
    pub fn evaluate_compressed_batch(
        self,
        state: &CompressedState,
        block: &PointBlock,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        ExecutionBackend::Cpu.evaluate_batch(self, state, block, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    #[test]
    fn kernel_names_match_table2() {
        assert_eq!(KernelKind::Gold.name(), "gold");
        assert_eq!(KernelKind::Avx512.name(), "avx512");
        assert_eq!(KernelKind::COMPRESSED.len(), 4);
    }

    /// Every compressed kernel is within 1e-12 of `gold`: on a `d = 4`
    /// grid with 5 coefficients at one point, and on a `d = 5` grid with 4
    /// at 50.
    #[test]
    fn dispatch_is_consistent_across_kernels() {
        let fifty = (0..50)
            .map(|s| {
                (0..5)
                    .map(|t| ((s * 7 + t * 13) as f64 * 0.0831 + 0.021) % 1.0)
                    .collect()
            })
            .collect();
        type Coefficient = fn(&[f64], usize) -> f64;
        let cases: [(usize, usize, Coefficient, Vec<Vec<f64>>); 2] = [
            (
                4,
                5,
                |x, k| (k as f64 + 1.0) * x.iter().sum::<f64>(),
                vec![vec![0.21, 0.77, 0.48, 0.95]],
            ),
            (
                5,
                4,
                |x, k| x.iter().map(|v| v.powi(k as i32 + 1)).sum(),
                fifty,
            ),
        ];
        for (dim, ndofs, f, points) in cases {
            let grid = regular_grid(dim, 3);
            let mut surplus = tabulate(&grid, ndofs, |x, out| {
                for (k, o) in out.iter_mut().enumerate() {
                    *o = f(x, k);
                }
            });
            hierarchize(&grid, &mut surplus, ndofs);
            let dense = DenseState::new(&grid, surplus.clone(), ndofs);
            let compressed = CompressedState::new(&grid, &surplus, ndofs);
            let mut scratch = Scratch::default();
            for x in points {
                let mut want = vec![0.0; ndofs];
                gold::interpolate(&dense, &x, &mut want);
                for kind in KernelKind::COMPRESSED {
                    let mut got = vec![0.0; ndofs];
                    kind.evaluate_compressed(&compressed, &x, &mut scratch, &mut got);
                    for k in 0..ndofs {
                        assert!(
                            (got[k] - want[k]).abs() < 1e-12,
                            "d={dim} {kind:?} at {x:?} dof {k}: {} vs {}",
                            got[k],
                            want[k]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gold kernel requires DenseState")]
    fn gold_dispatch_through_compressed_panics() {
        let grid = regular_grid(2, 2);
        let compressed = CompressedState::new(&grid, &vec![0.0; grid.len()], 1);
        let mut scratch = Scratch::default();
        let mut out = [0.0];
        KernelKind::Gold.evaluate_compressed(&compressed, &[0.5, 0.5], &mut scratch, &mut out);
    }
}
