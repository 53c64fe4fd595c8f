//! # hddm-kernels — optimized sparse grid interpolation kernels
//!
//! The kernel family of Sec. V-A of Kübler et al. (IPDPS 2018):
//!
//! | kernel   | data format  | vectorization                             |
//! |----------|--------------|-------------------------------------------|
//! | `gold`   | dense `nno×d`| none (baseline of [18])                   |
//! | `x86`    | compressed   | none — isolates the data-structure gain   |
//! | `avx`    | compressed   | 4-wide mul+add                            |
//! | `avx2`   | compressed   | 4-wide FMA                                |
//! | `avx512` | compressed   | 8-wide FMA + intra-kernel threading       |
//!
//! There is no `cuda` walk: `hddm-gpu` prices these kernels' batch walk
//! as device launches (a single point is a one-point block). Kernels are
//! selected at runtime through [`KernelKind`]; on hosts without the
//! requested instruction set the vector kernels degrade to portable
//! fixed-lane code with identical results.
//!
//! Block consumers evaluate through an [`ExecutionBackend`]. There is one
//! batch walk ([`batch`]); a backend other than `Cpu` does not evaluate
//! differently, it *observes*: the walk reports per-chunk
//! [`ChunkCounts`] and a [`BlockObserver`] — `hddm-gpu`'s device model —
//! prices them. The dependency points from the model to this crate. The
//! Newton Jacobian's gradient walk ([`batch::interpolate_gradient_batch`])
//! sits beside the value walk and is priced by no backend.

#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod data;
pub mod gold;
pub mod lanes;
pub mod multi;
pub mod vector;
pub mod x86;

pub use backend::{BlockObserver, ExecutionBackend};
pub use batch::{ChunkCounts, Gradients, PointBlock, BATCH_CHUNK};
pub use data::{CompressedState, DenseState, Scratch};
pub use multi::MultiState;
pub use vector::{axpy_best, VectorIsa};

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
    /// host (scalar kernels always do).
    pub fn native(self) -> bool {
        match self {
            KernelKind::Gold | KernelKind::X86 => true,
            KernelKind::Avx => VectorIsa::Avx.native(),
            KernelKind::Avx2 => VectorIsa::Avx2.native(),
            KernelKind::Avx512 => VectorIsa::Avx512.native(),
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
        match self {
            KernelKind::Gold => panic!("gold kernel requires DenseState"),
            KernelKind::X86 => x86::interpolate(state, x, scratch, out),
            KernelKind::Avx => vector::interpolate_avx(state, x, scratch, out),
            KernelKind::Avx2 => vector::interpolate_avx2(state, x, scratch, out),
            KernelKind::Avx512 => vector::interpolate_avx512(state, x, scratch, out),
        }
    }

    /// Evaluates a compressed-format interpolant at a whole
    /// [`PointBlock`] (`out` is point-major `npts × ndofs`). Each variant
    /// is bitwise equal to looping its single-point counterpart over the
    /// block, but walks the compressed structure — and streams the
    /// surplus matrix — once per block instead of once per point. Panics
    /// for [`KernelKind::Gold`], which needs the dense format.
    pub fn evaluate_compressed_batch(
        self,
        state: &CompressedState,
        block: &PointBlock,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        batch::walk(self, state, block, scratch, out, |_| {});
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

    #[test]
    fn dispatch_is_consistent_across_kernels() {
        let grid = regular_grid(4, 3);
        let ndofs = 5;
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = (k as f64 + 1.0) * x.iter().sum::<f64>();
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        let dense = DenseState::new(&grid, surplus.clone(), ndofs);
        let compressed = CompressedState::new(&grid, &surplus, ndofs);
        let mut scratch = Scratch::default();
        let x = [0.21, 0.77, 0.48, 0.95];
        let mut want = vec![0.0; ndofs];
        gold::interpolate(&dense, &x, &mut want);
        for kind in KernelKind::COMPRESSED {
            let mut got = vec![0.0; ndofs];
            kind.evaluate_compressed(&compressed, &x, &mut scratch, &mut got);
            for k in 0..ndofs {
                assert!((got[k] - want[k]).abs() < 1e-12, "{kind:?} dof {k}");
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
