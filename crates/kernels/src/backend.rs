//! The backend seam of the batched kernels: every consumer that speaks
//! [`PointBlock`] (the point solver's Newton rounds, the driver's frontier
//! warm starts and hierarchization, warm-start projection, the serve
//! batch-solve path) evaluates through an
//! [`ExecutionBackend`]; see the crate docs for why it observes.

use std::sync::Arc;

use crate::{batch, ChunkCounts, CompressedState, Gradients, KernelKind, PointBlock, Scratch};

/// Receives the counts of every block an observed backend evaluates.
pub trait BlockObserver: Send + Sync + std::fmt::Debug {
    /// `counts` holds one record per chunk of the block just evaluated
    /// against `state`, in chunk order.
    fn observe(&self, state: &CompressedState, counts: &[ChunkCounts]);
}

/// Which engine evaluates `PointBlock` batches. Carried by
/// `DriverConfig`/`ExecutorConfig`.
#[derive(Clone, Debug, Default)]
pub enum ExecutionBackend {
    /// The host kernels, dispatched by `KernelKind` (the default).
    #[default]
    Cpu,
    /// The host kernels, with every block's counts reported to a shared
    /// observer (`hddm_gpu::GpuEngine` converts into this variant).
    Observed(Arc<dyn BlockObserver>),
}

impl ExecutionBackend {
    /// Evaluates a compressed interpolant at a whole block through
    /// `kernel`'s batch walk; `Observed` then reports the walk's counts.
    /// Per point the values are bitwise `kernel`'s single-point values.
    pub fn evaluate_batch(
        &self,
        kernel: KernelKind,
        state: &CompressedState,
        block: &PointBlock,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        let state = std::slice::from_ref(state);
        self.evaluate_states_batch(kernel, state, block, scratch, out, Gradients::default())
    }

    /// The batch walk of a run of states that walk alike
    /// (`MultiState::runs`; see [`batch::interpolate_states_batch`]):
    /// `values` is `states × npts × ndofs`, and the last
    /// `gradients.points` points get a gradient as well. `Observed` is
    /// told of every state, in order, with the counts of the block's value
    /// rows — what [`Self::evaluate_batch`] of the same block tells it —
    /// and of nothing for an empty block: no backend prices a gradient.
    pub fn evaluate_states_batch(
        &self,
        kernel: KernelKind,
        states: &[CompressedState],
        block: &PointBlock,
        scratch: &mut Scratch,
        values: &mut [f64],
        gradients: Gradients<'_>,
    ) {
        match self {
            ExecutionBackend::Cpu => {
                batch::walk(kernel, states, block, scratch, values, gradients, |_| {})
            }
            ExecutionBackend::Observed(observer) => {
                let counts = batch::interpolate_states_batch(
                    kernel, states, block, scratch, values, gradients,
                );
                if !counts.is_empty() {
                    for state in states {
                        observer.observe(state, &counts)
                    }
                }
            }
        }
    }
}
