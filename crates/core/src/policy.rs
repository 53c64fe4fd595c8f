//! Policy-function storage: one adaptive sparse grid interpolant per
//! discrete state, with domain scaling and the kernel-backed
//! [`PolicyOracle`] of the per-point solver. Each round of the block
//! Newton asks it once for `pnext` of every next discrete state (`Ns = 16`
//! at the paper's scale) at one block as wide as the round has rows: the
//! rows are clamped, rescaled and transposed into a [`PointBlock`] once,
//! and every run of states sharing a grid is one walk.

use std::ops::Range;

use hddm_asg::BoxDomain;
use hddm_kernels::{
    CompressedState, ExecutionBackend, Gradients, KernelKind, MultiState, PointBlock, Scratch,
};
use hddm_olg::PolicyOracle;

/// The policy `p = (p(z=1), …, p(z=Ns))` of one time-iteration step:
/// per-state compressed interpolants over a shared physical domain. This
/// is the one in-memory form of a solved policy — the driver iterates on
/// it, a [`Checkpoint`](crate::Checkpoint) and a cached surface of the
/// scenario engine hold it, and [`crate::record`] is its byte form.
#[derive(Clone, Debug)]
pub struct PolicySet {
    /// Per-state interpolants (compressed, chain-ordered surpluses).
    pub states: MultiState,
    /// The physical box `B` all states share.
    pub domain: BoxDomain,
}

impl PolicySet {
    /// Bundles per-state interpolants with the domain.
    pub fn new(states: Vec<CompressedState>, domain: BoxDomain) -> Self {
        PolicySet {
            states: MultiState::new(states),
            domain,
        }
    }

    /// Points per state (`M_z`).
    pub fn points_per_state(&self) -> Vec<usize> {
        self.states.points_per_state()
    }

    /// An oracle view over this policy set using `kernel` on the host
    /// kernels.
    pub fn oracle(&self, kernel: KernelKind) -> AsgOracle<'_> {
        self.oracle_on(kernel, ExecutionBackend::Cpu, OracleBuffers::default())
    }

    /// An oracle view whose block evaluations go through `backend` (an
    /// observed backend is told of every block; single-point calls are
    /// the host kernel either way), working in `buffers` — fresh ones, or
    /// the ones an earlier oracle gave back ([`AsgOracle::into_buffers`]).
    pub fn oracle_on(
        &self,
        kernel: KernelKind,
        backend: ExecutionBackend,
        buffers: OracleBuffers,
    ) -> AsgOracle<'_> {
        let dim = self.domain.dim();
        let mut buffers = buffers;
        buffers.phys.resize(dim, 0.0);
        buffers.unit.resize(dim, 0.0);
        if buffers.block.dim() != dim {
            buffers.block = PointBlock::new(dim);
        }
        AsgOracle {
            set: self,
            kernel,
            backend,
            buffers,
            traffic: OracleTraffic::default(),
        }
    }
}

/// The buffers of an [`AsgOracle`]: the kernels' [`Scratch`] and the
/// block it loads. Between oracles they carry capacity only — every call
/// overwrites what it reads — so a worker that keeps them from one oracle
/// to the next gets the same values and allocates less.
#[derive(Clone, Debug, Default)]
pub struct OracleBuffers {
    /// The kernels' buffers, also lent to the driver's other batch
    /// evaluations.
    pub(crate) scratch: Scratch,
    phys: Vec<f64>,
    unit: Vec<f64>,
    /// A block's clamped, rescaled points (point-major) and their SoA
    /// form, reused from block to block.
    unit_rows: Vec<f64>,
    block: PointBlock,
    /// Per gradient state and dimension, `d unit / d physical`.
    unit_scales: Vec<f64>,
}

/// What an [`AsgOracle`] has evaluated so far: `pnext` value evaluations
/// (a single-point call is a block of one), the points in them, and the
/// kernel walks that evaluated them — one per run of states sharing a
/// grid, so `blocks / walks` is the mean number of states a walk served.
/// A walk's gradient points are none of these, though the walk gives them
/// their value rows too: a point solver's start row is one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleTraffic {
    /// Evaluations, one per state and call.
    pub blocks: u64,
    /// Points over all evaluations.
    pub points: u64,
    /// Walks that evaluated them.
    pub walks: u64,
}

/// [`PolicyOracle`] implementation on compressed ASG kernels: clamps the
/// physical query into `B` (the paper's domain truncation), rescales to
/// the unit cube, and evaluates the requested states' interpolants.
pub struct AsgOracle<'a> {
    set: &'a PolicySet,
    kernel: KernelKind,
    backend: ExecutionBackend,
    buffers: OracleBuffers,
    traffic: OracleTraffic,
}

impl PolicyOracle for AsgOracle<'_> {
    fn eval(&mut self, z_next: usize, x_next: &[f64], out: &mut [f64]) {
        self.clamp_to_unit(x_next);
        self.set.states.evaluate_one(
            self.kernel,
            z_next,
            &self.buffers.unit,
            &mut self.buffers.scratch,
            out,
        );
        self.count(1, 1, 1);
    }

    /// The block as one `PointBlock` through the backend's batch entry:
    /// per point bitwise [`Self::eval`].
    fn eval_block(&mut self, z_next: usize, dim: usize, xs: &[f64], out: &mut [f64]) {
        let npts = self.load_block(dim, xs, 0);
        self.backend.evaluate_batch(
            self.kernel,
            self.set.states.state(z_next),
            &self.buffers.block,
            &mut self.buffers.scratch,
            out,
        );
        self.count(1, npts, 1);
    }

    /// The block clamped, rescaled and transposed once, then one walk per
    /// run of states sharing a grid (`MultiState::runs`) through the
    /// backend, its last `grads` points gradient points; the gradient is
    /// the walk's unit-cube gradient times `1/width` where the clamp left
    /// a coordinate alone, `0` where it moved it. Every point's value rows
    /// are, per state, bitwise [`Self::eval_block`] and that state's walk
    /// alone. Only the value states are traffic.
    fn eval_states_block(
        &mut self,
        ns: usize,
        dim: usize,
        xs: &[f64],
        grads: usize,
        coeffs: Range<usize>,
        values: &mut [f64],
        gradient: &mut [f64],
    ) {
        let set = self.set;
        let states = &set.states;
        assert_eq!(ns, states.num_states(), "one block per next state");
        let npts = self.load_block(dim, xs, grads);
        if npts == 0 {
            return;
        }
        let per_state = npts * states.ndofs();
        let gradient_per_state = grads * dim * coeffs.len();
        for run in states.runs() {
            let out = &mut gradient[run.start * gradient_per_state..run.end * gradient_per_state];
            self.backend.evaluate_states_batch(
                self.kernel,
                &states.states()[run.clone()],
                &self.buffers.block,
                &mut self.buffers.scratch,
                &mut values[run.start * per_state..run.end * per_state],
                Gradients {
                    points: grads,
                    coeffs: coeffs.clone(),
                    out,
                },
            );
        }
        let scales = self.buffers.unit_scales.iter().cycle();
        for (partials, &scale) in gradient.chunks_exact_mut(coeffs.len().max(1)).zip(scales) {
            for v in partials {
                *v *= scale;
            }
        }
        let from = npts - grads;
        if from > 0 {
            self.count(ns, ns * from, states.runs().len());
        }
    }
}

impl AsgOracle<'_> {
    /// Clamps the physical point into `B` and rescales it into
    /// `self.buffers.unit`.
    fn clamp_to_unit(&mut self, x_phys: &[f64]) {
        self.buffers.phys.copy_from_slice(x_phys);
        self.set.domain.clamp(&mut self.buffers.phys);
        self.set
            .domain
            .to_unit(&self.buffers.phys, &mut self.buffers.unit);
    }

    /// Clamps and rescales the point-major `xs` into the buffers' block and,
    /// for its last `grads` points, records their `unit_scales`; returns
    /// the number of points.
    fn load_block(&mut self, dim: usize, xs: &[f64], grads: usize) -> usize {
        let npts = xs.len() / dim;
        let from = npts - grads;
        self.buffers.unit_rows.clear();
        self.buffers.unit_scales.clear();
        for (p, x) in xs.chunks_exact(dim).enumerate() {
            self.clamp_to_unit(x);
            self.buffers.unit_rows.extend_from_slice(&self.buffers.unit);
            if p >= from {
                let inside = self.buffers.phys.iter().zip(x).map(|(c, x)| c == x);
                let widths = (0..dim).map(|t| self.set.domain.width(t));
                let scales = inside
                    .zip(widths)
                    .map(|(inside, w)| inside as u8 as f64 / w);
                self.buffers.unit_scales.extend(scales);
            }
        }
        self.buffers.block.set_rows(&self.buffers.unit_rows);
        npts
    }

    /// Adds one call's evaluations, points and walks to the traffic.
    fn count(&mut self, blocks: usize, points: usize, walks: usize) {
        self.traffic.blocks += blocks as u64;
        self.traffic.points += points as u64;
        self.traffic.walks += walks as u64;
    }

    /// Ends the view and gives back its buffers for the next oracle.
    pub fn into_buffers(self) -> OracleBuffers {
        self.buffers
    }

    /// Returns the traffic since the last call and starts a new tally.
    pub fn take_traffic(&mut self) -> OracleTraffic {
        std::mem::take(&mut self.traffic)
    }

    /// Evaluates the interpolant of state `z` at a *unit-cube* point
    /// (driver-internal shortcut when the point is already scaled).
    pub fn eval_unit(&mut self, z: usize, unit: &[f64], out: &mut [f64]) {
        self.set
            .states
            .evaluate_one(self.kernel, z, unit, &mut self.buffers.scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    fn linear_state(domain: &BoxDomain, slope: f64) -> CompressedState {
        // Interpolant of f(x) = slope · x_phys[0] over the domain.
        let grid = regular_grid(domain.dim(), 3);
        let lo = domain.lo()[0];
        let width = domain.width(0);
        let mut surplus = tabulate(&grid, 1, |u, out| {
            out[0] = slope * (lo + u[0] * width);
        });
        hierarchize(&grid, &mut surplus, 1);
        CompressedState::new(&grid, &surplus, 1)
    }

    #[test]
    fn oracle_scales_physical_coordinates() {
        let domain = BoxDomain::new(vec![2.0, -1.0], vec![6.0, 1.0]);
        let set = PolicySet::new(
            vec![linear_state(&domain, 1.0), linear_state(&domain, -2.0)],
            domain,
        );
        let mut oracle = set.oracle(KernelKind::X86);
        let mut out = [0.0];
        oracle.eval(0, &[3.0, 0.0], &mut out);
        assert!((out[0] - 3.0).abs() < 1e-9, "{}", out[0]);
        oracle.eval(1, &[5.0, 0.5], &mut out);
        assert!((out[0] + 10.0).abs() < 1e-9, "{}", out[0]);
    }

    /// Counts the points of the blocks an observed backend is told of.
    #[derive(Debug, Default)]
    struct Seen(std::sync::atomic::AtomicUsize);

    impl hddm_kernels::BlockObserver for Seen {
        fn observe(&self, _: &CompressedState, counts: &[hddm_kernels::ChunkCounts]) {
            let points = counts.iter().map(|c| c.chunk).sum();
            self.0
                .fetch_add(points, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn oracle_gradient_is_physical_and_zero_where_the_clamp_moved_the_state() {
        let domain = BoxDomain::new(vec![2.0, -1.0], vec![6.0, 1.0]);
        let set = PolicySet::new(
            vec![linear_state(&domain, 1.5), linear_state(&domain, -2.0)],
            domain,
        );
        // One value state, then a gradient state inside the box and one
        // that the clamp moves in `x₀`.
        let xs = [3.0, 0.2, 4.5, -0.3, 7.0, 0.5];
        let seen = std::sync::Arc::new(Seen::default());
        for backend in [
            ExecutionBackend::Cpu,
            ExecutionBackend::Observed(seen.clone()),
        ] {
            let mut oracle = set.oracle_on(KernelKind::Avx2, backend, OracleBuffers::default());
            let (mut values, mut gradient) = ([0.0; 6], [f64::NAN; 8]);
            oracle.eval_states_block(2, 2, &xs, 2, 0..1, &mut values, &mut gradient);
            for (z, slope) in [1.5, -2.0].into_iter().enumerate() {
                let (values, gradient) = (&values[z * 3..], &gradient[z * 4..(z + 1) * 4]);
                // Every state's value row, the clamped one's at the box.
                for (value, x) in values[..3].iter().zip([3.0, 4.5, 6.0]) {
                    assert!((value - x * slope).abs() < 1e-9, "{values:?}");
                }
                assert!((gradient[0] - slope).abs() < 1e-12, "{gradient:?}");
                assert!(gradient[1].abs() < 1e-12, "{gradient:?}");
                assert_eq!(gradient[2..], [0.0, 0.0]);
            }
            // Both states share a grid: one walk served them, and only
            // the value state is traffic.
            let traffic = oracle.take_traffic();
            assert_eq!((traffic.blocks, traffic.points, traffic.walks), (2, 2, 1));
        }
        // The observer priced each state's three value rows and no
        // gradient.
        assert_eq!(seen.0.load(std::sync::atomic::Ordering::Relaxed), 6);
    }

    #[test]
    fn oracle_clamps_out_of_box_queries() {
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let set = PolicySet::new(vec![linear_state(&domain, 1.0)], domain);
        let mut oracle = set.oracle(KernelKind::Avx2);
        let mut out = [0.0];
        oracle.eval(0, &[5.0, 0.5], &mut out); // x0 clamped to 1.0
        assert!((out[0] - 1.0).abs() < 1e-9);
        oracle.eval(0, &[-3.0, 0.5], &mut out); // clamped to 0.0
        assert!(out[0].abs() < 1e-9);
    }
}
