//! Policy-function storage: one adaptive sparse grid interpolant per
//! discrete state, with domain scaling and the kernel-backed
//! [`PolicyOracle`] of the per-point solver. Each round of the block
//! Newton asks it for one [`PointBlock`] per next discrete state
//! (`Ns = 16` blocks per round at the paper's scale), every block as wide
//! as the round has rows.

use std::ops::Range;

use hddm_asg::BoxDomain;
use hddm_kernels::{
    batch, CompressedState, ExecutionBackend, Gradients, KernelKind, MultiState, PointBlock,
    Scratch,
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
        self.oracle_on(kernel, ExecutionBackend::Cpu)
    }

    /// An oracle view whose block evaluations go through `backend` (an
    /// observed backend is told of every block; single-point calls are
    /// the host kernel either way).
    pub fn oracle_on(&self, kernel: KernelKind, backend: ExecutionBackend) -> AsgOracle<'_> {
        let dim = self.domain.dim();
        AsgOracle {
            set: self,
            kernel,
            backend,
            scratch: Scratch::default(),
            phys: vec![0.0; dim],
            unit: vec![0.0; dim],
            unit_rows: Vec::new(),
            block: PointBlock::new(dim),
            unit_scales: Vec::new(),
            traffic: OracleTraffic::default(),
        }
    }
}

/// What an [`AsgOracle`] has evaluated so far: calls and the points in
/// them (a single-point call is a block of one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleTraffic {
    /// Evaluation calls.
    pub blocks: u64,
    /// Points over all calls.
    pub points: u64,
}

/// [`PolicyOracle`] implementation on compressed ASG kernels: clamps the
/// physical query into `B` (the paper's domain truncation), rescales to
/// the unit cube, and evaluates the requested state's interpolant.
pub struct AsgOracle<'a> {
    set: &'a PolicySet,
    kernel: KernelKind,
    backend: ExecutionBackend,
    scratch: Scratch,
    phys: Vec<f64>,
    unit: Vec<f64>,
    /// A block's clamped, rescaled points (point-major) and their SoA
    /// form, reused from block to block.
    unit_rows: Vec<f64>,
    block: PointBlock,
    /// Per gradient state and dimension, `d unit / d physical`.
    unit_scales: Vec<f64>,
    traffic: OracleTraffic,
}

impl PolicyOracle for AsgOracle<'_> {
    fn eval(&mut self, z_next: usize, x_next: &[f64], out: &mut [f64]) {
        self.clamp_to_unit(x_next);
        self.set
            .states
            .evaluate_one(self.kernel, z_next, &self.unit, &mut self.scratch, out);
        self.traffic.blocks += 1;
        self.traffic.points += 1;
    }

    /// The block as one `PointBlock` through the backend's batch entry:
    /// per point bitwise [`Self::eval`].
    fn eval_block(&mut self, z_next: usize, dim: usize, xs: &[f64], out: &mut [f64]) {
        self.unit_rows.clear();
        for x in xs.chunks_exact(dim) {
            self.clamp_to_unit(x);
            self.unit_rows.extend_from_slice(&self.unit);
        }
        self.block.set_rows(&self.unit_rows);
        self.backend.evaluate_batch(
            self.kernel,
            self.set.states.state(z_next),
            &self.block,
            &mut self.scratch,
            out,
        );
        self.traffic.blocks += 1;
        self.traffic.points += self.block.len() as u64;
    }

    /// The value states and the gradient states as one gradient walk (an
    /// observed backend instead sees the value states as a block of their
    /// own and no gradient walk); the walk's unit-cube gradient times
    /// `1/width` where the clamp left a coordinate alone, `0` where it
    /// moved it. Only the value states are traffic.
    fn eval_block_gradient(
        &mut self,
        z_next: usize,
        dim: usize,
        xs: &[f64],
        grads: usize,
        coeffs: Range<usize>,
        values: &mut [f64],
        gradient: &mut [f64],
    ) {
        let npts = xs.len() / dim;
        let from = npts - grads;
        self.unit_rows.clear();
        self.unit_scales.clear();
        for (p, x) in xs.chunks_exact(dim).enumerate() {
            self.clamp_to_unit(x);
            self.unit_rows.extend_from_slice(&self.unit);
            if p >= from {
                let inside = self.phys.iter().zip(x).map(|(c, x)| c == x);
                let widths = (0..dim).map(|t| self.set.domain.width(t));
                let scales = inside
                    .zip(widths)
                    .map(|(inside, w)| inside as u8 as f64 / w);
                self.unit_scales.extend(scales);
            }
        }
        let state = self.set.states.state(z_next);
        let (value_rows, walked) = match &self.backend {
            ExecutionBackend::Cpu => (0, &self.unit_rows[..]),
            observed => {
                let (value_units, gradient_units) = self.unit_rows.split_at(from * dim);
                if from > 0 {
                    self.block.set_rows(value_units);
                    let value_out = &mut values[..from * state.ndofs];
                    observed.evaluate_batch(
                        self.kernel,
                        state,
                        &self.block,
                        &mut self.scratch,
                        value_out,
                    );
                }
                (from, gradient_units)
            }
        };
        self.block.set_rows(walked);
        let len = coeffs.len();
        batch::interpolate_gradient_batch(
            self.kernel,
            state,
            &self.block,
            &mut self.scratch,
            &mut values[value_rows * state.ndofs..],
            Gradients {
                points: grads,
                coeffs,
                out: gradient,
            },
        );
        for (partials, &scale) in gradient.chunks_exact_mut(len.max(1)).zip(&self.unit_scales) {
            for v in partials {
                *v *= scale;
            }
        }
        if from > 0 {
            self.traffic.blocks += 1;
            self.traffic.points += from as u64;
        }
    }
}

impl AsgOracle<'_> {
    /// Clamps the physical point into `B` and rescales it into
    /// `self.unit`.
    fn clamp_to_unit(&mut self, x_phys: &[f64]) {
        self.phys.copy_from_slice(x_phys);
        self.set.domain.clamp(&mut self.phys);
        self.set.domain.to_unit(&self.phys, &mut self.unit);
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
            .evaluate_one(self.kernel, z, unit, &mut self.scratch, out);
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
            let mut oracle = set.oracle_on(KernelKind::Avx2, backend);
            let (mut values, mut gradient) = ([0.0; 3], [f64::NAN; 4]);
            oracle.eval_block_gradient(1, 2, &xs, 2, 0..1, &mut values, &mut gradient);
            assert!((values[0] + 6.0).abs() < 1e-9, "{values:?}");
            assert!((gradient[0] + 2.0).abs() < 1e-12, "{gradient:?}");
            assert!(gradient[1].abs() < 1e-12, "{gradient:?}");
            assert_eq!(gradient[2..], [0.0, 0.0]);
            let traffic = oracle.take_traffic();
            assert_eq!((traffic.blocks, traffic.points), (1, 1));
        }
        // The observer priced the value state and no gradient walk.
        assert_eq!(seen.0.load(std::sync::atomic::Ordering::Relaxed), 1);
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
