//! The per-shock interpolants of one policy.
//!
//! When solving the equilibrium system at a point, the time iteration has
//! to "interpolate on the policy functions of all the Ns = 16 states from
//! the previous iteration step at once" (Sec. IV) — the same coordinate
//! `x'` is evaluated on every discrete state's ASG. This type owns one
//! [`CompressedState`] per discrete shock; callers evaluate a state at a
//! point through [`MultiState::evaluate_one`] and at a block through the
//! batch walk on [`MultiState::state`].

use crate::data::{CompressedState, Scratch};
use crate::KernelKind;

/// A bundle of per-shock interpolants `pnext = (p(z=1), …, p(z=Ns))`.
#[derive(Clone, Debug)]
pub struct MultiState {
    states: Vec<CompressedState>,
    ndofs: usize,
}

impl MultiState {
    /// Builds from one compressed state per discrete shock; all must share
    /// `ndofs`.
    pub fn new(states: Vec<CompressedState>) -> Self {
        assert!(!states.is_empty(), "need at least one discrete state");
        let ndofs = states[0].ndofs;
        assert!(
            states.iter().all(|s| s.ndofs == ndofs),
            "all states must share ndofs"
        );
        MultiState { states, ndofs }
    }

    /// Number of discrete states `Ns`.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Degrees of freedom per point.
    #[inline]
    pub fn ndofs(&self) -> usize {
        self.ndofs
    }

    /// Access to an individual state's interpolant.
    #[inline]
    pub fn state(&self, z: usize) -> &CompressedState {
        &self.states[z]
    }

    /// Total grid points across states (`Σ_z M_z`).
    pub fn total_points(&self) -> usize {
        self.states.iter().map(|s| s.grid.nno()).sum()
    }

    /// Points per state (`M_z`, the load-balancing proxy of Sec. IV-A).
    pub fn points_per_state(&self) -> Vec<usize> {
        self.states.iter().map(|s| s.grid.nno()).collect()
    }

    /// Evaluates a single state at `x`.
    pub fn evaluate_one(
        &self,
        kernel: KernelKind,
        z: usize,
        x: &[f64],
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        kernel.evaluate_compressed(&self.states[z], x, scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    fn state_for(shift: f64) -> CompressedState {
        let grid = regular_grid(3, 3);
        let mut surplus = tabulate(&grid, 2, |x, out| {
            out[0] = x[0] + shift;
            out[1] = x[1] * x[2] - shift;
        });
        hierarchize(&grid, &mut surplus, 2);
        CompressedState::new(&grid, &surplus, 2)
    }

    #[test]
    fn evaluates_each_state_at_the_same_point() {
        let ms = MultiState::new(vec![state_for(0.0), state_for(1.0), state_for(2.0)]);
        assert_eq!(ms.num_states(), 3);
        let mut scratch = Scratch::default();
        let mut out = vec![0.0; 2];
        let x = [0.5, 0.5, 0.5];
        for z in 0..3 {
            ms.evaluate_one(KernelKind::X86, z, &x, &mut scratch, &mut out);
            assert!((out[0] - (0.5 + z as f64)).abs() < 1e-12);
            assert!((out[1] - (0.25 - z as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn points_per_state_reports_mz() {
        let ms = MultiState::new(vec![state_for(0.0), state_for(1.0)]);
        let per = ms.points_per_state();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0], per[1]);
        assert_eq!(ms.total_points(), per[0] * 2);
    }

    #[test]
    #[should_panic(expected = "share ndofs")]
    fn mismatched_ndofs_rejected() {
        let grid = regular_grid(2, 2);
        let s1 = CompressedState::new(&grid, &vec![0.0; grid.len()], 1);
        let s2 = CompressedState::new(&grid, &vec![0.0; grid.len() * 2], 2);
        let _ = MultiState::new(vec![s1, s2]);
    }
}
