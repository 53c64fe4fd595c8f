//! Euler-equation error measurement — the standard solution-quality metric
//! of the global-solution literature (Judd 1998; Brumm–Scheidegger 2017,
//! the paper's reference [17]).
//!
//! A candidate policy implies, at any state `(z, x)`, a consumption level
//! `c_a` for each generation and an expectation `β·E[R̃'·u'(c'_{a+1})]`. An
//! exact solution makes them consistent; an approximate one leaves a gap.
//! The unit-free **Euler error** converts the gap into consumption terms:
//!
//! ```text
//! E_a(z, x) = | (β·E[R̃'·u'(c'_{a+1})])^(−1/γ) / c_a − 1 |
//! ```
//!
//! i.e. the relative consumption mistake a household makes by following the
//! approximate policy. `log10 E = −3` means a one-dollar mistake per
//! thousand dollars of consumption — the paper's "satisfactory level of
//! 0.1 percent" termination criterion (Sec. V-D) in this metric.
//!
//! Errors are evaluated **along a simulated path** of the economy, so the
//! statistics weight the ergodic region the model actually visits rather
//! than the corners of the box `B`.

use rand::Rng;

use crate::model::{OlgModel, PointScratch, PolicyOracle};
use crate::simulate::advance;

/// Euler-error statistics over a set of evaluation states.
#[derive(Clone, Debug)]
pub struct EulerErrorReport {
    /// Largest error over all states and generations (`L_∞`).
    pub max_error: f64,
    /// Mean error over all states and generations (`L_1`).
    pub mean_error: f64,
    /// `log10` of [`max_error`](Self::max_error) (the literature's usual
    /// headline number).
    pub max_log10: f64,
    /// `log10` of [`mean_error`](Self::mean_error).
    pub mean_log10: f64,
    /// Per-generation maxima (length `A − 1`), exposing which cohorts the
    /// approximation struggles with.
    pub by_age_max: Vec<f64>,
    /// Number of `(state, generation)` samples aggregated.
    pub samples: usize,
}

impl EulerErrorReport {
    fn from_samples(by_age_max: Vec<f64>, sum: f64, max: f64, samples: usize) -> Self {
        let mean = sum / samples.max(1) as f64;
        EulerErrorReport {
            max_error: max,
            mean_error: mean,
            max_log10: max.max(f64::MIN_POSITIVE).log10(),
            mean_log10: mean.max(f64::MIN_POSITIVE).log10(),
            by_age_max,
            samples,
        }
    }
}

/// Computes the per-generation Euler errors of the policy served by
/// `oracle` at a single state `(z, x)`, writing `A − 1` entries to `out`
/// — [`euler_errors_block`] with one point.
pub fn euler_errors_at(
    model: &OlgModel,
    z: usize,
    x: &[f64],
    oracle: &mut dyn PolicyOracle,
    scratch: &mut PointScratch,
    out: &mut [f64],
) {
    euler_errors_block(model, &[z], x, oracle, scratch, out)
}

/// Computes the per-generation Euler errors of the policy served by
/// `oracle` at the states `(zs[i], row i of xs)`, writing `A − 1` entries
/// per state to `out`. The policy rows are evaluated as one block per
/// discrete state present and the `Ns` next-period interpolations as one
/// block each; per state the numbers are those of a one-state call.
///
/// The policy's own savings row at `(z, x)` is taken as the household
/// decision; the relative Euler residual `r_a = 1 − β·E/u'(c_a)` is then
/// mapped to consumption units via `E_a = |(1 − r_a)^(−1/γ) − 1|` (exact
/// algebra, no re-solve). Residual evaluations that the model rejects
/// (non-positive implied capital) yield an error of 1 — maximally wrong.
pub fn euler_errors_block(
    model: &OlgModel,
    zs: &[usize],
    xs: &[f64],
    oracle: &mut dyn PolicyOracle,
    scratch: &mut PointScratch,
    out: &mut [f64],
) {
    let n = model.cal.lifespan - 1;
    let d = model.dim();
    let ndofs = model.ndofs();
    let m = zs.len();
    debug_assert_eq!(xs.len(), m * d);
    debug_assert_eq!(out.len(), m * n);

    // The policy's savings at every state, one block per discrete state.
    let mut savings = vec![0.0; m * n];
    let mut states = Vec::new();
    let mut rows = Vec::new();
    for z in 0..model.num_states() {
        let here: Vec<usize> = (0..m).filter(|&i| zs[i] == z).collect();
        states.clear();
        for &i in &here {
            states.extend_from_slice(&xs[i * d..(i + 1) * d]);
        }
        rows.resize(here.len() * ndofs, 0.0);
        oracle.eval_block(z, d, &states, &mut rows);
        for (&i, row) in here.iter().zip(rows.chunks_exact(ndofs)) {
            savings[i * n..(i + 1) * n].copy_from_slice(&row[..n]);
        }
    }

    let mut rejected = vec![None; m];
    model.euler_residual_rows(zs, xs, &savings, oracle, scratch, out, &mut rejected);
    let inv_gamma = -1.0 / model.cal.gamma;
    for (errs, rejected) in out.chunks_exact_mut(n).zip(&rejected) {
        if rejected.is_some() {
            errs.fill(1.0);
            continue;
        }
        for e in errs {
            // r = 1 − βE/u'(c) ⇒ c_implied/c = (1 − r)^(−1/γ).
            let ratio = (1.0 - *e).max(0.0).powf(inv_gamma);
            *e = if ratio.is_finite() {
                (ratio - 1.0).abs()
            } else {
                1.0
            };
        }
    }
}

/// Evaluates Euler errors along a simulated path of `periods` periods
/// (after `burn_in` discarded ones), starting from the steady state with
/// shocks drawn from the model's Markov chain — the transition of
/// [`simulate`](crate::simulate::simulate).
pub fn euler_errors_on_path<R: Rng>(
    model: &OlgModel,
    oracle: &mut dyn PolicyOracle,
    periods: usize,
    burn_in: usize,
    rng: &mut R,
) -> EulerErrorReport {
    let cal = &model.cal;
    let n = cal.lifespan - 1;
    let mut z = 0usize;
    let mut x = model.steady.state_vector();
    let mut row = vec![0.0; model.ndofs()];
    let mut errs = vec![0.0; n];
    let mut scratch = PointScratch::default();

    let mut by_age_max = vec![0.0f64; n];
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut samples = 0usize;

    for t in 0..periods + burn_in {
        if t >= burn_in {
            euler_errors_at(model, z, &x, oracle, &mut scratch, &mut errs);
            for (a, &e) in errs.iter().enumerate() {
                by_age_max[a] = by_age_max[a].max(e);
                sum += e;
                max = max.max(e);
                samples += 1;
            }
        }
        oracle.eval(z, &x, &mut row);
        advance(model, &row[..n], &mut x);
        z = cal.chain.step(z, rng);
    }
    EulerErrorReport::from_samples(by_age_max, sum, max, samples)
}

/// States per block of [`euler_errors_on_box`]: wide enough for the
/// batched kernels, small enough that the `Ns` interpolated blocks of a
/// 59-dimensional economy stay a few megabytes.
const BOX_BLOCK: usize = 256;

/// Evaluates Euler errors on `n_points` uniform random states of the box
/// `B` × uniform discrete states — the "worst-case over the domain"
/// complement to [`euler_errors_on_path`]. States are drawn one after the
/// other (`d` uniforms, then `z`) and evaluated in blocks
/// ([`euler_errors_block`]); errors accumulate in the order drawn.
pub fn euler_errors_on_box<R: Rng>(
    model: &OlgModel,
    oracle: &mut dyn PolicyOracle,
    n_points: usize,
    rng: &mut R,
) -> EulerErrorReport {
    let n = model.cal.lifespan - 1;
    let d = model.dim();
    let ns = model.num_states();
    let mut zs = Vec::with_capacity(BOX_BLOCK.min(n_points));
    let mut xs = Vec::with_capacity(BOX_BLOCK.min(n_points) * d);
    let mut errs = Vec::new();
    let mut scratch = PointScratch::default();

    let mut by_age_max = vec![0.0f64; n];
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut samples = 0usize;

    let mut drawn = 0;
    while drawn < n_points {
        let block = BOX_BLOCK.min(n_points - drawn);
        zs.clear();
        xs.clear();
        for _ in 0..block {
            for t in 0..d {
                xs.push(model.lower[t] + (model.upper[t] - model.lower[t]) * rng.gen::<f64>());
            }
            zs.push(rng.gen_range(0..ns));
        }
        errs.resize(block * n, 0.0);
        euler_errors_block(model, &zs, &xs, oracle, &mut scratch, &mut errs);
        for point in errs.chunks_exact(n) {
            for (a, &e) in point.iter().enumerate() {
                by_age_max[a] = by_age_max[a].max(e);
                sum += e;
                max = max.max(e);
                samples += 1;
            }
        }
        drawn += block;
    }
    EulerErrorReport::from_samples(by_age_max, sum, max, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Constant steady-state policy oracle.
    struct SteadyOracle(Vec<f64>);
    impl PolicyOracle for SteadyOracle {
        fn eval(&mut self, _z: usize, _x: &[f64], out: &mut [f64]) {
            out.copy_from_slice(&self.0);
        }
    }

    #[test]
    fn steady_policy_is_exact_in_deterministic_model() {
        let model = OlgModel::new(Calibration::deterministic(8, 6));
        let mut oracle = SteadyOracle(model.steady.dof_row());
        let x = model.steady.state_vector();
        let mut errs = vec![0.0; 7];
        let mut scratch = PointScratch::default();
        euler_errors_at(&model, 0, &x, &mut oracle, &mut scratch, &mut errs);
        for (a, e) in errs.iter().enumerate() {
            assert!(*e < 1e-8, "age {a}: error {e}");
        }
    }

    #[test]
    fn path_errors_vanish_at_deterministic_steady_state() {
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let mut oracle = SteadyOracle(model.steady.dof_row());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let report = euler_errors_on_path(&model, &mut oracle, 30, 0, &mut rng);
        assert_eq!(report.samples, 30 * 5);
        assert!(report.max_error < 1e-8, "max {}", report.max_error);
        assert!(report.max_log10 < -8.0);
    }

    #[test]
    fn constant_policy_is_inexact_off_steady_state() {
        // The steady row is *not* the solution elsewhere in the box, so
        // box-sampled errors must be materially larger than path errors at
        // the steady state.
        let model = OlgModel::new(Calibration::deterministic(6, 4));
        let mut oracle = SteadyOracle(model.steady.dof_row());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let report = euler_errors_on_box(&model, &mut oracle, 200, &mut rng);
        assert!(report.max_error > 1e-3, "max {}", report.max_error);
        assert!(report.mean_error <= report.max_error);
        assert_eq!(report.by_age_max.len(), 5);
        assert!(report.by_age_max.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn stochastic_path_errors_are_bounded_for_steady_oracle() {
        // With small shocks, the steady policy stays a decent approximation
        // along the path: errors are non-zero but bounded well below 1.
        let model = OlgModel::new(Calibration::small(6, 4, 2, 0.03));
        let mut oracle = SteadyOracle(model.steady.dof_row());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let report = euler_errors_on_path(&model, &mut oracle, 100, 10, &mut rng);
        assert!(report.max_error > 0.0);
        assert!(report.max_error < 0.5, "max {}", report.max_error);
        assert!(report.mean_error <= report.max_error);
    }

    #[test]
    fn report_log_fields_match_linear_fields() {
        let report = EulerErrorReport::from_samples(vec![0.01], 0.02, 0.01, 2);
        assert!((report.mean_error - 0.01).abs() < 1e-15);
        assert!((report.max_log10 - (-2.0)).abs() < 1e-12);
        assert!((report.mean_log10 - (-2.0)).abs() < 1e-12);
    }
}
