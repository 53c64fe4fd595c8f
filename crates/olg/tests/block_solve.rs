//! The block point solver against its one-point case: whatever shares a
//! block with a point, the point's solution is the one it has alone, bit
//! for bit. The oracle here implements `eval` only, so every block goes
//! through the provided `eval_block` and every Jacobian's `∇ₓ pnext`
//! through the provided forward differences of `eval_block_gradient`; one
//! comparison repeats with a closed-form gradient, and `hddm-core`
//! repeats them on the kernel-backed oracle. Every comparison runs in each
//! exponent class of the CRRA kernel: `γ` of 1 (log utility), 2 and 3
//! take the multiplication form, 2.5 the `powf` fall-through.

use std::ops::Range;

use hddm_olg::{Calibration, OlgModel, PointScratch, PointSolution, PolicyOracle};
use hddm_solver::{NewtonOptions, NewtonReport, SolverError};

const GAMMAS: [f64; 4] = [1.0, 2.0, 2.5, 3.0];

/// A smooth stand-in for `pnext`: the steady row, tilted by the state.
struct Tilted {
    row: Vec<f64>,
    center: Vec<f64>,
    calls: usize,
}

impl PolicyOracle for Tilted {
    fn eval(&mut self, z: usize, x: &[f64], out: &mut [f64]) {
        self.calls += 1;
        let drift: f64 = x.iter().zip(&self.center).map(|(x, c)| x - c).sum();
        for (k, (o, r)) in out.iter_mut().zip(&self.row).enumerate() {
            *o = r * (1.0 + 0.02 * drift + 0.01 * z as f64) + 0.001 * k as f64 * drift;
        }
    }
}

impl Tilted {
    /// `∂ out_k / ∂ x_t`, the same for every `t`.
    fn partial(&self, k: usize) -> f64 {
        0.02 * self.row[k] + 0.001 * k as f64
    }
}

/// [`Tilted`] with its closed-form gradient.
struct ExactTilted(Tilted);

impl PolicyOracle for ExactTilted {
    fn eval(&mut self, z: usize, x: &[f64], out: &mut [f64]) {
        self.0.eval(z, x, out)
    }

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
        let from = xs.len() / dim - grads;
        self.eval_block(
            z_next,
            dim,
            &xs[..from * dim],
            &mut values[..from * self.0.row.len()],
        );
        for partials in gradient.chunks_exact_mut(coeffs.len()) {
            for (d, k) in partials.iter_mut().zip(coeffs.clone()) {
                *d = self.0.partial(k);
            }
        }
    }
}

fn setup(gamma: f64) -> (OlgModel, Tilted) {
    let model = OlgModel::new(Calibration {
        gamma,
        ..Calibration::small(6, 4, 2, 0.05)
    });
    let oracle = Tilted {
        row: model.steady.dof_row(),
        center: model.steady.state_vector(),
        calls: 0,
    };
    (model, oracle)
}

/// `npts` states scattered through the box, with the steady row as guess.
fn block(model: &OlgModel, npts: usize) -> (Vec<f64>, Vec<f64>) {
    let d = model.dim();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut xs = Vec::with_capacity(npts * d);
    for _ in 0..npts {
        for t in 0..d {
            let u = 0.2 + 0.6 * uniform();
            xs.push(model.lower[t] + (model.upper[t] - model.lower[t]) * u);
        }
    }
    (xs, model.steady.dof_row().repeat(npts))
}

/// A dof row and the Newton report behind it, as bits.
fn bits(row: &[f64], report: &NewtonReport) -> Vec<u64> {
    let report = [
        report.iterations as u64,
        report.residual_evals as u64,
        report.jacobian_evals as u64,
        report.residual_norm.to_bits(),
    ];
    row.iter().map(|v| v.to_bits()).chain(report).collect()
}

/// Row `i` of a block solve, or the error it failed with.
fn block_bits(
    reports: &[Result<NewtonReport, SolverError>],
    rows: &[f64],
    ndofs: usize,
    i: usize,
) -> Result<Vec<u64>, SolverError> {
    let report = reports[i].as_ref().map_err(Clone::clone)?;
    Ok(bits(&rows[i * ndofs..(i + 1) * ndofs], report))
}

fn point_bits(solution: &Result<PointSolution, SolverError>) -> Result<Vec<u64>, SolverError> {
    let s = solution.as_ref().map_err(Clone::clone)?;
    Ok(bits(&s.dof_row(), &s.report))
}

#[test]
fn a_block_of_points_equals_a_loop_of_single_points() {
    for gamma in GAMMAS {
        let (model, oracle) = setup(gamma);
        a_block_equals_its_points(&model, oracle, gamma);
    }
}

#[test]
fn a_block_equals_its_points_with_a_closed_form_gradient() {
    for gamma in GAMMAS {
        let (model, oracle) = setup(gamma);
        a_block_equals_its_points(&model, ExactTilted(oracle), gamma);
    }
}

fn a_block_equals_its_points(model: &OlgModel, mut oracle: impl PolicyOracle, gamma: f64) {
    let (d, ndofs) = (model.dim(), model.ndofs());
    let options = NewtonOptions::default();
    let mut scratch = PointScratch::default();
    for npts in [1usize, 7, 64, 130] {
        let (xs, guesses) = block(model, npts);
        let mut rows = vec![0.0; npts * ndofs];
        for z in 0..model.num_states() {
            let together = model.solve_points(
                z,
                &xs,
                &guesses,
                &mut oracle,
                &mut scratch,
                &options,
                &mut rows,
            );
            assert_eq!(together.len(), npts);
            for i in 0..npts {
                let alone = model.solve_point(
                    z,
                    &xs[i * d..(i + 1) * d],
                    &guesses[i * ndofs..(i + 1) * ndofs],
                    &mut oracle,
                    &mut PointScratch::default(),
                    &options,
                );
                let at = format!("γ = {gamma}, point {i} of {npts}, z = {z}");
                assert!(alone.is_ok(), "{at}: {alone:?}");
                assert_eq!(
                    block_bits(&together, &rows, ndofs, i),
                    point_bits(&alone),
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn a_rejected_point_does_not_disturb_its_neighbours() {
    for gamma in GAMMAS {
        let (model, mut oracle) = setup(gamma);
        let (d, ndofs) = (model.dim(), model.ndofs());
        let options = NewtonOptions::default();
        let (xs, mut guesses) = block(&model, 9);
        // Negative savings all round: no capital tomorrow, so point 4's
        // initial guess is rejected and its solve fails at once.
        guesses[4 * ndofs..5 * ndofs].fill(-1.0);
        let mut rows = vec![0.0; 9 * ndofs];
        let together = model.solve_points(
            1,
            &xs,
            &guesses,
            &mut oracle,
            &mut PointScratch::default(),
            &options,
            &mut rows,
        );
        assert!(
            matches!(together[4], Err(SolverError::Rejected(_))),
            "{:?}",
            together[4]
        );
        for i in 0..9 {
            let alone = model.solve_point(
                1,
                &xs[i * d..(i + 1) * d],
                &guesses[i * ndofs..(i + 1) * ndofs],
                &mut oracle,
                &mut PointScratch::default(),
                &options,
            );
            assert_eq!(alone.is_ok(), i != 4);
            assert_eq!(
                block_bits(&together, &rows, ndofs, i),
                point_bits(&alone),
                "γ = {gamma}, point {i}"
            );
        }
    }
}

#[test]
fn the_value_recursion_reuses_rows_it_would_have_interpolated() {
    // A solve hands its value recursion the rows of Newton's accepted
    // point; a standalone `values_at` interpolates them afresh. Same
    // numbers — and the solve saves exactly that sweep over the next
    // states. The tally counts the rows the reports count.
    for gamma in GAMMAS {
        let (model, mut oracle) = setup(gamma);
        let (d, ndofs) = (model.dim(), model.ndofs());
        let (xs, guesses) = block(&model, 5);
        let mut scratch = PointScratch::default();
        let options = NewtonOptions::default();
        let mut rows = vec![0.0; 5 * ndofs];
        let solved = model.solve_points(
            0,
            &xs,
            &guesses,
            &mut oracle,
            &mut scratch,
            &options,
            &mut rows,
        );
        let calls_of_the_solve = oracle.calls;
        let tally = scratch.take_tally();
        assert_eq!(scratch.take_tally(), Default::default(), "drained");
        let (mut evaluations, mut jacobians, mut iterations) = (0, 0, 0);
        for (i, report) in solved.iter().enumerate() {
            let report = report.as_ref().expect("interior point solves");
            evaluations += report.residual_evals;
            jacobians += report.jacobian_evals;
            iterations += report.iterations;
            let x = &xs[i * d..(i + 1) * d];
            let (savings, values) = rows[i * ndofs..(i + 1) * ndofs].split_at(d);
            let alone = model
                .solve_point(
                    0,
                    x,
                    &guesses[i * ndofs..(i + 1) * ndofs],
                    &mut oracle,
                    &mut PointScratch::default(),
                    &options,
                )
                .expect("interior point solves");
            // Once in the scratch the solve left behind, once in a fresh one.
            for scratch in [&mut scratch, &mut PointScratch::default()] {
                let (again, consumption) = model.values_at(0, x, savings, &mut oracle, scratch);
                assert_eq!(again, values, "γ = {gamma}, point {i}");
                assert_eq!(consumption, alone.consumption, "γ = {gamma}, point {i}");
            }
        }
        // Per next state, a residual row is one call and a Jacobian the
        // provided forward differences: its state, then `d` stepped ones.
        assert_eq!(
            calls_of_the_solve,
            (evaluations + jacobians * (1 + d)) * model.num_states()
        );
        assert_eq!(
            (tally.systems, tally.residual_rows),
            (5, evaluations as u64),
            "γ = {gamma}"
        );
        assert_eq!(
            (tally.jacobians, tally.newton_iterations),
            (jacobians as u64, iterations as u64),
            "γ = {gamma}"
        );
    }
}
