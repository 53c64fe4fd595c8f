//! The block point solver against its one-point case: whatever shares a
//! block with a point, the point's solution is the one it has alone, bit
//! for bit. The oracle here implements `eval` only, so every block goes
//! through the provided `eval_block`; `hddm-core` repeats the comparison
//! on the kernel-backed oracle.

use hddm_olg::{Calibration, OlgModel, PointScratch, PointSolution, PolicyOracle};
use hddm_solver::{NewtonOptions, SolverError};

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

fn setup() -> (OlgModel, Tilted) {
    let model = OlgModel::new(Calibration::small(6, 4, 2, 0.05));
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

fn bits(solution: &Result<PointSolution, SolverError>) -> Result<Vec<u64>, SolverError> {
    let s = solution.as_ref().map_err(Clone::clone)?;
    let report = [
        s.report.iterations as u64,
        s.report.residual_evals as u64,
        s.report.jacobian_evals as u64,
        s.report.residual_norm.to_bits(),
    ];
    let fields = s.savings.iter().chain(&s.values).chain(&s.consumption);
    Ok(fields.map(|v| v.to_bits()).chain(report).collect())
}

#[test]
fn a_block_of_points_equals_a_loop_of_single_points() {
    let (model, mut oracle) = setup();
    let (d, ndofs) = (model.dim(), model.ndofs());
    let options = NewtonOptions::default();
    let mut scratch = PointScratch::default();
    for npts in [1usize, 7, 64, 130] {
        let (xs, guesses) = block(&model, npts);
        for z in 0..model.num_states() {
            let together =
                model.solve_points(z, &xs, &guesses, &mut oracle, &mut scratch, &options);
            assert_eq!(together.len(), npts);
            for (i, solution) in together.iter().enumerate() {
                let alone = model.solve_point(
                    z,
                    &xs[i * d..(i + 1) * d],
                    &guesses[i * ndofs..(i + 1) * ndofs],
                    &mut oracle,
                    &mut PointScratch::default(),
                    &options,
                );
                assert!(alone.is_ok(), "point {i} of {npts}, z = {z}: {alone:?}");
                assert_eq!(bits(solution), bits(&alone), "point {i} of {npts}, z = {z}");
            }
        }
    }
}

#[test]
fn a_rejected_point_does_not_disturb_its_neighbours() {
    let (model, mut oracle) = setup();
    let (d, ndofs) = (model.dim(), model.ndofs());
    let options = NewtonOptions::default();
    let (xs, mut guesses) = block(&model, 9);
    // Negative savings all round: no capital tomorrow, so point 4's
    // initial guess is rejected and its solve fails at once.
    guesses[4 * ndofs..5 * ndofs].fill(-1.0);
    let together = model.solve_points(
        1,
        &xs,
        &guesses,
        &mut oracle,
        &mut PointScratch::default(),
        &options,
    );
    assert!(
        matches!(together[4], Err(SolverError::Rejected(_))),
        "{:?}",
        together[4]
    );
    for (i, solution) in together.iter().enumerate() {
        let alone = model.solve_point(
            1,
            &xs[i * d..(i + 1) * d],
            &guesses[i * ndofs..(i + 1) * ndofs],
            &mut oracle,
            &mut PointScratch::default(),
            &options,
        );
        assert_eq!(alone.is_ok(), i != 4);
        assert_eq!(bits(solution), bits(&alone), "point {i}");
    }
}

#[test]
fn the_value_recursion_reuses_rows_it_would_have_interpolated() {
    // A solve hands its value recursion the rows of Newton's accepted
    // point; a standalone `values_at` interpolates them afresh. Same
    // numbers — and the solve saves exactly that sweep over the next
    // states.
    let (model, mut oracle) = setup();
    let d = model.dim();
    let (xs, guesses) = block(&model, 5);
    let mut scratch = PointScratch::default();
    let options = NewtonOptions::default();
    let solved = model.solve_points(0, &xs, &guesses, &mut oracle, &mut scratch, &options);
    let calls_of_the_solve = oracle.calls;
    let mut evaluations = 0;
    for (i, solution) in solved.iter().enumerate() {
        let solution = solution.as_ref().expect("interior point solves");
        evaluations += solution.report.residual_evals;
        let x = &xs[i * d..(i + 1) * d];
        // Once in the scratch the solve left behind, once in a fresh one.
        for scratch in [&mut scratch, &mut PointScratch::default()] {
            let (values, consumption) =
                model.values_at(0, x, &solution.savings, &mut oracle, scratch);
            assert_eq!(values, solution.values, "point {i}");
            assert_eq!(consumption, solution.consumption, "point {i}");
        }
    }
    assert_eq!(calls_of_the_solve, evaluations * model.num_states());
}
