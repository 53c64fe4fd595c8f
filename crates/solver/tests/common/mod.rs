//! A test-side caller of `newton_rounds` for plain residual functions:
//! `hddm-solver` only takes supplied Jacobians, so this one answers a
//! Jacobian request with forward differences.

use hddm_solver::{
    newton_rounds, NewtonOptions, NewtonReport, NewtonWorkspace, Round, Rounds, SolverError,
};

/// `ForwardDifferences(f)`: `f(s, x, out)` writes system `s`'s residual at
/// `x` into `out` or rejects `x`. Every row gets its residual; a Jacobian
/// row at `x` also gets its Jacobian, column by column,
/// `(F(x + h_j e_j) − F(x)) / h_j` with `h_j = 1e-7 · max(|x_j|, 1)` taken
/// as the representable step, and is rejected with the first rejected
/// evaluation's error.
pub struct ForwardDifferences<F>(pub F);

impl<F> Rounds for ForwardDifferences<F>
where
    F: FnMut(usize, &[f64], &mut [f64]) -> Result<(), SolverError>,
{
    fn round(&mut self, round: Round<'_>) {
        let n = round.rows.len() / round.owners.len();
        let mut requests = round.jacobian_rows.iter().peekable();
        let (mut slot, mut stepped, mut column) = (0, vec![0.0; n], vec![0.0; n]);
        for (i, x) in round.rows.chunks_exact(n).enumerate() {
            let s = round.owners[i];
            let fx = &mut round.out[i * n..(i + 1) * n];
            let mut result = (self.0)(s, x, fx);
            if requests.next_if(|&&row| row == i).is_some() {
                let jac = &mut round.jacobians[slot * n * n..(slot + 1) * n * n];
                slot += 1;
                stepped.copy_from_slice(x);
                for j in 0..n {
                    stepped[j] = x[j] + 1e-7 * x[j].abs().max(1.0);
                    let h = stepped[j] - x[j]; // the representable step
                    result = result.and((self.0)(s, &stepped, &mut column));
                    for (a, (ahead, here)) in column.iter().zip(&*fx).enumerate() {
                        jac[a * n + j] = (ahead - here) / h;
                    }
                    stepped[j] = x[j];
                }
            }
            round.rejected[i] = result.err();
        }
    }
}

/// One system from `x` (overwritten with the last iterate).
pub fn solve_one<F>(
    mut f: F,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonReport, SolverError>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<(), SolverError>,
{
    let mut rounds = ForwardDifferences(|_: usize, x: &[f64], out: &mut [f64]| f(x, out));
    let mut work = NewtonWorkspace::default();
    newton_rounds(x.len(), x, opts, &mut work, &mut rounds)
        .pop()
        .expect("one system in, one outcome out")
}
