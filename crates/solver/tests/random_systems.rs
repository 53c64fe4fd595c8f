//! Property tests for the solver crate: LU against random well-conditioned
//! systems, Newton against affine systems (must converge in one step) and
//! randomized monotone nonlinear systems, and the block Newton against
//! any grouping of the systems it is given. Jacobians are forward
//! differences ([`common::ForwardDifferences`]).

mod common;

use proptest::prelude::*;

use common::{solve_one, ForwardDifferences};
use hddm_solver::linalg::{lu_factor, lu_solve};
use hddm_solver::{
    newton_rounds, Factors, NewtonOptions, NewtonReport, NewtonWorkspace, SolverError,
};

/// `y = A x` for a row-major square `A`.
fn matvec(a: &[f64], x: &[f64], y: &mut [f64]) {
    for (yi, row) in y.iter_mut().zip(a.chunks_exact(x.len())) {
        *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
    }
}

/// A row-major `n × n` diagonally dominant matrix and a vector.
fn diag_dominant(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = rnd();
        }
        a[i * n + i] += n as f64 * 0.75 + 2.0;
    }
    let x: Vec<f64> = (0..n).map(|_| rnd() * 4.0).collect();
    (a, x)
}

/// `A x + tanh(x) − 0.8`, undefined where `x₀` exceeds `cap` — so some
/// systems have trial points rejected and some fail outright.
fn capped_monotone(a: &[f64], cap: f64, x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    if x[0] > cap {
        return Err(SolverError::Rejected(format!("x0 = {} above {cap}", x[0])));
    }
    matvec(a, x, out);
    for (o, v) in out.iter_mut().zip(x) {
        *o += v.tanh() - 0.8;
    }
    Ok(())
}

/// Final iterate bits plus the report's fields (or the error).
fn end_state(x: &[f64], result: Result<NewtonReport, SolverError>) -> String {
    let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
    let result = result.map(|r| {
        (
            r.iterations,
            r.residual_norm.to_bits(),
            r.residual_evals,
            r.jacobian_evals,
        )
    });
    format!("{bits:?} {result:?}")
}

proptest! {
    // Cases and RNG seed are pinned so CI explores the identical system
    // population every run — a failure here reproduces locally verbatim.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0x5010_0002))]

    /// LU solves random diagonally dominant systems to high accuracy.
    #[test]
    fn lu_random_systems(n in 1usize..24, seed in any::<u64>()) {
        let (a, x_true) = diag_dominant(n, seed);
        let mut b = vec![0.0; n];
        matvec(&a, &x_true, &mut b);
        let mut lu = a.clone();
        let mut pivots = vec![0; n];
        lu_factor(&mut lu, &mut pivots).unwrap();
        lu_solve(&lu, &pivots, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    /// Newton on affine systems converges essentially immediately.
    #[test]
    fn newton_affine(n in 1usize..12, seed in any::<u64>()) {
        let (a, x_true) = diag_dominant(n, seed);
        let mut rhs = vec![0.0; n];
        matvec(&a, &x_true, &mut rhs);
        let mut x = vec![0.0; n];
        let report = solve_one(
            |x, out| {
                matvec(&a, x, out);
                for (o, r) in out.iter_mut().zip(&rhs) {
                    *o -= r;
                }
                Ok(())
            },
            &mut x,
            &NewtonOptions::default(),
        ).unwrap();
        prop_assert!(report.iterations <= 3, "{report:?}");
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }

    /// Newton on a strictly monotone nonlinear perturbation of a dominant
    /// linear system finds the unique root.
    #[test]
    fn newton_monotone_nonlinear(n in 1usize..10, seed in any::<u64>()) {
        let (a, _) = diag_dominant(n, seed);
        let mut x = vec![0.25; n];
        let report = solve_one(
            |x, out| {
                matvec(&a, x, out);
                for (i, o) in out.iter_mut().enumerate() {
                    *o += x[i].tanh() - 0.8;
                }
                Ok(())
            },
            &mut x,
            &NewtonOptions { max_iterations: 120 },
        ).unwrap();
        prop_assert!(report.residual_norm < 1e-9);
        // Verify the root independently.
        let mut check = vec![0.0; n];
        matvec(&a, &x, &mut check);
        for (i, c) in check.iter().enumerate() {
            prop_assert!((c + x[i].tanh() - 0.8).abs() < 1e-8);
        }
    }

    /// Systems are independent: whichever others share its block, and in
    /// whatever order, a system ends exactly where it ends alone.
    #[test]
    fn block_partition_never_changes_a_result(
        n in 1usize..6,
        count in 2usize..14,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let opts = NewtonOptions { max_iterations: 40 };
        let systems: Vec<(Vec<f64>, f64, Vec<f64>)> = (0..count)
            .map(|_| {
                let (a, start) = diag_dominant(n, next());
                // Caps from "never binds" down to "the guess is rejected".
                let cap = start[0] + (next() % 5) as f64 - 1.0;
                (a, cap, start)
            })
            .collect();
        let alone: Vec<String> = systems
            .iter()
            .map(|(a, cap, start)| {
                let mut x = start.clone();
                let result = solve_one(|x, out| capped_monotone(a, *cap, x, out), &mut x, &opts);
                end_state(&x, result)
            })
            .collect();

        // A random order, cut into random consecutive blocks.
        let mut order: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut work = NewtonWorkspace::default();
        let mut at = 0;
        while at < count {
            let members = &order[at..(at + 1 + (next() % 5) as usize).min(count)];
            let mut xs: Vec<f64> = members.iter().flat_map(|&s| systems[s].2.clone()).collect();
            let mut rounds = ForwardDifferences(|o: usize, x: &[f64], out: &mut [f64]| {
                let (a, cap, _) = &systems[members[o]];
                capped_monotone(a, *cap, x, out)
            });
            let mut factors = Factors::default();
            let results = newton_rounds(n, &mut xs, &opts, &mut work, &mut factors, &mut rounds);
            for ((&s, x), result) in members.iter().zip(xs.chunks_exact(n)).zip(results) {
                prop_assert_eq!(&end_state(x, result), &alone[s], "system {} of {:?}", s, members);
            }
            at += members.len();
        }
    }
}
