//! The block Newton on fixtures that reach each of its exits. The
//! literals below are `(x bits, NewtonReport)` or the `SolverError` each
//! fixture ends in when its caller answers Jacobian requests with forward
//! differences ([`common::ForwardDifferences`]), under the product-form
//! Broyden update. A change to that update's rounding moves the two
//! fixtures that take Broyden steps in more than one unknown
//! (`max_iterations`, `stall_with_fresh_jacobian`) and no other. Every
//! system must end there bit for bit — alone, and in a block of every
//! fixture of its size under every fixture's options. Every fixture runs
//! at the solver's one schedule (`newton`'s constants); only the
//! iteration budget varies.

mod common;

use common::{solve_one, ForwardDifferences};
use hddm_solver::{
    newton_rounds, Factors, NewtonOptions, NewtonReport, NewtonWorkspace, SolverError,
};

type Residual = fn(&[f64], &mut [f64]) -> Result<(), SolverError>;

struct Fixture {
    name: &'static str,
    f: Residual,
    x0: Vec<f64>,
    opts: NewtonOptions,
}

fn linear(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    out[0] = 2.0 * x[0] + x[1] - 5.0;
    out[1] = x[0] - 3.0 * x[1] + 1.0;
    Ok(())
}

fn rosenbrock(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    out[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
    out[1] = 200.0 * (x[1] - x[0] * x[0]);
    Ok(())
}

/// Undefined for `x ≤ 0`: full steps from far out overshoot into it.
fn sqrt_root(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    if x[0] <= 0.0 {
        return Err(SolverError::Rejected("x must be positive".into()));
    }
    out[0] = x[0].sqrt() - 1.0;
    Ok(())
}

/// Undefined for `x₁ > 1`: from `x₁ = 1` the second finite-difference
/// column lands there.
fn capped(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    if x[1] > 1.0 {
        return Err(SolverError::Rejected(format!("x1 above the cap: {}", x[1])));
    }
    out[0] = x[0] * x[0] - 2.0 + x[1];
    out[1] = x[1] - 0.5 * x[0];
    Ok(())
}

fn cubic3(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    out[0] = x[0] * x[0] * x[0] - x[1] + 0.1 * x[2];
    out[1] = x[1] * x[1] * x[1] + x[0] - 2.0 * x[2] * x[2];
    out[2] = x[2] * x[2] - x[0] * x[1] - 1.0 / (1.0 + x[2] * x[2]);
    Ok(())
}

fn rootless(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    out[0] = 1.0 + x[0] * x[0];
    Ok(())
}

fn rank_one(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    out[0] = x[0] + x[1] - 1.0;
    out[1] = 2.0 * (x[0] + x[1]) - 2.5;
    Ok(())
}

fn fixtures() -> Vec<Fixture> {
    let d = NewtonOptions::default();
    let fixture = |name, f, x0: &[f64], opts| Fixture {
        name,
        f,
        x0: x0.to_vec(),
        opts,
    };
    let with = |max_iterations| NewtonOptions { max_iterations };
    vec![
        fixture("linear", linear, &[0.0, 0.0], d),
        fixture("rejected_trials", sqrt_root, &[5.0], with(100)),
        fixture("rejected_fd_column", capped, &[0.5, 1.0], d),
        fixture("max_iterations", rosenbrock, &[-1.2, 1.0], with(12)),
        fixture("rootless", rootless, &[0.0], with(15)),
        fixture("converged_at_guess", linear, &[2.0, 1.0], d),
        // The fixture of `next_trial`'s forced refresh: each stall on a
        // Broyden-updated inverse (iteration 3 after three updates, then
        // 5, 7, 9 and 11 after one) forces a fresh Jacobian, and it gives
        // up at iteration 12, not a multiple of the refresh interval, on
        // a forced one. (`max_iterations` takes the forced refresh once,
        // at iteration 1.)
        fixture(
            "stall_with_fresh_jacobian",
            cubic3,
            &[0.5, -0.5, -1.0],
            with(400),
        ),
        fixture("singular_jacobian", rank_one, &[0.3, 0.1], d),
        fixture("rejected_initial_guess", sqrt_root, &[-1.0], d),
        fixture("zero_iterations", linear, &[0.0, 0.0], with(0)),
    ]
}

/// A solve's end state in comparable form: the final iterate's bits and
/// the report (iterations, residual-norm bits, residual evaluations,
/// Jacobians), or the error. Residual evaluations count a Jacobian's `n`
/// forward-difference columns, the residuals it costs its caller.
type Outcome = (Vec<u64>, Result<(usize, u64, usize, usize), SolverError>);

fn outcome(x: &[f64], result: Result<NewtonReport, SolverError>) -> Outcome {
    (
        x.iter().map(|v| v.to_bits()).collect(),
        result.map(|r| {
            (
                r.iterations,
                r.residual_norm.to_bits(),
                r.residual_evals + x.len() * r.jacobian_evals,
                r.jacobian_evals,
            )
        }),
    )
}

fn solve_alone(f: Residual, x0: &[f64], opts: &NewtonOptions) -> Outcome {
    let mut x = x0.to_vec();
    let result = solve_one(f, &mut x, opts);
    outcome(&x, result)
}

/// All `systems` (same size) as one block.
fn solve_block(
    systems: &[&Fixture],
    opts: &NewtonOptions,
    work: &mut NewtonWorkspace,
) -> Vec<Outcome> {
    let n = systems[0].x0.len();
    let mut xs: Vec<f64> = systems.iter().flat_map(|s| s.x0.iter().copied()).collect();
    let mut rounds =
        ForwardDifferences(|s: usize, x: &[f64], out: &mut [f64]| (systems[s].f)(x, out));
    let results = newton_rounds(n, &mut xs, opts, work, &mut Factors::default(), &mut rounds);
    xs.chunks_exact(n)
        .zip(results)
        .map(|(x, result)| outcome(x, result))
        .collect()
}

/// Where each fixture ends, in the same order as [`fixtures`].
fn pinned() -> Vec<(&'static str, Outcome)> {
    use SolverError::*;
    let ok = |x: &[u64], iterations, norm, evals, jacobians| {
        (x.to_vec(), Ok((iterations, norm, evals, jacobians)))
    };
    let err = |x: &[u64], error| (x.to_vec(), Err(error));
    vec![
        (
            "linear",
            ok(&[0x4000000000000000, 0x3ff0000000000000], 2, 0, 5, 1),
        ),
        (
            "rejected_trials",
            ok(&[0x3fefffffffe32408], 7, 0x3ddcdbf800000000, 10, 2),
        ),
        (
            "rejected_fd_column",
            err(
                &[0x3fe0000000000000, 0x3ff0000000000000],
                Rejected("x1 above the cap: 1.0000001".into()),
            ),
        ),
        (
            "max_iterations",
            err(
                &[0xbff2632d814a7c2c, 0x3ff51e9d79cf608f],
                MaxIterations {
                    residual: f64::from_bits(0x4012830636051077),
                },
            ),
        ),
        (
            "rootless",
            err(
                &[0x0000000000000000],
                LineSearchStalled {
                    iteration: 0,
                    residual: 1.0,
                },
            ),
        ),
        (
            "converged_at_guess",
            ok(&[0x4000000000000000, 0x3ff0000000000000], 0, 0, 1, 0),
        ),
        (
            "stall_with_fresh_jacobian",
            err(
                &[0x3fe50b4adbdd4a8a, 0xbfb3131d2124df57, 0xbfe5709ab9e3bb71],
                LineSearchStalled {
                    iteration: 12,
                    residual: f64::from_bits(0x3fd2aecc5f7c4c23),
                },
            ),
        ),
        (
            "singular_jacobian",
            err(
                &[0x3fd3333333333333, 0x3fb999999999999a],
                SingularJacobian { column: 1 },
            ),
        ),
        (
            "rejected_initial_guess",
            err(&[0xbff0000000000000], Rejected("x must be positive".into())),
        ),
        (
            "zero_iterations",
            err(&[0, 0], MaxIterations { residual: 5.0 }),
        ),
    ]
}

#[test]
fn every_fixture_alone_ends_where_the_scalar_loop_ended() {
    let pinned = pinned();
    let fixtures = fixtures();
    assert_eq!(fixtures.len(), pinned.len());
    for (fixture, (name, want)) in fixtures.iter().zip(&pinned) {
        assert_eq!(fixture.name, *name);
        let got = solve_alone(fixture.f, &fixture.x0, &fixture.opts);
        assert_eq!(&got, want, "{name}");
    }
}

#[test]
fn a_block_of_all_fixtures_equals_each_alone() {
    let fixtures = fixtures();
    let pinned = pinned();
    for n in 1..=3 {
        let systems: Vec<&Fixture> = fixtures.iter().filter(|f| f.x0.len() == n).collect();
        assert!(!systems.is_empty(), "no size-{n} fixture");
        // Each system twice, so a size with one fixture still makes a
        // block.
        let systems = [&systems[..], &systems[..]].concat();
        // Every option set any fixture uses, so each system also runs in
        // a block under the options its literal was captured with.
        for chosen in &fixtures {
            let block = solve_block(&systems, &chosen.opts, &mut NewtonWorkspace::default());
            for (system, got) in systems.iter().zip(&block) {
                let alone = solve_alone(system.f, &system.x0, &chosen.opts);
                assert_eq!(
                    got, &alone,
                    "{} in a block under {}'s options",
                    system.name, chosen.name
                );
                if system.name == chosen.name {
                    let (_, want) = pinned
                        .iter()
                        .find(|(name, _)| *name == system.name)
                        .unwrap();
                    assert_eq!(got, want, "{} in a block", system.name);
                }
            }
        }
    }
}

#[test]
fn a_reused_workspace_does_not_leak_state_between_blocks() {
    // A block, then one of another size, then the first again: the later
    // calls run in buffers the earlier ones sized and dirtied.
    let fixtures = fixtures();
    let opts = NewtonOptions::default();
    let of_size = |n| -> Vec<&Fixture> { fixtures.iter().filter(|f| f.x0.len() == n).collect() };
    let fresh = |n| solve_block(&of_size(n), &opts, &mut NewtonWorkspace::default());
    let mut work = NewtonWorkspace::default();
    for n in [2, 3, 1, 2] {
        assert_eq!(
            solve_block(&of_size(n), &opts, &mut work),
            fresh(n),
            "size {n}"
        );
    }
}
