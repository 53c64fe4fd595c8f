//! The block Newton against the scalar loop it replaced. The literals
//! below are `(x bits, NewtonReport)` or the `SolverError` that the
//! pre-block `newton` (one system, one evaluation per call) produced on
//! each fixture, captured before that loop was deleted. Every system must
//! still end there bit for bit — alone, and in a block with every other
//! fixture of its size under every fixture's options.

use hddm_solver::{
    newton, newton_block, NewtonOptions, NewtonReport, NewtonWorkspace, SolverError,
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

/// Curved enough that a Broyden-updated Jacobian stalls the line search.
fn bent(x: &[f64], out: &mut [f64]) -> Result<(), SolverError> {
    out[0] = 3.0 * x[0] - 4.5 * x[0] * x[0] * x[0] + x[1] * x[1] - 0.5;
    out[1] = x[0] * x[0] * x[0] - x[1] + 0.2 / (1.0 + 12.5 * x[1] * x[1]);
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
    let with = |max_iterations, broyden_refresh| NewtonOptions {
        max_iterations,
        broyden_refresh,
        ..d
    };
    vec![
        fixture("linear", linear, &[0.0, 0.0], d),
        // Full Newton: the valley defeats rank-1 updates.
        fixture(
            "rosenbrock_full_newton",
            rosenbrock,
            &[-1.2, 1.0],
            with(500, 1),
        ),
        fixture("rejected_trials", sqrt_root, &[5.0], with(100, 5)),
        fixture("rejected_fd_column", capped, &[0.5, 1.0], d),
        // Never refreshed on schedule, so every Jacobian after the first
        // is the forced refresh of a stalled search.
        fixture("stall_then_refresh", bent, &[2.0, 2.0], with(400, 1000)),
        fixture(
            "stall_then_refresh_3d",
            cubic3,
            &[2.0, -2.5, 1.5],
            with(400, 1000),
        ),
        fixture("max_iterations", rosenbrock, &[-1.2, 1.0], with(12, 5)),
        fixture("rootless", rootless, &[0.0], with(15, 5)),
        fixture("converged_at_guess", linear, &[2.0, 1.0], d),
        fixture(
            "stall_with_fresh_jacobian",
            cubic3,
            &[0.5, -1.0, 1.5],
            with(400, 5),
        ),
        fixture("singular_jacobian", rank_one, &[0.3, 0.1], d),
        fixture("rejected_initial_guess", sqrt_root, &[-1.0], d),
        fixture("zero_iterations", linear, &[0.0, 0.0], with(0, 5)),
    ]
}

/// A solve's end state in comparable form: the final iterate's bits and
/// the report (iterations, residual-norm bits, residual evaluations,
/// Jacobians), or the error.
type Outcome = (Vec<u64>, Result<(usize, u64, usize, usize), SolverError>);

fn outcome(x: &[f64], result: Result<NewtonReport, SolverError>) -> Outcome {
    (
        x.iter().map(|v| v.to_bits()).collect(),
        result.map(|r| {
            (
                r.iterations,
                r.residual_norm.to_bits(),
                r.residual_evals,
                r.jacobian_evals,
            )
        }),
    )
}

fn solve_alone(f: Residual, x0: &[f64], opts: &NewtonOptions) -> Outcome {
    let mut x = x0.to_vec();
    let result = newton(f, &mut x, opts);
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
    let results = newton_block(n, &mut xs, opts, work, |owners, rows, out, rejected| {
        let evaluated = rows.chunks_exact(n).zip(out.chunks_exact_mut(n));
        for ((&s, (row, out)), rejected) in owners.iter().zip(evaluated).zip(rejected) {
            *rejected = (systems[s].f)(row, out).err();
        }
    });
    xs.chunks_exact(n)
        .zip(results)
        .map(|(x, result)| outcome(x, result))
        .collect()
}

/// What the scalar loop returned, fixture by fixture (same order as
/// [`fixtures`]).
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
            "rosenbrock_full_newton",
            ok(
                &[0x3feffffffffff069, 0x3fefffffffffe0da],
                180,
                0x3d75d6fffffffcf4,
                1662,
                180,
            ),
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
            "stall_then_refresh",
            ok(
                &[0x3fe8bb936c3336b4, 0x3fe048f4d8465961],
                13,
                0x3ddbda5c00000000,
                86,
                3,
            ),
        ),
        (
            "stall_then_refresh_3d",
            ok(
                &[0x3ff12bbe91e237db, 0x3ff5f00a4e8e20a9, 0x3ff59df6086f6306],
                32,
                0x3d7cfa0000000000,
                117,
                2,
            ),
        ),
        (
            "max_iterations",
            err(
                &[0xbff2632d814cc43c, 0x3ff51e9d79d426bb],
                MaxIterations {
                    residual: f64::from_bits(0x40128306363c5a1b),
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
                &[0x3fe356251bdf8f8f, 0x3fba8964021ffb05, 0x3fe3b1297cde3930],
                LineSearchStalled {
                    iteration: 17,
                    residual: f64::from_bits(0x3fda3197f0b19910),
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
        assert!(systems.len() >= 2, "no block of size-{n} systems");
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
