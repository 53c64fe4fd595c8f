//! `newton_rounds` with carried factors: a system whose [`Factors`] slot
//! holds an LU starts from it with a residual row, keeps it while it
//! contracts, and replaces it with a fresh Jacobian where its first step
//! contracts too little or its line search stalls. Jacobians here are
//! exact, so an LU is the same bits whoever factors it.

use hddm_solver::linalg::lu_factor;
use hddm_solver::{
    newton_rounds, norm_inf, Factors, NewtonOptions, NewtonReport, NewtonWorkspace, Round, Rounds,
    SolverError,
};

/// `F(x) = c·x³ + A x − b` (the cube taken entrywise) with its exact
/// Jacobian `diag(3c·x²) + A`.
#[derive(Clone)]
struct Cubic {
    c: f64,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Cubic {
    fn n(&self) -> usize {
        self.b.len()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        for (i, f) in out.iter_mut().enumerate() {
            let ax: f64 = (0..n).map(|j| self.a[i * n + j] * x[j]).sum();
            *f = self.c * x[i] * x[i] * x[i] + ax - self.b[i];
        }
    }

    fn jacobian(&self, x: &[f64], out: &mut [f64]) {
        let n = self.n();
        out.copy_from_slice(&self.a);
        for i in 0..n {
            out[i * n + i] += 3.0 * self.c * x[i] * x[i];
        }
    }

    /// The LU and pivots of the Jacobian at `x`.
    fn factor_at(&self, x: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let n = self.n();
        let (mut lu, mut pivots) = (vec![0.0; n * n], vec![0; n]);
        self.jacobian(x, &mut lu);
        lu_factor(&mut lu, &mut pivots).unwrap();
        (lu, pivots)
    }
}

/// A block of [`Cubic`] systems as [`Rounds`], logging each system's rows
/// as `(asked for a Jacobian, point)`.
struct Block<'a> {
    systems: &'a [Cubic],
    log: Vec<Vec<(bool, Vec<f64>)>>,
}

impl Rounds for Block<'_> {
    fn round(&mut self, round: Round<'_>) {
        let n = self.systems[0].n();
        let mut requests = round.jacobian_rows.iter().enumerate().peekable();
        for (i, x) in round.rows.chunks_exact(n).enumerate() {
            let system = &self.systems[round.owners[i]];
            system.residual(x, &mut round.out[i * n..(i + 1) * n]);
            let request = requests.next_if(|&(_, &row)| row == i);
            if let Some((slot, _)) = request {
                system.jacobian(x, &mut round.jacobians[slot * n * n..(slot + 1) * n * n]);
            }
            self.log[round.owners[i]].push((request.is_some(), x.to_vec()));
        }
    }
}

/// What a solve leaves behind: the outcome, the final iterate and the rows
/// each system asked for.
type Solved = (
    Vec<Result<NewtonReport, SolverError>>,
    Vec<f64>,
    Vec<Vec<(bool, Vec<f64>)>>,
);

/// Solves `systems` as one block from `x0` (one row per system), with
/// `carried[s]` in system `s`'s slot; returns the slots too.
fn solve(
    systems: &[Cubic],
    x0: &[Vec<f64>],
    carried: &[Option<(Vec<f64>, Vec<u32>)>],
) -> (Solved, Factors) {
    let n = systems[0].n();
    let mut factors = Factors::default();
    factors.clear(systems.len(), n);
    for (s, factor) in carried.iter().enumerate() {
        if let Some((lu, pivots)) = factor {
            let (to_lu, to_pivots) = factors.set(s);
            to_lu.copy_from_slice(lu);
            to_pivots.copy_from_slice(pivots);
        }
    }
    let mut xs: Vec<f64> = x0.concat();
    let mut block = Block {
        systems,
        log: vec![Vec::new(); systems.len()],
    };
    let outcomes = newton_rounds(
        n,
        &mut xs,
        &NewtonOptions::default(),
        &mut NewtonWorkspace::default(),
        &mut factors,
        &mut block,
    );
    ((outcomes, xs, block.log), factors)
}

/// Four mildly nonlinear, diagonally dominant systems of three unknowns.
fn family() -> Vec<Cubic> {
    (0..4)
        .map(|k| {
            let k = k as f64;
            Cubic {
                c: 0.1 + 0.05 * k,
                a: [
                    [3.0 + k, 0.5, -0.25],
                    [0.25, 2.5, 0.5 - 0.1 * k],
                    [-0.5, 0.125 * k, 4.0],
                ]
                .concat(),
                b: vec![1.0 + k, -2.0, 0.5 * k],
            }
        })
        .collect()
}

#[test]
fn a_system_carrying_its_own_start_factor_walks_the_fresh_trajectory() {
    let systems = family();
    let x0: Vec<Vec<f64>> = (0..4).map(|k| vec![0.1 * k as f64, -0.2, 0.3]).collect();
    let ((fresh, fresh_x, fresh_log), fresh_out) = solve(&systems, &x0, &[None, None, None, None]);
    let own: Vec<_> = systems
        .iter()
        .zip(&x0)
        .map(|(s, x)| Some(s.factor_at(x)))
        .collect();
    let ((carried, carried_x, carried_log), carried_out) = solve(&systems, &x0, &own);

    assert_eq!(
        fresh_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        carried_x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    for s in 0..4 {
        let (f, c) = (fresh[s].as_ref().unwrap(), carried[s].as_ref().unwrap());
        assert!(f.iterations >= 2, "{f:?}");
        assert_eq!(
            (c.iterations, c.residual_norm.to_bits(), c.residual_evals),
            (f.iterations, f.residual_norm.to_bits(), f.residual_evals),
        );
        assert_eq!(c.jacobian_evals + 1, f.jacobian_evals, "{c:?} {f:?}");
        assert!(c.carried && !c.replaced && !f.carried, "{c:?}");
        // The same points, in the same order; the start row alone asks
        // for no Jacobian.
        let points =
            |log: &[(bool, Vec<f64>)]| log.iter().map(|(_, x)| x.clone()).collect::<Vec<_>>();
        assert_eq!(points(&fresh_log[s]), points(&carried_log[s]));
        assert!(fresh_log[s][0].0 && !carried_log[s][0].0);
        assert_eq!(fresh_log[s][1..], carried_log[s][1..]);
        // Both slots leave holding the same last factor.
        assert_eq!(fresh_out.get(s), carried_out.get(s));
        assert!(carried_out.get(s).is_some());
    }
}

#[test]
fn a_stale_factor_converges_after_its_poor_first_step_is_replaced() {
    // The factor of `diag(1, 4)`, taken from a solved system, on
    // `F(x) = x − (1, 1)`: its direction `(1, ¼)` is accepted by the line
    // search but only brings `‖F‖_∞` from 1 to ¾, so the next row asks
    // for a fresh Jacobian at the new point.
    let linear = |d: [f64; 2], b: [f64; 2]| Cubic {
        c: 0.0,
        a: vec![d[0], 0.0, 0.0, d[1]],
        b: b.to_vec(),
    };
    let donor = [linear([1.0, 4.0], [2.0, 2.0])];
    let ((donated, _, _), slots) = solve(&donor, &[vec![0.0, 0.0]], &[None]);
    assert!(donated[0].is_ok());
    let (lu, pivots) = slots.get(0).expect("the donor's slot holds its factor");
    let stale = Some((lu.to_vec(), pivots.to_vec()));

    let target = [linear([1.0, 1.0], [1.0, 1.0])];
    let ((outcome, x, log), out) = solve(&target, &[vec![0.0, 0.0]], &[stale]);
    let report = outcome[0].as_ref().unwrap();
    assert!(report.carried && report.replaced, "{report:?}");
    assert_eq!(report.jacobian_evals, 1, "{report:?}");
    assert!(norm_inf(&[x[0] - 1.0, x[1] - 1.0]) < 1e-9, "{x:?}");
    assert_eq!(
        log[0][..3],
        [
            (false, vec![0.0, 0.0]),
            (false, vec![1.0, 0.25]),
            (true, vec![1.0, 0.25]),
        ]
    );
    // The slot now holds the fresh factor, `diag(1, 1)`.
    assert_eq!(out.get(0), Some((&[1.0, 0.0, 0.0, 1.0][..], &[0, 1][..])));
}

#[test]
fn a_stall_on_a_carried_factor_retries_with_a_fresh_jacobian() {
    // The factor of `−I` on `F(x) = x − (1, 2)`: every direction it gives
    // is uphill, so the search backtracks to the minimum step with no
    // Broyden factor stored. The system then takes a fresh Jacobian and
    // converges instead of reporting a stall.
    let system = [Cubic {
        c: 0.0,
        a: vec![1.0, 0.0, 0.0, 1.0],
        b: vec![1.0, 2.0],
    }];
    let minus_identity = Cubic {
        c: 0.0,
        a: vec![-1.0, 0.0, 0.0, -1.0],
        b: vec![0.0, 0.0],
    };
    let uphill = Some(minus_identity.factor_at(&[0.0, 0.0]));
    let ((outcome, x, log), _) = solve(&system, &[vec![0.0, 0.0]], &[uphill]);
    let report = outcome[0].as_ref().unwrap();
    assert!(report.carried && report.replaced, "{report:?}");
    assert_eq!(report.jacobian_evals, 1, "{report:?}");
    assert!(norm_inf(&[x[0] - 1.0, x[1] - 2.0]) < 1e-9, "{x:?}");
    let first_jacobian = log[0].iter().position(|(jacobian, _)| *jacobian);
    assert!(first_jacobian.unwrap() > 30, "{:?}", &log[0][..3]);

    // Control: the same stall on a fresh system's first Jacobian is
    // reported, as before.
    let stalled = [Cubic {
        c: 0.0,
        a: vec![1.0, 0.0, 0.0, 1.0],
        b: vec![1.0, 2.0],
    }];
    let mut xs = vec![0.0, 0.0];
    let outcome = newton_rounds(
        2,
        &mut xs,
        &NewtonOptions::default(),
        &mut NewtonWorkspace::default(),
        &mut Factors::default(),
        &mut Uphill(Block {
            systems: &stalled,
            log: vec![Vec::new()],
        }),
    );
    assert!(
        matches!(outcome[0], Err(SolverError::LineSearchStalled { .. })),
        "{outcome:?}"
    );
}

/// [`Block`] with every Jacobian negated, so a fresh direction is uphill.
struct Uphill<'a>(Block<'a>);

impl Rounds for Uphill<'_> {
    fn round(&mut self, round: Round<'_>) {
        let Round {
            owners,
            rows,
            jacobian_rows,
            out,
            jacobians,
            rejected,
        } = round;
        self.0.round(Round {
            owners,
            rows,
            jacobian_rows,
            out,
            jacobians: &mut *jacobians,
            rejected,
        });
        jacobians.iter_mut().for_each(|v| *v = -*v);
    }
}

#[test]
fn a_system_walks_alone_whichever_neighbours_carry() {
    // Each system's outcome and final iterate, alone with and without a
    // carried factor, against every pattern of carrying in one block. The
    // carried factors are deliberately off (another start's), so carried
    // and fresh trajectories differ.
    let systems = family();
    let x0: Vec<Vec<f64>> = (0..4)
        .map(|k| vec![0.5 - 0.1 * k as f64, 0.2, -0.1])
        .collect();
    let off: Vec<_> = systems
        .iter()
        .map(|s| Some(s.factor_at(&[1.0, -1.0, 0.5])))
        .collect();
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let alone = |s: usize, carry: bool| {
        let factor = if carry { off[s].clone() } else { None };
        let ((outcome, x, log), _) = solve(&systems[s..=s], &x0[s..=s], &[factor]);
        (format!("{:?}", outcome[0]), bits(&x), log[0].clone())
    };
    let reference: Vec<[_; 2]> = (0..4).map(|s| [alone(s, false), alone(s, true)]).collect();
    assert_ne!(
        reference[0][0].2, reference[0][1].2,
        "the factor changes the walk"
    );
    for pattern in 0..16u32 {
        let carry = |s: usize| pattern >> s & 1 == 1;
        let factors: Vec<_> = (0..4)
            .map(|s| if carry(s) { off[s].clone() } else { None })
            .collect();
        let ((outcome, xs, log), _) = solve(&systems, &x0, &factors);
        for s in 0..4 {
            let got = (
                format!("{:?}", outcome[s]),
                bits(&xs[s * 3..(s + 1) * 3]),
                log[s].clone(),
            );
            assert_eq!(
                got,
                reference[s][usize::from(carry(s))],
                "system {s}, pattern {pattern:04b}"
            );
        }
    }
}
