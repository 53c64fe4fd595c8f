//! The olg→kernels boundary, observed from outside: a [`StepModel`] that
//! wraps [`OlgStep`] and hands the point solver a [`PolicyOracle`] that
//! counts and times every interpolation call.
//!
//! A cold solve makes ≈ 0.3 M oracle calls, so those are counted and their
//! time summed at the boundary instead of being kept as spans; point solves
//! (≈ 18 k) get the same treatment plus Newton's own iteration count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hddm::core::{OlgStep, StepModel};
use hddm::olg::{PointScratch, PolicyOracle};
use hddm::solver::SolverError;

/// Totals at the two boundaries. All `Relaxed`: each is a statistic that
/// publishes no other data, read after the solve has joined its workers.
#[derive(Default)]
pub struct BoundaryCounters {
    point_solves: AtomicU64,
    point_failures: AtomicU64,
    point_nanos: AtomicU64,
    newton_iterations: AtomicU64,
    oracle_calls: AtomicU64,
    oracle_nanos: AtomicU64,
}

/// A plain copy of [`BoundaryCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundaryTotals {
    pub point_solves: u64,
    pub point_failures: u64,
    pub point_s: f64,
    pub newton_iterations: u64,
    pub oracle_calls: u64,
    pub oracle_s: f64,
}

impl BoundaryCounters {
    pub fn totals(&self) -> BoundaryTotals {
        BoundaryTotals {
            point_solves: self.point_solves.load(Ordering::Relaxed),
            point_failures: self.point_failures.load(Ordering::Relaxed),
            point_s: self.point_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            newton_iterations: self.newton_iterations.load(Ordering::Relaxed),
            oracle_calls: self.oracle_calls.load(Ordering::Relaxed),
            oracle_s: self.oracle_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl BoundaryTotals {
    /// Point-solve time that is not oracle time: Newton + OLG algebra.
    pub fn point_self_s(&self) -> f64 {
        self.point_s - self.oracle_s
    }

    pub fn minus(&self, earlier: &BoundaryTotals) -> BoundaryTotals {
        BoundaryTotals {
            point_solves: self.point_solves - earlier.point_solves,
            point_failures: self.point_failures - earlier.point_failures,
            point_s: self.point_s - earlier.point_s,
            newton_iterations: self.newton_iterations - earlier.newton_iterations,
            oracle_calls: self.oracle_calls - earlier.oracle_calls,
            oracle_s: self.oracle_s - earlier.oracle_s,
        }
    }
}

struct TracedOracle<'a> {
    inner: &'a mut dyn PolicyOracle,
    calls: u64,
    nanos: u64,
}

impl PolicyOracle for TracedOracle<'_> {
    fn eval(&mut self, z_next: usize, x_next: &[f64], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.eval(z_next, x_next, out);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

/// [`OlgStep`] with both boundaries instrumented. The solved rows are the
/// ones `OlgStep` returns: same model, same Newton options, same call.
pub struct TracedStep<'a> {
    pub inner: OlgStep,
    pub counters: &'a BoundaryCounters,
}

impl StepModel for TracedStep<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn ndofs(&self) -> usize {
        self.inner.ndofs()
    }

    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        self.inner.bounds()
    }

    fn initial_row(&self) -> Vec<f64> {
        self.inner.initial_row()
    }

    fn solve_point_row(
        &self,
        z: usize,
        x_phys: &[f64],
        warm: &[f64],
        oracle: &mut dyn PolicyOracle,
    ) -> Result<Vec<f64>, SolverError> {
        let start = Instant::now();
        let mut traced = TracedOracle {
            inner: oracle,
            calls: 0,
            nanos: 0,
        };
        // `OlgStep::solve_point_row` drops the Newton report, so the point
        // problem is called the way it calls it.
        let mut scratch = PointScratch::default();
        let solved = self.inner.model.solve_point(
            z,
            x_phys,
            warm,
            &mut traced,
            &mut scratch,
            &self.inner.newton,
        );
        let c = self.counters;
        c.oracle_calls.fetch_add(traced.calls, Ordering::Relaxed);
        c.oracle_nanos.fetch_add(traced.nanos, Ordering::Relaxed);
        c.point_solves.fetch_add(1, Ordering::Relaxed);
        let row = match solved {
            Ok(solution) => {
                c.newton_iterations
                    .fetch_add(solution.report.iterations as u64, Ordering::Relaxed);
                Ok(solution.dof_row())
            }
            Err(e) => {
                c.point_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        };
        c.point_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        row
    }
}
