//! The distributed time-iteration step of Fig. 2, executed over an
//! MPI-like [`Comm`]: `MPI_COMM_WORLD` splits into one group per discrete
//! state, sized proportionally to the previous step's grid-point counts
//! `M_z` (Sec. IV-A); within a group, each refinement level's frontier is
//! partitioned across ranks, solved, merged by an allgather, hierarchized
//! identically everywhere, and refined; after all groups finish, every
//! state's new interpolant is exchanged world-wide so the next step can
//! interpolate on the full `pnext = (p(1), …, p(Ns))`.
//!
//! With fewer ranks than states, ranks multiplex several states
//! sequentially (the paper's small-node-count configuration). Each state
//! is built by the driver's own level loop (`driver::build_state`) — the
//! loop [`TimeIteration::step`](crate::driver::TimeIteration::step) runs,
//! given a rank group to share each frontier with — so with the
//! [`hddm_cluster::SerialComm`] a step is the single-process step plus a
//! world exchange of one rank.

use std::borrow::Cow;
use std::time::Instant;

use hddm_asg::{NodeKey, SparseGrid};
use hddm_cluster::{multiplex_states, proportional_ranks, Comm};

use crate::driver::{
    build_state, BuiltState, DriverConfig, StepModel, StepReport, StepShared, StepTotals,
};
use crate::policy::PolicySet;

/// Executes one distributed time-iteration step: consumes the (replicated)
/// previous policy and returns the merged new policy plus the step report.
/// Every rank returns identical values.
pub fn distributed_step<M: StepModel, C: Comm>(
    world: &C,
    model: &M,
    policy: &PolicySet,
    config: &DriverConfig,
    step_index: usize,
) -> (PolicySet, StepReport) {
    let start = Instant::now();
    let ns = model.num_states();
    let m = policy.points_per_state();
    let mut totals = StepTotals::default();
    let shared = StepShared::new(model.dim(), config);
    let mut built: Vec<Option<BuiltState>> = (0..ns).map(|_| None).collect();

    if world.size() >= ns {
        // One group per state, sized ∝ M_z (Sec. IV-A).
        let sizes = proportional_ranks(&m, world.size());
        let mut color = ns - 1;
        let mut acc = 0usize;
        for (z, &s) in sizes.iter().enumerate() {
            if world.rank() < acc + s {
                color = z;
                break;
            }
            acc += s;
        }
        let group = world.split(color);
        built[color] = Some(build_state(
            model,
            policy,
            config,
            &shared,
            color,
            Some(&group),
            &mut totals,
        ));
    } else {
        // Fewer ranks than states: each rank serves its states in turn.
        let plan = multiplex_states(&m, world.size());
        for &z in &plan[world.rank()] {
            built[z] = Some(build_state(
                model,
                policy,
                config,
                &shared,
                z,
                None::<&C>,
                &mut totals,
            ));
        }
    }

    // --- World exchange: each state's builder (group rank 0 / owning
    // rank) publishes its encoded interpolant; everyone decodes all Ns.
    let mut mine = Vec::new();
    for (z, slot) in built.iter().enumerate() {
        if let Some(state) = slot {
            // In grouped mode every group member built the state
            // identically; only the group's first world rank publishes.
            if world.size() < ns || is_group_leader(world, &m, z) {
                encode_state(z, state, model.ndofs(), &mut mine);
            }
        }
    }
    let gathered = world.allgather(&mine);

    let mut decoded: Vec<Option<BuiltState>> = (0..ns).map(|_| None).collect();
    for flat in &gathered {
        let mut at = 0usize;
        while at < flat.len() {
            let (z, state, next) = decode_state(flat, at, model.dim(), model.ndofs());
            assert!(decoded[z].is_none(), "state {z} published twice");
            decoded[z] = Some(state);
            at = next;
        }
    }

    // --- Reductions for the report.
    let mut maxbuf = [totals.sup];
    world.allreduce_max(&mut maxbuf);
    let mut sumbuf = [totals.sum_sq, totals.count as f64, totals.failures as f64];
    world.allreduce_sum(&mut sumbuf);

    // --- Assemble the new policy (identical on every rank).
    let ndofs = model.ndofs();
    let mut new_states = Vec::with_capacity(ns);
    let mut points_per_state = Vec::with_capacity(ns);
    let mut level_points: Vec<Vec<usize>> = Vec::new();
    for (z, slot) in decoded.into_iter().enumerate() {
        let state = slot.unwrap_or_else(|| panic!("state {z} missing from exchange"));
        points_per_state.push(state.grid.len());
        if level_points.len() < state.levels.len() {
            level_points.resize(state.levels.len(), vec![0; ns]);
        }
        for (l, &count) in state.levels.iter().enumerate() {
            level_points[l][z] = count;
        }
        new_states.push(state.compress(shared.spans.as_ref(), ndofs));
    }

    let report = StepReport {
        step: step_index,
        sup_change: maxbuf[0],
        l2_change: (sumbuf[0] / sumbuf[1].max(1.0)).sqrt(),
        points_per_state,
        level_points,
        solver_failures: sumbuf[2] as usize,
        wall_seconds: start.elapsed().as_secs_f64(),
    };
    (PolicySet::new(new_states, policy.domain.clone()), report)
}

/// Whether this world rank is the first rank of state `z`'s group under
/// the proportional assignment (the rank that publishes the result).
fn is_group_leader<C: Comm>(world: &C, m: &[usize], z: usize) -> bool {
    let sizes = proportional_ranks(m, world.size());
    let first: usize = sizes[..z].iter().sum();
    world.rank() == first
}

/// Appends a state's encoding to `out`:
/// `[z, nlevels, levels…, nno, (active_count, (dim, level, index)…)…,
///   surpluses…]` — all integers exact in f64.
fn encode_state(z: usize, state: &BuiltState, ndofs: usize, out: &mut Vec<f64>) {
    out.push(z as f64);
    out.push(state.levels.len() as f64);
    out.extend(state.levels.iter().map(|&l| l as f64));
    out.push(state.grid.len() as f64);
    for node in state.grid.nodes() {
        out.push(node.active_count() as f64);
        for c in node.active() {
            out.push(c.dim as f64);
            out.push(c.level as f64);
            out.push(c.index as f64);
        }
    }
    debug_assert_eq!(state.surpluses.len(), state.grid.len() * ndofs);
    out.extend_from_slice(&state.surpluses);
}

/// Decodes one state starting at `flat[at]`; returns `(z, state, next_at)`.
fn decode_state(
    flat: &[f64],
    at: usize,
    dim: usize,
    ndofs: usize,
) -> (usize, BuiltState<'static>, usize) {
    let mut at = at;
    let mut take = || {
        let v = flat[at];
        at += 1;
        v
    };
    let z = take() as usize;
    let nlevels = take() as usize;
    let levels: Vec<usize> = (0..nlevels).map(|_| take() as usize).collect();
    let nno = take() as usize;
    let mut grid = SparseGrid::new(dim);
    for _ in 0..nno {
        let actives = take() as usize;
        let coords: Vec<hddm_asg::ActiveCoord> = (0..actives)
            .map(|_| hddm_asg::ActiveCoord {
                dim: take() as u16,
                level: take() as u8,
                index: take() as u32,
            })
            .collect();
        let (_, fresh) = grid.insert(NodeKey::from_coords(coords));
        debug_assert!(fresh, "duplicate node in encoded state");
    }
    let surpluses = flat[at..at + nno * ndofs].to_vec();
    at += nno * ndofs;
    (
        z,
        BuiltState {
            grid: Cow::Owned(grid),
            surpluses,
            levels,
        },
        at,
    )
}

/// Runs `max_steps` distributed steps from the deterministic initial
/// policy, stopping early at `tolerance` (same semantics as
/// [`TimeIteration::run`](crate::driver::TimeIteration::run)). Returns the
/// final policy and per-step reports; identical on every rank.
pub fn distributed_run<M: StepModel, C: Comm>(
    world: &C,
    model: &M,
    config: &DriverConfig,
) -> (PolicySet, Vec<StepReport>) {
    let mut policy = crate::driver::initial_policy(model, config.start_level);
    let mut reports = Vec::new();
    for step in 0..config.max_steps {
        let (next, report) = distributed_step(world, model, &policy, config, step);
        policy = next;
        let done = report.sup_change < config.tolerance;
        reports.push(report);
        world.barrier();
        if done {
            break;
        }
    }
    (policy, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TimeIteration;
    use crate::olg_step::OlgStep;
    use hddm_cluster::{SerialComm, ThreadComm};
    use hddm_kernels::KernelKind;
    use hddm_olg::{Calibration, OlgModel, PolicyOracle};
    use hddm_sched::PoolConfig;

    fn config(max_steps: usize) -> DriverConfig {
        DriverConfig {
            kernel: KernelKind::X86,
            start_level: 2,
            max_steps,
            tolerance: 0.0,
            pool: PoolConfig {
                threads: 1,
                grain: 4,
            },
            ..Default::default()
        }
    }

    fn probe(policy: &PolicySet, ns: usize, x: &[f64], ndofs: usize) -> Vec<Vec<f64>> {
        let mut oracle = policy.oracle(KernelKind::X86);
        (0..ns)
            .map(|z| {
                let mut row = vec![0.0; ndofs];
                oracle.eval(z, x, &mut row);
                row
            })
            .collect()
    }

    fn serial_reference(steps: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
        let x = model.steady.state_vector();
        let mut ti = TimeIteration::new(OlgStep::new(model), config(steps));
        ti.run();
        (probe(&ti.policy, 2, &x, 8), x)
    }

    #[test]
    fn serial_comm_matches_single_process_driver_bitwise() {
        let (want, x) = serial_reference(3);
        let model = OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.03)));
        let (policy, reports) = distributed_run(&SerialComm, &model, &config(3));
        assert_eq!(reports.len(), 3);
        assert_eq!(probe(&policy, 2, &x, 8), want);
    }

    #[test]
    fn grouped_ranks_match_single_process_driver_bitwise() {
        // 4 ranks over 2 states: groups of 2, cooperative frontier solves.
        let (want, x) = serial_reference(2);
        let results = ThreadComm::launch(4, |world| {
            let model = OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.03)));
            let (policy, reports) = distributed_run(&world, &model, &config(2));
            (probe(&policy, 2, &x, 8), reports.len())
        });
        for (got, steps) in &results {
            assert_eq!(*steps, 2);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn multiplexed_single_rank_matches_driver() {
        // 1 rank, 2 states: the multiplex path.
        let (want, x) = serial_reference(2);
        let results = ThreadComm::launch(1, |world| {
            let model = OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.03)));
            let (policy, _) = distributed_run(&world, &model, &config(2));
            probe(&policy, 2, &x, 8)
        });
        assert_eq!(results[0], want);
    }

    #[test]
    fn adaptive_refinement_is_consistent_across_ranks() {
        // With refinement on, every rank must converge to identical grids
        // (sizes reported in the step report) and identical policies.
        let mut cfg = config(2);
        cfg.refine_epsilon = Some(5e-3);
        cfg.max_level = 3;
        let results = ThreadComm::launch(3, |world| {
            let model = OlgStep::new(OlgModel::new(Calibration::small(4, 3, 2, 0.05)));
            let (policy, reports) = distributed_run(&world, &model, &cfg);
            let x = OlgModel::new(Calibration::small(4, 3, 2, 0.05))
                .steady
                .state_vector();
            (
                reports.last().unwrap().points_per_state.clone(),
                probe(&policy, 2, &x, 6),
            )
        });
        let (points0, probe0) = &results[0];
        assert!(points0
            .iter()
            .any(|&p| p > hddm_asg::regular_grid_size(3, 2) as usize));
        for (points, probed) in &results[1..] {
            assert_eq!(points, points0);
            assert_eq!(probed, probe0);
        }
    }

    #[test]
    fn step_report_metrics_match_serial() {
        let model = OlgModel::new(Calibration::small(5, 3, 2, 0.03));
        let mut ti = TimeIteration::new(OlgStep::new(model), config(1));
        let serial_report = ti.step();

        let results = ThreadComm::launch(2, |world| {
            let model = OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.03)));
            let (_, reports) = distributed_run(&world, &model, &config(1));
            reports[0].clone()
        });
        for report in &results {
            assert!((report.sup_change - serial_report.sup_change).abs() < 1e-12);
            assert!((report.l2_change - serial_report.l2_change).abs() < 1e-12);
            assert_eq!(report.points_per_state, serial_report.points_per_state);
            assert_eq!(report.solver_failures, serial_report.solver_failures);
        }
    }
}
