//! The world side of a time-iteration step (Fig. 2): which states a rank
//! builds, and the exchange that gives every rank the states it did not.
//!
//! `MPI_COMM_WORLD` splits into one group per discrete state, sized
//! proportionally to the previous step's grid-point counts `M_z`
//! (Sec. IV-A); within a group of two or more, each refinement level's
//! frontier is dealt across the ranks and merged by an allgather
//! (`driver::build_state`). With fewer ranks than states, ranks multiplex
//! several states in turn (the paper's small-node-count configuration).
//! After the states are built, each is published by one rank that built
//! it, and only when some rank did not: on a world of one rank the
//! exchange carries nothing.

use std::borrow::Cow;

use hddm_asg::{NodeKey, SparseGrid};
use hddm_cluster::{multiplex_states, proportional_ranks, Comm};

use crate::driver::BuiltState;

/// This rank's part of a step.
pub(crate) struct Share<C> {
    /// The states this rank builds, in ascending order.
    pub states: Vec<usize>,
    /// The group this rank shares each frontier with; `None` solves it
    /// alone.
    pub group: Option<C>,
    /// Whether this rank publishes its states to the world exchange.
    pub publishes: bool,
}

impl<C: Comm> Share<C> {
    /// Shares `m.len()` states with point counts `m` across `world`
    /// (collective: every rank calls it).
    pub(crate) fn of(world: &C, m: &[usize]) -> Share<C> {
        if world.size() < m.len() {
            // Fewer ranks than states: each rank serves its states in turn.
            return Share {
                states: multiplex_states(m, world.size()).swap_remove(world.rank()),
                group: None,
                publishes: world.size() > 1,
            };
        }
        // One group per state, sized ∝ M_z (Sec. IV-A).
        let sizes = proportional_ranks(m, world.size());
        let mut end = 0;
        let color = sizes
            .iter()
            .position(|&size| {
                end += size;
                world.rank() < end
            })
            .expect("the group sizes cover the world");
        let group = world.split(color);
        Share {
            states: vec![color],
            publishes: sizes[color] < world.size() && group.rank() == 0,
            group: Some(group).filter(|g| g.size() > 1),
        }
    }
}

/// Appends a state's record to `out`:
/// `[len, z, nlevels, levels…, nno, (active_count, (dim, level, index)…)…,
///   surpluses…]`, where `len` counts the words after it — all integers
/// exact in f64.
pub(crate) fn encode_state(z: usize, state: &BuiltState, ndofs: usize, out: &mut Vec<f64>) {
    let at = out.len();
    out.push(0.0);
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
    out[at] = (out.len() - at - 1) as f64;
}

/// The records of one rank's exchange payload, as `(z, body)`: `body` is
/// the rest of the record after `z`, for [`decode_state`].
pub(crate) fn records(flat: &[f64]) -> impl Iterator<Item = (usize, &[f64])> {
    let mut rest = flat;
    std::iter::from_fn(move || {
        let (&len, tail) = rest.split_first()?;
        let (record, next) = tail.split_at(len as usize);
        rest = next;
        let (&z, body) = record.split_first().expect("empty exchange record");
        Some((z as usize, body))
    })
}

/// Decodes the body of one state's record. A state whose grid is the
/// run's `start` grid node for node borrows it, as the rank that built it
/// did, so it is compressed against the start grid's compression.
pub(crate) fn decode_state<'k>(
    body: &[f64],
    start: &'k SparseGrid,
    ndofs: usize,
) -> BuiltState<'k> {
    let mut words = body.iter().map(|&v| v as usize);
    let mut take = || words.next().expect("truncated exchange record");
    let nlevels = take();
    let levels: Vec<usize> = (0..nlevels).map(|_| take()).collect();
    let nno = take();
    let mut grid = SparseGrid::new(start.dim());
    for _ in 0..nno {
        let actives = take();
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
    assert_eq!(words.len(), nno * ndofs, "ragged exchange record");
    let surpluses = body[body.len() - nno * ndofs..].to_vec();
    let grid = if grid.nodes() == start.nodes() {
        Cow::Borrowed(start)
    } else {
        Cow::Owned(grid)
    };
    BuiltState {
        grid,
        surpluses,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::Share;
    use crate::driver::{DriverConfig, TimeIteration};
    use crate::olg_step::OlgStep;
    use crate::policy::PolicySet;
    use hddm_cluster::{Comm, SerialComm, ThreadComm};
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

    fn model() -> OlgStep {
        OlgStep::new(OlgModel::new(Calibration::small(5, 3, 2, 0.03)))
    }

    /// A single process's policy after `steps` steps, probed at the
    /// steady state.
    fn serial_reference(steps: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x = model().model.steady.state_vector();
        let mut ti = TimeIteration::new(model(), config(steps));
        ti.run();
        (probe(&ti.policy, 2, &x, 8), x)
    }

    #[test]
    fn only_a_state_some_rank_lacks_is_published() {
        // One rank builds every state, in index order, and publishes none.
        let one = Share::of(&SerialComm, &[50, 300, 200]);
        assert_eq!(one.states, [0, 1, 2]);
        assert!(!one.publishes && one.group.is_none());
        // Groups of 2 and 1 (footnote 5): each group's first rank
        // publishes, and the group of one solves alone.
        let shares = ThreadComm::launch(3, |world| {
            let share = Share::of(&world, &[200, 100]);
            (share.states, share.publishes, share.group.map(|g| g.size()))
        });
        assert_eq!(
            shares,
            [
                (vec![0], true, Some(2)),
                (vec![0], false, Some(2)),
                (vec![1], true, None)
            ]
        );
        // One state's group is the whole world, which holds it.
        let shares = ThreadComm::launch(2, |world| Share::of(&world, &[7]).publishes);
        assert_eq!(shares, [false, false]);
    }

    #[test]
    fn grouped_ranks_match_single_process_driver_bitwise() {
        // 4 ranks over 2 states: groups of 2, cooperative frontier solves.
        let (want, x) = serial_reference(2);
        let results = ThreadComm::launch(4, |world| {
            let mut ti = TimeIteration::over(world, model(), config(2));
            let reports = ti.run();
            (probe(&ti.policy, 2, &x, 8), reports.len())
        });
        for (got, steps) in &results {
            assert_eq!(*steps, 2);
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn multiplexed_single_rank_matches_driver() {
        // 1 rank, 2 states: the multiplex path over a threaded world.
        let (want, x) = serial_reference(2);
        let results = ThreadComm::launch(1, |world| {
            let mut ti = TimeIteration::over(world, model(), config(2));
            ti.run();
            probe(&ti.policy, 2, &x, 8)
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
            let model = OlgModel::new(Calibration::small(4, 3, 2, 0.05));
            let x = model.steady.state_vector();
            let mut ti = TimeIteration::over(world, OlgStep::new(model), cfg.clone());
            let reports = ti.run();
            (
                reports.last().unwrap().points_per_state.clone(),
                probe(&ti.policy, 2, &x, 6),
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
        let serial_report = TimeIteration::new(model(), config(1)).step();

        let results = ThreadComm::launch(2, |world| {
            TimeIteration::over(world, model(), config(1)).step()
        });
        for report in &results {
            assert!((report.sup_change - serial_report.sup_change).abs() < 1e-12);
            assert!((report.l2_change - serial_report.l2_change).abs() < 1e-12);
            assert_eq!(report.points_per_state, serial_report.points_per_state);
            assert_eq!(report.level_points, serial_report.level_points);
            assert_eq!(report.solver_failures, serial_report.solver_failures);
        }
    }
}
