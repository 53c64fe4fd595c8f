//! Discrete-event strong-scaling simulator — a model, owned by the `fig8`
//! reproduction bin.
//!
//! Replays the distribution logic of Fig. 2 (per-state groups sized by
//! [`hddm_cluster::proportional_ranks`], per-refinement-level processing
//! with a barrier and a merge between levels) against a parametric machine
//! model, producing the normalized-execution-time curves of Fig. 8 for
//! node counts far beyond the host (the paper ran 1 → 4,096 Cray nodes).
//!
//! The model captures the effects the paper names:
//! * thread-granularity quantization — "within the lower refinement
//!   levels, the ratio of points to be evaluated per thread is often
//!   smaller than one, i.e., threads are idling";
//! * straggler inflation — per-point solve times vary (Newton iteration
//!   counts differ), and a level ends at the *max* over ranks;
//! * communication — per-level merge (gather + re-broadcast of new
//!   surpluses) plus a barrier per level.

use hddm_cluster::{multiplex_states, proportional_ranks};

/// Machine / network parameters of the simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterModel {
    /// Worker threads per node (the paper runs 1 MPI rank per node).
    pub threads_per_node: usize,
    /// Wall seconds to solve one grid point on one thread.
    pub point_seconds: f64,
    /// Coefficient of variation of per-point solve time (stragglers).
    pub point_cv: f64,
    /// Node-level accelerator speedup factor (≥ 1; 1 = no GPU).
    pub node_speedup: f64,
    /// Barrier/latency constant α (seconds per barrier per log₂ N).
    pub alpha_latency: f64,
    /// Network bandwidth β available to a gather/broadcast stage (bytes/s).
    pub beta_bandwidth: f64,
    /// Bytes communicated per solved grid point (surplus row + index).
    pub bytes_per_point: usize,
}

impl ClusterModel {
    /// A Cray-XC50-like node ("Piz Daint": 12-core Xeon E5-2690 v3 +
    /// P100). `point_seconds` must be calibrated from measurement.
    pub fn piz_daint(point_seconds: f64) -> Self {
        ClusterModel {
            threads_per_node: 12,
            point_seconds,
            point_cv: 0.35,
            node_speedup: 2.1, // CPU+GPU vs CPU-only node (Sec. V-B: 25x/12)
            alpha_latency: 2.5e-6,
            beta_bandwidth: 9.0e9,
            bytes_per_point: 118 * 8 + 16,
        }
    }
}

/// Work of one refinement level: new points per discrete state.
#[derive(Clone, Debug)]
pub struct LevelWork {
    /// `points_per_state[z]` = number of new points of state `z` at this
    /// level.
    pub points_per_state: Vec<usize>,
}

/// Simulated timing of one time-iteration step.
#[derive(Clone, Debug)]
pub struct StepTiming {
    /// Wall seconds per refinement level (compute + merge + barrier).
    pub per_level: Vec<f64>,
    /// Communication share of the step (seconds).
    pub comm_seconds: f64,
    /// Total wall seconds.
    pub total: f64,
}

/// Straggler inflation: a level on a rank with `points` points finishes at
/// roughly `mean · (1 + cv·√(2·ln R)/√points)` — the expected maximum of
/// `R` rank sums of iid per-point times.
fn straggler_factor(cv: f64, points_per_rank: f64, ranks: usize) -> f64 {
    if points_per_rank <= 0.0 || ranks < 2 {
        return 1.0;
    }
    1.0 + cv * (2.0 * (ranks as f64).ln()).sqrt() / points_per_rank.sqrt()
}

/// Simulates one time-iteration step over `levels` on `nodes` nodes.
pub fn simulate_step(model: &ClusterModel, levels: &[LevelWork], nodes: usize) -> StepTiming {
    assert!(nodes >= 1);
    let states = levels
        .first()
        .map(|l| l.points_per_state.len())
        .unwrap_or(0);
    // Group sizing uses total (previous-step) points per state — the
    // paper's proxy M_z.
    let totals: Vec<usize> = (0..states)
        .map(|z| levels.iter().map(|l| l.points_per_state[z]).sum())
        .collect();

    let effective_point_time = model.point_seconds / model.node_speedup;
    let threads = model.threads_per_node.max(1);

    let mut per_level = Vec::with_capacity(levels.len());
    let mut comm_total = 0.0;

    // Rank layout is fixed for the whole step.
    let share_plan: Option<Vec<Vec<usize>>> = if nodes < states {
        Some(multiplex_states(&totals, nodes))
    } else {
        None
    };
    let group_sizes = proportional_ranks(&totals, nodes);

    for level in levels {
        let compute = match &share_plan {
            Some(plan) => {
                // Fewer nodes than states: each node serves its states
                // sequentially.
                let mut slowest: f64 = 0.0;
                for states_of_rank in plan {
                    let mut t = 0.0;
                    for &z in states_of_rank {
                        let points = level.points_per_state[z];
                        let quanta = points.div_ceil(threads) as f64;
                        t += quanta * effective_point_time;
                    }
                    slowest = slowest.max(t);
                }
                slowest
            }
            None => {
                // One group per state; the level ends when the slowest
                // group's slowest rank finishes.
                let mut slowest: f64 = 0.0;
                for (z, &ranks) in group_sizes.iter().enumerate() {
                    let points = level.points_per_state[z];
                    if points == 0 || ranks == 0 {
                        continue;
                    }
                    let per_rank = points.div_ceil(ranks);
                    let quanta = per_rank.div_ceil(threads) as f64;
                    let t = quanta
                        * effective_point_time
                        * straggler_factor(model.point_cv, per_rank as f64, ranks);
                    slowest = slowest.max(t);
                }
                slowest
            }
        };

        // Merge: new surpluses are gathered within the group and
        // re-broadcast to all nodes (every rank interpolates on every
        // state's pnext next level). Pipelined tree collectives move the
        // volume at link bandwidth, ≈ 2·volume/β, plus α·log₂N latency.
        let new_points: usize = level.points_per_state.iter().sum();
        let volume = (new_points * model.bytes_per_point) as f64;
        let tree = ((nodes as f64).log2()).max(1.0);
        let merge = 2.0 * volume / model.beta_bandwidth;
        let barrier = model.alpha_latency * tree;

        comm_total += merge + barrier;
        per_level.push(compute + merge + barrier);
    }

    let total = per_level.iter().sum();
    StepTiming {
        per_level,
        comm_seconds: comm_total,
        total,
    }
}

/// Runs [`simulate_step`] across a node sweep and reports normalized
/// execution times (relative to the smallest node count) — the quantity
/// Fig. 8 plots.
pub fn strong_scaling_sweep(
    model: &ClusterModel,
    levels: &[LevelWork],
    node_counts: &[usize],
) -> Vec<(usize, StepTiming)> {
    node_counts
        .iter()
        .map(|&n| (n, simulate_step(model, levels, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_workload() -> Vec<LevelWork> {
        // The Fig. 8 test case: restart from level 2 (119 points/state),
        // then level 3 adds 6,962 and level 4 adds 273,996 per state.
        vec![
            LevelWork {
                points_per_state: vec![119; 16],
            },
            LevelWork {
                points_per_state: vec![6_962; 16],
            },
            LevelWork {
                points_per_state: vec![273_996; 16],
            },
        ]
    }

    #[test]
    fn single_node_time_is_serial_work() {
        let model = ClusterModel::piz_daint(0.05);
        let timing = simulate_step(&model, &paper_workload(), 1);
        // 16·281,077 points over 12 threads with the node speedup.
        let expected_compute: f64 = [119usize, 6_962, 273_996]
            .iter()
            .map(|&points| (16.0 * (points as f64 / 12.0).ceil()) * 0.05 / model.node_speedup)
            .sum();
        assert!(
            timing.total >= expected_compute,
            "{} < {}",
            timing.total,
            expected_compute
        );
        // Communication is negligible at one node.
        assert!(timing.comm_seconds < 0.10 * timing.total);
    }

    #[test]
    fn more_nodes_is_never_slower_up_to_saturation() {
        let model = ClusterModel::piz_daint(0.05);
        let sweep =
            strong_scaling_sweep(&model, &paper_workload(), &[1, 4, 16, 64, 256, 1024, 4096]);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1.total < pair[0].1.total,
                "{} nodes: {} vs {} nodes: {}",
                pair[1].0,
                pair[1].1.total,
                pair[0].0,
                pair[0].1.total
            );
        }
    }

    #[test]
    fn efficiency_band_matches_paper_shape() {
        // Paper: ≈70% overall efficiency at 4,096 nodes.
        let model = ClusterModel::piz_daint(0.05);
        let t1 = simulate_step(&model, &paper_workload(), 1).total;
        let t4096 = simulate_step(&model, &paper_workload(), 4096).total;
        let efficiency = t1 / (4096.0 * t4096);
        assert!(
            (0.4..=0.95).contains(&efficiency),
            "efficiency {efficiency}"
        );
    }

    #[test]
    fn low_levels_scale_worse_than_high_levels() {
        // The paper's stated limitation: coarse levels have < 1 point per
        // thread at scale.
        let model = ClusterModel::piz_daint(0.05);
        let t1 = simulate_step(&model, &paper_workload(), 1);
        let t4096 = simulate_step(&model, &paper_workload(), 4096);
        let eff_level = |l: usize| t1.per_level[l] / (4096.0 * t4096.per_level[l]);
        assert!(
            eff_level(1) < eff_level(2),
            "level-3 efficiency {} should trail level-4 {}",
            eff_level(1),
            eff_level(2)
        );
    }

    #[test]
    fn straggler_factor_behaves() {
        assert_eq!(straggler_factor(0.5, 100.0, 1), 1.0);
        let few_points = straggler_factor(0.5, 4.0, 256);
        let many_points = straggler_factor(0.5, 4096.0, 256);
        assert!(few_points > many_points);
        assert!(many_points > 1.0);
    }

    #[test]
    fn fewer_nodes_than_states_multiplexes() {
        let model = ClusterModel::piz_daint(0.05);
        // 4 nodes, 16 states: each node runs ~4 states sequentially; the
        // step must take ≈4× the 16-node group time, not deadlock.
        let t4 = simulate_step(&model, &paper_workload(), 4).total;
        let t16 = simulate_step(&model, &paper_workload(), 16).total;
        let ratio = t4 / t16;
        assert!((2.0..=6.0).contains(&ratio), "ratio {ratio}");
    }
}
