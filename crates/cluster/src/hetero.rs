//! Heterogeneous-cluster scheduling ablation — a model, owned by the
//! `scheduler` reproduction bin (`hddm-bench`) and called from nowhere
//! else: production work is scheduled by the real pool in `hddm-sched`,
//! never by this simulation. The real pool *is* the policy modeled here
//! as [`Assignment::WorkStealing`]: one shared cursor over the index
//! range, from which every free worker takes the next chunk.
//!
//! The paper's third contribution is "a hybrid cluster oriented
//! work-preempting scheduler based on TBB, which evenly distributes the
//! time iteration workload onto available CPU cores and accelerators".
//! This module isolates *why* preemptive (work-stealing) distribution is
//! needed: on nodes of unequal speed (CPU-only "Grand Tave" vs CPU+GPU
//! "Piz Daint" nodes, or CPU cores next to a GPU inside one node) and with
//! per-point solve times that vary (Newton iteration counts differ),
//! static splits leave the fast workers idle.
//!
//! Three assignment policies over the same task list:
//!
//! * [`Assignment::StaticEqual`] — equal point counts per worker, the
//!   naive split (what the paper's baseline cluster codes do);
//! * [`Assignment::StaticProportional`] — point counts proportional to
//!   worker speed, the best *static* policy (requires knowing speeds);
//! * [`Assignment::WorkStealing`] — workers pull chunks from a shared
//!   queue as they free up, the paper's TBB-style policy. Knows nothing in
//!   advance, yet approaches the proportional lower bound as the chunk
//!   size shrinks.

/// One worker: a node (or intra-node device) with a relative speed.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Display name ("daint-gpu", "tave", …).
    pub name: String,
    /// Speed in reference-work units per second (1.0 = one reference CPU).
    pub speed: f64,
}

impl WorkerSpec {
    /// A worker with the given name and speed.
    pub fn new(name: &str, speed: f64) -> Self {
        assert!(speed > 0.0, "worker speed must be positive");
        WorkerSpec {
            name: name.to_string(),
            speed,
        }
    }
}

/// Workload assignment policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Assignment {
    /// Contiguous equal-count ranges, one per worker.
    StaticEqual,
    /// Contiguous ranges sized proportionally to worker speed.
    StaticProportional,
    /// Dynamic: free workers preempt the next `chunk` tasks from a shared
    /// queue (the TBB model of Fig. 2).
    WorkStealing {
        /// Tasks taken per grab.
        chunk: usize,
    },
}

/// Outcome of one scheduled execution.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// Wall-clock makespan (seconds): when the last worker finishes.
    pub makespan: f64,
    /// Busy seconds per worker.
    pub busy: Vec<f64>,
    /// Tasks executed per worker.
    pub tasks: Vec<usize>,
    /// Mean idle fraction across workers (`1 − busy/makespan`).
    pub idle_fraction: f64,
}

impl ScheduleResult {
    fn from_busy(busy: Vec<f64>, tasks: Vec<usize>) -> Self {
        let makespan = busy.iter().cloned().fold(0.0, f64::max);
        let idle = if makespan > 0.0 {
            busy.iter().map(|b| 1.0 - b / makespan).sum::<f64>() / busy.len().max(1) as f64
        } else {
            0.0
        };
        ScheduleResult {
            makespan,
            busy,
            tasks,
            idle_fraction: idle,
        }
    }
}

/// The theoretical lower bound on the makespan: total work divided by
/// total speed (perfect, fluid load balance).
pub fn fluid_bound(workers: &[WorkerSpec], costs: &[f64]) -> f64 {
    let work: f64 = costs.iter().sum();
    let speed: f64 = workers.iter().map(|w| w.speed).sum();
    work / speed
}

/// Executes `costs` (per-task reference seconds) on `workers` under the
/// given policy and returns the timing. Deterministic.
pub fn schedule(workers: &[WorkerSpec], costs: &[f64], policy: Assignment) -> ScheduleResult {
    assert!(!workers.is_empty(), "need at least one worker");
    let w = workers.len();
    match policy {
        Assignment::StaticEqual => {
            let mut busy = vec![0.0; w];
            let mut tasks = vec![0usize; w];
            let per = costs.len().div_ceil(w.max(1)).max(1);
            for (k, slice) in costs.chunks(per).enumerate() {
                let k = k.min(w - 1);
                busy[k] += slice.iter().sum::<f64>() / workers[k].speed;
                tasks[k] += slice.len();
            }
            ScheduleResult::from_busy(busy, tasks)
        }
        Assignment::StaticProportional => {
            let total_speed: f64 = workers.iter().map(|x| x.speed).sum();
            let mut busy = vec![0.0; w];
            let mut tasks = vec![0usize; w];
            let n = costs.len();
            let mut start = 0usize;
            let mut acc = 0.0f64;
            for (k, worker) in workers.iter().enumerate() {
                acc += worker.speed / total_speed;
                let end = if k + 1 == w {
                    n
                } else {
                    ((acc * n as f64).round() as usize).clamp(start, n)
                };
                busy[k] = costs[start..end].iter().sum::<f64>() / worker.speed;
                tasks[k] = end - start;
                start = end;
            }
            ScheduleResult::from_busy(busy, tasks)
        }
        Assignment::WorkStealing { chunk } => {
            let chunk = chunk.max(1);
            // Event simulation: repeatedly hand the next chunk to the
            // worker that frees up first.
            let mut free_at = vec![0.0f64; w];
            let mut tasks = vec![0usize; w];
            let mut busy = vec![0.0f64; w];
            let mut next = 0usize;
            while next < costs.len() {
                let k = free_at
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty workers");
                let hi = (next + chunk).min(costs.len());
                let dt = costs[next..hi].iter().sum::<f64>() / workers[k].speed;
                free_at[k] += dt;
                busy[k] += dt;
                tasks[k] += hi - next;
                next = hi;
            }
            ScheduleResult::from_busy(busy, tasks)
        }
    }
}

/// A mixed "Piz Daint" + "Grand Tave" fleet: `daint` CPU+GPU nodes (25×
/// one reference thread per Sec. V-B) and `tave` KNL nodes (≈12.5×, the
/// paper's "Piz Daint nodes are about 2× faster").
pub fn mixed_fleet(daint: usize, tave: usize) -> Vec<WorkerSpec> {
    let mut fleet = Vec::with_capacity(daint + tave);
    for k in 0..daint {
        fleet.push(WorkerSpec::new(&format!("daint-{k}"), 25.0));
    }
    for k in 0..tave {
        fleet.push(WorkerSpec::new(&format!("tave-{k}"), 12.5));
    }
    fleet
}

/// Synthetic per-point costs with straggler variance: deterministic
/// log-normal-ish multipliers around `mean_seconds` (Newton iteration
/// count differences), seeded for reproducibility.
pub fn straggler_costs(n: usize, mean_seconds: f64, cv: f64, seed: u64) -> Vec<f64> {
    // Small xorshift so the crate needs no RNG dependency on this path.
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        // Uniform u in [0,1); two-point mixture: most points cheap, a tail
        // ~4× (hard Newton solves); matches the observed per-point spread.
        let factor = if u < 0.9 {
            1.0 - cv * 0.5
        } else {
            1.0 + cv * 4.5
        };
        out.push(mean_seconds * factor);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_costs(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn homogeneous_uniform_work_is_fair_everywhere() {
        let workers = vec![WorkerSpec::new("a", 1.0), WorkerSpec::new("b", 1.0)];
        let costs = uniform_costs(100);
        for policy in [
            Assignment::StaticEqual,
            Assignment::StaticProportional,
            Assignment::WorkStealing { chunk: 1 },
        ] {
            let r = schedule(&workers, &costs, policy);
            assert!(
                (r.makespan - 50.0).abs() < 1.01,
                "{policy:?}: {}",
                r.makespan
            );
            assert_eq!(r.tasks.iter().sum::<usize>(), 100);
        }
    }

    #[test]
    fn heterogeneous_ranking_static_equal_worst() {
        // 2 fast + 2 slow workers, even work: equal split is bounded by the
        // slow workers; proportional and stealing use the fast ones.
        let workers = vec![
            WorkerSpec::new("fast-0", 4.0),
            WorkerSpec::new("fast-1", 4.0),
            WorkerSpec::new("slow-0", 1.0),
            WorkerSpec::new("slow-1", 1.0),
        ];
        let costs = uniform_costs(1000);
        let equal = schedule(&workers, &costs, Assignment::StaticEqual);
        let prop = schedule(&workers, &costs, Assignment::StaticProportional);
        let steal = schedule(&workers, &costs, Assignment::WorkStealing { chunk: 4 });
        let bound = fluid_bound(&workers, &costs);
        assert!(
            equal.makespan > 1.9 * prop.makespan,
            "{} vs {}",
            equal.makespan,
            prop.makespan
        );
        assert!(steal.makespan <= prop.makespan * 1.05);
        assert!(steal.makespan >= bound * 0.999);
        // Stealing gives the fast workers ~4x the tasks without being told
        // the speeds.
        assert!(steal.tasks[0] > 3 * steal.tasks[2]);
    }

    #[test]
    fn stealing_absorbs_stragglers_that_break_static_splits() {
        let workers = vec![
            WorkerSpec::new("a", 1.0),
            WorkerSpec::new("b", 1.0),
            WorkerSpec::new("c", 1.0),
            WorkerSpec::new("d", 1.0),
        ];
        let costs = straggler_costs(2000, 0.05, 0.8, 42);
        let equal = schedule(&workers, &costs, Assignment::StaticEqual);
        let steal = schedule(&workers, &costs, Assignment::WorkStealing { chunk: 2 });
        let bound = fluid_bound(&workers, &costs);
        // Dynamic scheduling lands within 2% of the fluid bound; the static
        // split pays whatever imbalance the straggler tail dealt it.
        assert!(
            steal.makespan <= bound * 1.02,
            "{} vs bound {bound}",
            steal.makespan
        );
        assert!(equal.makespan >= steal.makespan);
    }

    #[test]
    fn chunk_size_tradeoff() {
        // Oversized chunks quantize the queue and waste the fast workers —
        // monotone degradation toward the static split.
        let workers = mixed_fleet(2, 2);
        let costs = uniform_costs(4000);
        let fine = schedule(&workers, &costs, Assignment::WorkStealing { chunk: 8 });
        let coarse = schedule(&workers, &costs, Assignment::WorkStealing { chunk: 1000 });
        assert!(fine.makespan < coarse.makespan);
        assert!(fine.idle_fraction < coarse.idle_fraction + 1e-12);
    }

    #[test]
    fn mixed_fleet_speeds_match_paper_ratios() {
        let fleet = mixed_fleet(1, 1);
        assert_eq!(fleet.len(), 2);
        assert!((fleet[0].speed / fleet[1].speed - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fluid_bound_is_a_true_lower_bound() {
        let workers = mixed_fleet(3, 5);
        let costs = straggler_costs(500, 0.1, 0.5, 7);
        let bound = fluid_bound(&workers, &costs);
        for policy in [
            Assignment::StaticEqual,
            Assignment::StaticProportional,
            Assignment::WorkStealing { chunk: 1 },
            Assignment::WorkStealing { chunk: 64 },
        ] {
            let r = schedule(&workers, &costs, policy);
            assert!(
                r.makespan >= bound * 0.999,
                "{policy:?}: {} < {bound}",
                r.makespan
            );
        }
    }

    #[test]
    fn empty_and_single_task_edge_cases() {
        let workers = vec![WorkerSpec::new("a", 2.0)];
        let r = schedule(&workers, &[], Assignment::WorkStealing { chunk: 4 });
        assert_eq!(r.makespan, 0.0);
        let r = schedule(&workers, &[3.0], Assignment::StaticEqual);
        assert!((r.makespan - 1.5).abs() < 1e-12);
    }

    #[test]
    fn straggler_costs_are_deterministic_and_positive() {
        let a = straggler_costs(100, 0.05, 0.8, 9);
        let b = straggler_costs(100, 0.05, 0.8, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| c > 0.0));
        // The tail exists.
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!(a.iter().cloned().fold(0.0, f64::max) > 2.0 * mean);
    }
}
