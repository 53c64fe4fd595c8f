//! Dynamic parallel-for over grid-point indices — the TBB substitute
//! (Sec. IV-A: "the threads leverage TBB's automatic workload balancing
//! based on stealing tasks from the slower workers").
//!
//! The tasks are a flat index range and never spawn tasks, so there is
//! nothing to steal that a shared queue does not already hand out: one
//! atomic cursor over `0..n`, from which every free worker claims the
//! next `grain` indices until the range is exhausted. This is the policy
//! `hddm_cluster::hetero::Assignment::WorkStealing` models ("free workers
//! preempt the next `chunk` tasks from a shared queue").

use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-worker execution statistics, for load-balance reporting.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    /// Items processed by each worker.
    pub items_per_worker: Vec<usize>,
}

impl LoadStats {
    /// Load imbalance = max/mean of per-worker item counts (1.0 is
    /// perfect).
    pub fn imbalance(&self) -> f64 {
        let total: usize = self.items_per_worker.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.items_per_worker.len() as f64;
        let max = *self.items_per_worker.iter().max().unwrap() as f64;
        max / mean
    }
}

/// Configuration of a parallel-for execution.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Items per scheduling chunk (grid points per task).
    pub grain: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            grain: 1,
        }
    }
}

/// Runs `task(index)` for every index in `0..n` on `config.threads`
/// threads, each claiming `config.grain` indices at a time. `task`
/// observes each index exactly once.
pub fn parallel_for<F>(n: usize, config: &PoolConfig, task: F) -> LoadStats
where
    F: Fn(usize) + Sync,
{
    parallel_for_init(n, config, || (), |(), i| task(i))
}

/// Like [`parallel_for`], but each worker first builds private state with
/// `init` and threads it through its `task` calls — the pattern for
/// per-thread solver scratch and oracles. A panicking task propagates:
/// its peers drain the rest of the range and the scope's join re-raises.
pub fn parallel_for_init<S, I, F>(n: usize, config: &PoolConfig, init: I, task: F) -> LoadStats
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let threads = config.threads.max(1);
    let grain = config.grain.max(1);
    if threads == 1 || n <= grain {
        let mut state = init();
        for i in 0..n {
            task(&mut state, i);
        }
        return LoadStats {
            items_per_worker: vec![n],
        };
    }

    let cursor = AtomicUsize::new(0);
    let items_per_worker = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut items = 0;
                    loop {
                        // ORDERING: Relaxed — the cursor only hands out
                        // disjoint index ranges; the tasks' writes reach
                        // the caller through the scope's join.
                        let lo = cursor.fetch_add(grain, Ordering::Relaxed);
                        if lo >= n {
                            break items;
                        }
                        let hi = (lo + grain).min(n);
                        for i in lo..hi {
                            task(&mut state, i);
                        }
                        items += hi - lo;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    LoadStats { items_per_worker }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Runs `parallel_for(n, {threads, grain})` and checks that every
    /// index is visited exactly once, that the per-worker counts add up
    /// to `n`, and that workers beyond the `ceil(n / grain)` claims the
    /// cursor can hand out come back with nothing.
    fn check_every_index_exactly_once(n: usize, threads: usize, grain: usize) {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let stats = parallel_for(n, &PoolConfig { threads, grain }, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        let case = format!("n={n} threads={threads} grain={grain}");
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "{case} index {i}");
        }
        assert_eq!(stats.items_per_worker.iter().sum::<usize>(), n, "{case}");
        if n > grain {
            assert_eq!(stats.items_per_worker.len(), threads, "{case}");
            let busy = stats.items_per_worker.iter().filter(|&&c| c > 0).count();
            assert!(busy <= n.div_ceil(grain), "{case}: {stats:?}");
            // Every claim but the last is a full grain.
            let short = stats.items_per_worker.iter().filter(|&&c| c % grain != 0);
            assert!(short.count() <= 1, "{case}: {stats:?}");
        }
    }

    #[test]
    fn every_index_exactly_once() {
        check_every_index_exactly_once(1000, 4, 7); // grain ∤ n: the last claim is short
        check_every_index_exactly_once(1001, 4, 7); // grain | n
        check_every_index_exactly_once(10, 8, 3); // 4 claims, 8 workers: ≥ 4 return with 0 items
        check_every_index_exactly_once(65, 3, 64); // 2 claims, the second of one index
        check_every_index_exactly_once(5, 2, 1);
        check_every_index_exactly_once(0, 4, 1); // nothing to claim
    }

    #[test]
    fn zero_items_is_a_noop() {
        let stats = parallel_for(0, &PoolConfig::default(), |_| panic!("no items"));
        assert_eq!(stats.items_per_worker.iter().sum::<usize>(), 0);
    }

    #[test]
    fn single_thread_is_sequential() {
        let order = std::sync::Mutex::new(Vec::new());
        parallel_for(
            10,
            &PoolConfig {
                threads: 1,
                grain: 3,
            },
            |i| order.lock().unwrap().push(i),
        );
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn imbalanced_work_is_shared() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        // Nothing stops one worker from draining the whole range before
        // its peers are scheduled, so each worker's first item holds until
        // a second worker has claimed one too. It cannot deadlock: every
        // worker is spawned and the held item leaves the cursor with work.
        let n = 400;
        let arrived = (Mutex::new(0usize), Condvar::new());
        let stats = parallel_for_init(
            n,
            &PoolConfig {
                threads: 4,
                grain: 1,
            },
            || true,
            |first, i| {
                if std::mem::take(first) {
                    let (count, cv) = &arrived;
                    let mut count = count.lock().unwrap();
                    *count += 1;
                    cv.notify_all();
                    let (count, wait) = cv
                        .wait_timeout_while(count, Duration::from_secs(60), |c| *c < 2)
                        .unwrap();
                    drop(count);
                    assert!(!wait.timed_out(), "no second worker claimed an item");
                }
                let reps = if i % 10 == 0 { 5 } else { 1 };
                for _ in 0..reps {
                    std::thread::yield_now();
                }
            },
        );
        let total: usize = stats.items_per_worker.iter().sum();
        assert_eq!(total, n);
        let busy = stats.items_per_worker.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 2, "{:?}", stats.items_per_worker);
    }

    #[test]
    fn imbalance_metric() {
        let stats = LoadStats {
            items_per_worker: vec![10, 10, 10, 10],
        };
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
        let skew = LoadStats {
            items_per_worker: vec![40, 0, 0, 0],
        };
        assert!((skew.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn per_worker_state_is_private_and_initialized_once() {
        use std::sync::Mutex;
        // Each worker's state is a (worker_tag, count) pair; verify init
        // runs once per worker thread and state never crosses threads.
        let inits = AtomicU32::new(0);
        let observed = Mutex::new(Vec::new());
        let n = 300;
        parallel_for_init(
            n,
            &PoolConfig {
                threads: 3,
                grain: 5,
            },
            || {
                let tag = inits.fetch_add(1, Ordering::SeqCst);
                (tag, 0usize)
            },
            |(tag, count), _i| {
                *count += 1;
                observed.lock().unwrap().push((*tag, *count));
            },
        );
        assert!(inits.load(Ordering::SeqCst) <= 3);
        // Per-tag counts must be the strictly increasing sequence 1..=k —
        // interleaving across threads would break it if state leaked.
        let mut per_tag: std::collections::HashMap<u32, usize> = Default::default();
        let mut total = 0usize;
        for (tag, count) in observed.into_inner().unwrap() {
            let prev = per_tag.entry(tag).or_insert(0);
            assert_eq!(count, *prev + 1, "tag {tag}");
            *prev = count;
            total += 1;
        }
        assert_eq!(total, n);
    }

    #[test]
    fn grain_larger_than_n_degenerates_to_serial() {
        let hits: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(0)).collect();
        let stats = parallel_for(
            10,
            &PoolConfig {
                threads: 8,
                grain: 100,
            },
            |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Serial fast path reports a single worker.
        assert_eq!(stats.items_per_worker, vec![10]);
    }

    #[test]
    fn panics_in_tasks_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(
                50,
                &PoolConfig {
                    threads: 2,
                    grain: 1,
                },
                |i| {
                    if i == 17 {
                        panic!("injected");
                    }
                },
            );
        });
        assert!(result.is_err(), "worker panic must not be swallowed");
    }
}
