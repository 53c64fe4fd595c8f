//! Hybrid CPU + accelerator dispatch (lower part of Fig. 2): CPU workers
//! pull fine-grained chunks while "one of the TBB-managed threads is
//! exclusively used for the GPU dispatch", preempting large batches of
//! work from the same queue so the accelerator stays saturated.

use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_deque::{Injector, Steal};

use crate::pool::{Chunk, RetireGuard};

/// Configuration of a hybrid execution.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// CPU worker threads (excluding the dispatch thread).
    pub cpu_threads: usize,
    /// Items per CPU chunk.
    pub cpu_grain: usize,
    /// Items the accelerator thread preempts per batch (0 disables the
    /// accelerator path).
    pub accel_batch: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            cpu_threads: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).max(1))
                .unwrap_or(1),
            cpu_grain: 1,
            accel_batch: 64,
        }
    }
}

/// Outcome of a hybrid run.
#[derive(Clone, Debug, Default)]
pub struct HybridStats {
    /// Items processed by each CPU worker.
    pub cpu_items: Vec<usize>,
    /// Items processed by the accelerator thread.
    pub accel_items: usize,
    /// Batches dispatched to the accelerator.
    pub accel_batches: usize,
}

/// Processes `0..n`, splitting between CPU workers (`cpu_task`, one index
/// at a time) and an accelerator dispatch thread (`accel_task`, whole
/// batches). Every index is handled exactly once, by exactly one side.
pub fn hybrid_for<C, A>(n: usize, config: &HybridConfig, cpu_task: C, accel_task: A) -> HybridStats
where
    C: Fn(usize) + Sync,
    A: Fn(Chunk) + Sync,
{
    let cpu_threads = config.cpu_threads.max(1);
    if config.accel_batch == 0 {
        let stats = crate::pool::parallel_for(
            n,
            &crate::pool::PoolConfig {
                threads: cpu_threads,
                grain: config.cpu_grain,
            },
            cpu_task,
        );
        return HybridStats {
            cpu_items: stats.items_per_worker,
            accel_items: 0,
            accel_batches: 0,
        };
    }

    // The shared queue holds CPU-grain chunks; the accelerator preempts
    // several of them per dispatch.
    let injector = Injector::new();
    let grain = config.cpu_grain.max(1);
    let mut outstanding = 0usize;
    let mut lo = 0;
    while lo < n {
        let hi = (lo + grain).min(n);
        injector.push(Chunk { lo, hi });
        outstanding += 1;
        lo = hi;
    }
    let remaining = AtomicUsize::new(outstanding);

    let cpu_counters: Vec<AtomicUsize> = (0..cpu_threads).map(|_| AtomicUsize::new(0)).collect();
    let accel_items = AtomicUsize::new(0);
    let accel_batches = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // CPU workers.
        for counter in cpu_counters.iter() {
            let injector = &injector;
            let remaining = &remaining;
            let cpu_task = &cpu_task;
            scope.spawn(move || loop {
                match injector.steal() {
                    Steal::Success(chunk) => {
                        // Retire on unwind too (see RetireGuard): a
                        // panicking task must not strand the queue.
                        let _retire = RetireGuard(remaining);
                        for i in chunk.lo..chunk.hi {
                            cpu_task(i);
                        }
                        // ORDERING: Relaxed — per-worker load statistic,
                        // read only after the scope joins.
                        counter.fetch_add(chunk.len(), Ordering::Relaxed);
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        // ORDERING: Acquire — pairs with RetireGuard's
                        // AcqRel decrement: observing zero must make the
                        // retired chunks' writes visible before exit.
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }

        // The dedicated accelerator dispatch thread: grabs up to
        // `accel_batch` items worth of chunks, coalesces contiguous runs,
        // and hands them to the device in batches.
        {
            let injector = &injector;
            let remaining = &remaining;
            let accel_task = &accel_task;
            let accel_items = &accel_items;
            let accel_batches = &accel_batches;
            let batch_target = config.accel_batch;
            scope.spawn(move || loop {
                let mut grabbed: Vec<Chunk> = Vec::new();
                let mut got = 0usize;
                while got < batch_target {
                    match injector.steal() {
                        Steal::Success(chunk) => {
                            got += chunk.len();
                            grabbed.push(chunk);
                        }
                        Steal::Retry => {
                            std::thread::yield_now();
                            continue;
                        }
                        Steal::Empty => break,
                    }
                }
                if grabbed.is_empty() {
                    // ORDERING: Acquire — same pairing as the CPU
                    // workers' exit check above.
                    if remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                }
                // The grabbed chunks are this thread's responsibility from
                // here on: retire them (on success *or* unwind) so a
                // panicking device task cannot strand the queue.
                let _retire: Vec<RetireGuard> =
                    grabbed.iter().map(|_| RetireGuard(remaining)).collect();
                // Coalesce contiguous chunks into maximal ranges so the
                // device sees few large launches.
                grabbed.sort_unstable_by_key(|c| c.lo);
                let mut run = grabbed[0];
                let mut dispatched = 0usize;
                for chunk in grabbed.into_iter().skip(1) {
                    if chunk.lo == run.hi {
                        run.hi = chunk.hi;
                    } else {
                        accel_task(run);
                        dispatched += run.len();
                        // ORDERING: Relaxed — dispatch statistic, read
                        // only after the scope joins.
                        accel_batches.fetch_add(1, Ordering::Relaxed);
                        run = chunk;
                    }
                }
                accel_task(run);
                dispatched += run.len();
                // ORDERING: Relaxed — dispatch statistics, read only
                // after the scope joins.
                accel_batches.fetch_add(1, Ordering::Relaxed);
                // ORDERING: Relaxed — as above.
                accel_items.fetch_add(dispatched, Ordering::Relaxed);
            });
        }
    });

    HybridStats {
        cpu_items: cpu_counters
            .iter()
            // ORDERING: Relaxed — workers have joined (scope ended);
            // single-threaded read-out of their counters.
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        // ORDERING: Relaxed — post-join read-out, as above.
        accel_items: accel_items.load(Ordering::Relaxed),
        // ORDERING: Relaxed — post-join read-out, as above.
        accel_batches: accel_batches.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn run(n: usize, config: &HybridConfig) -> (Vec<u32>, HybridStats) {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let stats = hybrid_for(
            n,
            config,
            |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            |chunk| {
                for i in chunk.lo..chunk.hi {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        (
            hits.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
            stats,
        )
    }

    #[test]
    fn every_item_once_with_accelerator() {
        let (hits, stats) = run(
            500,
            &HybridConfig {
                cpu_threads: 3,
                cpu_grain: 2,
                accel_batch: 32,
            },
        );
        assert!(hits.iter().all(|&h| h == 1), "duplicate or missing items");
        let cpu: usize = stats.cpu_items.iter().sum();
        assert_eq!(cpu + stats.accel_items, 500);
    }

    #[test]
    fn accelerator_disabled_falls_back_to_cpu() {
        let (hits, stats) = run(
            100,
            &HybridConfig {
                cpu_threads: 2,
                cpu_grain: 5,
                accel_batch: 0,
            },
        );
        assert!(hits.iter().all(|&h| h == 1));
        assert_eq!(stats.accel_items, 0);
        assert_eq!(stats.accel_batches, 0);
    }

    #[test]
    fn accelerator_receives_batches() {
        // No race to win: CPU tasks park until the accelerator's first
        // batch is handed over, so the dispatch thread's first grab sees
        // a CPU side holding ≤ 1 item and coalesces its `accel_batch`
        // items into ≤ 2 runs. The free-running tail is < 500 items, so
        // the mean batch is ≥ (9_500 + 499) / (2 + 499) ≈ 20 whatever
        // the schedule.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let n = 10_000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let engaged = AtomicBool::new(false);
        let stats = hybrid_for(
            n,
            &HybridConfig {
                cpu_threads: 1,
                cpu_grain: 1,
                accel_batch: 9_500,
            },
            |i| {
                let deadline = Instant::now() + Duration::from_secs(60);
                // ORDERING: Acquire — pairs with the accelerator task's
                // Release store; nothing else is published through it.
                while !engaged.load(Ordering::Acquire) {
                    assert!(
                        Instant::now() < deadline,
                        "accelerator dispatched no batch within 60 s"
                    );
                    std::thread::yield_now();
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            |chunk| {
                for i in chunk.lo..chunk.hi {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
                // ORDERING: Release — see the CPU task's Acquire load.
                engaged.store(true, Ordering::Release);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(stats.accel_items >= 9_500, "accelerator never engaged");
        let avg = stats.accel_items / stats.accel_batches.max(1);
        assert!(avg > 8, "batches too small: {avg}");
    }

    #[test]
    fn empty_input() {
        let (hits, stats) = run(0, &HybridConfig::default());
        assert!(hits.is_empty());
        assert_eq!(stats.accel_items, 0);
    }
}
