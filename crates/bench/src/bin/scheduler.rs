//! The paper's third contribution, measured: the "hybrid cluster oriented
//! work-preempting scheduler ... which evenly distributes the time
//! iteration workload onto available CPU cores and accelerators".
//!
//! Runs the real pool (`hddm-sched`: a shared cursor from which every free
//! worker claims the next `grain` items) on this host with
//! straggler-shaped task costs and reports the balance it achieves
//! against a static split.
//!
//! ```text
//! cargo run -p hddm-bench --release --bin scheduler
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use hddm_sched::{parallel_for, PoolConfig};

/// Synthetic per-point costs with straggler variance: deterministic
/// log-normal-ish multipliers around `mean_seconds` (Newton iteration
/// count differences), seeded for reproducibility.
fn straggler_costs(n: usize, mean_seconds: f64, cv: f64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1; // xorshift64
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

fn main() {
    // Static split = one giant chunk per worker (grain = n/threads);
    // stealing = fine grain. Work = spin for a cost drawn from the
    // straggler distribution. Report per-worker item balance.
    let n = 2_000usize;
    let threads = 4usize;
    let task_costs = straggler_costs(n, 20e-6, 0.8, 7);
    let spun = AtomicU64::new(0);
    let spin = |seconds: f64| {
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_secs_f64() < seconds {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(x);
        }
        // ORDERING: Relaxed — keeps the spin loop's result observable to
        // the optimizer; the count itself is never read for ordering.
        spun.fetch_add(1, Ordering::Relaxed);
    };

    println!("Work-preempting scheduler, measured");
    println!("real pool on this host ({threads} workers, {n} tasks, ~20 us mean):");
    for (label, grain) in [
        ("static split (grain n/T)", n.div_ceil(threads)),
        ("work stealing (grain 4)", 4usize),
    ] {
        let t0 = std::time::Instant::now();
        let stats = parallel_for(n, &PoolConfig { threads, grain }, |i| spin(task_costs[i]));
        let wall = t0.elapsed().as_secs_f64();
        let max_items = stats.items_per_worker.iter().max().copied().unwrap_or(0);
        let min_items = stats.items_per_worker.iter().min().copied().unwrap_or(0);
        println!(
            "  {label:<27} wall {wall:>7.3} s   items/worker {:?} (spread {})",
            stats.items_per_worker,
            max_items - min_items
        );
    }
    println!(
        "\n(single-core hosts timeshare the workers, so wall times converge; the\n\
         items-per-worker spread still shows stealing's balancing behaviour)"
    );
}
