//! Ablation of the paper's third contribution: the "hybrid cluster
//! oriented work-preempting scheduler ... which evenly distributes the
//! time iteration workload onto available CPU cores and accelerators".
//!
//! Part 1 simulates a mixed "Piz Daint"(CPU+GPU) + "Grand Tave"(KNL)
//! fleet under three assignment policies and sweeps the stealing chunk
//! size. Part 2 runs the *real* pool (`hddm-sched`: a shared cursor, the
//! policy Part 1 models as work stealing) on this host with
//! straggler-shaped task costs and reports the balance it achieves
//! against a static split.
//!
//! ```text
//! cargo run -p hddm-bench --release --bin scheduler [points]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use hddm_cluster::{fluid_bound, mixed_fleet, schedule, straggler_costs, Assignment};
use hddm_sched::{parallel_for, PoolConfig};

fn main() {
    let points: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    // ---------------- Part 1: fleet simulation ----------------
    let fleet = mixed_fleet(8, 8);
    let costs = straggler_costs(points, 0.05, 0.8, 42);
    let bound = fluid_bound(&fleet, &costs);

    println!("Work-preempting scheduler ablation");
    println!(
        "fleet: 8x daint (25.0x ref) + 8x tave (12.5x ref); {points} points, straggler tail 10% @ ~4.6x"
    );
    println!("fluid (perfect-balance) bound: {bound:.2} s\n");
    println!("  policy                      makespan [s]   vs bound   mean idle");
    for (label, policy) in [
        ("static equal split", Assignment::StaticEqual),
        ("static speed-proportional", Assignment::StaticProportional),
        (
            "work stealing, chunk 512",
            Assignment::WorkStealing { chunk: 512 },
        ),
        (
            "work stealing, chunk 64",
            Assignment::WorkStealing { chunk: 64 },
        ),
        (
            "work stealing, chunk 8",
            Assignment::WorkStealing { chunk: 8 },
        ),
    ] {
        let r = schedule(&fleet, &costs, policy);
        println!(
            "  {label:<27} {:>10.2}   {:>7.3}x   {:>7.1}%",
            r.makespan,
            r.makespan / bound,
            100.0 * r.idle_fraction
        );
    }

    // Chunk-size sweep: the quantization knee.
    println!("\n  stealing chunk sweep (makespan / bound):");
    print!("   ");
    for chunk in [1usize, 4, 16, 64, 256, 1024, 4096] {
        let r = schedule(&fleet, &costs, Assignment::WorkStealing { chunk });
        print!(" {chunk}:{:.3}", r.makespan / bound);
    }
    println!();

    // ---------------- Part 2: the real pool on this host ----------------
    // Static split = one giant chunk per worker (grain = n/threads);
    // stealing = fine grain. Work = spin for a cost drawn from the same
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

    println!("\nreal pool on this host ({threads} workers, {n} tasks, ~20 us mean):");
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
