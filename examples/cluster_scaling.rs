//! The distributed machinery in action: per-state MPI-style group
//! splitting over the threaded communicator and the strong-scaling
//! simulator.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

use hddm::cluster::{
    proportional_ranks, strong_scaling_sweep, ClusterModel, Comm, LevelWork, ThreadComm,
};

fn main() {
    // --- 1. Proportional group assignment (Sec. IV-A, footnote 5).
    println!("rank-group assignment (M_z-proportional):");
    let m = vec![200usize, 100];
    let counts = proportional_ranks(&m, 3);
    println!("  paper example: M = {m:?}, 3 ranks -> groups {counts:?}");
    let skewed = vec![76_645usize, 73_874, 73_874, 69_026];
    println!(
        "  Fig. 9 spread: M = {skewed:?}, 64 ranks -> {:?}",
        proportional_ranks(&skewed, 64)
    );

    // --- 2. A real split + collective over rank threads.
    println!("\nthreaded communicator (6 ranks, split into 2 state groups):");
    let results = ThreadComm::launch(6, |world| {
        let color = world.rank() % 2;
        let group = world.split(color);
        // Each group sums its ranks' "points solved".
        let mut buf = vec![(world.rank() + 1) as f64];
        group.allreduce_sum(&mut buf);
        world.barrier();
        (color, group.rank(), buf[0])
    });
    for (rank, (color, group_rank, sum)) in results.iter().enumerate() {
        println!("  world rank {rank} -> group {color} rank {group_rank}; group total = {sum}");
    }

    // --- 3. Strong scaling of the Fig. 8 workload.
    println!("\nstrong-scaling simulation (Fig. 8 workload, Piz Daint model):");
    let model = ClusterModel::piz_daint(0.1147);
    let levels = vec![
        LevelWork {
            points_per_state: vec![119; 16],
        },
        LevelWork {
            points_per_state: vec![6_962; 16],
        },
        LevelWork {
            points_per_state: vec![273_996; 16],
        },
    ];
    let sweep = strong_scaling_sweep(&model, &levels, &[1, 16, 256, 4096]);
    let t1 = sweep[0].1.total;
    println!("  {:>6} {:>12} {:>8}", "nodes", "step [s]", "eff");
    for (n, timing) in &sweep {
        println!(
            "  {:>6} {:>12.1} {:>7.0}%",
            n,
            timing.total,
            100.0 * t1 / (*n as f64 * timing.total)
        );
    }
}
