//! The Fig. 2 distributed execution, end to end: rank threads stand in
//! for MPI processes, the world communicator splits into one group per
//! discrete state (sized ∝ the grid-point counts `M_z`), groups solve
//! their frontiers cooperatively with per-level allgather merges, and the
//! new policy is exchanged world-wide — then the whole thing is checked
//! against the same driver on one process, which must agree **bitwise**.
//!
//! ```text
//! cargo run --release --example distributed_run [ranks]
//! ```

use hddm::cluster::ThreadComm;
use hddm::core::{DriverConfig, OlgStep, TimeIteration};
use hddm::kernels::KernelKind;
use hddm::olg::{Calibration, OlgModel, PolicyOracle};
use hddm::sched::PoolConfig;

fn config(steps: usize) -> DriverConfig {
    DriverConfig {
        kernel: KernelKind::Avx2,
        start_level: 2,
        max_steps: steps,
        tolerance: 1e-7,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    }
}

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let steps = 30;
    let make = || OlgModel::new(Calibration::small(5, 3, 2, 0.03));

    println!("distributed time iteration: {ranks} ranks, 2 discrete states, A = 5\n");

    // The one-rank reference: the same driver over the default world.
    let t0 = std::time::Instant::now();
    let mut serial = TimeIteration::new(OlgStep::new(make()), config(steps));
    let serial_reports = serial.run();
    let t_serial = t0.elapsed().as_secs_f64();

    // The same run over rank threads.
    let t0 = std::time::Instant::now();
    let results = ThreadComm::launch(ranks, |world| {
        let mut ti = TimeIteration::over(world, OlgStep::new(make()), config(steps));
        let reports = ti.run();
        let x = make().steady.state_vector();
        let mut oracle = ti.policy.oracle(KernelKind::Avx2);
        let mut row = vec![0.0; 8];
        oracle.eval(0, &x, &mut row);
        (reports.len(), reports.last().unwrap().sup_change, row)
    });
    let t_dist = t0.elapsed().as_secs_f64();

    let (steps_done, final_change, dist_row) = &results[0];
    println!(
        "1 rank:      {} steps, final ‖Δp‖∞ = {:.2e}, {:.2} s",
        serial_reports.len(),
        serial_reports.last().unwrap().sup_change,
        t_serial
    );
    println!(
        "{ranks} ranks:     {steps_done} steps, final ‖Δp‖∞ = {final_change:.2e}, {t_dist:.2} s (rank threads)"
    );

    // Bitwise agreement across ranks and against one rank.
    for (r, (_, _, row)) in results.iter().enumerate() {
        assert_eq!(row, dist_row, "rank {r} disagrees");
    }
    let x = make().steady.state_vector();
    let mut serial_row = vec![0.0; 8];
    serial
        .policy
        .oracle(KernelKind::Avx2)
        .eval(0, &x, &mut serial_row);
    assert_eq!(&serial_row, dist_row, "{ranks} ranks != 1 rank");
    println!("\nall {ranks} ranks agree bitwise with a one-rank run ✓");
    println!("(on this single-core host rank threads timeshare, so wall times are\nsimilar; on a real cluster each rank is a node — see fig8 for the scaling)");
}
