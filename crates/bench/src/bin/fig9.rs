//! Regenerates **Fig. 9** (convergence of the time-iteration algorithm):
//! L2 and L∞ error as a function of compute time (left panel) and of
//! iteration step (right panel), with the paper's ε-continuation schedule
//! (iterate at fixed ε until the error stalls, then shrink ε and restart,
//! letting the ASGs grow).
//!
//! ```text
//! cargo run -p hddm-bench --release --bin fig9 [lifespan] [states]
//! ```
//!
//! The economy is the paper's model scaled to laptop size (default
//! `A = 6`, `Ns = 4`; the paper's `A = 60`, `Ns = 16` instance needed
//! 4,096 Cray nodes). The code path is identical.

use hddm_core::{DriverConfig, OlgStep, TimeIteration};
use hddm_kernels::KernelKind;
use hddm_olg::{Calibration, OlgModel};
use hddm_sched::PoolConfig;

fn main() {
    let lifespan: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let states: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let work_years = (lifespan * 3) / 4;

    println!(
        "Fig. 9 — time-iteration convergence (A = {lifespan}, d = {}, Ns = {states})",
        lifespan - 1
    );

    let model = OlgModel::new(Calibration::small(lifespan, work_years, states, 0.04));
    let mut config = DriverConfig {
        kernel: KernelKind::Avx2,
        start_level: 2,
        refine_epsilon: Some(3e-2),
        max_level: 4,
        max_steps: 1,
        tolerance: 0.0,
        pool: PoolConfig {
            threads: 1,
            grain: 4,
        },
        ..Default::default()
    };
    let mut ti = TimeIteration::new(OlgStep::new(model), config.clone());

    // ε-continuation schedule (paper footnote 12): iterate, then restart
    // with a decreased ε, which "slightly adds points to the grid and
    // therefore further lowers the error".
    let schedule = [3e-2, 1e-2, 3e-3];
    let mut cumulative_seconds = 0.0;
    println!();
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>14} {:>16}",
        "iter", "epsilon", "Linf", "L2", "node-seconds", "points/state"
    );
    let mut iter = 0usize;
    for &epsilon in &schedule {
        config.refine_epsilon = Some(epsilon);
        ti.config = config.clone();
        let mut last_sup = f64::INFINITY;
        for _ in 0..12 {
            let report = ti.step();
            cumulative_seconds += report.wall_seconds;
            iter += 1;
            let min_pts = report.points_per_state.iter().min().unwrap();
            let max_pts = report.points_per_state.iter().max().unwrap();
            println!(
                "{:>5} {:>9.0e} {:>12.3e} {:>12.3e} {:>14.2} {:>9}..{:<7}",
                iter,
                epsilon,
                report.sup_change,
                report.l2_change,
                cumulative_seconds,
                min_pts,
                max_pts
            );
            // Stalled at this ε? Move to the next refinement threshold.
            if report.sup_change > 0.98 * last_sup || report.sup_change < 1e-3 * epsilon {
                break;
            }
            last_sup = report.sup_change;
        }
    }

    let spread = ti.policy.points_per_state();
    println!();
    println!(
        "final ASG sizes per state: min {} / max {} (paper at its final ε: 69,026–76,645,\navg 73,874 per state at A = 60 scale)",
        spread.iter().min().unwrap(),
        spread.iter().max().unwrap()
    );

    // Solution quality in the paper's termination metric: "the average
    // error dropped below the satisfactory level of 0.1 percent".
    use rand::SeedableRng;
    let mut oracle = ti.policy.oracle(KernelKind::Avx2);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let path = hddm_olg::euler_errors_on_path(&ti.model.model, &mut oracle, 200, 20, &mut rng);
    let boxed = hddm_olg::euler_errors_on_box(&ti.model.model, &mut oracle, 500, &mut rng);
    println!();
    println!("Euler-equation errors of the converged policy (consumption units):");
    println!(
        "  simulated path (200 periods): mean 10^{:.2}  max 10^{:.2}",
        path.mean_log10, path.max_log10
    );
    println!(
        "  uniform box (500 draws):      mean 10^{:.2}  max 10^{:.2}",
        boxed.mean_log10, boxed.max_log10
    );
    println!(
        "paper's termination criterion: average error below 0.1% (10^-3); path mean {}",
        if path.mean_error < 1e-3 {
            "PASSES"
        } else {
            "does not pass yet"
        }
    );
}
