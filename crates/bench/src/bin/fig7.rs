//! Regenerates **Fig. 7** (single-node wall times for the OLG first two
//! refinement levels: 16·119 = 1,904 points, 112,336 unknowns).
//!
//! ```text
//! cargo run -p hddm-bench --release --bin fig7 [calibration-points]
//! ```
//!
//! Step 1 *measures* the real per-point solve time of the 59-dimensional
//! OLG system on this host (single thread, AVX2 kernels, level-2 policy
//! grids — the exact workload of the figure). Step 2 applies the node
//! models of the two Cray systems (`hddm_bench::nodesim`) to produce the
//! figure's bars.

use hddm_bench::calibrate_point_seconds;
use hddm_bench::nodesim::fig7_variants;

fn main() {
    let sample: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);

    const POINTS: usize = 16 * 119; // 1,904
    println!("Fig. 7 — single-node performance, OLG levels 1–2");
    println!("instance: {POINTS} points, {} variables", POINTS * 59);
    println!();
    println!("calibrating: solving {sample} real 59-dim OLG points (single thread)...");
    let t_point = calibrate_point_seconds(sample, 2);
    println!(
        "measured per-point solve: {:.4} s  (this host, 1 thread)",
        t_point
    );
    let host_serial = t_point * POINTS as f64;
    println!(
        "=> full instance on this host, 1 thread: {:.0} s (paper's Xeon: 2,243 s)",
        host_serial
    );
    println!();

    println!(
        "{:<44} {:>12} {:>9}",
        "configuration", "wall [sec]", "speedup"
    );
    let variants = fig7_variants();
    let reference = variants[0].wall_time(POINTS, t_point);
    for v in &variants {
        let t = v.wall_time(POINTS, t_point);
        println!("{:<44} {:>12.1} {:>8.1}x", v.name, t, reference / t);
    }
    println!();
    println!("Paper reference shape: 12-thread+GPU Piz Daint node = 25x one CPU thread;");
    println!("KNL node = 96x one KNL thread; Piz Daint node ≈ 2x Grand Tave node.");
}
