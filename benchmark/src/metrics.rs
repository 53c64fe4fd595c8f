//! The metrics the benchmark emits, by name and unit. `BENCHMARK.json`
//! declares the same two sets (a unit test compares them); every workload
//! emits every metric of the set its run mode selects.

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// What a user of the system sees; measured with tracing off. Every
/// workload has a heavy operation (`op_ms`: one cold solve, one
/// 32-scenario sweep, one served miss, one single-point pass) and a light
/// one that reads what the heavy one produces (`fast_op_ms`: the accuracy
/// check of the solved policy, the re-sweep from disk, one served exact
/// hit, one batch pass): the fastest whole repetition of a deterministic
/// operation, the median over all requests of a served one (README, "Noise
/// protocol").
pub const END_TO_END: &[Decl] = &[
    m("op_ms", "ms"),
    m("fast_op_ms", "ms"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// Single layers (the repo's crates); measured in the `--trace 1` run. A
/// layer that does nothing on a workload reports 0 there.
pub const PER_LAYER: &[Decl] = &[
    // kernels, at the olg→kernels boundary (solve_cold, sweep_warm)
    m("kernels.oracle_calls", "count"),
    m("kernels.oracle_busy_s", "s"),
    m("kernels.oracle_us_per_call", "us"),
    m("kernels.oracle_share", "ratio"),
    // kernels, called directly (interp_stream)
    m("kernels.single_us_per_point.7k", "us"),
    m("kernels.batch_us_per_point.7k", "us"),
    m("kernels.batch_pps.npts2.7k", "points/s"),
    m("kernels.batch_pps.npts7.7k", "points/s"),
    m("kernels.batch_pps.npts64.7k", "points/s"),
    m("kernels.surplus_bytes_computed.7k", "bytes"),
    m("kernels.max_abs_dev_vs_gold", "abs"),
    m("kernels.single_us_per_point.300k", "us"),
    m("kernels.batch_us_per_point.300k", "us"),
    // gpu: the simulated device; `model_` = modeled, never measured
    m("gpu.block_wall_pps.7k", "points/s"),
    m("gpu.model_us_per_point.7k", "us"),
    m("gpu.model_dram_bytes_per_point.7k", "bytes"),
    m("gpu.model_flops_per_point.7k", "flops"),
    m("gpu.model_launches", "count"),
    // olg + solver: the point problem
    m("olg.point_solves", "count"),
    m("olg.point_self_s", "s"),
    m("olg.oracle_calls_per_point", "ratio"),
    m("solver.newton_iters_per_point", "ratio"),
    m("solver.failures", "count"),
    // core (+ asg, compress): the time-iteration driver
    m("core.steps", "count"),
    m("core.points_solved", "count"),
    m("core.final_points_per_state", "count"),
    m("core.euler_err_mean", "ratio"),
    m("core.policy_update_s", "s"),
    m("core.hierarchize_s", "s"),
    m("core.refine_s", "s"),
    m("core.compress_s", "s"),
    m("core.unattributed_share", "ratio"),
    m("asg.hierarchize_ms", "ms"),
    m("compress.build_ms", "ms"),
    m("core.solve_s.xs", "s"),
    m("core.solve_s.s", "s"),
    m("core.solve_s.m", "s"),
    m("kernels.oracle_share.xs", "ratio"),
    m("kernels.oracle_share.s", "ratio"),
    m("kernels.oracle_share.m", "ratio"),
    // sched
    m("sched.solve_2t_s", "s"),
    m("sched.pool_eff_2t", "ratio"),
    // scenarios: the surface cache
    m("scenarios.lookup_us", "us"),
    m("scenarios.restore_us", "us"),
    m("scenarios.project_ms", "ms"),
    m("scenarios.sweep_cold", "count"),
    m("scenarios.sweep_warm", "count"),
    m("scenarios.sweep_exact", "count"),
    m("scenarios.steps_total", "count"),
    m("scenarios.warm_steps_saved", "count"),
    // scenarios: persistence
    m("scenarios.deposit_ms_p50", "ms"),
    m("scenarios.deposit_ms_at_1k", "ms"),
    m("scenarios.record_bytes", "bytes"),
    m("scenarios.encode_us", "us"),
    m("scenarios.decode_us", "us"),
    m("scenarios.deposit_share", "ratio"),
    // serve: reference rung (300 req/s) unless a rung is named
    m("serve.exact_p50_us", "us"),
    m("serve.exact_service_us_p50", "us"),
    m("serve.miss_p50_ms", "ms"),
    m("serve.miss_p90_ms", "ms"),
    m("serve.miss_tail_ms", "ms"),
    m("serve.miss_tail_percentile", "%"),
    m("serve.gen_late_ms_max", "ms"),
    m("serve.queue_wait_ms_p50", "ms"),
    m("serve.batch_solve_ms_p50", "ms"),
    m("serve.batch_size_mean", "ratio"),
    m("serve.coalesced", "count"),
    m("serve.rejected", "count"),
    m("serve.shed", "count"),
    m("serve.queue_depth_peak.r300", "count"),
    m("serve.queue_depth_peak.r600", "count"),
    m("serve.queue_depth_peak.r1200", "count"),
    m("serve.ok_share.r300", "ratio"),
    m("serve.ok_share.r600", "ratio"),
    m("serve.ok_share.r1200", "ratio"),
    m("serve.max_ok_rps", "1/s"),
    m("serve.miss_queue_share", "ratio"),
    m("serve.miss_solve_share", "ratio"),
    m("serve.miss_deposit_share", "ratio"),
    m("serve.miss_unattributed_share", "ratio"),
    // telemetry: what the traced run itself costs
    m("telemetry.trace_overhead_share", "ratio"),
];

/// The values of one run, over one declared set.
pub struct MetricSet {
    decls: &'static [Decl],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// Nothing set yet: every metric must be [`MetricSet::set`] before
    /// [`MetricSet::finish`].
    pub fn end_to_end() -> MetricSet {
        MetricSet {
            decls: END_TO_END,
            values: vec![None; END_TO_END.len()],
        }
    }

    /// All zero: a workload sets the metrics of the layers it exercises.
    pub fn per_layer() -> MetricSet {
        MetricSet {
            decls: PER_LAYER,
            values: vec![Some(0.0); PER_LAYER.len()],
        }
    }

    /// Sets a declared metric; an undeclared name is a bug in the workload.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .decls
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[at] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let at = self.decls.iter().position(|d| d.name == name)?;
        self.values[at]
    }

    /// Every declared metric with its value, or what is wrong: a metric
    /// left unset or not finite, or an end-to-end metric that is not
    /// positive (the driver divides by their medians).
    pub fn finish(&self) -> Result<Vec<(Decl, f64)>, String> {
        let positive = std::ptr::eq(self.decls, END_TO_END);
        self.decls
            .iter()
            .zip(&self.values)
            .map(|(d, v)| match v {
                None => Err(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => Err(format!("metric {} is {v}", d.name)),
                Some(v) if positive && *v <= 0.0 => {
                    Err(format!("end-to-end metric {} is {v}, must be > 0", d.name))
                }
                Some(v) => Ok((*d, *v)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {:?}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        // A modeled quantity says so in its name and is never end to end.
        assert!(END_TO_END.iter().all(|d| !d.name.contains("model")));
    }

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        obj.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key:?}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        field(doc, key)
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn emitted_sets_equal_the_sets_benchmark_json_declares() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = decls
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(
                declared(&doc, key),
                want,
                "{key} differs from BENCHMARK.json"
            );
        }
        assert_eq!(bounded_workloads(&doc), crate::WORKLOADS[..3]);
        assert_eq!(crate::WORKLOADS[3], crate::UNBOUNDED_WORKLOAD);
    }

    /// The workloads `BENCHMARK.json` lists: the ones held to a bound.
    fn bounded_workloads(doc: &Value) -> Vec<String> {
        field(doc, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| text(field(w, "name")).to_string())
            .collect()
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Number(n) => n.parse().expect("a number"),
            other => panic!("expected a number, got {}", other.kind()),
        }
    }

    /// `bounds.json` holds every workload's own bound on every end-to-end
    /// metric; `BENCHMARK.json`, which has room for one bound per metric
    /// name, carries the loosest of them.
    #[test]
    fn benchmark_json_carries_the_loosest_bound_of_each_metric() {
        let read = |path: &str| {
            let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
            serde_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
        };
        let (doc, bounds) = (read("../BENCHMARK.json"), read("bounds.json"));
        let workloads = bounded_workloads(&doc);
        assert_eq!(bounds.as_object().unwrap().len(), workloads.len());
        for metric in field(&doc, "end_to_end").as_array().unwrap() {
            let name = text(field(metric, "name"));
            let per_workload: Vec<f64> = workloads
                .iter()
                .map(|w| number(field(field(&bounds, w), name)))
                .collect();
            assert!(per_workload.iter().all(|b| *b > 0.0 && *b <= 0.25));
            let loosest = per_workload.iter().copied().fold(0.0, f64::max);
            assert_eq!(number(field(metric, "bound")), loosest, "{name}");
        }
        for w in &workloads {
            assert_eq!(
                field(&bounds, w).as_object().unwrap().len(),
                END_TO_END.len()
            );
        }
    }

    #[test]
    fn metric_set_rejects_gaps_and_zeros() {
        let mut e2e = MetricSet::end_to_end();
        assert!(e2e.finish().unwrap_err().contains("not measured"));
        for d in END_TO_END {
            e2e.set(d.name, 1.5);
        }
        assert_eq!(e2e.finish().unwrap().len(), END_TO_END.len());
        e2e.set("setup_s", 0.0);
        assert!(e2e.finish().unwrap_err().contains("must be > 0"));
        let mut layers = MetricSet::per_layer();
        assert!(layers.finish().unwrap().iter().all(|(_, v)| *v == 0.0));
        layers.set("core.steps", f64::NAN);
        assert!(layers.finish().is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        MetricSet::per_layer().set("core.stepz", 1.0);
    }
}
