//! The point-in-time export format: a deterministic JSON snapshot and a
//! Prometheus-style text exposition.

use serde::{Deserialize, Serialize};

/// One counter reading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Instrument name (`hddm_<area>_<what>_total`).
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge reading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Instrument name (`hddm_<area>_<what>`).
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: u64,
}

/// One histogram reading: count/sum/max plus the nearest-rank quantiles
/// the serving benches report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Instrument name (`hddm_<area>_<phase>_seconds`).
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of observations, seconds.
    pub sum_seconds: f64,
    /// Largest observation, seconds.
    pub max_seconds: f64,
    /// Nearest-rank p50, seconds (bucket upper bound).
    pub p50: f64,
    /// Nearest-rank p99, seconds (bucket upper bound).
    pub p99: f64,
    /// Nearest-rank p999, seconds (bucket upper bound).
    pub p999: f64,
}

/// A point-in-time reading of every instrument in a [`Registry`], in
/// deterministic name order.
///
/// [`Registry`]: crate::Registry
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Serializes to compact JSON (deterministic: instrument order is the
    /// registry's sorted order, field order is fixed by the struct).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.serialize_json(&mut out);
        out
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The sample of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the Prometheus-style text exposition: counters and gauges
    /// as single samples, histograms as summaries (a `quantile` pair per
    /// quantile plus `_sum` / `_count` / `_max` series).
    pub fn text_exposition(&self) -> String {
        let mut out = String::new();
        let mut last_type_line: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if last_type_line.as_deref() != Some(line.as_str()) {
                out.push_str(&line);
                last_type_line = Some(line);
            }
        };
        for c in &self.counters {
            type_line(&mut out, &c.name, "counter");
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            type_line(&mut out, &g.name, "gauge");
            out.push_str(&format!("{} {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            type_line(&mut out, &h.name, "summary");
            for (q, v) in [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)] {
                out.push_str(&format!("{} {v}\n", series(&h.name, ("quantile", q))));
            }
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum_seconds));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
            out.push_str(&format!("{}_max {}\n", h.name, h.max_seconds));
        }
        out
    }
}

/// Renders `name{k="v"}`.
fn series(name: &str, (k, v): (&str, &str)) -> String {
    format!("{name}{{{k}=\"{v}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("hddm_t_requests_total").add(3);
        r.gauge("hddm_t_queue_depth").set(5);
        let h = r.histogram("hddm_t_wait_seconds");
        h.record(0.001);
        h.record(0.002);
        r
    }

    #[test]
    fn json_roundtrip_is_lossless_and_deterministic() {
        let snap = sample_registry().snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        // Re-snapshotting an unchanged registry yields identical text.
        assert_eq!(json, sample_registry().snapshot().to_json());
        assert_eq!(back.counter("hddm_t_requests_total"), Some(3));
        assert_eq!(back.gauge("hddm_t_queue_depth"), Some(5));
        assert_eq!(back.histogram("hddm_t_wait_seconds").unwrap().count, 2);
    }

    #[test]
    fn text_exposition_shape() {
        let text = sample_registry().snapshot().text_exposition();
        assert!(text.contains("# TYPE hddm_t_requests_total counter"));
        assert!(text.contains("hddm_t_requests_total 3"));
        assert!(text.contains("# TYPE hddm_t_queue_depth gauge"));
        assert!(text.contains("hddm_t_queue_depth 5"));
        assert!(text.contains("# TYPE hddm_t_wait_seconds summary"));
        assert!(text.contains("hddm_t_wait_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("hddm_t_wait_seconds_count 2"));
        // One TYPE line per instrument name.
        assert_eq!(text.matches("# TYPE hddm_t_wait_seconds ").count(), 1);
    }
}
