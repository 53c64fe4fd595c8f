//! # hddm-telemetry — lock-free metrics core
//!
//! The workspace's telemetry substrate: every subsystem that used to keep
//! its own counter island (`ServiceStats` atomics in `hddm-serve`,
//! `CacheStats` in `hddm-scenarios`, the compression-build count in
//! `hddm-compress`) now records through the instruments defined here, so
//! one registry, one naming scheme, and one export path cover solve +
//! serve.
//!
//! * [`Counter`] / [`Gauge`] — relaxed-ordering atomics; `inc`/`add`/`set`
//!   are single `fetch_add`/`store` instructions, safe on every hot path;
//! * [`Histogram`] — a fixed-bucket log-linear latency histogram
//!   (8 sub-buckets per octave over `2^-30 s ≈ 1 ns` … `2^12 s`, ≤ 12.5 %
//!   relative bucket width). Recording is wait-free (`fetch_add` on one
//!   bucket); quantiles are nearest-rank over the cumulative bucket
//!   counts — the same definition [`nearest_rank`] applies to a sorted
//!   sample vector;
//! * [`SpanTimer`] — a scoped guard that records wall time into a
//!   histogram on drop; phase timing for solve
//!   (hierarchize/refine/policy-update/compress), serve
//!   (exact-hit/warm-hint/queue-wait/batch-solve) and cache
//!   (restore/deposit/evict) all use it;
//! * [`Registry`] — named instruments (a new name must follow
//!   `hddm_<subsystem>_<what>`: counters end `_total`, histograms and
//!   spans `_seconds`, gauges neither), deterministic (sorted) iteration
//!   order, collect hooks for computed
//!   gauges, and two exporters: a deterministic JSON [`Snapshot`] and a
//!   Prometheus-style text exposition
//!   ([`Snapshot::text_exposition`]).
//!
//! No dependencies beyond `std` and the workspace serde shim (used only
//! by the snapshot serializer, never on a record path).
//!
//! ```
//! use hddm_telemetry::Registry;
//!
//! let registry = Registry::new();
//! registry.counter("hddm_demo_requests_total").inc();
//! {
//!     let _span = registry.span("hddm_demo_phase_seconds");
//!     // ... timed work ...
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters[0].value, 1);
//! assert_eq!(snap.histograms[0].count, 1);
//! assert!(snap.to_json().starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod instrument;
mod registry;
mod snapshot;

pub use instrument::{Counter, Gauge, Histogram, SpanTimer, BUCKETS};
pub use registry::Registry;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};

/// Nearest-rank percentile of an ascending-sorted sample vector.
///
/// `q` is the quantile in `(0, 1]` (e.g. `0.99` for p99). The nearest-rank
/// definition picks `sorted[ceil(q · n) - 1]` — the definition the
/// runtime [`Histogram`] applies to its cumulative bucket counts, kept
/// here so exact and bucketed percentiles can be compared. Returns `0.0`
/// for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 0.999), 100.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }
}
