//! The lock-free instruments: counters, gauges, log-linear histograms,
//! and scoped span timers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Smallest bucketed exponent: values below `2^-30 s` (≈ 0.93 ns) land in
/// the underflow bucket.
const MIN_EXP: i64 = -30;
/// Largest bucketed exponent: values at or above `2^12 s` (≈ 68 min) land
/// in the overflow bucket.
const MAX_EXP: i64 = 12;
/// Sub-buckets per octave (power of two: the sub-bucket is read straight
/// off the top three mantissa bits, no `log2` on the record path).
const SUBS: i64 = 8;

/// Total bucket count of [`Histogram`]: one
/// underflow bucket, one overflow bucket, and `SUBS` linear sub-buckets
/// for every octave in `[2^-30, 2^12)`.
pub const BUCKETS: usize = ((MAX_EXP - MIN_EXP) * SUBS) as usize + 2;

/// Maps a duration in seconds to its bucket index.
///
/// Log-linear: the octave comes from the IEEE-754 exponent field, the
/// sub-bucket from the top three mantissa bits — a handful of integer ops,
/// no floating-point transcendentals. Zero, negative, and NaN inputs fall
/// into the underflow bucket.
#[inline]
fn bucket_index(seconds: f64) -> usize {
    if seconds.is_nan() || seconds <= 0.0 {
        return 0;
    }
    let bits = seconds.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> 49) & 0x7) as i64;
    let idx = (exp - MIN_EXP) * SUBS + sub + 1;
    idx.clamp(0, BUCKETS as i64 - 1) as usize
}

/// Upper bound (in seconds) of bucket `idx` — the representative value
/// quantile queries report, so reported quantiles never understate.
fn bucket_upper(idx: usize) -> f64 {
    if idx == 0 {
        return 2f64.powi(MIN_EXP as i32);
    }
    if idx >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let i = (idx - 1) as i64;
    let exp = MIN_EXP + i / SUBS;
    let sub = i % SUBS;
    2f64.powi(exp as i32) * (1.0 + (sub + 1) as f64 / SUBS as f64)
}

/// A monotone event counter on a relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        // ORDERING: Relaxed — independent event tally; nothing is
        // published through this write and readers need only totals.
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — independent tally update, no ordering
        // dependency on surrounding memory.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — scrapes tolerate a slightly stale value;
        // monotonicity per writer is all exposition needs.
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins (or running-maximum) gauge on a relaxed atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        // ORDERING: Relaxed — last-value-wins gauge; no reader infers
        // anything about other memory from it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (running peak).
    #[inline]
    pub fn fetch_max(&self, v: u64) {
        // ORDERING: Relaxed — the RMW itself is atomic, which is all a
        // running peak needs; order against other memory is irrelevant.
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` (e.g. resources acquired).
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — independent tally update, no ordering
        // dependency on surrounding memory.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (e.g. resources released).
    #[inline]
    pub fn sub(&self, n: u64) {
        // ORDERING: Relaxed — independent tally update, mirror of `add`.
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — scrapes tolerate a slightly stale value;
        // monotonicity per writer is all exposition needs.
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-linear latency histogram with wait-free recording.
///
/// Buckets span `2^-30 s` … `2^12 s` with [`SUBS`] linear sub-buckets per
/// octave, so the relative width of any bucket is at most
/// [`Histogram::MAX_RELATIVE_ERROR`] (12.5 %); quantiles report the
/// bucket's upper bound, so they overshoot the exact nearest-rank value by
/// at most that factor and never undershoot it. Recording touches four
/// relaxed atomics (bucket, count, sum, max) — safe on the exact-hit
/// serving path.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    /// Maximum observed value, stored as f64 bits (order-preserving for
    /// non-negative floats, so `fetch_max` on the bits is a float max).
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Worst-case relative error of a reported quantile: the widest
    /// bucket's relative width, `1 / SUBS`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUBS as f64;

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation (in seconds).
    #[inline]
    pub fn record(&self, seconds: f64) {
        let idx = bucket_index(seconds);
        // ORDERING: Relaxed — each field is an independent tally; a
        // scrape may see count ahead of sum by an in-flight record, which
        // exposition tolerates by design (no cross-field invariant).
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — see above; same in-flight-record slack.
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = if seconds.is_nan() || seconds <= 0.0 {
            0
        } else {
            (seconds * 1e9).round() as u64
        };
        // ORDERING: Relaxed — see above; same in-flight-record slack.
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_bits
            // ORDERING: Relaxed — atomic RMW suffices for a running max.
            .fetch_max(seconds.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — scrape read; staleness by an in-flight
        // record is acceptable, see `record`.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        // ORDERING: Relaxed — scrape read, same slack as `count`.
        self.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Largest observation, in seconds (0 when empty).
    pub fn max_seconds(&self) -> f64 {
        // ORDERING: Relaxed — scrape read, same slack as `count`.
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile `q ∈ (0, 1]` over the cumulative bucket
    /// counts, reporting the matched bucket's upper bound (the overflow
    /// bucket reports the exact observed maximum). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        self.percentiles(&[q])[0]
    }

    /// [`Histogram::percentile`] for several quantiles over one coherent
    /// read of the bucket array.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<f64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            // ORDERING: Relaxed — the bucket array is sampled bucket by
            // bucket; quantiles are statistics over a scrape-consistent
            // snapshot, not an exact point-in-time state.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        qs.iter()
            .map(|&q| {
                if total == 0 {
                    return 0.0;
                }
                let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
                let mut seen = 0u64;
                for (i, &n) in counts.iter().enumerate() {
                    seen += n;
                    if seen >= rank {
                        return if i >= BUCKETS - 1 {
                            self.max_seconds()
                        } else {
                            bucket_upper(i)
                        };
                    }
                }
                self.max_seconds()
            })
            .collect()
    }
}

/// A scoped phase timer: records the guard's lifetime into a histogram
/// when dropped.
///
/// ```
/// use std::sync::Arc;
/// use hddm_telemetry::{Histogram, SpanTimer};
///
/// let hist = Arc::new(Histogram::new());
/// {
///     let _span = SpanTimer::start(hist.clone());
///     // ... timed work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[must_use = "a SpanTimer records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct SpanTimer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing now; the elapsed wall time is recorded into `hist`
    /// on drop.
    pub fn start(hist: Arc<Histogram>) -> SpanTimer {
        SpanTimer {
            hist,
            start: Instant::now(),
        }
    }

    /// Ends the span now (identical to dropping it).
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        let mut v = 2f64.powi(-34);
        while v < 2f64.powi(14) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < BUCKETS);
            last = idx;
            v *= 1.01;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_brackets_every_value() {
        for &v in &[1e-9, 3.7e-6, 1e-3, 0.25, 1.0, 17.3, 4000.0] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            if idx > 0 {
                let lower = bucket_upper(idx - 1);
                assert!(lower <= v, "lower {lower} > value {v}");
                assert!(
                    upper / lower - 1.0 <= Histogram::MAX_RELATIVE_ERROR + 1e-12,
                    "bucket {idx} wider than the guarantee"
                );
            }
        }
    }

    #[test]
    fn histogram_basic_stats() {
        let h = Histogram::new();
        for v in [0.001, 0.002, 0.004, 0.008] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum_seconds() - 0.015).abs() < 1e-9);
        assert_eq!(h.max_seconds(), 0.008);
        let p50 = h.percentile(0.5);
        assert!((0.002..=0.002 * (1.0 + Histogram::MAX_RELATIVE_ERROR)).contains(&p50));
        // Overflow bucket reports the true max.
        h.record(1e9);
        assert_eq!(h.percentile(1.0), 1e9);
    }

    #[test]
    fn gauge_ops() {
        let g = Gauge::new();
        g.set(5);
        g.fetch_max(3);
        assert_eq!(g.get(), 5);
        g.fetch_max(9);
        assert_eq!(g.get(), 9);
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 10);
    }
}
