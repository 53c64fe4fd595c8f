//! Order statistics the benchmark reports. Kept in the benchmark (not
//! borrowed from `hddm-telemetry`) so a change to the program under test
//! cannot move the yardstick.

/// Ascending copy of `values` (NaN-free by construction: every sample is
/// an `Instant` difference).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending slice: `sorted[ceil(q·n) − 1]`.
/// Panics on an empty slice — a metric without samples is a bug in the
/// workload, not a zero.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile ladder the tail selector picks from.
pub const TAIL_LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it among `n`; `None` when even the median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|q| n - (q * n as f64).ceil() as usize >= 10)
}

/// Minimum, median, quartiles, p90 and sample count of one timing
/// population — what is printed beside every timing metric.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            min: percentile(&s, 0.0),
            p25: percentile(&s, 0.25),
            p50: percentile(&s, 0.50),
            p75: percentile(&s, 0.75),
            p90: percentile(&s, 0.90),
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_its_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // Ten samples: p90 is the ninth, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_nothing_is_a_bug() {
        percentile(&[], 0.5);
    }

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(199), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        // ≈ 960 misses on the reference rung: p95 has 48 beyond, p99 only 9.
        assert_eq!(tail_quantile(960), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }
}
