//! Histogram correctness: seeded property test against a sorted-vector
//! nearest-rank reference, and lost-sample-free concurrent recording.

use std::sync::Arc;
use std::thread;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hddm_telemetry::{nearest_rank, Histogram};

/// Log-uniform sample in [1e-8 s, 100 s] — spans 33 octaves of the
/// bucket range, exercising many sub-buckets per case.
fn sample(rng: &mut ChaCha8Rng) -> f64 {
    let lg = rng.gen::<f64>() * (100f64.log2() - 1e-8f64.log2()) + 1e-8f64.log2();
    lg.exp2()
}

/// Property: the histogram reports the same p50/p99/p999 as the
/// sorted-vector nearest-rank reference, within one bucket's relative
/// error (the histogram reports the bucket's upper bound, so it may
/// overshoot by at most `MAX_RELATIVE_ERROR` and never undershoot).
/// (Named for the per-thread shards it once merged; samples are recorded
/// into the histogram directly.)
#[test]
fn merged_shards_match_sorted_reference_within_one_bucket() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e1e_7e1e);
    for case in 0..20 {
        let n = 100 + (case * 517) % 4000;
        let mut values = Vec::with_capacity(n);
        let hist = Histogram::new();
        for _ in 0..n {
            let v = sample(&mut rng);
            hist.record(v);
            values.push(v);
        }
        assert_eq!(hist.count(), n as u64, "case {case}: lost samples");

        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.50, 0.99, 0.999] {
            let exact = nearest_rank(&values, q);
            let approx = hist.percentile(q);
            assert!(
                approx >= exact * (1.0 - 1e-12),
                "case {case} q={q}: histogram {approx} undershoots exact {exact}"
            );
            assert!(
                approx <= exact * (1.0 + Histogram::MAX_RELATIVE_ERROR + 1e-12),
                "case {case} q={q}: histogram {approx} overshoots exact {exact} \
                 by more than one bucket"
            );
        }
    }
}

/// Concurrency: N threads recording into the shared atomic histogram lose
/// no samples, and the result is identical to the same samples recorded
/// by one thread.
#[test]
fn concurrent_recording_loses_no_samples() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 50_000;

    let shared = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let shared = shared.clone();
            thread::spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(t as u64);
                for _ in 0..PER_THREAD {
                    shared.record(sample(&mut rng));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let serial = Histogram::new();
    for t in 0..THREADS {
        let mut rng = ChaCha8Rng::seed_from_u64(t as u64);
        for _ in 0..PER_THREAD {
            serial.record(sample(&mut rng));
        }
    }

    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(shared.count(), total, "concurrent recording lost samples");
    // Same samples, same buckets: every quantile agrees exactly.
    for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
        assert_eq!(shared.percentile(q), serial.percentile(q), "q={q}");
    }
    assert_eq!(shared.max_seconds(), serial.max_seconds());
    assert!((shared.sum_seconds() - serial.sum_seconds()).abs() < 1e-6);
}
