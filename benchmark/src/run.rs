//! What every workload shares: the run context, the correctness ledger,
//! the result, and the noise protocol — whole operations timed from
//! outside over a fixed number of repetitions, set-up timed apart.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::MetricSet;
use crate::stats::Summary;

/// The arguments of one run.
pub struct Ctx {
    pub seed: u64,
    /// How long the run measures, on a quiet host.
    pub seconds: f64,
    /// One repetition, one set-up, no slow probes: wiring check only.
    pub smoke: bool,
    /// Cache directories live here; on the repo's filesystem, because a
    /// tmpfs would make every fsync free.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// How many timed repetitions of `nominal_rep_s` seconds each a run of
    /// `seconds` buys: a fixed count, at least three (one in a smoke run).
    /// Fixed by the arguments alone, so faster code under test does not
    /// get more draws than slower code.
    pub fn reps(&self, nominal_rep_s: f64) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds / nominal_rep_s) as usize).max(3)
        }
    }
}

/// A cache directory under the work directory that no other run or
/// repetition of this process uses; removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(ctx: &Ctx, label: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ORDERING: Relaxed — a unique ticket; publishes nothing.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("{label}-{}-{n}", std::process::id());
        ScratchDir(ctx.work_dir.join(name))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing to report to: a directory left behind is visible in
        // `git status`-clean checks, and `work/` is ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Output checks. A failed check makes the run incorrect and the process
/// exit non-zero; it never aborts the run, so every failure is listed.
#[derive(Default)]
pub struct Checks {
    pub passed: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub checks: Checks,
    /// Operations attempted and failed (README says what an operation is
    /// per workload).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Timed repetitions behind the estimates.
    pub repetitions: usize,
    /// Human-readable lines: sample summaries, attribution, dominance.
    pub notes: Vec<String>,
}

/// Seconds `f` took, and what it returned.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The seconds of every set-up of a run. A set-up builds, from the seed,
/// what must exist before the operation can start: the inputs and the
/// program's objects. Every timed repetition begins with one, so the
/// set-ups are spread over the run like the operations; `setup_s` is the
/// fastest of them, for the reason [`set_op_metric`] gives (a set-up is the
/// same work every time, too).
#[derive(Default)]
pub struct SetUps(Vec<f64>);

impl SetUps {
    /// Runs one set-up on the clock and returns what it built.
    pub fn time<S>(&mut self, setup: impl FnOnce() -> S) -> S {
        let (built, seconds) = timed(setup);
        self.0.push(seconds);
        built
    }

    /// Sets `setup_s` and returns the line printed beside it.
    pub fn set_metric(&self, metrics: &mut MetricSet, what: &str) -> String {
        let s = Summary::of(&self.0);
        metrics.set("setup_s", s.min);
        format!(
            "setup_s = {what}: fastest {:.6} s of n={}; p25={:.6} s p50={:.6} s p75={:.6} s",
            s.min, s.n, s.p25, s.p50, s.p75
        )
    }
}

/// Sets one of the two operation-time metrics (`op_ms`, `fast_op_ms`) of a
/// deterministic operation from the whole seconds of its repetitions, and
/// returns the line printed beside it.
///
/// The metric is the *fastest whole repetition*. The operation does the
/// same work every time, so repetitions differ only by what the host adds:
/// this shared 2-vCPU host runs 1.1–1.9× slow in episodes of up to minutes,
/// which moved the median of fifteen one-second repetitions by 30 % between
/// identical runs, and the fastest by much less. The repetition count is
/// fixed ([`Ctx::reps`]), and the median, quartiles and count are printed
/// beside the metric.
pub fn set_op_metric(metrics: &mut MetricSet, name: &str, seconds: &[f64], what: &str) -> String {
    let s = Summary::of(seconds);
    metrics.set(name, s.min * 1e3);
    format!(
        "{name} = {what}: fastest {:.4} ms of n={}; p25={:.4} ms p50={:.4} ms p75={:.4} ms p90={:.4} ms",
        s.min * 1e3,
        s.n,
        s.p25 * 1e3,
        s.p50 * 1e3,
        s.p75 * 1e3,
        s.p90 * 1e3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seconds: f64, smoke: bool) -> Ctx {
        Ctx {
            seed: 1,
            seconds,
            smoke,
            work_dir: PathBuf::new(),
        }
    }

    #[test]
    fn repetition_count_is_fixed_by_the_arguments() {
        assert_eq!(ctx(20.0, false).reps(1.25), 16);
        assert_eq!(ctx(20.0, false).reps(0.6), 33);
        assert_eq!(ctx(1.0, false).reps(1.25), 3);
        assert_eq!(ctx(20.0, true).reps(1.25), 1);
    }

    #[test]
    fn setup_metric_is_the_fastest_set_up() {
        let mut metrics = MetricSet::end_to_end();
        let mut setups = SetUps::default();
        for pause_ms in [30, 0, 30] {
            let built = setups.time(|| {
                std::thread::sleep(std::time::Duration::from_millis(pause_ms));
                pause_ms
            });
            assert_eq!(built, pause_ms);
        }
        let note = setups.set_metric(&mut metrics, "nothing");
        let setup_s = metrics.get("setup_s").unwrap();
        assert!(setup_s > 0.0 && setup_s < 0.03, "setup_s = {setup_s}");
        assert!(note.contains("n=3"), "{note}");
    }

    #[test]
    fn op_metric_is_the_fastest_whole_repetition() {
        let mut metrics = MetricSet::end_to_end();
        let note = set_op_metric(&mut metrics, "op_ms", &[1.5, 1.0, 1.25, 2.0], "op");
        assert_eq!(metrics.get("op_ms"), Some(1000.0));
        assert!(
            note.contains("n=4") && note.contains("p50=1250.0000 ms"),
            "{note}"
        );
    }
}
