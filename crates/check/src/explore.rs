//! Schedule exploration: exhaustive DFS with a bounded-preemption
//! budget, a randomized strategy, and deterministic replay.
//!
//! DFS maintains a stack of *frames*, one per branching decision point
//! seen along the current schedule. Each run replays the frames'
//! chosen alternatives as a plan, runs free past the end, and reports
//! any new branching points; backtracking advances the deepest frame
//! with an untried alternative and discards deeper frames. An
//! alternative that would switch away from a still-runnable thread
//! costs one preemption; alternatives whose cumulative cost exceeds
//! the bound are skipped (iterative context bounding), which is what
//! keeps exploration tractable: at bound `b`, every schedule with at
//! most `b` preemptions is covered.

use std::path::PathBuf;
use std::sync::Arc;

use crate::runtime::{self, Execution, FrameSeed, Mode, XorShift};
use crate::trace::{Alt, Failure, FailureKind, Trace};

/// Exploration parameters. `new` seeds defaults from the environment:
/// `HDDM_CHECK_PREEMPTION_BOUND`, `HDDM_CHECK_MAX_SCHEDULES`,
/// `HDDM_CHECK_TRACE_DIR` — the CI model-check job's knobs. Explicit
/// field writes after `new` win over the environment.
#[derive(Debug, Clone)]
pub struct Config {
    pub name: String,
    /// Max preemptions per schedule; `None` removes the bound.
    pub preemption_bound: Option<usize>,
    /// Schedule budget: exploration stops incomplete when exhausted.
    pub max_schedules: u64,
    /// Per-schedule scheduler-step budget (runaway-model backstop).
    pub max_steps: usize,
    /// Where to write failing traces (one file per model name).
    pub trace_dir: Option<PathBuf>,
}

impl Config {
    pub fn new(name: &str) -> Config {
        let bound = std::env::var("HDDM_CHECK_PREEMPTION_BOUND")
            .ok()
            .and_then(|s| s.parse::<usize>().ok());
        let max_schedules = std::env::var("HDDM_CHECK_MAX_SCHEDULES")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(200_000);
        Config {
            name: name.to_string(),
            preemption_bound: Some(bound.unwrap_or(2)),
            max_schedules,
            max_steps: 20_000,
            trace_dir: std::env::var_os("HDDM_CHECK_TRACE_DIR").map(PathBuf::from),
        }
    }

    pub fn with_bound(mut self, bound: Option<usize>) -> Config {
        self.preemption_bound = bound;
        self
    }
}

/// Outcome of one exploration.
#[derive(Debug)]
pub struct Report {
    pub name: String,
    /// Schedules actually executed.
    pub schedules: u64,
    /// True iff DFS exhausted every alternative within the preemption
    /// bound before the schedule budget ran out. Random exploration
    /// and replay never claim completeness.
    pub complete: bool,
    pub failure: Option<Failure>,
    /// Longest schedule seen, in scheduler steps.
    pub max_steps_seen: usize,
}

impl Report {
    /// Asserts the exploration covered every schedule at the bound and
    /// found nothing; returns the schedule count for logging.
    pub fn assert_clean(&self) -> u64 {
        if let Some(f) = &self.failure {
            panic!("model {:?} failed:\n{}", self.name, f.render());
        }
        assert!(
            self.complete,
            "model {:?}: schedule budget exhausted after {} schedules without full coverage",
            self.name, self.schedules
        );
        self.schedules
    }

    /// Asserts the exploration found a failure of `kind` and returns it.
    pub fn expect_failure(&self, kind: FailureKind) -> &Failure {
        match &self.failure {
            Some(f) if f.kind == kind => f,
            Some(f) => panic!(
                "model {:?}: expected {kind}, found:\n{}",
                self.name,
                f.render()
            ),
            None => panic!(
                "model {:?}: expected {kind} but exploration was clean ({} schedules, complete={})",
                self.name, self.schedules, self.complete
            ),
        }
    }
}

struct Frame {
    alts: Vec<Alt>,
    /// 1-based count of alternatives tried; `alts[taken-1]` is current.
    taken: usize,
    preemptions_before: usize,
    running_before: usize,
    running_enabled: bool,
}

impl Frame {
    fn from_seed(seed: FrameSeed) -> Frame {
        // In DFS mode the runtime always picks the first alternative
        // at a fresh branching point.
        debug_assert_eq!(seed.chosen, seed.alts[0]);
        Frame {
            alts: seed.alts,
            taken: 1,
            preemptions_before: seed.preemptions_before,
            running_before: seed.running_before,
            running_enabled: seed.running_enabled,
        }
    }
}

fn feasible(bound: Option<usize>, frame: &Frame, cand: Alt) -> bool {
    let Some(b) = bound else { return true };
    let cost = match cand {
        Alt::Thread(t) if frame.running_enabled && t != frame.running_before => 1,
        _ => 0,
    };
    frame.preemptions_before + cost <= b
}

struct RunOutcome {
    discovered: Vec<FrameSeed>,
    failure: Option<Failure>,
    steps: usize,
}

/// Runs the model once under the given plan and mode.
fn run_once(
    max_steps: usize,
    plan: Vec<Alt>,
    mode: Mode,
    model: &Arc<dyn Fn() + Send + Sync>,
) -> RunOutcome {
    let exec = Arc::new(Execution::new(plan, mode, max_steps));
    runtime::start_root(&exec, Arc::clone(model));
    let outcome;
    {
        let mut st = runtime::wait_state_while(&exec, runtime::lock_state(&exec), |st| !st.done);
        outcome = RunOutcome {
            discovered: std::mem::take(&mut st.discovered),
            failure: st.failure.take(),
            steps: st.steps,
        };
    }
    exec.cv.notify_all();
    // Join every model thread before returning; late spawns can add
    // handles while we drain, so loop until empty.
    loop {
        let handles: Vec<std::thread::JoinHandle<()>> = {
            let mut st = runtime::lock_state(&exec);
            st.handles.drain(..).collect()
        };
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    outcome
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes the failing trace where CI can pick it up as an artifact,
/// and prints it for interactive runs.
fn dump_failure(cfg: &Config, failure: &Failure) {
    eprintln!(
        "hddm-check: model {:?} failed\n{}replay: hddm_check::replay(&Config::new({:?}), &Trace::parse({:?}).unwrap(), model)",
        cfg.name,
        failure.render(),
        cfg.name,
        failure.trace.to_string()
    );
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("{}.trace", sanitize(&cfg.name)));
        let body = format!(
            "# model: {}\n# kind: {}\n# message: {}\n{}\n",
            cfg.name, failure.kind, failure.message, failure.trace
        );
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(&path, body);
        }
    }
}

/// Exhaustive DFS over all schedules within the preemption bound.
/// Stops at the first failure (trace dumped) or when the alternative
/// space or the schedule budget is exhausted.
pub fn explore<F>(cfg: &Config, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut frames: Vec<Frame> = Vec::new();
    let mut schedules: u64 = 0;
    let mut max_steps_seen = 0;
    loop {
        if schedules >= cfg.max_schedules {
            return Report {
                name: cfg.name.clone(),
                schedules,
                complete: false,
                failure: None,
                max_steps_seen,
            };
        }
        let plan: Vec<Alt> = frames.iter().map(|f| f.alts[f.taken - 1]).collect();
        let out = run_once(cfg.max_steps, plan, Mode::Dfs, &model);
        schedules += 1;
        max_steps_seen = max_steps_seen.max(out.steps);
        if let Some(failure) = out.failure {
            dump_failure(cfg, &failure);
            return Report {
                name: cfg.name.clone(),
                schedules,
                complete: false,
                failure: Some(failure),
                max_steps_seen,
            };
        }
        frames.extend(out.discovered.into_iter().map(Frame::from_seed));
        // Backtrack: advance the deepest frame with an untried,
        // bound-feasible alternative; pop exhausted frames.
        loop {
            let Some(frame) = frames.last_mut() else {
                return Report {
                    name: cfg.name.clone(),
                    schedules,
                    complete: true,
                    failure: None,
                    max_steps_seen,
                };
            };
            let mut advanced = false;
            while frame.taken < frame.alts.len() {
                let cand = frame.alts[frame.taken];
                frame.taken += 1;
                if feasible(cfg.preemption_bound, frame, cand) {
                    advanced = true;
                    break;
                }
            }
            if advanced {
                break;
            }
            frames.pop();
        }
    }
}

/// Randomized exploration: up to `cfg.max_schedules` runs with a
/// seeded PRNG picking every branch (no preemption bound). Returns at
/// the first failure. Never claims completeness — it is a sampling
/// strategy for the replay property tests and for quick smoke runs.
pub fn explore_random<F>(cfg: &Config, seed: u64, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut max_steps_seen = 0;
    for i in 0..cfg.max_schedules {
        let rng = XorShift::new(seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let out = run_once(cfg.max_steps, Vec::new(), Mode::Random(rng), &model);
        max_steps_seen = max_steps_seen.max(out.steps);
        if let Some(failure) = out.failure {
            dump_failure(cfg, &failure);
            return Report {
                name: cfg.name.clone(),
                schedules: i + 1,
                complete: false,
                failure: Some(failure),
                max_steps_seen,
            };
        }
    }
    Report {
        name: cfg.name.clone(),
        schedules: cfg.max_schedules,
        complete: false,
        failure: None,
        max_steps_seen,
    }
}

/// Re-runs the exact interleaving recorded in `trace`. Decisions
/// beyond the trace (there should be none for a failing trace) fall
/// back to the deterministic DFS default, so replay is always
/// bit-identical for a fixed model.
pub fn replay<F>(cfg: &Config, trace: &Trace, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let out = run_once(cfg.max_steps, trace.alts.clone(), Mode::Dfs, &model);
    Report {
        name: cfg.name.clone(),
        schedules: 1,
        complete: false,
        failure: out.failure,
        max_steps_seen: out.steps,
    }
}
