//! The batch executor: runs a [`ScenarioSet`] through the time-iteration
//! driver on `threads` host workers of the `hddm-sched` pool
//! (`hddm_sched::parallel_for_init` — the paper's Sec. IV-A scheduler),
//! with the policy-surface cache supplying exact hits and warm starts.
//!
//! Two entry points:
//!
//! * [`run_set`] — the one-shot sweep: execute the whole set, block, and
//!   return the full [`SweepReport`];
//! * [`run_batch`] — the incremental form the serving front-end builds
//!   on: accept a batch, return immediately with a [`BatchHandle`], and
//!   stream per-scenario results as they complete ([`BatchHandle::recv`]);
//!   [`BatchHandle::join`] waits for the rest and assembles the same
//!   [`SweepReport`] `run_set` produces (`run_set` *is*
//!   `run_batch(...)` + `join`).
//!
//! Result collection is lock-free on the hot path: each pool worker owns
//! a cloned channel sender (via `parallel_for_init`'s per-worker state)
//! and sends `(index, result)` as each scenario finishes — no shared
//! `Mutex<Vec<...>>` serializing completions. Failures are typed
//! ([`ExecutorError`]), never bare strings.

use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use hddm_core::{DriverConfig, OlgStep, TimeIteration};
use hddm_kernels::{ExecutionBackend, KernelKind};
use hddm_sched::{parallel_for_init, PoolConfig};
use hddm_solver::NewtonOptions;
use hddm_telemetry::Registry;

use crate::cache::{project_policy_with, Lookup, ShapeKey, SurfaceCache};
use crate::hash::{fingerprint, scenario_hash, HashId};
use crate::persist::EvictionPolicy;
use crate::report::{CacheKind, ScenarioReport, SweepReport};
use crate::scenario::{Scenario, ScenarioSet};

/// One streamed completion: the scenario's index within its set plus its
/// result.
type BatchItem = (usize, Result<ScenarioReport, ExecutorError>);

/// Why the executor could not run (or finish) a scenario or a set.
/// Typed so callers — the serving front-end above all — can route each
/// failure: reject the request, fail one ticket, or fall back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutorError {
    /// The scenario set contained no scenarios.
    EmptySet,
    /// A scenario failed validation before execution.
    InvalidScenario {
        /// Display name of the offending scenario.
        name: String,
        /// The validation diagnostic.
        reason: String,
    },
    /// The scenario's OLG model could not be built (steady-state /
    /// calibration failure at execution time).
    Model {
        /// Display name of the offending scenario.
        name: String,
        /// The model-construction diagnostic.
        reason: String,
    },
    /// A pool worker died without delivering this scenario's result
    /// (a bug or a panic in the worker).
    MissingResult {
        /// Index of the undelivered scenario within its set.
        index: usize,
    },
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::EmptySet => write!(f, "empty scenario set"),
            ExecutorError::InvalidScenario { name, reason } => {
                write!(f, "invalid scenario {name:?}: {reason}")
            }
            ExecutorError::Model { name, reason } => {
                write!(f, "model build failed for scenario {name:?}: {reason}")
            }
            ExecutorError::MissingResult { index } => {
                write!(f, "scenario {index} was never executed (worker lost)")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Executor configuration: the host resources a sweep runs with and the
/// (optional) persistent policy-surface cache directory.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Host threads running scenarios concurrently (scenario-level
    /// `parallel_for`; each scenario's own point solves use
    /// `SolveSettings::solver_threads`).
    pub threads: usize,
    /// Interpolation kernel for policy evaluations.
    pub kernel: KernelKind,
    /// Which engine evaluates batched `PointBlock` calls (warm-start
    /// projection, the driver's Newton rounds, frontier warm starts and
    /// hierarchization). The GPU
    /// variant shares one engine, and so one set of its instruments,
    /// across every scenario the executor runs.
    pub backend: ExecutionBackend,
    /// Whether nearby cached surfaces may seed warm starts.
    pub warm_start: bool,
    /// Persistent policy-surface cache directory. `None` keeps the cache
    /// purely in memory; `Some(dir)` makes [`ExecutorConfig::open_cache`]
    /// load the on-disk index at startup and write every solved surface
    /// through, so an identical sweep in a later process does zero
    /// solves.
    pub cache_dir: Option<PathBuf>,
    /// Size bounds of the persistent cache (oldest-first eviction);
    /// ignored without `cache_dir`.
    pub cache_eviction: EvictionPolicy,
    /// Registry receiving driver phase spans (`hddm_solve_*_seconds`) and
    /// per-scenario solve timings. `None` (the default) routes them to the
    /// cache's own registry, so one snapshot covers cache and solve
    /// activity together.
    pub telemetry: Option<Registry>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            kernel: KernelKind::Avx2,
            backend: ExecutionBackend::Cpu,
            warm_start: true,
            cache_dir: None,
            cache_eviction: EvictionPolicy::default(),
            telemetry: None,
        }
    }
}

impl ExecutorConfig {
    /// A deterministic single-threaded executor: scenarios run in set
    /// order, so warm-start provenance is reproducible run to run.
    pub fn serial() -> ExecutorConfig {
        ExecutorConfig {
            threads: 1,
            ..ExecutorConfig::default()
        }
    }

    /// Opens the cache this configuration asks for: persistent (index
    /// loaded, surfaces lazily restored, deposits written through) when
    /// `cache_dir` is set, purely in-memory otherwise.
    pub fn open_cache(&self) -> Result<SurfaceCache, String> {
        match &self.cache_dir {
            Some(dir) => SurfaceCache::open_with(dir, self.cache_eviction),
            None => Ok(SurfaceCache::default()),
        }
    }
}

fn driver_config(
    scenario: &Scenario,
    kernel: KernelKind,
    backend: ExecutionBackend,
    telemetry: Registry,
) -> DriverConfig {
    let s = &scenario.solve;
    DriverConfig {
        kernel,
        backend,
        telemetry: Some(telemetry),
        start_level: s.start_level,
        refine_epsilon: s.refine_epsilon,
        max_level: s.max_level,
        pool: PoolConfig {
            threads: s.solver_threads,
            grain: 1,
        },
        max_steps: s.max_steps,
        tolerance: s.tolerance,
        ..Default::default()
    }
}

/// Solves one scenario against the cache and returns its report.
/// Converged surfaces are deposited back into the cache, measured cost
/// included.
fn solve_one(
    scenario: &Scenario,
    cache: &SurfaceCache,
    config: &ExecutorConfig,
) -> Result<ScenarioReport, ExecutorError> {
    let start = Instant::now();
    let hash = scenario_hash(scenario);
    let shape = ShapeKey::of(scenario);
    let fp = fingerprint(scenario);
    let tolerance = scenario.solve.tolerance;

    let looked_up = cache.lookup(hash, shape, &fp, config.warm_start);
    if let Lookup::Exact(surface) = &looked_up {
        // Identical scenario already solved: the surface is the answer.
        return Ok(ScenarioReport::from_exact_hit(
            &scenario.name,
            surface,
            start.elapsed().as_secs_f64(),
        ));
    }

    let model = scenario
        .build_model()
        .map_err(|reason| ExecutorError::Model {
            name: scenario.name.clone(),
            reason,
        })?;
    let newton = NewtonOptions {
        max_iterations: scenario.solve.newton_max_iterations,
        ..Default::default()
    };
    let step = OlgStep { model, newton };
    let registry = config
        .telemetry
        .clone()
        .unwrap_or_else(|| cache.registry().clone());
    let dconfig = driver_config(
        scenario,
        config.kernel,
        config.backend.clone(),
        registry.clone(),
    );

    let (mut ti, cache_tag, warm_source) = match looked_up {
        Lookup::Warm(surface) => match project_policy_with(
            surface.restore_policy(),
            &step.model.lower,
            &step.model.upper,
            scenario.solve.start_level,
            config.kernel,
            &config.backend,
        ) {
            Ok(projected) => (
                TimeIteration::with_policy(step, dconfig, projected, 0),
                CacheKind::Warm,
                Some(HashId(surface.hash)),
            ),
            Err(e) => {
                // An incompatible cached surface (possible once surfaces
                // arrive from disk) must not abort the sweep: fall back
                // to the cold start the scenario would have had anyway.
                eprintln!(
                    "hddm-scenarios: warning: warm start of {:?} from surface \
                     {} failed ({e}); solving cold",
                    scenario.name,
                    HashId(surface.hash)
                );
                (TimeIteration::new(step, dconfig), CacheKind::Cold, None)
            }
        },
        Lookup::Miss => (TimeIteration::new(step, dconfig), CacheKind::Cold, None),
        Lookup::Exact(_) => unreachable!("exact hits return early"),
    };

    let reports = ti.run();
    let last = reports.last().expect("max_steps ≥ 1 yields ≥ 1 report");
    let converged = last.sup_change < tolerance;
    let wall = start.elapsed().as_secs_f64();
    registry
        .histogram("hddm_solve_scenario_seconds")
        .record(wall);
    if converged {
        cache.store_policy(
            hash,
            shape,
            fp,
            &ti.policy,
            reports.len(),
            last.sup_change,
            wall,
        );
    }
    Ok(ScenarioReport {
        name: scenario.name.clone(),
        hash: HashId(hash),
        steps: reports.len(),
        converged,
        final_sup_change: last.sup_change,
        solver_failures: reports.iter().map(|r| r.solver_failures).sum(),
        grid_points: ti.policy.points_per_state().iter().sum(),
        wall_seconds: wall,
        cache: cache_tag,
        warm_source,
    })
}

/// Runs a single scenario outside any sweep (cold-versus-warm
/// comparisons, CLI one-offs).
pub fn run_single(
    scenario: &Scenario,
    cache: &SurfaceCache,
    config: &ExecutorConfig,
) -> Result<ScenarioReport, ExecutorError> {
    scenario
        .validate()
        .map_err(|reason| ExecutorError::InvalidScenario {
            name: scenario.name.clone(),
            reason,
        })?;
    solve_one(scenario, cache, config)
}

/// A dispatched batch: per-scenario results stream out of
/// [`BatchHandle::recv`] as pool workers complete them (in completion
/// order, not set order); [`BatchHandle::join`] waits for the rest and
/// assembles the full [`SweepReport`]. Dropping the handle waits for the
/// batch to finish (results are discarded).
pub struct BatchHandle {
    rx: Receiver<BatchItem>,
    slots: Vec<Option<Result<ScenarioReport, ExecutorError>>>,
    delivered: usize,
    cache: SurfaceCache,
    started: Instant,
    worker: Option<JoinHandle<()>>,
}

impl BatchHandle {
    /// Number of scenarios in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the batch is empty (never true: empty sets are rejected).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The next completed scenario, blocking until one finishes:
    /// `(index within the set, its result)`. `None` once every result
    /// has been delivered — or when the executor thread died without
    /// delivering the rest (the missing ones surface as
    /// [`ExecutorError::MissingResult`] from [`BatchHandle::join`]).
    pub fn recv(&mut self) -> Option<BatchItem> {
        if self.delivered == self.slots.len() {
            return None;
        }
        match self.rx.recv() {
            Ok((i, result)) => {
                self.slots[i] = Some(result.clone());
                self.delivered += 1;
                Some((i, result))
            }
            Err(_) => None, // executor thread gone; join() reports the holes
        }
    }

    /// Waits for every remaining scenario and assembles the
    /// [`SweepReport`] (identical to what [`run_set`] returns). The first
    /// per-scenario error in set order fails the whole batch, matching
    /// the historical whole-set semantics; callers that want per-scenario
    /// error routing stream through [`BatchHandle::recv`] instead.
    pub fn join(mut self) -> Result<SweepReport, ExecutorError> {
        while self.recv().is_some() {}
        if let Some(worker) = self.worker.take() {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let total_wall_seconds = self.started.elapsed().as_secs_f64();

        let mut scenarios = Vec::with_capacity(self.slots.len());
        for (i, slot) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            match slot {
                Some(Ok(report)) => scenarios.push(report),
                Some(Err(e)) => return Err(e),
                None => return Err(ExecutorError::MissingResult { index: i }),
            }
        }

        let count = |kind: CacheKind| scenarios.iter().filter(|s| s.cache == kind).count();
        Ok(SweepReport {
            exact_hits: count(CacheKind::Exact),
            warm_starts: count(CacheKind::Warm),
            cold_solves: count(CacheKind::Cold),
            scenarios,
            cache_stats: self.cache.stats(),
            total_wall_seconds,
        })
    }
}

impl Drop for BatchHandle {
    fn drop(&mut self) {
        // Never leak a running executor thread: drain whatever is still
        // coming and join. A panic in the worker is swallowed here (the
        // handle is being discarded); `join()` propagates it instead.
        while self.delivered < self.slots.len() && self.rx.recv().is_ok() {
            self.delivered += 1;
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Dispatches a scenario batch to the pool and returns immediately with
/// a [`BatchHandle`] streaming per-scenario results. This is the
/// incremental entry point the serving front-end coalesces micro-batches
/// onto; [`run_set`] is the blocking wrapper.
///
/// Validates the whole batch up front (typed [`ExecutorError`]s), then
/// executes on a detached worker thread running the scenario-level pool.
pub fn run_batch(
    set: ScenarioSet,
    cache: SurfaceCache,
    config: ExecutorConfig,
) -> Result<BatchHandle, ExecutorError> {
    if set.is_empty() {
        return Err(ExecutorError::EmptySet);
    }
    for scenario in &set.scenarios {
        scenario
            .validate()
            .map_err(|reason| ExecutorError::InvalidScenario {
                name: scenario.name.clone(),
                reason,
            })?;
    }

    let n = set.len();
    let (tx, rx): (Sender<BatchItem>, Receiver<BatchItem>) = channel();

    let started = Instant::now();
    let thread_cache = cache.clone();
    let worker = std::thread::spawn(move || {
        let pool = PoolConfig {
            threads: config.threads,
            grain: 1,
        };
        // Each pool worker owns a cloned sender (per-worker init state):
        // completions stream out lock-free instead of serializing on a
        // shared results mutex.
        parallel_for_init(
            n,
            &pool,
            || tx.clone(),
            |tx, i| {
                let _ = tx.send((i, solve_one(&set.scenarios[i], &thread_cache, &config)));
            },
        );
    });

    Ok(BatchHandle {
        rx,
        slots: vec![None; n],
        delivered: 0,
        cache,
        started,
        worker: Some(worker),
    })
}

/// Runs a whole scenario set across host threads and returns the full
/// [`SweepReport`]. Equivalent to [`run_batch`] followed by
/// [`BatchHandle::join`].
pub fn run_set(
    set: &ScenarioSet,
    cache: &SurfaceCache,
    config: &ExecutorConfig,
) -> Result<SweepReport, ExecutorError> {
    run_batch(set.clone(), cache.clone(), config.clone())?.join()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Knob;
    use hddm_olg::Calibration;

    fn base() -> Scenario {
        let mut s = Scenario::from_calibration("exec", Calibration::small(4, 3, 2, 0.03));
        s.solve.tolerance = 1e-6;
        s.solve.max_steps = 50;
        s
    }

    #[test]
    fn single_scenario_converges_and_populates_the_cache() {
        let cache = SurfaceCache::default();
        let report = run_single(&base(), &cache, &ExecutorConfig::serial()).unwrap();
        assert!(report.converged, "sup change {}", report.final_sup_change);
        assert_eq!(report.cache, CacheKind::Cold);
        assert!(report.steps > 0);
        assert_eq!(cache.stats().entries, 1);

        // Identical scenario again: exact hit, no solving.
        let again = run_single(&base(), &cache, &ExecutorConfig::serial()).unwrap();
        assert_eq!(again.cache, CacheKind::Exact);
        assert_eq!(again.steps, 0);
        assert_eq!(again.warm_source, None);
    }

    #[test]
    fn warm_start_beats_cold_start_on_a_nearby_scenario() {
        let cache = SurfaceCache::default();
        let config = ExecutorConfig::serial();
        run_single(&base(), &cache, &config).unwrap();

        let mut nearby = base();
        Knob::Beta.apply(&mut nearby, 0.9525).unwrap();
        nearby.name = "exec/nearby".into();

        let warm = run_single(&nearby, &cache, &config).unwrap();
        assert_eq!(warm.cache, CacheKind::Warm, "expected a warm start");
        assert!(warm.converged);

        let cold_cache = SurfaceCache::default();
        let cold = run_single(&nearby, &cold_cache, &config).unwrap();
        assert_eq!(cold.cache, CacheKind::Cold);
        assert!(cold.converged);
        assert!(
            warm.steps < cold.steps,
            "warm {} vs cold {} steps",
            warm.steps,
            cold.steps
        );
    }

    #[test]
    fn warm_start_can_be_disabled() {
        let cache = SurfaceCache::default();
        let config = ExecutorConfig::serial();
        run_single(&base(), &cache, &config).unwrap();
        let mut nearby = base();
        Knob::Beta.apply(&mut nearby, 0.9525).unwrap();
        let cold_config = ExecutorConfig {
            warm_start: false,
            ..ExecutorConfig::serial()
        };
        let report = run_single(&nearby, &cache, &cold_config).unwrap();
        assert_eq!(report.cache, CacheKind::Cold);
        // Telemetry agrees with what was served: the disabled warm path
        // counts as a miss, not a warm hit.
        let stats = cache.stats();
        assert_eq!(stats.warm_hits, 0);
        assert_eq!(stats.misses, 2); // the seeding cold solve + this one
    }

    #[test]
    fn run_set_schedules_every_scenario_and_counts_cache_traffic() {
        let cache = SurfaceCache::default();
        let set =
            ScenarioSet::grid(&base(), &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])]).unwrap();
        let report = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
        assert_eq!(report.scenarios.len(), 4);
        assert!(report.all_converged());
        // Serial execution: the first scenario is cold, the rest warm
        // start off the growing cache.
        assert_eq!(report.cold_solves, 1);
        assert_eq!(report.warm_starts, 3);
        assert_eq!(report.exact_hits, 0);
        // Re-running the identical set is all exact hits.
        let second = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
        assert_eq!(second.exact_hits, 4);
        assert_eq!(second.cold_solves, 0);
    }

    #[test]
    fn run_batch_streams_results_as_they_complete() {
        let cache = SurfaceCache::default();
        let set = ScenarioSet::grid(&base(), &[(Knob::Beta, vec![0.949, 0.95, 0.951])]).unwrap();
        let mut handle = run_batch(set.clone(), cache.clone(), ExecutorConfig::serial()).unwrap();
        assert_eq!(handle.len(), 3);

        let mut seen = Vec::new();
        while let Some((i, result)) = handle.recv() {
            let report = result.unwrap();
            assert!(report.converged);
            assert_eq!(report.name, set.scenarios[i].name);
            seen.push(i);
        }
        assert_eq!(seen.len(), 3);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "every index delivered exactly once");

        // join() after streaming still assembles the aggregate report.
        let report = handle.join().unwrap();
        assert_eq!(report.scenarios.len(), 3);
        assert!(report.all_converged());
        assert_eq!(report.cold_solves + report.warm_starts, 3);
    }

    #[test]
    fn empty_sets_and_invalid_scenarios_are_rejected_with_typed_errors() {
        let cache = SurfaceCache::default();
        let err = run_set(
            &ScenarioSet { scenarios: vec![] },
            &cache,
            &ExecutorConfig::serial(),
        )
        .unwrap_err();
        assert_eq!(err, ExecutorError::EmptySet);
        assert!(err.to_string().contains("empty"));

        // Invalid scenarios are named in the typed error.
        let mut bad = base();
        bad.solve.tolerance = -1.0;
        let err = run_single(&bad, &cache, &ExecutorConfig::serial()).unwrap_err();
        match err {
            ExecutorError::InvalidScenario { name, reason } => {
                assert_eq!(name, "exec");
                assert!(reason.contains("tolerance"), "{reason}");
            }
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }
}
