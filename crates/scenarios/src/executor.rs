//! The batch executor: runs a [`ScenarioSet`] through the time-iteration
//! driver on `threads` host workers of the `hddm-sched` pool
//! (`hddm_sched::parallel_for` — the paper's Sec. IV-A scheduler),
//! started from the calling thread, with the policy-surface cache
//! supplying exact hits and warm starts.
//!
//! Two entry points:
//!
//! * [`run_set`] — the one-shot sweep: execute the whole set, block, and
//!   return the full [`SweepReport`];
//! * [`run_batch`] — the incremental form the serving front-end builds
//!   on: run the batch on the calling thread's pool and hand each
//!   scenario's result to a callback on the worker that solved it, as
//!   soon as its surface is in the cache's catalogue (`run_set` *is*
//!   `run_batch` with a callback that fills one slot per scenario).
//!
//! Both return once every surface the batch deposited is committed.
//! Failures are typed ([`ExecutorError`]), never bare strings.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use hddm_core::{DriverConfig, OlgStep, TimeIteration};
use hddm_kernels::ExecutionBackend;
use hddm_sched::{parallel_for, PoolConfig};
use hddm_solver::NewtonOptions;
use hddm_telemetry::Registry;

use crate::cache::{Lookup, ShapeKey, SurfaceCache};
use crate::hash::{fingerprint, scenario_hash, HashId};
use crate::persist::EvictionPolicy;
use crate::report::{CacheKind, ScenarioReport, SweepReport};
use crate::scenario::{Scenario, ScenarioSet};

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
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Executor configuration: the host resources a sweep runs with and the
/// (optional) persistent policy-surface cache directory. Every scenario
/// interpolates with the driver's kernel (`DriverConfig::default().kernel`)
/// and reports its phase spans and solve timings to the cache's registry,
/// so one snapshot covers cache and solve activity together.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Host threads running scenarios concurrently (scenario-level
    /// `parallel_for`; each scenario's own point solves use
    /// `SolveSettings::solver_threads`).
    pub threads: usize,
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
    /// list the directory's records at startup and commit every solved
    /// surface to it, so an identical sweep in a later process does zero
    /// solves.
    pub cache_dir: Option<PathBuf>,
    /// Size bounds of the persistent cache (oldest-first eviction);
    /// ignored without `cache_dir`.
    pub cache_eviction: EvictionPolicy,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            backend: ExecutionBackend::Cpu,
            warm_start: true,
            cache_dir: None,
            cache_eviction: EvictionPolicy::default(),
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

    /// Opens the cache this configuration asks for: persistent (records
    /// listed, surfaces lazily restored, deposits committed) when
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
    backend: ExecutionBackend,
    telemetry: Registry,
) -> DriverConfig {
    let s = &scenario.solve;
    DriverConfig {
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

    let newton = NewtonOptions {
        max_iterations: scenario.solve.newton_max_iterations,
    };
    let step = || -> Result<OlgStep, ExecutorError> {
        let model = scenario
            .build_model()
            .map_err(|reason| ExecutorError::Model {
                name: scenario.name.clone(),
                reason,
            })?;
        Ok(OlgStep { model, newton })
    };
    let registry = cache.registry().clone();
    let dconfig = || driver_config(scenario, config.backend.clone(), registry.clone());

    let warm = match looked_up {
        Lookup::Warm(surface) => {
            match TimeIteration::warm(step()?, dconfig(), surface.restore_policy()) {
                Ok(ti) => Some((ti, HashId(surface.hash))),
                Err(e) => {
                    // An incompatible cached surface (possible once
                    // surfaces arrive from disk) must not abort the sweep:
                    // fall back to the cold start the scenario would have
                    // had anyway.
                    eprintln!(
                        "hddm-scenarios: warning: warm start of {:?} from surface \
                         {} failed ({e}); solving cold",
                        scenario.name,
                        HashId(surface.hash)
                    );
                    None
                }
            }
        }
        Lookup::Miss => None,
        Lookup::Exact(_) => unreachable!("exact hits return early"),
    };
    let (mut ti, cache_tag, warm_source) = match warm {
        Some((ti, source)) => (ti, CacheKind::Warm, Some(source)),
        None => {
            let ti = TimeIteration::new(step()?, dconfig());
            (ti, CacheKind::Cold, None)
        }
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
/// comparisons, CLI one-offs). Like [`run_set`], it returns once the
/// surface it deposited is committed.
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
    let report = solve_one(scenario, cache, config);
    cache.flush();
    report
}

/// Runs a scenario batch on the calling thread: `done(i, result)` is
/// called on the pool worker that solved scenario `i`, as soon as its
/// surface is in the cache's catalogue, and the call returns once every
/// surface the batch deposited is committed, on a panic's unwind too. This
/// is the incremental entry point the serving front-end fulfils its tickets
/// from; [`run_set`] collects the results into a [`SweepReport`].
///
/// Validates the whole batch up front (typed [`ExecutorError`]s), then
/// runs the scenario-level pool, which calls `done` once per scenario or
/// re-raises a worker's panic.
pub fn run_batch(
    set: &ScenarioSet,
    cache: &SurfaceCache,
    config: &ExecutorConfig,
    done: impl Fn(usize, Result<ScenarioReport, ExecutorError>) + Sync,
) -> Result<(), ExecutorError> {
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
    let pool = PoolConfig {
        threads: config.threads,
        grain: 1,
    };
    // The batch's surfaces were handed out as they were deposited; the
    // batch ends once they are committed (see `crate::cache`), also when a
    // solve's panic unwinds out of `parallel_for`.
    struct FlushOnExit<'a>(&'a SurfaceCache);
    impl Drop for FlushOnExit<'_> {
        fn drop(&mut self) {
            self.0.flush();
        }
    }
    let _flush = FlushOnExit(cache);
    parallel_for(set.len(), &pool, |i| {
        done(i, solve_one(&set.scenarios[i], cache, config));
    });
    Ok(())
}

/// Runs a whole scenario set across host threads and returns the full
/// [`SweepReport`] once every surface it deposited is committed. The
/// first per-scenario error in set order fails the whole set.
pub fn run_set(
    set: &ScenarioSet,
    cache: &SurfaceCache,
    config: &ExecutorConfig,
) -> Result<SweepReport, ExecutorError> {
    let started = Instant::now();
    let slots: Vec<OnceLock<Result<ScenarioReport, ExecutorError>>> =
        set.scenarios.iter().map(|_| OnceLock::new()).collect();
    run_batch(set, cache, config, |i, result| {
        let _ = slots[i].set(result);
    })?;
    let total_wall_seconds = started.elapsed().as_secs_f64();
    let scenarios = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("the pool runs every scenario"))
        .collect::<Result<Vec<_>, _>>()?;

    let count = |kind: CacheKind| scenarios.iter().filter(|s| s.cache == kind).count();
    Ok(SweepReport {
        exact_hits: count(CacheKind::Exact),
        warm_starts: count(CacheKind::Warm),
        cold_solves: count(CacheKind::Cold),
        scenarios,
        cache_stats: cache.stats(),
        total_wall_seconds,
    })
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
        let dir = std::env::temp_dir().join(format!("hddm_exec_batch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SurfaceCache::open(&dir).unwrap();
        let set = ScenarioSet::grid(&base(), &[(Knob::Beta, vec![0.949, 0.95, 0.951])]).unwrap();
        let seen = std::sync::Mutex::new(Vec::new());
        run_batch(&set, &cache, &ExecutorConfig::serial(), |i, result| {
            let report = result.unwrap();
            assert!(report.converged);
            let scenario = &set.scenarios[i];
            assert_eq!(report.name, scenario.name);
            // In the catalogue before the callback runs.
            let hash = scenario_hash(scenario);
            let served = cache.lookup_exact(hash, ShapeKey::of(scenario), &fingerprint(scenario));
            assert_eq!(served.map(|s| s.hash), Some(hash));
            seen.lock().unwrap().push(i);
        })
        .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "every index delivered exactly once");

        // Committed once run_batch returns: every record is on disk.
        for scenario in &set.scenarios {
            let name = crate::persist::surface_file_name(scenario_hash(scenario));
            assert!(dir.join(&name).is_file(), "{name} not committed");
        }
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
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
