//! # hddm-scenarios — batched multi-calibration experiment runner
//!
//! The paper solves *one* calibrated OLG economy per run. This crate turns
//! the solver into a scenario engine: define a family of counterfactuals
//! (calibration overrides, shock/Markov variants, box-policy reforms,
//! refinement + solver settings), batch them through the time-iteration
//! driver on the host's `hddm-sched` pool, and reuse solved policy
//! surfaces across nearby scenarios instead of restarting every solve from
//! the constant steady-state guess.
//!
//! * [`scenario`] — the [`Scenario`] type plus [`ScenarioSet`] builders
//!   for cartesian grid sweeps and seeded Monte-Carlo sweeps over
//!   [`hddm_olg::Calibration`];
//! * [`hash`] — a deterministic, platform-stable content hash of
//!   everything that affects a scenario's solution (FNV-1a over canonical
//!   little-endian bit patterns), the cache key;
//! * [`cache`] — the content-addressed policy-surface cache: each entry
//!   holds the solved [`hddm_core::PolicySet`] itself, for exact-hit
//!   reuse and nearest-neighbour warm starts projected onto the new
//!   scenario's domain box;
//! * [`persist`] — the versioned persistent backing store: a cache
//!   directory of atomically-written binary records, one per surface (a
//!   [`hddm_core::record`] frame), which are also its index — lazy
//!   restoration, oldest-first eviction, and corrupt-artifact skipping —
//!   run N+1 of the same sweep does zero solves;
//! * [`executor`] — the batch executor: scenarios run in set order on
//!   `threads` workers of [`hddm_sched::parallel_for_init`], each against
//!   the cache, streaming results as they complete;
//! * [`report`] — per-scenario and per-sweep diagnostics
//!   ([`ScenarioReport`], [`SweepReport`]) serialized to JSON through the
//!   serde shim (bit-exact `f64`).
//!
//! ```
//! use hddm_scenarios::{ExecutorConfig, Scenario, ScenarioSet, SurfaceCache, Knob};
//! use hddm_olg::Calibration;
//!
//! let base = Scenario::from_calibration("demo", Calibration::small(4, 3, 2, 0.03));
//! let set = ScenarioSet::grid(&base, &[(Knob::Beta, vec![0.94, 0.95])]).unwrap();
//! let cache = SurfaceCache::default();
//! let report = hddm_scenarios::run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
//! assert!(report.all_converged());
//! assert_eq!(report.scenarios.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod executor;
pub mod hash;
pub mod persist;
pub mod report;
pub mod scenario;

pub use cache::{
    project_policy_with, CacheStats, CachedSurface, Lookup, NeighbourInfo, ProjectionError,
    RestoreHook, ShapeKey, SurfaceCache,
};
pub use executor::{run_batch, run_set, run_single, BatchHandle, ExecutorConfig, ExecutorError};
pub use hash::{fingerprint, fingerprint_distance, scenario_hash, HashId, ScenarioHasher};
pub use persist::EvictionPolicy;
pub use report::{CacheKind, ScenarioReport, SweepReport};
pub use scenario::{Knob, Scenario, ScenarioSet, SolveSettings};
