//! # hddm-serve — the scenario serving front-end
//!
//! The paper's end goal is *interactive* large-scale economic modeling:
//! solved policy surfaces should be servable, not just batch-computable.
//! This crate turns the scenario engine (`hddm-scenarios`) into a
//! request/response service — the API seam the distributed-sweep and
//! async-serving roadmap items build on.
//!
//! The [`ScenarioService`] facade answers each [`ScenarioRequest`] along
//! a three-way decision tree:
//!
//! ```text
//!                 submit(request)
//!                       │
//!            exact hash in cache? ──yes──▶ answer now (0 solver steps;
//!                       │                  sharded concurrent read path,
//!                       no                 disk restore outside locks)
//!                       │
//!         same-shape neighbour within
//!         the warm radius? ──yes──▶ enqueue + attach WarmHint
//!                       │           (solve will warm start)
//!                       no
//!                       │
//!                  enqueue cold
//!
//!   queue ──(linger window, ≤ max_batch)──▶ ScenarioSet micro-batch
//!         ──▶ incremental batch executor ──▶ fulfill tickets as each
//!                                            scenario completes
//! ```
//!
//! Design constraints inherited from the workspace: **no external async
//! runtime** — plain threads, condvars, and the executor's completion
//! callback ([`hddm_scenarios::run_batch`]); identical pending requests
//! coalesce into one solve; the queue is bounded (back-pressure via
//! [`ServeError::QueueFull`], never unbounded buffering). Requests may
//! carry a [`deadline`](ScenarioRequest::deadline): ones still queued
//! when it passes are shed with [`ServeError::DeadlineExceeded`] — at
//! batch-seal time and in the full-queue sweep — without consuming a
//! solve. [`ScenarioService::stats`] exposes the admission, shedding,
//! and queue-depth counters as a [`ServiceStats`] snapshot.
//!
//! ```
//! use hddm_olg::Calibration;
//! use hddm_scenarios::{CacheKind, ExecutorConfig, Scenario, SurfaceCache};
//! use hddm_serve::{ScenarioRequest, ScenarioService, ServeConfig};
//!
//! let mut base = Scenario::from_calibration("serve-demo", Calibration::small(4, 3, 2, 0.03));
//! base.solve.tolerance = 1e-6;
//! base.solve.max_steps = 50;
//! let service = ScenarioService::new(
//!     SurfaceCache::default(),
//!     ServeConfig { executor: ExecutorConfig::serial(), ..ServeConfig::default() },
//! );
//! // Cold miss: micro-batched through the executor.
//! let cold = service.call(ScenarioRequest::new(base.clone())).unwrap();
//! assert_eq!(cold.kind(), CacheKind::Cold);
//! assert!(cold.report.converged);
//! assert!(cold.batch_size >= 1);
//! // Identical request again: exact hit served straight from the cache.
//! let hit = service.call(ScenarioRequest::new(base)).unwrap();
//! assert_eq!(hit.kind(), CacheKind::Exact);
//! assert_eq!(hit.report.steps, 0);
//! assert_eq!(hit.batch_size, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;
mod types;

pub use service::{ScenarioService, Ticket};
pub use types::{
    ScenarioRequest, ScenarioResponse, ServeConfig, ServeError, ServiceStats, WarmHint,
};
