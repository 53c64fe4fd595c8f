//! The typed request/response surface of the scenario serving API.

use std::time::Duration;

use hddm_scenarios::{CacheKind, ExecutorConfig, ExecutorError, HashId, Scenario, ScenarioReport};

/// Configuration of a [`ScenarioService`](crate::ScenarioService).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Executor the micro-batches are dispatched to (host threads,
    /// kernel, warm-start policy, persistent cache directory).
    pub executor: ExecutorConfig,
    /// Maximum scenarios coalesced into one dispatched micro-batch.
    pub max_batch: usize,
    /// Bound of the pending queue, in scenario groups (requests for the
    /// same scenario coalesce into one group). Submissions beyond the
    /// bound fail fast with [`ServeError::QueueFull`] instead of
    /// buffering without limit.
    pub queue_capacity: usize,
    /// How long a dispatcher waits after the first pending request for
    /// more to coalesce before sealing the micro-batch. Zero dispatches
    /// immediately (no coalescing window).
    pub linger: Duration,
    /// Dispatcher worker threads draining the queue (each seals and runs
    /// its own micro-batches; clamped to ≥ 1).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            executor: ExecutorConfig::default(),
            max_batch: 8,
            queue_capacity: 256,
            linger: Duration::from_millis(2),
            workers: 2,
        }
    }
}

/// One scenario request: the fully resolved scenario plus the per-request
/// serving policy.
#[derive(Clone, Debug)]
pub struct ScenarioRequest {
    /// The scenario to serve.
    pub scenario: Scenario,
    /// Whether a nearby cached surface may seed a warm start (and be
    /// reported as [`ScenarioResponse::warm_hint`]). `false` forces a
    /// cold solve on any non-exact lookup.
    pub allow_warm: bool,
    /// Latency budget measured from submission. A request still queued
    /// when its deadline passes is shed with
    /// [`ServeError::DeadlineExceeded`] instead of burning a solve the
    /// caller no longer wants; shedding happens at batch-seal time and
    /// when a full queue sweeps for expired groups. `None` (the default)
    /// waits indefinitely. The deadline gates *admission to dispatch*,
    /// not the solve itself — a request dispatched just inside its
    /// deadline still runs to completion.
    pub deadline: Option<Duration>,
}

impl ScenarioRequest {
    /// A request with the default serving policy (warm starts allowed).
    pub fn new(scenario: Scenario) -> ScenarioRequest {
        ScenarioRequest {
            scenario,
            allow_warm: true,
            deadline: None,
        }
    }

    /// A request that refuses warm starts: exact hit or cold solve.
    pub fn cold_only(scenario: Scenario) -> ScenarioRequest {
        ScenarioRequest {
            scenario,
            allow_warm: false,
            deadline: None,
        }
    }

    /// Sets the latency budget (see [`ScenarioRequest::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> ScenarioRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// Nearest warm-start candidate reported on a near miss — the metadata
/// the service extracts from the cache index at admission time, before
/// the solve runs (and without any record-file I/O).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmHint {
    /// Content hash of the nearest same-shape cached scenario.
    pub source: HashId,
    /// Fingerprint distance between the request and the candidate.
    pub distance: f64,
    /// The candidate's measured solve cost — a latency estimate for the
    /// enqueued solve.
    pub estimated_cost_seconds: f64,
}

/// The served answer for one request.
#[derive(Clone, Debug)]
pub struct ScenarioResponse {
    /// The solve (or zero-step exact-hit) telemetry. `report.cache` is
    /// the decision-tree outcome: `Exact` (served from the cache, zero
    /// steps), `Warm` (solved, seeded from a nearby surface), `Cold`
    /// (solved from the steady-state guess).
    pub report: ScenarioReport,
    /// Nearest warm-start candidate known at admission time (`None` for
    /// exact hits, cold-only requests, and requests with no same-shape
    /// neighbour in radius).
    pub warm_hint: Option<WarmHint>,
    /// Scenarios in the dispatched micro-batch this request rode in
    /// (1 for a lone miss; 0 for the exact-hit fast path, which never
    /// touches the queue).
    pub batch_size: usize,
    /// Seconds the request waited in the queue before dispatch (0 for
    /// the exact-hit fast path).
    pub queue_seconds: f64,
    /// Seconds from submission to response.
    pub total_seconds: f64,
}

impl ScenarioResponse {
    /// The decision-tree outcome (`Exact` / `Warm` / `Cold`).
    pub fn kind(&self) -> CacheKind {
        self.report.cache
    }

    /// Content hash of the served scenario.
    pub fn hash(&self) -> HashId {
        self.report.hash
    }
}

/// Why a request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The scenario failed validation at admission.
    Invalid(String),
    /// The pending queue is at capacity; retry later (back-pressure).
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The request's [`deadline`](ScenarioRequest::deadline) passed while
    /// it waited in the queue; it was shed without consuming a solve.
    DeadlineExceeded {
        /// The latency budget the request was submitted with.
        deadline: Duration,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The persistent cache directory could not be opened.
    Cache(String),
    /// The dispatched solve failed.
    Executor(ExecutorError),
    /// A dispatcher died without delivering this request's result.
    WorkerLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Invalid(reason) => write!(f, "invalid scenario: {reason}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "serving queue is full ({capacity} pending groups)")
            }
            ServeError::DeadlineExceeded { deadline } => {
                write!(
                    f,
                    "deadline of {:.3}s passed while the request was queued",
                    deadline.as_secs_f64()
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Cache(reason) => write!(f, "cache directory unusable: {reason}"),
            ServeError::Executor(e) => write!(f, "executor failed: {e}"),
            ServeError::WorkerLost => write!(f, "dispatcher died before delivering the result"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ExecutorError> for ServeError {
    fn from(e: ExecutorError) -> Self {
        ServeError::Executor(e)
    }
}

/// A consistent snapshot of the service's admission and dispatch
/// counters ([`ScenarioService::stats`](crate::ScenarioService::stats)).
/// All counters are cumulative since the service started; only
/// [`queue_depth`](ServiceStats::queue_depth) is instantaneous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that passed validation (exact hits, coalesced waiters,
    /// enqueued groups, and queue-full rejections all count).
    pub submitted: u64,
    /// Requests answered on the caller's thread from the cache.
    pub exact_hits: u64,
    /// Groups newly placed on the queue (one per distinct pending
    /// scenario/policy).
    pub enqueued_groups: u64,
    /// Requests that attached to an already-pending identical group
    /// instead of enqueueing their own.
    pub coalesced_waiters: u64,
    /// Submissions rejected with [`ServeError::QueueFull`] after the
    /// expired-group sweep failed to free a slot.
    pub rejected_queue_full: u64,
    /// Waiters answered with [`ServeError::DeadlineExceeded`] because
    /// their deadline passed before dispatch.
    pub shed_waiters: u64,
    /// Queued groups dropped whole — every waiter expired — without
    /// consuming a solve.
    pub shed_groups: u64,
    /// Micro-batches handed to the executor.
    pub dispatched_batches: u64,
    /// Scenario groups those micro-batches contained.
    pub dispatched_groups: u64,
    /// Pending groups on the queue right now.
    pub queue_depth: u64,
    /// High-water mark of the pending queue since the service started.
    pub queue_depth_peak: u64,
}
