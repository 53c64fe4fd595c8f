//! The [`ScenarioService`] itself: admission (exact-hit fast path, warm
//! probing), the bounded coalescing queue, and the dispatcher workers.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hddm_scenarios::{
    fingerprint, run_batch, scenario_hash, ExecutorConfig, ScenarioReport, ScenarioSet, ShapeKey,
    SurfaceCache,
};
use hddm_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::types::{
    ScenarioRequest, ScenarioResponse, ServeConfig, ServeError, ServiceStats, WarmHint,
};

/// The completion slot a [`Ticket`] waits on.
type Slot = Arc<(Mutex<Option<Result<ScenarioResponse, ServeError>>>, Condvar)>;

fn recover<'a, T>(lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
    lock.lock().unwrap_or_else(|poisoned| {
        lock.clear_poison();
        poisoned.into_inner()
    })
}

/// A pending response: returned by [`ScenarioService::submit`]
/// immediately (pre-filled for exact hits), fulfilled by a dispatcher
/// for queued misses.
#[derive(Debug)]
pub struct Ticket {
    slot: Slot,
}

impl Ticket {
    fn pending() -> (Ticket, Slot) {
        let slot: Slot = Arc::new((Mutex::new(None), Condvar::new()));
        (
            Ticket {
                slot: Arc::clone(&slot),
            },
            slot,
        )
    }

    fn ready(result: Result<ScenarioResponse, ServeError>) -> Ticket {
        Ticket {
            slot: Arc::new((Mutex::new(Some(result)), Condvar::new())),
        }
    }

    /// Non-blocking peek: `Some` once the response (or error) is in.
    pub fn poll(&self) -> Option<Result<ScenarioResponse, ServeError>> {
        recover(&self.slot.0).clone()
    }

    /// Blocks until the response is in.
    pub fn wait(self) -> Result<ScenarioResponse, ServeError> {
        let (lock, cv) = &*self.slot;
        // `wait_while` returns early, slot unchecked, when it wakes to a
        // lock a panicking holder poisoned: recover, wait on.
        loop {
            let filled = cv
                .wait_while(recover(lock), |slot| slot.is_none())
                .unwrap_or_else(|poisoned| {
                    lock.clear_poison();
                    poisoned.into_inner()
                })
                .take();
            if let Some(result) = filled {
                return result;
            }
        }
    }
}

/// One waiter on a queued group: the ticket's completion slot plus the
/// request's latency budget — both the absolute expiry (for the shed
/// check) and the requested duration (for the error the caller sees).
struct Waiter {
    slot: Slot,
    deadline: Option<(Instant, Duration)>,
}

impl Waiter {
    fn fulfill(&self, result: Result<ScenarioResponse, ServeError>) {
        *recover(&self.slot.0) = Some(result);
        self.slot.1.notify_all();
    }
}

/// One queued scenario group: the representative scenario plus every
/// ticket waiting on it (identical in-queue requests coalesce here — one
/// solve fans out to all waiters). The drop guard turns an abandoned
/// group (dispatcher panic) into [`ServeError::WorkerLost`] instead of a
/// forever-blocked ticket.
struct Group {
    scenario: hddm_scenarios::Scenario,
    hash: u64,
    shape: ShapeKey,
    fingerprint: Vec<f64>,
    allow_warm: bool,
    warm_hint: Option<WarmHint>,
    enqueued: Instant,
    waiters: Vec<Waiter>,
    fulfilled: bool,
}

impl Group {
    fn fulfill(&mut self, result: Result<ScenarioResponse, ServeError>) {
        self.fulfilled = true;
        for waiter in self.waiters.drain(..) {
            waiter.fulfill(result.clone());
        }
    }

    /// Answers every waiter whose deadline has passed with
    /// [`ServeError::DeadlineExceeded`] and removes it. Returns `false`
    /// (and marks the group fulfilled — no solve owed) when no live
    /// waiter remains.
    ///
    /// Runs under the queue lock (admission and seal), so answering a
    /// waiter locks its slot inside the queue's: queue → slot, the
    /// service's one nested acquisition. Slots are leaf locks — nothing
    /// locks the queue while holding a slot — so the order is acyclic.
    fn shed_expired(&mut self, now: Instant, metrics: &Instruments) -> bool {
        self.waiters.retain(|w| match w.deadline {
            Some((expires, requested)) if now >= expires => {
                w.fulfill(Err(ServeError::DeadlineExceeded {
                    deadline: requested,
                }));
                metrics.shed_waiters.inc();
                false
            }
            _ => true,
        });
        if self.waiters.is_empty() {
            self.fulfilled = true;
            metrics.shed_groups.inc();
            return false;
        }
        true
    }
}

impl Drop for Group {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.fulfill(Err(ServeError::WorkerLost));
        }
    }
}

struct QueueState {
    groups: VecDeque<Group>,
    shutdown: bool,
}

/// Registry-backed admission/dispatch instruments behind
/// [`ScenarioService::stats`]. The counters are lock-free relaxed atomics
/// (each an independent monotone tally, not a synchronization edge); the
/// histograms time the serving phases: exact-hit latency, the warm-hint
/// probe, queue wait, and batch solves. All live in the cache's registry,
/// so one snapshot covers admission, cache traffic, and the dispatched
/// solves' driver phases together.
struct Instruments {
    registry: Registry,
    submitted: Arc<Counter>,
    exact_hits: Arc<Counter>,
    enqueued_groups: Arc<Counter>,
    coalesced_waiters: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    shed_waiters: Arc<Counter>,
    shed_groups: Arc<Counter>,
    dispatched_batches: Arc<Counter>,
    dispatched_groups: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_depth_peak: Arc<Gauge>,
    exact_hit_seconds: Arc<Histogram>,
    warm_hint_seconds: Arc<Histogram>,
    queue_wait_seconds: Arc<Histogram>,
    batch_solve_seconds: Arc<Histogram>,
}

impl Instruments {
    fn new(registry: Registry) -> Instruments {
        Instruments {
            submitted: registry.counter("hddm_serve_submitted_total"),
            exact_hits: registry.counter("hddm_serve_exact_hits_total"),
            enqueued_groups: registry.counter("hddm_serve_enqueued_groups_total"),
            coalesced_waiters: registry.counter("hddm_serve_coalesced_waiters_total"),
            rejected_queue_full: registry.counter("hddm_serve_rejected_queue_full_total"),
            shed_waiters: registry.counter("hddm_serve_shed_waiters_total"),
            shed_groups: registry.counter("hddm_serve_shed_groups_total"),
            dispatched_batches: registry.counter("hddm_serve_dispatched_batches_total"),
            dispatched_groups: registry.counter("hddm_serve_dispatched_groups_total"),
            queue_depth: registry.gauge("hddm_serve_queue_depth"),
            queue_depth_peak: registry.gauge("hddm_serve_queue_depth_peak"),
            exact_hit_seconds: registry.histogram("hddm_serve_exact_hit_seconds"),
            warm_hint_seconds: registry.histogram("hddm_serve_warm_hint_seconds"),
            queue_wait_seconds: registry.histogram("hddm_serve_queue_wait_seconds"),
            batch_solve_seconds: registry.histogram("hddm_serve_batch_solve_seconds"),
            registry,
        }
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    metrics: Instruments,
}

/// The non-blocking scenario serving facade over the scenario engine:
///
/// * **exact hit** — the scenario's content hash is cached (in memory or
///   in the persistent index): the response is built on the caller's
///   thread from the cached surface, with zero solver steps. Concurrent
///   callers read through the sharded cache (and restore record files
///   from disk outside any lock), so hit latency does not serialize;
/// * **near miss** — no exact surface, but a same-shape neighbour lies
///   within the warm radius: the request is enqueued for a warm-started
///   solve and the response carries the neighbour as a [`WarmHint`];
/// * **cold miss** — nothing usable cached: the request is enqueued for
///   a cold solve.
///
/// Enqueued misses land on a bounded queue where identical scenarios
/// coalesce into one group; dispatcher threads seal up to
/// [`ServeConfig::max_batch`] groups (after a [`ServeConfig::linger`]
/// coalescing window) into a [`ScenarioSet`] micro-batch and run it
/// through the incremental batch executor
/// ([`run_batch`](hddm_scenarios::run_batch)), fulfilling each ticket as
/// its scenario completes. No async runtime: plain threads, condvars,
/// and the executor's completion handle.
pub struct ScenarioService {
    cache: SurfaceCache,
    config: ServeConfig,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScenarioService {
    /// Starts a service over an existing cache handle (shared with any
    /// other holder — sweeps warming the cache concurrently are visible
    /// to the service immediately).
    pub fn new(cache: SurfaceCache, config: ServeConfig) -> ScenarioService {
        let workers = config.workers.max(1);
        ScenarioService::spawn(cache, config, workers)
    }

    /// Starts a service, opening the cache the executor configuration
    /// describes (persistent when `executor.cache_dir` is set).
    pub fn open(config: ServeConfig) -> Result<ScenarioService, ServeError> {
        let cache = config.executor.open_cache().map_err(ServeError::Cache)?;
        Ok(ScenarioService::new(cache, config))
    }

    /// Spawns with an explicit worker count; `workers == 0` (tests only)
    /// leaves the queue undrained.
    fn spawn(cache: SurfaceCache, config: ServeConfig, workers: usize) -> ScenarioService {
        // The service's instruments live in the cache's registry: one
        // snapshot covers admission, cache traffic, and solve phases.
        let registry = cache.registry().clone();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                groups: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            metrics: Instruments::new(registry.clone()),
        });
        // Refresh the live queue-depth gauge ahead of every snapshot; the
        // Weak keeps the registry from holding the queue alive after the
        // service is dropped.
        let weak = Arc::downgrade(&shared);
        registry.on_collect(move || {
            if let Some(shared) = weak.upgrade() {
                shared
                    .metrics
                    .queue_depth
                    .set(recover(&shared.queue).groups.len() as u64);
            }
        });
        let handles = (0..workers)
            .map(|_| {
                let cache = cache.clone();
                let config = config.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || dispatcher_loop(&cache, &config, &shared))
            })
            .collect();
        ScenarioService {
            cache,
            config,
            shared,
            workers: handles,
        }
    }

    /// The cache this service serves from.
    pub fn cache(&self) -> &SurfaceCache {
        &self.cache
    }

    /// The registry holding this service's instruments (`hddm_serve_*`)
    /// — shared with the cache's (`hddm_cache_*`) and, through the
    /// executor, the dispatched solves' phase spans (`hddm_solve_*`).
    pub fn registry(&self) -> &Registry {
        &self.shared.metrics.registry
    }

    /// Admits a request and returns a [`Ticket`] without blocking on any
    /// solve. Exact hits come back pre-fulfilled (the lookup — including
    /// a lazy disk restore — runs on the calling thread, concurrently
    /// with other callers); misses are enqueued for micro-batching.
    pub fn submit(&self, request: ScenarioRequest) -> Result<Ticket, ServeError> {
        let admitted = Instant::now();
        request.scenario.validate().map_err(ServeError::Invalid)?;
        let metrics = &self.shared.metrics;
        metrics.submitted.inc();
        // The latency budget becomes an absolute expiry at admission;
        // the requested duration rides along for the shed error.
        let deadline = request.deadline.map(|d| (admitted + d, d));
        let scenario = request.scenario;
        let hash = scenario_hash(&scenario);
        // One derivation of the cache identity (ShapeKey::of is shared
        // with the executor's solve-time lookups — the probe here and
        // the dispatched solve must never disagree).
        let shape = ShapeKey::of(&scenario);
        let fp = fingerprint(&scenario);

        // Exact-hit fast path: answer from the cache immediately. The
        // warm path is deliberately not taken here — a warm start still
        // costs a solve, which belongs on the batch queue. The probe is
        // telemetry-neutral on a miss: the dispatched solve's own lookup
        // accounts for it (counting here too would double every miss).
        if let Some(surface) = self.cache.lookup_exact(hash, shape, &fp) {
            let report = ScenarioReport::from_exact_hit(
                &scenario.name,
                &surface,
                admitted.elapsed().as_secs_f64(),
            );
            metrics.exact_hits.inc();
            metrics
                .exact_hit_seconds
                .record(admitted.elapsed().as_secs_f64());
            return Ok(Ticket::ready(Ok(ScenarioResponse {
                report,
                warm_hint: None,
                batch_size: 0,
                queue_seconds: 0.0,
                total_seconds: admitted.elapsed().as_secs_f64(),
            })));
        }

        // A bare hash match is not identity: a colliding hash with a
        // different shape/fingerprint is a *different* scenario (the
        // cache demotes exactly this case), and coalescing it would
        // answer one request with another scenario's surface. Compare
        // the full cache identity.
        let same_group = |g: &Group| {
            g.hash == hash
                && g.shape == shape
                && g.fingerprint == fp
                && g.allow_warm == request.allow_warm
        };

        let (ticket, slot) = Ticket::pending();

        // Coalescing fast path: if an identical scenario is already
        // pending, attach to its group without paying the near-miss
        // probe below (the group keeps the first submitter's hint).
        {
            let mut state = recover(&self.shared.queue);
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if let Some(group) = state.groups.iter_mut().find(|g| same_group(g)) {
                group.waiters.push(Waiter { slot, deadline });
                metrics.coalesced_waiters.inc();
                drop(state);
                self.shared.cv.notify_all();
                return Ok(ticket);
            }
        }

        // Near-miss probe (outside the queue lock — it scans every shard
        // and the persistent index): index metadata only, no record I/O.
        let warm_hint = if request.allow_warm {
            let span = hddm_telemetry::SpanTimer::start(Arc::clone(&metrics.warm_hint_seconds));
            let hint = self.cache.nearest_neighbour(shape, &fp).map(|n| WarmHint {
                source: n.hash,
                distance: n.distance,
                estimated_cost_seconds: n.cost_seconds,
            });
            span.stop();
            hint
        } else {
            None
        };

        {
            let mut state = recover(&self.shared.queue);
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            // Re-check: an identical request may have enqueued while the
            // probe ran. Coalesce then (the fresh hint is redundant).
            if let Some(group) = state.groups.iter_mut().find(|g| same_group(g)) {
                group.waiters.push(Waiter { slot, deadline });
                metrics.coalesced_waiters.inc();
            } else {
                if state.groups.len() >= self.config.queue_capacity {
                    // Deadline-aware back-pressure: before rejecting,
                    // shed queued groups whose every waiter has already
                    // expired — they will never be served in time, and
                    // each one freed admits a live request instead.
                    let now = Instant::now();
                    state.groups.retain_mut(|g| g.shed_expired(now, metrics));
                }
                if state.groups.len() >= self.config.queue_capacity {
                    metrics.rejected_queue_full.inc();
                    return Err(ServeError::QueueFull {
                        capacity: self.config.queue_capacity,
                    });
                }
                state.groups.push_back(Group {
                    scenario,
                    hash,
                    shape,
                    fingerprint: fp,
                    allow_warm: request.allow_warm,
                    warm_hint,
                    enqueued: admitted,
                    waiters: vec![Waiter { slot, deadline }],
                    fulfilled: false,
                });
                metrics.enqueued_groups.inc();
                metrics
                    .queue_depth_peak
                    .fetch_max(state.groups.len() as u64);
            }
        }
        self.shared.cv.notify_all();
        Ok(ticket)
    }

    /// [`ScenarioService::submit`] + [`Ticket::wait`]: the blocking
    /// convenience call.
    pub fn call(&self, request: ScenarioRequest) -> Result<ScenarioResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Pending groups currently queued (coalesced; an exact-hit fast
    /// path never appears here).
    pub fn queue_depth(&self) -> usize {
        recover(&self.shared.queue).groups.len()
    }

    /// Snapshot of the admission and dispatch counters — a structured
    /// view over the registry's instruments. The live queue-depth gauge
    /// is refreshed first through the same path the registry's collect
    /// hook uses, so a [`Registry::snapshot`] taken at the same quiescent
    /// instant reports bit-identical values.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.shared.metrics;
        m.queue_depth.set(self.queue_depth() as u64);
        ServiceStats {
            submitted: m.submitted.get(),
            exact_hits: m.exact_hits.get(),
            enqueued_groups: m.enqueued_groups.get(),
            coalesced_waiters: m.coalesced_waiters.get(),
            rejected_queue_full: m.rejected_queue_full.get(),
            shed_waiters: m.shed_waiters.get(),
            shed_groups: m.shed_groups.get(),
            dispatched_batches: m.dispatched_batches.get(),
            dispatched_groups: m.dispatched_groups.get(),
            queue_depth: m.queue_depth.get(),
            queue_depth_peak: m.queue_depth_peak.get(),
        }
    }
}

impl Drop for ScenarioService {
    fn drop(&mut self) {
        {
            let mut state = recover(&self.shared.queue);
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        // Graceful: dispatchers drain every already-admitted group
        // before exiting, so no accepted ticket is abandoned.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One dispatcher: seal a micro-batch (first pending group + whatever
/// arrives within the linger window, up to `max_batch`), run it through
/// the incremental executor, fulfill tickets as scenarios complete.
fn dispatcher_loop(cache: &SurfaceCache, config: &ServeConfig, shared: &Shared) {
    let max_batch = config.max_batch.max(1);
    loop {
        let mut batch: Vec<Group> = Vec::new();
        {
            // A wake to poison returns early, predicate unchecked: an
            // empty queue then seals an empty batch and waits again.
            let mut state = shared
                .cv
                .wait_while(recover(&shared.queue), |state| {
                    state.groups.is_empty() && !state.shutdown
                })
                .unwrap_or_else(|poisoned| {
                    shared.queue.clear_poison();
                    poisoned.into_inner()
                });
            if state.groups.is_empty() && state.shutdown {
                return;
            }
            // Coalescing window: hold the batch open briefly so near-
            // simultaneous misses ride together (unless it is already
            // full, or the service is shutting down).
            if !config.linger.is_zero() {
                state = shared
                    .cv
                    .wait_timeout_while(state, config.linger, |state| {
                        state.groups.len() < max_batch && !state.shutdown
                    })
                    .unwrap_or_else(|poisoned| {
                        shared.queue.clear_poison();
                        poisoned.into_inner()
                    })
                    .0;
            }
            // Seal-time shedding: a group whose every waiter expired
            // during the wait is dropped here, *before* it can occupy a
            // batch slot or burn a solve. Mixed groups keep running for
            // their live waiters; only the expired ones are answered
            // early with DeadlineExceeded.
            let now = Instant::now();
            while batch.len() < max_batch {
                match state.groups.pop_front() {
                    Some(mut group) => {
                        if group.shed_expired(now, &shared.metrics) {
                            batch.push(group);
                        }
                    }
                    None => break,
                }
            }
        }
        if !batch.is_empty() {
            dispatch(cache, &config.executor, batch, &shared.metrics);
        }
    }
}

/// Runs one sealed micro-batch. Requests that forbid warm starts are
/// split into their own sub-batch so the per-request policy survives the
/// executor's batch-level `warm_start` flag.
fn dispatch(
    cache: &SurfaceCache,
    executor: &ExecutorConfig,
    batch: Vec<Group>,
    metrics: &Instruments,
) {
    let (warm_ok, cold_only): (Vec<Group>, Vec<Group>) =
        batch.into_iter().partition(|g| g.allow_warm);
    for (mut groups, allow_warm) in [(warm_ok, true), (cold_only, false)] {
        if groups.is_empty() {
            continue;
        }
        metrics.dispatched_batches.inc();
        metrics.dispatched_groups.add(groups.len() as u64);
        let set = ScenarioSet {
            scenarios: groups.iter().map(|g| g.scenario.clone()).collect(),
        };
        let exec = ExecutorConfig {
            warm_start: executor.warm_start && allow_warm,
            ..executor.clone()
        };
        let dispatched = Instant::now();
        let batch_size = groups.len();
        for group in &groups {
            metrics
                .queue_wait_seconds
                .record(dispatched.duration_since(group.enqueued).as_secs_f64());
        }
        match run_batch(set, cache.clone(), exec) {
            Ok(mut handle) => {
                while let Some((i, result)) = handle.recv() {
                    let group = &mut groups[i];
                    let response = result
                        .map(|report| ScenarioResponse {
                            report,
                            warm_hint: group.warm_hint,
                            batch_size,
                            queue_seconds: dispatched.duration_since(group.enqueued).as_secs_f64(),
                            total_seconds: group.enqueued.elapsed().as_secs_f64(),
                        })
                        .map_err(ServeError::Executor);
                    group.fulfill(response);
                }
                // Undelivered scenarios (executor thread died) fall to
                // the groups' drop guards → WorkerLost.
            }
            Err(e) => {
                for group in &mut groups {
                    group.fulfill(Err(ServeError::Executor(e.clone())));
                }
            }
        }
        metrics
            .batch_solve_seconds
            .record(dispatched.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_olg::Calibration;
    use hddm_scenarios::Scenario;

    fn base() -> Scenario {
        let mut s = Scenario::from_calibration("svc", Calibration::small(4, 3, 2, 0.03));
        s.solve.tolerance = 1e-6;
        s.solve.max_steps = 50;
        s
    }

    fn undrained(queue_capacity: usize) -> ScenarioService {
        // No dispatchers: the queue fills and stays full — the
        // deterministic way to exercise admission control.
        ScenarioService::spawn(
            SurfaceCache::default(),
            ServeConfig {
                executor: ExecutorConfig::serial(),
                queue_capacity,
                ..ServeConfig::default()
            },
            0,
        )
    }

    #[test]
    fn the_queue_is_bounded_and_rejects_overflow() {
        let service = undrained(2);
        let mut beta = 0.949;
        let mut submit_distinct = || {
            let mut s = base();
            s.calibration.beta = beta;
            beta += 0.001;
            service.submit(ScenarioRequest::new(s))
        };
        let _t1 = submit_distinct().unwrap();
        let _t2 = submit_distinct().unwrap();
        assert_eq!(service.queue_depth(), 2);
        let err = submit_distinct().unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        assert!(err.to_string().contains("full"));
        assert_eq!(service.stats().rejected_queue_full, 1);
    }

    #[test]
    fn a_full_queue_sheds_expired_groups_before_rejecting() {
        let service = undrained(1);
        let expired = service
            .submit(ScenarioRequest::new(base()).with_deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(service.queue_depth(), 1);

        // At capacity, but the only queued group is fully expired: the
        // sweep frees its slot and the live request is admitted.
        let mut other = base();
        other.calibration.beta = 0.951;
        let live = service.submit(ScenarioRequest::new(other)).unwrap();
        assert_eq!(
            expired.wait().unwrap_err(),
            ServeError::DeadlineExceeded {
                deadline: Duration::ZERO
            }
        );
        assert!(live.poll().is_none(), "the live request is queued");
        assert_eq!(service.queue_depth(), 1);
        let stats = service.stats();
        assert_eq!(stats.shed_groups, 1);
        assert_eq!(stats.shed_waiters, 1);
        assert_eq!(stats.rejected_queue_full, 0);

        // With only live work queued, overflow is rejected for real.
        let mut third = base();
        third.calibration.beta = 0.952;
        let err = service.submit(ScenarioRequest::new(third)).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 1 });
        assert_eq!(service.stats().rejected_queue_full, 1);
    }

    #[test]
    fn identical_pending_requests_coalesce_into_one_group() {
        let service = undrained(8);
        let t1 = service.submit(ScenarioRequest::new(base())).unwrap();
        let t2 = service.submit(ScenarioRequest::new(base())).unwrap();
        // Same scenario → one group, two waiters.
        assert_eq!(service.queue_depth(), 1);
        // A cold-only request for the same scenario must NOT share the
        // warm-allowed solve (different serving policy → its own group).
        let _t3 = service.submit(ScenarioRequest::cold_only(base())).unwrap();
        assert_eq!(service.queue_depth(), 2);
        assert!(t1.poll().is_none());
        assert!(t2.poll().is_none());

        // Dropping the service abandons the undrained groups: waiters
        // get WorkerLost (never a hang).
        drop(service);
        assert_eq!(t1.wait().unwrap_err(), ServeError::WorkerLost);
        assert_eq!(t2.wait().unwrap_err(), ServeError::WorkerLost);
    }

    #[test]
    fn invalid_scenarios_are_rejected_at_admission() {
        let service = undrained(4);
        let mut bad = base();
        bad.solve.tolerance = -1.0;
        let err = service.submit(ScenarioRequest::new(bad)).unwrap_err();
        assert!(matches!(err, ServeError::Invalid(_)));
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let service = undrained(4);
        recover(&service.shared.queue).shutdown = true;
        let err = service.submit(ScenarioRequest::new(base())).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn stats_and_registry_snapshot_agree_bit_for_bit() {
        // Traffic over every admission counter class: enqueue, coalesce,
        // shed, reject.
        let service = undrained(1);
        let expired = service
            .submit(ScenarioRequest::new(base()).with_deadline(Duration::ZERO))
            .unwrap();
        let _coalesced = service
            .submit(ScenarioRequest::new(base()).with_deadline(Duration::ZERO))
            .unwrap();
        let mut other = base();
        other.calibration.beta = 0.951;
        let _live = service.submit(ScenarioRequest::new(other)).unwrap();
        let _ = expired.wait();
        let mut third = base();
        third.calibration.beta = 0.952;
        let _ = service.submit(ScenarioRequest::new(third)).unwrap_err();

        let stats = service.stats();
        let snap = service.registry().snapshot();
        let counter = |name: &str| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let gauge = |name: &str| snap.gauge(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(stats.submitted, counter("hddm_serve_submitted_total"));
        assert_eq!(stats.exact_hits, counter("hddm_serve_exact_hits_total"));
        assert_eq!(
            stats.enqueued_groups,
            counter("hddm_serve_enqueued_groups_total")
        );
        assert_eq!(
            stats.coalesced_waiters,
            counter("hddm_serve_coalesced_waiters_total")
        );
        assert_eq!(
            stats.rejected_queue_full,
            counter("hddm_serve_rejected_queue_full_total")
        );
        assert_eq!(stats.shed_waiters, counter("hddm_serve_shed_waiters_total"));
        assert_eq!(stats.shed_groups, counter("hddm_serve_shed_groups_total"));
        assert_eq!(
            stats.dispatched_batches,
            counter("hddm_serve_dispatched_batches_total")
        );
        assert_eq!(
            stats.dispatched_groups,
            counter("hddm_serve_dispatched_groups_total")
        );
        assert_eq!(stats.queue_depth, gauge("hddm_serve_queue_depth"));
        assert_eq!(stats.queue_depth_peak, gauge("hddm_serve_queue_depth_peak"));
        // The admission identity the metrics-check tool enforces.
        assert_eq!(
            stats.submitted,
            stats.exact_hits
                + stats.enqueued_groups
                + stats.coalesced_waiters
                + stats.rejected_queue_full
        );
        // Cache and serve instruments share one registry.
        assert!(snap.counter("hddm_cache_misses_total").is_some());
    }
}
