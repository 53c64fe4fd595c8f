//! Acceptance tests of the serving front-end:
//!
//! * a mixed trace through [`ScenarioService`] returns correct responses
//!   for all three decision-tree paths (exact hit, warm start, cold miss
//!   via micro-batch);
//! * ≥ 4 concurrent exact-hit readers restore their surfaces from disk
//!   **without serializing on a single cache lock** — proven by a
//!   rendezvous inside the restore path (all four must be inside their
//!   record-file reads simultaneously) and by the cache's
//!   `concurrent_restores_peak` telemetry;
//! * identical concurrent requests coalesce into one solve;
//! * a shut-down service leaves every surface it solved committed, and
//!   solves what it admitted, even behind a running batch;
//! * a solve that panics inside a batch loses only its own ticket
//!   (`WorkerLost`), and the dispatcher serves on; the deposits the batch
//!   made before the panic are committed when it unwinds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hddm_olg::Calibration;
use hddm_scenarios::{
    persist, run_set, scenario_hash, CacheKind, ExecutorConfig, Knob, Scenario, ScenarioSet,
    SurfaceCache,
};
use hddm_serve::{ScenarioRequest, ScenarioService, ServeConfig, ServeError};

fn base() -> Scenario {
    let mut s = Scenario::from_calibration("serve", Calibration::small(4, 3, 2, 0.03));
    s.solve.tolerance = 1e-6;
    s.solve.max_steps = 50;
    s
}

/// How long a step may take before the test calls it hung.
const WATCHDOG: Duration = Duration::from_secs(60);

fn serve_config() -> ServeConfig {
    ServeConfig {
        executor: ExecutorConfig::serial(),
        linger: Duration::from_millis(5),
        ..ServeConfig::default()
    }
}

/// A fresh, collision-free temp directory per test invocation.
fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hddm_serve_test_{}_{tag}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mixed_trace_exercises_all_three_paths_correctly() {
    let service = ScenarioService::new(SurfaceCache::default(), serve_config());

    // 1. Cold miss: nothing cached, no warm hint possible.
    let cold = service.call(ScenarioRequest::new(base())).unwrap();
    assert_eq!(cold.kind(), CacheKind::Cold);
    assert!(cold.report.converged);
    assert!(cold.report.steps > 0);
    assert!(cold.warm_hint.is_none(), "empty cache cannot hint");
    assert!(cold.batch_size >= 1, "misses go through the micro-batch");
    assert!(cold.total_seconds >= cold.queue_seconds);

    // 2. Near miss: same shape, fingerprint within the warm radius. The
    //    response must carry the nearest-neighbour metadata AND the
    //    executor must actually warm start from it.
    let mut near = base();
    Knob::Beta.apply(&mut near, 0.9525).unwrap();
    near.name = "serve/near".into();
    let warm = service.call(ScenarioRequest::new(near.clone())).unwrap();
    assert_eq!(warm.kind(), CacheKind::Warm);
    assert!(warm.report.converged);
    let hint = warm.warm_hint.expect("near miss must carry a warm hint");
    assert_eq!(hint.source, cold.hash(), "hint names the cached neighbour");
    assert!(hint.distance > 0.0 && hint.distance <= 0.05);
    assert!(hint.estimated_cost_seconds > 0.0);
    assert_eq!(
        warm.report.warm_source,
        Some(cold.hash()),
        "the solve used the hinted surface"
    );

    // 3. Exact hit: the identical scenario is answered from the cache
    //    with zero solver steps, without touching the queue.
    let hit = service.call(ScenarioRequest::new(base())).unwrap();
    assert_eq!(hit.kind(), CacheKind::Exact);
    assert_eq!(hit.report.steps, 0);
    assert_eq!(hit.hash(), cold.hash());
    assert_eq!(hit.batch_size, 0, "exact hits bypass the micro-batch");
    assert_eq!(hit.queue_seconds, 0.0);
    assert!(hit.warm_hint.is_none());

    // 4. Far miss: same shape but far fingerprint (a box reform well
    //    outside the warm radius) — cold, no hint.
    let mut far = base();
    Knob::CapitalSpan.apply(&mut far, 0.45).unwrap();
    far.name = "serve/far".into();
    let cold2 = service.call(ScenarioRequest::new(far)).unwrap();
    assert_eq!(cold2.kind(), CacheKind::Cold);
    assert!(cold2.warm_hint.is_none(), "out-of-radius must not hint");

    // 5. Cold-only policy: a nearby neighbour exists, but the request
    //    forbids warm starts — served cold, no hint attached.
    let mut near2 = base();
    Knob::Beta.apply(&mut near2, 0.9515).unwrap();
    near2.name = "serve/cold-only".into();
    let forced = service.call(ScenarioRequest::cold_only(near2)).unwrap();
    assert_eq!(forced.kind(), CacheKind::Cold);
    assert!(forced.warm_hint.is_none());
    assert_eq!(forced.report.warm_source, None);
}

/// The tentpole concurrency acceptance: ≥ 4 exact-hit readers, each
/// restoring a *different* persisted surface, must all be inside their
/// record-file reads at the same time. Under the old design (file I/O
/// under the single cache mutex) the rendezvous can never complete —
/// each reader would hold the lock for the duration of its read, so the
/// hook would time out with fewer than 4 arrivals.
#[test]
fn four_concurrent_exact_hit_readers_restore_from_disk_without_serializing() {
    const READERS: usize = 4;
    let dir = temp_cache_dir("concurrent");

    // Warm the persistent cache with 4 distinct scenarios.
    let set = ScenarioSet::grid(&base(), &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])]).unwrap();
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        let report = run_set(&set, &warmer, &ExecutorConfig::serial()).unwrap();
        assert!(report.all_converged());
        assert_eq!(report.cache_stats.persisted_entries, READERS);
    }

    // Fresh cache over the directory — every surface must come off disk.
    let cache = SurfaceCache::open(&dir).unwrap();

    // Rendezvous hook: every restore waits (bounded) until all four
    // readers are inside the restore path simultaneously.
    let rendezvous = Arc::new((Mutex::new(0usize), Condvar::new()));
    let timed_out = Arc::new(Mutex::new(false));
    {
        let rendezvous = Arc::clone(&rendezvous);
        let timed_out = Arc::clone(&timed_out);
        cache.set_restore_hook(Arc::new(move |_hash| {
            let (count, cv) = &*rendezvous;
            let mut inside = count.lock().unwrap();
            *inside += 1;
            cv.notify_all();
            let deadline = Instant::now() + Duration::from_secs(20);
            while *inside < READERS {
                let now = Instant::now();
                if now >= deadline {
                    *timed_out.lock().unwrap() = true;
                    return;
                }
                let (guard, _) = cv.wait_timeout(inside, deadline - now).unwrap();
                inside = guard;
            }
        }));
    }

    let service = Arc::new(ScenarioService::new(cache.clone(), serve_config()));
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = set
            .scenarios
            .iter()
            .map(|scenario| {
                let service = Arc::clone(&service);
                let request = ScenarioRequest::new(scenario.clone());
                scope.spawn(move || service.call(request).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // All four served as zero-step exact hits restored from disk.
    for response in &responses {
        assert_eq!(response.kind(), CacheKind::Exact);
        assert_eq!(response.report.steps, 0);
        assert_eq!(response.batch_size, 0);
    }
    assert!(
        !*timed_out.lock().unwrap(),
        "restores serialized: fewer than {READERS} readers were ever \
         inside the restore path simultaneously"
    );
    let stats = cache.stats();
    assert_eq!(stats.exact_hits, READERS);
    assert_eq!(
        stats.disk_hits, READERS,
        "each surface restored exactly once"
    );
    assert!(
        stats.concurrent_restores_peak >= READERS,
        "peak concurrent restores {} < {READERS}: the read path serialized",
        stats.concurrent_restores_peak
    );
    // The surfaces spread over more than one shard, so the readers were
    // not all funneled through one lock even in memory.
    assert!(
        cache.shard_entries().iter().filter(|&&n| n > 0).count() >= 2,
        "shard telemetry: entries {:?}",
        cache.shard_entries()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_concurrent_requests_share_one_solve() {
    const CLIENTS: usize = 5;
    // One dispatcher with a long linger: all five identical requests
    // land in the queue before the batch seals, so they must coalesce
    // into a single group → a single solve fanned out to every waiter.
    let service = Arc::new(ScenarioService::new(
        SurfaceCache::default(),
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            linger: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    ));

    // Submit all five tickets non-blocking (well inside the linger
    // window — each submit is microseconds), then wait concurrently.
    let tickets: Vec<_> = (0..CLIENTS)
        .map(|_| service.submit(ScenarioRequest::new(base())).unwrap())
        .collect();
    assert_eq!(
        service.queue_depth(),
        1,
        "five requests, one coalesced group"
    );
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = tickets
            .into_iter()
            .map(|ticket| scope.spawn(move || ticket.wait().unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every client got the same single solve: identical step counts and
    // bit-identical wall clocks (a clone of one report, not five solves).
    let first = &responses[0];
    assert_eq!(first.kind(), CacheKind::Cold);
    assert!(first.report.converged);
    for response in &responses[1..] {
        assert_eq!(response.kind(), CacheKind::Cold);
        assert_eq!(response.report.steps, first.report.steps);
        assert_eq!(
            response.report.wall_seconds.to_bits(),
            first.report.wall_seconds.to_bits(),
            "responses must share one underlying solve"
        );
    }
    let stats = service.cache().stats();
    assert_eq!(
        stats.entries, 1,
        "exactly one surface was solved and deposited"
    );
}

/// Admission control: a request whose deadline has already passed when
/// the dispatcher seals its batch is answered with `DeadlineExceeded`
/// and never burns a solve.
#[test]
fn expired_requests_are_shed_at_seal_without_burning_a_solve() {
    let service = ScenarioService::new(
        SurfaceCache::default(),
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            linger: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let ticket = service
        .submit(ScenarioRequest::new(base()).with_deadline(Duration::ZERO))
        .unwrap();
    let err = ticket.wait().unwrap_err();
    assert_eq!(
        err,
        ServeError::DeadlineExceeded {
            deadline: Duration::ZERO
        }
    );
    assert!(err.to_string().contains("deadline"));
    let stats = service.stats();
    assert_eq!(stats.shed_waiters, 1);
    assert_eq!(stats.shed_groups, 1);
    assert_eq!(
        stats.dispatched_groups, 0,
        "the shed group never dispatched"
    );
    assert_eq!(
        service.cache().stats().entries,
        0,
        "no solve was burned for the expired request"
    );
}

/// A coalesced group with one expired and one live waiter sheds only the
/// expired one — the group still dispatches (once) for the live waiter.
#[test]
fn a_coalesced_group_sheds_only_its_expired_waiters() {
    let service = ScenarioService::new(
        SurfaceCache::default(),
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            linger: Duration::from_millis(300),
            ..ServeConfig::default()
        },
    );
    let live = service.submit(ScenarioRequest::new(base())).unwrap();
    let expired = service
        .submit(ScenarioRequest::new(base()).with_deadline(Duration::ZERO))
        .unwrap();
    assert_eq!(service.queue_depth(), 1, "identical requests coalesce");
    assert_eq!(
        expired.wait().unwrap_err(),
        ServeError::DeadlineExceeded {
            deadline: Duration::ZERO
        }
    );
    let served = live.wait().unwrap();
    assert_eq!(served.kind(), CacheKind::Cold);
    assert!(served.report.converged);
    let stats = service.stats();
    assert_eq!(stats.coalesced_waiters, 1);
    assert_eq!(stats.shed_waiters, 1);
    assert_eq!(
        stats.shed_groups, 0,
        "the group still dispatched for its live waiter"
    );
    assert_eq!(stats.dispatched_groups, 1);
    assert_eq!(stats.queue_depth_peak, 1);
}

/// Linger-window boundary: a request that arrives after a batch seals
/// (here forced by `max_batch: 1`) is not lost — it lands in the next
/// sealed batch.
#[test]
fn a_request_after_the_seal_lands_in_the_next_batch() {
    let service = ScenarioService::new(
        SurfaceCache::default(),
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            max_batch: 1,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let mut second = base();
    Knob::CapitalSpan.apply(&mut second, 0.45).unwrap();
    second.name = "serve/next-batch".into();
    let t1 = service.submit(ScenarioRequest::new(base())).unwrap();
    // Let the lone dispatcher seal (zero linger → immediately) so the
    // second request arrives while the first batch is being solved.
    std::thread::sleep(Duration::from_millis(5));
    let t2 = service.submit(ScenarioRequest::new(second)).unwrap();
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert!(r1.report.converged);
    assert!(r2.report.converged);
    assert_eq!(r1.batch_size, 1);
    assert_eq!(r2.batch_size, 1, "the late request rode its own batch");
    let stats = service.stats();
    assert_eq!(stats.enqueued_groups, 2);
    assert_eq!(stats.dispatched_batches, 2);
    assert_eq!(stats.dispatched_groups, 2);
}

/// Shutdown during the linger window must break the window and drain
/// the already-admitted request — a graceful result, not `WorkerLost`.
#[test]
fn shutdown_during_the_linger_window_drains_the_queue() {
    let service = ScenarioService::new(
        SurfaceCache::default(),
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            linger: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let started = Instant::now();
    let ticket = service.submit(ScenarioRequest::new(base())).unwrap();
    // Give the dispatcher time to enter the linger wait, then shut down.
    std::thread::sleep(Duration::from_millis(50));
    drop(service);
    let served = ticket.wait().expect("shutdown must drain, not abandon");
    assert_eq!(served.kind(), CacheKind::Cold);
    assert!(served.report.converged);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must break the linger window, not sit it out"
    );
}

/// Tickets are fulfilled before their surfaces reach the disk; shutting
/// the service down is a durability boundary. A handle kept alive past
/// the service keeps the last-handle drop out of it: the shutdown alone
/// must commit every solved surface.
#[test]
fn a_shut_down_service_has_committed_every_surface_it_solved() {
    let dir = temp_cache_dir("shutdown");
    let cache = SurfaceCache::open(&dir).unwrap();
    let service = ScenarioService::new(cache.clone(), serve_config());
    let set = ScenarioSet::grid(&base(), &[(Knob::Beta, vec![0.949, 0.951, 0.953])]).unwrap();
    let tickets: Vec<_> = set
        .scenarios
        .iter()
        .map(|s| service.submit(ScenarioRequest::new(s.clone())).unwrap())
        .collect();
    for ticket in tickets {
        assert_ne!(ticket.wait().unwrap().kind(), CacheKind::Exact);
    }
    drop(service);

    let reopened = SurfaceCache::open(&dir).unwrap();
    assert_eq!(reopened.stats().persisted_entries, set.len());
    let again = run_set(&set, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(again.exact_hits, set.len());
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown drains the queue behind a running batch. The one dispatcher is
/// held inside a batch: its solve's warm restore from disk waits at a gate.
/// A second request queues behind it, the service is dropped from another
/// thread, and then the gate opens. The dispatcher must come back for the
/// queued request and solve it; exiting at the shutdown flag instead would
/// leave it to the `Group` drop guard's `WorkerLost`.
#[test]
fn shutdown_while_a_batch_runs_solves_the_request_queued_behind_it() {
    let dir = temp_cache_dir("drain");
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        let set = ScenarioSet {
            scenarios: vec![base()],
        };
        let report = run_set(&set, &warmer, &ExecutorConfig::serial()).unwrap();
        assert!(report.all_converged());
    }

    let cache = SurfaceCache::open(&dir).unwrap();
    let (entered, in_restore) = mpsc::channel();
    let (open, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    cache.set_restore_hook(Arc::new(move |_| {
        let _ = entered.send(());
        // Returns once the gate's sender is dropped.
        let _ = gate.lock().unwrap().recv();
    }));
    let service = ScenarioService::new(
        cache,
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );

    let mut near = base();
    Knob::Beta.apply(&mut near, 0.9525).unwrap();
    near.name = "serve/held".into();
    let held = service.submit(ScenarioRequest::new(near)).unwrap();
    in_restore
        .recv_timeout(WATCHDOG)
        .expect("the dispatched solve reached its warm restore");
    let mut far = base();
    Knob::CapitalSpan.apply(&mut far, 0.45).unwrap();
    far.name = "serve/queued".into();
    let queued = service.submit(ScenarioRequest::cold_only(far)).unwrap();
    assert_eq!(
        service.queue_depth(),
        1,
        "the request waits behind the batch"
    );

    let (dropped, shut_down) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(service);
        let _ = dropped.send(());
    });
    // Time for the drop to set the shutdown flag and join the dispatcher.
    std::thread::sleep(Duration::from_millis(100));
    drop(open);
    shut_down
        .recv_timeout(WATCHDOG)
        .expect("shutdown joined the dispatcher");
    dropper.join().unwrap();

    assert_eq!(held.wait().unwrap().kind(), CacheKind::Warm);
    let served = queued
        .wait()
        .expect("the request queued behind the running batch is solved");
    assert_eq!(served.kind(), CacheKind::Cold);
    assert!(served.report.converged);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A solve that panics inside a dispatched batch answers its ticket with
/// `WorkerLost` and leaves the dispatcher serving. The one dispatcher's
/// warm restore from disk panics once; the ticket must come back within
/// the watchdog, and the same request then warm-starts and converges.
#[test]
fn a_panicking_batch_loses_its_ticket_and_the_dispatcher_serves_on() {
    let dir = temp_cache_dir("panic");
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        let set = ScenarioSet {
            scenarios: vec![base()],
        };
        assert!(run_set(&set, &warmer, &ExecutorConfig::serial())
            .unwrap()
            .all_converged());
    }

    let cache = SurfaceCache::open(&dir).unwrap();
    let armed = AtomicBool::new(true);
    cache.set_restore_hook(Arc::new(move |_| {
        if armed.swap(false, Ordering::Relaxed) {
            panic!("a restore fails inside a dispatched solve");
        }
    }));
    let service = ScenarioService::new(
        cache,
        ServeConfig {
            executor: ExecutorConfig::serial(),
            workers: 1,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let answer = |ticket: hddm_serve::Ticket| {
        let started = Instant::now();
        loop {
            if let Some(result) = ticket.poll() {
                return result;
            }
            assert!(started.elapsed() < WATCHDOG, "the ticket hung");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let mut near = base();
    Knob::Beta.apply(&mut near, 0.9525).unwrap();
    near.name = "serve/panics".into();
    let lost = service.submit(ScenarioRequest::new(near.clone())).unwrap();
    assert_eq!(answer(lost).unwrap_err(), ServeError::WorkerLost);

    let served = answer(service.submit(ScenarioRequest::new(near)).unwrap())
        .expect("the dispatcher serves the next request");
    assert_eq!(served.kind(), CacheKind::Warm);
    assert!(served.report.converged);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch whose second solve panics still commits the first one's
/// deposit before the panic leaves `run_set`: scenario 0 solves cold and
/// deposits, scenario 1's warm restore from disk panics in the restore
/// hook. Once `catch_unwind` returns, with the cache still open, scenario
/// 0's record is on disk and counted as committed.
#[test]
fn a_panicking_batch_commits_the_deposits_it_made_before_the_panic() {
    let dir = temp_cache_dir("unwind");
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        let set = ScenarioSet {
            scenarios: vec![base()],
        };
        assert!(run_set(&set, &warmer, &ExecutorConfig::serial())
            .unwrap()
            .all_converged());
    }

    let cache = SurfaceCache::open(&dir).unwrap();
    cache.set_restore_hook(Arc::new(|_| panic!("a restore fails inside the batch")));
    // Another shape: scenario 0 neither hits nor warm-starts from disk.
    let mut deposits = Scenario::from_calibration("serve", Calibration::small(5, 3, 2, 0.03));
    deposits.solve = base().solve;
    let mut panics = base();
    Knob::Beta.apply(&mut panics, 0.9525).unwrap();
    panics.name = "serve/panics".into();
    let set = ScenarioSet {
        scenarios: vec![deposits.clone(), panics],
    };
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_set(&set, &cache, &ExecutorConfig::serial())
    }));
    assert!(unwound.is_err(), "scenario 1's restore panics");

    let record = dir.join(persist::surface_file_name(scenario_hash(&deposits)));
    assert!(record.exists(), "scenario 0's deposit was not committed");
    assert_eq!(
        cache
            .registry()
            .snapshot()
            .counter("hddm_cache_commit_records_total"),
        Some(1)
    );
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}
