//! `serve_mixed`: the serving facade under an open-loop mix of reads and
//! writes. The economy is tiny (18 grid points, a solve of about a
//! millisecond), so a miss is made of cache, persistence (two fsynced
//! atomic writes and a manifest rewrite per deposit), queueing and the
//! linger window — the opposite of `solve_cold`. 80 % of requests are
//! exact hits on a pool of 64 pre-filled surfaces, 20 % are new scenarios
//! that are solved (alternately warm and cold) and deposited beside them.
//!
//! The heavy operation is a served miss, from its due time to its answer,
//! deposit included (`op_ms`), the light one a served exact hit
//! (`fast_op_ms`); reads run beside writes, so a deposit-path gain that
//! costs the exact hits shows.

use std::path::Path;
use std::time::Duration;

use hddm::scenarios::{run_set, CacheKind, ExecutorConfig, ScenarioSet};
use hddm::serve::{ScenarioResponse, ScenarioService, ServeConfig, ServeError, Ticket};

use crate::gen::{self, Intent};
use crate::metrics::MetricSet;
use crate::openloop::{drive, WallClock};
use crate::run::{Checks, Ctx, Outcome, ScratchDir, SetUps};
use crate::stats::{self, percentile, sorted, tail_quantile};
use crate::trace::Trace;

/// The reference rung and the two that bracket the saturation knee
/// (miss capacity is ≈ 190/s, i.e. ≈ 950 req/s at 20 % misses).
const RUNGS: [(f64, &str); 3] = [(300.0, "r300"), (600.0, "r600"), (1200.0, "r1200")];
const EXACT_LIMIT_S: f64 = 0.010;
const MISS_LIMIT_S: f64 = 0.100;
/// A rung is OK when this share of the requests *sent* meet their limit
/// and every ticket resolves within `DRAIN_S` of the last due time.
const OK_SHARE: f64 = 0.99;
const DRAIN_S: f64 = 1.0;
const GIVE_UP_S: f64 = 20.0;
const GEN_LATE_LIMIT_S: f64 = 0.005;
/// Set-ups before the rung of the untraced run.
const SETUPS: usize = 5;

struct Served {
    service: ScenarioService,
    pool: ScenarioSet,
    prefill_converged: bool,
    _dir: ScratchDir,
}

fn executor(dir: &Path) -> ExecutorConfig {
    ExecutorConfig {
        threads: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..ExecutorConfig::default()
    }
}

/// The workload's set-up: solves the pool into a fresh cache directory
/// (64 durable deposits), then starts the service over a *fresh* handle on
/// it, so the first touch of each surface restores it from disk.
fn start_service(ctx: &Ctx) -> Served {
    let dir = ScratchDir::new(ctx, "serve");
    let pool = gen::serve_pool(ctx.seed);
    let config = executor(&dir.0);
    let cache = config.open_cache().expect("a fresh cache directory opens");
    let report = run_set(&pool, &cache, &config).expect("a valid set runs");
    drop(cache);
    let service = ScenarioService::open(ServeConfig {
        executor: config,
        workers: 2,
        max_batch: 8,
        linger: Duration::from_millis(2),
        queue_capacity: 256,
    })
    .expect("the directory just written reopens");
    Served {
        service,
        pool,
        prefill_converged: report.all_converged(),
        _dir: dir,
    }
}

/// One request, resolved.
struct Resolved {
    intent: Intent,
    due_s: f64,
    late_s: f64,
    sent_s: f64,
    /// The latency from the due time: lateness plus the service's own
    /// submission-to-response time, or the inline elapsed time of a
    /// pre-fulfilled ticket. Infinite when the request was not answered.
    latency_s: f64,
    outcome: Result<ScenarioResponse, String>,
}

impl Resolved {
    fn is_miss(&self) -> bool {
        self.intent != Intent::Exact
    }

    /// A request that failed, was refused or never resolved misses any
    /// limit.
    fn within_limit(&self) -> bool {
        let limit = if self.is_miss() {
            MISS_LIMIT_S
        } else {
            EXACT_LIMIT_S
        };
        self.outcome.is_ok() && self.latency_s <= limit
    }
}

struct Rung {
    label: &'static str,
    rate: f64,
    requests: Vec<Resolved>,
    drained_in_time: bool,
    stats: hddm::serve::ServiceStats,
    batch_solve_p50_s: f64,
    deposit_total_s: f64,
}

impl Rung {
    /// Requests that failed, were refused, never resolved or were answered
    /// after their limit.
    fn failed(&self) -> u64 {
        self.requests.iter().filter(|r| !r.within_limit()).count() as u64
    }

    fn ok_share(&self) -> f64 {
        1.0 - self.failed() as f64 / self.requests.len() as f64
    }

    fn ok(&self) -> bool {
        self.ok_share() >= OK_SHARE && self.drained_in_time
    }

    /// Latencies from the due time of the answered requests `pick` selects,
    /// ascending.
    fn latencies(&self, pick: impl Fn(&Resolved) -> bool) -> Vec<f64> {
        let answered = self
            .requests
            .iter()
            .filter(|r| r.outcome.is_ok() && pick(r))
            .map(|r| r.latency_s);
        sorted(&answered.collect::<Vec<_>>())
    }

    fn gen_late_max_s(&self) -> f64 {
        self.requests.iter().map(|r| r.late_s).fold(0.0, f64::max)
    }
}

/// Offers `rate` requests per second for `seconds` on the schedule
/// `i / rate` and resolves them all.
fn run_rung(served: &Served, ctx: &Ctx, rung: usize, seconds: f64) -> Rung {
    let (rate, label) = RUNGS[rung];
    let n = ((rate * seconds).round() as usize).max(1);
    let plan = gen::serve_requests(ctx.seed, rung as u64, &served.pool, n);
    let (intents, requests): (Vec<Intent>, Vec<_>) =
        plan.into_iter().map(|p| (p.intent, p.request)).unzip();

    type Reply = (
        Result<Ticket, ServeError>,
        Option<Result<ScenarioResponse, ServeError>>,
    );
    let clock = WallClock::start();
    let sent = drive(&clock, rate, requests, |request| -> Reply {
        let ticket = served.service.submit(request);
        let ready = ticket.as_ref().ok().and_then(Ticket::poll);
        (ticket, ready)
    });

    // Misses resolve on the dispatcher threads and carry the service's own
    // timing, so they are collected after the last request went out.
    // A ticket still open DRAIN_S after the last due time makes the rung
    // not OK; it is waited for all the same, because a slow answer is not
    // a wrong one. Only after GIVE_UP_S does it count as failed.
    let last_due_s = (n - 1) as f64 / rate;
    let (deadline, give_up) = (
        clock.instant_at(last_due_s + DRAIN_S),
        clock.instant_at(last_due_s + GIVE_UP_S),
    );
    let mut drained_in_time = true;
    let requests = sent
        .into_iter()
        .zip(intents)
        .map(|(s, intent)| {
            let late_s = s.late_s();
            let (latency_s, outcome) = match s.reply {
                (Err(e), _) => (f64::INFINITY, Err(e.to_string())),
                (Ok(_), Some(ready)) => (s.returned_s - s.due_s, ready.map_err(|e| e.to_string())),
                (Ok(ticket), None) => loop {
                    if let Some(result) = ticket.poll() {
                        match result {
                            Ok(response) => break (late_s + response.total_seconds, Ok(response)),
                            Err(e) => break (f64::INFINITY, Err(e.to_string())),
                        }
                    }
                    let now = std::time::Instant::now();
                    drained_in_time &= now < deadline;
                    if now >= give_up {
                        break (f64::INFINITY, Err("never resolved".into()));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                },
            };
            Resolved {
                intent,
                due_s: s.due_s,
                late_s,
                sent_s: s.sent_s,
                latency_s,
                outcome,
            }
        })
        .collect();
    let registry = served.service.registry();
    Rung {
        label,
        rate,
        requests,
        drained_in_time,
        stats: served.service.stats(),
        batch_solve_p50_s: registry
            .histogram("hddm_serve_batch_solve_seconds")
            .percentile(0.5),
        deposit_total_s: registry
            .histogram("hddm_cache_deposit_seconds")
            .sum_seconds(),
    }
}

/// Served reports are converged, hits meant as exact are exact, new
/// scenarios are solved the way they asked, and admission adds up.
fn check_rung(served: &Served, rung: &Rung, must_hold_up: bool, checks: &mut Checks) {
    let label = rung.label;
    checks.check(served.prefill_converged, || {
        format!("{label}: the pre-fill did not converge")
    });
    let mut wrong_kind = 0;
    let mut not_converged = 0;
    for r in &rung.requests {
        if let Ok(response) = &r.outcome {
            let want = match r.intent {
                Intent::Exact => CacheKind::Exact,
                Intent::Warm => CacheKind::Warm,
                Intent::Cold => CacheKind::Cold,
            };
            wrong_kind += usize::from(response.kind() != want);
            not_converged += usize::from(!response.report.converged);
        }
    }
    checks.check(wrong_kind == 0, || {
        format!("{label}: {wrong_kind} requests were not served along the path they were built for")
    });
    checks.check(not_converged == 0, || {
        format!("{label}: {not_converged} served reports not converged")
    });
    let s = &rung.stats;
    checks.check(
        s.submitted
            == s.exact_hits + s.enqueued_groups + s.coalesced_waiters + s.rejected_queue_full,
        || format!("{label}: admission identity broken: {s:?}"),
    );
    if must_hold_up {
        let errors = rung.requests.iter().filter(|r| r.outcome.is_err()).count();
        checks.check(errors == 0 && rung.drained_in_time, || {
            format!("{label}: {errors} requests failed, were refused or never resolved")
        });
    }
}

fn late_note(rung: &Rung) -> String {
    let late = rung.gen_late_max_s();
    format!(
        "{}: generator at most {:.3} ms late{}",
        rung.label,
        late * 1e3,
        if late > GEN_LATE_LIMIT_S {
            " — above the 5 ms validity limit: read this rung as disturbed, not as slow"
        } else {
            ""
        }
    )
}

/// Sets a latency metric to the median over the answered requests `pick`
/// selects, and returns the line printed beside it: quartiles, p90, the
/// highest percentile that still has ten samples beyond it, and the count.
fn set_latency_metric(
    metrics: &mut MetricSet,
    name: &str,
    rung: &Rung,
    pick: impl Fn(&Resolved) -> bool,
    what: &str,
) -> String {
    let all = rung.latencies(pick);
    let p50 = percentile(&all, 0.50);
    metrics.set(name, p50 * 1e3);
    let tail = tail_quantile(all.len()).map_or(String::new(), |q| {
        format!(" p{}={:.4} ms", q * 100.0, percentile(&all, q) * 1e3)
    });
    format!(
        "{name} = {what}: median {:.4} ms of n={}; p25={:.4} ms p75={:.4} ms p90={:.4} ms{tail}",
        p50 * 1e3,
        all.len(),
        percentile(&all, 0.25) * 1e3,
        percentile(&all, 0.75) * 1e3,
        percentile(&all, 0.90) * 1e3,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    // The one rung needs one service; the set-up is repeated before it (an
    // earlier service is shut down and its directory removed before the
    // next is started).
    let mut setups = SetUps::default();
    let mut served = None;
    for _ in 0..if ctx.smoke { 1 } else { SETUPS } {
        drop(served.take());
        served = Some(setups.time(|| start_service(ctx)));
    }
    let served = served.expect("set up at least once");
    let rung = run_rung(&served, ctx, 0, ctx.seconds);
    let mut checks = Checks::default();
    check_rung(&served, &rung, true, &mut checks);

    let mut metrics = MetricSet::end_to_end();
    let notes = vec![
        set_latency_metric(
            &mut metrics,
            "op_ms",
            &rung,
            Resolved::is_miss,
            "one miss at 300 req/s, from its due time to its answer",
        ),
        set_latency_metric(
            &mut metrics,
            "fast_op_ms",
            &rung,
            |r| !r.is_miss(),
            "one exact hit at 300 req/s, from its due time",
        ),
        setups.set_metric(
            &mut metrics,
            "64 pool scenarios solved into a fresh cache directory, service started on it",
        ),
        format!(
            "ok share {:.4}; queue peak {}",
            rung.ok_share(),
            rung.stats.queue_depth_peak
        ),
        late_note(&rung),
    ];
    Outcome {
        checks,
        attempted: rung.requests.len() as u64,
        failed: rung.failed(),
        metrics,
        repetitions: rung.requests.len(),
        notes,
    }
}

/// Spans of one rung, recorded after the fact from what the generator and
/// the responses measured: the request from its due time, the generator's
/// lateness, then admission (exact hit, inline) or queue wait and dispatch.
fn record_spans(trace: &Trace, rung: &Rung, rung_index: u64, began_s: f64) {
    for (i, r) in rung.requests.iter().enumerate() {
        let Ok(response) = &r.outcome else { continue };
        let id = rung_index * 1_000_000 + i as u64;
        let (due, sent, end) = (
            began_s + r.due_s,
            began_s + r.sent_s,
            began_s + r.due_s + r.latency_s,
        );
        let span = Some(trace.record("serve.request", due, end, None, id));
        trace.record("openloop.late", due, sent, span, id);
        if r.is_miss() {
            let dispatched = sent + response.queue_seconds;
            trace.record("serve.queue", sent, dispatched, span, id);
            trace.record("serve.dispatch", dispatched, end, span, id);
        } else {
            trace.record("serve.admit_exact", sent, end, span, id);
        }
    }
}

pub fn run_traced(ctx: &Ctx, trace: &Trace) -> Outcome {
    let mut checks = Checks::default();
    let mut metrics = MetricSet::per_layer();
    let mut notes = Vec::new();
    let mut rungs = Vec::new();
    // Half the run on the reference rung, a quarter on each of the others;
    // each rung on a fresh directory and service.
    for (index, share) in [0.5, 0.25, 0.25].into_iter().enumerate() {
        let served = start_service(ctx);
        let began_s = trace.now();
        let rung = run_rung(&served, ctx, index, ctx.seconds * share);
        record_spans(trace, &rung, index as u64, began_s);
        check_rung(&served, &rung, index == 0, &mut checks);
        metrics.set(&format!("serve.ok_share.{}", rung.label), rung.ok_share());
        metrics.set(
            &format!("serve.queue_depth_peak.{}", rung.label),
            rung.stats.queue_depth_peak as f64,
        );
        notes.push(format!(
            "{} ({} req/s, {} sent): ok share {:.4}, drained in time: {}, queue peak {}, rejected {} → {}",
            rung.label,
            rung.rate,
            rung.requests.len(),
            rung.ok_share(),
            rung.drained_in_time,
            rung.stats.queue_depth_peak,
            rung.stats.rejected_queue_full,
            if rung.ok() { "OK" } else { "not OK" }
        ));
        notes.push(late_note(&rung));
        rungs.push(rung);
    }
    let max_ok = rungs
        .iter()
        .filter(|r| r.ok())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    metrics.set("serve.max_ok_rps", max_ok);

    let reference = &rungs[0];
    let exact = reference.latencies(|r| !r.is_miss());
    let misses = reference.latencies(Resolved::is_miss);
    metrics.set("serve.exact_p50_us", percentile(&exact, 0.5) * 1e6);
    metrics.set("serve.miss_p50_ms", percentile(&misses, 0.5) * 1e3);
    metrics.set("serve.miss_p90_ms", percentile(&misses, 0.9) * 1e3);
    // The highest percentile that still has ten samples beyond it.
    if let Some(q) = tail_quantile(misses.len()) {
        metrics.set("serve.miss_tail_ms", percentile(&misses, q) * 1e3);
        metrics.set("serve.miss_tail_percentile", q * 100.0);
    }
    metrics.set("serve.gen_late_ms_max", reference.gen_late_max_s() * 1e3);

    let responses = |miss: bool| {
        reference
            .requests
            .iter()
            .filter(move |r| r.is_miss() == miss)
            .filter_map(|r| r.outcome.as_ref().ok().map(|response| (r, response)))
    };
    let exact_service: Vec<f64> = responses(false)
        .map(|(_, resp)| resp.total_seconds)
        .collect();
    metrics.set(
        "serve.exact_service_us_p50",
        stats::median(&exact_service) * 1e6,
    );
    let queue_waits: Vec<f64> = responses(true)
        .map(|(_, resp)| resp.queue_seconds)
        .collect();
    metrics.set("serve.queue_wait_ms_p50", stats::median(&queue_waits) * 1e3);
    metrics.set(
        "serve.batch_solve_ms_p50",
        reference.batch_solve_p50_s * 1e3,
    );
    let s = &reference.stats;
    metrics.set(
        "serve.batch_size_mean",
        s.dispatched_groups as f64 / s.dispatched_batches.max(1) as f64,
    );
    metrics.set("serve.coalesced", s.coalesced_waiters as f64);
    metrics.set("serve.rejected", s.rejected_queue_full as f64);
    metrics.set("serve.shed", (s.shed_waiters + s.shed_groups) as f64);

    // Where a miss's time goes, summed over the misses of the reference
    // rung: waiting (generator lateness + queue incl. linger), its own
    // solve, the durable deposits; the rest is waiting for batch-mates
    // and dispatch overhead.
    let total: f64 = responses(true).map(|(r, _)| r.latency_s).sum();
    let queue: f64 = responses(true)
        .map(|(r, resp)| r.late_s + resp.queue_seconds)
        .sum();
    let solve: f64 = responses(true)
        .map(|(_, resp)| resp.report.wall_seconds)
        .sum();
    let deposit = reference.deposit_total_s;
    metrics.set("serve.miss_queue_share", queue / total);
    metrics.set("serve.miss_solve_share", solve / total);
    metrics.set("serve.miss_deposit_share", deposit / total);
    metrics.set(
        "serve.miss_unattributed_share",
        1.0 - (queue + solve + deposit) / total,
    );
    metrics.set(
        "scenarios.deposit_share",
        deposit / (reference.requests.len() as f64 / reference.rate),
    );
    notes.push(format!(
        "reference rung, {} misses: queue {:.3} + solve {:.3} + deposit {:.3} of miss latency (deposit + queue designed ≥ 0.5, unattributed want ≤ 0.10)",
        misses.len(),
        queue / total,
        solve / total,
        deposit / total
    ));

    Outcome {
        checks,
        attempted: reference.requests.len() as u64,
        failed: reference.failed(),
        metrics,
        repetitions: reference.requests.len(),
        notes,
    }
}
