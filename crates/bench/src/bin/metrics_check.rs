//! CI validator for telemetry snapshots written by `--metrics-out`:
//! parses the JSON, checks the required instrument names for the
//! requested surface (`--sweep` for solve/cache metrics, `--serve` for
//! the serving front-end, `--gpu` for the device backend), and enforces
//! the admission identity
//!
//! ```text
//! submitted == exact_hits + enqueued_groups + coalesced_waiters
//!              + rejected_queue_full
//! ```
//!
//! (sheds happen after admission — a shed waiter was first enqueued or
//! coalesced — so they do not appear on the right-hand side).
//!
//! ```text
//! cargo run --release -p hddm-bench --bin metrics-check -- \
//!     metrics.json --serve [--print]
//! ```

use std::process::ExitCode;

use hddm_gpu::backend::metric;
use hddm_telemetry::Snapshot;

const SWEEP_COUNTERS: &[&str] = &[
    "hddm_cache_exact_hits_total",
    "hddm_cache_warm_hits_total",
    "hddm_cache_misses_total",
    "hddm_cache_disk_hits_total",
    "hddm_solve_oracle_blocks_total",
    "hddm_solve_oracle_points_total",
    "hddm_solve_residual_rows_total",
    "hddm_solve_jacobians_total",
    "hddm_solve_newton_iterations_total",
];
const SWEEP_GAUGES: &[&str] = &[
    "hddm_cache_entries",
    "hddm_cache_persisted_entries",
    "hddm_cache_persisted_bytes",
    "hddm_cache_evictions",
    "hddm_cache_skipped",
    "hddm_cache_lock_poisonings",
    "hddm_cache_concurrent_restores_peak",
];
const SWEEP_HISTOGRAMS: &[&str] = &[
    "hddm_solve_policy_update_seconds",
    "hddm_solve_hierarchize_seconds",
    "hddm_solve_compress_seconds",
    "hddm_solve_scenario_seconds",
    "hddm_cache_deposit_seconds",
];
const SERVE_COUNTERS: &[&str] = &[
    "hddm_serve_submitted_total",
    "hddm_serve_exact_hits_total",
    "hddm_serve_enqueued_groups_total",
    "hddm_serve_coalesced_waiters_total",
    "hddm_serve_rejected_queue_full_total",
    "hddm_serve_shed_waiters_total",
    "hddm_serve_shed_groups_total",
    "hddm_serve_dispatched_batches_total",
    "hddm_serve_dispatched_groups_total",
];
const SERVE_GAUGES: &[&str] = &["hddm_serve_queue_depth", "hddm_serve_queue_depth_peak"];
const SERVE_HISTOGRAMS: &[&str] = &[
    "hddm_serve_exact_hit_seconds",
    "hddm_serve_warm_hint_seconds",
    "hddm_serve_queue_wait_seconds",
    "hddm_serve_batch_solve_seconds",
];
// Shared with the emitter (`hddm_gpu::backend::metric`) so the required
// list cannot drift from what the engine actually registers.
const GPU_COUNTERS: &[&str] = &[
    metric::LAUNCHES,
    metric::UPLOADS,
    metric::POOL_HITS,
    metric::POOL_EVICTIONS,
];
const GPU_GAUGES: &[&str] = &[metric::OCCUPANCY, metric::POOL_RESIDENT_BYTES];
const GPU_HISTOGRAMS: &[&str] = &[metric::UPLOAD_SECONDS, metric::KERNEL_SECONDS];

struct Args {
    path: String,
    sweep: bool,
    serve: bool,
    gpu: bool,
    print: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut path = None;
    let mut sweep = false;
    let mut serve = false;
    let mut gpu = false;
    let mut print = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--sweep" => sweep = true,
            "--serve" => serve = true,
            "--gpu" => gpu = true,
            "--print" => print = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("exactly one snapshot path expected".into());
                }
            }
        }
    }
    Ok(Args {
        path: path
            .ok_or("usage: metrics-check <snapshot.json> [--sweep] [--serve] [--gpu] [--print]")?,
        sweep,
        serve,
        gpu,
        print,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("metrics-check: all checks passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("metrics-check: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let raw =
        std::fs::read_to_string(&args.path).map_err(|e| format!("read {}: {e}", args.path))?;
    let snapshot = Snapshot::from_json(&raw)
        .map_err(|e| format!("{} is not a valid snapshot: {e}", args.path))?;
    // Well-formedness: the snapshot must round-trip bit-identically
    // through the JSON exporter, and must not be empty.
    if snapshot.counters.is_empty() && snapshot.gauges.is_empty() && snapshot.histograms.is_empty()
    {
        return Err("snapshot holds no instruments".into());
    }
    let reencoded = Snapshot::from_json(&snapshot.to_json())
        .map_err(|e| format!("snapshot does not round-trip: {e}"))?;
    if reencoded != snapshot {
        return Err("snapshot JSON round trip is not identity".into());
    }

    let mut missing: Vec<&str> = Vec::new();
    let mut require = |names: &'static [&'static str], kind: &str| {
        for &name in names {
            let found = match kind {
                "counter" => snapshot.counter(name).is_some(),
                "gauge" => snapshot.gauge(name).is_some(),
                _ => snapshot.histogram(name).is_some(),
            };
            if !found {
                missing.push(name);
            }
        }
    };
    if args.sweep {
        require(SWEEP_COUNTERS, "counter");
        require(SWEEP_GAUGES, "gauge");
        require(SWEEP_HISTOGRAMS, "histogram");
    }
    if args.serve {
        require(SERVE_COUNTERS, "counter");
        require(SERVE_GAUGES, "gauge");
        require(SERVE_HISTOGRAMS, "histogram");
    }
    if args.gpu {
        require(GPU_COUNTERS, "counter");
        require(GPU_GAUGES, "gauge");
        require(GPU_HISTOGRAMS, "histogram");
    }
    if !missing.is_empty() {
        return Err(format!("missing instruments: {missing:?}"));
    }

    if args.serve {
        let c = |name: &str| snapshot.counter(name).unwrap_or(0);
        let submitted = c("hddm_serve_submitted_total");
        let accounted = c("hddm_serve_exact_hits_total")
            + c("hddm_serve_enqueued_groups_total")
            + c("hddm_serve_coalesced_waiters_total")
            + c("hddm_serve_rejected_queue_full_total");
        if submitted != accounted {
            return Err(format!(
                "admission identity violated: submitted {submitted} != exact + enqueued \
                 + coalesced + rejected = {accounted}"
            ));
        }
        println!(
            "metrics-check: admission identity holds ({submitted} submitted == {accounted} \
             accounted)"
        );
    }

    if args.gpu {
        let c = |name: &str| snapshot.counter(name).unwrap_or(0);
        // Every evicted surface was first uploaded, so evictions can
        // never outrun uploads; and a launch implies its surface went
        // through the pool (upload or hit).
        let uploads = c(metric::UPLOADS);
        let evictions = c(metric::POOL_EVICTIONS);
        if evictions > uploads {
            return Err(format!(
                "gpu pool identity violated: {evictions} evictions > {uploads} uploads"
            ));
        }
        let launches = c(metric::LAUNCHES);
        let residency = uploads + c(metric::POOL_HITS);
        if launches > 0 && residency == 0 {
            return Err(format!(
                "gpu pool identity violated: {launches} launches with no residency events"
            ));
        }
        println!(
            "metrics-check: gpu identities hold ({launches} launches, {uploads} uploads, \
             {evictions} evictions)"
        );
    }

    if args.print {
        print!("{}", snapshot.text_exposition());
    }
    println!(
        "metrics-check: {} counters, {} gauges, {} histograms in {}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        args.path
    );
    Ok(())
}
