//! Scenario-engine demo: run a batched multi-calibration sweep on
//! `--threads` host workers with the compressed policy-surface cache,
//! and demonstrate the cache-assisted warm-start win against a
//! cold solve of the same scenario.
//!
//! ```text
//! cargo run --release -p hddm-bench --bin scenarios -- --demo
//! cargo run --release -p hddm-bench --bin scenarios -- --demo \
//!     --lifespan 6 --work-years 4 --mc 8 --threads 4 --json sweep.json
//! # Persistent cache: the second run restores every surface from disk
//! # and performs zero time-iteration steps.
//! cargo run --release -p hddm-bench --bin scenarios -- --demo --cache-dir /tmp/hddm-cache
//! cargo run --release -p hddm-bench --bin scenarios -- --demo --cache-dir /tmp/hddm-cache \
//!     --expect-all-exact
//! ```
//!
//! Exits non-zero if any scenario fails to converge, or — with
//! `--expect-all-exact` — if any scenario was not served as a zero-step
//! exact cache hit (the CI smoke contract for the persistent cache).
//!
//! `--backend gpu` has one simulated device observe and price every
//! block the sweep's drivers evaluate (one engine across the sweep,
//! registered on the cache's telemetry registry —
//! `--metrics-out` snapshots then carry the `hddm_gpu_*` and
//! `hddm_model_gpu_*` instruments). Values equal `--backend cpu`'s.

use std::process::ExitCode;

use hddm_gpu::GpuEngine;
use hddm_scenarios::{
    run_set, run_single, CacheKind, EvictionPolicy, ExecutorConfig, Knob, ScenarioSet, SurfaceCache,
};

struct Args {
    lifespan: usize,
    work_years: usize,
    monte_carlo: usize,
    threads: usize,
    json: Option<String>,
    cache_dir: Option<String>,
    cache_max_entries: Option<usize>,
    cache_max_bytes: Option<u64>,
    expect_all_exact: bool,
    metrics_out: Option<String>,
    gpu: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        lifespan: 5,
        work_years: 3,
        monte_carlo: 0,
        threads: 1,
        json: None,
        cache_dir: None,
        cache_max_entries: None,
        cache_max_bytes: None,
        expect_all_exact: false,
        metrics_out: None,
        gpu: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--demo" => {} // the default (and only) workload
            "--lifespan" => {
                args.lifespan = value("--lifespan")?
                    .parse()
                    .map_err(|e| format!("--lifespan: {e}"))?
            }
            "--work-years" => {
                args.work_years = value("--work-years")?
                    .parse()
                    .map_err(|e| format!("--work-years: {e}"))?
            }
            "--mc" => {
                args.monte_carlo = value("--mc")?.parse().map_err(|e| format!("--mc: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--json" => args.json = Some(value("--json")?),
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--cache-max-entries" => {
                args.cache_max_entries = Some(
                    value("--cache-max-entries")?
                        .parse()
                        .map_err(|e| format!("--cache-max-entries: {e}"))?,
                )
            }
            "--cache-max-bytes" => {
                args.cache_max_bytes = Some(
                    value("--cache-max-bytes")?
                        .parse()
                        .map_err(|e| format!("--cache-max-bytes: {e}"))?,
                )
            }
            "--expect-all-exact" => args.expect_all_exact = true,
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--backend" => match value("--backend")?.as_str() {
                "cpu" => args.gpu = false,
                "gpu" => args.gpu = true,
                other => return Err(format!("--backend takes cpu or gpu, not {other:?}")),
            },
            other => return Err(format!("unknown flag {other:?} (try --demo)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The demo sweep: a 4×4 β×δ grid, optionally extended with seeded
    // Monte-Carlo draws around the grid's base point.
    let mut set = match ScenarioSet::demo(args.lifespan, args.work_years) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("scenarios: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.monte_carlo > 0 {
        let extra = ScenarioSet::monte_carlo(
            &set.scenarios[0],
            args.monte_carlo,
            0xD1CE,
            &[(Knob::Beta, 0.004), (Knob::ProductivityScale, 0.01)],
        )
        .expect("monte carlo jitter is admissible");
        set.scenarios.extend(extra.scenarios);
    }

    let mut config = ExecutorConfig {
        threads: args.threads,
        cache_dir: args.cache_dir.as_ref().map(std::path::PathBuf::from),
        cache_eviction: EvictionPolicy {
            max_entries: args.cache_max_entries,
            max_bytes: args.cache_max_bytes,
        },
        ..ExecutorConfig::serial()
    };
    let cache = match config.open_cache() {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("scenarios: failed to open cache: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.gpu {
        // One engine (device + launch options) shared by every scenario,
        // instrumented on the same registry the sweep snapshots.
        config.backend = GpuEngine::with_registry(cache.registry()).into();
    }

    println!(
        "Scenario sweep: {} scenarios (lifespan {}, work years {}), {} host thread(s)\n",
        set.len(),
        args.lifespan,
        args.work_years,
        args.threads
    );
    if let Some(dir) = &args.cache_dir {
        let stats = cache.stats();
        println!(
            "persistent cache at {dir}: {} surface(s) indexed, {} byte(s)\n",
            stats.persisted_entries, stats.persisted_bytes
        );
    }
    let report = match run_set(&set, &cache, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scenarios: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "  {:<28} {:>5} {:>6} {:>10} {:>7} {:>9}",
        "scenario", "cache", "steps", "sup change", "points", "wall [ms]"
    );
    for s in &report.scenarios {
        println!(
            "  {:<28} {:>5} {:>6} {:>10.2e} {:>7} {:>9.2}",
            s.name.trim_start_matches("demo/"),
            s.cache,
            s.steps,
            s.final_sup_change,
            s.grid_points,
            s.wall_seconds * 1e3
        );
    }

    println!(
        "\ncache: {} cold / {} warm / {} exact; total wall {:.3} s",
        report.cold_solves, report.warm_starts, report.exact_hits, report.total_wall_seconds
    );
    if args.cache_dir.is_some() {
        let s = &report.cache_stats;
        println!(
            "persistent cache: {} surface(s) on disk ({} bytes), {} disk hit(s), \
             {} miss(es), {} eviction(s), {} skipped artifact(s)",
            s.persisted_entries, s.persisted_bytes, s.disk_hits, s.misses, s.evictions, s.skipped
        );
    }

    // Warm-start demonstration: re-solve one warm-started scenario cold.
    if let Some(warm) = report.scenarios.iter().find(|s| s.cache == CacheKind::Warm) {
        let scenario = set
            .scenarios
            .iter()
            .find(|s| s.name == warm.name)
            .expect("warm scenario is in the set");
        match run_single(scenario, &SurfaceCache::default(), &config) {
            Ok(cold) if warm.steps < cold.steps => println!(
                "warm-start win: {:?} solved in {} steps warm vs {} steps cold",
                warm.name, warm.steps, cold.steps
            ),
            Ok(cold) => println!(
                "warm start of {:?}: {} steps vs {} cold (no win this draw; \
                 concurrent sweeps pick timing-dependent warm sources)",
                warm.name, warm.steps, cold.steps
            ),
            Err(e) => eprintln!("cold re-solve failed: {e}"),
        }
    }

    if let Some(path) = &args.metrics_out {
        // The sweep routed its solves through the cache's registry, so
        // the snapshot carries both cache traffic and driver phase spans.
        let snapshot = cache.registry().snapshot();
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("scenarios: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics snapshot written to {path}");
    }

    if let Some(path) = &args.json {
        if let Err(e) = report.save(path) {
            eprintln!("scenarios: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }

    if args.expect_all_exact {
        let solved: Vec<&str> = report
            .scenarios
            .iter()
            .filter(|s| s.cache != CacheKind::Exact || s.steps != 0)
            .map(|s| s.name.as_str())
            .collect();
        if !solved.is_empty() {
            eprintln!(
                "scenarios: --expect-all-exact violated: {} of {} scenarios were \
                 not zero-step exact cache hits: {solved:?}",
                solved.len(),
                report.scenarios.len()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "persistent-cache contract holds: all {} scenarios served as zero-step \
             exact hits",
            report.scenarios.len()
        );
    }

    if !report.all_converged() {
        let failed: Vec<&str> = report
            .scenarios
            .iter()
            .filter(|s| !s.converged)
            .map(|s| s.name.as_str())
            .collect();
        eprintln!("scenarios: NON-CONVERGED: {failed:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
