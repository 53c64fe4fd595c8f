//! The repo's benchmark of record. One command runs a workload, checks
//! that the program's outputs are correct and prints every metric by name
//! with its unit; see README.md for the workloads, the metric glossary
//! and the noise protocol. Paths are relative to the working directory
//! (the repository root).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --seed <u64> [--workload <name>|all] [--seconds <n>] [--trace 0|1] \
//!     [--smoke] [--work-dir <dir>] [--out <file>]
//! ```
//!
//! The last line a workload prints is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `all` runs each workload in a process of its own, so that
//! `peak_rss_mb` is that workload's.

mod gen;
mod host;
mod interp;
mod metrics;
mod openloop;
mod run;
mod serve_mixed;
mod solve_cold;
mod stats;
mod sweep_warm;
mod trace;
mod traced_step;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use host::Host;
use run::{Ctx, Outcome};
use trace::Trace;

/// The workloads: first the three `BENCHMARK.json` lists, in its order, then
/// the one it does not.
pub const WORKLOADS: [&str; 4] = ["solve_cold", "sweep_warm", "interp_stream", "serve_mixed"];

/// Runs and reports like the others, but is held to no bound and so is not
/// in `BENCHMARK.json`: a served miss ends in four fsyncs, and on the host
/// this was built on the disk made the median miss of ten identical runs
/// spread by 0.39 of itself, more than the largest bound the benchmark
/// contract allows (README, "The workload without a bound").
pub const UNBOUNDED_WORKLOAD: &str = "serve_mixed";

/// Where the spans of a `--trace 1` run are written.
const TRACE_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    work_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        smoke: false,
        work_dir: "benchmark/work".into(),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!(
                        "--seconds must lie in (0, 600], got {}",
                        args.seconds
                    ));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--work-dir" => args.work_dir = value()?.into(),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?} or \"all\"",
            args.workload
        ));
    }
    if args.smoke {
        args.seconds = args.seconds.min(1.0);
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx, trace: Option<&Trace>) -> Outcome {
    match (name, trace) {
        ("solve_cold", None) => solve_cold::run(ctx),
        ("solve_cold", Some(t)) => solve_cold::run_traced(ctx, t),
        ("sweep_warm", None) => sweep_warm::run(ctx),
        ("sweep_warm", Some(t)) => sweep_warm::run_traced(ctx, t),
        ("serve_mixed", None) => serve_mixed::run(ctx),
        ("serve_mixed", Some(t)) => serve_mixed::run_traced(ctx, t),
        ("interp_stream", None) => interp::run(ctx),
        ("interp_stream", Some(t)) => interp::run_traced(ctx, t),
        _ => unreachable!("workload names are validated at the door"),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(correct: bool, outcome: &Outcome, values: &[(metrics::Decl, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_string(d.name),
                json_string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    )
}

/// Runs one workload, prints its report, and returns the result line and
/// whether the run is correct.
fn report(name: &str, args: &Args, host: &Host) -> Result<(String, bool), String> {
    let began = Instant::now();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        work_dir: args.work_dir.clone(),
    };
    let trace = args.traced.then(Trace::new);
    let mut outcome = run_workload(name, &ctx, trace.as_ref());
    if !args.traced {
        outcome.metrics.set("peak_rss_mb", host::peak_rss_mb()?);
    }
    if let Some(trace) = &trace {
        let path = PathBuf::from(format!("{TRACE_DIR}/trace-{name}.json"));
        trace
            .write(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.notes.push(format!(
            "{} spans written to {}",
            trace.spans().len(),
            path.display()
        ));
    }
    let values = outcome.metrics.finish();
    let wall = began.elapsed().as_secs_f64();

    let mode = if args.traced {
        "traced (per-layer)"
    } else {
        "untraced (end-to-end)"
    };
    println!(
        "== {name} · {mode} · seed {} · {} s ==",
        args.seed, args.seconds
    );
    println!(
        "host: {} × {} · L2 {} · L3 {} · {} · work dir on {} · {} · commit {}",
        host.nproc,
        host.cpu_model,
        host.l2,
        host.l3,
        host.isa,
        host.work_dir_fs,
        host.rustc,
        host.git_commit
    );
    if name == UNBOUNDED_WORKLOAD {
        println!("  held to no bound and not in BENCHMARK.json: the disk decides most of a miss");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    let checks = &outcome.checks;
    println!(
        "  checks: {} passed, {} failed; operations: {} attempted, {} failed; repetitions: {}; run wall {wall:.2} s",
        checks.passed,
        checks.failures.len(),
        outcome.attempted,
        outcome.failed,
        outcome.repetitions
    );
    for failure in &checks.failures {
        println!("  CHECK FAILED: {failure}");
    }
    let values = values?;
    for (d, v) in &values {
        println!("  {:<40} {v:>16.6} {}", d.name, d.unit);
    }
    let correct = checks.failures.is_empty();
    let line = result_json(correct, &outcome, &values);
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"workload\":{},\"traced\":{},\"seed\":{},\"seconds\":{},\"repetitions\":{},\"run_wall_s\":{wall},\"host\":{{{}}},\"result\":{line}}}\n",
            json_string(name),
            args.traced,
            args.seed,
            args.seconds,
            outcome.repetitions,
            host.json_fields(),
        );
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok((line, correct))
}

/// The arguments of the child process that runs `workload` for an `all`
/// run: the same run, one workload, an `--out` file of its own.
fn child_args(args: &Args, workload: &str) -> Vec<String> {
    let mut argv = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(args.traced).to_string(),
        "--work-dir".to_string(),
        args.work_dir.display().to_string(),
    ];
    if args.smoke {
        argv.push("--smoke".to_string());
    }
    if let Some(path) = &args.out {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
        let path = path.with_file_name(format!("{stem}-{workload}.json"));
        argv.extend(["--out".to_string(), path.display().to_string()]);
    }
    argv
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("hddm-benchmark: cannot find this program to run it again: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for name in WORKLOADS {
        match Command::new(&exe).args(child_args(args, name)).status() {
            Ok(status) => all_ok &= status.success(),
            Err(e) => {
                eprintln!("hddm-benchmark: {name}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hddm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("hddm-benchmark: work dir {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let host = Host::describe(&args.work_dir);
    let name = args.workload.as_str();
    let correct = match report(name, &args, &host) {
        Ok((line, correct)) => {
            println!("{line}");
            correct
        }
        Err(e) => {
            eprintln!("hddm-benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Cache directories are removed by the workloads; the work directory
    // itself goes too when this run leaves it empty.
    let _ = std::fs::remove_dir(&args.work_dir);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_all_run_gives_every_workload_a_process_of_its_own() {
        let args = Args {
            workload: "all".into(),
            seed: 42,
            seconds: 7.5,
            traced: true,
            smoke: true,
            work_dir: "w/dir".into(),
            out: Some("o/run.json".into()),
        };
        for name in WORKLOADS {
            let argv = child_args(&args, name);
            let value_of = |flag: &str| {
                let at = argv.iter().position(|a| a == flag).expect(flag);
                argv[at + 1].as_str()
            };
            // One workload, never `all` again, and the same run otherwise.
            assert_eq!(value_of("--workload"), name);
            assert_eq!(argv.iter().filter(|a| *a == "--workload").count(), 1);
            assert_eq!(value_of("--seed"), "42");
            assert_eq!(value_of("--seconds"), "7.5");
            assert_eq!(value_of("--trace"), "1");
            assert_eq!(value_of("--work-dir"), "w/dir");
            assert_eq!(value_of("--out"), format!("o/run-{name}.json"));
            assert!(argv.contains(&"--smoke".to_string()));
        }
    }
}
