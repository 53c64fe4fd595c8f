//! The cache's crash contract, checked by killing a process mid-commit.
//!
//! The test re-runs its own binary as a child process. The child solves a
//! scenario set into a cache directory — each converged surface deposited
//! through the write-behind commit stage — and then re-deposits those
//! surfaces without end, so the stage is always writing, fsyncing or
//! renaming. The parent kills it (`SIGKILL`, no unwinding) at several
//! points and then asserts on what is on disk, never on timing:
//!
//! * every record left is complete: opening the directory removes no
//!   damaged record, and each one decodes in full under its own name;
//! * no `.tmp-*` file survives the open;
//! * re-running the set solves again exactly the scenarios whose record is
//!   missing — a lost deposit costs one re-solve — and serves the rest as
//!   exact hits.

#![cfg(unix)]

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hddm_olg::Calibration;
use hddm_scenarios::{
    fingerprint, persist, run_batch, run_set, scenario_hash, CacheKind, ExecutorConfig, Knob,
    Scenario, ScenarioSet, ShapeKey, SurfaceCache,
};

const CHILD: &str = "deposit_stream_child";

/// The cache directory a parent process with id `pid` kills its children
/// over, and the directory the child marks its progress in.
fn crash_dirs(pid: u32) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("hddm_crash_test_{pid}"));
    let marks = dir.with_extension("marks");
    (dir, marks)
}

fn set() -> ScenarioSet {
    let mut base = Scenario::from_calibration("crash", Calibration::small(4, 3, 2, 0.03));
    base.solve.tolerance = 1e-6;
    base.solve.max_steps = 50;
    ScenarioSet::grid(&base, &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])]).unwrap()
}

/// The child: solve the set, marking each deposit as it is handed back
/// (its commit may still be queued), then re-deposit the surfaces until
/// killed. It does nothing unless its parent made the directories, so
/// running the ignored tests by hand cannot start an endless stream.
#[test]
#[ignore = "the child process of a_kill_mid_commit_loses_deposits_never_records"]
fn deposit_stream_child() {
    let (dir, marks) = crash_dirs(std::os::unix::process::parent_id());
    if !marks.is_dir() {
        return;
    }
    let set = set();
    let cache = SurfaceCache::open(&dir).unwrap();
    let deposited = AtomicUsize::new(0);
    run_batch(&set, &cache, &ExecutorConfig::serial(), |_, report| {
        report.unwrap();
        let n = deposited.fetch_add(1, Ordering::Relaxed) + 1;
        fs::write(marks.join(format!("deposited-{n}")), b"").unwrap();
    })
    .unwrap();
    let surfaces: Vec<_> = set
        .scenarios
        .iter()
        .map(|s| {
            cache
                .lookup_exact(scenario_hash(s), ShapeKey::of(s), &fingerprint(s))
                .unwrap()
        })
        .collect();
    fs::write(marks.join("streaming"), b"").unwrap();
    loop {
        for s in &surfaces {
            cache.store_policy(
                s.hash,
                s.shape,
                s.fingerprint.clone(),
                s.restore_policy(),
                s.steps,
                s.final_sup_change,
                s.cost_seconds,
            );
        }
    }
}

#[test]
fn a_kill_mid_commit_loses_deposits_never_records() {
    let (dir, marks) = crash_dirs(std::process::id());
    let set = set();
    // Kill the child as soon as it marks: at once, after its n-th
    // deposit, or into the stream of re-deposits (the last kill lets the
    // stream run a little first).
    let kills = [
        None,
        Some("deposited-1"),
        Some("deposited-2"),
        Some("deposited-3"),
        Some("deposited-4"),
        Some("streaming"),
        Some("streaming"),
    ];
    for (attempt, mark) in kills.into_iter().enumerate() {
        for d in [&dir, &marks] {
            let _ = fs::remove_dir_all(d);
        }
        fs::create_dir_all(&marks).unwrap();
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args([CHILD, "--exact", "--ignored", "--test-threads=1"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        if let Some(mark) = mark {
            let give_up = Instant::now() + Duration::from_secs(120);
            while !marks.join(mark).exists() {
                assert!(Instant::now() < give_up, "the child never marked {mark}");
                assert!(child.try_wait().unwrap().is_none(), "the child exited");
                std::thread::sleep(Duration::from_millis(1));
            }
            if attempt == kills.len() - 1 {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        child.kill().unwrap();
        child.wait().unwrap();
        if !dir.is_dir() {
            continue; // killed before it made its cache directory
        }

        let cache = SurfaceCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.skipped, 0, "a torn or damaged record was found");
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(
            names.iter().all(|n| !n.starts_with(".tmp-")),
            "a temp file survived the open: {names:?}"
        );
        let committed: Vec<bool> = set
            .scenarios
            .iter()
            .map(|s| {
                let name = persist::surface_file_name(scenario_hash(s));
                let present = names.contains(&name);
                if present {
                    let bytes = fs::read(dir.join(&name)).unwrap();
                    let surface = persist::decode_record(&bytes).unwrap();
                    assert_eq!(surface.hash, scenario_hash(s));
                    assert_eq!(persist::encode_record(&surface), bytes);
                }
                present
            })
            .collect();
        assert_eq!(names.len(), committed.iter().filter(|&&c| c).count());
        assert_eq!(stats.persisted_entries, names.len());

        let rerun = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
        for (report, was_committed) in rerun.scenarios.iter().zip(&committed) {
            assert_eq!(
                report.cache == CacheKind::Exact,
                *was_committed,
                "{}: {:?} with its record {}",
                report.name,
                report.cache,
                if *was_committed { "on disk" } else { "lost" }
            );
        }
    }
    for d in [&dir, &marks] {
        let _ = fs::remove_dir_all(d);
    }
}
