//! Acceptance tests of the persistent policy-surface store: a sweep run
//! with a cache directory followed by an identical rerun through a
//! *fresh* cache (the new-process situation) performs zero
//! time-iteration steps — every surface is an exact hit lazily restored
//! from disk — and the eviction policy provably bounds the directory to
//! the configured maximum, oldest mtime first across a reopen. The record
//! files are the index: corrupt, misnamed and version-mismatched records
//! are removed with a warning, never a panic, and never followed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime};

use hddm_kernels::KernelKind;
use hddm_olg::{Calibration, PolicyOracle};
use hddm_scenarios::{
    persist, run_set, run_single, CacheKind, EvictionPolicy, ExecutorConfig, Knob, Lookup,
    Scenario, ScenarioSet, SurfaceCache,
};

/// A fresh, collision-free temp directory per test invocation.
fn temp_cache_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hddm_persist_test_{}_{tag}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn base_scenario() -> Scenario {
    let mut s = Scenario::from_calibration("persist", Calibration::small(4, 3, 2, 0.03));
    s.solve.tolerance = 1e-6;
    s.solve.max_steps = 50;
    s
}

/// Probes every discrete state of both surfaces at `points` and asserts
/// bitwise-equal policy evaluations.
fn assert_policies_bitwise_equal(
    a: &hddm_scenarios::CachedSurface,
    b: &hddm_scenarios::CachedSurface,
    points: &[Vec<f64>],
) {
    let pa = a.restore_policy();
    let pb = b.restore_policy();
    let mut oa = pa.oracle(KernelKind::X86);
    let mut ob = pb.oracle(KernelKind::X86);
    let ndofs = a.shape.ndofs;
    let mut ra = vec![0.0; ndofs];
    let mut rb = vec![0.0; ndofs];
    for z in 0..a.shape.num_states {
        for x in points {
            oa.eval(z, x, &mut ra);
            ob.eval(z, x, &mut rb);
            for (va, vb) in ra.iter().zip(&rb) {
                assert_eq!(va.to_bits(), vb.to_bits(), "state {z}, point {x:?}");
            }
        }
    }
}

#[test]
fn surfaces_roundtrip_through_a_reopened_directory_bitwise() {
    let dir = temp_cache_dir("roundtrip");
    let scenario = base_scenario();

    // Solve once into a persistent cache.
    let first = SurfaceCache::open(&dir).unwrap();
    let report = run_single(&scenario, &first, &ExecutorConfig::serial()).unwrap();
    assert!(report.converged);
    assert_eq!(report.cache, CacheKind::Cold);
    let hash = report.hash.0;
    let Lookup::Exact(original) = first.lookup(
        hash,
        original_shape(&scenario),
        &hddm_scenarios::fingerprint(&scenario),
        false,
    ) else {
        panic!("stored surface must be an exact hit in its own cache");
    };

    // The directory now holds one record file and nothing else.
    assert_eq!(listing(&dir), [persist::surface_file_name(hash)]);

    // Reopen in a *fresh* cache (the new-process situation): the exact
    // hit is lazily restored from disk and bitwise identical.
    let reopened = SurfaceCache::open(&dir).unwrap();
    let stats = reopened.stats();
    assert_eq!(stats.entries, 0, "surfaces must be restored lazily");
    assert_eq!(stats.persisted_entries, 1);
    let Lookup::Exact(restored) = reopened.lookup(
        hash,
        original_shape(&scenario),
        &hddm_scenarios::fingerprint(&scenario),
        false,
    ) else {
        panic!("persisted surface must be an exact hit after reopening");
    };
    assert_eq!(reopened.stats().disk_hits, 1);
    let probes = box_probes(&original);
    assert_policies_bitwise_equal(&original, &restored, &probes);

    // And the executor path serves it with zero solver steps.
    let again = run_single(&scenario, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(again.cache, CacheKind::Exact);
    assert_eq!(again.steps, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// The lower corner and the centre of the box a surface was solved on.
fn box_probes(surface: &hddm_scenarios::CachedSurface) -> Vec<Vec<f64>> {
    let domain = &surface.restore_policy().domain;
    let centre = domain
        .lo()
        .iter()
        .zip(domain.hi())
        .map(|(lo, hi)| 0.5 * (lo + hi));
    vec![domain.lo().to_vec(), centre.collect()]
}

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn original_shape(s: &Scenario) -> hddm_scenarios::ShapeKey {
    hddm_scenarios::ShapeKey {
        dim: s.calibration.dim(),
        ndofs: s.calibration.ndofs(),
        num_states: s.calibration.num_states(),
    }
}

#[test]
fn rerunning_a_sweep_through_a_fresh_cache_does_zero_solves() {
    let dir = temp_cache_dir("sweep");
    let set = ScenarioSet::grid(
        &base_scenario(),
        &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])],
    )
    .unwrap();

    let first_cache = SurfaceCache::open(&dir).unwrap();
    let first = run_set(&set, &first_cache, &ExecutorConfig::serial()).unwrap();
    assert!(first.all_converged());
    assert_eq!(first.cache_stats.persisted_entries, set.len());

    // Fresh cache over the same directory — exactly what a new process
    // sees. Every scenario must be a zero-step exact hit from disk.
    let second_cache = SurfaceCache::open(&dir).unwrap();
    let second = run_set(&set, &second_cache, &ExecutorConfig::serial()).unwrap();
    assert_eq!(second.exact_hits, set.len(), "every scenario exact");
    assert_eq!(second.cold_solves, 0);
    assert_eq!(second.warm_starts, 0);
    assert!(
        second.scenarios.iter().all(|s| s.steps == 0),
        "zero time-iteration steps on the rerun"
    );
    assert_eq!(second.cache_stats.disk_hits, set.len());

    // Measured costs also survive the restart: a third fresh cache over
    // the directory serves them from the index its open built, no policy
    // body decoded (the probe would return None without the persisted
    // index).
    let third_cache = SurfaceCache::open(&dir).unwrap();
    for scenario in &set.scenarios {
        let near = third_cache.nearest_neighbour(
            original_shape(scenario),
            &hddm_scenarios::fingerprint(scenario),
        );
        assert!(
            near.is_some_and(|n| n.cost_seconds > 0.0),
            "persisted cost missing for {:?}",
            scenario.name
        );
    }
    assert_eq!(third_cache.stats().entries, 0, "no record file was loaded");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_files_are_skipped_without_a_panic() {
    let dir = temp_cache_dir("corrupt");
    let scenario = base_scenario();
    let cache = SurfaceCache::open(&dir).unwrap();
    let report = run_single(&scenario, &cache, &ExecutorConfig::serial()).unwrap();
    let hash = report.hash.0;
    drop(cache);

    // Simulated torn write: truncate the binary record mid-payload —
    // exactly what a crash between write and fsync could leave behind.
    // Silent bit rot: flip one payload byte, so the length and structure
    // stay plausible and only the checksummed header catches it. A record
    // truncated to *zero* bytes (crash after create, before any write
    // reached disk). Each is removed at open, counted, and re-solved.
    let record = dir.join(persist::surface_file_name(hash));
    let damages: [fn(&mut Vec<u8>); 3] = [
        |b| b.truncate(b.len() / 2),
        |b| *b.last_mut().unwrap() ^= 0x01,
        |b| b.clear(),
    ];
    for damage in damages {
        let mut bytes = fs::read(&record).unwrap();
        damage(&mut bytes);
        fs::write(&record, &bytes).unwrap();

        let reopened = SurfaceCache::open(&dir).unwrap();
        let stats = reopened.stats();
        assert_eq!((stats.persisted_entries, stats.skipped), (0, 1));
        assert!(!record.exists(), "the damaged record is removed at open");
        let report = run_single(&scenario, &reopened, &ExecutorConfig::serial()).unwrap();
        assert_eq!(report.cache, CacheKind::Cold, "corrupt entry must not hit");
        // The re-solve re-deposited a good copy.
        assert_eq!(reopened.stats().persisted_entries, 1);
        let served = run_single(
            &scenario,
            &SurfaceCache::open(&dir).unwrap(),
            &ExecutorConfig::serial(),
        )
        .unwrap();
        assert_eq!(served.cache, CacheKind::Exact);
    }

    // Damage *after* open: the index row is already built, so the first
    // hit's full decode catches it, and the lazy discard drops the row and
    // the file (warning, not panic) before the scenario re-solves.
    let opened = SurfaceCache::open(&dir).unwrap();
    assert_eq!(opened.stats().persisted_entries, 1);
    let mut bytes = fs::read(&record).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    fs::write(&record, &bytes).unwrap();
    let report = run_single(&scenario, &opened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(report.cache, CacheKind::Cold, "corrupt entry must not hit");
    let stats = opened.stats();
    assert_eq!((stats.skipped, stats.disk_hits), (1, 0));
    assert_eq!(stats.persisted_entries, 1, "re-deposited");
    let served = run_single(
        &scenario,
        &SurfaceCache::open(&dir).unwrap(),
        &ExecutorConfig::serial(),
    )
    .unwrap();
    assert_eq!(served.cache, CacheKind::Exact);

    let _ = fs::remove_dir_all(&dir);
}

/// The acceptance property of the record format: encoding and decoding
/// a surface reproduces it bit for bit.
#[test]
fn records_roundtrip_bitwise() {
    let scenario = base_scenario();
    let cache = SurfaceCache::default();
    let hash = run_single(&scenario, &cache, &ExecutorConfig::serial())
        .unwrap()
        .hash
        .0;
    let Lookup::Exact(original) = cache.lookup(
        hash,
        original_shape(&scenario),
        &hddm_scenarios::fingerprint(&scenario),
        false,
    ) else {
        panic!("stored surface must be an exact hit in its own cache");
    };

    let encoded = persist::encode_record(&original);
    let restored = persist::decode_record(&encoded).unwrap();

    let probes = box_probes(&original);
    assert_eq!(restored.hash, original.hash);
    assert_eq!(restored.shape, original.shape);
    assert_eq!(restored.steps, original.steps);
    assert_eq!(
        restored.final_sup_change.to_bits(),
        original.final_sup_change.to_bits()
    );
    assert_policies_bitwise_equal(&original, &restored, &probes);
    // Array-level bitwise agreement with the encoded surface.
    let (restored, original) = (restored.restore_policy(), original.restore_policy());
    assert_eq!(restored.domain.lo(), original.domain.lo());
    assert_eq!(restored.domain.hi(), original.domain.hi());
    for z in 0..original.states.num_states() {
        let (a, b) = (restored.states.state(z), original.states.state(z));
        assert_eq!(a.grid.xps(), b.grid.xps());
        assert_eq!(a.grid.chains(), b.grid.chains());
        assert_eq!(a.grid.order(), b.grid.order());
        assert_eq!(a.grid.nfreq(), b.grid.nfreq());
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.surplus), bits(&b.surplus));
    }
}

/// FNV-1a-64, the checksum of `hddm_core::record` frames.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `record` with its format version and embedded hash replaced and both
/// checksums restamped: a well-formed frame that differs in those alone.
fn reframe(record: &[u8], version: u32, hash: u64) -> Vec<u8> {
    let mut out = record.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    out[40..48].copy_from_slice(&hash.to_le_bytes());
    let payload = fnv64(&out[40..]);
    out[24..32].copy_from_slice(&payload.to_le_bytes());
    let header = fnv64(&out[..32]);
    out[32..40].copy_from_slice(&header.to_le_bytes());
    out
}

#[test]
fn unusable_files_are_removed_at_open_and_never_followed() {
    let dir = temp_cache_dir("unusable");
    let scenario = base_scenario();
    let cache = SurfaceCache::open(&dir).unwrap();
    let hash = run_single(&scenario, &cache, &ExecutorConfig::serial())
        .unwrap()
        .hash
        .0;
    drop(cache);
    let good = persist::surface_file_name(hash);
    let record = fs::read(dir.join(&good)).unwrap();
    assert_eq!(reframe(&record, 1, hash), record, "reframe only restamps");

    // Beside the good record: a valid frame under a name that is not 16
    // lowercase hex digits (twice), a valid frame under another hash's
    // name, a future-version frame consistent with its name, a zero-byte
    // record, and a torn deposit.
    let other = 0xdead_beef_0000_0001u64;
    let bad: Vec<(String, Vec<u8>)> = vec![
        ("surface-xyz.bin".into(), record.clone()),
        (
            format!("surface-{other:016X}.bin"),
            reframe(&record, 1, other),
        ),
        (persist::surface_file_name(!hash), record.clone()),
        (
            persist::surface_file_name(other),
            reframe(&record, 2, other),
        ),
        (persist::surface_file_name(other ^ 1), Vec::new()),
    ];
    for (name, bytes) in &bad {
        fs::write(dir.join(name), bytes).unwrap();
    }
    fs::write(dir.join(".tmp-1-0-surface-junk.bin"), b"partial").unwrap();
    // A file outside the directory, reachable through a record name.
    let victim = dir.with_file_name(format!(
        "{}_victim",
        dir.file_name().unwrap().to_string_lossy()
    ));
    fs::write(&victim, b"not a cache file").unwrap();
    let mut counted = bad.len();
    #[cfg(unix)]
    {
        let link = dir.join(persist::surface_file_name(other ^ 2));
        std::os::unix::fs::symlink(&victim, link).unwrap();
        counted += 1;
    }

    let reopened = SurfaceCache::open(&dir).unwrap();
    let stats = reopened.stats();
    assert_eq!(
        stats.persisted_entries, 1,
        "only the good record is indexed"
    );
    assert_eq!(stats.skipped, counted, "every unusable record is counted");
    assert_eq!(listing(&dir), [good], "and every other file is gone");
    assert_eq!(fs::read(&victim).unwrap(), b"not a cache file");
    let served = run_single(&scenario, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!((served.cache, served.steps), (CacheKind::Exact, 0));

    fs::remove_file(&victim).unwrap();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn eviction_bounds_the_directory_to_max_entries_oldest_first() {
    let dir = temp_cache_dir("evict");
    let policy = EvictionPolicy {
        max_entries: Some(2),
        max_bytes: None,
    };
    let set = ScenarioSet::grid(
        &base_scenario(),
        &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])],
    )
    .unwrap();

    let cache = SurfaceCache::open_with(&dir, policy).unwrap();
    let report = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
    assert!(report.all_converged());

    let stats = cache.stats();
    assert_eq!(stats.persisted_entries, 2, "directory bounded to 2");
    assert_eq!(stats.evictions, set.len() - 2, "oldest entries evicted");

    // Exactly two record files remain on disk, and they are the two
    // *newest* scenarios.
    let mut expected: Vec<String> = report.scenarios[set.len() - 2..]
        .iter()
        .map(|s| persist::surface_file_name(s.hash.0))
        .collect();
    expected.sort();
    assert_eq!(listing(&dir), expected);

    // A fresh cache over the directory agrees, and the surviving
    // (newest) scenario is still an exact hit.
    let reopened = SurfaceCache::open_with(&dir, policy).unwrap();
    assert_eq!(reopened.stats().persisted_entries, 2);
    let newest = set.scenarios.last().unwrap();
    let served = run_single(newest, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(served.cache, CacheKind::Exact);
    // An evicted scenario is genuinely gone: warm at best, never exact.
    let oldest = &set.scenarios[0];
    let served = run_single(oldest, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_ne!(served.cache, CacheKind::Exact);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn max_bytes_eviction_bounds_the_directory_size() {
    let dir = temp_cache_dir("bytes");
    // First find out how big one record is.
    let probe_dir = temp_cache_dir("bytes_probe");
    let probe = SurfaceCache::open(&probe_dir).unwrap();
    run_single(&base_scenario(), &probe, &ExecutorConfig::serial()).unwrap();
    let one_record = probe.stats().persisted_bytes;
    assert!(one_record > 0);
    let _ = fs::remove_dir_all(&probe_dir);

    // Budget for about two records.
    let policy = EvictionPolicy {
        max_entries: None,
        max_bytes: Some(one_record * 5 / 2),
    };
    let set = ScenarioSet::grid(
        &base_scenario(),
        &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])],
    )
    .unwrap();
    let cache = SurfaceCache::open_with(&dir, policy).unwrap();
    run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
    let stats = cache.stats();
    assert!(
        stats.persisted_bytes <= one_record * 5 / 2,
        "directory bytes {} exceed the budget {}",
        stats.persisted_bytes,
        one_record * 5 / 2
    );
    assert!(stats.evictions >= 1, "the byte budget must have evicted");
    assert!(stats.persisted_entries >= 1, "but not everything");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn eviction_order_across_a_reopen_is_oldest_mtime_first() {
    let dir = temp_cache_dir("mtime");
    let set = ScenarioSet::grid(
        &base_scenario(),
        &[(Knob::Beta, vec![0.949, 0.95, 0.951, 0.952])],
    )
    .unwrap();
    let cache = SurfaceCache::open(&dir).unwrap();
    let hashes: Vec<u64> = set.scenarios[..3]
        .iter()
        .map(|s| {
            run_single(s, &cache, &ExecutorConfig::serial())
                .unwrap()
                .hash
                .0
        })
        .collect();
    drop(cache);

    // Backdate the newest deposit below the other two: the mtime, not the
    // deposit order of a process that is gone, is what a reopen sees.
    for (hash, secs) in hashes.iter().zip([2_000, 3_000, 1_000]) {
        fs::OpenOptions::new()
            .write(true)
            .open(dir.join(persist::surface_file_name(*hash)))
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(secs))
            .unwrap();
    }
    let policy = EvictionPolicy {
        max_entries: Some(3),
        max_bytes: None,
    };
    let reopened = SurfaceCache::open_with(&dir, policy).unwrap();
    let newest = run_single(&set.scenarios[3], &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(reopened.stats().evictions, 1);

    let mut expected: Vec<String> = [hashes[0], hashes[1], newest.hash.0]
        .iter()
        .map(|&h| persist::surface_file_name(h))
        .collect();
    expected.sort();
    assert_eq!(listing(&dir), expected, "the oldest mtime went");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_older_builds_directory_is_served_exact_and_loses_its_manifest() {
    let dir = temp_cache_dir("legacy");
    let set = ScenarioSet::grid(&base_scenario(), &[(Knob::Beta, vec![0.949, 0.95])]).unwrap();
    let first = run_set(
        &set,
        &SurfaceCache::open(&dir).unwrap(),
        &ExecutorConfig::serial(),
    )
    .unwrap();

    // The index builds before this one kept beside their records: a v1
    // `manifest.json` restating each record's leading fields.
    let rows: Vec<String> = first
        .scenarios
        .iter()
        .zip(&set.scenarios)
        .map(|(report, scenario)| {
            let shape = original_shape(scenario);
            let file = persist::surface_file_name(report.hash.0);
            format!(
                r#"{{"hash":"{}","shape":{{"dim":{},"ndofs":{},"num_states":{}}},"fingerprint":{:?},"steps":{},"cost_seconds":1.0,"bytes":{},"file":"{file}"}}"#,
                report.hash,
                shape.dim,
                shape.ndofs,
                shape.num_states,
                hddm_scenarios::fingerprint(scenario),
                report.steps,
                fs::metadata(dir.join(&file)).unwrap().len(),
            )
        })
        .collect();
    let manifest = dir.join("manifest.json");
    fs::write(
        &manifest,
        format!(r#"{{"version":1,"entries":[{}]}}"#, rows.join(",")),
    )
    .unwrap();

    let reopened = SurfaceCache::open(&dir).unwrap();
    assert!(!manifest.exists(), "the manifest is removed unread");
    let stats = reopened.stats();
    assert_eq!((stats.persisted_entries, stats.skipped), (set.len(), 0));
    // The rows come from the records: the manifest's 1 s cost is not read.
    let near = reopened
        .nearest_neighbour(
            original_shape(&set.scenarios[0]),
            &hddm_scenarios::fingerprint(&set.scenarios[0]),
        )
        .unwrap();
    assert_ne!(near.cost_seconds, 1.0);
    let again = run_set(&set, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(again.exact_hits, set.len());
    assert!(again.scenarios.iter().all(|s| s.steps == 0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_budget_below_one_surface_warns_but_keeps_the_memory_tier_working() {
    let dir = temp_cache_dir("tiny_budget");
    let policy = EvictionPolicy {
        max_entries: Some(0),
        max_bytes: None,
    };
    let scenario = base_scenario();
    let cache = SurfaceCache::open_with(&dir, policy).unwrap();
    let first = run_single(&scenario, &cache, &ExecutorConfig::serial()).unwrap();
    assert_eq!(first.cache, CacheKind::Cold);

    // The directory bound holds (nothing persisted)…
    let stats = cache.stats();
    assert_eq!(stats.persisted_entries, 0);
    assert_eq!(stats.persisted_bytes, 0);
    // …but the in-memory tier must still serve the surface.
    assert_eq!(stats.entries, 1);
    let again = run_single(&scenario, &cache, &ExecutorConfig::serial()).unwrap();
    assert_eq!(again.cache, CacheKind::Exact);
    assert_eq!(again.steps, 0);

    let _ = fs::remove_dir_all(&dir);
}
