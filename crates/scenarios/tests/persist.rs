//! Acceptance tests of the persistent policy-surface store: a sweep run
//! with a cache directory followed by an identical rerun through a
//! *fresh* cache (the new-process situation) performs zero
//! time-iteration steps — every surface is an exact hit lazily restored
//! from disk — and the eviction policy provably bounds the directory to
//! the configured maximum. Corrupt and version-mismatched artifacts are
//! skipped with a warning, never a panic.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hddm_kernels::KernelKind;
use hddm_olg::{Calibration, PolicyOracle};
use hddm_scenarios::{
    persist, run_set, run_single, CacheKind, EvictionPolicy, ExecutorConfig, Knob, Lookup,
    Scenario, ScenarioSet, SurfaceCache, MANIFEST_FILE,
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

    // The directory now holds a manifest and one record file.
    assert!(dir.join(MANIFEST_FILE).exists());
    assert!(dir.join(persist::surface_file_name(hash)).exists());

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
    // the directory serves them from the manifest alone, no record file
    // loads needed (the probe would return None without the persisted
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
    let record = dir.join(persist::surface_file_name(hash));
    let bytes = fs::read(&record).unwrap();
    fs::write(&record, &bytes[..bytes.len() / 2]).unwrap();

    let reopened = SurfaceCache::open(&dir).unwrap();
    assert_eq!(reopened.stats().persisted_entries, 1);
    // The lookup skips the corrupt file (warning, not panic) and misses.
    let report = run_single(&scenario, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(report.cache, CacheKind::Cold, "corrupt entry must not hit");
    let stats = reopened.stats();
    assert_eq!(stats.skipped, 1);
    // The re-solve re-deposited a good copy.
    assert_eq!(stats.persisted_entries, 1);
    let third = SurfaceCache::open(&dir).unwrap();
    let served = run_single(&scenario, &third, &ExecutorConfig::serial()).unwrap();
    assert_eq!(served.cache, CacheKind::Exact);

    // Silent bit rot: flip one payload byte. The length and structure
    // stay plausible, so only the checksummed header catches it.
    let mut bytes = fs::read(&record).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&record, &bytes).unwrap();
    let fourth = SurfaceCache::open(&dir).unwrap();
    let report = run_single(&scenario, &fourth, &ExecutorConfig::serial()).unwrap();
    assert_eq!(report.cache, CacheKind::Cold);
    assert_eq!(fourth.stats().skipped, 1);

    // A record truncated to *zero* bytes (crash after create, before
    // any write reached disk) is equally survivable.
    fs::write(&record, b"").unwrap();
    let fifth = SurfaceCache::open(&dir).unwrap();
    let report = run_single(&scenario, &fifth, &ExecutorConfig::serial()).unwrap();
    assert_eq!(report.cache, CacheKind::Cold);
    assert_eq!(fifth.stats().skipped, 1);

    let _ = fs::remove_dir_all(&dir);
}

/// The acceptance property of the record format: encoding and decoding
/// a surface reproduces it bit for bit. (The JSON codec this test once
/// compared against is gone; the name is kept.)
#[test]
fn binary_and_json_records_roundtrip_bitwise() {
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

#[test]
fn unknown_manifest_versions_are_skipped_without_a_panic() {
    let dir = temp_cache_dir("version");
    let scenario = base_scenario();
    let cache = SurfaceCache::open(&dir).unwrap();
    let hash = run_single(&scenario, &cache, &ExecutorConfig::serial())
        .unwrap()
        .hash
        .0;
    drop(cache);

    // Stamp a future format version onto the manifest.
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    let future = text.replacen("\"version\":1", "\"version\":999", 1);
    assert_ne!(text, future);
    fs::write(&manifest, future).unwrap();

    let reopened = SurfaceCache::open(&dir).unwrap();
    let stats = reopened.stats();
    assert_eq!(stats.persisted_entries, 0, "unknown version starts empty");
    assert!(stats.skipped >= 1);
    let report = run_single(&scenario, &reopened, &ExecutorConfig::serial()).unwrap();
    assert_eq!(report.cache, CacheKind::Cold);
    drop(reopened);

    // A row may only name the record file its hash determines: a row
    // naming a record format this version cannot read, a path that climbs
    // out of the directory, or an absolute path is dropped at open, so no
    // read, discard or eviction can follow it to another file.
    let record = persist::surface_file_name(hash);
    let stale = record.replace(".bin", ".json");
    let victim = dir.with_file_name(format!(
        "{}_victim",
        dir.file_name().unwrap().to_string_lossy()
    ));
    let climbing = format!("../{}", victim.file_name().unwrap().to_string_lossy());
    for bad in [stale.as_str(), climbing.as_str(), victim.to_str().unwrap()] {
        fs::write(&victim, b"not a cache file").unwrap();
        fs::write(dir.join(&stale), b"{}").unwrap();
        let text = fs::read_to_string(&manifest).unwrap();
        let rewritten = text.replacen(&record, bad, 1);
        assert_ne!(text, rewritten, "manifest must name the record file");
        fs::write(&manifest, rewritten).unwrap();

        let reopened = SurfaceCache::open(&dir).unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.persisted_entries, 0, "{bad}: the row is dropped");
        assert!(stats.skipped >= 1, "{bad}");
        assert!(!dir.join(&stale).exists(), "{bad}: stale record is swept");
        let report = run_single(&scenario, &reopened, &ExecutorConfig::serial()).unwrap();
        assert_eq!(report.cache, CacheKind::Cold, "{bad}");
        assert!(dir.join(&record).exists(), "{bad}: re-deposited as .bin");
        assert_eq!(fs::read(&victim).unwrap(), b"not a cache file", "{bad}");
    }
    fs::remove_file(&victim).unwrap();

    // A wholly corrupt manifest is equally survivable.
    fs::write(&manifest, "not json at all {{{").unwrap();
    let reopened = SurfaceCache::open(&dir).unwrap();
    assert_eq!(reopened.stats().persisted_entries, 0);

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

    // Exactly two record files remain on disk (plus the manifest), and
    // they are the two *newest* scenarios.
    let mut files: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("surface-"))
        .collect();
    files.sort();
    let mut expected: Vec<String> = report.scenarios[set.len() - 2..]
        .iter()
        .map(|s| persist::surface_file_name(s.hash.0))
        .collect();
    expected.sort();
    assert_eq!(files, expected);

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
fn orphaned_record_files_are_swept_on_open() {
    let dir = temp_cache_dir("orphans");
    let scenario = base_scenario();
    let cache = SurfaceCache::open(&dir).unwrap();
    let hash = run_single(&scenario, &cache, &ExecutorConfig::serial())
        .unwrap()
        .hash
        .0;
    drop(cache);

    // A manifest from a future format version orphans its record files.
    let manifest = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&manifest).unwrap();
    fs::write(
        &manifest,
        text.replacen("\"version\":1", "\"version\":999", 1),
    )
    .unwrap();
    // Plus a crash leftover: a record file no index ever referenced.
    fs::write(dir.join(persist::surface_file_name(!hash)), "{}").unwrap();
    // And a torn temp file.
    fs::write(dir.join(".tmp-12345-surface-junk.json"), "partial").unwrap();

    let reopened = SurfaceCache::open(&dir).unwrap();
    assert_eq!(reopened.stats().persisted_entries, 0);
    // Unindexed files are gone: they can never leak past the eviction
    // budget, and nothing but the (stale) manifest remains.
    let leftovers: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != MANIFEST_FILE)
        .collect();
    assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
    assert!(reopened.stats().skipped >= 3, "manifest + 2 orphans");

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
