//! End-to-end acceptance test of the scenario engine: a demo sweep of 16
//! scenarios runs through the executor, the policy-surface cache
//! warm-starts later scenarios off earlier ones, and a warm start solves
//! in strictly fewer time-iteration steps than the cold-start solve of
//! the identical scenario.

use hddm_scenarios::{
    run_set, run_single, CacheKind, ExecutorConfig, Knob, ScenarioSet, SurfaceCache,
};

#[test]
fn demo_sweep_warm_starts_beat_cold_solves() {
    let mut set = ScenarioSet::demo(5, 3).unwrap();
    assert!(set.len() >= 16, "demo sweep must span ≥ 16 scenarios");
    // One economy outside the integer exponent classes of the CRRA
    // kernel: at γ = 2.5 every marginal utility of the solve is `powf`.
    let mut fractional = set.scenarios[0].clone();
    Knob::Gamma.apply(&mut fractional, 2.5).unwrap();
    fractional.name = "demo/gamma=2.5".into();
    set.scenarios.push(fractional);

    let cache = SurfaceCache::default();
    let report = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();

    // Every scenario of the sweep converged.
    assert!(report.all_converged(), "non-converged scenario in sweep");
    assert_eq!(report.scenarios.len(), set.len());
    let fractional = report.scenarios.last().expect("the γ = 2.5 economy");
    assert!(fractional.steps > 0, "{fractional:?}");

    // The cache assisted: the first scenario is cold, and at least one
    // later scenario warm-started off a cached surface.
    assert!(report.warm_starts >= 1, "no warm starts in the sweep");
    assert_eq!(report.cold_solves + report.warm_starts, set.len());

    // Acceptance: a cache-assisted warm start converges in strictly
    // fewer time-iteration steps than the cold-start solve of the SAME
    // scenario.
    let warm = report
        .scenarios
        .iter()
        .find(|s| s.cache == CacheKind::Warm)
        .expect("warm-started scenario");
    let scenario = set
        .scenarios
        .iter()
        .find(|s| s.name == warm.name)
        .expect("scenario by name");
    let cold = run_single(
        scenario,
        &SurfaceCache::default(),
        &ExecutorConfig::serial(),
    )
    .unwrap();
    assert_eq!(cold.cache, CacheKind::Cold);
    assert!(cold.converged);
    assert!(
        warm.steps < cold.steps,
        "warm start of {:?} took {} steps vs {} cold",
        warm.name,
        warm.steps,
        cold.steps
    );
    assert_eq!(warm.hash, cold.hash, "same scenario, same content hash");

    // The JSON report carries every scenario bit-exactly: hashes as hex
    // strings, `f64`s as text that parses back to the same bits.
    let tree = serde_json::parse(&report.to_json()).unwrap();
    let (_, scenarios) = tree
        .as_object()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "scenarios")
        .unwrap();
    let written = scenarios.as_array().unwrap();
    assert_eq!(written.len(), report.scenarios.len());
    for (a, b) in report.scenarios.iter().zip(written) {
        let b = b.as_object().unwrap();
        assert_eq!(serde::field::<String>(b, "hash"), Ok(a.hash.to_hex()));
        assert_eq!(serde::field::<u64>(b, "steps"), Ok(a.steps as u64));
        let sup: f64 = serde::field(b, "final_sup_change").unwrap();
        assert_eq!(sup.to_bits(), a.final_sup_change.to_bits());
    }
}

#[test]
fn resweeping_with_a_shared_cache_is_all_exact_hits() {
    let set = ScenarioSet::demo(4, 3).unwrap();
    let cache = SurfaceCache::default();
    let first = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
    assert!(first.all_converged());

    let second = run_set(&set, &cache, &ExecutorConfig::serial()).unwrap();
    assert_eq!(second.exact_hits, set.len(), "second sweep must be free");
    assert_eq!(second.cold_solves, 0);
    // Exact hits skip the solver entirely.
    assert!(second.scenarios.iter().all(|s| s.steps == 0));
}

#[test]
fn concurrent_sweep_execution_matches_the_serial_results() {
    // Same sweep, 3 host threads: scenario *results* (steps may differ —
    // warm-start provenance is timing-dependent) must still all converge
    // and cover the same scenario hashes.
    let set = ScenarioSet::demo(4, 3).unwrap();
    let serial = run_set(&set, &SurfaceCache::default(), &ExecutorConfig::serial()).unwrap();
    let concurrent = run_set(
        &set,
        &SurfaceCache::default(),
        &ExecutorConfig {
            threads: 3,
            ..ExecutorConfig::serial()
        },
    )
    .unwrap();
    assert!(concurrent.all_converged());
    let mut a: Vec<u64> = serial.scenarios.iter().map(|s| s.hash.0).collect();
    let mut b: Vec<u64> = concurrent.scenarios.iter().map(|s| s.hash.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
