//! Instrument-name fixtures. The metric-naming rule (once check HL005 of
//! a source scanner, which guessed an instrument's kind from the tokens
//! on its line) is now asserted by the registry when a name is first
//! registered, where the kind is known. These are the same names, so the
//! same verdicts must come out.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hddm_telemetry::Registry;

/// The panic message of `register` run against a fresh registry, or
/// `None` if it registered without complaint.
fn rejection(register: impl FnOnce(&Registry)) -> Option<String> {
    let registry = Registry::new();
    let payload = catch_unwind(AssertUnwindSafe(|| register(&registry))).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}

#[test]
fn hl005_fires_on_misnamed_counter() {
    let message = rejection(|r| r.counter("hddm_solver_iterations").inc())
        .expect("a counter without _total must be refused");
    assert!(message.contains("_total"), "{message}");
}

#[test]
fn hl005_counter_and_histogram_schemes_pass() {
    let refused = rejection(|r| {
        let c = r.counter("hddm_solver_iterations_total");
        let _h = r.histogram("hddm_solver_step_seconds");
        let _g = r.gauge("hddm_cache_entries");
        c.inc();
    });
    assert_eq!(refused, None);
}

#[test]
fn hl005_fires_on_bad_charset_and_gauge_suffix() {
    let charset = rejection(|r| {
        r.counter("hddm_Solver_total");
    })
    .expect("an uppercase name must be refused");
    assert!(charset.contains("[a-z0-9_]"), "{charset}");

    let gauge = rejection(|r| {
        r.gauge("hddm_cache_entries_total");
    })
    .expect("a gauge ending in _total must be refused");
    assert!(gauge.contains("neither _total nor _seconds"), "{gauge}");
}
