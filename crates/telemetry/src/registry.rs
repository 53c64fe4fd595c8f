//! The instrument registry: named counters/gauges/histograms,
//! deterministic iteration order, and collect hooks.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::instrument::{Counter, Gauge, Histogram, SpanTimer};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }

    /// Panics unless `name` follows `hddm_<subsystem>_<what>` over
    /// `[a-z0-9_]` (no empty word, so no `__` and no trailing `_`) and
    /// ends the way this kind must: counters in `_total`, histograms and
    /// spans in `_seconds`, gauges in neither.
    fn assert_named(&self, name: &str) {
        let kind = self.kind();
        let (stem, rule) = match self {
            Instrument::Counter(_) => (name.strip_suffix("_total"), "end in _total"),
            Instrument::Histogram(_) => (name.strip_suffix("_seconds"), "end in _seconds"),
            Instrument::Gauge(_) => (
                (!name.ends_with("_total") && !name.ends_with("_seconds")).then_some(name),
                "end in neither _total nor _seconds",
            ),
        };
        let Some(stem) = stem else {
            panic!("telemetry {kind} name {name:?} must {rule}");
        };
        let words: Vec<&str> = stem.split('_').collect();
        let well_formed = words.len() >= 3
            && words[0] == "hddm"
            && words.iter().all(|w| {
                !w.is_empty()
                    && w.bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
            });
        assert!(
            well_formed,
            "telemetry {kind} name {name:?} is not hddm_<subsystem>_<what> over [a-z0-9_]"
        );
    }
}

#[derive(Default)]
struct Inner {
    /// `BTreeMap` keyed by name, so iteration (and therefore every
    /// export) is deterministic regardless of registration order.
    instruments: Mutex<BTreeMap<&'static str, Instrument>>,
    /// Closures run at the start of [`Registry::snapshot`], used to
    /// refresh computed gauges (e.g. cache entry counts) that have no
    /// natural write site.
    hooks: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

/// A registry of named instruments. Cloning is cheap (shared handle);
/// subsystems that need isolated counts (one service, one cache) hold
/// their own registry, while process-wide counters use
/// [`Registry::global`].
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Registry({} instruments)", self.instruments().len())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry (e.g. the `hddm-compress` build
    /// counter, which predates any service or cache instance).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The instrument map. Every change to it is one `BTreeMap` call, so
    /// a panic under the lock leaves a whole map behind: its poison is
    /// ignored, and one buggy registration cannot turn every later
    /// metrics call into a panic.
    fn instruments(&self) -> MutexGuard<'_, BTreeMap<&'static str, Instrument>> {
        self.inner
            .instruments
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn hooks(&self) -> MutexGuard<'_, Vec<Arc<dyn Fn() + Send + Sync>>> {
        self.inner
            .hooks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The instrument registered as `name`, registering `make()` first if
    /// there is none. Every name is `hddm_<subsystem>_<what>` over
    /// `[a-z0-9_]`, with its kind's suffix (see
    /// [`Instrument::assert_named`]); asking for a name as another kind
    /// than it was registered as panics.
    fn get_or_register<T, F, G>(&self, name: &'static str, make: F, pick: G) -> Arc<T>
    where
        F: FnOnce() -> Instrument,
        G: FnOnce(&Instrument) -> Option<Arc<T>>,
    {
        let mut map = self.instruments();
        let entry = map.entry(name).or_insert_with(|| {
            let fresh = make();
            fresh.assert_named(name);
            fresh
        });
        let kind = entry.kind();
        pick(entry).unwrap_or_else(|| {
            panic!("telemetry instrument {name:?} already registered as a {kind}")
        })
    }

    /// Gets or registers a counter. A new name must end `_total`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.get_or_register(
            name,
            || Instrument::Counter(Arc::new(Counter::new())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers a gauge. A new name must end in neither
    /// `_total` nor `_seconds`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.get_or_register(
            name,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Gets or registers a histogram. A new name must end `_seconds`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.get_or_register(
            name,
            || Instrument::Histogram(Arc::new(Histogram::new())),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Starts a scoped span recording into the named histogram on drop
    /// (so a new name must end `_seconds`).
    pub fn span(&self, name: &'static str) -> SpanTimer {
        SpanTimer::start(self.histogram(name))
    }

    /// Registers a collect hook, run at the start of every
    /// [`Registry::snapshot`] — the place to refresh computed gauges
    /// (entry counts, byte totals, queue depths) that have no natural
    /// increment site. Hooks must not call back into `snapshot`.
    pub fn on_collect(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.hooks().push(Arc::new(hook));
    }

    /// Runs the collect hooks, then samples every instrument in
    /// deterministic name order.
    pub fn snapshot(&self) -> Snapshot {
        let hooks = self.hooks().clone();
        for hook in hooks {
            hook();
        }
        let map = self.instruments();
        let mut snap = Snapshot::default();
        for (&name, instrument) in map.iter() {
            match instrument {
                Instrument::Counter(c) => snap.counters.push(CounterSample {
                    name: name.to_string(),
                    value: c.get(),
                }),
                Instrument::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: name.to_string(),
                    value: g.get(),
                }),
                Instrument::Histogram(h) => {
                    let qs = h.percentiles(&[0.50, 0.99, 0.999]);
                    snap.histograms.push(HistogramSample {
                        name: name.to_string(),
                        count: h.count(),
                        sum_seconds: h.sum_seconds(),
                        max_seconds: h.max_seconds(),
                        p50: qs[0],
                        p99: qs[1],
                        p999: qs[2],
                    });
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("hddm_test_x_total");
        let b = r.counter("hddm_test_x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("hddm_test_x_total");
        let _ = r.gauge("hddm_test_x_total");
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter("hddm_test_zzz_total").inc();
        r.counter("hddm_test_mmm_total").inc();
        r.counter("hddm_test_aaa_total").inc();
        let s = r.snapshot();
        let names: Vec<_> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "hddm_test_aaa_total",
                "hddm_test_mmm_total",
                "hddm_test_zzz_total"
            ]
        );
    }

    #[test]
    fn collect_hooks_refresh_computed_gauges() {
        let r = Registry::new();
        let g = r.gauge("hddm_test_depth");
        let src = Arc::new(std::sync::atomic::AtomicU64::new(7));
        let src2 = src.clone();
        let g2 = g.clone();
        r.on_collect(move || g2.set(src2.load(std::sync::atomic::Ordering::Relaxed)));
        assert_eq!(r.snapshot().gauges[0].value, 7);
        src.store(11, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(r.snapshot().gauges[0].value, 11);
    }

    #[test]
    fn a_panic_under_either_lock_does_not_poison_later_calls() {
        let r = Registry::new();
        r.counter("hddm_test_requests_total").inc();
        let held = r.clone();
        let poisoner = std::thread::spawn(move || {
            let _instruments = held.inner.instruments.lock();
            let _hooks = held.inner.hooks.lock();
            panic!("panic while the registry is locked");
        });
        assert!(poisoner.join().is_err());
        assert!(r.inner.instruments.is_poisoned() && r.inner.hooks.is_poisoned());
        assert_eq!(format!("{r:?}"), "Registry(1 instruments)");
        r.counter("hddm_test_requests_total").inc();
        r.on_collect(|| {});
        assert_eq!(r.snapshot().counter("hddm_test_requests_total"), Some(2));
    }

    #[test]
    #[should_panic(expected = "is not hddm_<subsystem>_<what>")]
    fn a_name_outside_the_hddm_prefix_panics() {
        Registry::new().counter("app_cache_hits_total");
    }

    #[test]
    #[should_panic(expected = "is not hddm_<subsystem>_<what>")]
    fn a_name_without_a_subsystem_panics() {
        Registry::new().counter("hddm_hits_total");
    }

    #[test]
    #[should_panic(expected = "is not hddm_<subsystem>_<what>")]
    fn an_uppercase_name_panics() {
        Registry::new().gauge("hddm_cache_Entries");
    }

    #[test]
    #[should_panic(expected = "is not hddm_<subsystem>_<what>")]
    fn a_double_underscore_panics() {
        Registry::new().gauge("hddm_cache__entries");
    }

    #[test]
    #[should_panic(expected = "is not hddm_<subsystem>_<what>")]
    fn a_trailing_underscore_panics() {
        Registry::new().gauge("hddm_cache_entries_");
    }

    #[test]
    #[should_panic(expected = "counter name \"hddm_cache_hits\" must end in _total")]
    fn a_counter_not_ending_in_total_panics() {
        Registry::new().counter("hddm_cache_hits");
    }

    #[test]
    #[should_panic(expected = "histogram name \"hddm_cache_restore_ms\" must end in _seconds")]
    fn a_histogram_not_ending_in_seconds_panics() {
        Registry::new().histogram("hddm_cache_restore_ms");
    }

    #[test]
    #[should_panic(expected = "histogram name \"hddm_cache_restore\" must end in _seconds")]
    fn a_span_not_ending_in_seconds_panics() {
        let _span = Registry::new().span("hddm_cache_restore");
    }

    #[test]
    #[should_panic(expected = "must end in neither _total nor _seconds")]
    fn a_gauge_ending_in_total_panics() {
        Registry::new().gauge("hddm_cache_entries_total");
    }

    #[test]
    #[should_panic(expected = "must end in neither _total nor _seconds")]
    fn a_gauge_ending_in_seconds_panics() {
        Registry::new().gauge("hddm_cache_age_seconds");
    }
}
