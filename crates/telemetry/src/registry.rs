//! The instrument registry: named counters/gauges/histograms,
//! deterministic iteration order, and collect hooks.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

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
        let n = self.inner.instruments.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "Registry({n} instruments)")
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

    fn get_or_register<T, F, G>(&self, name: &'static str, make: F, pick: G) -> Arc<T>
    where
        F: FnOnce() -> Instrument,
        G: FnOnce(&Instrument) -> Option<Arc<T>>,
    {
        let mut map = self.inner.instruments.lock().expect("registry poisoned");
        let entry = map.entry(name).or_insert_with(make);
        let picked = pick(entry);
        let kind = entry.kind();
        // The kind-mismatch panic fires with the registry unlocked:
        // poisoning the global instrument map would cascade the one
        // buggy registration into a panic in every later metrics call.
        drop(map);
        match picked {
            Some(arc) => arc,
            None => panic!("telemetry instrument {name:?} already registered as a {kind}"),
        }
    }

    /// Gets or registers a counter.
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

    /// Gets or registers a gauge.
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

    /// Gets or registers a histogram.
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

    /// Starts a scoped span recording into the named histogram on drop.
    pub fn span(&self, name: &'static str) -> SpanTimer {
        SpanTimer::start(self.histogram(name))
    }

    /// Registers a collect hook, run at the start of every
    /// [`Registry::snapshot`] — the place to refresh computed gauges
    /// (entry counts, byte totals, queue depths) that have no natural
    /// increment site. Hooks must not call back into `snapshot`.
    pub fn on_collect(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.inner
            .hooks
            .lock()
            .expect("registry poisoned")
            .push(Arc::new(hook));
    }

    /// Runs the collect hooks, then samples every instrument in
    /// deterministic name order.
    pub fn snapshot(&self) -> Snapshot {
        let hooks: Vec<Arc<dyn Fn() + Send + Sync>> =
            self.inner.hooks.lock().expect("registry poisoned").clone();
        for hook in hooks {
            hook();
        }
        let map = self.inner.instruments.lock().expect("registry poisoned");
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
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter("zzz_total").inc();
        r.counter("mmm_total").inc();
        r.counter("aaa_total").inc();
        let s = r.snapshot();
        let names: Vec<_> = s.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["aaa_total", "mmm_total", "zzz_total"]);
    }

    #[test]
    fn collect_hooks_refresh_computed_gauges() {
        let r = Registry::new();
        let g = r.gauge("depth");
        let src = Arc::new(std::sync::atomic::AtomicU64::new(7));
        let src2 = src.clone();
        let g2 = g.clone();
        r.on_collect(move || g2.set(src2.load(std::sync::atomic::Ordering::Relaxed)));
        assert_eq!(r.snapshot().gauges[0].value, 7);
        src.store(11, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(r.snapshot().gauges[0].value, 11);
    }
}
