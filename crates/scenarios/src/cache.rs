//! The content-addressed policy-surface cache.
//!
//! Every converged scenario solve deposits its policy surface — the
//! solved [`PolicySet`] itself, one compressed interpolant per discrete
//! state — keyed by the deterministic scenario hash. A later solve of the
//! *same* scenario is an exact hit and skips the solver entirely; a solve
//! of a *nearby* scenario (same state-space shape, close parameter
//! fingerprint) warm starts from the cached surface projected onto its
//! own domain box instead of the constant steady-state guess, cutting the
//! time-iteration count.
//!
//! Measured solve costs ride along on each entry:
//! [`SurfaceCache::nearest_neighbour`] reports the cost of the nearest
//! solved scenario, which the serving front-end hands to clients as the
//! estimated cost of a warm-started solve.
//!
//! ## Concurrency architecture
//!
//! The cache is a cheaply clonable handle (`Arc` inside) over a **sharded
//! read path**: entries live in `RwLock`-guarded shards selected by hash,
//! so concurrent exact-hit readers only contend when they hit the same
//! shard — and even then only on a shared read lock. Record-file I/O for
//! lazy disk restores happens **outside every lock** (see
//! [`crate::persist`]); a per-entry in-flight guard ensures each surface
//! is restored from disk at most once no matter how many readers race for
//! it (losers wait on a condvar and are handed the winner's `Arc`).
//!
//! Poisoned locks are recovered, not propagated: every guarded region
//! leaves the cache structurally consistent (promotion and deposit are
//! single `HashMap` operations), so a panicking sweep thread must not
//! poison the cache for every other thread. Recoveries are counted in
//! [`CacheStats::lock_poisonings`].

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Deserialize, Serialize};

use hddm_asg::{regular_grid, BoxDomain, Stencil};
use hddm_compress::CompressedGrid;
use hddm_core::PolicySet;
use hddm_kernels::{CompressedState, ExecutionBackend, KernelKind, PointBlock, Scratch};
use hddm_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::hash::{fingerprint_distance, HashId};
use crate::persist::{EvictionPolicy, IndexRow, Store};

/// Number of `RwLock` shards the in-memory map is split across. A small
/// power of two: enough that a serving front-end's reader threads rarely
/// collide, small enough that whole-cache scans (warm-start search, cost
/// estimation) stay cheap.
const SHARD_COUNT: usize = 16;

/// The state-space shape a cached surface was solved on. Warm starts
/// require an exact shape match: a surface over a different
/// dimensionality or state count is not even interpretable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Continuous dimensionality `d`.
    pub dim: usize,
    /// Coefficients per grid point.
    pub ndofs: usize,
    /// Number of discrete Markov states.
    pub num_states: usize,
}

impl ShapeKey {
    /// The state-space shape of a scenario, derivable without solving
    /// the steady state. The single source of truth for the cache
    /// identity — the executor's solve-time lookups and the serving
    /// front-end's admission probe must derive the shape identically.
    pub fn of(scenario: &crate::scenario::Scenario) -> ShapeKey {
        ShapeKey {
            dim: scenario.calibration.dim(),
            ndofs: scenario.calibration.ndofs(),
            num_states: scenario.calibration.num_states(),
        }
    }
}

/// One cached policy surface with its provenance and cost telemetry.
#[derive(Clone, Debug)]
pub struct CachedSurface {
    /// Content hash of the producing scenario.
    pub hash: u64,
    /// State-space shape.
    pub shape: ShapeKey,
    /// Parameter fingerprint of the producing scenario.
    pub fingerprint: Vec<f64>,
    /// The solved policy over the domain box it was solved on.
    pub(crate) policy: PolicySet,
    /// Time-iteration steps the producing solve took.
    pub steps: usize,
    /// Final sup policy change of the producing solve.
    pub final_sup_change: f64,
    /// Measured wall-clock seconds of the producing solve.
    pub cost_seconds: f64,
}

impl CachedSurface {
    /// The held policy: every hit on this surface reads the one copy the
    /// deposit (or the disk restore) made.
    pub fn restore_policy(&self) -> &PolicySet {
        &self.policy
    }

    /// Total grid points of the surface (summed over discrete states).
    pub fn grid_points(&self) -> usize {
        self.policy.states.total_points()
    }
}

/// Outcome of a cache lookup.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// Identical scenario already solved: reuse the surface verbatim.
    Exact(Arc<CachedSurface>),
    /// A nearby scenario's surface is available for a warm start.
    Warm(Arc<CachedSurface>),
    /// Nothing usable cached; solve cold.
    Miss,
}

/// Nearest same-shape cached neighbour of a fingerprint — the metadata a
/// serving front-end reports on a near miss without restoring anything
/// from disk. Returned by [`SurfaceCache::nearest_neighbour`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NeighbourInfo {
    /// Content hash of the neighbouring cached scenario.
    pub hash: HashId,
    /// Fingerprint distance to the query (see
    /// [`fingerprint_distance`](crate::hash::fingerprint_distance)).
    pub distance: f64,
    /// Measured wall-clock seconds of the neighbour's producing solve.
    pub cost_seconds: f64,
}

/// Cache telemetry counters — in-memory traffic plus, when a persistent
/// backing directory is attached, the on-disk store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Entries currently held in memory (summed over shards).
    pub entries: usize,
    /// Surfaces currently persisted in the backing directory (0 for a
    /// purely in-memory cache).
    pub persisted_entries: usize,
    /// Total bytes of the persisted record files.
    pub persisted_bytes: u64,
    /// Exact-hash hits served (from memory or disk).
    pub exact_hits: usize,
    /// Warm-start hits served (from memory or disk).
    pub warm_hits: usize,
    /// Lookups that found nothing usable.
    pub misses: usize,
    /// Hits whose surface was lazily restored from the backing directory
    /// (a subset of `exact_hits + warm_hits`).
    pub disk_hits: usize,
    /// Persisted surfaces evicted by the size policy.
    pub evictions: usize,
    /// Corrupt, truncated, or version-mismatched persisted artifacts
    /// skipped with a warning.
    pub skipped: usize,
    /// Poisoned shard/store locks recovered (a sweep thread panicked
    /// while holding a cache lock; the guarded state is crash-consistent
    /// by construction, so the lock is cleared and reused).
    pub lock_poisonings: usize,
    /// High-water mark of simultaneously in-flight disk restores — the
    /// direct evidence that record-file I/O runs outside the cache locks
    /// (a single-mutex cache can never exceed 1).
    pub concurrent_restores_peak: usize,
}

/// Instrumentation hook invoked during every record-file restore, with
/// the hash being restored, **outside all cache locks**. Tests use it to
/// prove restore concurrency (rendezvous of N readers) and to count
/// per-hash restore attempts; production code leaves it unset.
pub type RestoreHook = Arc<dyn Fn(u64) + Send + Sync>;

/// One shard of the in-memory map. `seq` is the global deposit sequence
/// number — the deterministic tie-breaker that replaces the old
/// cache-wide insertion-order vector (nearest-neighbour searches prefer
/// the earliest deposit among equal distances, independent of shard
/// layout).
#[derive(Default)]
struct Shard {
    by_hash: HashMap<u64, ShardEntry>,
}

struct ShardEntry {
    seq: u64,
    surface: Arc<CachedSurface>,
}

/// The cache's registry-backed instruments. Traffic counters are
/// incremented inline on the hot paths; derived quantities (entry counts,
/// store-side totals, lock recoveries) are gauges refreshed by
/// [`SurfaceCache::refresh_gauges`] — both before every [`SurfaceCache::stats`]
/// read and from the registry's collect hook, so a
/// [`Registry::snapshot`] and a `stats()` call taken at the same quiescent
/// instant agree bit for bit.
struct CacheInstruments {
    registry: Registry,
    exact_hits: Arc<Counter>,
    warm_hits: Arc<Counter>,
    misses: Arc<Counter>,
    disk_hits: Arc<Counter>,
    entries: Arc<Gauge>,
    persisted_entries: Arc<Gauge>,
    persisted_bytes: Arc<Gauge>,
    evictions: Arc<Gauge>,
    skipped: Arc<Gauge>,
    lock_poisonings: Arc<Gauge>,
    restores_peak: Arc<Gauge>,
    restore_seconds: Arc<Histogram>,
    deposit_seconds: Arc<Histogram>,
    evict_seconds: Arc<Histogram>,
}

impl CacheInstruments {
    fn new(registry: Registry) -> CacheInstruments {
        CacheInstruments {
            exact_hits: registry.counter("hddm_cache_exact_hits_total"),
            warm_hits: registry.counter("hddm_cache_warm_hits_total"),
            misses: registry.counter("hddm_cache_misses_total"),
            disk_hits: registry.counter("hddm_cache_disk_hits_total"),
            entries: registry.gauge("hddm_cache_entries"),
            persisted_entries: registry.gauge("hddm_cache_persisted_entries"),
            persisted_bytes: registry.gauge("hddm_cache_persisted_bytes"),
            evictions: registry.gauge("hddm_cache_evictions"),
            skipped: registry.gauge("hddm_cache_skipped"),
            lock_poisonings: registry.gauge("hddm_cache_lock_poisonings"),
            restores_peak: registry.gauge("hddm_cache_concurrent_restores_peak"),
            restore_seconds: registry.histogram("hddm_cache_restore_seconds"),
            deposit_seconds: registry.histogram("hddm_cache_deposit_seconds"),
            evict_seconds: registry.histogram("hddm_cache_evict_seconds"),
            registry,
        }
    }
}

struct CacheInner {
    shards: Vec<RwLock<Shard>>,
    /// Global deposit counter (insertion order across shards).
    seq: AtomicU64,
    /// Persistent backing store, fixed at construction.
    store: Option<Store>,
    /// Maximum fingerprint distance a warm start may bridge.
    warm_radius: f64,
    metrics: CacheInstruments,
    lock_poisonings: AtomicUsize,
    /// Hashes whose disk restore is currently in flight; guards
    /// restore-once promotion.
    inflight: Mutex<HashSet<u64>>,
    inflight_cv: Condvar,
    restoring_now: AtomicUsize,
    restore_peak: AtomicUsize,
    restore_hook: RwLock<Option<RestoreHook>>,
}

/// The shared, thread-safe surface cache — a cheap clonable handle; all
/// clones observe the same entries and telemetry. Nearest-neighbour scan
/// order is deposit order (a global sequence number), so warm-start
/// choices stay deterministic given a deterministic execution order.
///
/// Optionally backed by a persistent cache directory (see
/// [`SurfaceCache::open`]): the on-disk
/// index is consulted on misses, hit surfaces are lazily restored from
/// their record files — concurrently, outside any lock, at most once per
/// entry — and promoted into memory, and every deposit is written through
/// atomically.
#[derive(Clone)]
pub struct SurfaceCache {
    inner: Arc<CacheInner>,
}

/// Warm radius of [`SurfaceCache::default`] and of every cache opened over
/// a directory.
const DEFAULT_WARM_RADIUS: f64 = 0.05;

impl Default for SurfaceCache {
    fn default() -> Self {
        SurfaceCache::new(DEFAULT_WARM_RADIUS)
    }
}

impl SurfaceCache {
    /// An empty in-memory cache accepting warm starts within
    /// `warm_radius` fingerprint distance (see [`fingerprint_distance`]).
    pub fn new(warm_radius: f64) -> SurfaceCache {
        SurfaceCache::with_store(warm_radius, None)
    }

    fn with_store(warm_radius: f64, store: Option<Store>) -> SurfaceCache {
        let registry = Registry::new();
        let cache = SurfaceCache {
            inner: Arc::new(CacheInner {
                shards: (0..SHARD_COUNT)
                    .map(|_| RwLock::new(Shard::default()))
                    .collect(),
                seq: AtomicU64::new(0),
                store,
                warm_radius,
                metrics: CacheInstruments::new(registry.clone()),
                lock_poisonings: AtomicUsize::new(0),
                inflight: Mutex::new(HashSet::new()),
                inflight_cv: Condvar::new(),
                restoring_now: AtomicUsize::new(0),
                restore_peak: AtomicUsize::new(0),
                restore_hook: RwLock::new(None),
            }),
        };
        // The hook holds a Weak so the registry (owned by the inner) never
        // keeps the cache alive; once every handle is dropped, the hook
        // silently becomes a no-op.
        let weak = Arc::downgrade(&cache.inner);
        registry.on_collect(move || {
            if let Some(inner) = weak.upgrade() {
                SurfaceCache { inner }.refresh_gauges();
            }
        });
        cache
    }

    /// The registry holding this cache's instruments
    /// (`hddm_cache_*`) — and, for solves routed through
    /// [`crate::executor`] without an explicit telemetry override, the
    /// driver's `hddm_solve_*` phase spans too.
    pub fn registry(&self) -> &Registry {
        &self.inner.metrics.registry
    }

    /// Refreshes the derived gauges (entry counts, store totals, lock
    /// recoveries, restore high-water mark) from their sources. Invoked
    /// before every [`SurfaceCache::stats`] read and by the registry's
    /// collect hook ahead of each snapshot.
    fn refresh_gauges(&self) {
        let entries: usize = (0..SHARD_COUNT)
            .map(|i| self.shard_read(i).by_hash.len())
            .sum();
        let (persisted_entries, persisted_bytes, evictions, skipped, store_poisonings) =
            match &self.inner.store {
                Some(store) => (
                    store.len(),
                    store.total_bytes(),
                    store.evictions(),
                    store.skipped(),
                    store.poisonings(),
                ),
                None => (0, 0, 0, 0, 0),
            };
        let m = &self.inner.metrics;
        m.entries.set(entries as u64);
        m.persisted_entries.set(persisted_entries as u64);
        m.persisted_bytes.set(persisted_bytes);
        m.evictions.set(evictions as u64);
        m.skipped.set(skipped as u64);
        // ORDERING: Relaxed — recovery tally scrape; staleness by an
        // in-flight recovery is acceptable for exposition.
        let poisonings = self.inner.lock_poisonings.load(Ordering::Relaxed);
        m.lock_poisonings
            .set((poisonings + store_poisonings) as u64);
        // ORDERING: Relaxed — the peak is maintained by atomic fetch_max
        // (RMWs on one atomic are totally ordered); this scrape infers
        // nothing about other memory from the value.
        let peak = self.inner.restore_peak.load(Ordering::Relaxed);
        m.restores_peak.set(peak as u64);
    }

    /// Opens a cache backed by the persistent directory `dir` (created if
    /// missing) with an unbounded eviction policy. The on-disk index is
    /// loaded immediately; surfaces are restored lazily on first hit.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<SurfaceCache, String> {
        SurfaceCache::open_with(dir, EvictionPolicy::default())
    }

    /// [`SurfaceCache::open`] with an explicit eviction policy.
    pub fn open_with<P: AsRef<Path>>(
        dir: P,
        policy: EvictionPolicy,
    ) -> Result<SurfaceCache, String> {
        let store = Store::open(dir, policy)?;
        Ok(SurfaceCache::with_store(DEFAULT_WARM_RADIUS, Some(store)))
    }

    /// Entries currently held by each shard — per-shard telemetry for
    /// concurrency tests and load inspection.
    pub fn shard_entries(&self) -> Vec<usize> {
        (0..SHARD_COUNT)
            .map(|i| self.shard_read(i).by_hash.len())
            .collect()
    }

    /// Installs an instrumentation hook invoked (outside all locks) for
    /// every record-file restore; see [`RestoreHook`]. Pass-through for
    /// tests and latency tracing — not part of the caching semantics.
    pub fn set_restore_hook(&self, hook: RestoreHook) {
        *self.recover_rw_write(&self.inner.restore_hook) = Some(hook);
    }

    // ----- lock plumbing (poisoning-recovering) ------------------------

    fn recover_rw_read<'a, T>(&self, lock: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        lock.read().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.inner.lock_poisonings.fetch_add(1, Ordering::Relaxed);
            lock.clear_poison();
            poisoned.into_inner()
        })
    }

    fn recover_rw_write<'a, T>(&self, lock: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
        lock.write().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.inner.lock_poisonings.fetch_add(1, Ordering::Relaxed);
            lock.clear_poison();
            poisoned.into_inner()
        })
    }

    fn recover_mutex<'a, T>(&self, lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
        lock.lock().unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.inner.lock_poisonings.fetch_add(1, Ordering::Relaxed);
            lock.clear_poison();
            poisoned.into_inner()
        })
    }

    fn shard_read(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        self.recover_rw_read(&self.inner.shards[i])
    }

    fn shard_write(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        self.recover_rw_write(&self.inner.shards[i])
    }

    // ----- disk promotion (restore-once, I/O outside locks) ------------

    /// Loads `hash` from the backing store (if any) and promotes it into
    /// its shard. `None` when there is no store, the hash is not
    /// persisted, or its record file is corrupt (skipped with a warning
    /// and dropped from the index).
    ///
    /// Restore-once guarantee: concurrent callers for the same hash elect
    /// one restorer; the rest wait on a condvar and re-read the shard, so
    /// the record file is read at most once per promotion no matter how
    /// many readers race. Callers for *different* hashes proceed fully in
    /// parallel — the file read holds no lock at all.
    fn promote_from_disk(&self, hash: u64) -> Option<Arc<CachedSurface>> {
        let store = self.inner.store.as_ref()?;
        loop {
            if let Some(entry) = self.shard_read(shard_of(hash)).by_hash.get(&hash) {
                // Another thread promoted it while we raced for the claim.
                return Some(Arc::clone(&entry.surface));
            }
            {
                let mut inflight = self.recover_mutex(&self.inner.inflight);
                if inflight.contains(&hash) {
                    // A restore of this very hash is in flight: wait for
                    // the winner instead of reading the file twice. (A
                    // wake to poison returns early; the loop re-checks.)
                    let _released = self
                        .inner
                        .inflight_cv
                        .wait_while(inflight, |inflight| inflight.contains(&hash))
                        .unwrap_or_else(|poisoned| {
                            // ORDERING: Relaxed — recovery tally.
                            self.inner.lock_poisonings.fetch_add(1, Ordering::Relaxed);
                            self.inner.inflight.clear_poison();
                            poisoned.into_inner()
                        });
                    continue; // re-check the shard (winner promoted or skipped)
                }
                inflight.insert(hash);
            }

            // The claim MUST be released even if the restore unwinds (a
            // panicking restore hook, an OOM in deserialization): a leaked
            // claim would deadlock every future promotion of this hash.
            // The guard releases + notifies on drop, unwind included.
            struct ClaimGuard<'a> {
                cache: &'a SurfaceCache,
                hash: u64,
            }
            impl Drop for ClaimGuard<'_> {
                fn drop(&mut self) {
                    let mut inflight = self.cache.recover_mutex(&self.cache.inner.inflight);
                    inflight.remove(&self.hash);
                    self.cache.inner.inflight_cv.notify_all();
                }
            }
            let _claim = ClaimGuard { cache: self, hash };

            return self.restore_claimed(store, hash);
        }
    }

    /// The claimed restore itself: snapshot the index row, read + validate
    /// the record file with **no lock held**, then promote under a single
    /// short shard write lock.
    fn restore_claimed(&self, store: &Store, hash: u64) -> Option<Arc<CachedSurface>> {
        // The shard check in `promote_from_disk` and the claim are not
        // one atomic step: a winner may have promoted (and released the
        // claim) between our miss and our claim. Re-check now that the
        // claim is held — without this, the record file would be read a
        // second time for an already-promoted surface.
        if let Some(entry) = self.shard_read(shard_of(hash)).by_hash.get(&hash) {
            return Some(Arc::clone(&entry.surface));
        }
        let entry: IndexRow = store.entry(hash)?;

        // Unwind-safe gauge: decrement on drop so a panicking hook or
        // reader cannot leave `restoring_now` drifted upward forever.
        struct GaugeGuard<'a>(&'a CacheInner);
        impl Drop for GaugeGuard<'_> {
            fn drop(&mut self) {
                // ORDERING: Relaxed — the in-flight count is exact by
                // RMW atomicity alone; nothing is published through it.
                self.0.restoring_now.fetch_sub(1, Ordering::Relaxed);
            }
        }
        // ORDERING: Relaxed — RMWs on one atomic are totally ordered, so
        // `now` is the exact number of concurrent restorers; order
        // against unrelated memory is irrelevant (downgraded from
        // SeqCst, which bought nothing here).
        let now = self.inner.restoring_now.fetch_add(1, Ordering::Relaxed) + 1;
        let _gauge = GaugeGuard(&self.inner);
        // ORDERING: Relaxed — atomic fetch_max maintains the peak
        // exactly; no reader infers other state from it.
        self.inner.restore_peak.fetch_max(now, Ordering::Relaxed);
        let hook = self.recover_rw_read(&self.inner.restore_hook).clone();
        if let Some(hook) = hook {
            hook(hash);
        }
        let span =
            hddm_telemetry::SpanTimer::start(Arc::clone(&self.inner.metrics.restore_seconds));
        let read = store.read_record(&entry);
        span.stop();
        drop(_gauge);

        match read {
            Ok(surface) => {
                let arc = Arc::new(surface);
                let mut shard = self.shard_write(shard_of(hash));
                let entry = shard.by_hash.entry(hash).or_insert_with(|| ShardEntry {
                    // ORDERING: Relaxed — sequence uniqueness comes from
                    // RMW atomicity; insertion order is guarded by the
                    // shard's write lock, not by this atomic.
                    seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
                    surface: Arc::clone(&arc),
                });
                let promoted = Arc::clone(&entry.surface);
                drop(shard);
                self.inner.metrics.disk_hits.inc();
                Some(promoted)
            }
            Err(e) => {
                eprintln!(
                    "hddm-scenarios: warning: skipping corrupt cached surface {} ({e})",
                    HashId(hash)
                );
                store.discard(hash);
                None
            }
        }
    }

    // ----- lookups -----------------------------------------------------

    /// Exact-hash probe for the serving fast path: the surface when
    /// `hash` is cached and compatible (in memory, or lazily restored
    /// from disk — counted as an exact hit, plus a disk hit when a
    /// restore happened), `None` otherwise — **without counting a
    /// miss**. A `None` here means the caller will enqueue the scenario
    /// and the dispatched solve will run the full [`SurfaceCache::lookup`],
    /// which accounts for the miss exactly once; counting it in the
    /// probe too would double every served miss in [`CacheStats`].
    pub fn lookup_exact(
        &self,
        hash: u64,
        shape: ShapeKey,
        fingerprint: &[f64],
    ) -> Option<Arc<CachedSurface>> {
        let entry = {
            let shard = self.shard_read(shard_of(hash));
            shard.by_hash.get(&hash).map(|e| Arc::clone(&e.surface))
        }
        .or_else(|| self.promote_from_disk(hash))?;
        // A colliding hash with an incompatible shape/fingerprint is a
        // miss, exactly as in `lookup`.
        if entry.shape == shape && entry.fingerprint == fingerprint {
            self.inner.metrics.exact_hits.inc();
            Some(entry)
        } else {
            None
        }
    }

    /// Looks up a surface for the scenario identified by `hash`,
    /// `shape`, and `fingerprint`: exact hash match first (memory, then
    /// the persistent index), then — when `allow_warm` — the nearest
    /// same-shape neighbour within the warm radius across memory and
    /// disk. With `allow_warm: false` a non-exact lookup counts as a
    /// miss, so telemetry matches what the executor actually serves.
    ///
    /// An exact-hash candidate whose shape or fingerprint disagrees with
    /// the request is a hash collision, not a hit: serving it would
    /// restore an incompatible surface, so it is demoted to a miss (it
    /// may still qualify as a warm start through the shape-checked
    /// nearest-neighbour path).
    pub fn lookup(
        &self,
        hash: u64,
        shape: ShapeKey,
        fingerprint: &[f64],
        allow_warm: bool,
    ) -> Lookup {
        let exact = {
            let shard = self.shard_read(shard_of(hash));
            shard.by_hash.get(&hash).map(|e| Arc::clone(&e.surface))
        };
        let exact = exact.or_else(|| self.promote_from_disk(hash));
        if let Some(entry) = exact {
            if entry.shape == shape && entry.fingerprint == fingerprint {
                self.inner.metrics.exact_hits.inc();
                return Lookup::Exact(entry);
            }
            // Collision: fall through to the warm path / miss.
        }

        if !allow_warm {
            self.inner.metrics.misses.inc();
            return Lookup::Miss;
        }

        let (best_mem, in_memory) = self.best_memory_candidate(shape, fingerprint);

        // Disk candidates are retried in nearest-first order: a corrupt
        // record file drops out of the index inside the restore, so the
        // next scan finds the next-nearest neighbour.
        loop {
            let best_disk = self.inner.store.as_ref().and_then(|store| {
                store
                    .best_candidate(shape, fingerprint, self.inner.warm_radius, |h| {
                        in_memory.contains(&h)
                    })
                    .map(|(d, entry)| (d, entry.hash.0))
            });
            let from_disk = match (best_mem.as_ref(), best_disk) {
                (Some((dm, _)), Some((dd, h))) if dd < *dm => Some(h),
                (None, Some((_, h))) => Some(h),
                _ => None,
            };
            match from_disk {
                Some(h) => {
                    if let Some(entry) = self.promote_from_disk(h) {
                        self.inner.metrics.warm_hits.inc();
                        return Lookup::Warm(entry);
                    }
                    // Corrupt candidate was skipped; rescan.
                }
                None => {
                    return match best_mem {
                        Some((_, surface)) => {
                            self.inner.metrics.warm_hits.inc();
                            Lookup::Warm(surface)
                        }
                        None => {
                            self.inner.metrics.misses.inc();
                            Lookup::Miss
                        }
                    };
                }
            }
        }
    }

    /// The nearest same-shape in-memory neighbour within the warm radius
    /// (ties broken toward the earliest deposit — deterministic and
    /// independent of shard/map iteration order), plus the set of all
    /// in-memory hashes (so the disk scan can skip entries already
    /// considered here). Shards are scanned one read lock at a time; a
    /// deposit racing the scan may be missed this round, exactly as it
    /// could have missed the old cache-wide mutex.
    fn best_memory_candidate(
        &self,
        shape: ShapeKey,
        fingerprint: &[f64],
    ) -> (Option<(f64, Arc<CachedSurface>)>, HashSet<u64>) {
        let mut in_memory = HashSet::new();
        let mut best: Option<(f64, u64, Arc<CachedSurface>)> = None;
        for i in 0..SHARD_COUNT {
            let shard = self.shard_read(i);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "the nearest entry wins, ties to the earliest deposit: no visit order shows"
            )]
            for (&h, entry) in &shard.by_hash {
                in_memory.insert(h);
                if entry.surface.shape != shape {
                    continue;
                }
                let d = fingerprint_distance(&entry.surface.fingerprint, fingerprint);
                let better = match &best {
                    None => true,
                    Some((bd, bseq, _)) => d < *bd || (d == *bd && entry.seq < *bseq),
                };
                if d <= self.inner.warm_radius && better {
                    best = Some((d, entry.seq, Arc::clone(&entry.surface)));
                }
            }
        }
        (best.map(|(d, _, surface)| (d, surface)), in_memory)
    }

    /// The nearest same-shape cached neighbour of `fingerprint` within
    /// the warm radius — in memory or in the persistent index — without
    /// restoring anything from disk and without touching the hit/miss
    /// telemetry. This is the serving front-end's "near miss" probe: it
    /// answers "what would a warm start use, and what did it cost?"
    /// from index metadata alone.
    pub fn nearest_neighbour(&self, shape: ShapeKey, fingerprint: &[f64]) -> Option<NeighbourInfo> {
        let (best_mem, in_memory) = self.best_memory_candidate(shape, fingerprint);
        let best_mem = best_mem.map(|(d, s)| NeighbourInfo {
            hash: HashId(s.hash),
            distance: d,
            cost_seconds: s.cost_seconds,
        });
        let best_disk = self.inner.store.as_ref().and_then(|store| {
            store
                .best_candidate(shape, fingerprint, self.inner.warm_radius, |h| {
                    in_memory.contains(&h)
                })
                .map(|(d, entry)| NeighbourInfo {
                    hash: entry.hash,
                    distance: d,
                    cost_seconds: entry.cost_seconds,
                })
        });
        match (best_mem, best_disk) {
            (Some(m), Some(d)) => Some(if d.distance < m.distance { d } else { m }),
            (m, d) => m.or(d),
        }
    }

    /// Deposits a solved policy surface: the policy is cloned once and
    /// that copy is what every later hit reads. Last writer wins on
    /// hash collisions of identical scenarios (the surfaces are
    /// interchangeable by construction). With a persistent store
    /// attached, the surface is written through atomically and the
    /// eviction policy is applied; surfaces evicted from disk are dropped
    /// from memory too, so the two tiers stay consistent.
    #[allow(clippy::too_many_arguments)]
    pub fn store_policy(
        &self,
        hash: u64,
        shape: ShapeKey,
        fingerprint: Vec<f64>,
        policy: &PolicySet,
        steps: usize,
        final_sup_change: f64,
        cost_seconds: f64,
    ) {
        let deposit_span =
            hddm_telemetry::SpanTimer::start(Arc::clone(&self.inner.metrics.deposit_seconds));
        let surface = Arc::new(CachedSurface {
            hash,
            shape,
            fingerprint,
            policy: policy.clone(),
            steps,
            final_sup_change,
            cost_seconds,
        });
        {
            let mut shard = self.shard_write(shard_of(hash));
            match shard.by_hash.get_mut(&hash) {
                Some(entry) => entry.surface = Arc::clone(&surface), // keep the eviction slot
                None => {
                    // ORDERING: Relaxed — uniqueness by RMW atomicity;
                    // the shard write lock orders the insertion itself.
                    let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
                    shard.by_hash.insert(
                        hash,
                        ShardEntry {
                            seq,
                            surface: Arc::clone(&surface),
                        },
                    );
                }
            }
        }
        if let Some(store) = &self.inner.store {
            match store.insert(&surface) {
                Ok(evicted) => {
                    if !evicted.is_empty() {
                        let span = hddm_telemetry::SpanTimer::start(Arc::clone(
                            &self.inner.metrics.evict_seconds,
                        ));
                        for h in evicted {
                            self.shard_write(shard_of(h)).by_hash.remove(&h);
                        }
                        span.stop();
                    }
                }
                Err(e) => eprintln!(
                    "hddm-scenarios: warning: failed to persist surface \
                     {hash:016x} ({e}); keeping it in memory only"
                ),
            }
        }
        deposit_span.stop();
    }

    /// Telemetry snapshot — a structured view over the registry's
    /// instruments. The gauges are refreshed first through the same path
    /// the registry's collect hook uses, so a [`Registry::snapshot`] taken
    /// at the same quiescent instant reports bit-identical values.
    pub fn stats(&self) -> CacheStats {
        self.refresh_gauges();
        let m = &self.inner.metrics;
        CacheStats {
            entries: m.entries.get() as usize,
            persisted_entries: m.persisted_entries.get() as usize,
            persisted_bytes: m.persisted_bytes.get(),
            exact_hits: m.exact_hits.get() as usize,
            warm_hits: m.warm_hits.get() as usize,
            misses: m.misses.get() as usize,
            disk_hits: m.disk_hits.get() as usize,
            evictions: m.evictions.get() as usize,
            skipped: m.skipped.get() as usize,
            lock_poisonings: m.lock_poisonings.get() as usize,
            concurrent_restores_peak: m.restores_peak.get() as usize,
        }
    }
}

/// Shard index of a hash. The scenario hash is FNV-1a — already
/// well-mixed — so the low bits select the shard directly.
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash as usize) % SHARD_COUNT
}

/// Why a cached surface could not be projected onto a target domain box.
/// Surfaces arriving from a persistent directory are data, not code:
/// incompatibilities must surface as errors the executor can catch (and
/// fall back to a cold solve), never as panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProjectionError {
    /// The target box dimensionality differs from the cached surface's.
    DimensionMismatch {
        /// Dimensionality of the cached surface's domain.
        cached: usize,
        /// Dimensionality of the requested target box (lo/hi lengths).
        target_lo: usize,
        /// Length of the target upper-bound vector.
        target_hi: usize,
    },
    /// The cached surface has no discrete states to project.
    EmptySurface,
}

impl std::fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectionError::DimensionMismatch {
                cached,
                target_lo,
                target_hi,
            } => write!(
                f,
                "projection dimension mismatch: cached surface is {cached}-dimensional, \
                 target box is {target_lo}/{target_hi}"
            ),
            ProjectionError::EmptySurface => {
                write!(f, "cached surface has no discrete states")
            }
        }
    }
}

impl std::error::Error for ProjectionError {}

/// Projects a cached policy surface onto a new scenario's domain box:
/// evaluates the cached interpolant (clamped into its own box, the
/// paper's domain truncation) on the target's start-level regular grid,
/// hierarchizes, and compresses — producing the warm-start `p⁰` in
/// exactly the representation the driver iterates on.
///
/// The whole target grid is mapped into the cached surface's unit cube
/// once and evaluated per state as **one batched kernel call** through
/// `backend` (an observing backend re-uses the cached surface's device
/// residency across states and requests) instead of one single-point
/// interpolation per grid point, and the target grid is compressed once —
/// the two hot costs of admitting a warm start on the serving path. Its
/// hierarchization [`Stencil`] is built once too.
pub fn project_policy_with(
    cached: &PolicySet,
    target_lo: &[f64],
    target_hi: &[f64],
    start_level: u8,
    kernel: KernelKind,
    backend: &ExecutionBackend,
) -> Result<PolicySet, ProjectionError> {
    let dim = cached.domain.dim();
    if target_lo.len() != dim || target_hi.len() != dim {
        return Err(ProjectionError::DimensionMismatch {
            cached: dim,
            target_lo: target_lo.len(),
            target_hi: target_hi.len(),
        });
    }
    if cached.states.num_states() == 0 {
        return Err(ProjectionError::EmptySurface);
    }
    let ndofs = cached.states.state(0).ndofs;
    let target = BoxDomain::new(target_lo.to_vec(), target_hi.to_vec());
    let grid = regular_grid(dim, start_level);

    // Target grid → target physical box → clamped into the cached box →
    // the cached surface's unit cube, gathered into one SoA block.
    let mut rows = Vec::with_capacity(grid.len() * dim);
    let mut unit = vec![0.0; dim];
    let mut phys = vec![0.0; dim];
    let mut cached_unit = vec![0.0; dim];
    for i in 0..grid.len() {
        grid.unit_point_of(i, &mut unit);
        target.from_unit(&unit, &mut phys);
        cached.domain.clamp(&mut phys);
        cached.domain.to_unit(&phys, &mut cached_unit);
        rows.extend_from_slice(&cached_unit);
    }
    let block = PointBlock::from_rows(dim, &rows);

    let cg = CompressedGrid::build(&grid); // shared by every state
    let stencil = Stencil::of(&grid);
    let mut scratch = Scratch::default();
    let states = (0..cached.states.num_states())
        .map(|z| {
            let mut values = vec![0.0; grid.len() * ndofs];
            backend.evaluate_batch(
                kernel,
                cached.states.state(z),
                &block,
                &mut scratch,
                &mut values,
            );
            stencil.hierarchize(&mut values, ndofs);
            let reordered = cg.reorder_rows(&values, ndofs);
            CompressedState::from_parts(cg.clone(), reordered, ndofs)
        })
        .collect();
    Ok(PolicySet::new(states, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, tabulate};
    use hddm_olg::PolicyOracle;

    fn shape() -> ShapeKey {
        ShapeKey {
            dim: 2,
            ndofs: 1,
            num_states: 1,
        }
    }

    /// The measured cost of `fingerprint`'s nearest cached neighbour —
    /// what the serving front-end's warm hint reports.
    fn nearest_cost(cache: &SurfaceCache, fingerprint: &[f64]) -> Option<f64> {
        cache
            .nearest_neighbour(shape(), fingerprint)
            .map(|n| n.cost_seconds)
    }

    /// A one-state policy set interpolating `f(x_phys) = a·x₀ + b·x₁`
    /// over `domain`.
    fn linear_policy(domain: &BoxDomain, a: f64, b: f64) -> PolicySet {
        let grid = regular_grid(2, 3);
        let mut phys = vec![0.0; 2];
        let mut values = tabulate(&grid, 1, |unit, out| {
            domain.from_unit(unit, &mut phys);
            out[0] = a * phys[0] + b * phys[1];
        });
        hierarchize(&grid, &mut values, 1);
        let cg = CompressedGrid::build(&grid);
        let reordered = cg.reorder_rows(&values, 1);
        PolicySet::new(
            vec![CompressedState::from_parts(cg, reordered, 1)],
            domain.clone(),
        )
    }

    #[test]
    fn exact_beats_warm_beats_miss() {
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);

        assert!(matches!(
            cache.lookup(77, shape(), &[0.95, 2.0], true),
            Lookup::Exact(_)
        ));
        // Different hash, close fingerprint → warm.
        match cache.lookup(78, shape(), &[0.953, 2.0], true) {
            Lookup::Warm(s) => assert_eq!(s.hash, 77),
            other => panic!("expected warm, got {other:?}"),
        }
        // Too far → miss.
        assert!(matches!(
            cache.lookup(79, shape(), &[0.5, 2.0], true),
            Lookup::Miss
        ));
        // Different shape → miss even when the fingerprint matches.
        let other_shape = ShapeKey {
            dim: 3,
            ndofs: 1,
            num_states: 1,
        };
        assert!(matches!(
            cache.lookup(80, other_shape, &[0.95, 2.0], true),
            Lookup::Miss
        ));
        let stats = cache.stats();
        assert_eq!(
            (
                stats.entries,
                stats.exact_hits,
                stats.warm_hits,
                stats.misses
            ),
            (1, 1, 1, 2)
        );
    }

    #[test]
    fn warm_lookup_picks_the_nearest_neighbour() {
        let cache = SurfaceCache::new(0.2);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 0.0);
        cache.store_policy(1, shape(), vec![0.90], &policy, 5, 1e-8, 0.1);
        cache.store_policy(2, shape(), vec![0.96], &policy, 5, 1e-8, 0.1);
        cache.store_policy(3, shape(), vec![0.99], &policy, 5, 1e-8, 0.1);
        match cache.lookup(99, shape(), &[0.95], true) {
            Lookup::Warm(s) => assert_eq!(s.hash, 2),
            other => panic!("expected warm, got {other:?}"),
        }
    }

    #[test]
    fn equal_distance_ties_prefer_the_earliest_deposit() {
        // Hashes 10 and 26 land in the same shard (26 % 16 == 10), 11 in
        // another; all three sit at identical fingerprint distance from
        // the query. The winner must be the earliest deposit (seq order),
        // independent of shard layout or HashMap iteration order.
        let cache = SurfaceCache::new(0.2);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 0.0);
        cache.store_policy(26, shape(), vec![0.96], &policy, 5, 1e-8, 0.1);
        cache.store_policy(11, shape(), vec![0.96], &policy, 5, 1e-8, 0.2);
        cache.store_policy(10, shape(), vec![0.96], &policy, 5, 1e-8, 0.3);
        match cache.lookup(99, shape(), &[0.95], true) {
            Lookup::Warm(s) => assert_eq!(s.hash, 26, "earliest deposit wins ties"),
            other => panic!("expected warm, got {other:?}"),
        }
        assert_eq!(nearest_cost(&cache, &[0.95]), Some(0.1));
    }

    #[test]
    fn cached_surface_restores_bitwise() {
        let cache = SurfaceCache::default();
        let domain = BoxDomain::new(vec![-1.0, 2.0], vec![1.0, 5.0]);
        let policy = linear_policy(&domain, 0.7, -0.3);
        cache.store_policy(5, shape(), vec![1.0], &policy, 3, 1e-9, 0.2);
        let Lookup::Exact(surface) = cache.lookup(5, shape(), &[1.0], true) else {
            panic!("expected exact hit");
        };
        let restored = surface.restore_policy();
        let mut oa = policy.oracle(KernelKind::X86);
        let mut ob = restored.oracle(KernelKind::X86);
        let mut a = [0.0];
        let mut b = [0.0];
        for probe in [[-0.5, 2.5], [0.0, 3.0], [0.9, 4.9]] {
            oa.eval(0, &probe, &mut a);
            ob.eval(0, &probe, &mut b);
            assert_eq!(a[0].to_bits(), b[0].to_bits(), "probe {probe:?}");
        }
    }

    #[test]
    fn a_warm_hit_hands_out_the_deposited_policy_without_copying_it() {
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);
        let Lookup::Warm(surface) = cache.lookup(78, shape(), &[0.953, 2.0], true) else {
            panic!("expected a warm hit");
        };
        let surplus = |p: &PolicySet| p.states.state(0).surplus.as_ptr();
        assert_eq!(
            surplus(surface.restore_policy()),
            surplus(surface.restore_policy()),
            "two reads of one surface see one allocation"
        );
        assert_ne!(surplus(surface.restore_policy()), surplus(&policy));
    }

    #[test]
    fn projection_reproduces_the_surface_on_an_overlapping_box() {
        // Cached: linear surface on [0,1]². Target: the sub-box
        // [0.2,0.8]×[0.1,0.9]. A piecewise-linear interpolant of a linear
        // function is exact, so the projection must reproduce the
        // function on the whole target box.
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let cached = linear_policy(&domain, 2.0, -1.0);
        let projected = project_policy_with(
            &cached,
            &[0.2, 0.1],
            &[0.8, 0.9],
            3,
            KernelKind::X86,
            &ExecutionBackend::Cpu,
        )
        .unwrap();
        let mut oracle = projected.oracle(KernelKind::X86);
        let mut out = [0.0];
        for probe in [[0.25, 0.3], [0.5, 0.5], [0.75, 0.85]] {
            oracle.eval(0, &probe, &mut out);
            let want = 2.0 * probe[0] - probe[1];
            assert!(
                (out[0] - want).abs() < 1e-10,
                "probe {probe:?}: {} vs {want}",
                out[0]
            );
        }
    }

    #[test]
    fn exact_hash_collisions_are_demoted_to_misses() {
        // Same hash, incompatible shape or fingerprint: serving the entry
        // as an exact hit would restore an unusable surface. The lookup
        // must fall through instead of trusting the bare hash.
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);

        // Colliding hash with a different shape: miss, not exact.
        let other_shape = ShapeKey {
            dim: 3,
            ndofs: 1,
            num_states: 1,
        };
        assert!(matches!(
            cache.lookup(77, other_shape, &[0.95, 2.0], true),
            Lookup::Miss
        ));
        // Colliding hash with a far fingerprint: miss, not exact.
        assert!(matches!(
            cache.lookup(77, shape(), &[0.5, 2.0], true),
            Lookup::Miss
        ));
        // Colliding hash with a *near* (but unequal) fingerprint: the
        // shape-checked nearest-neighbour path may still serve it as a
        // warm start — never as exact.
        match cache.lookup(77, shape(), &[0.951, 2.0], true) {
            Lookup::Warm(s) => assert_eq!(s.hash, 77),
            other => panic!("expected warm, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 0);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.misses, 2);

        // The genuine exact lookup still works.
        assert!(matches!(
            cache.lookup(77, shape(), &[0.95, 2.0], true),
            Lookup::Exact(_)
        ));
    }

    #[test]
    fn projection_rejects_incompatible_surfaces_without_panicking() {
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let cached = linear_policy(&domain, 1.0, 0.0);
        // Wrong target dimensionality: typed error, no assert.
        let project = |lo: &[f64], hi: &[f64]| {
            project_policy_with(&cached, lo, hi, 3, KernelKind::X86, &ExecutionBackend::Cpu)
        };
        let err = project(&[0.2], &[0.8]).unwrap_err();
        assert_eq!(
            err,
            ProjectionError::DimensionMismatch {
                cached: 2,
                target_lo: 1,
                target_hi: 1
            }
        );
        // Mismatched lo/hi lengths are caught too (previously an assert
        // inside BoxDomain).
        let err = project(&[0.2, 0.1], &[0.8]).unwrap_err();
        assert!(matches!(err, ProjectionError::DimensionMismatch { .. }));
        // Both variants render a diagnostic.
        assert!(err.to_string().contains("dimension mismatch"));
        assert!(ProjectionError::EmptySurface
            .to_string()
            .contains("no discrete states"));
    }

    #[test]
    fn cost_feedback_returns_the_nearest_measured_cost() {
        let cache = SurfaceCache::new(0.2);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 0.0);
        assert_eq!(nearest_cost(&cache, &[0.95]), None);
        cache.store_policy(1, shape(), vec![0.90], &policy, 5, 1e-8, 1.5);
        cache.store_policy(2, shape(), vec![0.96], &policy, 5, 1e-8, 2.5);
        assert_eq!(nearest_cost(&cache, &[0.95]), Some(2.5));
        assert_eq!(nearest_cost(&cache, &[0.90]), Some(1.5));
    }

    #[test]
    fn nearest_neighbour_peeks_without_touching_hit_telemetry() {
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);

        let near = cache.nearest_neighbour(shape(), &[0.951, 2.0]).unwrap();
        assert_eq!(near.hash, HashId(77));
        assert!(near.distance > 0.0 && near.distance <= 0.05);
        assert_eq!(near.cost_seconds, 0.5);
        // Out of radius / wrong shape → None.
        assert!(cache.nearest_neighbour(shape(), &[0.5, 2.0]).is_none());
        // The peek is invisible to the hit/miss counters.
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.warm_hits, stats.misses), (0, 0, 0));
    }

    #[test]
    fn lookup_exact_probe_counts_hits_but_never_misses() {
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);

        // Probe misses (unknown hash, colliding fingerprint) count
        // nothing: the enqueued solve's own lookup will account for them.
        assert!(cache.lookup_exact(99, shape(), &[0.95, 2.0]).is_none());
        assert!(cache.lookup_exact(77, shape(), &[0.5, 2.0]).is_none());
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.misses), (0, 0));

        // A probe hit counts as an exact hit, like the full lookup.
        let surface = cache.lookup_exact(77, shape(), &[0.95, 2.0]).unwrap();
        assert_eq!(surface.hash, 77);
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.misses), (1, 0));
    }

    #[test]
    fn clones_share_entries_and_telemetry() {
        let cache = SurfaceCache::new(0.05);
        let clone = cache.clone();
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(7, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);
        assert!(matches!(
            clone.lookup(7, shape(), &[0.95, 2.0], false),
            Lookup::Exact(_)
        ));
        assert_eq!(cache.stats().exact_hits, 1);
        assert_eq!(clone.stats().entries, 1);
    }

    #[test]
    fn poisoned_shard_locks_are_recovered_and_counted() {
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);

        // Panic while holding the write lock of hash 77's shard — the
        // cross-thread situation a crashing sweep thread creates.
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.shards[shard_of(77)].write().unwrap();
            panic!("poison the shard");
        })
        .join();

        // Every path over the poisoned shard still works…
        assert!(matches!(
            cache.lookup(77, shape(), &[0.95, 2.0], true),
            Lookup::Exact(_)
        ));
        cache.store_policy(77 + 16, shape(), vec![0.96, 2.0], &policy, 9, 1e-8, 0.5);
        assert_eq!(cache.stats().entries, 2);
        // …and the recovery is visible in the telemetry.
        assert!(
            cache.stats().lock_poisonings >= 1,
            "poisoning recovery must be counted"
        );
    }

    #[test]
    fn stats_and_registry_snapshot_agree_bit_for_bit() {
        let cache = SurfaceCache::new(0.05);
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);
        // Traffic over every counter class: exact, warm, miss.
        let _ = cache.lookup(77, shape(), &[0.95, 2.0], true);
        let _ = cache.lookup(78, shape(), &[0.953, 2.0], true);
        let _ = cache.lookup(79, shape(), &[0.5, 2.0], true);

        let stats = cache.stats();
        let snap = cache.registry().snapshot();
        let counter = |name: &str| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let gauge = |name: &str| snap.gauge(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            stats.exact_hits as u64,
            counter("hddm_cache_exact_hits_total")
        );
        assert_eq!(
            stats.warm_hits as u64,
            counter("hddm_cache_warm_hits_total")
        );
        assert_eq!(stats.misses as u64, counter("hddm_cache_misses_total"));
        assert_eq!(
            stats.disk_hits as u64,
            counter("hddm_cache_disk_hits_total")
        );
        assert_eq!(stats.entries as u64, gauge("hddm_cache_entries"));
        assert_eq!(
            stats.persisted_entries as u64,
            gauge("hddm_cache_persisted_entries")
        );
        assert_eq!(stats.persisted_bytes, gauge("hddm_cache_persisted_bytes"));
        assert_eq!(stats.evictions as u64, gauge("hddm_cache_evictions"));
        assert_eq!(stats.skipped as u64, gauge("hddm_cache_skipped"));
        assert_eq!(
            stats.lock_poisonings as u64,
            gauge("hddm_cache_lock_poisonings")
        );
        assert_eq!(
            stats.concurrent_restores_peak as u64,
            gauge("hddm_cache_concurrent_restores_peak")
        );
        // Deposits were timed.
        let deposit = snap.histogram("hddm_cache_deposit_seconds").unwrap();
        assert_eq!(deposit.count, 1);
        // Separate caches own separate registries: no cross-talk.
        let other = SurfaceCache::default();
        assert_eq!(
            other
                .registry()
                .snapshot()
                .counter("hddm_cache_misses_total"),
            Some(0)
        );
    }
}
