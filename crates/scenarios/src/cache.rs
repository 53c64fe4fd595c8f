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
//! The cache is a cheaply clonable handle (`Arc` inside) over **one
//! catalogue** of every surface it knows: the records listed from its
//! directory at open, then every deposit. Each entry holds what a lookup
//! decides on (shape, fingerprint, measured cost), the size of its
//! committed record file, and the surface itself once deposited or
//! restored. The catalogue is split into `RwLock`-guarded shards selected
//! by hash, so concurrent exact-hit readers only contend when they hit the
//! same shard — and even then only on a shared read lock. A warm lookup and
//! the near-miss probe are one scan over the shards with one tie rule: the
//! nearest entry wins, and among equals the one the cache learned of first
//! (records in open order, then deposits in deposit order; a restore or a
//! re-deposit keeps an entry's place).
//!
//! Record-file I/O happens **outside every lock** (see [`crate::persist`]):
//! each entry holds its surface in a shared once-cell slot, and a lazy
//! restore clones the slot under a shard read guard, drops the guard, and
//! fills the slot from the record file. The slot restores each surface from
//! disk at most once no matter how many readers race for it: the others
//! wait inside the slot and are handed the same `Arc`.
//!
//! Poisoned locks are recovered, not propagated: every guarded region
//! leaves the cache structurally consistent (a restore, a deposit, a commit
//! and an eviction each change one entry), so a panicking sweep thread must
//! not poison the cache for every other thread. Recoveries are counted in
//! [`CacheStats::lock_poisonings`].
//!
//! ## Write-behind commit stage
//!
//! A deposit ([`SurfaceCache::store_policy`]) puts the surface in its
//! catalogue entry, where every lookup sees it at once, and — for a cache
//! over a directory — enqueues the same `Arc` for the commit stage. The
//! depositor does not wait for the disk: the next scenario of a sweep
//! starts, and a served miss's ticket is fulfilled, while one writer
//! thread commits behind them. The writer starts with the first deposit
//! after a flush and runs until the next flush ([`SurfaceCache::flush`])
//! finds the queue empty; the last handle's drop flushes, so no writer
//! outlives its cache, and opening a cache starts none. It commits in
//! groups: it takes everything queued, writes, fsyncs and renames each
//! record in deposit order, marks its entry committed and applies the
//! eviction policy to the catalogue, and then fsyncs the directory once for
//! the whole group. Eviction takes the oldest committed record first (a
//! re-deposit's commit moves it to the back) and its entry, surface
//! included, with it; a budget below one surface evicts the record just
//! committed but keeps its surface in memory, with a warning. A record that
//! cannot be written stays in memory only, with a warning, counted in
//! `hddm_cache_commit_failures_total`. At most `COMMIT_BACKLOG` (64)
//! deposits wait uncommitted; a deposit beyond that waits for the writer.
//!
//! A deposit is durable once a flush returns. A batch flushes before it
//! returns, so `run_batch`, `run_set` and `run_single` return with their
//! deposits committed, and a serving dispatcher takes its next batch only
//! then. A crash before the commit loses the deposit, which costs one
//! re-solve; a crash inside it leaves a `.tmp-*` file that the next open
//! removes (see [`crate::persist`]).

use std::collections::{hash_map, HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
use std::thread::JoinHandle;

use serde::Serialize;

use hddm_core::PolicySet;
use hddm_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::hash::{fingerprint_distance, HashId};
use crate::persist::{EvictionPolicy, Listed, Store};

/// Number of `RwLock` shards the catalogue is split across. A small
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Surfaces currently held in memory (summed over shards): deposits
    /// and restored records.
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
    /// Poisoned cache locks recovered — catalogue shards, the commit
    /// backlog, the writer handle (a sweep thread panicked while holding
    /// one; the guarded state is crash-consistent by construction, so the
    /// lock is cleared and reused).
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

/// One shard of the catalogue.
#[derive(Default)]
struct Shard {
    by_hash: HashMap<u64, Entry>,
}

impl Shard {
    /// Takes `hash`'s committed record `order` out of the catalogue, and
    /// the entry with it unless `keep_loaded` and the entry holds its
    /// surface. False when the entry no longer lists that record: another
    /// thread dropped it, or a newer commit replaced it.
    fn drop_record(&mut self, hash: u64, order: u64, keep_loaded: bool) -> bool {
        let Some(entry) = self.by_hash.get_mut(&hash) else {
            return false;
        };
        if entry.record.is_none_or(|r| r.order != order) {
            return false;
        }
        entry.record = None;
        if !(keep_loaded && entry.loaded().is_some()) {
            self.by_hash.remove(&hash);
        }
        true
    }
}

/// A surface the cache knows: a record listed at open, or a deposit. It
/// holds a committed record, a loaded surface, or both.
///
/// The surface lives in a shared slot. A deposit's slot is filled at once;
/// a listed record's slot is filled by its first restore (see
/// [`SurfaceCache::promote_from_disk`]) with the restored surface, or with
/// `None` when the record cannot be read. A deposit replaces the slot, so
/// readers already waiting on a restore of the old one are served the
/// restored surface while the catalogue keeps the deposit.
struct Entry {
    /// When the cache learned of the surface: the nearest-neighbour
    /// tie-breaker, independent of shard layout. A restore or a re-deposit
    /// keeps it.
    seq: u64,
    shape: ShapeKey,
    fingerprint: Vec<f64>,
    /// Measured wall-clock seconds of the producing solve.
    cost_seconds: f64,
    /// The committed record file: `None` while the deposit waits for its
    /// commit, after a failed commit, and under a budget below one surface.
    record: Option<Record>,
    /// The surface, once deposited or restored from its record.
    slot: Slot,
}

/// An entry's surface slot: empty until deposited or restored; `None` after
/// a failed restore.
type Slot = Arc<OnceLock<Option<Arc<CachedSurface>>>>;

impl Entry {
    /// The entry of a deposit the cache learns of `seq`-th, not yet
    /// committed.
    fn deposited(seq: u64, surface: &Arc<CachedSurface>) -> Entry {
        Entry {
            seq,
            shape: surface.shape,
            fingerprint: surface.fingerprint.clone(),
            cost_seconds: surface.cost_seconds,
            record: None,
            slot: Arc::new(OnceLock::from(Some(Arc::clone(surface)))),
        }
    }

    /// The surface, if the entry holds it.
    fn loaded(&self) -> Option<&Arc<CachedSurface>> {
        self.slot.get()?.as_ref()
    }
}

/// An entry's committed record file.
#[derive(Clone, Copy)]
struct Record {
    /// Commit order (open order for a listed record): eviction takes the
    /// smallest.
    order: u64,
    bytes: u64,
}

/// One pass over the catalogue: what the gauges and the eviction policy
/// read.
#[derive(Default)]
struct Census {
    /// Entries holding their surface.
    loaded: usize,
    /// Committed records, and their bytes.
    records: usize,
    bytes: u64,
    /// The oldest committed record: (order, hash, bytes).
    oldest: Option<(u64, u64, u64)>,
}

/// The catalogue: its shards, the counter its orders draw from, and the
/// tallies of the cache's lock recoveries, evictions and removed records.
/// Shared by every handle and by the commit stage's writer.
struct Catalogue {
    shards: Vec<RwLock<Shard>>,
    /// The next [`Entry::seq`] or [`Record::order`]: one counter, so each
    /// order is the order its numbers were drawn in.
    seq: AtomicU64,
    lock_poisonings: AtomicUsize,
    /// Committed records evicted by the size policy.
    evictions: AtomicUsize,
    /// Unusable records removed, at open or on a failed restore.
    skipped: AtomicUsize,
}

impl Catalogue {
    /// A catalogue of the records a directory listed, in open order, and
    /// the count of files its open removed.
    fn new(records: Vec<Listed>, skipped: usize) -> Catalogue {
        let mut shards: Vec<Shard> = (0..SHARD_COUNT).map(|_| Shard::default()).collect();
        let listed = records.len() as u64;
        for (seq, record) in (0..).zip(records) {
            let entry = Entry {
                seq,
                shape: record.shape,
                fingerprint: record.fingerprint,
                cost_seconds: record.cost_seconds,
                record: Some(Record {
                    order: seq,
                    bytes: record.bytes,
                }),
                slot: Slot::default(),
            };
            shards[shard_of(record.hash)]
                .by_hash
                .insert(record.hash, entry);
        }
        Catalogue {
            shards: shards.into_iter().map(RwLock::new).collect(),
            seq: AtomicU64::new(listed),
            lock_poisonings: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            skipped: AtomicUsize::new(skipped),
        }
    }

    fn next(&self) -> u64 {
        // ORDERING: Relaxed — uniqueness by RMW atomicity; the shard write
        // lock orders the entry update that uses the number.
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts the catalogue, one shard read guard at a time.
    fn census(&self) -> Census {
        let mut census = Census::default();
        for i in 0..SHARD_COUNT {
            let shard = self.shard_read(i);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "sums and the smallest commit order: no visit order shows"
            )]
            for (&hash, entry) in &shard.by_hash {
                census.loaded += usize::from(entry.loaded().is_some());
                let Some(record) = entry.record else {
                    continue;
                };
                census.records += 1;
                census.bytes += record.bytes;
                if census
                    .oldest
                    .is_none_or(|(order, _, _)| record.order < order)
                {
                    census.oldest = Some((record.order, hash, record.bytes));
                }
            }
        }
        census
    }

    // ----- lock plumbing (poisoning-recovering) ------------------------

    /// The guard of `result`; a poisoned one is counted, cleared by
    /// `clear` and used.
    fn recovered<G>(&self, result: LockResult<G>, clear: impl FnOnce()) -> G {
        result.unwrap_or_else(|poisoned| {
            // ORDERING: Relaxed — recovery tally; no ordering dependency.
            self.lock_poisonings.fetch_add(1, Ordering::Relaxed);
            clear();
            poisoned.into_inner()
        })
    }

    fn read<'a, T>(&self, lock: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        self.recovered(lock.read(), || lock.clear_poison())
    }

    fn write<'a, T>(&self, lock: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
        self.recovered(lock.write(), || lock.clear_poison())
    }

    fn lock<'a, T>(&self, lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
        self.recovered(lock.lock(), || lock.clear_poison())
    }

    /// Waits on `cv` until `condition` no longer holds. A wake to a lock a
    /// panicking holder poisoned is recovered, and the wait goes on.
    fn wait_while<'a, T>(
        &self,
        cv: &Condvar,
        lock: &'a Mutex<T>,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.recovered(cv.wait_while(guard, &mut condition), || lock.clear_poison());
        }
        guard
    }

    fn shard_read(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        self.read(&self.shards[i])
    }

    fn shard_write(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        self.write(&self.shards[i])
    }
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
    commit: CommitInstruments,
}

/// The commit stage's instruments. Registered by every cache, so a
/// snapshot names them whether or not a directory backs the cache.
#[derive(Clone)]
struct CommitInstruments {
    /// One sample per group commit: its records' writes, renames and
    /// evictions, and the one directory fsync.
    seconds: Arc<Histogram>,
    records: Arc<Counter>,
    failures: Arc<Counter>,
    /// The most deposits ever enqueued and not yet committed at once.
    queue_peak: Arc<Gauge>,
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
            commit: CommitInstruments {
                seconds: registry.histogram("hddm_cache_commit_seconds"),
                records: registry.counter("hddm_cache_commit_records_total"),
                failures: registry.counter("hddm_cache_commit_failures_total"),
                queue_peak: registry.gauge("hddm_cache_commit_queue_peak"),
                evict_seconds: registry.histogram("hddm_cache_evict_seconds"),
            },
            registry,
        }
    }
}

struct CacheInner {
    catalogue: Arc<Catalogue>,
    /// The persistent backing store with its commit stage, fixed at
    /// construction.
    stage: Option<CommitStage>,
    /// Maximum fingerprint distance a warm start may bridge.
    warm_radius: f64,
    metrics: CacheInstruments,
    restoring_now: AtomicUsize,
    restore_peak: AtomicUsize,
    restore_hook: RwLock<Option<RestoreHook>>,
}

impl CacheInner {
    fn store(&self) -> Option<&Store> {
        self.stage.as_ref().map(|stage| &stage.shared.store)
    }
}

/// The shared, thread-safe surface cache — a cheap clonable handle; all
/// clones observe the same entries and telemetry. Nearest-neighbour ties go
/// to the entry the cache learned of first, so warm-start choices stay
/// deterministic given a deterministic execution order.
///
/// Optionally backed by a persistent cache directory (see
/// [`SurfaceCache::open`]): its records join the catalogue at open, a hit
/// on one is lazily restored from its record file — concurrently, outside
/// any lock, at most once per entry — and kept in its entry, and every
/// deposit is committed to disk behind the depositor by the write-behind
/// commit stage.
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
        SurfaceCache::build(warm_radius, Catalogue::new(Vec::new(), 0), None)
    }

    fn build(
        warm_radius: f64,
        catalogue: Catalogue,
        store: Option<(Store, EvictionPolicy)>,
    ) -> SurfaceCache {
        let registry = Registry::new();
        let metrics = CacheInstruments::new(registry.clone());
        let catalogue = Arc::new(catalogue);
        let stage = store.map(|(store, policy)| {
            CommitStage::new(store, policy, &catalogue, metrics.commit.clone())
        });
        let cache = SurfaceCache {
            inner: Arc::new(CacheInner {
                catalogue,
                stage,
                warm_radius,
                metrics,
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
        let catalogue = &self.inner.catalogue;
        let census = catalogue.census();
        let m = &self.inner.metrics;
        m.entries.set(census.loaded as u64);
        m.persisted_entries.set(census.records as u64);
        m.persisted_bytes.set(census.bytes);
        // ORDERING: Relaxed — tally scrapes; staleness by an in-flight
        // eviction, removal or recovery is acceptable for exposition.
        let tally = |count: &AtomicUsize| count.load(Ordering::Relaxed) as u64;
        m.evictions.set(tally(&catalogue.evictions));
        m.skipped.set(tally(&catalogue.skipped));
        m.lock_poisonings.set(tally(&catalogue.lock_poisonings));
        // ORDERING: Relaxed — the peak is maintained by atomic fetch_max
        // (RMWs on one atomic are totally ordered); this scrape infers
        // nothing about other memory from the value.
        let peak = self.inner.restore_peak.load(Ordering::Relaxed);
        m.restores_peak.set(peak as u64);
    }

    /// Opens a cache backed by the persistent directory `dir` (created if
    /// missing) with an unbounded eviction policy. The directory's records
    /// are listed into the catalogue immediately; surfaces are restored
    /// lazily on first hit.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<SurfaceCache, String> {
        SurfaceCache::open_with(dir, EvictionPolicy::default())
    }

    /// [`SurfaceCache::open`] with an explicit eviction policy.
    pub fn open_with<P: AsRef<Path>>(
        dir: P,
        policy: EvictionPolicy,
    ) -> Result<SurfaceCache, String> {
        let (store, records, skipped) = Store::open(dir)?;
        Ok(SurfaceCache::build(
            DEFAULT_WARM_RADIUS,
            Catalogue::new(records, skipped),
            Some((store, policy)),
        ))
    }

    /// Catalogue entries in each shard, loaded or not — per-shard
    /// telemetry for concurrency tests and load inspection.
    pub fn shard_entries(&self) -> Vec<usize> {
        (0..SHARD_COUNT)
            .map(|i| self.inner.catalogue.shard_read(i).by_hash.len())
            .collect()
    }

    /// Installs an instrumentation hook invoked (outside all locks) for
    /// every record-file restore; see [`RestoreHook`]. Pass-through for
    /// tests and latency tracing — not part of the caching semantics.
    pub fn set_restore_hook(&self, hook: RestoreHook) {
        *self.inner.catalogue.write(&self.inner.restore_hook) = Some(hook);
    }

    // ----- disk promotion (restore-once, I/O outside locks) ------------

    /// Restores the listed record of `hash` into its catalogue entry's
    /// slot. `None` when there is no store, the catalogue lists no record
    /// of the hash, or its record file is corrupt (skipped with a warning
    /// and dropped from the catalogue).
    ///
    /// Restore-once guarantee: concurrent callers for the same hash share
    /// the entry's slot, so one of them reads the record file and the rest
    /// wait in `get_or_init` for its surface. Callers for *different*
    /// hashes proceed fully in parallel — the file read holds no lock at
    /// all. A restore that unwinds leaves the slot empty for the next
    /// reader. An entry evicted during the read is served, not kept.
    fn promote_from_disk(&self, hash: u64) -> Option<Arc<CachedSurface>> {
        let store = self.inner.store()?;
        let (slot, shape, fingerprint, record) = {
            let shard = self.inner.catalogue.shard_read(shard_of(hash));
            let entry = shard.by_hash.get(&hash)?;
            let slot = Arc::clone(&entry.slot);
            (slot, entry.shape, entry.fingerprint.clone(), entry.record)
        };
        slot.get_or_init(|| self.restore(store, hash, shape, &fingerprint, record?.order))
            .clone()
    }

    /// Reads and validates the record file of `hash` (committed `order`-th)
    /// with **no lock held**. A record that cannot be read is removed and
    /// dropped from the catalogue.
    fn restore(
        &self,
        store: &Store,
        hash: u64,
        shape: ShapeKey,
        fingerprint: &[f64],
        order: u64,
    ) -> Option<Arc<CachedSurface>> {
        let catalogue = &self.inner.catalogue;
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
        // against unrelated memory is irrelevant.
        let now = self.inner.restoring_now.fetch_add(1, Ordering::Relaxed) + 1;
        let _gauge = GaugeGuard(&self.inner);
        // ORDERING: Relaxed — atomic fetch_max maintains the peak
        // exactly; no reader infers other state from it.
        self.inner.restore_peak.fetch_max(now, Ordering::Relaxed);
        let hook = catalogue.read(&self.inner.restore_hook).clone();
        if let Some(hook) = hook {
            hook(hash);
        }
        let span =
            hddm_telemetry::SpanTimer::start(Arc::clone(&self.inner.metrics.restore_seconds));
        let read = store.read_record(hash, shape, fingerprint);
        span.stop();
        drop(_gauge);

        match read {
            Ok(surface) => {
                self.inner.metrics.disk_hits.inc();
                Some(Arc::new(surface))
            }
            Err(e) => {
                eprintln!(
                    "hddm-scenarios: warning: skipping corrupt cached surface {} ({e})",
                    HashId(hash)
                );
                let dropped = catalogue
                    .shard_write(shard_of(hash))
                    .drop_record(hash, order, true);
                // An eviction or a newer commit may have dropped it first;
                // only the thread that dropped it deletes and counts it.
                if dropped {
                    store.remove_record(hash);
                    // ORDERING: Relaxed — statistics tally; no ordering
                    // dependency.
                    catalogue.skipped.fetch_add(1, Ordering::Relaxed);
                }
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
        // A colliding hash with an incompatible shape/fingerprint is a
        // miss, exactly as in `lookup`, and restores nothing.
        let loaded = {
            let shard = self.inner.catalogue.shard_read(shard_of(hash));
            let entry = shard.by_hash.get(&hash)?;
            if entry.shape != shape || entry.fingerprint != fingerprint {
                return None;
            }
            entry.loaded().cloned()
        };
        let surface = loaded.or_else(|| self.promote_from_disk(hash))?;
        self.inner.metrics.exact_hits.inc();
        Some(surface)
    }

    /// Looks up a surface for the scenario identified by `hash`,
    /// `shape`, and `fingerprint`: exact hash match first, then — when
    /// `allow_warm` — the nearest same-shape neighbour within the warm
    /// radius, restored from disk if it is not loaded yet. With
    /// `allow_warm: false` a non-exact lookup counts as a miss, so
    /// telemetry matches what the executor actually serves.
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
        // A collision falls through to the warm path / miss.
        if let Some(surface) = self.lookup_exact(hash, shape, fingerprint) {
            return Lookup::Exact(surface);
        }
        // A corrupt record drops out of the catalogue inside its restore,
        // so the next scan finds the next-nearest neighbour.
        if allow_warm {
            while let Some((near, loaded)) = self.nearest(shape, fingerprint) {
                let surface = loaded.or_else(|| self.promote_from_disk(near.hash.0));
                if let Some(surface) = surface {
                    self.inner.metrics.warm_hits.inc();
                    return Lookup::Warm(surface);
                }
            }
        }
        self.inner.metrics.misses.inc();
        Lookup::Miss
    }

    /// The nearest same-shape catalogue entry within the warm radius, ties
    /// to the entry learned of first — deterministic and independent of
    /// shard/map iteration order. Shards are scanned one read lock at a
    /// time; a deposit racing the scan may be missed this round, exactly
    /// as it could have missed a cache-wide mutex.
    fn nearest(
        &self,
        shape: ShapeKey,
        fingerprint: &[f64],
    ) -> Option<(NeighbourInfo, Option<Arc<CachedSurface>>)> {
        let mut best: Option<(u64, NeighbourInfo, Option<Arc<CachedSurface>>)> = None;
        for i in 0..SHARD_COUNT {
            let shard = self.inner.catalogue.shard_read(i);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "the nearest entry wins, ties to the one learned of first: no visit order shows"
            )]
            for (&hash, entry) in &shard.by_hash {
                if entry.shape != shape {
                    continue;
                }
                let d = fingerprint_distance(&entry.fingerprint, fingerprint);
                let better = best.as_ref().is_none_or(|(seq, b, _)| {
                    d < b.distance || (d == b.distance && entry.seq < *seq)
                });
                if d <= self.inner.warm_radius && better {
                    let near = NeighbourInfo {
                        hash: HashId(hash),
                        distance: d,
                        cost_seconds: entry.cost_seconds,
                    };
                    best = Some((entry.seq, near, entry.loaded().cloned()));
                }
            }
        }
        best.map(|(_, near, surface)| (near, surface))
    }

    /// The nearest same-shape cached neighbour of `fingerprint` within
    /// the warm radius, loaded or not, by the rule a warm
    /// [`SurfaceCache::lookup`] follows — without restoring anything from
    /// disk and without touching the hit/miss telemetry. This is the
    /// serving front-end's "near miss" probe: it answers "what would a warm
    /// start use, and what did it cost?" from the catalogue alone.
    pub fn nearest_neighbour(&self, shape: ShapeKey, fingerprint: &[f64]) -> Option<NeighbourInfo> {
        self.nearest(shape, fingerprint).map(|(near, _)| near)
    }

    /// Deposits a solved policy surface: the policy is cloned once and
    /// that copy is what every later hit reads. Last writer wins on
    /// hash collisions of identical scenarios (the surfaces are
    /// interchangeable by construction); a re-deposit keeps its entry's
    /// place and replaces its slot, so readers already waiting on a restore
    /// of the hash are served the restored surface while the catalogue
    /// keeps the deposit. The surface is served from memory as soon as this
    /// returns.
    /// With a persistent store attached, the same `Arc` is enqueued for the
    /// commit stage, which writes it to disk behind the caller and applies
    /// the eviction policy; an evicted entry leaves the catalogue, surface
    /// included. The deposit is durable once [`SurfaceCache::flush`]
    /// returns (as [`crate::run_batch`] and [`crate::run_set`] do before
    /// returning) or the cache's last handle drops. When the backlog of
    /// uncommitted deposits is full, this waits for the writer.
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
            let catalogue = &self.inner.catalogue;
            let mut shard = catalogue.shard_write(shard_of(hash));
            match shard.by_hash.entry(hash) {
                hash_map::Entry::Occupied(mut known) => {
                    let known = known.get_mut();
                    *known = Entry {
                        record: known.record,
                        ..Entry::deposited(known.seq, &surface)
                    };
                }
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(Entry::deposited(catalogue.next(), &surface));
                }
            }
        }
        if let Some(stage) = &self.inner.stage {
            stage.enqueue(surface);
        }
        deposit_span.stop();
    }

    /// Blocks until every deposit made before the call is committed to
    /// the cache directory, or has failed to be and stays in memory only.
    /// If no deposit is left queued, the writer thread then stops; the
    /// next deposit starts another. A no-op for a purely in-memory cache.
    pub fn flush(&self) {
        if let Some(stage) = &self.inner.stage {
            stage.flush();
        }
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

/// Most deposits that may wait for their commit at once. A deposit that
/// finds this many uncommitted ones waits for the writer (back-pressure),
/// so a producer that outruns the disk runs at the disk's pace instead of
/// piling up work. Every waiting surface is also held by its catalogue
/// entry (until evicted), so the bound costs no copies.
const COMMIT_BACKLOG: u64 = 64;

/// The write-behind commit stage: the one path by which a deposit reaches
/// the cache directory. Deposits enqueue the `Arc` their catalogue entry
/// holds; one writer thread, started by a deposit that finds none running,
/// drains the queue in group commits. It stops at a flush that leaves the queue
/// empty ([`CommitStage::flush`]), which the last handle's drop runs, so
/// no writer outlives its cache.
///
/// The flush stops the writer, not only waits for it: a batch flushes
/// before `run_batch` returns, so no writer thread, and no allocator
/// arena it took, outlives the batch that started it (a writer that
/// lived as long as its cache read `sweep_warm`'s `peak_rss_mb` 5.31 →
/// 6.24 MB).
struct CommitStage {
    shared: Arc<StageShared>,
    /// The last writer started, by its number.
    writer: Mutex<Option<(u64, JoinHandle<()>)>>,
}

/// What the cache's handles and the writer thread share. The writer holds
/// no handle to the cache itself.
struct StageShared {
    store: Store,
    policy: EvictionPolicy,
    catalogue: Arc<Catalogue>,
    backlog: Mutex<Backlog>,
    /// Signalled on every change of `backlog`: a deposit or a stop (for
    /// the writer), a settled group (for back-pressure and flushes).
    changed: Condvar,
    metrics: CommitInstruments,
}

#[derive(Default)]
struct Backlog {
    /// Deposits waiting for the writer, oldest first.
    queued: VecDeque<Arc<CachedSurface>>,
    /// Deposits enqueued over the stage's life.
    enqueued: u64,
    /// Deposits the writer is done with: committed, or failed and kept in
    /// memory only.
    settled: u64,
    /// A writer runs (or is being started) and will take what is queued.
    writing: bool,
    /// Writers started over the stage's life; the running one's number.
    writers: u64,
    /// Writers up to this number exit once they find the queue empty.
    stop: u64,
}

impl CommitStage {
    fn new(
        store: Store,
        policy: EvictionPolicy,
        catalogue: &Arc<Catalogue>,
        metrics: CommitInstruments,
    ) -> CommitStage {
        CommitStage {
            shared: Arc::new(StageShared {
                store,
                policy,
                catalogue: Arc::clone(catalogue),
                backlog: Mutex::new(Backlog::default()),
                changed: Condvar::new(),
                metrics,
            }),
            writer: Mutex::new(None),
        }
    }

    fn enqueue(&self, surface: Arc<CachedSurface>) {
        let shared = &*self.shared;
        let mut backlog = shared.catalogue.wait_while(
            &shared.changed,
            &shared.backlog,
            shared.catalogue.lock(&shared.backlog),
            |b| b.enqueued - b.settled >= COMMIT_BACKLOG,
        );
        backlog.queued.push_back(surface);
        backlog.enqueued += 1;
        let waiting = backlog.enqueued - backlog.settled;
        let start = !backlog.writing;
        if start {
            backlog.writing = true;
            backlog.writers += 1;
        }
        let number = backlog.writers;
        drop(backlog);
        shared.metrics.queue_peak.fetch_max(waiting);
        if start {
            let mut writer = shared.catalogue.lock(&self.writer);
            if let Some((_, stopped)) = writer.take() {
                let _ = stopped.join();
            }
            let stage = Arc::clone(&self.shared);
            match std::thread::Builder::new()
                .name("hddm-cache-commit".into())
                .spawn(move || stage.run_writer(number))
            {
                Ok(thread) => *writer = Some((number, thread)),
                Err(e) => shared.abandon(&e.to_string()),
            }
        }
        shared.changed.notify_all();
    }

    /// Waits until every deposit enqueued before the call is settled; if
    /// the queue is then empty, stops the writer and joins it.
    fn flush(&self) {
        let shared = &*self.shared;
        let backlog = shared.catalogue.lock(&shared.backlog);
        let target = backlog.enqueued;
        let mut backlog =
            shared
                .catalogue
                .wait_while(&shared.changed, &shared.backlog, backlog, |b| {
                    b.settled < target
                });
        if !backlog.queued.is_empty() {
            return; // another thread's deposits keep the writer going
        }
        let number = backlog.writers;
        backlog.stop = number;
        drop(backlog);
        shared.changed.notify_all();
        let mut writer = shared.catalogue.lock(&self.writer);
        // A later writer, started by a deposit since, is not this flush's.
        if writer.as_ref().is_some_and(|(n, _)| *n == number) {
            if let Some((_, stopped)) = writer.take() {
                let _ = stopped.join();
            }
        }
    }
}

impl Drop for CommitStage {
    fn drop(&mut self) {
        self.flush();
    }
}

impl StageShared {
    /// No writer could be started: everything queued is settled as a
    /// failed commit and stays in memory only, so no flush waits for a
    /// writer that never ran.
    fn abandon(&self, why: &str) {
        let mut backlog = self.catalogue.lock(&self.backlog);
        let lost = backlog.queued.len() as u64;
        backlog.queued.clear();
        backlog.settled += lost;
        backlog.writing = false;
        drop(backlog);
        self.metrics.failures.add(lost);
        eprintln!(
            "hddm-scenarios: warning: no commit writer ({why}); \
             {lost} surface(s) stay in memory only"
        );
    }

    /// Writer `number`: takes everything queued as one group, commits it,
    /// and settles it; exits, marking the stage idle in the same step, when
    /// a flush has stopped it and the queue is empty.
    fn run_writer(&self, number: u64) {
        let mut done = 0;
        loop {
            let group: Vec<Arc<CachedSurface>> = {
                let mut backlog = self.catalogue.lock(&self.backlog);
                backlog.settled += done;
                self.changed.notify_all();
                let mut backlog =
                    self.catalogue
                        .wait_while(&self.changed, &self.backlog, backlog, |b| {
                            b.queued.is_empty() && b.stop < number
                        });
                if backlog.queued.is_empty() {
                    backlog.writing = false;
                    return;
                }
                backlog.queued.drain(..).collect()
            };
            self.commit_group(&group);
            done = group.len() as u64;
        }
    }

    /// One group commit: each record is written to its temp file, fsynced
    /// and renamed, in deposit order, and its entry marked committed and
    /// the eviction policy applied; then one directory fsync makes the
    /// group's renames durable. A record that cannot be written stays in
    /// memory only.
    fn commit_group(&self, group: &[Arc<CachedSurface>]) {
        let span = hddm_telemetry::SpanTimer::start(Arc::clone(&self.metrics.seconds));
        for surface in group {
            match self.store.commit(surface) {
                Ok(bytes) => {
                    self.metrics.records.inc();
                    let order = self.catalogue.next();
                    self.catalogue
                        .shard_write(shard_of(surface.hash))
                        .by_hash
                        .entry(surface.hash)
                        // Evicted earlier in this group: learned anew.
                        .or_insert_with(|| Entry::deposited(self.catalogue.next(), surface))
                        .record = Some(Record { order, bytes });
                    self.evict(surface.hash);
                }
                Err(e) => {
                    self.metrics.failures.inc();
                    eprintln!(
                        "hddm-scenarios: warning: failed to persist surface \
                         {} ({e}); keeping it in memory only",
                        HashId(surface.hash)
                    );
                }
            }
        }
        self.store.sync_dir();
        span.stop();
    }

    /// Applies the eviction policy after the commit of `deposit`: while the
    /// committed records exceed a bound, the oldest goes, and its entry,
    /// surface included, with it — except `deposit`'s own, whose surface
    /// stays in memory when the budget is smaller than one surface: the
    /// directory bound still holds, and caching still works. Each record
    /// file is deleted after its shard guard drops.
    fn evict(&self, deposit: u64) {
        let mut span = None;
        loop {
            let census = self.catalogue.census();
            let over = self.policy.max_entries.is_some_and(|m| census.records > m)
                || self.policy.max_bytes.is_some_and(|m| census.bytes > m);
            let Some((order, hash, bytes)) = census.oldest.filter(|_| over) else {
                return;
            };
            span.get_or_insert_with(|| {
                hddm_telemetry::SpanTimer::start(Arc::clone(&self.metrics.evict_seconds))
            });
            let dropped = self.catalogue.shard_write(shard_of(hash)).drop_record(
                hash,
                order,
                hash == deposit,
            );
            if !dropped {
                continue; // a reader's discard dropped it first
            }
            // A crash before the deletion leaves a record the next open
            // lists and the next commit evicts again.
            self.store.remove_record(hash);
            // ORDERING: Relaxed — statistics tally; the catalogue update
            // itself is ordered by the shard write guard.
            self.catalogue.evictions.fetch_add(1, Ordering::Relaxed);
            if hash == deposit {
                eprintln!(
                    "hddm-scenarios: warning: cache budget is too small for a single \
                     surface ({bytes} bytes); surface {} stays in memory only",
                    HashId(hash)
                );
            }
        }
    }
}

/// Shard index of a hash. The scenario hash is FNV-1a — already
/// well-mixed — so the low bits select the shard directly.
#[inline]
fn shard_of(hash: u64) -> usize {
    (hash as usize) % SHARD_COUNT
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate, BoxDomain};
    use hddm_compress::CompressedGrid;
    use hddm_kernels::{CompressedState, KernelKind};
    use hddm_olg::PolicyOracle;
    use std::sync::mpsc;
    use std::time::Duration;

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
            let _guard = poisoner.inner.catalogue.shards[shard_of(77)]
                .write()
                .unwrap();
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

    /// An empty directory for one test's cache.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hddm_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_surface_whose_commit_is_queued_is_served_from_memory() {
        let dir = temp_dir("queued");
        let cache = SurfaceCache::open(&dir).unwrap();
        // The stage believes a writer runs, but none does: every deposit
        // stays queued.
        let stage = cache.inner.stage.as_ref().unwrap();
        stage.shared.backlog.lock().unwrap().writing = true;
        let restores = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&restores);
        cache.set_restore_hook(Arc::new(move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
        }));

        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        cache.store_policy(77, shape(), vec![0.95, 2.0], &policy, 9, 1e-8, 0.5);
        assert_eq!(stage.shared.backlog.lock().unwrap().queued.len(), 1);
        assert!(cache.lookup_exact(77, shape(), &[0.95, 2.0]).is_some());
        assert!(matches!(
            cache.lookup(77, shape(), &[0.95, 2.0], true),
            Lookup::Exact(_)
        ));
        assert_eq!(restores.load(Ordering::Relaxed), 0, "no disk restore");
        let stats = cache.stats();
        assert_eq!(
            (stats.persisted_entries, stats.disk_hits, stats.exact_hits),
            (0, 0, 2)
        );
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        // Let the drop's flush return.
        *stage.shared.backlog.lock().unwrap() = Backlog::default();
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deposit_beyond_the_backlog_waits_for_the_writer_to_settle_a_group() {
        let dir = temp_dir("backlog");
        let cache = SurfaceCache::open(&dir).unwrap();
        // Writer 1 counts as running, but none does: every deposit stays
        // queued until the test starts it.
        let stage = cache.inner.stage.as_ref().unwrap();
        {
            let mut backlog = stage.shared.backlog.lock().unwrap();
            backlog.writing = true;
            backlog.writers = 1;
        }
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        for hash in 0..COMMIT_BACKLOG {
            cache.store_policy(hash, shape(), vec![hash as f64], &policy, 9, 1e-8, 0.5);
        }
        let (done, returned) = mpsc::channel();
        let depositor = cache.clone();
        let waiting = std::thread::spawn(move || {
            let hash = COMMIT_BACKLOG;
            depositor.store_policy(hash, shape(), vec![hash as f64], &policy, 9, 1e-8, 0.5);
            let _ = done.send(());
        });
        let early = returned.recv_timeout(Duration::from_millis(200));
        let queued = stage.shared.backlog.lock().unwrap().queued.len();
        // Start writer 1 before asserting, so a failure unwinds through a
        // drop whose flush a writer serves.
        let shared = Arc::clone(&stage.shared);
        *stage.writer.lock().unwrap() = Some((1, std::thread::spawn(move || shared.run_writer(1))));
        assert!(
            early.is_err(),
            "deposit {} returned with {COMMIT_BACKLOG} unsettled",
            COMMIT_BACKLOG + 1
        );
        assert_eq!(queued as u64, COMMIT_BACKLOG);
        returned
            .recv_timeout(Duration::from_secs(20))
            .expect("the waiting deposit returns once the writer settles a group");
        waiting.join().unwrap();
        cache.flush();
        assert_eq!(cache.stats().persisted_entries as u64, COMMIT_BACKLOG + 1);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flush_returns_once_its_own_deposits_settle_and_the_last_stops_the_writer() {
        let dir = temp_dir("flush");
        let cache = SurfaceCache::open(&dir).unwrap();
        let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let policy = linear_policy(&domain, 1.0, 2.0);
        // Another handle deposits (eight hashes, over and over) while this
        // one deposits its own eight and flushes.
        let other = cache.clone();
        let theirs = policy.clone();
        let racer = std::thread::spawn(move || {
            for i in 0..200 {
                let hash = 100 + i % 8;
                other.store_policy(hash, shape(), vec![hash as f64], &theirs, 9, 1e-8, 0.5);
            }
        });
        for hash in 0..8 {
            cache.store_policy(hash, shape(), vec![hash as f64], &policy, 9, 1e-8, 0.5);
        }
        cache.flush();
        for hash in 0..8 {
            assert!(
                dir.join(crate::persist::surface_file_name(hash)).exists(),
                "deposit {hash} was not committed when its flush returned"
            );
        }
        racer.join().unwrap();
        cache.flush();
        let stage = cache.inner.stage.as_ref().unwrap();
        let (writing, unsettled) = {
            let backlog = stage.shared.backlog.lock().unwrap();
            (backlog.writing, backlog.enqueued - backlog.settled)
        };
        assert_eq!(unsettled, 0);
        assert!(!writing, "a writer runs after the last flush");
        assert!(
            stage.writer.lock().unwrap().is_none(),
            "the last flush left a writer unjoined"
        );
        assert_eq!(cache.stats().persisted_entries, 16);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
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
        // Deposits were timed; a cache without a directory commits nothing,
        // but names the commit stage's instruments.
        let deposit = snap.histogram("hddm_cache_deposit_seconds").unwrap();
        assert_eq!(deposit.count, 1);
        assert_eq!(
            snap.histogram("hddm_cache_commit_seconds").unwrap().count,
            0
        );
        assert_eq!(counter("hddm_cache_commit_records_total"), 0);
        assert_eq!(counter("hddm_cache_commit_failures_total"), 0);
        assert_eq!(gauge("hddm_cache_commit_queue_peak"), 0);
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
