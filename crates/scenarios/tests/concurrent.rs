//! Threaded, seeded race test of the sharded surface cache: many reader
//! threads race exact hits, lazy disk restores, and deposits over the
//! same and different keys, against one persistent directory.
//!
//! Invariants asserted after the dust settles:
//!
//! * **no double-restore** — every persisted surface's record file is
//!   read at most once (the entry's restore slot), verified through
//!   the restore hook's per-hash call counts;
//! * **no lost lookups** — every exact lookup of a persisted key is
//!   served `Exact` on every thread, every iteration;
//! * **stable stats** — the lifetime counters add up exactly to the
//!   per-thread tallies (hits, misses, disk restores, entries), and the
//!   persistent index holds exactly the expected surfaces.
//!
//! A second test holds one restore at a gate while another reader of the
//! same hash waits on the entry's slot: the restore's landing must wake
//! the waiter. A third holds a restore at the gate while the same hash is
//! deposited again: the cache keeps the deposit.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use hddm_asg::{hierarchize, regular_grid, tabulate, BoxDomain};
use hddm_compress::CompressedGrid;
use hddm_core::PolicySet;
use hddm_kernels::CompressedState;
use hddm_scenarios::{Lookup, ShapeKey, SurfaceCache};

const PERSISTED_KEYS: usize = 6;
const DEPOSIT_KEYS: usize = 4;
const THREADS: usize = 8;
const ITERATIONS: usize = 40;
/// How long a reader may take before the test calls it hung.
const WATCHDOG: Duration = Duration::from_secs(20);

fn temp_cache_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hddm_concurrent_test_{}_{tag}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn shape() -> ShapeKey {
    ShapeKey {
        dim: 2,
        ndofs: 1,
        num_states: 1,
    }
}

/// A small one-state policy surface interpolating a plane.
fn linear_policy(a: f64, b: f64) -> PolicySet {
    let domain = BoxDomain::new(vec![0.0, 0.0], vec![1.0, 1.0]);
    let grid = regular_grid(2, 3);
    let mut phys = vec![0.0; 2];
    let mut values = tabulate(&grid, 1, |unit, out| {
        domain.from_unit(unit, &mut phys);
        out[0] = a * phys[0] + b * phys[1];
    });
    hierarchize(&grid, &mut values, 1);
    let cg = CompressedGrid::build(&grid);
    let reordered = cg.reorder_rows(&values, 1);
    PolicySet::new(vec![CompressedState::from_parts(cg, reordered, 1)], domain)
}

/// Persisted-key hashes are spread over distinct shards; deposit keys
/// live in a disjoint range.
fn persisted_hash(k: usize) -> u64 {
    0x1000 + 7 * k as u64
}

fn deposit_hash(k: usize) -> u64 {
    0xBEEF_0000 + k as u64
}

/// A tiny per-thread LCG so the interleaving is seeded and reproducible
/// per thread (the cross-thread schedule is the OS's business).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn readers_restores_and_deposits_race_without_double_restores_or_stat_drift() {
    let dir = temp_cache_dir("race");

    // Seed the persistent directory with PERSISTED_KEYS surfaces.
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        for k in 0..PERSISTED_KEYS {
            warmer.store_policy(
                persisted_hash(k),
                shape(),
                vec![0.9 + 0.001 * k as f64],
                &linear_policy(1.0, k as f64),
                5,
                1e-8,
                0.1,
            );
        }
        warmer.flush();
        assert_eq!(warmer.stats().persisted_entries, PERSISTED_KEYS);
    }

    // Fresh cache over the directory: every surface must come off disk,
    // lazily, at most once, under arbitrary reader interleavings.
    let cache = SurfaceCache::open(&dir).unwrap();
    let restore_counts: Arc<Mutex<HashMap<u64, usize>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let counts = Arc::clone(&restore_counts);
        cache.set_restore_hook(Arc::new(move |hash| {
            *counts.lock().unwrap().entry(hash).or_insert(0) += 1;
        }));
    }

    // Per-thread tallies, summed at the end against the cache counters.
    // The threads report through a channel with a timeout, so a lost
    // wakeup fails the test instead of hanging it.
    let (tally, tallies) = mpsc::channel();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = cache.clone();
            let tally = tally.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(0xA5A5_0000 + t as u64);
                let mut exact = 0usize;
                let mut deposited = 0usize;
                for _ in 0..ITERATIONS {
                    match rng.next() % 4 {
                        // Exact hit on a random persisted key —
                        // different keys race their disk restores.
                        0 | 1 => {
                            let k = (rng.next() as usize) % PERSISTED_KEYS;
                            let fp = [0.9 + 0.001 * k as f64];
                            match cache.lookup(persisted_hash(k), shape(), &fp, false) {
                                Lookup::Exact(s) => assert_eq!(s.hash, persisted_hash(k)),
                                other => {
                                    panic!("persisted key {k} must hit, got {other:?}")
                                }
                            }
                            exact += 1;
                        }
                        // Exact hit on the shared hottest key —
                        // same-key restore contention.
                        2 => {
                            let fp = [0.9];
                            match cache.lookup(persisted_hash(0), shape(), &fp, false) {
                                Lookup::Exact(s) => assert_eq!(s.hash, persisted_hash(0)),
                                other => panic!("hot key must hit, got {other:?}"),
                            }
                            exact += 1;
                        }
                        // Deposit on a small shared key range —
                        // same-key and different-key write races,
                        // written through to the store.
                        _ => {
                            let k = (rng.next() as usize) % DEPOSIT_KEYS;
                            cache.store_policy(
                                deposit_hash(k),
                                shape(),
                                vec![2.0 + k as f64],
                                &linear_policy(0.5, k as f64),
                                3,
                                1e-9,
                                0.05,
                            );
                            deposited += 1;
                        }
                    }
                }
                let _ = tally.send((exact, deposited));
            })
        })
        .collect();
    drop(tally);
    let (exact_lookups, deposits) = (0..THREADS)
        .map(|_| {
            tallies
                .recv_timeout(WATCHDOG)
                .expect("a racing thread hung or panicked")
        })
        .fold((0, 0), |(e, d), (te, td)| (e + te, d + td));
    for handle in handles {
        handle.join().unwrap();
    }

    // No double-restore: each persisted key's record file was read at
    // most once, and only touched keys were read at all.
    let counts = restore_counts.lock().unwrap();
    #[expect(
        clippy::iter_over_hash_type,
        reason = "every entry must read 1; which one fails first does not matter"
    )]
    for (hash, count) in counts.iter() {
        assert_eq!(
            *count, 1,
            "surface {hash:016x} restored {count} times (restore-once violated)"
        );
    }
    let restored = counts.len();
    assert!(restored <= PERSISTED_KEYS);
    assert!(restored > 0, "the schedule never touched a persisted key?");

    // Stable stats: counters equal the per-thread tallies exactly, once
    // the deposits are committed.
    cache.flush();
    let stats = cache.stats();
    assert_eq!(stats.exact_hits, exact_lookups, "every lookup served Exact");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.warm_hits, 0);
    assert_eq!(stats.disk_hits, restored, "one disk hit per restored key");
    assert_eq!(
        stats.entries,
        restored + DEPOSIT_KEYS,
        "restored surfaces + deposited keys, no duplicates, no losses"
    );
    assert_eq!(stats.lock_poisonings, 0);
    assert_eq!(stats.skipped, 0, "no artifact was corrupted by the races");
    // The write-through index holds every surface exactly once.
    assert_eq!(stats.persisted_entries, PERSISTED_KEYS + DEPOSIT_KEYS);
    assert!(
        deposits >= DEPOSIT_KEYS,
        "schedule sanity: deposits happened"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// A reader that finds a restore of its hash in flight waits on the
/// entry's slot, and the restore's landing wakes it. Reader 1's restore is
/// held at a gate while reader 2 reaches the slot; then the gate opens. Both are
/// served `Exact` off one record read, and neither hangs: the readers run
/// on their own threads and report through a channel with a timeout.
#[test]
fn a_reader_waiting_on_a_same_hash_restore_is_woken_when_it_lands() {
    let dir = temp_cache_dir("claim");
    let hash = persisted_hash(0);
    let fp = [0.9];
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        warmer.store_policy(
            hash,
            shape(),
            fp.to_vec(),
            &linear_policy(1.0, 0.0),
            5,
            1e-8,
            0.1,
        );
    }

    let cache = SurfaceCache::open(&dir).unwrap();
    let reads = Arc::new(AtomicUsize::new(0));
    let (entered, in_restore) = mpsc::channel();
    let (open, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    {
        let reads = Arc::clone(&reads);
        cache.set_restore_hook(Arc::new(move |_| {
            reads.fetch_add(1, Ordering::Relaxed);
            let _ = entered.send(());
            // Returns once the gate's sender is dropped.
            let _ = gate.lock().unwrap().recv();
        }));
    }
    let (served, answers) = mpsc::channel();
    let reader = |served: mpsc::Sender<bool>| {
        let cache = cache.clone();
        std::thread::spawn(move || {
            let exact = matches!(cache.lookup(hash, shape(), &fp, false), Lookup::Exact(_));
            let _ = served.send(exact);
        })
    };
    let first = reader(served.clone());
    in_restore
        .recv_timeout(WATCHDOG)
        .expect("reader 1 reached its record read");
    let second = reader(served);
    // Time for reader 2 to find the restore in flight and wait on it.
    std::thread::sleep(Duration::from_millis(100));
    drop(open);

    for _ in 0..2 {
        let exact = answers
            .recv_timeout(WATCHDOG)
            .expect("a reader hung: the restore's landing woke no waiter");
        assert!(exact, "both readers are served the restored surface");
    }
    first.join().unwrap();
    second.join().unwrap();
    assert_eq!(
        reads.load(Ordering::Relaxed),
        1,
        "two readers of one hash read its record once"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A deposit that lands while a restore of the same hash reads its record
/// is what the cache keeps. Reader 1's restore of a persisted hash (steps 5)
/// is held at a gate while the hash is deposited again with steps 7; then
/// the gate opens. Reader 1 is served `Exact` (the two surfaces are
/// interchangeable), and the catalogue, a later lookup and the committed
/// record all hold the deposit.
#[test]
fn a_deposit_during_a_same_hash_restore_is_the_surface_the_cache_keeps() {
    let dir = temp_cache_dir("deposit_during_restore");
    let hash = persisted_hash(0);
    let fp = [0.9];
    {
        let warmer = SurfaceCache::open(&dir).unwrap();
        warmer.store_policy(
            hash,
            shape(),
            fp.to_vec(),
            &linear_policy(1.0, 0.0),
            5,
            1e-8,
            0.1,
        );
    }

    let cache = SurfaceCache::open(&dir).unwrap();
    let (entered, in_restore) = mpsc::channel();
    let (open, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    cache.set_restore_hook(Arc::new(move |_| {
        let _ = entered.send(());
        // Returns once the gate's sender is dropped.
        let _ = gate.lock().unwrap().recv();
    }));
    let (served, answer) = mpsc::channel();
    let reader = {
        let cache = cache.clone();
        std::thread::spawn(move || {
            let exact = matches!(cache.lookup(hash, shape(), &fp, false), Lookup::Exact(_));
            let _ = served.send(exact);
        })
    };
    in_restore
        .recv_timeout(WATCHDOG)
        .expect("reader 1 reached its record read");
    cache.store_policy(
        hash,
        shape(),
        fp.to_vec(),
        &linear_policy(0.0, 1.0),
        7,
        1e-8,
        0.1,
    );
    drop(open);

    let exact = answer
        .recv_timeout(WATCHDOG)
        .expect("reader 1 hung after its gate opened");
    reader.join().unwrap();
    assert!(exact, "reader 1 is served one of the two surfaces");
    let kept = cache
        .lookup_exact(hash, shape(), &fp)
        .expect("the hash is cached");
    assert_eq!(kept.steps, 7, "a later lookup is served the deposit");
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.disk_hits), (1, 1));
    cache.flush();
    drop(cache);

    let reopened = SurfaceCache::open(&dir).unwrap();
    let record = reopened
        .lookup_exact(hash, shape(), &fp)
        .expect("the record persists");
    assert_eq!(record.steps, 7, "the record on disk is the deposit's");
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);
}
