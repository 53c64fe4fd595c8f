//! hddm-check model of the persist store's one lock, the index `RwLock`.
//!
//! Mirrors `crates/scenarios/src/persist.rs`: `Store::insert` writes the
//! record file before taking any lock, moves its row to the back and
//! evicts under a short index write guard, and deletes the evicted files
//! after the guard drops; `Store::entry` + `Store::read_record` snapshot
//! the row under the read lock and read the file with no lock held;
//! `Store::discard` drops the row under the write guard and deletes the
//! file after it. The record files are the index, so there is no other
//! file and no other lock.
//!
//! Checked properties:
//! - **readers never block on writer I/O**: a reader's record read
//!   overlaps the depositor's eviction delete in some schedule
//!   (cross-execution existential check);
//! - **lock discipline**: no thread ever does record I/O while holding
//!   any checked lock — no exceptions;
//! - liveness: no deadlock between the readers and the depositor.
//!
//! Mutations:
//! - `EvictInsideIndexGuard` — the evicted-file deletion moves inside
//!   the index write guard → io-under-lock invariant violation;
//! - `ReadLockUpgrade` — the reader re-locks the index for write while
//!   still holding its read guard (an "upgrade") → deadlock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hddm_check::{
    explore, io_step, replay, spawn, CheckedAtomicBool, CheckedRwLock, Config, FailureKind,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mutation {
    None,
    EvictInsideIndexGuard,
    ReadLockUpgrade,
}

/// Model-level `Store`: the index rows are just hashes, oldest first, and
/// a flag marks the window in which the depositor deletes evicted files.
struct StoreModel {
    index: CheckedRwLock<Vec<u64>>,
    deleting: CheckedAtomicBool,
    mutation: Mutation,
}

impl StoreModel {
    fn new(mutation: Mutation) -> Arc<StoreModel> {
        Arc::new(StoreModel {
            // Seeded with hash 9 (oldest, evicted by the next deposit)
            // and hash 0 (the readers' target, which survives).
            index: CheckedRwLock::named("index", vec![9, 0]),
            deleting: CheckedAtomicBool::named("deleting", false),
            mutation,
        })
    }

    /// Mirrors `Store::insert`: record write → index update and eviction
    /// (short write guard) → evicted files deleted after the guard drops.
    fn insert(&self, hash: u64, max_entries: usize) {
        io_step("write record file");
        let evicted: Vec<u64> = {
            let mut index = self.index.write();
            index.retain(|&h| h != hash);
            index.push(hash);
            let excess = index.len().saturating_sub(max_entries);
            let evicted: Vec<u64> = index.drain(..excess).collect();
            if self.mutation == Mutation::EvictInsideIndexGuard {
                for _ in &evicted {
                    // BUG under test: file deletion while the index
                    // write guard is live — readers stall on disk I/O.
                    io_step("remove evicted record file");
                }
            }
            evicted
        };
        if self.mutation != Mutation::EvictInsideIndexGuard {
            for _ in &evicted {
                self.deleting.store(true);
                io_step("remove evicted record file");
                self.deleting.store(false);
            }
        }
    }

    /// Mirrors the restore path: snapshot the row under the read lock,
    /// release it, read the record file with no lock held; a record that
    /// fails its decode is discarded (`Store::discard`). Returns whether
    /// the read overlapped the depositor's eviction delete (the "readers
    /// never block on writers" witness).
    fn lookup(&self, hash: u64, damaged: bool) -> bool {
        let found = {
            let index = self.index.read();
            if self.mutation == Mutation::ReadLockUpgrade {
                // BUG under test: lock upgrade — re-entrant write
                // acquisition while our own read guard is live.
                let mut w = self.index.write();
                w.sort_unstable();
            }
            index.contains(&hash)
        };
        if !found {
            return false;
        }
        let overlapped = self.deleting.peek();
        io_step("read record file");
        if damaged {
            let removed = {
                let mut index = self.index.write();
                let before = index.len();
                index.retain(|&h| h != hash);
                index.len() < before
            };
            if removed {
                io_step("remove damaged record file");
            }
        }
        overlapped
    }
}

/// One depositor (with eviction) and two readers of the pre-seeded hash
/// 0, the second of which finds its record damaged and discards it.
/// `overlap_seen` records (across executions) whether a reader's record
/// read ever ran inside the depositor's eviction delete.
fn persist_model(mutation: Mutation, overlap_seen: Arc<AtomicBool>) {
    let m = StoreModel::new(mutation);
    let w = {
        let m = Arc::clone(&m);
        spawn("depositor", move || m.insert(1, 2))
    };
    let readers: Vec<_> = [false, true]
        .into_iter()
        .enumerate()
        .map(|(i, damaged)| {
            let m = Arc::clone(&m);
            spawn(&format!("reader-{i}"), move || m.lookup(0, damaged))
        })
        .collect();
    let mut overlapped = false;
    for r in readers {
        overlapped |= r.join();
    }
    w.join();
    if overlapped {
        // ORDERING: Relaxed — cross-execution stats outside the model.
        overlap_seen.store(true, Ordering::Relaxed);
    }
}

#[test]
fn persist_split_explores_clean_and_readers_overlap_writer_io() {
    let overlap = Arc::new(AtomicBool::new(false));
    let o = Arc::clone(&overlap);
    let report = explore(&Config::new("persist-index"), move || {
        persist_model(Mutation::None, Arc::clone(&o))
    });
    let schedules = report.assert_clean();
    // ORDERING: Relaxed — read after exploration finished.
    assert!(
        overlap.load(Ordering::Relaxed),
        "no schedule overlapped a reader's record read with the depositor's \
         eviction delete — readers are blocking on writer I/O"
    );
    println!(
        "model persist-index: {} schedules, max {} steps",
        schedules, report.max_steps_seen
    );
}

#[test]
fn mutation_evict_inside_index_guard_is_io_under_lock() {
    let overlap = Arc::new(AtomicBool::new(false));
    let model = {
        let o = Arc::clone(&overlap);
        move || persist_model(Mutation::EvictInsideIndexGuard, Arc::clone(&o))
    };
    let report = explore(&Config::new("persist-mut-evict-under-lock"), model.clone());
    let failure = report
        .expect_failure(FailureKind::InvariantViolation)
        .clone();
    assert!(
        failure.message.contains("index"),
        "must name the held lock: {}",
        failure.message
    );
    let re = replay(
        &Config::new("persist-mut-evict-under-lock"),
        &failure.trace,
        model,
    );
    let rf = re.expect_failure(FailureKind::InvariantViolation);
    assert_eq!(rf.message, failure.message);
    assert_eq!(rf.events, failure.events);
}

#[test]
fn mutation_read_lock_upgrade_is_deadlock() {
    let overlap = Arc::new(AtomicBool::new(false));
    let model = {
        let o = Arc::clone(&overlap);
        move || persist_model(Mutation::ReadLockUpgrade, Arc::clone(&o))
    };
    let report = explore(&Config::new("persist-mut-upgrade"), model.clone());
    let failure = report.expect_failure(FailureKind::Deadlock).clone();
    let re = replay(&Config::new("persist-mut-upgrade"), &failure.trace, model);
    let rf = re.expect_failure(FailureKind::Deadlock);
    assert_eq!(rf.message, failure.message);
    assert_eq!(rf.events, failure.events);
}
