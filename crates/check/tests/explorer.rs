//! Self-tests for the explorer: each built-in detector catches its
//! canonical bug with a replayable trace, clean protocols explore to
//! completion, and the preemption bound behaves as documented.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hddm_check::{
    choose, explore, io_step, register_invariant, replay, spawn, step, CheckedAtomicU64,
    CheckedCondvar, CheckedMutex, CheckedRwLock, Config, FailureKind, Trace,
};

fn cfg(name: &str) -> Config {
    let mut c = Config::new(name);
    // Self-tests must be hermetic: ignore the CI env knobs.
    c.preemption_bound = Some(2);
    c.max_schedules = 100_000;
    c.trace_dir = None;
    c
}

/// Classic lost update: read-modify-write through a racy load/store
/// pair. The explorer must find the interleaving where both threads
/// read 0 and the final count is 1.
fn racy_counter_model() {
    let n = Arc::new(CheckedAtomicU64::named("n", 0));
    let n2 = Arc::clone(&n);
    let t = spawn("incr", move || {
        let v = n2.load();
        n2.store(v + 1);
    });
    let v = n.load();
    n.store(v + 1);
    t.join();
    assert_eq!(n.load(), 2, "lost update: both increments read 0");
}

#[test]
fn finds_lost_update_race() {
    let report = explore(&cfg("racy-counter"), racy_counter_model);
    let failure = report.expect_failure(FailureKind::Panic);
    assert!(
        failure.message.contains("lost update"),
        "{}",
        failure.message
    );
    assert!(!failure.trace.is_empty());
}

#[test]
fn bound_zero_misses_the_race_bound_two_finds_it() {
    // With no preemptions allowed, threads run to completion in spawn
    // order and the race is invisible — and exploration still covers
    // that restricted space completely.
    let report = explore(
        &cfg("racy-counter-b0").with_bound(Some(0)),
        racy_counter_model,
    );
    assert!(
        report.failure.is_none(),
        "bound 0 cannot interleave mid-increment"
    );
    assert!(report.complete);
    let report = explore(&cfg("racy-counter-b2"), racy_counter_model);
    report.expect_failure(FailureKind::Panic);
}

#[test]
fn mutex_makes_the_counter_safe() {
    let report = explore(&cfg("locked-counter"), || {
        let n = Arc::new(CheckedMutex::named("n", 0u64));
        let n2 = Arc::clone(&n);
        let t = spawn("incr", move || *n2.lock() += 1);
        *n.lock() += 1;
        t.join();
        assert_eq!(*n.lock(), 2);
    });
    let schedules = report.assert_clean();
    assert!(
        schedules > 1,
        "exploration should branch at lock acquisition"
    );
}

#[test]
fn detects_abba_deadlock() {
    let report = explore(&cfg("abba"), || {
        let a = Arc::new(CheckedMutex::named("a", ()));
        let b = Arc::new(CheckedMutex::named("b", ()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = spawn("ba", move || {
            let _gb = b2.lock();
            step("between");
            let _ga = a2.lock();
        });
        let _ga = a.lock();
        step("between");
        let _gb = b.lock();
        drop(_gb);
        drop(_ga);
        t.join();
    });
    let failure = report.expect_failure(FailureKind::Deadlock);
    assert!(
        failure.message.contains("wait-for cycle"),
        "{}",
        failure.message
    );
}

#[test]
fn detects_rwlock_self_deadlock() {
    let report = explore(&cfg("rw-upgrade"), || {
        let l = Arc::new(CheckedRwLock::named("l", 0u64));
        let _r = l.read();
        let _w = l.write(); // upgrade attempt: blocks on our own read guard
    });
    report.expect_failure(FailureKind::Deadlock);
}

#[test]
fn detects_lost_wakeup() {
    // The setter flips the flag but never notifies: any schedule where
    // the waiter blocks first strands it forever.
    let report = explore(&cfg("missed-notify"), || {
        let m = Arc::new(CheckedMutex::named("m", false));
        let cv = Arc::new(CheckedCondvar::named("cv"));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = spawn("waiter", move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
        });
        *m.lock() = true; // bug: no cv.notify_all()
        waiter.join();
    });
    let failure = report.expect_failure(FailureKind::LostWakeup);
    assert!(failure.message.contains("notify"), "{}", failure.message);
}

#[test]
fn notify_fixes_the_lost_wakeup() {
    let report = explore(&cfg("notified"), || {
        let m = Arc::new(CheckedMutex::named("m", false));
        let cv = Arc::new(CheckedCondvar::named("cv"));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = spawn("waiter", move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
        });
        *m.lock() = true;
        cv.notify_all();
        waiter.join();
    });
    report.assert_clean();
}

#[test]
fn timed_wait_escapes_instead_of_lost_wakeup() {
    // Same missed notify, but the waiter has a timeout: the lazy
    // timeout must fire and the model must complete cleanly.
    let report = explore(&cfg("timed-escape"), || {
        let m = Arc::new(CheckedMutex::named("m", false));
        let cv = Arc::new(CheckedCondvar::named("cv"));
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = spawn("waiter", move || {
            let mut g = m2.lock();
            let mut timed_out = false;
            while !*g && !timed_out {
                let (gg, to) = cv2.wait_timeout(g);
                g = gg;
                timed_out = to;
            }
        });
        *m.lock() = true; // still no notify
        waiter.join();
    });
    report.assert_clean();
}

#[test]
fn invariant_checked_at_every_step() {
    let report = explore(&cfg("gauge-cap"), || {
        let gauge = Arc::new(CheckedAtomicU64::named("gauge", 0));
        register_invariant("gauge <= 1", {
            let g = Arc::clone(&gauge);
            move || {
                let v = g.peek();
                if v <= 1 {
                    Ok(())
                } else {
                    Err(format!("gauge = {v}"))
                }
            }
        });
        let g2 = Arc::clone(&gauge);
        let t = spawn("inc", move || {
            g2.fetch_add(1);
            step("work");
            g2.fetch_sub(1);
        });
        gauge.fetch_add(1);
        step("work");
        gauge.fetch_sub(1);
        t.join();
    });
    let failure = report.expect_failure(FailureKind::InvariantViolation);
    assert!(failure.message.contains("gauge"), "{}", failure.message);
}

#[test]
fn io_step_flags_io_under_lock() {
    let report = explore(&cfg("io-under-lock"), || {
        let m = Arc::new(CheckedMutex::named("manifest", ()));
        let _g = m.lock();
        io_step("write manifest"); // not allowed: lock held
    });
    let failure = report.expect_failure(FailureKind::InvariantViolation);
    assert!(failure.message.contains("manifest"), "{}", failure.message);
}

#[test]
fn choose_explores_every_value() {
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = Arc::clone(&seen);
    let report = explore(&cfg("choose"), move || {
        let v = choose(3);
        // ORDERING-irrelevant: cross-execution bookkeeping, not model
        // state (fetch_or of a bit per observed value).
        seen2.fetch_or(1 << v, Ordering::Relaxed);
    });
    report.assert_clean();
    assert_eq!(
        seen.load(Ordering::Relaxed),
        0b111,
        "all three values explored"
    );
}

#[test]
fn step_limit_catches_runaway_models() {
    let mut c = cfg("runaway");
    c.max_steps = 100;
    let report = explore(&c, || loop {
        step("spin");
    });
    report.expect_failure(FailureKind::StepLimit);
}

#[test]
fn schedule_budget_reports_incomplete() {
    let mut c = cfg("budget");
    c.max_schedules = 2;
    let report = explore(&c, || {
        let n = Arc::new(CheckedMutex::named("n", 0u64));
        let n2 = Arc::clone(&n);
        let t = spawn("a", move || *n2.lock() += 1);
        *n.lock() += 1;
        t.join();
    });
    assert!(report.failure.is_none());
    assert!(!report.complete, "2 schedules cannot cover this model");
    assert_eq!(report.schedules, 2);
}

#[test]
fn failing_trace_replays_identically() {
    let report = explore(&cfg("replay-race"), racy_counter_model);
    let failure = report.expect_failure(FailureKind::Panic).clone();
    for _ in 0..3 {
        let re = replay(&cfg("replay-race"), &failure.trace, racy_counter_model);
        let rf = re.expect_failure(FailureKind::Panic);
        assert_eq!(rf.message, failure.message);
        assert_eq!(rf.events, failure.events);
        assert_eq!(rf.trace, failure.trace);
    }
    // The trace round-trips through its textual form.
    let parsed = Trace::parse(&failure.trace.to_string()).unwrap();
    assert_eq!(parsed, failure.trace);
    let re = replay(&cfg("replay-race"), &parsed, racy_counter_model);
    assert_eq!(re.expect_failure(FailureKind::Panic).events, failure.events);
}

#[test]
fn deterministic_schedule_counts() {
    // Exploration itself is deterministic: same model, same counts.
    let a = explore(&cfg("det"), racy_counter_model);
    let b = explore(&cfg("det"), racy_counter_model);
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.failure.map(|f| f.trace), b.failure.map(|f| f.trace));
}
