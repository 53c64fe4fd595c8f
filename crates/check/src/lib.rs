//! # hddm-check — loom-style model checking for hddm's concurrency protocols
//!
//! A dependency-free stateless model checker: models are ordinary Rust
//! closures using drop-in instrumented primitives ([`CheckedMutex`],
//! [`CheckedRwLock`], [`CheckedCondvar`], `CheckedAtomic*`), run on
//! real threads gated by a cooperative scheduler. [`explore`]
//! enumerates every interleaving by DFS with a bounded-preemption
//! budget; failures come back with a compact [`Trace`] that [`replay`]
//! re-runs bit-identically.
//!
//! Built-in detectors, all reported with replayable traces:
//!
//! - **deadlock** — a cycle in the wait-for graph over held/requested
//!   locks (and joins) whenever no thread can run;
//! - **lost wakeup** — a [`CheckedCondvar`] waiter that no remaining
//!   schedule can ever notify;
//! - **invariant violation** — [`register_invariant`] assertions
//!   checked at every scheduling point, plus [`io_step`]'s
//!   no-lock-over-io discipline: a model marks its file and device I/O,
//!   and any checked lock held there fails the execution.
//!
//! ## Writing a model
//!
//! ```
//! use hddm_check::{explore, spawn, CheckedMutex, Config};
//! use std::sync::Arc;
//!
//! let report = explore(&Config::new("counter"), || {
//!     let n = Arc::new(CheckedMutex::named("n", 0u64));
//!     let n2 = Arc::clone(&n);
//!     let t = spawn("incr", move || *n2.lock() += 1);
//!     *n.lock() += 1;
//!     t.join();
//!     assert_eq!(*n.lock(), 2);
//! });
//! report.assert_clean();
//! ```
//!
//! Model closures run once per schedule and must be deterministic
//! apart from scheduling: derive all nondeterminism from [`choose`],
//! never from wall clocks or OS randomness, or traces stop replaying.

mod atomic;
mod explore;
mod runtime;
mod sync;
mod trace;

pub use atomic::{CheckedAtomicBool, CheckedAtomicU64, CheckedAtomicUsize};
pub use explore::{explore, explore_random, replay, Config, Report};
pub use runtime::{choose, register_invariant, spawn, step, JoinHandle};
pub use sync::{
    io_step, CheckedCondvar, CheckedMutex, CheckedMutexGuard, CheckedRwLock,
    CheckedRwLockReadGuard, CheckedRwLockWriteGuard,
};
pub use trace::{Alt, Failure, FailureKind, Trace};
