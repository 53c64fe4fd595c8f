//! Drop-in instrumented sync primitives.
//!
//! API mirrors `std::sync` minus poisoning (the scheduler owns failure
//! propagation): `lock()`/`read()`/`write()` return guards directly,
//! `CheckedCondvar::wait` takes and returns the mutex guard. Every
//! acquire/release/wait/notify is a scheduling point the explorer can
//! branch on.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::runtime::{self, Execution, LockKind, Want};

/// Mutex whose acquire/release points yield to the scheduler.
pub struct CheckedMutex<T> {
    exec: Arc<Execution>,
    id: usize,
    cell: UnsafeCell<T>,
}

// SAFETY: the cooperative scheduler runs exactly one model thread at a
// time, and the model-level mutex protocol (enforced by the scheduler)
// allows at most one live guard, so `cell` is never aliased mutably.
unsafe impl<T: Send> Send for CheckedMutex<T> {}
// SAFETY: as above — guard exclusivity is enforced by the scheduler.
unsafe impl<T: Send> Sync for CheckedMutex<T> {}

impl<T> CheckedMutex<T> {
    pub fn new(value: T) -> Self {
        Self::named("", value)
    }

    /// Named variant; the name appears in events and failure reports.
    pub fn named(name: &str, value: T) -> Self {
        let (exec, _) = runtime::ctx();
        let id = runtime::register_lock(&exec, LockKind::Mutex, name);
        CheckedMutex {
            exec,
            id,
            cell: UnsafeCell::new(value),
        }
    }

    pub fn lock(&self) -> CheckedMutexGuard<'_, T> {
        let tid = runtime::ctx_in(&self.exec);
        runtime::op_acquire(&self.exec, tid, self.id, Want::Mutex);
        CheckedMutexGuard { lock: self }
    }
}

pub struct CheckedMutexGuard<'a, T> {
    lock: &'a CheckedMutex<T>,
}

impl<T> Deref for CheckedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a live guard means this thread holds the model-level
        // mutex, so no other guard aliases the cell.
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for CheckedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the guard is exclusive.
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for CheckedMutexGuard<'_, T> {
    fn drop(&mut self) {
        let tid = runtime::ctx_in(&self.lock.exec);
        runtime::op_release(&self.lock.exec, tid, self.lock.id);
    }
}

/// RwLock whose acquire/release points yield to the scheduler.
/// No writer priority: any blocked side races for the next grant,
/// matching `std`'s lack of a fairness guarantee.
pub struct CheckedRwLock<T> {
    exec: Arc<Execution>,
    id: usize,
    cell: UnsafeCell<T>,
}

// SAFETY: reader/writer exclusion is enforced by the scheduler's
// model-level lock state; see CheckedMutex.
unsafe impl<T: Send> Send for CheckedRwLock<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for CheckedRwLock<T> {}

impl<T> CheckedRwLock<T> {
    pub fn new(value: T) -> Self {
        Self::named("", value)
    }

    pub fn named(name: &str, value: T) -> Self {
        let (exec, _) = runtime::ctx();
        let id = runtime::register_lock(&exec, LockKind::RwLock, name);
        CheckedRwLock {
            exec,
            id,
            cell: UnsafeCell::new(value),
        }
    }

    pub fn read(&self) -> CheckedRwLockReadGuard<'_, T> {
        let tid = runtime::ctx_in(&self.exec);
        runtime::op_acquire(&self.exec, tid, self.id, Want::Read);
        CheckedRwLockReadGuard { lock: self }
    }

    pub fn write(&self) -> CheckedRwLockWriteGuard<'_, T> {
        let tid = runtime::ctx_in(&self.exec);
        runtime::op_acquire(&self.exec, tid, self.id, Want::Write);
        CheckedRwLockWriteGuard { lock: self }
    }
}

pub struct CheckedRwLockReadGuard<'a, T> {
    lock: &'a CheckedRwLock<T>,
}

impl<T> Deref for CheckedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a live read guard excludes writers at the model
        // level, so shared access to the cell is sound.
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> Drop for CheckedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        let tid = runtime::ctx_in(&self.lock.exec);
        runtime::op_release(&self.lock.exec, tid, self.lock.id);
    }
}

pub struct CheckedRwLockWriteGuard<'a, T> {
    lock: &'a CheckedRwLock<T>,
}

impl<T> Deref for CheckedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a live write guard is exclusive at the model level.
        unsafe { &*self.lock.cell.get() }
    }
}

impl<T> DerefMut for CheckedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the write guard is exclusive.
        unsafe { &mut *self.lock.cell.get() }
    }
}

impl<T> Drop for CheckedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        let tid = runtime::ctx_in(&self.lock.exec);
        runtime::op_release(&self.lock.exec, tid, self.lock.id);
    }
}

/// Condvar paired with [`CheckedMutex`] guards, mirroring
/// `std::sync::Condvar` semantics: release-and-block is atomic,
/// `notify_one` wakes one waiter, spurious wakeups do not occur (the
/// explorer instead enumerates every real wakeup order).
pub struct CheckedCondvar {
    exec: Arc<Execution>,
    id: usize,
}

impl CheckedCondvar {
    pub fn new() -> Self {
        Self::named("")
    }

    pub fn named(name: &str) -> Self {
        let (exec, _) = runtime::ctx();
        let id = runtime::register_cv(&exec, name);
        CheckedCondvar { exec, id }
    }

    pub fn wait<'a, T>(&self, guard: CheckedMutexGuard<'a, T>) -> CheckedMutexGuard<'a, T> {
        let lock = guard.lock;
        // The wait op releases and reacquires the mutex itself;
        // suppress the guard's normal Drop release.
        std::mem::forget(guard);
        let tid = runtime::ctx_in(&self.exec);
        runtime::op_cv_wait(&self.exec, tid, self.id, lock.id, false);
        CheckedMutexGuard { lock }
    }

    /// Timed wait. Timeouts are lazy: the timeout fires only in states
    /// where no other thread could run first, so a timed wait never
    /// deadlocks but also never masks a real lost wakeup of an
    /// untimed waiter. Returns the reacquired guard and whether the
    /// wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: CheckedMutexGuard<'a, T>,
    ) -> (CheckedMutexGuard<'a, T>, bool) {
        let lock = guard.lock;
        std::mem::forget(guard);
        let tid = runtime::ctx_in(&self.exec);
        let timed_out = runtime::op_cv_wait(&self.exec, tid, self.id, lock.id, true);
        (CheckedMutexGuard { lock }, timed_out)
    }

    pub fn notify_one(&self) {
        let tid = runtime::ctx_in(&self.exec);
        runtime::op_cv_notify(&self.exec, tid, self.id, false);
    }

    pub fn notify_all(&self) {
        let tid = runtime::ctx_in(&self.exec);
        runtime::op_cv_notify(&self.exec, tid, self.id, true);
    }
}

impl Default for CheckedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

/// An I/O stand-in step: fails the execution if the calling thread
/// holds any checked lock — no file or device I/O under a lock.
pub fn io_step(label: &str) {
    let (exec, tid) = runtime::ctx();
    runtime::op_io(&exec, tid, label);
}
