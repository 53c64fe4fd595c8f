//! The cooperative scheduler behind every `Checked*` primitive.
//!
//! All model threads are real OS threads, but exactly one is ever
//! *running*: every instrumented operation locks the shared
//! [`ExecState`], records an event, checks invariants, asks the
//! scheduler to pick the next thread, and then blocks on a condvar
//! until it is picked again. The scheduler's picks are the *decisions*;
//! branching decisions are recorded in the trace and exposed to the
//! DFS explorer as alternatives to revisit.
//!
//! An operation's side effect (taking a lock, mutating an atomic)
//! happens *after* its yield point, while the thread holds the global
//! turn — so each operation is atomic with respect to the model and the
//! interleaving semantics are sequentially consistent.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::trace::{Alt, Failure, FailureKind, Trace};

/// Stack size for model threads: models are tiny, keep thousands of
/// short-lived executions cheap.
const THREAD_STACK: usize = 256 * 1024;
/// Cap on the per-execution event log (the step limit bites first in
/// any sane model; this bounds memory if it does not).
const MAX_EVENTS: usize = 8192;

/// Shared state of one execution.
pub(crate) struct Execution {
    pub(crate) state: Mutex<ExecState>,
    pub(crate) cv: Condvar,
}

impl Execution {
    pub(crate) fn new(plan: Vec<Alt>, mode: Mode, max_steps: usize) -> Execution {
        Execution {
            state: Mutex::new(ExecState::new(plan, mode, max_steps)),
            cv: Condvar::new(),
        }
    }
}

/// Payload used to unwind model threads when an execution aborts
/// (failure found, or teardown). Raised with `resume_unwind`, which
/// skips the panic hook: abort unwinding is control flow, not an error.
pub(crate) struct AbortToken;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Want {
    Mutex,
    Read,
    Write,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockReason {
    Lock { lock: usize, want: Want },
    Condvar { cv: usize, lock: usize, timed: bool },
    Join { target: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Blocked(BlockReason),
    Finished,
}

pub(crate) struct ThreadState {
    pub(crate) status: Status,
    /// Ids of checked locks currently held (read or write side).
    pub(crate) held: Vec<usize>,
    /// Set when a timed condvar wait was woken by its timeout.
    pub(crate) timed_out: bool,
    pub(crate) name: String,
}

impl ThreadState {
    fn new(name: String) -> ThreadState {
        ThreadState {
            status: Status::Runnable,
            held: Vec::new(),
            timed_out: false,
            name,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LockKind {
    Mutex,
    RwLock,
}

pub(crate) struct LockState {
    pub(crate) writer: Option<usize>,
    pub(crate) readers: Vec<usize>,
    pub(crate) name: String,
}

pub(crate) struct CvState {
    pub(crate) name: String,
}

/// A branching decision point discovered beyond the current plan,
/// handed to the DFS explorer as a frame to revisit.
pub(crate) struct FrameSeed {
    pub(crate) alts: Vec<Alt>,
    pub(crate) chosen: Alt,
    pub(crate) preemptions_before: usize,
    pub(crate) running_before: usize,
    pub(crate) running_enabled: bool,
}

pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> XorShift {
        // ORDERING-free PRNG: plain xorshift64, seed forced non-zero.
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

pub(crate) enum Mode {
    /// Deterministic: beyond the plan, always take the first
    /// alternative (prefer the running thread).
    Dfs,
    /// Beyond the plan, pick uniformly at random (bound-free).
    Random(XorShift),
}

struct Invariant {
    name: String,
    check: Box<dyn Fn() -> Result<(), String> + Send>,
}

pub(crate) struct ExecState {
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) locks: Vec<LockState>,
    pub(crate) cvs: Vec<CvState>,
    pub(crate) current: usize,
    /// Branching decisions to replay before free exploration.
    plan: Vec<Alt>,
    cursor: usize,
    pub(crate) discovered: Vec<FrameSeed>,
    preemptions: usize,
    pub(crate) steps: usize,
    max_steps: usize,
    mode: Mode,
    pub(crate) trace: Vec<Alt>,
    pub(crate) events: Vec<String>,
    pub(crate) failure: Option<Failure>,
    pub(crate) aborted: bool,
    pub(crate) done: bool,
    invariants: Vec<Invariant>,
    pub(crate) handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    fn new(plan: Vec<Alt>, mode: Mode, max_steps: usize) -> ExecState {
        ExecState {
            threads: Vec::new(),
            locks: Vec::new(),
            cvs: Vec::new(),
            current: 0,
            plan,
            cursor: 0,
            discovered: Vec::new(),
            preemptions: 0,
            steps: 0,
            max_steps,
            mode,
            trace: Vec::new(),
            events: Vec::new(),
            failure: None,
            aborted: false,
            done: false,
            invariants: Vec::new(),
            handles: Vec::new(),
        }
    }

    fn record_event(&mut self, tid: usize, label: &str) {
        if self.aborted || self.events.len() >= MAX_EVENTS {
            return;
        }
        self.events.push(format!("t{tid} {label}"));
    }

    fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                kind,
                message,
                trace: Trace::new(self.trace.clone()),
                events: self.events.clone(),
            });
        }
        self.aborted = true;
        self.done = true;
    }

    fn check_invariants(&mut self) {
        if self.aborted || self.invariants.is_empty() {
            return;
        }
        // Take the list out so `fail` can borrow `self` mutably; the
        // closures only `peek` atomics, they never touch this state.
        let mut invs = std::mem::take(&mut self.invariants);
        for inv in &invs {
            if let Err(msg) = (inv.check)() {
                self.fail(
                    FailureKind::InvariantViolation,
                    format!("invariant {:?} violated: {msg}", inv.name),
                );
                break;
            }
        }
        invs.append(&mut self.invariants);
        self.invariants = invs;
    }

    fn try_take(&mut self, lock_id: usize, want: Want, tid: usize) -> bool {
        let l = &mut self.locks[lock_id];
        let free = match want {
            Want::Mutex | Want::Write => l.writer.is_none() && l.readers.is_empty(),
            Want::Read => l.writer.is_none(),
        };
        if free {
            match want {
                Want::Mutex | Want::Write => l.writer = Some(tid),
                Want::Read => l.readers.push(tid),
            }
            self.threads[tid].held.push(lock_id);
        }
        free
    }

    fn release_lock(&mut self, lock_id: usize, tid: usize) {
        let l = &mut self.locks[lock_id];
        if l.writer == Some(tid) {
            l.writer = None;
        } else if let Some(p) = l.readers.iter().position(|&r| r == tid) {
            l.readers.remove(p);
        }
        let held = &mut self.threads[tid].held;
        if let Some(p) = held.iter().position(|&h| h == lock_id) {
            held.remove(p);
        }
        for t in self.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(BlockReason::Lock { lock, .. }) if lock == lock_id)
            {
                t.status = Status::Runnable;
            }
        }
    }

    /// Wakes every waiter in a *timed* condvar wait (its timeout
    /// fires). Timeouts are lazy: they only fire when no thread can
    /// otherwise run, which models "the linger window eventually
    /// elapses" without exploding the state space and without
    /// reporting a lost wakeup for waits that have a timeout escape.
    fn wake_timed_waiters(&mut self) -> bool {
        let mut woke = false;
        for t in self.threads.iter_mut() {
            if matches!(
                t.status,
                Status::Blocked(BlockReason::Condvar { timed: true, .. })
            ) {
                t.timed_out = true;
                t.status = Status::Runnable;
                woke = true;
            }
        }
        woke
    }

    fn describe_thread(&self, tid: usize) -> String {
        let t = &self.threads[tid];
        let held: Vec<&str> = t
            .held
            .iter()
            .map(|&l| self.locks[l].name.as_str())
            .collect();
        let wants = match t.status {
            Status::Blocked(BlockReason::Lock { lock, want }) => {
                let verb = match want {
                    Want::Mutex => "lock",
                    Want::Read => "read",
                    Want::Write => "write",
                };
                format!("wants {verb}({})", self.locks[lock].name)
            }
            Status::Blocked(BlockReason::Condvar { cv, lock, .. }) => {
                format!(
                    "waiting on condvar {} (mutex {})",
                    self.cvs[cv].name, self.locks[lock].name
                )
            }
            Status::Blocked(BlockReason::Join { target }) => format!("joining t{target}"),
            _ => "".to_string(),
        };
        format!("t{tid} ({}) holds [{}] {}", t.name, held.join(", "), wants)
    }

    /// No runnable thread, not all finished, no timed waiter left to
    /// wake: classify the stuck state as a deadlock (cycle in the
    /// wait-for graph) or a lost wakeup (condvar waiters nobody can
    /// ever notify).
    fn fail_stuck(&mut self) {
        let n = self.threads.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut cv_waiters: Vec<usize> = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            match t.status {
                Status::Blocked(BlockReason::Lock { lock, want }) => {
                    let l = &self.locks[lock];
                    if let Some(w) = l.writer {
                        edges[i].push(w);
                    }
                    if matches!(want, Want::Mutex | Want::Write) {
                        edges[i].extend(l.readers.iter().copied());
                    }
                }
                Status::Blocked(BlockReason::Join { target }) => edges[i].push(target),
                Status::Blocked(BlockReason::Condvar { .. }) => cv_waiters.push(i),
                _ => {}
            }
        }
        if let Some(cycle) = find_cycle(&edges) {
            let parts: Vec<String> = cycle.iter().map(|&t| self.describe_thread(t)).collect();
            self.fail(
                FailureKind::Deadlock,
                format!("wait-for cycle: {}", parts.join("; ")),
            );
        } else if !cv_waiters.is_empty() {
            let parts: Vec<String> = cv_waiters
                .iter()
                .map(|&t| self.describe_thread(t))
                .collect();
            self.fail(
                FailureKind::LostWakeup,
                format!("no runnable thread can ever notify: {}", parts.join("; ")),
            );
        } else {
            let parts: Vec<String> = (0..n)
                .filter(|&t| !matches!(self.threads[t].status, Status::Finished))
                .map(|t| self.describe_thread(t))
                .collect();
            self.fail(
                FailureKind::Deadlock,
                format!(
                    "threads stuck with no cycle (leaked guard?): {}",
                    parts.join("; ")
                ),
            );
        }
    }

    /// Picks the next thread to run. `yielder` is the thread giving up
    /// its turn; keeping it running is the preferred (free)
    /// alternative, switching away from it while it is still runnable
    /// costs one preemption.
    fn schedule(&mut self, yielder: usize) {
        if self.aborted {
            return;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(
                FailureKind::StepLimit,
                format!("execution exceeded {} scheduler steps", self.max_steps),
            );
            return;
        }
        loop {
            let enabled: Vec<usize> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::Runnable))
                .map(|(i, _)| i)
                .collect();
            if enabled.is_empty() {
                if self
                    .threads
                    .iter()
                    .all(|t| matches!(t.status, Status::Finished))
                {
                    self.done = true;
                    return;
                }
                if self.wake_timed_waiters() {
                    continue;
                }
                self.fail_stuck();
                return;
            }
            let yielder_enabled = enabled.contains(&yielder);
            let mut alts: Vec<Alt> = Vec::with_capacity(enabled.len());
            if yielder_enabled {
                alts.push(Alt::Thread(yielder));
            }
            for &t in &enabled {
                if t != yielder {
                    alts.push(Alt::Thread(t));
                }
            }
            let Some(Alt::Thread(next)) = self.decide(alts, yielder, yielder_enabled) else {
                return; // aborted inside decide
            };
            if yielder_enabled && next != yielder {
                self.preemptions += 1;
            }
            self.current = next;
            return;
        }
    }

    /// Resolves one decision point: follow the plan while it lasts,
    /// then fall back to the mode's default and record the branch for
    /// the explorer. Forced (single-alternative) decisions are not
    /// recorded — replay re-derives them.
    fn decide(&mut self, alts: Vec<Alt>, yielder: usize, yielder_enabled: bool) -> Option<Alt> {
        if alts.len() == 1 {
            return Some(alts[0]);
        }
        let alt = if self.cursor < self.plan.len() {
            let planned = self.plan[self.cursor];
            if !alts.contains(&planned) {
                let listed: Vec<String> = alts.iter().map(|a| a.to_string()).collect();
                self.fail(
                    FailureKind::Panic,
                    format!(
                        "nondeterministic model: planned {planned} unavailable at decision {} (alternatives: {})",
                        self.cursor,
                        listed.join(", ")
                    ),
                );
                return None;
            }
            planned
        } else {
            match &mut self.mode {
                Mode::Dfs => alts[0],
                Mode::Random(rng) => alts[(rng.next() as usize) % alts.len()],
            }
        };
        if self.cursor >= self.plan.len() {
            self.discovered.push(FrameSeed {
                alts: alts.clone(),
                chosen: alt,
                preemptions_before: self.preemptions,
                running_before: yielder,
                running_enabled: yielder_enabled,
            });
        }
        self.cursor += 1;
        self.trace.push(alt);
        Some(alt)
    }

    /// A data-nondeterminism decision (`choose(n)`): picks one of `n`
    /// values. Value decisions never cost preemptions.
    fn decide_value(&mut self, n: usize, yielder: usize) -> usize {
        if self.aborted || n <= 1 {
            return 0;
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(
                FailureKind::StepLimit,
                format!("execution exceeded {} scheduler steps", self.max_steps),
            );
            return 0;
        }
        let alts: Vec<Alt> = (0..n).map(Alt::Value).collect();
        match self.decide(alts, yielder, false) {
            Some(Alt::Value(v)) => v,
            _ => 0,
        }
    }
}

/// Finds a cycle in the thread wait-for graph, returned in traversal
/// order. Graphs here have at most an edge or two per node.
fn find_cycle(edges: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = edges.len();
    // 0 = unvisited, 1 = on stack, 2 = done
    let mut color = vec![0u8; n];
    let mut stack: Vec<usize> = Vec::new();
    fn visit(
        v: usize,
        edges: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color[v] = 1;
        stack.push(v);
        for &w in &edges[v] {
            if color[w] == 1 {
                let at = stack.iter().position(|&x| x == w).unwrap_or(0);
                return Some(stack[at..].to_vec());
            }
            if color[w] == 0 {
                if let Some(c) = visit(w, edges, color, stack) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        color[v] = 2;
        None
    }
    for v in 0..n {
        if color[v] == 0 {
            if let Some(c) = visit(v, edges, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

// ---- thread-local execution context ----

#[derive(Clone)]
struct Ctx {
    exec: Arc<Execution>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn set_ctx(exec: Arc<Execution>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec, tid }));
}

/// The calling thread's execution context. Panics (a model error)
/// outside `explore()`/`replay()`.
pub(crate) fn ctx() -> (Arc<Execution>, usize) {
    CTX.with(|c| c.borrow().as_ref().map(|x| (x.exec.clone(), x.tid)))
        .unwrap_or_else(|| {
            panic!(
                "hddm-check primitives may only be used inside a model run by explore()/replay()"
            )
        })
}

/// Like [`ctx`], but also checks the primitive belongs to the current
/// execution (catches primitives leaked across executions).
pub(crate) fn ctx_in(exec: &Arc<Execution>) -> usize {
    let (cur, tid) = ctx();
    assert!(
        Arc::ptr_eq(&cur, exec),
        "checked primitive used from a different execution than the one that created it"
    );
    tid
}

// ---- guard-free state helpers ----

pub(crate) fn lock_state(exec: &Execution) -> MutexGuard<'_, ExecState> {
    exec.state.lock().unwrap_or_else(|poison| {
        exec.state.clear_poison();
        poison.into_inner()
    })
}

/// Waits on `exec.cv` while `blocked` holds. `wait_while` returns early,
/// `blocked` unchecked, when it wakes to a state lock a panicking model
/// thread poisoned: the poison is cleared, as [`lock_state`] clears it,
/// and the wait resumes.
pub(crate) fn wait_state_while<'a>(
    exec: &'a Execution,
    mut st: MutexGuard<'a, ExecState>,
    mut blocked: impl FnMut(&mut ExecState) -> bool,
) -> MutexGuard<'a, ExecState> {
    loop {
        match exec.cv.wait_while(st, &mut blocked) {
            Ok(st) => return st,
            Err(poison) => {
                exec.state.clear_poison();
                st = poison.into_inner();
            }
        }
    }
}

fn unwind_abort() -> ! {
    std::panic::resume_unwind(Box::new(AbortToken))
}

/// Blocks until it is `tid`'s turn. Returns `None` (guard dropped) if
/// the execution aborted; callers unwind or bail as appropriate.
fn wait_for_turn<'a>(
    exec: &'a Execution,
    tid: usize,
    st: MutexGuard<'a, ExecState>,
) -> Option<MutexGuard<'a, ExecState>> {
    let st = wait_state_while(exec, st, |st| {
        let turn = st.current == tid && matches!(st.threads[tid].status, Status::Runnable);
        !(st.aborted || turn)
    });
    (!st.aborted).then_some(st)
}

fn must_wait<'a>(
    exec: &'a Execution,
    tid: usize,
    st: MutexGuard<'a, ExecState>,
) -> MutexGuard<'a, ExecState> {
    match wait_for_turn(exec, tid, st) {
        Some(st) => st,
        None => unwind_abort(),
    }
}

// ---- primitive registration ----

pub(crate) fn register_lock(exec: &Execution, kind: LockKind, name: &str) -> usize {
    let mut st = lock_state(exec);
    let id = st.locks.len();
    let name = if name.is_empty() {
        match kind {
            LockKind::Mutex => format!("mutex{id}"),
            LockKind::RwLock => format!("rwlock{id}"),
        }
    } else {
        name.to_string()
    };
    st.locks.push(LockState {
        writer: None,
        readers: Vec::new(),
        name,
    });
    id
}

pub(crate) fn register_cv(exec: &Execution, name: &str) -> usize {
    let mut st = lock_state(exec);
    let id = st.cvs.len();
    let name = if name.is_empty() {
        format!("cv{id}")
    } else {
        name.to_string()
    };
    st.cvs.push(CvState { name });
    id
}

// ---- instrumented operations ----

pub(crate) fn op_yield(exec: &Execution, tid: usize, label: &str) {
    let mut st = lock_state(exec);
    st.record_event(tid, label);
    st.check_invariants();
    st.schedule(tid);
    exec.cv.notify_all();
    let st = must_wait(exec, tid, st);
    drop(st);
}

pub(crate) fn op_acquire(exec: &Execution, tid: usize, lock_id: usize, want: Want) {
    let mut st = lock_state(exec);
    let verb = match want {
        Want::Mutex => "lock",
        Want::Read => "read",
        Want::Write => "write",
    };
    let label = format!("{verb}({})", st.locks[lock_id].name);
    st.record_event(tid, &label);
    st.check_invariants();
    st.schedule(tid);
    exec.cv.notify_all();
    let mut st = must_wait(exec, tid, st);
    loop {
        if st.try_take(lock_id, want, tid) {
            return;
        }
        st.threads[tid].status = Status::Blocked(BlockReason::Lock {
            lock: lock_id,
            want,
        });
        st.schedule(tid);
        exec.cv.notify_all();
        st = must_wait(exec, tid, st);
    }
}

/// Lock release, called from guard `Drop` impls. Never unwinds while
/// the thread is already panicking (that would double-panic during an
/// abort teardown); aborted executions make it a no-op instead.
pub(crate) fn op_release(exec: &Execution, tid: usize, lock_id: usize) {
    let mut st = lock_state(exec);
    if st.aborted {
        return;
    }
    let label = format!("unlock({})", st.locks[lock_id].name);
    st.release_lock(lock_id, tid);
    st.record_event(tid, &label);
    st.check_invariants();
    st.schedule(tid);
    exec.cv.notify_all();
    match wait_for_turn(exec, tid, st) {
        Some(st) => drop(st),
        None => {
            if !std::thread::panicking() {
                unwind_abort();
            }
        }
    }
}

/// Condvar wait: atomically releases the paired mutex and blocks until
/// notified (or, for timed waits, until the lazy timeout fires), then
/// reacquires the mutex. Returns whether the wait timed out.
pub(crate) fn op_cv_wait(
    exec: &Execution,
    tid: usize,
    cv_id: usize,
    lock_id: usize,
    timed: bool,
) -> bool {
    let mut st = lock_state(exec);
    let label = format!(
        "{}({})",
        if timed { "wait_timeout" } else { "wait" },
        st.cvs[cv_id].name
    );
    st.record_event(tid, &label);
    st.check_invariants();
    st.release_lock(lock_id, tid);
    st.threads[tid].timed_out = false;
    st.threads[tid].status = Status::Blocked(BlockReason::Condvar {
        cv: cv_id,
        lock: lock_id,
        timed,
    });
    st.schedule(tid);
    exec.cv.notify_all();
    let mut st = must_wait(exec, tid, st);
    let timed_out = st.threads[tid].timed_out;
    loop {
        if st.try_take(lock_id, Want::Mutex, tid) {
            return timed_out;
        }
        st.threads[tid].status = Status::Blocked(BlockReason::Lock {
            lock: lock_id,
            want: Want::Mutex,
        });
        st.schedule(tid);
        exec.cv.notify_all();
        st = must_wait(exec, tid, st);
    }
}

pub(crate) fn op_cv_notify(exec: &Execution, tid: usize, cv_id: usize, all: bool) {
    let mut st = lock_state(exec);
    let label = format!(
        "{}({})",
        if all { "notify_all" } else { "notify_one" },
        st.cvs[cv_id].name
    );
    st.record_event(tid, &label);
    st.check_invariants();
    for t in st.threads.iter_mut() {
        if matches!(t.status, Status::Blocked(BlockReason::Condvar { cv, .. }) if cv == cv_id) {
            t.status = Status::Runnable;
            if !all {
                break; // notify_one wakes the lowest-tid waiter
            }
        }
    }
    st.schedule(tid);
    exec.cv.notify_all();
    let st = must_wait(exec, tid, st);
    drop(st);
}

pub(crate) fn op_join(exec: &Execution, tid: usize, target: usize) {
    let mut st = lock_state(exec);
    st.record_event(tid, &format!("join(t{target})"));
    st.check_invariants();
    if !matches!(st.threads[target].status, Status::Finished) {
        st.threads[tid].status = Status::Blocked(BlockReason::Join { target });
    }
    st.schedule(tid);
    exec.cv.notify_all();
    let st = must_wait(exec, tid, st);
    drop(st);
}

pub(crate) fn op_choose(exec: &Execution, tid: usize, n: usize) -> usize {
    let mut st = lock_state(exec);
    st.record_event(tid, &format!("choose({n})"));
    st.check_invariants();
    let v = st.decide_value(n, tid);
    let aborted = st.aborted;
    drop(st);
    if aborted {
        exec.cv.notify_all();
        unwind_abort();
    }
    v
}

/// A side-effect step standing in for real I/O. Fails the execution if
/// the calling thread holds any checked lock: no I/O under a lock.
pub(crate) fn op_io(exec: &Execution, tid: usize, label: &str) {
    let mut st = lock_state(exec);
    st.record_event(tid, &format!("io:{label}"));
    let held: Vec<String> = st.threads[tid]
        .held
        .iter()
        .map(|&id| st.locks[id].name.clone())
        .collect();
    if !held.is_empty() {
        let name = st.threads[tid].name.clone();
        st.fail(
            FailureKind::InvariantViolation,
            format!("io step {label:?} on t{tid} ({name}) while holding checked lock(s): {held:?}"),
        );
    }
    st.check_invariants();
    st.schedule(tid);
    exec.cv.notify_all();
    let st = must_wait(exec, tid, st);
    drop(st);
}

// ---- spawn / join / finish ----

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn store_result<T>(slot: &Mutex<Option<T>>, v: T) {
    *slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
}

/// Marks `tid` finished (or fails the execution if it panicked), wakes
/// joiners, and hands the turn onward.
pub(crate) fn finish_thread(exec: &Execution, tid: usize, panic_msg: Option<String>) {
    let mut st = lock_state(exec);
    if st.aborted {
        return;
    }
    match panic_msg {
        Some(msg) => {
            let name = st.threads[tid].name.clone();
            st.record_event(tid, &format!("panic: {msg}"));
            st.fail(
                FailureKind::Panic,
                format!("t{tid} ({name}) panicked: {msg}"),
            );
        }
        None => {
            st.record_event(tid, "exit");
            st.threads[tid].status = Status::Finished;
            for t in st.threads.iter_mut() {
                if matches!(t.status, Status::Blocked(BlockReason::Join { target }) if target == tid)
                {
                    t.status = Status::Runnable;
                }
            }
            st.schedule(tid);
        }
    }
    drop(st);
    exec.cv.notify_all();
}

/// Registers the model's root thread (tid 0) and starts it running
/// `f`. Called once per execution by the explorer.
pub(crate) fn start_root(exec: &Arc<Execution>, f: Arc<dyn Fn() + Send + Sync>) {
    {
        let mut st = lock_state(exec);
        st.threads.push(ThreadState::new("main".to_string()));
        st.current = 0;
    }
    let exec2 = Arc::clone(exec);
    let os = std::thread::Builder::new()
        .name("hddm-check-main".to_string())
        .stack_size(THREAD_STACK)
        .spawn(move || {
            set_ctx(Arc::clone(&exec2), 0);
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f()));
            match out {
                Ok(()) => finish_thread(&exec2, 0, None),
                Err(p) if p.downcast_ref::<AbortToken>().is_some() => {}
                Err(p) => finish_thread(&exec2, 0, Some(panic_message(&*p))),
            }
        })
        .expect("spawn model root thread");
    let mut st = lock_state(exec);
    st.handles.push(os);
}

/// Handle to a model thread started with [`spawn`].
pub struct JoinHandle<T> {
    exec: Arc<Execution>,
    tid: usize,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (as a scheduling point) until the thread finishes, then
    /// returns its result.
    pub fn join(self) -> T {
        let me = ctx_in(&self.exec);
        op_join(&self.exec, me, self.tid);
        let v = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        match v {
            Some(v) => v,
            // The target finished without storing a value: only
            // possible mid-abort, which op_join already unwinds on.
            None => unwind_abort(),
        }
    }
}

/// Spawns a named model thread. The name shows up in traces and
/// failure reports; the spawn itself is a scheduling point.
pub fn spawn<T, F>(name: &str, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (exec, parent) = ctx();
    let tid = {
        let mut st = lock_state(&exec);
        st.threads.push(ThreadState::new(name.to_string()));
        st.threads.len() - 1
    };
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let slot2 = Arc::clone(&slot);
    let exec2 = Arc::clone(&exec);
    let os = std::thread::Builder::new()
        .name(format!("hddm-check-{name}"))
        .stack_size(THREAD_STACK)
        .spawn(move || {
            set_ctx(Arc::clone(&exec2), tid);
            {
                let st = lock_state(&exec2);
                // First turn: run only once the scheduler picks us. On
                // abort before that, exit silently.
                let Some(st) = wait_for_turn(&exec2, tid, st) else {
                    return;
                };
                drop(st);
            }
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            match out {
                Ok(v) => {
                    store_result(&slot2, v);
                    finish_thread(&exec2, tid, None);
                }
                Err(p) if p.downcast_ref::<AbortToken>().is_some() => {}
                Err(p) => finish_thread(&exec2, tid, Some(panic_message(&*p))),
            }
        })
        .expect("spawn model thread");
    {
        let mut st = lock_state(&exec);
        st.handles.push(os);
    }
    op_yield(&exec, parent, &format!("spawn({name})"));
    JoinHandle { exec, tid, slot }
}

// ---- model-facing free functions ----

/// An explicit scheduling point with a label; use to mark work between
/// synchronization operations (e.g. "run_batch solve").
pub fn step(label: &str) {
    let (exec, tid) = ctx();
    op_yield(&exec, tid, label);
}

/// Data nondeterminism: explores every value in `0..n` across
/// schedules (a value decision, never a preemption).
pub fn choose(n: usize) -> usize {
    let (exec, tid) = ctx();
    op_choose(&exec, tid, n)
}

/// Registers a named invariant checked at every scheduling point.
/// The closure must only `peek()` checked atomics (or read captured
/// plain state) — it runs inside the scheduler and must not call any
/// yielding operation.
pub fn register_invariant<F>(name: &str, f: F)
where
    F: Fn() -> Result<(), String> + Send + 'static,
{
    let (exec, _) = ctx();
    lock_state(&exec).invariants.push(Invariant {
        name: name.to_string(),
        check: Box::new(f),
    });
}
