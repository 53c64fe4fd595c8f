//! The message-passing runtime: an MPI-flavored `Comm` abstraction with a
//! threaded in-process backend (every rank is an OS thread).
//!
//! Supported operations are exactly what the time iteration of Fig. 2
//! needs: `barrier`, `allgather` (merging per-rank policy slices),
//! `allreduce` (convergence norms), `bcast`, and — the structural core of
//! Sec. IV-A — `split`, which carves `MPI_COMM_WORLD` into one
//! sub-communicator per discrete state.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Locks `lock`, recovering it if a rank panicked while holding it: the
/// boards hold plain data that every collective rewrites before reading,
/// so a poisoned lock carries no broken invariant and the surviving ranks
/// must not cascade-panic on it.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| {
        lock.clear_poison();
        poisoned.into_inner()
    })
}

/// MPI-like communicator operations over `f64` payloads.
pub trait Comm: Sized {
    /// This rank's id within the communicator.
    fn rank(&self) -> usize;
    /// Number of ranks in the communicator.
    fn size(&self) -> usize;
    /// Synchronizes all ranks.
    fn barrier(&self);
    /// Gathers every rank's (variable-length) contribution, in rank order.
    fn allgather(&self, mine: &[f64]) -> Vec<Vec<f64>>;
    /// Element-wise sum across ranks (`buf` must have equal length
    /// everywhere).
    fn allreduce_sum(&self, buf: &mut [f64]);
    /// Element-wise max across ranks.
    fn allreduce_max(&self, buf: &mut [f64]);
    /// Broadcast from `root` (the slice is overwritten on other ranks).
    fn bcast(&self, root: usize, buf: &mut [f64]);
    /// Splits into sub-communicators by `color`; rank order within a color
    /// follows world-rank order (MPI_Comm_split with key = rank).
    fn split(&self, color: usize) -> Self;
}

/// A phase-counted rendezvous: supports repeated barriers on the same set
/// of participants (std's `Barrier` works too, but this one also backs the
/// exchange board).
struct Rendezvous {
    size: usize,
    state: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

impl Rendezvous {
    fn new(size: usize) -> Self {
        Rendezvous {
            size,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut guard = recover(&self.state);
        let gen = guard.1;
        guard.0 += 1;
        if guard.0 == self.size {
            guard.0 = 0;
            guard.1 += 1;
            self.cv.notify_all();
        } else {
            // `wait_while` returns early, generation unchecked, when it
            // wakes to a lock a panicking rank poisoned: recover, wait on.
            while let Err(poisoned) = self.cv.wait_while(guard, |(_, g)| *g == gen) {
                self.state.clear_poison();
                guard = poisoned.into_inner();
            }
        }
    }
}

/// Shared state of one communicator.
struct Inner {
    size: usize,
    rendezvous: Rendezvous,
    /// Exchange board for collectives: one slot per rank.
    board: Mutex<Vec<Option<Vec<f64>>>>,
    /// Board used by `split` to publish child communicators.
    split_board: Mutex<HashMap<usize, Arc<Inner>>>,
    /// Scratch for collecting colors during `split`.
    color_board: Mutex<Vec<Option<usize>>>,
}

impl Inner {
    fn new(size: usize) -> Arc<Inner> {
        Arc::new(Inner {
            size,
            rendezvous: Rendezvous::new(size),
            board: Mutex::new(vec![None; size]),
            split_board: Mutex::new(HashMap::new()),
            color_board: Mutex::new(vec![None; size]),
        })
    }
}

/// The threaded communicator backend.
#[derive(Clone)]
pub struct ThreadComm {
    rank: usize,
    inner: Arc<Inner>,
}

impl ThreadComm {
    /// Runs `f(comm)` on `n` rank threads and returns the per-rank results
    /// in rank order. Panics in any rank propagate.
    pub fn launch<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadComm) -> T + Sync,
    {
        assert!(n >= 1);
        let inner = Inner::new(n);
        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let comm = ThreadComm {
                    rank,
                    inner: Arc::clone(&inner),
                };
                let f = &f;
                handles.push(scope.spawn(move || f(comm)));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                results[rank] = Some(handle.join().expect("rank thread panicked"));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.inner.size
    }

    fn barrier(&self) {
        self.inner.rendezvous.wait();
    }

    fn allgather(&self, mine: &[f64]) -> Vec<Vec<f64>> {
        recover(&self.inner.board)[self.rank] = Some(mine.to_vec());
        self.barrier();
        let all: Vec<Vec<f64>> = recover(&self.inner.board)
            .iter()
            .map(|slot| slot.clone().expect("rank missing from allgather"))
            .collect();
        self.barrier(); // everyone has read: safe to clear
        if self.rank == 0 {
            recover(&self.inner.board)
                .iter_mut()
                .for_each(|s| *s = None);
        }
        self.barrier();
        all
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let all = self.allgather(buf);
        buf.fill(0.0);
        for contribution in &all {
            assert_eq!(contribution.len(), buf.len(), "allreduce length mismatch");
            for (b, c) in buf.iter_mut().zip(contribution) {
                *b += c;
            }
        }
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        let all = self.allgather(buf);
        buf.fill(f64::NEG_INFINITY);
        for contribution in &all {
            for (b, c) in buf.iter_mut().zip(contribution) {
                *b = b.max(*c);
            }
        }
    }

    fn bcast(&self, root: usize, buf: &mut [f64]) {
        if self.rank == root {
            recover(&self.inner.board)[root] = Some(buf.to_vec());
        }
        self.barrier();
        if self.rank != root {
            let board = recover(&self.inner.board);
            let data = board[root].as_ref().expect("bcast root missing");
            buf.copy_from_slice(data);
        }
        self.barrier();
        if self.rank == root {
            recover(&self.inner.board)[root] = None;
        }
        self.barrier();
    }

    fn split(&self, color: usize) -> ThreadComm {
        // Publish colors.
        recover(&self.inner.color_board)[self.rank] = Some(color);
        self.barrier();
        let colors: Vec<usize> = recover(&self.inner.color_board)
            .iter()
            .map(|c| c.expect("rank missing color"))
            .collect();
        // New rank = position among same-colored world ranks.
        let members: Vec<usize> = (0..self.inner.size)
            .filter(|&r| colors[r] == color)
            .collect();
        let new_rank = members.iter().position(|&r| r == self.rank).unwrap();
        // The lowest rank of each color creates the child communicator.
        if new_rank == 0 {
            let child = Inner::new(members.len());
            recover(&self.inner.split_board).insert(color, child);
        }
        self.barrier();
        let child = Arc::clone(
            recover(&self.inner.split_board)
                .get(&color)
                .expect("child communicator missing"),
        );
        self.barrier();
        if self.rank == 0 {
            recover(&self.inner.split_board).clear();
            recover(&self.inner.color_board)
                .iter_mut()
                .for_each(|c| *c = None);
        }
        self.barrier();
        ThreadComm {
            rank: new_rank,
            inner: child,
        }
    }
}

/// A trivial single-rank communicator for serial runs (`size() == 1`), so
/// the driver code path is identical with and without a cluster.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialComm;

impl Comm for SerialComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn barrier(&self) {}
    fn allgather(&self, mine: &[f64]) -> Vec<Vec<f64>> {
        vec![mine.to_vec()]
    }
    fn allreduce_sum(&self, _buf: &mut [f64]) {}
    fn allreduce_max(&self, _buf: &mut [f64]) {}
    fn bcast(&self, _root: usize, _buf: &mut [f64]) {}
    fn split(&self, _color: usize) -> SerialComm {
        SerialComm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_sum_matches_serial() {
        let results = ThreadComm::launch(4, |comm| {
            let mut buf = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![6.0, 4.0]); // 0+1+2+3, 1·4
        }
    }

    #[test]
    fn allreduce_max() {
        let results = ThreadComm::launch(3, |comm| {
            let mut buf = vec![-(comm.rank() as f64), comm.rank() as f64];
            comm.allreduce_max(&mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![0.0, 2.0]);
        }
    }

    #[test]
    fn allgather_preserves_rank_order_and_ragged_sizes() {
        let results = ThreadComm::launch(3, |comm| {
            let mine = vec![comm.rank() as f64; comm.rank() + 1];
            comm.allgather(&mine)
        });
        for r in &results {
            assert_eq!(r.len(), 3);
            for (rank, slice) in r.iter().enumerate() {
                assert_eq!(slice.len(), rank + 1);
                assert!(slice.iter().all(|&v| v == rank as f64));
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let results = ThreadComm::launch(4, |comm| {
            let mut buf = if comm.rank() == 2 {
                vec![7.5, -1.0]
            } else {
                vec![0.0, 0.0]
            };
            comm.bcast(2, &mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![7.5, -1.0]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock() {
        let results = ThreadComm::launch(3, |comm| {
            let mut acc = 0.0;
            for round in 0..20 {
                let mut buf = vec![comm.rank() as f64 + round as f64];
                comm.allreduce_sum(&mut buf);
                acc += buf[0];
            }
            acc
        });
        let expected: f64 = (0..20).map(|r| 3.0 * r as f64 + 3.0).sum();
        for r in &results {
            assert_eq!(*r, expected);
        }
    }

    #[test]
    fn split_into_groups() {
        // 6 ranks, colors 0/1 alternating: two groups of 3 with local
        // collectives isolated from each other.
        let results = ThreadComm::launch(6, |comm| {
            let color = comm.rank() % 2;
            let group = comm.split(color);
            assert_eq!(group.size(), 3);
            let mut buf = vec![comm.rank() as f64];
            group.allreduce_sum(&mut buf);
            (color, group.rank(), buf[0])
        });
        for (rank, (color, group_rank, sum)) in results.iter().enumerate() {
            assert_eq!(*color, rank % 2);
            assert_eq!(*group_rank, rank / 2);
            // Even ranks: 0+2+4 = 6; odd: 1+3+5 = 9.
            let expected = if color == &0 { 6.0 } else { 9.0 };
            assert_eq!(*sum, expected, "rank {rank}");
        }
    }

    #[test]
    fn split_then_world_barrier_still_works() {
        ThreadComm::launch(4, |comm| {
            let group = comm.split(comm.rank() / 2);
            group.barrier();
            comm.barrier();
            let mut buf = vec![1.0];
            comm.allreduce_sum(&mut buf);
            assert_eq!(buf[0], 4.0);
        });
    }

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_is_recovered() {
        // Rank 1 panics while holding the exchange board and the
        // rendezvous state; the collectives that follow must neither
        // cascade the panic nor hang, and must leave the locks clean.
        let results = ThreadComm::launch(3, |comm| {
            if comm.rank() == 1 {
                let holder = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _board = recover(&comm.inner.board);
                    let _state = recover(&comm.inner.rendezvous.state);
                    panic!("injected");
                }));
                assert!(holder.is_err());
                // (The rendezvous state may already have been recovered
                // by a peer entering the barrier below.)
                assert!(comm.inner.board.is_poisoned());
            }
            comm.barrier();
            let mut buf = vec![comm.rank() as f64];
            comm.allreduce_sum(&mut buf);
            assert!(!comm.inner.board.is_poisoned());
            assert!(!comm.inner.rendezvous.state.is_poisoned());
            buf[0]
        });
        assert_eq!(results, vec![3.0; 3]);
    }

    #[test]
    fn serial_comm_is_identity() {
        let comm = SerialComm;
        assert_eq!(comm.size(), 1);
        let mut buf = vec![3.0];
        comm.allreduce_sum(&mut buf);
        assert_eq!(buf, vec![3.0]);
        let gathered = comm.allgather(&[1.0, 2.0]);
        assert_eq!(gathered, vec![vec![1.0, 2.0]]);
    }
}
