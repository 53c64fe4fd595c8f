//! Device-resident surface pool: a served scenario's `CompressedState`
//! is uploaded to the (simulated) device once and re-used across
//! requests instead of being re-staged per call. Residency is LRU by
//! device bytes; evictions are counted so the serving telemetry can
//! watch the working set churn.
//!
//! The pool is *accounting*, not storage: the simulation always reads
//! host memory for the arithmetic (results cannot depend on residency),
//! so an entry records only identity, size and recency. Identity is the
//! surplus buffer's address + shape — if a state is dropped and another
//! allocates the same buffer, the pool may report a stale hit, which
//! costs a skipped modeled upload and nothing else (results are
//! unaffected by construction).

use std::sync::{Mutex, MutexGuard, PoisonError};

use hddm_kernels::CompressedState;

/// Identity of a device-resident surface. Pointer-based: cheap, stable
/// for the lifetime of the state, and collision-safe enough for cost
/// accounting (see the module docs for the ABA caveat).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SurfaceId {
    addr: usize,
    len: usize,
    nno: usize,
    ndofs: usize,
}

impl SurfaceId {
    /// The identity of `state`'s device allocation.
    pub fn of(state: &CompressedState) -> SurfaceId {
        SurfaceId {
            addr: state.surplus.as_ptr() as usize,
            len: state.surplus.len(),
            nno: state.grid.nno(),
            ndofs: state.ndofs,
        }
    }
}

/// Device bytes a resident surface occupies: the surplus matrix, the
/// chain index matrix and the xps table.
pub fn device_bytes(state: &CompressedState) -> usize {
    std::mem::size_of_val(&state.surplus[..])
        + std::mem::size_of_val(state.grid.chains())
        + state.grid.xps().len() * 8
}

/// Outcome of one residency request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Residency {
    /// The surface was already resident (no upload).
    pub reused: bool,
    /// Device bytes of this surface.
    pub bytes: usize,
    /// Surfaces evicted to make room.
    pub evicted: usize,
    /// Modeled PCIe upload time (0 when reused).
    pub upload_seconds: f64,
}

struct PoolEntry {
    id: SurfaceId,
    bytes: usize,
    last_used: u64,
}

struct PoolInner {
    entries: Vec<PoolEntry>,
    resident_bytes: usize,
    clock: u64,
    evictions: u64,
}

/// LRU pool of device-resident surfaces, bounded by device bytes.
pub struct DevicePool {
    capacity_bytes: usize,
    inner: Mutex<PoolInner>,
}

impl DevicePool {
    /// An empty pool with the given device-byte budget.
    pub fn new(capacity_bytes: usize) -> DevicePool {
        DevicePool {
            capacity_bytes,
            inner: Mutex::new(PoolInner {
                entries: Vec::new(),
                resident_bytes: 0,
                clock: 0,
                evictions: 0,
            }),
        }
    }

    /// The pool state. A panic under this lock leaves at worst a stale
    /// residency tally — accounting, never a value — so its poison is
    /// ignored rather than turned into a panic in every later request.
    fn state(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool's device-byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Ensures `state` is resident, evicting least-recently-used
    /// surfaces as needed. A surface larger than the whole budget still
    /// becomes resident (evicting everything else): the device must
    /// hold the surface it is asked to evaluate, so the budget floors
    /// at one surface. `pcie_bandwidth` prices the modeled upload.
    pub fn ensure_resident(&self, state: &CompressedState, pcie_bandwidth: f64) -> Residency {
        let id = SurfaceId::of(state);
        let bytes = device_bytes(state);
        let mut inner = self.state();
        inner.clock += 1;
        let now = inner.clock;
        if let Some(e) = inner.entries.iter_mut().find(|e| e.id == id) {
            e.last_used = now;
            return Residency {
                reused: true,
                bytes,
                evicted: 0,
                upload_seconds: 0.0,
            };
        }
        let mut evicted = 0usize;
        while inner.resident_bytes + bytes > self.capacity_bytes {
            // `min_by_key` is None exactly when the pool is empty, which
            // ends eviction (the oversized-surface floor) without a
            // panic path under the live guard.
            let Some(lru) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            let gone = inner.entries.swap_remove(lru);
            inner.resident_bytes -= gone.bytes;
            evicted += 1;
        }
        inner.evictions += evicted as u64;
        inner.resident_bytes += bytes;
        inner.entries.push(PoolEntry {
            id,
            bytes,
            last_used: now,
        });
        Residency {
            reused: false,
            bytes,
            evicted,
            upload_seconds: bytes as f64 / pcie_bandwidth,
        }
    }

    /// Device bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.state().resident_bytes
    }

    /// Number of surfaces currently resident.
    pub fn resident_surfaces(&self) -> usize {
        self.state().entries.len()
    }

    /// Total surfaces evicted over the pool's lifetime.
    pub fn evictions(&self) -> u64 {
        self.state().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::{hierarchize, regular_grid, tabulate};

    fn make_state(dim: usize, n: u8, ndofs: usize) -> CompressedState {
        let grid = regular_grid(dim, n);
        let mut surplus = tabulate(&grid, ndofs, |x, out| {
            for (k, o) in out.iter_mut().enumerate() {
                *o = x.iter().sum::<f64>() * (k + 1) as f64;
            }
        });
        hierarchize(&grid, &mut surplus, ndofs);
        CompressedState::new(&grid, &surplus, ndofs)
    }

    #[test]
    fn upload_once_then_reuse() {
        let s = make_state(3, 3, 4);
        let pool = DevicePool::new(1 << 30);
        let first = pool.ensure_resident(&s, 11e9);
        assert!(!first.reused);
        assert!(first.upload_seconds > 0.0);
        for _ in 0..3 {
            let again = pool.ensure_resident(&s, 11e9);
            assert!(again.reused);
            assert_eq!(again.upload_seconds, 0.0);
            assert_eq!(again.evicted, 0);
        }
        assert_eq!(pool.resident_surfaces(), 1);
        assert_eq!(pool.resident_bytes(), first.bytes);
        assert_eq!(pool.evictions(), 0);
    }

    #[test]
    fn lru_eviction_by_device_bytes() {
        let a = make_state(3, 3, 4);
        let b = make_state(3, 3, 5);
        let c = make_state(3, 3, 6);
        let bytes_a = device_bytes(&a);
        let bytes_b = device_bytes(&b);
        // Room for exactly two of the three surfaces.
        let pool = DevicePool::new(bytes_a + bytes_b + device_bytes(&c) / 2);
        assert!(!pool.ensure_resident(&a, 11e9).reused);
        assert!(!pool.ensure_resident(&b, 11e9).reused);
        // Touch `a` so `b` is the LRU victim.
        assert!(pool.ensure_resident(&a, 11e9).reused);
        let r = pool.ensure_resident(&c, 11e9);
        assert!(!r.reused);
        assert_eq!(r.evicted, 1);
        assert_eq!(pool.evictions(), 1);
        // `a` survived, `b` must re-upload.
        assert!(pool.ensure_resident(&a, 11e9).reused);
        assert!(!pool.ensure_resident(&b, 11e9).reused);
    }

    #[test]
    fn oversized_surface_floors_at_one_resident() {
        let s = make_state(3, 4, 8);
        let pool = DevicePool::new(16); // far smaller than any surface
        let r = pool.ensure_resident(&s, 11e9);
        assert!(!r.reused);
        assert_eq!(pool.resident_surfaces(), 1);
        assert!(pool.resident_bytes() > pool.capacity_bytes());
        // Still reusable while resident.
        assert!(pool.ensure_resident(&s, 11e9).reused);
    }

    #[test]
    fn a_panic_under_the_pool_lock_does_not_poison_later_requests() {
        let s = make_state(3, 3, 4);
        let pool = DevicePool::new(1 << 30);
        let first = pool.ensure_resident(&s, 11e9);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _inner = pool.inner.lock();
                panic!("panic while the pool is locked");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(pool.inner.is_poisoned());
        assert_eq!(pool.resident_bytes(), first.bytes);
        assert!(pool.ensure_resident(&s, 11e9).reused);
        assert_eq!((pool.resident_surfaces(), pool.evictions()), (1, 0));
    }
}
