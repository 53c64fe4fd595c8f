//! A write-disjoint view over a row-major matrix, letting the
//! `hddm-sched` pool write solved dof rows from many threads without
//! locks. Safety rests on the scheduler's exactly-once contract (each
//! index is dispatched to exactly one task — tested in `hddm-sched`).

use std::cell::UnsafeCell;

/// Row-major `rows × width` matrix accepting concurrent writes to
/// *distinct* rows.
pub struct DisjointRows {
    data: UnsafeCell<Vec<f64>>,
    rows: usize,
    width: usize,
}

// SAFETY: concurrent access is restricted to disjoint rows by the caller
// contract of `write_row` (each row index written by at most one thread).
unsafe impl Sync for DisjointRows {}

impl DisjointRows {
    /// Zero-initialized matrix.
    pub fn zeros(rows: usize, width: usize) -> Self {
        DisjointRows {
            data: UnsafeCell::new(vec![0.0; rows * width]),
            rows,
            width,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Writes row `i`.
    ///
    /// # Safety contract (checked in debug builds)
    /// Each row must be written by at most one thread at a time; rows are
    /// naturally disjoint, so exactly-once index dispatch satisfies this.
    pub fn write_row(&self, i: usize, row: &[f64]) {
        assert_eq!(row.len(), self.width);
        assert!(i < self.rows);
        // SAFETY: rows are disjoint slices; the scheduler dispatches each
        // index to exactly one task.
        unsafe {
            let base = (*self.data.get()).as_mut_ptr().add(i * self.width);
            std::ptr::copy_nonoverlapping(row.as_ptr(), base, self.width);
        }
    }

    /// Consumes the matrix, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_sched::{parallel_for, PoolConfig};

    #[test]
    fn concurrent_disjoint_writes() {
        let rows = 500;
        let width = 7;
        let matrix = DisjointRows::zeros(rows, width);
        parallel_for(
            rows,
            &PoolConfig {
                threads: 4,
                grain: 3,
            },
            |i| {
                let row: Vec<f64> = (0..width).map(|k| (i * width + k) as f64).collect();
                matrix.write_row(i, &row);
            },
        );
        let data = matrix.into_vec();
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k as f64);
        }
    }

    #[test]
    #[should_panic]
    fn wrong_width_is_rejected() {
        let matrix = DisjointRows::zeros(2, 3);
        matrix.write_row(0, &[1.0, 2.0]);
    }
}
