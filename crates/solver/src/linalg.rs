//! Minimal dense linear algebra: row-major matrices and LU factorization
//! with partial pivoting — all the Newton solver needs for the paper's
//! ~60×60 per-point systems.

use crate::SolverError;

/// Row-major dense square matrix.
#[derive(Clone, Debug)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major slice.
    pub fn from_rows(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n);
        DenseMatrix {
            n,
            data: data.to_vec(),
        }
    }

    /// Matrix order `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Mutable access to row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Read access to row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// `y = A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        matvec(&self.data, x, y)
    }

    /// Rank-1 update `A += alpha · u vᵀ` (Broyden's step).
    pub fn rank1_update(&mut self, alpha: f64, u: &[f64], v: &[f64]) {
        rank1_update(&mut self.data, alpha, u, v)
    }
}

/// `y = A·x` for a row-major `n × n` matrix stored in `a` (`n = x.len()`).
/// The slice forms below are the arithmetic of [`DenseMatrix`] and [`Lu`];
/// the block Newton keeps many small systems in flat per-worker buffers
/// and calls them directly.
pub(crate) fn matvec(a: &[f64], x: &[f64], y: &mut [f64]) {
    let n = x.len();
    assert_eq!(a.len(), n * n);
    assert_eq!(y.len(), n);
    for (yi, row) in y.iter_mut().zip(a.chunks_exact(n)) {
        *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
    }
}

/// `A += alpha · u vᵀ` on a row-major `n × n` slice (`n = u.len()`).
pub(crate) fn rank1_update(a: &mut [f64], alpha: f64, u: &[f64], v: &[f64]) {
    let n = u.len();
    assert_eq!(a.len(), n * n);
    assert_eq!(v.len(), n);
    for (row, &ui) in a.chunks_exact_mut(n).zip(u) {
        let ui = alpha * ui;
        for (aij, vj) in row.iter_mut().zip(v) {
            *aij += ui * vj;
        }
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

/// LU factorization with partial pivoting (`PA = LU`).
#[derive(Clone, Debug)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<u32>,
}

impl Lu {
    /// Factors `a`, consuming a copy. Fails on (numerical) singularity.
    pub fn factor(a: &DenseMatrix) -> Result<Lu, SolverError> {
        let n = a.n;
        let mut lu = a.data.clone();
        let mut pivots = vec![0u32; n];
        lu_factor(&mut lu, &mut pivots)?;
        Ok(Lu { n, lu, pivots })
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    pub fn solve(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        lu_solve(&self.lu, &self.pivots, b)
    }
}

/// Factors the row-major `n × n` matrix in `lu` in place (`PA = LU`,
/// `n = pivots.len()`). On `Err` the contents of `lu` are unspecified.
pub(crate) fn lu_factor(lu: &mut [f64], pivots: &mut [u32]) -> Result<(), SolverError> {
    let n = pivots.len();
    assert_eq!(lu.len(), n * n);
    for col in 0..n {
        // Pivot search.
        let mut best = col;
        let mut best_abs = lu[col * n + col].abs();
        for r in col + 1..n {
            let v = lu[r * n + col].abs();
            if v > best_abs {
                best_abs = v;
                best = r;
            }
        }
        if best_abs < f64::MIN_POSITIVE * 1e4 || !best_abs.is_finite() {
            return Err(SolverError::SingularJacobian { column: col });
        }
        pivots[col] = best as u32;
        if best != col {
            for j in 0..n {
                lu.swap(col * n + j, best * n + j);
            }
        }
        let inv_pivot = 1.0 / lu[col * n + col];
        for r in col + 1..n {
            let factor = lu[r * n + col] * inv_pivot;
            lu[r * n + col] = factor;
            for j in col + 1..n {
                lu[r * n + j] -= factor * lu[col * n + j];
            }
        }
    }
    Ok(())
}

/// Solves `A x = b` in place with the factors [`lu_factor`] left in `lu`.
pub(crate) fn lu_solve(lu: &[f64], pivots: &[u32], b: &mut [f64]) {
    let n = pivots.len();
    assert_eq!(b.len(), n);
    // Apply permutation + forward substitution.
    for i in 0..n {
        b.swap(i, pivots[i] as usize);
        let bi = b[i];
        if bi != 0.0 {
            for r in i + 1..n {
                b[r] -= lu[r * n + i] * bi;
            }
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in i + 1..n {
            sum -= lu[i * n + j] * b[j];
        }
        b[i] = sum / lu[i * n + i];
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Max norm.
#[inline]
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        // A = [[4,3],[6,3]], b = [10, 12] -> x = [1, 2].
        let a = DenseMatrix::from_rows(2, &[4.0, 3.0, 6.0, 3.0]);
        let lu = Lu::factor(&a).unwrap();
        let mut b = vec![10.0, 12.0];
        lu.solve(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_handles_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(3, &[0.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 3.0]);
        let lu = Lu::factor(&a).unwrap();
        let x_true = [1.5, -2.0, 0.5];
        let mut b = vec![0.0; 3];
        a.matvec(&x_true, &mut b);
        lu.solve(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_roundtrip_random_matrices() {
        // Deterministic pseudo-random well-conditioned matrices.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1usize, 2, 5, 13, 59] {
            let mut a = DenseMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += 3.0; // diagonal dominance
            }
            let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut b = vec![0.0; n];
            a.matvec(&x_true, &mut b);
            let lu = Lu::factor(&a).unwrap();
            lu.solve(&mut b);
            for (got, want) in b.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        match Lu::factor(&a) {
            Err(SolverError::SingularJacobian { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn rank1_update_matches_definition() {
        let mut a = DenseMatrix::identity(3);
        let u = [1.0, 2.0, 3.0];
        let v = [0.5, -1.0, 2.0];
        a.rank1_update(2.0, &u, &v);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 } + 2.0 * u[i] * v[j];
                assert!((a[(i, j)] - expected).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
    }
}
