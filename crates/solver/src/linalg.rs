//! Minimal dense linear algebra on row-major slices: LU factorization
//! with partial pivoting, its solve and two norms — all the Newton solver
//! needs for the paper's ~60×60 per-point systems, which the block Newton
//! keeps in flat per-worker buffers.

use crate::SolverError;

/// The smallest pivot [`lu_factor`] accepts. Newton's Broyden update
/// holds its denominator to the same floor.
pub(crate) const PIVOT_FLOOR: f64 = f64::MIN_POSITIVE * 1e4;

/// Factors the row-major `n × n` matrix in `lu` in place (`PA = LU`,
/// `n = pivots.len()`). On `Err` the contents of `lu` are unspecified.
/// Elimination runs on row slices, row by row below the pivot.
pub fn lu_factor(lu: &mut [f64], pivots: &mut [u32]) -> Result<(), SolverError> {
    let n = pivots.len();
    assert_eq!(lu.len(), n * n);
    for col in 0..n {
        // Pivot search.
        let mut best = col;
        let mut best_abs = lu[col * n + col].abs();
        for (r, row) in lu.chunks_exact(n).enumerate().skip(col + 1) {
            let v = row[col].abs();
            if v > best_abs {
                best_abs = v;
                best = r;
            }
        }
        if best_abs < PIVOT_FLOOR || !best_abs.is_finite() {
            return Err(SolverError::SingularJacobian { column: col });
        }
        pivots[col] = best as u32;
        if best != col {
            let (upper, lower) = lu.split_at_mut(best * n);
            upper[col * n..(col + 1) * n].swap_with_slice(&mut lower[..n]);
        }
        let (upper, lower) = lu.split_at_mut((col + 1) * n);
        let pivot_row = &upper[col * n..];
        let inv_pivot = 1.0 / pivot_row[col];
        for row in lower.chunks_exact_mut(n) {
            let factor = row[col] * inv_pivot;
            row[col] = factor;
            for (a, p) in row[col + 1..].iter_mut().zip(&pivot_row[col + 1..]) {
                *a -= factor * p;
            }
        }
    }
    Ok(())
}

/// Solves `A x = b` in place with the factors [`lu_factor`] left in `lu`.
pub fn lu_solve(lu: &[f64], pivots: &[u32], b: &mut [f64]) {
    let n = pivots.len();
    assert_eq!(b.len(), n);
    assert_eq!(lu.len(), n * n);
    // `lu_factor` swaps whole rows, the multipliers of `L` included, so
    // `L` is the factor of `PA`: permute all of `b` first.
    for (i, &p) in pivots.iter().enumerate() {
        b.swap(i, p as usize);
    }
    // Forward substitution, row `r` of `L` against the solved head of
    // `b`: element `r` takes `b_r −= l_ri · b_i` for `i` ascending,
    // skipping a zero `b_i`, as a sweep down the columns of `L` would.
    for (r, row) in lu.chunks_exact(n.max(1)).enumerate().skip(1) {
        let (head, tail) = b.split_at_mut(r);
        let mut sum = tail[0];
        for (l, &bi) in row[..r].iter().zip(head.iter()) {
            if bi != 0.0 {
                sum -= l * bi;
            }
        }
        tail[0] = sum;
    }
    // Back substitution: row `i` of `U` against the solved tail of `b`.
    for (i, row) in lu.chunks_exact(n.max(1)).enumerate().rev() {
        let (head, tail) = b.split_at_mut(i + 1);
        let mut sum = head[i];
        for (u, x) in row[i + 1..].iter().zip(tail.iter()) {
            sum -= u * x;
        }
        head[i] = sum / row[i];
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Max norm. A NaN entry makes it NaN (`f64::max` would drop it), so a
/// NaN residual never passes a tolerance test.
#[inline]
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter()
        .map(|x| x.abs())
        .fold(0.0, |m, a| if a > m || a.is_nan() { a } else { m })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `y = A·x` for a row-major `n × n` matrix stored in `a` (`n = x.len()`).
    pub(crate) fn matvec(a: &[f64], x: &[f64], y: &mut [f64]) {
        let n = x.len();
        assert_eq!(a.len(), n * n);
        assert_eq!(y.len(), n);
        for (yi, row) in y.iter_mut().zip(a.chunks_exact(n)) {
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `A += alpha · u vᵀ` on a row-major `n × n` slice (`n = u.len()`):
    /// the matrix form of Broyden's update, the reference Newton's
    /// product form is tested against.
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

    /// Factors a copy of `a` and solves `a x = b` in place.
    pub(crate) fn solve(a: &[f64], b: &mut [f64]) -> Result<(), SolverError> {
        let mut lu = a.to_vec();
        let mut pivots = vec![0; b.len()];
        lu_factor(&mut lu, &mut pivots)?;
        lu_solve(&lu, &pivots, b);
        Ok(())
    }

    #[test]
    fn lu_solves_known_system() {
        // A = [[4,3],[6,3]], b = [10, 12] -> x = [1, 2].
        let mut b = vec![10.0, 12.0];
        solve(&[4.0, 3.0, 6.0, 3.0], &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_handles_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = [0.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 3.0];
        let x_true = [1.5, -2.0, 0.5];
        let mut b = vec![0.0; 3];
        matvec(&a, &x_true, &mut b);
        solve(&a, &mut b).unwrap();
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_solves_when_a_later_column_swaps_rows() {
        // Every column pivots on the last row, so the multipliers of
        // column 0 move with the swap of column 1.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0];
        let (mut lu, mut pivots) = (a.to_vec(), vec![0; 3]);
        lu_factor(&mut lu, &mut pivots).unwrap();
        assert_eq!(pivots, [2, 2, 2]);
        let mut b = vec![-1.5, -3.0, -4.0];
        lu_solve(&lu, &pivots, &mut b);
        for (got, want) in b.iter().zip([1.0, -2.0, 0.5]) {
            assert!((got - want).abs() < 1e-12, "{b:?}");
        }
    }

    #[test]
    fn lu_solves_random_matrices_without_dominance() {
        // Entries in [−0.5, 0.5) and no added diagonal: partial pivoting
        // swaps rows in most columns.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [3, 9] {
            for _ in 0..1000 {
                let a: Vec<f64> = (0..n * n).map(|_| next()).collect();
                let x_true: Vec<f64> = (0..n).map(|_| next() * 4.0).collect();
                let mut b = vec![0.0; n];
                matvec(&a, &x_true, &mut b);
                let (mut lu, mut pivots) = (a.clone(), vec![0; n]);
                if lu_factor(&mut lu, &mut pivots).is_err() {
                    continue;
                }
                let mut x = b.clone();
                lu_solve(&lu, &pivots, &mut x);
                // The backward error `‖A x − b‖∞`, against
                // `‖A‖∞ ‖x‖∞ + ‖b‖∞`: near-singular draws stay in bounds.
                let mut ax = vec![0.0; n];
                matvec(&a, &x, &mut ax);
                let residual: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
                let a_norm = a
                    .chunks_exact(n)
                    .map(|row| row.iter().map(|v| v.abs()).sum::<f64>());
                let scale = a_norm.fold(0.0, f64::max) * norm_inf(&x) + norm_inf(&b);
                assert!(
                    norm_inf(&residual) <= 1e-12 * scale,
                    "n={n}: {x:?} vs {x_true:?}"
                );
            }
        }
    }

    #[test]
    fn the_row_sweep_solves_as_the_column_sweep_does_bit_for_bit() {
        // The column-oriented forward substitution `lu_solve` had, as the
        // reference; right-hand sides with zeros, so the skip is taken.
        fn by_columns(lu: &[f64], pivots: &[u32], b: &mut [f64]) {
            let n = pivots.len();
            for (i, &p) in pivots.iter().enumerate() {
                b.swap(i, p as usize);
            }
            for i in 0..n {
                let bi = b[i];
                if bi != 0.0 {
                    let column = lu[i..].iter().step_by(n).skip(i + 1);
                    for (br, l) in b[i + 1..].iter_mut().zip(column) {
                        *br -= l * bi;
                    }
                }
            }
            for (i, row) in lu.chunks_exact(n.max(1)).enumerate().rev() {
                let (head, tail) = b.split_at_mut(i + 1);
                let mut sum = head[i];
                for (u, x) in row[i + 1..].iter().zip(tail.iter()) {
                    sum -= u * x;
                }
                head[i] = sum / row[i];
            }
        }
        let mut seed = 0x5851_F42D_4C95_7F2Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1, 2, 4, 9, 59] {
            for _ in 0..50 {
                let a: Vec<f64> = (0..n * n).map(|_| next()).collect();
                let (mut lu, mut pivots) = (a, vec![0; n]);
                if lu_factor(&mut lu, &mut pivots).is_err() {
                    continue;
                }
                let b: Vec<f64> = (0..n)
                    .map(|i| if i % 3 == 1 { 0.0 } else { next() })
                    .collect();
                let (mut rows, mut columns) = (b.clone(), b);
                lu_solve(&lu, &pivots, &mut rows);
                by_columns(&lu, &pivots, &mut columns);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rows), bits(&columns), "n={n}");
            }
        }
    }

    #[test]
    fn lu_roundtrip_random_matrices() {
        // Deterministic pseudo-random well-conditioned matrices: every
        // order up to 23 plus the paper's 59, each with a mild and with
        // an order-proportional diagonal dominance.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in (1usize..24).chain([59]) {
            for dominance in [3.0, n as f64 * 0.75 + 2.0] {
                let mut a = vec![0.0; n * n];
                for i in 0..n {
                    for j in 0..n {
                        a[i * n + j] = next();
                    }
                    a[i * n + i] += dominance;
                }
                let x_true: Vec<f64> = (0..n).map(|_| next() * 4.0).collect();
                let mut b = vec![0.0; n];
                matvec(&a, &x_true, &mut b);
                solve(&a, &mut b).unwrap();
                for (got, want) in b.iter().zip(&x_true) {
                    assert!((got - want).abs() < 1e-8, "n={n}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        match solve(&[1.0, 2.0, 2.0, 4.0], &mut [1.0, 1.0]) {
            Err(SolverError::SingularJacobian { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn rank1_update_matches_definition() {
        let mut a = vec![0.0; 9];
        for i in 0..3 {
            a[i * 3 + i] = 1.0;
        }
        let u = [1.0, 2.0, 3.0];
        let v = [0.5, -1.0, 2.0];
        rank1_update(&mut a, 2.0, &u, &v);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 } + 2.0 * u[i] * v[j];
                assert!((a[i * 3 + j] - expected).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(norm_inf(&[1.0, f64::NEG_INFINITY]), f64::INFINITY);
    }

    #[test]
    fn norm_inf_propagates_nan() {
        for v in [
            &[f64::NAN][..],
            &[0.0, f64::NAN],
            &[f64::NAN, 3.0],
            &[1e-12, f64::NAN, 1e-12],
            &[f64::INFINITY, f64::NAN],
        ] {
            assert!(norm_inf(v).is_nan(), "{v:?}");
        }
    }
}
