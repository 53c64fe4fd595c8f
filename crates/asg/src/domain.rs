//! Rectangular domains `B ⊂ R^d` and their scaling to the unit cube.
//!
//! The paper (Sec. III) restricts interpolation to `Ω = [0,1]^d` and notes
//! that general boxes are handled "by re-scaling and possibly carefully
//! truncating the original domain" — this module is that re-scaling.

/// An axis-aligned box `[lo_0, hi_0] × … × [lo_{d−1}, hi_{d−1}]`.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxDomain {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxDomain {
    /// Builds a box from per-dimension bounds. Panics if `lo ≥ hi` anywhere.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound vectors must have equal length");
        assert!(!lo.is_empty(), "domain must have at least one dimension");
        for (t, (&a, &b)) in lo.iter().zip(&hi).enumerate() {
            assert!(
                a < b && a.is_finite() && b.is_finite(),
                "degenerate bounds [{a}, {b}] in dim {t}"
            );
        }
        BoxDomain { lo, hi }
    }

    /// The unit cube in `dim` dimensions.
    pub fn unit(dim: usize) -> Self {
        BoxDomain::new(vec![0.0; dim], vec![1.0; dim])
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Maps a physical point into unit-cube coordinates.
    pub fn to_unit(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim());
        for t in 0..x.len() {
            out[t] = (x[t] - self.lo[t]) / (self.hi[t] - self.lo[t]);
        }
    }

    /// Maps a unit-cube point into physical coordinates.
    pub fn from_unit(&self, u: &[f64], out: &mut [f64]) {
        debug_assert_eq!(u.len(), self.dim());
        for t in 0..u.len() {
            out[t] = self.lo[t] + u[t] * (self.hi[t] - self.lo[t]);
        }
    }

    /// Clamps a physical point into the box, coordinate-wise. Time-iteration
    /// state transitions can step slightly outside `B`; the paper's
    /// "carefully truncating" is this projection.
    pub fn clamp(&self, x: &mut [f64]) {
        for t in 0..x.len() {
            x[t] = x[t].clamp(self.lo[t], self.hi[t]);
        }
    }

    /// Whether the point lies inside the (closed) box.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&v, (&a, &b))| v >= a && v <= b)
    }

    /// Side length of dimension `t`.
    #[inline]
    pub fn width(&self, t: usize) -> f64 {
        self.hi[t] - self.lo[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_to_from_unit() {
        let b = BoxDomain::new(vec![-2.0, 0.5], vec![4.0, 1.5]);
        let x = [1.0, 0.75];
        let mut u = [0.0; 2];
        let mut back = [0.0; 2];
        b.to_unit(&x, &mut u);
        b.from_unit(&u, &mut back);
        assert!((back[0] - x[0]).abs() < 1e-14);
        assert!((back[1] - x[1]).abs() < 1e-14);
        assert!((u[0] - 0.5).abs() < 1e-14);
        assert!((u[1] - 0.25).abs() < 1e-14);
    }

    #[test]
    fn unit_cube_is_identity() {
        let b = BoxDomain::unit(3);
        let x = [0.1, 0.9, 0.4];
        let mut u = [0.0; 3];
        b.to_unit(&x, &mut u);
        assert_eq!(u, x);
    }

    #[test]
    fn clamp_and_contains() {
        let b = BoxDomain::new(vec![0.0; 2], vec![10.0; 2]);
        let mut x = [-1.0, 11.0];
        assert!(!b.contains(&x));
        b.clamp(&mut x);
        assert_eq!(x, [0.0, 10.0]);
        assert!(b.contains(&x));
    }

    #[test]
    #[should_panic(expected = "degenerate bounds")]
    fn rejects_inverted_bounds() {
        let _ = BoxDomain::new(vec![1.0], vec![0.0]);
    }
}
