//! Sparse multi-index representation of grid points.
//!
//! A `d`-dimensional grid point is a pair of multi-indices `(ľ, í)` (Eq. 8 of
//! the paper). In the sparse grids of interest nearly all coordinates sit at
//! level 1 (for a regular grid of level `n` at most `n − 1` of the `d = 59`
//! dimensions can exceed level 1 — that is the "96.8% zeros" observation of
//! Sec. IV-B). A [`NodeKey`] therefore stores only the *active* (level ≥ 2)
//! coordinates as packed `(dim, level, index)` triples sorted by dimension.

use crate::basis;

/// One active (level ≥ 2) coordinate of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ActiveCoord {
    /// Dimension this coordinate lives in (`0 ≤ dim < d`).
    pub dim: u16,
    /// One-based hierarchical level, `2 ≤ level ≤ MAX_LEVEL`.
    pub level: u8,
    /// Hierarchical index within the level.
    pub index: u32,
}

impl ActiveCoord {
    #[inline]
    fn pack(self) -> u64 {
        ((self.dim as u64) << 40) | ((self.level as u64) << 32) | self.index as u64
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        ActiveCoord {
            dim: (word >> 40) as u16,
            level: ((word >> 32) & 0xff) as u8,
            index: word as u32,
        }
    }
}

/// A grid point, stored sparsely. Two keys are equal iff they denote the
/// same point; the packed encoding makes hashing and comparison a plain
/// slice-of-`u64` operation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeKey(Box<[u64]>);

impl NodeKey {
    /// The root node: every dimension at level 1 (the point `(0.5, …, 0.5)`).
    pub fn root() -> Self {
        NodeKey(Box::from([]))
    }

    /// Builds a key from active coordinates. Coordinates at level 1 are
    /// dropped; the rest are sorted by dimension. Panics on duplicate
    /// dimensions or invalid `(level, index)` pairs.
    pub fn from_coords<I: IntoIterator<Item = ActiveCoord>>(coords: I) -> Self {
        let mut packed: Vec<u64> = coords
            .into_iter()
            .inspect(|c| {
                assert!(
                    c.level >= 2 && basis::valid(c.level, c.index),
                    "invalid active coord {c:?}"
                );
            })
            .map(ActiveCoord::pack)
            .collect();
        packed.sort_unstable();
        for w in packed.windows(2) {
            assert_ne!(w[0] >> 40, w[1] >> 40, "duplicate dimension in node key");
        }
        NodeKey(packed.into_boxed_slice())
    }

    /// Number of active (level ≥ 2) coordinates.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.0.len()
    }

    /// Iterates over active coordinates in ascending dimension order.
    #[inline]
    pub fn active(&self) -> impl Iterator<Item = ActiveCoord> + '_ {
        self.0.iter().map(|&w| ActiveCoord::unpack(w))
    }

    /// The `(level, index)` of dimension `dim` (level 1 when inactive).
    #[inline]
    pub fn coord(&self, dim: u16) -> (u8, u32) {
        match self.0.binary_search_by_key(&dim, |&w| (w >> 40) as u16) {
            Ok(pos) => {
                let c = ActiveCoord::unpack(self.0[pos]);
                (c.level, c.index)
            }
            Err(_) => (1, 1),
        }
    }

    /// Returns a copy of this key with dimension `dim` set to `(level,
    /// index)`. Setting level 1 removes the coordinate.
    pub fn with_coord(&self, dim: u16, level: u8, index: u32) -> NodeKey {
        debug_assert!(basis::valid(level, index));
        let mut coords: Vec<ActiveCoord> = self.active().filter(|c| c.dim != dim).collect();
        if level >= 2 {
            coords.push(ActiveCoord { dim, level, index });
        }
        coords.sort_unstable_by_key(|c| c.dim);
        NodeKey(coords.iter().map(|c| c.pack()).collect())
    }

    /// `|ľ|₁ = Σ_t l_t`, the level sum used by the sparse-grid selection
    /// criterion (Eq. 13); inactive dimensions contribute 1 each.
    #[inline]
    pub fn level_sum(&self, dim: usize) -> u32 {
        dim as u32 + self.active().map(|c| c.level as u32 - 1).sum::<u32>()
    }

    /// `|ľ|_∞`, the maximum level over all dimensions.
    #[inline]
    pub fn level_max(&self) -> u8 {
        self.active().map(|c| c.level).max().unwrap_or(1)
    }

    /// Writes the point's coordinates on the unit cube into `out`
    /// (`out.len() == d`).
    pub fn unit_point(&self, out: &mut [f64]) {
        out.fill(0.5);
        for c in self.active() {
            out[c.dim as usize] = basis::point(c.level, c.index);
        }
    }

    /// Evaluates the tensor-product basis function of this node at `x`
    /// (unit-cube coordinates). Inactive dimensions contribute a factor 1.
    pub fn basis_at(&self, x: &[f64]) -> f64 {
        let mut product = 1.0;
        for c in self.active() {
            product *= basis::hat(c.level, c.index, x[c.dim as usize]);
            if product == 0.0 {
                return 0.0;
            }
        }
        product
    }

    /// All hierarchical parents of this node (one per active dimension).
    /// The root has none.
    pub fn parents(&self) -> Vec<NodeKey> {
        self.active()
            .map(|c| {
                let (pl, pi) = basis::parent(c.level, c.index)
                    .expect("active coord has level >= 2, so a parent exists");
                self.with_coord(c.dim, pl, pi)
            })
            .collect()
    }

    /// All hierarchical children of this node across `dim` dimensions
    /// ("2d children" in the paper's refinement rule; boundary points
    /// contribute one child instead of two).
    pub fn children(&self, dim: usize) -> Vec<NodeKey> {
        let mut out = Vec::with_capacity(2 * dim);
        for t in 0..dim as u16 {
            let (l, i) = self.coord(t);
            for (cl, ci) in basis::children(l, i) {
                out.push(self.with_coord(t, cl, ci));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(coords: &[(u16, u8, u32)]) -> NodeKey {
        NodeKey::from_coords(coords.iter().map(|&(dim, level, index)| ActiveCoord {
            dim,
            level,
            index,
        }))
    }

    #[test]
    fn root_is_all_level_one() {
        let root = NodeKey::root();
        assert_eq!(root.active_count(), 0);
        assert_eq!(root.coord(0), (1, 1));
        assert_eq!(root.coord(58), (1, 1));
        assert_eq!(root.level_sum(59), 59);
        let mut x = vec![0.0; 4];
        root.unit_point(&mut x);
        assert_eq!(x, vec![0.5; 4]);
    }

    #[test]
    fn coords_sorted_and_looked_up() {
        let k = key(&[(5, 3, 1), (2, 2, 0)]);
        assert_eq!(k.coord(2), (2, 0));
        assert_eq!(k.coord(5), (3, 1));
        assert_eq!(k.coord(3), (1, 1));
        assert_eq!(k.active_count(), 2);
        let dims: Vec<u16> = k.active().map(|c| c.dim).collect();
        assert_eq!(dims, vec![2, 5]);
    }

    #[test]
    fn with_coord_replaces_inserts_and_removes() {
        let k = key(&[(1, 2, 2)]);
        let replaced = k.with_coord(1, 3, 3);
        assert_eq!(replaced.coord(1), (3, 3));
        let inserted = k.with_coord(0, 2, 0);
        assert_eq!(inserted.active_count(), 2);
        assert_eq!(inserted.coord(0), (2, 0));
        let removed = k.with_coord(1, 1, 1);
        assert_eq!(removed, NodeKey::root());
    }

    #[test]
    fn level_sum_counts_inactive_dims() {
        let k = key(&[(0, 2, 0), (3, 4, 3)]);
        // d=5: levels are (2,1,1,4,1) -> sum = 9.
        assert_eq!(k.level_sum(5), 9);
        assert_eq!(k.level_max(), 4);
    }

    #[test]
    fn equality_ignores_construction_order() {
        let a = key(&[(0, 2, 0), (3, 4, 3)]);
        let b = key(&[(3, 4, 3), (0, 2, 0)]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    #[should_panic(expected = "duplicate dimension")]
    fn duplicate_dimension_panics() {
        let _ = key(&[(0, 2, 0), (0, 2, 2)]);
    }

    #[test]
    fn basis_at_matches_tensor_product() {
        let k = key(&[(0, 3, 1), (2, 2, 2)]);
        let x = [0.25, 0.9, 1.0];
        let expected = basis::hat(3, 1, 0.25) * 1.0 * basis::hat(2, 2, 1.0);
        assert!((k.basis_at(&x) - expected).abs() < 1e-15);
        // Zero short-circuit.
        let y = [0.5, 0.9, 1.0];
        assert_eq!(k.basis_at(&y), 0.0);
    }

    #[test]
    fn parents_of_mixed_node() {
        let k = key(&[(0, 3, 1), (2, 2, 2)]);
        let ps = k.parents();
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&key(&[(0, 2, 0), (2, 2, 2)])));
        assert!(ps.contains(&key(&[(0, 3, 1)])));
    }

    #[test]
    fn children_counts() {
        // Root in d=3: each dim spawns 2 level-2 children -> 6.
        assert_eq!(NodeKey::root().children(3).len(), 6);
        // A boundary coord yields one child in its dim, two in others.
        let k = key(&[(0, 2, 0)]);
        assert_eq!(k.children(3).len(), 1 + 2 + 2);
    }

    #[test]
    fn children_have_this_node_as_parent() {
        let k = key(&[(0, 3, 1), (1, 2, 2)]);
        for child in k.children(4) {
            assert!(child.parents().contains(&k));
        }
    }
}
