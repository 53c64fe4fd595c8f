//! The sparse grid container: an ordered set of [`NodeKey`]s with O(1)
//! lookup, ancestor-closed insertion, and per-level bookkeeping.

use std::collections::HashMap;

use crate::node::NodeKey;

/// An adaptive sparse grid over `[0,1]^d` (domain scaling lives in
/// [`crate::domain`]). The grid owns only the *structure* — surplus/value
/// matrices are kept by callers so the same grid can carry any number of
/// degrees of freedom (the OLG application stores `ndofs = 2·(A−1) = 118`
/// values per point).
///
/// Nodes are indexed densely in insertion order; that index is what the
/// compression pipeline, kernels and solvers use to address surplus rows.
#[derive(Clone, Debug)]
pub struct SparseGrid {
    dim: usize,
    nodes: Vec<NodeKey>,
    lookup: HashMap<NodeKey, u32>,
}

impl SparseGrid {
    /// An empty grid of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1 && dim <= u16::MAX as usize, "dim out of range");
        SparseGrid {
            dim,
            nodes: Vec::new(),
            lookup: HashMap::new(),
        }
    }

    /// Dimensionality `d` of the grid.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of grid points (`nno` in the paper's notation).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the grid has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at dense index `i`.
    #[inline]
    pub fn node(&self, i: usize) -> &NodeKey {
        &self.nodes[i]
    }

    /// All nodes in insertion order.
    #[inline]
    pub fn nodes(&self) -> &[NodeKey] {
        &self.nodes
    }

    /// Dense index of `key`, if present.
    #[inline]
    pub fn find(&self, key: &NodeKey) -> Option<u32> {
        self.lookup.get(key).copied()
    }

    /// Whether `key` is in the grid.
    #[inline]
    pub fn contains(&self, key: &NodeKey) -> bool {
        self.lookup.contains_key(key)
    }

    /// Inserts `key`, returning its dense index and whether it was new.
    pub fn insert(&mut self, key: NodeKey) -> (u32, bool) {
        if let Some(&idx) = self.lookup.get(&key) {
            return (idx, false);
        }
        let idx = self.nodes.len() as u32;
        self.lookup.insert(key.clone(), idx);
        self.nodes.push(key);
        (idx, true)
    }

    /// Inserts `key` together with every missing hierarchical ancestor, so
    /// the grid stays *ancestor-closed* — the invariant dimension-wise
    /// hierarchization relies on. Returns the dense index of `key`.
    pub fn insert_closed(&mut self, key: NodeKey) -> u32 {
        if let Some(&idx) = self.lookup.get(&key) {
            return idx;
        }
        for parent in key.parents() {
            self.insert_closed(parent);
        }
        self.insert(key).0
    }

    /// Checks the ancestor-closure invariant (every parent of every node is
    /// present). Quadratic-ish; intended for tests and debug assertions.
    pub fn is_ancestor_closed(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.parents().iter().all(|p| self.contains(p)))
    }

    /// Maximum `|ľ|_∞` over the grid (1 for the bare root).
    pub fn max_level(&self) -> u8 {
        self.nodes.iter().map(|n| n.level_max()).max().unwrap_or(0)
    }

    /// Writes the unit-cube coordinates of node `i` into `out`.
    #[inline]
    pub fn unit_point_of(&self, i: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim);
        self.nodes[i].unit_point(out);
    }

    /// Histogram of point counts per refinement level (index 0 unused).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; 2];
        for n in &self.nodes {
            let level = (n.level_sum(self.dim) - self.dim as u32 + 1) as usize;
            if hist.len() <= level {
                hist.resize(level + 1, 0);
            }
            hist[level] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ActiveCoord;

    fn key(coords: &[(u16, u8, u32)]) -> NodeKey {
        NodeKey::from_coords(coords.iter().map(|&(dim, level, index)| ActiveCoord {
            dim,
            level,
            index,
        }))
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = SparseGrid::new(3);
        let (i0, new0) = g.insert(NodeKey::root());
        let (i1, new1) = g.insert(NodeKey::root());
        assert_eq!((i0, new0), (0, true));
        assert_eq!((i1, new1), (0, false));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn insert_closed_adds_ancestors() {
        let mut g = SparseGrid::new(2);
        // A deep node: dim0 at level 4 requires (3,·), (2,·), root.
        let deep = key(&[(0, 4, 3)]);
        g.insert_closed(deep.clone());
        assert!(g.contains(&NodeKey::root()));
        assert!(g.contains(&key(&[(0, 2, 0)])));
        assert!(g.contains(&key(&[(0, 3, 1)])));
        assert!(g.contains(&deep));
        assert!(g.is_ancestor_closed());
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn insert_closed_cross_dimensional() {
        let mut g = SparseGrid::new(2);
        g.insert_closed(key(&[(0, 2, 0), (1, 2, 2)]));
        // Parents: (0,2,0) alone and (1,2,2) alone, each requiring the root.
        assert_eq!(g.len(), 4);
        assert!(g.is_ancestor_closed());
    }

    #[test]
    fn refinement_level_indexing() {
        let mut g = SparseGrid::new(2);
        g.insert_closed(key(&[(0, 3, 1)]));
        // root (level 1), (0,2,0) (level 2), (0,3,1) (level 3)
        let hist = g.level_histogram();
        assert_eq!(&hist[1..], &[1, 1, 1]);
    }

    #[test]
    fn max_level_tracks_deepest_coord() {
        let mut g = SparseGrid::new(2);
        g.insert(NodeKey::root());
        assert_eq!(g.max_level(), 1);
        g.insert_closed(key(&[(1, 4, 1)]));
        assert_eq!(g.max_level(), 4);
    }
}
