//! The Jacobian factors a run carries from one time-iteration step to the
//! next (README, "Block Newton").
//!
//! A grid node's point solve ends with the LU of the last Jacobian its
//! Newton took ([`hddm_solver::Factors`]). Where the node's solved row
//! moved by less than [`CARRY_LIMIT`] in that step, the driver keeps the
//! LU in its state's [`FactorStore`], and the node's solve of the next step
//! starts from it with a residual row instead of a gradient walk and a
//! fresh factorization. Step 0, the first step of a warm run, a node new to
//! the grid and a node that moved have no factor and take a fresh one.
//!
//! A store is keyed exactly by grid node: it holds one entry per node of
//! the grid its state was last built on, in that grid's order, and the
//! next step finds a node's entry by matching its [`NodeKey`] against the
//! nodes of the state's previous grid, which the policy's compressed grid
//! still spells out. A factor is therefore the same on any thread count,
//! and it travels with its state in the world exchange, in a group's
//! per-level merge and in a [`Checkpoint`](crate::Checkpoint), so a run
//! gives the same numbers on any rank count and after a resume. It is not
//! part of a [`PolicySet`](crate::PolicySet), so the surface cache's
//! records never hold it.
//!
//! A store is one slab per state: `n²` `f32` of LU and `n` `u8` pivots per
//! node, no allocation per node. A step builds a state's new store beside
//! its old one: each level's solves read their factors from the old store
//! and write their new ones to the new store, at the positions their nodes
//! take in the grid under construction (a level's frontier is the grid's
//! newest nodes), and the old store is dropped once the state is built.
//! A store of `n = 0` unknowns holds nothing: the store of a model that
//! carries no factor.

use std::ops::Range;

use hddm_asg::{ActiveCoord, NodeKey, SparseGrid};
use hddm_compress::CompressedGrid;
use hddm_solver::{Factors, CARRY_LIMIT};

use crate::record::{Reader, Writer};

/// The first pivot of a node that holds no factor.
const EMPTY: u8 = u8::MAX;

/// A node with no entry in the store of the previous grid.
const NO_NODE: u32 = u32::MAX;

/// One discrete state's carried Jacobian factors: per node of the grid the
/// state was last built on, in grid order, the `f32` LU (`n × n`) of the
/// last Jacobian its point solve took and its row pivots as `u8`, or no
/// factor. Systems of 255 unknowns or more are not carried.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactorStore {
    n: usize,
    lu: Vec<f32>,
    pivots: Vec<u8>,
}

impl FactorStore {
    /// `nodes` entries of `n` unknowns, none holding a factor.
    pub(crate) fn empty(n: usize, nodes: usize) -> FactorStore {
        let mut store = FactorStore {
            n,
            ..FactorStore::default()
        };
        store.grow(nodes);
        store
    }

    /// No entry yet, with room for `nodes` entries of `n` unknowns.
    pub(crate) fn with_room(n: usize, nodes: usize) -> FactorStore {
        FactorStore {
            n,
            lu: Vec::with_capacity(nodes * n * n),
            pivots: Vec::with_capacity(nodes * n),
        }
    }

    /// Makes the store cover at least `nodes` entries: an entry it has
    /// keeps its factor, a new one holds none. A slab that must move takes
    /// a quarter more room than asked, so a grid that grows for a few
    /// levels moves it a few times and not at every level.
    pub(crate) fn grow(&mut self, nodes: usize) {
        let n = self.n;
        let nodes = nodes.max(self.nodes());
        if nodes * n > self.pivots.capacity() {
            let room = nodes + nodes / 4;
            self.lu.reserve_exact(room * n * n - self.lu.len());
            self.pivots.reserve_exact(room * n - self.pivots.len());
        }
        self.lu.resize(nodes * n * n, 0.0);
        self.pivots.resize(nodes * n, EMPTY);
    }

    /// The grid nodes the store covers, 0 for a store of no unknowns.
    pub fn nodes(&self) -> usize {
        self.pivots.len().checked_div(self.n).unwrap_or(0)
    }

    /// The nodes that hold a factor.
    pub fn carried(&self) -> usize {
        (0..self.nodes()).filter(|&node| self.holds(node)).count()
    }

    /// The unknowns per system, 0 for a store of a model that carries no
    /// factor.
    pub(crate) fn unknowns(&self) -> usize {
        self.n
    }

    fn holds(&self, node: usize) -> bool {
        self.pivots[node * self.n] != EMPTY
    }

    /// Puts node `node`'s factor into slot `s` of `slots` (sized for this
    /// store's `n`), if it holds one.
    pub(crate) fn load(&self, node: usize, slots: &mut Factors, s: usize) {
        let n = self.n;
        if !self.holds(node) {
            return;
        }
        let (to_lu, to_pivots) = slots.set(s);
        for (to, from) in to_lu
            .iter_mut()
            .zip(&self.lu[node * n * n..(node + 1) * n * n])
        {
            *to = f64::from(*from);
        }
        for (to, from) in to_pivots
            .iter_mut()
            .zip(&self.pivots[node * n..(node + 1) * n])
        {
            *to = u32::from(*from);
        }
    }

    /// The entries of nodes `nodes`, to be written.
    pub(crate) fn entries(&mut self, nodes: Range<usize>) -> Entries<'_> {
        let n = self.n;
        Entries {
            n,
            lu: &mut self.lu[nodes.start * n * n..nodes.end * n * n],
            pivots: &mut self.pivots[nodes.start * n..nodes.end * n],
        }
    }

    /// Node `node`'s entry as `n² + n` words exact in `f64`: the LU, then
    /// the pivots ([`Entries::set_words`] reads them back).
    pub(crate) fn extend_words(&self, node: usize, out: &mut Vec<f64>) {
        let n = self.n;
        out.extend(
            self.lu[node * n * n..(node + 1) * n * n]
                .iter()
                .map(|&v| f64::from(v)),
        );
        out.extend(
            self.pivots[node * n..(node + 1) * n]
                .iter()
                .map(|&p| f64::from(p)),
        );
    }
}

/// A run of a store's entries to be written ([`FactorStore::entries`]).
pub(crate) struct Entries<'a> {
    n: usize,
    lu: &'a mut [f32],
    pivots: &'a mut [u8],
}

impl<'a> Entries<'a> {
    /// The unknowns per entry.
    pub(crate) fn unknowns(&self) -> usize {
        self.n
    }

    /// The entries in runs of `nodes`, for writers that share them out
    /// (one run per slice of a frontier), then empty runs without end.
    pub(crate) fn runs(self, nodes: usize) -> impl Iterator<Item = Entries<'a>> {
        let n = self.n;
        let mut rest = (self.lu, self.pivots);
        std::iter::repeat_with(move || {
            let (lu, pivots) = std::mem::take(&mut rest);
            let k = (nodes * n).min(pivots.len());
            let (pivots, pivots_rest) = pivots.split_at_mut(k);
            let (lu, lu_rest) = lu.split_at_mut(k * n);
            rest = (lu_rest, pivots_rest);
            Entries { n, lu, pivots }
        })
    }

    /// Keeps `factor` (an LU of the store's `n` and its pivots) as entry
    /// `i`'s, or empties the entry.
    pub(crate) fn keep(&mut self, i: usize, factor: Option<(&[f64], &[u32])>) {
        let n = self.n;
        let pivots = &mut self.pivots[i * n..(i + 1) * n];
        let Some((lu, from)) = factor else {
            pivots[0] = EMPTY;
            return;
        };
        for (to, from) in pivots.iter_mut().zip(from) {
            *to = *from as u8;
        }
        for (to, from) in self.lu[i * n * n..(i + 1) * n * n].iter_mut().zip(lu) {
            *to = *from as f32;
        }
    }

    /// Sets entry `i` from the words of [`FactorStore::extend_words`].
    pub(crate) fn set_words(&mut self, i: usize, words: &[f64]) {
        let n = self.n;
        let (lu, pivots) = words.split_at(n * n);
        for (to, from) in self.lu[i * n * n..(i + 1) * n * n].iter_mut().zip(lu) {
            *to = *from as f32;
        }
        for (to, from) in self.pivots[i * n..(i + 1) * n].iter_mut().zip(pivots) {
            *to = *from as u8;
        }
    }
}

/// Appends the stores of a run's states to a record:
///
/// ```text
///   u64 n                                     unknowns per system
///   u64 len + u32[len] (+ zero pad to 8 B)    entries per state (0 or its nno)
///   u64 len + u8[len] (+ zero pad to 8 B)     pivots, n per entry, states in order
///   u64 len + u32[len] (+ zero pad to 8 B)    LU as f32 bits, n² per entry
/// ```
pub(crate) fn write_stores(stores: &[FactorStore], w: &mut Writer) {
    let n = stores.iter().map(|s| s.n).max().unwrap_or(0);
    let kept = |s: &&FactorStore| s.n == n;
    let nodes: Vec<u32> = stores
        .iter()
        .map(|s| if s.n == n { s.nodes() as u32 } else { 0 })
        .collect();
    w.u64(n as u64);
    w.u32_section(&nodes);
    let pivots: Vec<u8> = stores
        .iter()
        .filter(kept)
        .flat_map(|s| s.pivots.iter().copied())
        .collect();
    w.u8_section(&pivots);
    let lu: Vec<u32> = stores
        .iter()
        .filter(kept)
        .flat_map(|s| s.lu.iter().map(|v| v.to_bits()))
        .collect();
    w.u32_section(&lu);
}

/// Reads the stores [`write_stores`] wrote for states of `nno` grid nodes
/// each, and checks them: one store per state, each covering no node or
/// every node of its state, each pivot a row of its LU or the empty mark.
pub(crate) fn read_stores(r: &mut Reader<'_>, nno: &[usize]) -> Result<Vec<FactorStore>, String> {
    let n = r.usize()?;
    let nodes = r.u32_section()?;
    let mut pivots = r.u8_section()?.into_iter();
    let mut lu = r.u32_section()?.into_iter().map(f32::from_bits);
    if nodes.len() != nno.len() {
        return Err(format!(
            "{} factor stores for {} discrete states",
            nodes.len(),
            nno.len()
        ));
    }
    if n >= EMPTY as usize || (n == 0 && nodes.iter().any(|&k| k > 0)) {
        return Err(format!("factor stores of {n} unknowns"));
    }
    let want: usize = nodes.iter().map(|&k| k as usize).sum();
    if pivots.len() != want * n || lu.len() != want * n * n {
        return Err(format!(
            "factor stores of {} pivots and {} LU words do not fit {want} entries of {n} unknowns",
            pivots.len(),
            lu.len()
        ));
    }
    let mut stores = Vec::with_capacity(nno.len());
    for (z, (&count, &nno)) in nodes.iter().zip(nno).enumerate() {
        let count = count as usize;
        if count != 0 && count != nno {
            return Err(format!(
                "state {z}: factor store of {count} entries for {nno} nodes"
            ));
        }
        let store = FactorStore {
            n,
            pivots: pivots.by_ref().take(count * n).collect(),
            lu: lu.by_ref().take(count * n * n).collect(),
        };
        for node in (0..count).filter(|&node| store.holds(node)) {
            if store.pivots[node * n..(node + 1) * n]
                .iter()
                .any(|&p| p as usize >= n)
            {
                return Err(format!(
                    "state {z}: factor of node {node} pivots out of range"
                ));
            }
        }
        stores.push(store);
    }
    Ok(stores)
}

/// Whether a node whose row moved from `old` to `new` keeps its factor:
/// every coefficient moved by less than [`CARRY_LIMIT`], relative, as the
/// step's `sup_change` measures it.
pub(crate) fn settled(new: &[f64], old: &[f64]) -> bool {
    new.iter()
        .zip(old)
        .all(|(new, old)| (new - old).abs() / (1.0 + old.abs()) < CARRY_LIMIT)
}

/// Matches the nodes of a state's grid under construction to the nodes of
/// the grid the state was last built on, a level at a time.
pub(crate) struct Matcher<'g> {
    old: &'g CompressedGrid,
    /// Chain positions of the old grid's nodes that hold a factor and have
    /// not been found in the new grid yet.
    pending: Vec<u32>,
}

impl<'g> Matcher<'g> {
    /// A matcher for the nodes of `store` on `old`, the grid it is keyed
    /// by, for systems of `n` unknowns; a store of another grid or of
    /// another `n` (or none) matches nothing.
    pub(crate) fn new(old: &'g CompressedGrid, store: &FactorStore, n: usize) -> Matcher<'g> {
        let pending = if n > 0 && store.n == n && store.nodes() == old.nno() {
            let order = old.order();
            (0..old.nno() as u32)
                .filter(|&p| store.holds(order[p as usize] as usize))
                .collect()
        } else {
            Vec::new()
        };
        Matcher { old, pending }
    }

    /// The node of the old store of each node of the level that put nodes
    /// `from..grid.len()` into `grid`, where it holds a factor;
    /// [`NO_NODE`] elsewhere.
    pub(crate) fn level(&mut self, grid: &SparseGrid, from: usize) -> Vec<u32> {
        let mut previous = vec![NO_NODE; grid.len() - from];
        let (old, order) = (self.old, self.old.order());
        let nfreq = old.nfreq();
        self.pending.retain(|&p| {
            let chain = &old.chains()[p as usize * nfreq..(p as usize + 1) * nfreq];
            let coords = chain.iter().take_while(|&&id| id != 0).map(|&id| {
                let e = old.xps()[id as usize];
                ActiveCoord {
                    dim: e.index as u16,
                    level: e.l.trailing_zeros() as u8 + 1,
                    index: u32::from(e.i),
                }
            });
            let Some(node) = grid.find(&NodeKey::from_coords(coords)) else {
                return true;
            };
            // A node found now was not in the grid at an earlier level.
            previous[node as usize - from] = order[p as usize];
            false
        });
        previous
    }
}

/// Whether `previous` names a node of the store.
pub(crate) fn found(previous: u32) -> Option<usize> {
    (previous != NO_NODE).then_some(previous as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hddm_asg::regular_grid;

    /// A store over `nodes` nodes of two unknowns, each holding the
    /// factor `[node; 4]` with identity pivots.
    fn numbered(nodes: usize) -> FactorStore {
        let mut store = FactorStore::empty(2, nodes);
        let mut entries = store.entries(0..nodes);
        for node in 0..nodes {
            let lu = [node as f64; 4];
            entries.keep(node, Some((&lu, &[0, 1])));
        }
        store
    }

    #[test]
    fn a_node_finds_its_previous_entry_by_key_whatever_its_position() {
        // The previous grid: the level-3 regular grid in two dimensions.
        // The new grid: the same nodes, inserted in reverse.
        let old = regular_grid(2, 3);
        let compressed = CompressedGrid::build(&old);
        let mut new = SparseGrid::new(2);
        for node in old.nodes().iter().rev() {
            new.insert(node.clone());
        }
        let mut store = numbered(old.len());
        store.entries(3..4).keep(0, None); // node 3 holds no factor
        let mut matcher = Matcher::new(&compressed, &store, 2);
        let previous = matcher.level(&new, 0);
        let mut slots = Factors::default();
        slots.clear(1, 2);
        for (i, &previous) in previous.iter().enumerate() {
            let was = old.find(new.node(i)).unwrap() as usize;
            let want = (was != 3).then_some(was);
            assert_eq!(found(previous), want, "new node {i}");
            if let Some(node) = found(previous) {
                store.load(node, &mut slots, 0);
                assert_eq!(slots.get(0).unwrap().0, &[was as f64; 4]);
            }
        }
    }

    #[test]
    fn a_node_of_a_later_level_finds_its_entry_and_another_n_finds_none() {
        // Old nodes 0 and 1 come back in the second level.
        let old = regular_grid(1, 2);
        let compressed = CompressedGrid::build(&old);
        let store = numbered(old.len());
        let mut new = SparseGrid::new(1);
        new.insert(old.node(2).clone());
        let mut matcher = Matcher::new(&compressed, &store, 2);
        assert_eq!(found(matcher.level(&new, 0)[0]), Some(2));
        new.insert(old.node(0).clone());
        new.insert(old.node(1).clone());
        let previous = matcher.level(&new, 1);
        assert_eq!(
            previous.iter().map(|&p| found(p)).collect::<Vec<_>>(),
            [Some(0), Some(1)]
        );

        for n in [0, 3] {
            let previous = Matcher::new(&compressed, &store, n).level(&new, 0);
            assert!(previous.iter().all(|&p| found(p).is_none()), "n = {n}");
        }
    }
}
