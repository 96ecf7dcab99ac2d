//! Bipartition vocabulary shared by every cut algorithm.
//!
//! The paper partitions each compressed sub-graph into two parts — one
//! executing locally on the device, one offloaded to the edge server
//! (§III-B). [`Side`] names the two parts and [`Bipartition`] maps each
//! node to a side and prices the resulting cut.

use crate::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which half of a bipartition a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// Executes on the mobile device (`V_c` in the paper).
    Local,
    /// Offloaded to the edge server (`V_s` in the paper).
    Remote,
}

impl Side {
    /// The other side.
    #[inline]
    pub fn flipped(self) -> Side {
        match self {
            Side::Local => Side::Remote,
            Side::Remote => Side::Local,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Local => f.write_str("local"),
            Side::Remote => f.write_str("remote"),
        }
    }
}

/// An assignment of every node of a graph to [`Side::Local`] or
/// [`Side::Remote`].
///
/// This is the common output type of all cut strategies (spectral,
/// max-flow, Kernighan–Lin) and the common input of the MEC cost model.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bipartition {
    sides: Vec<Side>,
}

impl Clone for Bipartition {
    fn clone(&self) -> Self {
        Bipartition {
            sides: self.sides.clone(),
        }
    }

    /// Copies `source` into `self`'s buffer, which allocates only when
    /// `source` is longer than that buffer's capacity.
    fn clone_from(&mut self, source: &Self) {
        self.sides.clone_from(&source.sides);
    }
}

impl Bipartition {
    /// All nodes on one side.
    pub fn uniform(len: usize, side: Side) -> Self {
        Bipartition {
            sides: vec![side; len],
        }
    }

    /// Builds a partition by evaluating `f` on each node index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> Side) -> Self {
        Bipartition {
            sides: (0..len).map(&mut f).collect(),
        }
    }

    /// Builds a partition from an explicit side vector.
    pub fn from_sides(sides: Vec<Side>) -> Self {
        Bipartition { sides }
    }

    /// Number of nodes covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// `true` when the partition covers no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// Side of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn side(&self, n: NodeId) -> Side {
        self.sides[n.index()]
    }

    /// Reassigns node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn assign(&mut self, n: NodeId, side: Side) {
        self.sides[n.index()] = side;
    }

    /// Moves node `n` to the opposite side.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of bounds.
    #[inline]
    pub fn flip(&mut self, n: NodeId) {
        let s = self.sides[n.index()];
        self.sides[n.index()] = s.flipped();
    }

    /// Iterates over the nodes assigned to `side`.
    pub fn nodes_on(&self, side: Side) -> impl Iterator<Item = NodeId> + '_ {
        self.sides
            .iter()
            .enumerate()
            .filter(move |(_, &s)| s == side)
            .map(|(i, _)| NodeId::new(i))
    }

    /// Number of nodes assigned to `side`.
    pub fn count_on(&self, side: Side) -> usize {
        self.sides.iter().filter(|&&s| s == side).count()
    }

    /// Total communication weight crossing the partition — the paper's
    /// `CUT` of formula (8).
    ///
    /// # Panics
    ///
    /// Panics if `g` has more nodes than this partition covers.
    pub fn cut_weight(&self, g: &Graph) -> f64 {
        assert!(
            g.node_count() <= self.sides.len(),
            "partition covers {} nodes but graph has {}",
            self.sides.len(),
            g.node_count()
        );
        g.edges()
            .filter(|e| self.sides[e.source.index()] != self.sides[e.target.index()])
            .map(|e| e.weight)
            .sum()
    }

    /// Total node (computation) weight on `side`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more nodes than this partition covers.
    pub fn node_weight_on(&self, g: &Graph, side: Side) -> f64 {
        assert!(g.node_count() <= self.sides.len());
        self.nodes_on(side)
            .filter(|n| n.index() < g.node_count())
            .map(|n| g.node_weight(n))
            .sum()
    }

    /// `true` when both sides hold at least one node.
    pub fn is_proper(&self) -> bool {
        let mut seen_local = false;
        let mut seen_remote = false;
        for &s in &self.sides {
            match s {
                Side::Local => seen_local = true,
                Side::Remote => seen_remote = true,
            }
            if seen_local && seen_remote {
                return true;
            }
        }
        false
    }

    /// Immutable view of the side vector.
    pub fn as_slice(&self) -> &[Side] {
        &self.sides
    }
}

impl FromIterator<Side> for Bipartition {
    fn from_iter<I: IntoIterator<Item = Side>>(iter: I) -> Self {
        Bipartition {
            sides: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_node(i as f64)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[2], n[3], 3.0).unwrap();
        b.build()
    }

    #[test]
    fn side_flips() {
        assert_eq!(Side::Local.flipped(), Side::Remote);
        assert_eq!(Side::Remote.flipped(), Side::Local);
        assert_eq!(Side::Local.to_string(), "local");
    }

    #[test]
    fn uniform_partition_has_zero_cut() {
        let g = path4();
        let p = Bipartition::uniform(4, Side::Local);
        assert_eq!(p.cut_weight(&g), 0.0);
        assert!(!p.is_proper());
        assert_eq!(p.count_on(Side::Local), 4);
    }

    #[test]
    fn cut_weight_counts_crossing_edges_once() {
        let g = path4();
        // split between node 1 and node 2: only edge (1,2) crosses.
        let p = Bipartition::from_fn(4, |i| if i <= 1 { Side::Local } else { Side::Remote });
        assert_eq!(p.cut_weight(&g), 2.0);
        assert!(p.is_proper());
    }

    #[test]
    fn flip_moves_node_across() {
        let g = path4();
        let mut p = Bipartition::uniform(4, Side::Local);
        p.flip(NodeId::new(3));
        assert_eq!(p.side(NodeId::new(3)), Side::Remote);
        assert_eq!(p.cut_weight(&g), 3.0);
        p.assign(NodeId::new(3), Side::Local);
        assert_eq!(p.cut_weight(&g), 0.0);
    }

    #[test]
    fn node_weight_on_sums_by_side() {
        let g = path4();
        let p = Bipartition::from_fn(4, |i| {
            if i % 2 == 0 {
                Side::Local
            } else {
                Side::Remote
            }
        });
        assert_eq!(p.node_weight_on(&g, Side::Local), 0.0 + 2.0);
        assert_eq!(p.node_weight_on(&g, Side::Remote), 1.0 + 3.0);
    }

    #[test]
    fn nodes_on_enumerates_in_order() {
        let p = Bipartition::from_sides(vec![Side::Remote, Side::Local, Side::Remote, Side::Local]);
        let locals: Vec<_> = p.nodes_on(Side::Local).map(NodeId::index).collect();
        assert_eq!(locals, vec![1, 3]);
    }

    #[test]
    fn from_iterator_collects() {
        let p: Bipartition = [Side::Local, Side::Remote].into_iter().collect();
        assert_eq!(p.len(), 2);
        assert!(p.is_proper());
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn cut_weight_rejects_undersized_partition() {
        let g = path4();
        let p = Bipartition::uniform(2, Side::Local);
        let _ = p.cut_weight(&g);
    }

    #[test]
    fn serde_round_trip() {
        let p = Bipartition::from_sides(vec![Side::Local, Side::Remote]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Bipartition = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
