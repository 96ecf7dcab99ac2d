//! The part system: what Algorithm 2's greedy loop moves around.
//!
//! After compression and per-component minimum cuts, each user's
//! application is a collection of *parts*: the pinned (always-local)
//! functions, plus one or two node sets per connected component — the
//! two halves of that component's cut. The greedy stage assigns each
//! part to the device or the server; this module holds the bookkeeping
//! that makes a part move priceable in `O(1)`.

use mec_graph::{Bipartition, Graph, NodeId, Side};
use mec_labelprop::CompressionOutcome;

/// One movable part: a set of functions of one user that the cut stage
/// decided must stay together.
#[derive(Debug, Clone)]
pub struct Part {
    /// Owning user (scenario index).
    pub user: usize,
    /// Component record this part belongs to.
    pub component: usize,
    /// Nodes of the user's original graph in this part.
    pub nodes: Vec<NodeId>,
    /// Total computation weight of the part.
    pub work: f64,
    /// Communication weight to the user's pinned (always-local) nodes.
    pub pinned_cut: f64,
    /// Number of edges to pinned nodes.
    pub pinned_crossings: usize,
    /// Current assignment. Algorithm 2 starts every part remote.
    pub side: Side,
}

/// One connected component after compression: its one or two parts and
/// the communication between them.
#[derive(Debug, Clone)]
pub struct ComponentRec {
    /// Owning user.
    pub user: usize,
    /// First part index.
    pub part1: usize,
    /// Second part index (absent when the cut was trivial).
    pub part2: Option<usize>,
    /// Communication weight between the two parts (0 when single).
    pub cross_weight: f64,
    /// Number of edges between the two parts.
    pub cross_count: usize,
}

/// All parts of all users, with the coupling structure needed to price
/// moves incrementally.
#[derive(Debug, Clone, Default)]
pub struct PartSystem {
    parts: Vec<Part>,
    components: Vec<ComponentRec>,
    /// Per user: total pinned (always-local) computation weight.
    pinned_work: Vec<f64>,
    /// Per user: node count of the original graph (to emit plans).
    node_counts: Vec<usize>,
    /// Per user: indices of their parts.
    user_parts: Vec<Vec<usize>>,
}

impl PartSystem {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one user: their original graph, its compression
    /// outcome, and one quotient-graph cut per compressed component
    /// (in the same order as `compression.components`).
    ///
    /// Every part starts on [`Side::Remote`], matching Algorithm 2's
    /// initial `V_2`.
    ///
    /// # Panics
    ///
    /// Panics if `quotient_cuts` does not align with the compression's
    /// component list.
    pub fn add_user(
        &mut self,
        graph: &Graph,
        compression: &CompressionOutcome,
        quotient_cuts: &[Bipartition],
    ) -> usize {
        assert_eq!(
            quotient_cuts.len(),
            compression.components.len(),
            "one quotient cut per compressed component"
        );
        let user = self.pinned_work.len();
        self.node_counts.push(graph.node_count());
        self.user_parts.push(Vec::new());
        self.pinned_work.push(
            compression
                .pinned
                .iter()
                .map(|&n| graph.node_weight(n))
                .sum(),
        );

        // map: original node -> part index (offloadable nodes only)
        const NO_PART: usize = usize::MAX;
        let mut part_of = vec![NO_PART; graph.node_count()];

        for (comp, qcut) in compression.components.iter().zip(quotient_cuts) {
            let full = comp.quotient.expand(qcut);
            // split subgraph-local nodes by side, then map to original ids
            let mut side_nodes: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
            for local in comp.subgraph.graph().node_ids() {
                let bucket = match full.side(local) {
                    Side::Local => 0,
                    Side::Remote => 1,
                };
                side_nodes[bucket].push(comp.subgraph.parent_of(local));
            }
            let comp_idx = self.components.len();
            let mut part_ids = Vec::new();
            for nodes in side_nodes.into_iter().filter(|ns| !ns.is_empty()) {
                let work = nodes.iter().map(|&n| graph.node_weight(n)).sum();
                let part_idx = self.parts.len();
                for &n in &nodes {
                    part_of[n.index()] = part_idx;
                }
                self.parts.push(Part {
                    user,
                    component: comp_idx,
                    nodes,
                    work,
                    pinned_cut: 0.0,
                    pinned_crossings: 0,
                    side: Side::Remote,
                });
                self.user_parts[user].push(part_idx);
                part_ids.push(part_idx);
            }
            debug_assert!(!part_ids.is_empty(), "a component has at least one part");
            self.components.push(ComponentRec {
                user,
                part1: part_ids[0],
                part2: part_ids.get(1).copied(),
                cross_weight: 0.0,
                cross_count: 0,
            });
        }

        // classify every edge of the original graph
        for e in graph.edges() {
            let pa = part_of[e.source.index()];
            let pb = part_of[e.target.index()];
            match (pa, pb) {
                (NO_PART, NO_PART) => {} // pinned-pinned: always free
                (NO_PART, p) | (p, NO_PART) => {
                    self.parts[p].pinned_cut += e.weight;
                    self.parts[p].pinned_crossings += 1;
                }
                (p, q) if p == q => {} // internal to a part
                (p, q) => {
                    debug_assert_eq!(
                        self.parts[p].component, self.parts[q].component,
                        "cross-part edges only exist between siblings"
                    );
                    let c = self.parts[p].component;
                    self.components[c].cross_weight += e.weight;
                    self.components[c].cross_count += 1;
                }
            }
        }

        // initial placement (paper §III-B): the cut splits each
        // component so that "one part executes locally, and another
        // part executes remotely". The device side is the half more
        // tightly coupled to the pinned functions (ties: the lighter
        // half, then the lower index). Single-part components start
        // remote — Algorithm 2's greedy brings them home if that pays.
        let first_comp = self.components.len() - quotient_cuts.len();
        for comp in &self.components[first_comp..] {
            let Some(p2) = comp.part2 else { continue };
            let p1 = comp.part1;
            let (a, b) = (&self.parts[p1], &self.parts[p2]);
            let local = match a
                .pinned_cut
                .partial_cmp(&b.pinned_cut)
                .expect("weights are finite")
            {
                std::cmp::Ordering::Greater => p1,
                std::cmp::Ordering::Less => p2,
                std::cmp::Ordering::Equal => {
                    if a.work <= b.work {
                        p1
                    } else {
                        p2
                    }
                }
            };
            self.parts[local].side = Side::Local;
        }
        user
    }

    /// Removes user `u`, preserving the order of all other users: user
    /// `u + 1` becomes user `u`, and so on. Part sides of the remaining
    /// users are untouched, so a converged placement stays converged
    /// wherever the departure did not change prices.
    ///
    /// Cost is `O(parts + components)` — one index-rebasing pass over
    /// the records after the drained ranges — with no per-node work,
    /// which is what makes session-level churn cheap: the expensive
    /// per-node classification of [`add_user`](Self::add_user) runs
    /// only for arriving users.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn remove_user(&mut self, u: usize) {
        assert!(u < self.user_count(), "user {u} out of bounds");
        let p_n = self.user_parts[u].len();
        let (p_lo, c_lo, c_n) = if p_n > 0 {
            // a user's parts and components are contiguous ranges:
            // add_user appends them together and removal preserves
            // grouping, so draining two ranges removes the whole user
            let p_lo = self.user_parts[u][0];
            debug_assert!(self.user_parts[u]
                .iter()
                .enumerate()
                .all(|(k, &i)| i == p_lo + k));
            let c_lo = self.parts[p_lo].component;
            let c_hi = self.parts[p_lo + p_n - 1].component;
            (p_lo, c_lo, c_hi - c_lo + 1)
        } else {
            // no parts ⇒ no components either; only the slot vectors
            // shrink, but the later users' indices still need rebasing
            let p_lo = self.user_parts[u + 1..]
                .iter()
                .find_map(|ps| ps.first().copied())
                .unwrap_or(self.parts.len());
            let c_lo = self
                .parts
                .get(p_lo)
                .map_or(self.components.len(), |p| p.component);
            (p_lo, c_lo, 0)
        };
        debug_assert!(self.components[c_lo..c_lo + c_n]
            .iter()
            .all(|c| c.user == u));
        self.parts.drain(p_lo..p_lo + p_n);
        self.components.drain(c_lo..c_lo + c_n);
        for p in &mut self.parts[p_lo..] {
            p.user -= 1;
            p.component -= c_n;
        }
        for c in &mut self.components[c_lo..] {
            c.user -= 1;
            c.part1 -= p_n;
            if let Some(p2) = &mut c.part2 {
                *p2 -= p_n;
            }
        }
        self.pinned_work.remove(u);
        self.node_counts.remove(u);
        self.user_parts.remove(u);
        for ups in &mut self.user_parts[u..] {
            for i in ups {
                *i -= p_n;
            }
        }
    }

    /// Replaces user `u`'s workload in place (the same slot), keeping
    /// every other user's records and part sides untouched — the
    /// incremental form of a same-name re-join. The new workload gets
    /// the usual initial placement of [`add_user`](Self::add_user).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds or the cuts do not align with
    /// the compression's component list.
    pub fn replace_user(
        &mut self,
        u: usize,
        graph: &Graph,
        compression: &CompressionOutcome,
        quotient_cuts: &[Bipartition],
    ) {
        self.remove_user(u);
        self.insert_user_at(u, graph, compression, quotient_cuts);
    }

    /// Inserts a new user at slot `u` (shifting users `u..` up by one),
    /// with the same semantics as [`add_user`](Self::add_user).
    ///
    /// # Panics
    ///
    /// Panics if `u > user_count()` or the cuts do not align with the
    /// compression's component list.
    pub fn insert_user_at(
        &mut self,
        u: usize,
        graph: &Graph,
        compression: &CompressionOutcome,
        quotient_cuts: &[Bipartition],
    ) {
        assert!(u <= self.user_count(), "insert slot {u} out of bounds");
        if u == self.user_count() {
            self.add_user(graph, compression, quotient_cuts);
            return;
        }
        // Build the newcomer in a scratch system (user index 0, local
        // part/component indices), then splice the records into place
        // and rebase both sides of the seam.
        let mut tmp = PartSystem::new();
        tmp.add_user(graph, compression, quotient_cuts);
        let p_lo = self.user_parts[u..]
            .iter()
            .find_map(|ps| ps.first().copied())
            .unwrap_or(self.parts.len());
        let c_lo = self
            .parts
            .get(p_lo)
            .map_or(self.components.len(), |p| p.component);
        let p_n = tmp.parts.len();
        let c_n = tmp.components.len();
        for p in &mut self.parts[p_lo..] {
            p.user += 1;
            p.component += c_n;
        }
        for c in &mut self.components[c_lo..] {
            c.user += 1;
            c.part1 += p_n;
            if let Some(p2) = &mut c.part2 {
                *p2 += p_n;
            }
        }
        for ups in &mut self.user_parts[u..] {
            for i in ups {
                *i += p_n;
            }
        }
        for p in &mut tmp.parts {
            p.user = u;
            p.component += c_lo;
        }
        for c in &mut tmp.components {
            c.user = u;
            c.part1 += p_lo;
            if let Some(p2) = &mut c.part2 {
                *p2 += p_lo;
            }
        }
        let new_user_parts: Vec<usize> = tmp
            .user_parts
            .pop()
            .expect("scratch system has one user")
            .into_iter()
            .map(|i| i + p_lo)
            .collect();
        self.parts.splice(p_lo..p_lo, tmp.parts);
        self.components.splice(c_lo..c_lo, tmp.components);
        self.pinned_work.insert(u, tmp.pinned_work[0]);
        self.node_counts.insert(u, tmp.node_counts[0]);
        self.user_parts.insert(u, new_user_parts);
    }

    /// Number of users registered.
    pub fn user_count(&self) -> usize {
        self.pinned_work.len()
    }

    /// All parts.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// All component records.
    pub fn components(&self) -> &[ComponentRec] {
        &self.components
    }

    /// Pinned computation weight of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of bounds.
    pub fn pinned_work(&self, user: usize) -> f64 {
        self.pinned_work[user]
    }

    /// Current side of part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn side(&self, i: usize) -> Side {
        self.parts[i].side
    }

    /// Reassigns part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_side(&mut self, i: usize, side: Side) {
        self.parts[i].side = side;
    }

    /// Indices of all parts belonging to `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of bounds.
    pub fn parts_of_user(&self, user: usize) -> &[usize] {
        &self.user_parts[user]
    }

    /// The sibling of part `i`, if its component was split in two.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sibling(&self, i: usize) -> Option<usize> {
        let c = &self.components[self.parts[i].component];
        if c.part1 == i {
            c.part2
        } else {
            Some(c.part1)
        }
    }

    /// The user's transmission volume (data + per-crossing overhead)
    /// under the current sides — recomputed from scratch; the greedy
    /// loop keeps its own incremental copy and cross-checks against
    /// this in tests.
    pub fn tx_volume_of_user(&self, user: usize, control_overhead: f64) -> f64 {
        let mut volume = 0.0;
        for c in self.components.iter().filter(|c| c.user == user) {
            let s1 = self.parts[c.part1].side;
            if let Some(p2) = c.part2 {
                let s2 = self.parts[p2].side;
                if s1 != s2 {
                    volume += c.cross_weight + c.cross_count as f64 * control_overhead;
                }
            }
        }
        for p in self.parts.iter().filter(|p| p.user == user) {
            if p.side == Side::Remote {
                volume += p.pinned_cut + p.pinned_crossings as f64 * control_overhead;
            }
        }
        volume
    }

    /// The user's local / remote computation work under current sides.
    pub fn work_split_of_user(&self, user: usize) -> (f64, f64) {
        let mut local = self.pinned_work[user];
        let mut remote = 0.0;
        for p in self.parts.iter().filter(|p| p.user == user) {
            match p.side {
                Side::Local => local += p.work,
                Side::Remote => remote += p.work,
            }
        }
        (local, remote)
    }

    /// Emits the per-user plan implied by the current part sides:
    /// pinned nodes local, part nodes on their part's side.
    pub fn plan(&self) -> Vec<Bipartition> {
        (0..self.user_count()).map(|u| self.plan_of(u)).collect()
    }

    /// User `u`'s row of [`plan`](Self::plan), built from that user's
    /// parts alone.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn plan_of(&self, u: usize) -> Bipartition {
        let mut plan = Bipartition::uniform(self.node_counts[u], Side::Local);
        for &i in &self.user_parts[u] {
            let p = &self.parts[i];
            if p.side == Side::Remote {
                for &n in &p.nodes {
                    plan.assign(n, Side::Remote);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;
    use mec_labelprop::{CompressionConfig, Compressor, ThresholdRule};

    /// pinned —3— [heavy triangle 0,1,2] —1— [heavy triangle 3,4,5]
    fn build_system() -> (Graph, PartSystem) {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|i| b.add_node(i as f64 + 1.0)).collect();
        let pin = b.add_pinned_node(50.0);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        b.add_edge(n[2], n[3], 1.0).unwrap();
        b.add_edge(pin, n[0], 3.0).unwrap();
        let g = b.build();
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0)));
        let outcome = compressor.compress(&g);
        // one component, quotient = 2 super-nodes joined by the bridge
        let cuts: Vec<Bipartition> = outcome
            .components
            .iter()
            .map(|c| {
                // split the quotient by its only edge
                Bipartition::from_fn(c.quotient.graph().node_count(), |i| {
                    if i == 0 {
                        Side::Local
                    } else {
                        Side::Remote
                    }
                })
            })
            .collect();
        let mut ps = PartSystem::new();
        ps.add_user(&g, &outcome, &cuts);
        (g, ps)
    }

    #[test]
    fn parts_partition_the_offloadable_nodes() {
        let (g, ps) = build_system();
        assert_eq!(ps.user_count(), 1);
        assert_eq!(ps.parts().len(), 2);
        let total_nodes: usize = ps.parts().iter().map(|p| p.nodes.len()).sum();
        assert_eq!(total_nodes, 6);
        let total_work: f64 = ps.parts().iter().map(|p| p.work).sum();
        assert_eq!(total_work, 21.0);
        assert_eq!(ps.pinned_work(0), 50.0);
        let _ = g;
    }

    #[test]
    fn component_coupling_is_the_bridge() {
        let (_, ps) = build_system();
        let c = &ps.components()[0];
        assert!((c.cross_weight - 1.0).abs() < 1e-12);
        assert_eq!(c.cross_count, 1);
        assert!(c.part2.is_some());
    }

    #[test]
    fn pinned_coupling_lands_on_the_right_part() {
        let (_, ps) = build_system();
        // the part containing node 0 has the pinned edge (weight 3)
        let p_with_pin = ps
            .parts()
            .iter()
            .find(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert!((p_with_pin.pinned_cut - 3.0).abs() < 1e-12);
        assert_eq!(p_with_pin.pinned_crossings, 1);
        let other = ps
            .parts()
            .iter()
            .find(|p| !p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(other.pinned_cut, 0.0);
    }

    #[test]
    fn initial_split_puts_pin_coupled_half_on_the_device() {
        let (_, ps) = build_system();
        // the half containing node 0 carries the pinned edge → Local;
        // the sibling half starts Remote (paper §III-B: one part local,
        // one part remote).
        let pin_part = ps
            .parts()
            .iter()
            .find(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(pin_part.side, Side::Local);
        let other = ps
            .parts()
            .iter()
            .find(|p| !p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        assert_eq!(other.side, Side::Remote);
        let (local, remote) = ps.work_split_of_user(0);
        assert_eq!(local, 50.0 + pin_part.work);
        assert_eq!(remote, other.work);
    }

    #[test]
    fn tx_volume_tracks_sides() {
        let (_, mut ps) = build_system();
        let oh = 2.0;
        // initial split: bridge crosses (1 + 1*2 = 3); pinned edge is
        // local-local and free
        assert!((ps.tx_volume_of_user(0, oh) - 3.0).abs() < 1e-12);
        let pin_part = ps
            .parts()
            .iter()
            .position(|p| p.nodes.contains(&NodeId::new(0)))
            .unwrap();
        // push the pin half remote too: only the pinned edge crosses
        ps.set_side(pin_part, Side::Remote);
        assert!((ps.tx_volume_of_user(0, oh) - 5.0).abs() < 1e-12);
        // everything local: nothing crosses
        let other = ps.sibling(pin_part).unwrap();
        ps.set_side(pin_part, Side::Local);
        ps.set_side(other, Side::Local);
        assert_eq!(ps.tx_volume_of_user(0, oh), 0.0);
    }

    #[test]
    fn plan_reflects_sides_and_keeps_pins_local() {
        let (g, mut ps) = build_system();
        let plans = ps.plan();
        assert_eq!(plans.len(), 1);
        // initial split: exactly one triangle (3 nodes) is remote
        assert_eq!(plans[0].count_on(Side::Remote), 3);
        assert_eq!(plans[0].side(NodeId::new(6)), Side::Local);
        for i in 0..ps.parts().len() {
            ps.set_side(i, Side::Remote);
        }
        let plans2 = ps.plan();
        assert_eq!(plans2[0].count_on(Side::Remote), 6);
        assert_eq!(plans2[0].side(NodeId::new(6)), Side::Local);
        let _ = g;
    }

    #[test]
    fn sibling_lookup_is_symmetric() {
        let (_, ps) = build_system();
        let s0 = ps.sibling(0).unwrap();
        assert_eq!(ps.sibling(s0), Some(0));
    }

    /// A distinct multi-component workload per seed, plus its quotient
    /// cuts (mirrors what the session's front-end hands to `add_user`).
    fn user_fixture(seed: u64) -> (Graph, CompressionOutcome, Vec<Bipartition>) {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..8)
            .map(|i| b.add_node((seed * 7 + i) as f64 % 9.0 + 1.0))
            .collect();
        let pin = b.add_pinned_node(10.0 + seed as f64);
        for (a, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(n[a], n[c], 10.0).unwrap();
        }
        b.add_edge(n[2], n[3], 1.0).unwrap();
        // second component: a loose pair
        b.add_edge(n[6], n[7], 0.5 + seed as f64 % 2.0).unwrap();
        b.add_edge(pin, n[0], 2.0 + seed as f64 % 3.0).unwrap();
        let g = b.build();
        let compressor =
            Compressor::new(CompressionConfig::new().threshold(ThresholdRule::Absolute(5.0)));
        let outcome = compressor.compress(&g);
        let cuts: Vec<Bipartition> = outcome
            .components
            .iter()
            .map(|c| {
                Bipartition::from_fn(c.quotient.graph().node_count(), |i| {
                    if i == 0 {
                        Side::Local
                    } else {
                        Side::Remote
                    }
                })
            })
            .collect();
        (g, outcome, cuts)
    }

    fn build_from(
        seeds: &[u64],
    ) -> (
        Vec<(Graph, CompressionOutcome, Vec<Bipartition>)>,
        PartSystem,
    ) {
        let fixtures: Vec<_> = seeds.iter().map(|&s| user_fixture(s)).collect();
        let mut ps = PartSystem::new();
        for (g, o, c) in &fixtures {
            ps.add_user(g, o, c);
        }
        (fixtures, ps)
    }

    /// Structural equality probe: everything a consumer can observe.
    type Observation = (Vec<Bipartition>, Vec<(f64, f64)>, Vec<f64>, Vec<f64>);

    fn observe(ps: &PartSystem) -> Observation {
        let splits = (0..ps.user_count())
            .map(|u| ps.work_split_of_user(u))
            .collect();
        let tx = (0..ps.user_count())
            .map(|u| ps.tx_volume_of_user(u, 2.0))
            .collect();
        let pinned = (0..ps.user_count()).map(|u| ps.pinned_work(u)).collect();
        (ps.plan(), splits, tx, pinned)
    }

    #[test]
    fn remove_user_matches_fresh_rebuild() {
        for victim in 0..4 {
            let (fixtures, mut ps) = build_from(&[3, 5, 8, 11]);
            ps.remove_user(victim);
            let mut fresh = PartSystem::new();
            for (i, (g, o, c)) in fixtures.iter().enumerate() {
                if i != victim {
                    fresh.add_user(g, o, c);
                }
            }
            assert_eq!(ps.user_count(), 3);
            assert_eq!(ps.parts().len(), fresh.parts().len());
            assert_eq!(ps.components().len(), fresh.components().len());
            assert_eq!(observe(&ps), observe(&fresh), "victim {victim}");
            // internal indices stay self-consistent
            for (i, p) in ps.parts().iter().enumerate() {
                assert!(ps.parts_of_user(p.user).contains(&i));
                let c = &ps.components()[p.component];
                assert!(c.part1 == i || c.part2 == Some(i));
                assert_eq!(c.user, p.user);
            }
        }
    }

    #[test]
    fn remove_user_keeps_survivor_sides() {
        let (_, mut ps) = build_from(&[3, 5, 8]);
        // scramble sides as a converged placement would
        for i in 0..ps.parts().len() {
            if i % 2 == 0 {
                let s = ps.side(i).flipped();
                ps.set_side(i, s);
            }
        }
        let before: Vec<(usize, Vec<Side>)> = (0..3)
            .map(|u| (u, ps.parts_of_user(u).iter().map(|&i| ps.side(i)).collect()))
            .collect();
        ps.remove_user(1);
        for (u, sides) in before {
            if u == 1 {
                continue;
            }
            let nu = if u > 1 { u - 1 } else { u };
            let now: Vec<Side> = ps.parts_of_user(nu).iter().map(|&i| ps.side(i)).collect();
            assert_eq!(now, sides, "user {u} sides survived the removal");
        }
    }

    #[test]
    fn replace_user_matches_fresh_rebuild() {
        let (fixtures, mut ps) = build_from(&[3, 5, 8]);
        let (g, o, c) = user_fixture(42);
        ps.replace_user(1, &g, &o, &c);
        let mut fresh = PartSystem::new();
        fresh.add_user(&fixtures[0].0, &fixtures[0].1, &fixtures[0].2);
        fresh.add_user(&g, &o, &c);
        fresh.add_user(&fixtures[2].0, &fixtures[2].1, &fixtures[2].2);
        assert_eq!(observe(&ps), observe(&fresh));
    }

    #[test]
    fn churn_sequence_stays_consistent() {
        let (_, mut ps) = build_from(&[1, 2, 3, 4, 5]);
        ps.remove_user(0);
        let (g, o, c) = user_fixture(9);
        ps.insert_user_at(2, &g, &o, &c);
        ps.remove_user(4);
        let mut fresh = PartSystem::new();
        for s in [2u64, 3, 9, 4] {
            let (g, o, c) = user_fixture(s);
            fresh.add_user(&g, &o, &c);
        }
        assert_eq!(observe(&ps), observe(&fresh));
    }

    #[test]
    fn work_split_matches_plan_weights() {
        let (g, mut ps) = build_system();
        ps.set_side(1, Side::Local);
        let (local, remote) = ps.work_split_of_user(0);
        let plan = &ps.plan()[0];
        assert!((plan.node_weight_on(&g, Side::Local) - local).abs() < 1e-12);
        assert!((plan.node_weight_on(&g, Side::Remote) - remote).abs() < 1e-12);
    }
}
