//! CSR-native recursive Fiedler partitioning.
//!
//! The paper's spectral stage bisects each compressed component once;
//! the natural extension — and the dominant cost in any k-way variant —
//! is to keep cutting recursively. Done naively, every level
//! re-materialises an owned `Graph` via `Subgraph::induced`, rebuilds a
//! fresh CSR, and lets Lanczos allocate a new basis per iteration.
//! [`RecursiveBisector`] instead descends in **index space**: one CSR
//! snapshot of the root graph is built into the [`CutScratch`] arena,
//! every level below the root restricts it through a
//! [`mec_graph::CsrView`] compacted into a second pooled CSR (one
//! O(subset edges) pass — the eigensolver then iterates on dense rows),
//! and each child cut seeds its Krylov recurrence with the restriction
//! of its parent's Fiedler vector.

use crate::bisect::{mark_first_component, DEFAULT_SERIAL_CUTOFF};
use crate::laplacian::CsrLaplacian;
use crate::{CutScratch, SpectralError, SplitRule};
use mec_graph::{CsrView, Graph};
use mec_linalg::{kernels, smallest_eigenpairs_with, LanczosOptions};

const OUTSIDE: u32 = CsrView::OUTSIDE;

/// A k-way partition produced by recursive bisection.
#[derive(Debug, Clone, PartialEq)]
pub struct RecursivePartition {
    /// `part_of[i]` is the part id of node `i` (`0..parts`), assigned
    /// in depth-first (left-side-first) order — deterministic for a
    /// fixed graph and options.
    pub part_of: Vec<u32>,
    /// Number of parts.
    pub parts: usize,
}

impl RecursivePartition {
    /// Total weight of edges crossing between different parts.
    pub fn cut_weight(&self, g: &Graph) -> f64 {
        g.edges()
            .filter(|e| self.part_of[e.source.index()] != self.part_of[e.target.index()])
            .map(|e| e.weight)
            .sum()
    }

    /// Number of nodes in part `p`.
    pub fn part_size(&self, p: u32) -> usize {
        self.part_of.iter().filter(|&&q| q == p).count()
    }
}

/// Recursive Fiedler-cut partitioner: splits a graph into up to
/// `2^max_depth` parts by repeated spectral bisection, without ever
/// materialising a sub-graph.
#[derive(Debug, Clone)]
pub struct RecursiveBisector {
    lanczos: LanczosOptions,
    split: SplitRule,
    max_depth: usize,
    min_nodes: usize,
}

impl Default for RecursiveBisector {
    fn default() -> Self {
        RecursiveBisector {
            lanczos: LanczosOptions::default(),
            split: SplitRule::default(),
            max_depth: 3,
            min_nodes: 2,
        }
    }
}

impl RecursiveBisector {
    /// A partitioner with default options: depth 3 (≤ 8 parts),
    /// [`SplitRule::Sign`], default Lanczos options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the eigensolver options. Whatever the options, every
    /// child cut seeds its Krylov recurrence with the restriction of
    /// the parent's Fiedler vector.
    pub fn lanczos_options(mut self, opts: LanczosOptions) -> Self {
        self.lanczos = opts;
        self
    }

    /// Sets the split rule applied at every level.
    pub fn split_rule(mut self, rule: SplitRule) -> Self {
        self.split = rule;
        self
    }

    /// Recursion depth: up to `2^depth` parts (default 3).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Subsets smaller than this become leaves without further cutting
    /// (default 2; values below 2 are treated as 2).
    pub fn min_nodes(mut self, nodes: usize) -> Self {
        self.min_nodes = nodes;
        self
    }

    /// Partitions `g`, allocating a fresh arena — a thin shim over
    /// [`partition_reusing`](RecursiveBisector::partition_reusing) for
    /// one-off callers. Batch callers (the offloader's execution
    /// context) own a long-lived [`CutScratch`] instead and thread it
    /// through the reusing entry point.
    ///
    /// # Errors
    ///
    /// Same as [`partition_reusing`](RecursiveBisector::partition_reusing).
    pub fn partition(&self, g: &Graph) -> Result<RecursivePartition, SpectralError> {
        self.partition_reusing(g, &mut CutScratch::new())
    }

    /// Partitions `g` inside a caller-owned [`CutScratch`]: below the
    /// root, no owned graph, CSR, or Krylov basis is allocated — every
    /// level works through a [`CsrView`] over the root snapshot and the
    /// arena's pooled buffers.
    ///
    /// # Errors
    ///
    /// - [`SpectralError::EmptyGraph`] when `g` has no nodes;
    /// - [`SpectralError::Eigensolver`] if a Fiedler pair cannot be
    ///   computed at some level.
    pub fn partition_reusing(
        &self,
        g: &Graph,
        scratch: &mut CutScratch,
    ) -> Result<RecursivePartition, SpectralError> {
        let n = g.node_count();
        if n == 0 {
            return Err(SpectralError::EmptyGraph);
        }
        scratch.csr.rebuild_from(g);
        scratch.to_local.clear();
        scratch.to_local.resize(n, OUTSIDE);
        let min_leaf = self.min_nodes.max(2);

        let mut part_of = vec![0u32; n];
        let mut parts = 0u32;

        let mut root = scratch.checkout_idx();
        root.extend(0..u32::try_from(n).expect("node count fits u32"));
        let root_warm = scratch.checkout_f64();
        // (subset, staged warm seed, depth); left child pushed last so
        // part ids are assigned in depth-first left-first order
        let mut stack: Vec<(Vec<u32>, Vec<f64>, usize)> = vec![(root, root_warm, 0)];

        while let Some((nodes, warm, depth)) = stack.pop() {
            let m = nodes.len();
            if depth >= self.max_depth || m < min_leaf {
                for &p in &nodes {
                    part_of[p as usize] = parts;
                }
                parts += 1;
                scratch.retire_idx(nodes);
                scratch.retire_f64(warm);
                continue;
            }

            let CutScratch {
                csr,
                csr_sub,
                lanczos,
                to_local,
                order,
                local,
                idx_pool,
                f64_pool,
                ..
            } = &mut *scratch;
            for (l, &p) in nodes.iter().enumerate() {
                to_local[p as usize] = u32::try_from(l).expect("subset fits u32");
            }
            // one O(subset edges) compaction pass; every Lanczos
            // matrix–vector product below then runs on dense rows
            // instead of re-filtering the parent CSR
            csr_sub.rebuild_from_view(&csr.view(&nodes, to_local));
            // `local[l] == true` → node goes to the left child. A
            // disconnected subset peels the component of local 0 at
            // zero cut weight without an eigensolve — one Krylov
            // sequence cannot tell how many zero eigenvalues there are
            // — and its children start unseeded.
            let mut fiedler = Vec::new();
            let proper = mark_first_component(csr_sub, order, local) < m || {
                let op = CsrLaplacian::new(csr_sub);
                let mut pairs = smallest_eigenpairs_with(
                    &op,
                    2,
                    &self.lanczos,
                    Some(&warm),
                    &mec_obs::NullSink,
                    lanczos,
                )?;
                fiedler = pairs.swap_remove(1).vector;
                // canonical sign: first non-zero component positive
                if let Some(first) = fiedler.iter().find(|v| v.abs() > 1e-12) {
                    if *first < 0.0 {
                        for v in &mut fiedler {
                            *v = -*v;
                        }
                    }
                }
                split_sides(csr_sub, &fiedler, self.split, order, local)
            };

            let mut left = idx_pool.pop().unwrap_or_default();
            let mut right = idx_pool.pop().unwrap_or_default();
            left.clear();
            right.clear();
            let mut warm_left = f64_pool.pop().unwrap_or_default();
            let mut warm_right = f64_pool.pop().unwrap_or_default();
            warm_left.clear();
            warm_right.clear();
            for (l, &p) in nodes.iter().enumerate() {
                if local[l] {
                    left.push(p);
                    warm_left.extend(fiedler.get(l));
                } else {
                    right.push(p);
                    warm_right.extend(fiedler.get(l));
                }
            }
            for &p in &nodes {
                to_local[p as usize] = OUTSIDE;
            }

            if !proper || left.is_empty() || right.is_empty() {
                for &p in &nodes {
                    part_of[p as usize] = parts;
                }
                parts += 1;
                scratch.retire_idx(left);
                scratch.retire_idx(right);
                scratch.retire_f64(warm_left);
                scratch.retire_f64(warm_right);
            } else {
                stack.push((right, warm_right, depth + 1));
                stack.push((left, warm_left, depth + 1));
            }
            scratch.retire_idx(nodes);
            scratch.retire_f64(warm);
        }

        Ok(RecursivePartition {
            part_of,
            parts: parts as usize,
        })
    }
}

/// Splits a connected subset by `rule` along its Fiedler vector,
/// marking the left child in `local`. Falls back to the lower half of
/// the Fiedler ordering when the rule yields an improper split (and
/// always for [`SplitRule::Median`]). Returns whether the split is
/// proper.
fn split_sides(
    csr: &mec_graph::CsrAdjacency,
    fiedler: &[f64],
    rule: SplitRule,
    order: &mut Vec<usize>,
    local: &mut Vec<bool>,
) -> bool {
    let m = fiedler.len();
    local.clear();
    local.resize(m, false);
    let proper = match rule {
        SplitRule::Sweep | SplitRule::RatioSweep => sweep_sides(csr, fiedler, rule, order, local),
        SplitRule::Sign => {
            for (l, &x) in fiedler.iter().enumerate() {
                local[l] = x < 0.0;
            }
            let lefts = local.iter().filter(|&&s| s).count();
            lefts > 0 && lefts < m
        }
        SplitRule::Median => false,
    };
    if proper {
        return true;
    }
    order.clear();
    order.extend(0..m);
    order.sort_by(|&a, &b| {
        fiedler[a]
            .partial_cmp(&fiedler[b])
            .expect("components are finite")
    });
    local.iter_mut().for_each(|s| *s = false);
    for &l in order.iter().take(m / 2) {
        local[l] = true;
    }
    m >= 2
}

/// Compact-CSR sweep: prices every prefix of the Fiedler ordering
/// incrementally (same tie-breaks as the flat bisector's sweep) and
/// marks the winning prefix in `local`. Returns whether the split is
/// proper. The per-vertex boundary update reads the CSR's SoA
/// `columns`/`weights` slices through the shared sweep kernel.
fn sweep_sides(
    csr: &mec_graph::CsrAdjacency,
    v: &[f64],
    rule: SplitRule,
    order: &mut Vec<usize>,
    local: &mut Vec<bool>,
) -> bool {
    let m = v.len();
    debug_assert!(m >= 2);
    order.clear();
    order.extend(0..m);
    order.sort_by(|&a, &b| {
        v[a].partial_cmp(&v[b])
            .expect("components are finite")
            .then(a.cmp(&b))
    });
    local.clear();
    local.resize(m, false);
    let (offsets, columns, weights) = csr.as_parts();
    let mut cut = 0.0f64;
    let mut best = (f64::INFINITY, 0usize, usize::MAX);
    for (k, &node) in order.iter().enumerate().take(m - 1) {
        let (lo, hi) = (offsets[node], offsets[node + 1]);
        cut = kernels::sweep_boundary_update(cut, &columns[lo..hi], &weights[lo..hi], local);
        local[node] = true;
        let prefix = k + 1;
        let balance_dist = prefix.abs_diff(m / 2);
        let score = if rule == SplitRule::RatioSweep {
            cut / (prefix as f64 * (m - prefix) as f64)
        } else {
            cut
        };
        if score < best.0 - 1e-12 || (score <= best.0 + 1e-12 && balance_dist < best.1) {
            best = (score, balance_dist, prefix);
        }
    }
    local.iter_mut().for_each(|s| *s = false);
    let split_at = best.2;
    if split_at == usize::MAX || split_at == 0 || split_at >= m {
        return false;
    }
    for &node in order.iter().take(split_at) {
        local[node] = true;
    }
    true
}

// keep the serial-cutoff constant referenced so the two defaults stay
// discoverable together in docs
#[allow(dead_code)]
const _: usize = DEFAULT_SERIAL_CUTOFF;

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;
    use mec_netgen::NetgenSpec;

    /// `k` heavy cliques of size `s` chained by light bridges.
    fn clique_chain(k: usize, s: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..k * s).map(|_| b.add_node(1.0)).collect();
        for c in 0..k {
            for i in 0..s {
                for j in (i + 1)..s {
                    b.add_edge(n[c * s + i], n[c * s + j], 9.0).unwrap();
                }
            }
        }
        for c in 1..k {
            b.add_edge(n[c * s - 1], n[c * s], 0.5).unwrap();
        }
        b.build()
    }

    #[test]
    fn four_cliques_become_four_parts() {
        let g = clique_chain(4, 6);
        let p = RecursiveBisector::new().max_depth(2).partition(&g).unwrap();
        assert_eq!(p.parts, 4);
        // every clique is one part
        for c in 0..4 {
            let first = p.part_of[c * 6];
            for i in 0..6 {
                assert_eq!(p.part_of[c * 6 + i], first, "clique {c} split");
            }
        }
        // only the three bridges are cut
        assert!((p.cut_weight(&g) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_one_part() {
        let g = clique_chain(2, 4);
        let p = RecursiveBisector::new().max_depth(0).partition(&g).unwrap();
        assert_eq!(p.parts, 1);
        assert_eq!(p.cut_weight(&g), 0.0);
    }

    #[test]
    fn depth_one_matches_flat_bisection_sides() {
        let g = clique_chain(2, 8);
        let p = RecursiveBisector::new().max_depth(1).partition(&g).unwrap();
        assert_eq!(p.parts, 2);
        let flat = crate::SpectralBisector::new().bisect(&g).unwrap();
        // identical grouping (part ids may differ from sides)
        for i in 0..g.node_count() {
            for j in 0..g.node_count() {
                let same_rec = p.part_of[i] == p.part_of[j];
                let same_flat = flat.partition.side(mec_graph::NodeId::new(i))
                    == flat.partition.side(mec_graph::NodeId::new(j));
                assert_eq!(same_rec, same_flat, "nodes {i},{j}");
            }
        }
    }

    #[test]
    fn deterministic_and_scratch_independent() {
        let g = NetgenSpec::new(120, 360)
            .components(1)
            .seed(7)
            .generate()
            .unwrap();
        let r = RecursiveBisector::new();
        let a = r.partition(&g).unwrap();
        let mut scratch = CutScratch::new();
        let b = r.partition_reusing(&g, &mut scratch).unwrap();
        let c = r.partition_reusing(&g, &mut scratch).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(a.parts >= 2);
    }

    #[test]
    fn disconnected_graphs_split_along_components() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 2.0).unwrap();
        b.add_edge(n[2], n[3], 2.0).unwrap();
        b.add_edge(n[4], n[5], 2.0).unwrap();
        let g = b.build();
        // pairs are leaves (min_nodes 3), so only the λ₂ ≈ 0 component
        // peeling contributes splits — one part per component
        let p = RecursiveBisector::new().min_nodes(3).partition(&g).unwrap();
        assert_eq!(p.parts, 3);
        assert_eq!(p.cut_weight(&g), 0.0);
    }

    #[test]
    fn min_nodes_limits_leaf_splitting() {
        let g = clique_chain(4, 4);
        let p = RecursiveBisector::new()
            .max_depth(5)
            .min_nodes(8)
            .partition(&g)
            .unwrap();
        // leaves stop splitting below 8 nodes, so parts stay coarse
        for part in 0..p.parts as u32 {
            assert!(p.part_size(part) >= 2);
        }
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = GraphBuilder::new().build();
        assert_eq!(
            RecursiveBisector::new().partition(&g).unwrap_err(),
            SpectralError::EmptyGraph
        );
    }
}
