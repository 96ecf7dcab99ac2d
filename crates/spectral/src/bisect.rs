//! Fiedler-vector bipartitioning.

use crate::laplacian::CsrLaplacian;
use crate::{CutScratch, SpectralError};
use mec_engine::{Cluster, ParallelLaplacian};
use mec_graph::{Bipartition, CsrAdjacency, Graph, Side};
use mec_linalg::{kernels, smallest_eigenpairs_with, Eigenpair, LanczosOptions};
use mec_obs::{FieldValue, TraceSink};
use std::sync::Arc;

/// Default node count below which a cluster-configured bisector still
/// solves serially: shipping a 3-node Laplacian to the pool costs more
/// than the product itself. Matches the eigensolver's dense cutoff —
/// below it Lanczos never iterates, so a distributed operator would
/// only pay stage round-trips without amortising them.
pub(crate) const DEFAULT_SERIAL_CUTOFF: usize = 32;

/// How the Fiedler vector is turned into two node sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitRule {
    /// Nodes with non-negative Fiedler components go remote, the rest
    /// stay local — the paper's `q_i = ±1` indicator (default). On
    /// module-structured workloads the sign boundary tracks the true
    /// cluster boundary and consistently beats the sweep variants in
    /// end-to-end objective (see the `ablate` experiment). Falls back
    /// to [`Median`](SplitRule::Median) if numerics put every node on
    /// one side.
    #[default]
    Sign,
    /// Ratio-cut sweep: sort nodes by Fiedler component and take the
    /// prefix split minimising `cut / (|A| · |B|)` — the classic
    /// spectral-clustering objective. More robust than [`Sign`](SplitRule::Sign) on
    /// graphs without clean module structure.
    RatioSweep,
    /// Minimum-weight sweep: the prefix split with the smallest cut
    /// weight, regardless of balance. Matches the exact minimum cut on
    /// well-separated graphs but tends to peel single nodes.
    Sweep,
    /// Split at the median component: both halves are guaranteed
    /// non-empty (sizes differ by at most one).
    Median,
}

/// The result of a spectral bisection.
#[derive(Debug, Clone)]
pub struct SpectralCut {
    /// Node assignment (Fiedler-positive side is
    /// [`Side::Remote`](mec_graph::Side); a disconnected graph splits
    /// along its components instead, see
    /// [`SpectralBisector::bisect`]).
    pub partition: Bipartition,
    /// The second-smallest Laplacian eigenvalue `λ₂` (the algebraic
    /// connectivity; the paper's Theorem 1 reads the minimum cut off
    /// this eigenvalue's eigenvector).
    pub fiedler_value: f64,
    /// The corresponding unit eigenvector, sign-normalised so its
    /// first non-zero component is positive.
    pub fiedler_vector: Vec<f64>,
    /// Communication weight crossing the partition.
    pub cut_weight: f64,
}

/// Spectral bipartitioner: Laplacian → Fiedler pair → split.
///
/// The eigensolver can run serially or with its matrix-vector products
/// sharded over a [`Cluster`] — the paper's Spark configuration
/// (`with_cluster`).
#[derive(Debug, Clone)]
pub struct SpectralBisector {
    lanczos: LanczosOptions,
    split: SplitRule,
    cluster: Option<(Arc<Cluster>, usize)>,
    serial_cutoff: usize,
    sink: Option<Arc<dyn TraceSink>>,
}

impl Default for SpectralBisector {
    fn default() -> Self {
        SpectralBisector {
            lanczos: LanczosOptions::default(),
            split: SplitRule::default(),
            cluster: None,
            serial_cutoff: DEFAULT_SERIAL_CUTOFF,
            sink: None,
        }
    }
}

impl SpectralBisector {
    /// A serial bisector with default eigensolver options and the
    /// [`SplitRule::Sign`] rule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the eigensolver options.
    pub fn lanczos_options(mut self, opts: LanczosOptions) -> Self {
        self.lanczos = opts;
        self
    }

    /// Sets the split rule.
    pub fn split_rule(mut self, rule: SplitRule) -> Self {
        self.split = rule;
        self
    }

    /// Runs the Laplacian products on `cluster`, sharded into `blocks`
    /// row blocks — the "with Spark" configuration of the paper's
    /// Fig. 9.
    pub fn with_cluster(mut self, cluster: Arc<Cluster>, blocks: usize) -> Self {
        self.cluster = Some((cluster, blocks.max(1)));
        self
    }

    /// Reverts to the serial backend.
    pub fn serial(mut self) -> Self {
        self.cluster = None;
        self
    }

    /// Node count below which a cluster-configured bisector solves
    /// serially anyway (default 32). The cluster and serial backends
    /// produce bit-identical Laplacian products — row contents and
    /// accumulation order match — so the threshold changes wall-time
    /// only, never the cut. Set to `0` to always use the cluster.
    pub fn serial_cutoff(mut self, nodes: usize) -> Self {
        self.serial_cutoff = nodes;
        self
    }

    /// `true` when a cluster backend is configured.
    pub fn is_parallel(&self) -> bool {
        self.cluster.is_some()
    }

    /// Routes telemetry to `sink`: eigensolver iteration/restart
    /// counters and one `spectral.cut` event per bisection (Fiedler
    /// value, cut weight, node count).
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Bisects `g` along its Fiedler vector.
    ///
    /// A single-node graph yields the trivial cut (the node on
    /// [`Side::Remote`], zero weight, `λ₂ = 0`). A disconnected graph
    /// is split along its components without an eigensolve: the
    /// component of node 0 goes [`Side::Local`], everything else
    /// [`Side::Remote`], with zero cut weight, `λ₂ = 0`, and as
    /// `fiedler_vector` the unit null-space vector that is constant on
    /// each side and orthogonal to the all-ones vector.
    ///
    /// This is a thin shim over
    /// [`bisect_reusing`](SpectralBisector::bisect_reusing) with a
    /// throwaway arena; pipeline callers never take it — the
    /// offloader's execution context owns one [`CutScratch`] per
    /// serial batch (and one per cluster task) and threads it through
    /// the reusing entry point.
    ///
    /// # Errors
    ///
    /// - [`SpectralError::EmptyGraph`] when `g` has no nodes;
    /// - [`SpectralError::Eigensolver`] if the Fiedler pair cannot be
    ///   computed.
    pub fn bisect(&self, g: &Graph) -> Result<SpectralCut, SpectralError> {
        self.bisect_reusing(g, &mut CutScratch::new())
    }

    /// [`bisect`](SpectralBisector::bisect) with a caller-owned
    /// [`CutScratch`] arena: the CSR snapshot, Krylov basis, and sweep
    /// buffers are recycled across calls, so every cut after the first
    /// is allocation-free in the eigensolver's inner loop. Results are
    /// bit-identical to [`bisect`](SpectralBisector::bisect).
    ///
    /// # Errors
    ///
    /// Same as [`bisect`](SpectralBisector::bisect).
    pub fn bisect_reusing(
        &self,
        g: &Graph,
        scratch: &mut CutScratch,
    ) -> Result<SpectralCut, SpectralError> {
        let n = g.node_count();
        if n == 0 {
            return Err(SpectralError::EmptyGraph);
        }
        if n == 1 {
            let partition = Bipartition::uniform(1, Side::Remote);
            return Ok(SpectralCut {
                partition,
                fiedler_value: 0.0,
                fiedler_vector: vec![1.0],
                cut_weight: 0.0,
            });
        }
        let sink: &dyn TraceSink = match &self.sink {
            Some(s) => s.as_ref(),
            None => &mec_obs::NullSink,
        };
        scratch.csr.rebuild_from(g);
        // Disconnected graph: λ₂ = 0 with multiplicity, and one Krylov
        // sequence cannot tell how many zero eigenvalues there are, so
        // the eigensolver may return a non-zero λ₂ and a cut through a
        // component. The true minimum cut is 0: split along components
        // before solving anything.
        let first = mark_first_component(&scratch.csr, &mut scratch.order, &mut scratch.local);
        if first < n {
            let local = &scratch.local;
            let partition =
                Bipartition::from_fn(n, |i| if local[i] { Side::Local } else { Side::Remote });
            let (a, b) = (first as f64, (n - first) as f64);
            let (on, off) = ((b / (a * n as f64)).sqrt(), -(a / (b * n as f64)).sqrt());
            let fiedler_vector = local.iter().map(|&l| if l { on } else { off }).collect();
            emit_cut(sink, n, 0.0, 0.0);
            return Ok(SpectralCut {
                partition,
                fiedler_value: 0.0,
                fiedler_vector,
                cut_weight: 0.0,
            });
        }
        // Below the cutoff the serial CSR kernel beats the stage
        // round-trip; the two backends produce bit-identical products
        // (same row contents in the same order), so this is purely a
        // wall-time decision.
        let use_cluster = self.cluster.is_some() && n >= self.serial_cutoff;
        let mut pairs = if use_cluster {
            let (cluster, blocks) = self.cluster.as_ref().expect("checked above");
            let edges: Vec<(usize, usize, f64)> = g
                .edges()
                .map(|e| (e.source.index(), e.target.index(), e.weight))
                .collect();
            let l = ParallelLaplacian::from_edges(Arc::clone(cluster), n, &edges, *blocks)
                .expect("block count is at least 1");
            smallest_eigenpairs_with(&l, 2, &self.lanczos, None, sink, &mut scratch.lanczos)?
        } else {
            let l = CsrLaplacian::new(&scratch.csr);
            smallest_eigenpairs_with(&l, 2, &self.lanczos, None, sink, &mut scratch.lanczos)?
        };
        let Eigenpair {
            value: fiedler_value,
            vector: mut fiedler_vector,
        } = pairs.swap_remove(1);
        // canonical sign: first non-zero component positive
        if let Some(first) = fiedler_vector.iter().find(|v| v.abs() > 1e-12) {
            if *first < 0.0 {
                for v in &mut fiedler_vector {
                    *v = -*v;
                }
            }
        }
        let partition = match self.split {
            SplitRule::RatioSweep | SplitRule::Sweep => {
                let objective = if self.split == SplitRule::RatioSweep {
                    SweepObjective::RatioCut
                } else {
                    SweepObjective::CutWeight
                };
                let CutScratch {
                    csr, order, local, ..
                } = &mut *scratch;
                sweep_cut(csr, &fiedler_vector, objective, order, local)
            }
            rule => split_vector(&fiedler_vector, rule, &mut scratch.order),
        };
        let cut_weight = partition.cut_weight(g);
        emit_cut(sink, n, fiedler_value, cut_weight);
        Ok(SpectralCut {
            partition,
            fiedler_value,
            fiedler_vector,
            cut_weight,
        })
    }
}

/// Marks the connected component of node 0 breadth-first: on return
/// `mark[i]` is `true` exactly for its members, and the result is its
/// size. `queue` holds the frontier; both buffers are reused, so the
/// check is allocation-free once they are warm.
pub(crate) fn mark_first_component(
    csr: &CsrAdjacency,
    queue: &mut Vec<usize>,
    mark: &mut Vec<bool>,
) -> usize {
    let (offsets, columns, _) = csr.as_parts();
    mark.clear();
    mark.resize(csr.node_count(), false);
    queue.clear();
    if mark.is_empty() {
        return 0;
    }
    queue.push(0);
    mark[0] = true;
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for &c in &columns[offsets[u]..offsets[u + 1]] {
            let v = c as usize;
            if !mark[v] {
                mark[v] = true;
                queue.push(v);
            }
        }
    }
    queue.len()
}

/// Emits one `spectral.cut` event and bumps the `spectral.bisections`
/// counter.
fn emit_cut(sink: &dyn TraceSink, n: usize, fiedler_value: f64, cut_weight: f64) {
    sink.counter_add("spectral.bisections", 1);
    if sink.enabled() {
        sink.event(
            "spectral.cut",
            &[
                ("nodes", FieldValue::from(n)),
                ("fiedler_value", FieldValue::from(fiedler_value)),
                ("cut_weight", FieldValue::from(cut_weight)),
            ],
        );
    }
}

/// What a sweep minimises over the prefix splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepObjective {
    /// Raw crossing weight.
    CutWeight,
    /// `cut / (|A| · |B|)` — the ratio-cut score.
    RatioCut,
}

/// Sweep cut: nodes sorted by Fiedler component; every prefix split is
/// priced incrementally and the best-scoring proper one wins. Ties in
/// the ordering break by node id, ties in score by the more balanced
/// split.
///
/// Works off the CSR snapshot's SoA `columns`/`weights` slices instead
/// of chasing `g.neighbors` + `edge_weight` pointers per candidate
/// prefix; CSR rows list the same neighbours in the same order, and the
/// boundary kernel folds in row order under the scalar kernels, so the
/// incremental cut accumulation is bit-identical to the pointer-chasing
/// version. `order` and `local` are pooled scratch buffers.
fn sweep_cut(
    csr: &CsrAdjacency,
    v: &[f64],
    objective: SweepObjective,
    order: &mut Vec<usize>,
    local: &mut Vec<bool>,
) -> Bipartition {
    let n = v.len();
    debug_assert!(n >= 2);
    debug_assert_eq!(csr.node_count(), n);
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        v[a].partial_cmp(&v[b])
            .expect("components are finite")
            .then(a.cmp(&b))
    });
    local.clear();
    local.resize(n, false);
    let (offsets, columns, weights) = csr.as_parts();
    let mut cut = 0.0f64;
    let mut best = (f64::INFINITY, 0usize, usize::MAX); // (weight, |k - n/2| dist, k)
    for (k, &node) in order.iter().enumerate().take(n - 1) {
        // moving `node` from Remote to Local: edges into the prefix
        // leave the boundary, edges out of it start crossing
        let (lo, hi) = (offsets[node], offsets[node + 1]);
        cut = kernels::sweep_boundary_update(cut, &columns[lo..hi], &weights[lo..hi], local);
        local[node] = true;
        let prefix = k + 1;
        let balance_dist = prefix.abs_diff(n / 2);
        let score = match objective {
            SweepObjective::CutWeight => cut,
            SweepObjective::RatioCut => cut / (prefix as f64 * (n - prefix) as f64),
        };
        if score < best.0 - 1e-12 || (score <= best.0 + 1e-12 && balance_dist < best.1) {
            best = (score, balance_dist, prefix);
        }
    }
    let split_at = best.2;
    let mut sides = vec![Side::Remote; n];
    for &node in order.iter().take(split_at) {
        sides[node] = Side::Local;
    }
    Bipartition::from_sides(sides)
}

fn split_vector(v: &[f64], rule: SplitRule, order: &mut Vec<usize>) -> Bipartition {
    let by_sign = Bipartition::from_fn(v.len(), |i| {
        if v[i] >= 0.0 {
            Side::Remote
        } else {
            Side::Local
        }
    });
    match rule {
        SplitRule::Sweep | SplitRule::RatioSweep => {
            unreachable!("sweeps are handled by sweep_cut")
        }
        SplitRule::Sign if by_sign.is_proper() => by_sign,
        SplitRule::Sign | SplitRule::Median => {
            order.clear();
            order.extend(0..v.len());
            order.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("components are finite"));
            let half = v.len() / 2;
            let mut sides = vec![Side::Remote; v.len()];
            for &i in order.iter().take(half) {
                sides[i] = Side::Local;
            }
            Bipartition::from_sides(sides)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::GraphBuilder;
    use mec_netgen::NetgenSpec;

    /// Two heavy cliques of size `k` joined by a single light edge.
    fn dumbbell(k: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..2 * k).map(|_| b.add_node(1.0)).collect();
        for side in 0..2 {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge(n[side * k + i], n[side * k + j], 8.0).unwrap();
                }
            }
        }
        b.add_edge(n[k - 1], n[k], 0.25).unwrap();
        b.build()
    }

    #[test]
    fn finds_the_bridge_cut() {
        for k in [3usize, 6, 20] {
            let g = dumbbell(k);
            let cut = SpectralBisector::new().bisect(&g).unwrap();
            assert_eq!(cut.cut_weight, 0.25, "k={k}");
            assert!(cut.partition.is_proper());
            assert_eq!(cut.partition.count_on(Side::Local), k);
        }
    }

    #[test]
    fn fiedler_value_is_algebraic_connectivity() {
        // P_2 with weight w: lambda2 = 2w
        let mut b = GraphBuilder::new();
        let x = b.add_node(1.0);
        let y = b.add_node(1.0);
        b.add_edge(x, y, 3.0).unwrap();
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert!((cut.fiedler_value - 6.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_graph_cut_is_zero() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1.0)).collect();
        b.add_edge(n[0], n[1], 5.0).unwrap();
        b.add_edge(n[2], n[3], 5.0).unwrap();
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert!(cut.fiedler_value.abs() < 1e-9);
        assert_eq!(cut.cut_weight, 0.0);
        assert!(cut.partition.is_proper());
    }

    #[test]
    fn single_node_graph_is_trivial() {
        let mut b = GraphBuilder::new();
        b.add_node(5.0);
        let cut = SpectralBisector::new().bisect(&b.build()).unwrap();
        assert_eq!(cut.cut_weight, 0.0);
        assert_eq!(cut.partition.len(), 1);
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = GraphBuilder::new().build();
        assert_eq!(
            SpectralBisector::new().bisect(&g).unwrap_err(),
            SpectralError::EmptyGraph
        );
    }

    #[test]
    fn median_split_always_balances() {
        let g = dumbbell(4);
        let cut = SpectralBisector::new()
            .split_rule(SplitRule::Median)
            .bisect(&g)
            .unwrap();
        assert_eq!(cut.partition.count_on(Side::Local), 4);
        assert_eq!(cut.partition.count_on(Side::Remote), 4);
    }

    #[test]
    fn parallel_backend_matches_serial() {
        let g = NetgenSpec::new(120, 400)
            .components(1)
            .seed(3)
            .generate()
            .unwrap();
        let serial = SpectralBisector::new().bisect(&g).unwrap();
        let cluster = Arc::new(Cluster::new(4).unwrap());
        let parallel = SpectralBisector::new()
            .with_cluster(cluster, 6)
            .bisect(&g)
            .unwrap();
        assert!((serial.fiedler_value - parallel.fiedler_value).abs() < 1e-7);
        assert_eq!(serial.partition, parallel.partition);
        assert!(parallel.cut_weight <= serial.cut_weight + 1e-9);
    }

    #[test]
    fn is_parallel_reflects_backend() {
        let b = SpectralBisector::new();
        assert!(!b.is_parallel());
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let b2 = b.with_cluster(cluster, 4);
        assert!(b2.is_parallel());
        assert!(!b2.serial().is_parallel());
    }

    #[test]
    fn sweep_never_loses_to_sign_or_median() {
        for seed in [1u64, 4, 9, 16] {
            let g = NetgenSpec::new(80, 250)
                .components(1)
                .seed(seed)
                .generate()
                .unwrap();
            let sweep = SpectralBisector::new()
                .split_rule(SplitRule::Sweep)
                .bisect(&g)
                .unwrap();
            for rule in [SplitRule::Sign, SplitRule::Median] {
                let other = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
                assert!(
                    sweep.cut_weight <= other.cut_weight + 1e-9,
                    "seed {seed}: sweep {} vs {:?} {}",
                    sweep.cut_weight,
                    rule,
                    other.cut_weight
                );
            }
        }
    }

    #[test]
    fn sweep_is_proper_and_matches_reported_weight() {
        let g = NetgenSpec::new(60, 150)
            .components(1)
            .seed(2)
            .generate()
            .unwrap();
        let cut = SpectralBisector::new().bisect(&g).unwrap();
        assert!(cut.partition.is_proper());
        assert!((cut.partition.cut_weight(&g) - cut.cut_weight).abs() < 1e-9);
    }

    #[test]
    fn spectral_cut_beats_random_cuts_on_structured_graphs() {
        let g = NetgenSpec::new(150, 500)
            .components(1)
            .seed(11)
            .generate()
            .unwrap();
        let spectral = SpectralBisector::new().bisect(&g).unwrap();
        // compare against 20 random balanced cuts
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut best_random = f64::INFINITY;
        for _ in 0..20 {
            let p = Bipartition::from_fn(g.node_count(), |_| {
                if rng.gen_bool(0.5) {
                    Side::Local
                } else {
                    Side::Remote
                }
            });
            if p.is_proper() {
                best_random = best_random.min(p.cut_weight(&g));
            }
        }
        assert!(
            spectral.cut_weight < best_random,
            "spectral {} vs best random {}",
            spectral.cut_weight,
            best_random
        );
    }

    #[test]
    fn bisect_reusing_is_bit_identical_to_bisect() {
        let mut scratch = CutScratch::new();
        // one arena across many graphs of varying size/rule — results
        // must match the allocating path exactly, not approximately
        for (seed, rule) in [
            (1u64, SplitRule::Sweep),
            (2, SplitRule::Sign),
            (3, SplitRule::Median),
            (4, SplitRule::RatioSweep),
            (5, SplitRule::Sweep),
        ] {
            let g = NetgenSpec::new(70 + seed as usize * 13, 220)
                .components(1)
                .seed(seed)
                .generate()
                .unwrap();
            let b = SpectralBisector::new().split_rule(rule);
            let fresh = b.bisect(&g).unwrap();
            let reused = b.bisect_reusing(&g, &mut scratch).unwrap();
            assert_eq!(fresh.partition, reused.partition, "seed {seed}");
            assert_eq!(
                fresh.fiedler_value.to_bits(),
                reused.fiedler_value.to_bits(),
                "seed {seed}"
            );
            assert_eq!(
                fresh.cut_weight.to_bits(),
                reused.cut_weight.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn small_graphs_take_the_serial_path_on_a_cluster() {
        // 30 nodes < default cutoff (32): the cluster-configured
        // bisector must produce the serial result bit-for-bit, because
        // it *is* the serial path below the cutoff
        let g = NetgenSpec::new(30, 80)
            .components(1)
            .seed(6)
            .generate()
            .unwrap();
        let serial = SpectralBisector::new().bisect(&g).unwrap();
        let cluster = Arc::new(Cluster::new(4).unwrap());
        let small = SpectralBisector::new()
            .with_cluster(Arc::clone(&cluster), 4)
            .bisect(&g)
            .unwrap();
        assert_eq!(serial.partition, small.partition);
        assert_eq!(
            serial.fiedler_value.to_bits(),
            small.fiedler_value.to_bits()
        );
        // forcing the cutoff to 0 routes even this graph through the
        // parallel operator, which is numerically identical by design
        let forced = SpectralBisector::new()
            .with_cluster(cluster, 4)
            .serial_cutoff(0)
            .bisect(&g)
            .unwrap();
        assert_eq!(serial.partition, forced.partition);
    }
}
