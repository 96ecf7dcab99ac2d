//! Property tests for the spectral stage: split-rule contracts,
//! Theorem 2 on arbitrary generated graphs, backend parity.

use mec_graph::{NodeId, Side};
use mec_netgen::NetgenSpec;
use mec_spectral::{theory, RecursiveBisector, SpectralBisector, SplitRule};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = mec_graph::Graph> {
    // node range keeps every sampled spec inside per-component pair
    // capacity (edges = 2·nodes needs components of ≥ 7 nodes)
    (30usize..80, 1usize..3, 0u64..400).prop_map(|(nodes, comps, seed)| {
        NetgenSpec::new(nodes, nodes * 2)
            .components(comps)
            .unoffloadable_fraction(0.0)
            .seed(seed)
            .generate()
            .expect("feasible spec")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_split_rule_returns_a_proper_full_cover(g in arb_graph()) {
        for rule in [SplitRule::Sign, SplitRule::RatioSweep, SplitRule::Sweep, SplitRule::Median] {
            let cut = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
            prop_assert_eq!(cut.partition.len(), g.node_count());
            prop_assert!(cut.partition.is_proper(), "{rule:?} improper");
            prop_assert!((cut.partition.cut_weight(&g) - cut.cut_weight).abs() < 1e-9);
        }
    }

    #[test]
    fn fiedler_value_is_nonnegative_and_vector_is_unit(g in arb_graph()) {
        let cut = SpectralBisector::new().bisect(&g).unwrap();
        prop_assert!(cut.fiedler_value >= -1e-9);
        let norm: f64 = cut.fiedler_vector.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-6);
        // sign canonicalisation: first non-zero component positive
        if let Some(first) = cut.fiedler_vector.iter().find(|v| v.abs() > 1e-12) {
            prop_assert!(*first > 0.0);
        }
    }

    #[test]
    fn theorem2_holds_for_the_returned_cut(g in arb_graph()) {
        let cut = SpectralBisector::new().bisect(&g).unwrap();
        let via_l = theory::cut_via_laplacian(&g, &cut.partition, 1.0, -1.0);
        prop_assert!((via_l - cut.cut_weight).abs() < 1e-7);
    }

    #[test]
    fn rayleigh_of_indicator_stays_in_the_bracket(g in arb_graph(), flips in proptest::collection::vec(any::<bool>(), 80)) {
        let (lo, hi) = theory::cut_bracket(&g);
        let cut = mec_graph::Bipartition::from_fn(g.node_count(), |i| {
            if flips[i % flips.len()] { Side::Local } else { Side::Remote }
        });
        if !cut.is_proper() { return Ok(()); }
        let q = theory::indicator_vector(&g, &cut, 1.0, -1.0);
        let r = theory::rayleigh_quotient(&g, &q);
        prop_assert!(r >= lo - 1e-7 && r <= hi + 1e-7, "R = {r} outside [{lo}, {hi}]");
    }

    #[test]
    fn min_weight_sweep_never_beaten_by_other_rules(g in arb_graph()) {
        let sweep = SpectralBisector::new().split_rule(SplitRule::Sweep).bisect(&g).unwrap();
        for rule in [SplitRule::Sign, SplitRule::RatioSweep, SplitRule::Median] {
            let other = SpectralBisector::new().split_rule(rule).bisect(&g).unwrap();
            prop_assert!(
                sweep.cut_weight <= other.cut_weight + 1e-9,
                "{rule:?} cut {} beat sweep {}",
                other.cut_weight,
                sweep.cut_weight
            );
        }
    }

    #[test]
    fn deterministic_per_graph(g in arb_graph()) {
        let a = SpectralBisector::new().bisect(&g).unwrap();
        let b = SpectralBisector::new().bisect(&g).unwrap();
        prop_assert_eq!(a.partition, b.partition);
        prop_assert_eq!(a.fiedler_value.to_bits(), b.fiedler_value.to_bits());
    }

    #[test]
    fn disconnected_inputs_get_zero_cuts(g in arb_graph()) {
        // add an isolated node to force disconnection
        let mut b = mec_graph::GraphBuilder::new();
        let ids: Vec<NodeId> = g.node_ids().map(|n| b.add_node(g.node_weight(n))).collect();
        for e in g.edges() {
            b.add_edge(ids[e.source.index()], ids[e.target.index()], e.weight).unwrap();
        }
        b.add_node(1.0);
        let g2 = b.build();
        let cut = SpectralBisector::new().bisect(&g2).unwrap();
        prop_assert!(cut.fiedler_value.abs() < 1e-6);
        prop_assert_eq!(cut.cut_weight, 0.0);
    }
}

/// One Krylov sequence cannot see the multiplicity of `λ = 0`, so an
/// eigensolver alone may report a non-zero `λ₂` on a disconnected
/// graph and cut through a component. The bisector checks connectivity
/// before solving: a connected graph plus one isolated node always
/// splits along the components, at zero weight — flat and recursive.
#[test]
fn connected_graph_plus_isolated_node_splits_at_zero_weight() {
    for seed in 0u64..20 {
        let g = NetgenSpec::new(120, 240)
            .components(1)
            .unoffloadable_fraction(0.0)
            .seed(seed)
            .generate()
            .expect("feasible spec");
        let mut b = mec_graph::GraphBuilder::new();
        let ids: Vec<NodeId> = g.node_ids().map(|n| b.add_node(g.node_weight(n))).collect();
        for e in g.edges() {
            b.add_edge(ids[e.source.index()], ids[e.target.index()], e.weight)
                .unwrap();
        }
        let isolated = b.add_node(1.0);
        let g2 = b.build();
        let cut = SpectralBisector::new().bisect(&g2).unwrap();
        assert_eq!(cut.cut_weight, 0.0, "seed {seed}");
        assert_eq!(cut.fiedler_value, 0.0, "seed {seed}");
        assert_eq!(cut.partition.count_on(Side::Remote), 1, "seed {seed}");
        assert_eq!(cut.partition.side(isolated), Side::Remote, "seed {seed}");
        // the recursive partitioner peels components the same way
        let parts = RecursiveBisector::new()
            .max_depth(1)
            .partition(&g2)
            .unwrap();
        assert_eq!(parts.cut_weight(&g2), 0.0, "seed {seed}");
        assert_eq!(
            parts.part_size(parts.part_of[isolated.index()]),
            1,
            "seed {seed}"
        );
    }
}
