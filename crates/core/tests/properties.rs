//! Pipeline-level property tests: for arbitrary generated scenarios
//! the offloader must produce valid, priced, deterministic plans that
//! never lose to the trivial baselines it can reach.

use copmecs_core::{OffloadSession, Offloader, StrategyKind};
use mec_graph::Side;
use mec_model::{
    evaluate_plan_for, AllocationPolicy, Evaluation, Scenario, SystemParams, UserCost, UserWorkload,
};
use mec_netgen::NetgenSpec;
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct ScenarioSpec {
    users: usize,
    nodes: usize,
    pin_frac: f64,
    bandwidth: f64,
    server: f64,
    policy: AllocationPolicy,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = ScenarioSpec> {
    (
        1usize..6,
        40usize..150,
        0.0f64..0.4,
        5.0f64..120.0,
        50.0f64..5000.0,
        prop_oneof![
            Just(AllocationPolicy::EqualShare),
            Just(AllocationPolicy::ProportionalToLoad),
            Just(AllocationPolicy::Fifo),
        ],
        0u64..500,
    )
        .prop_map(
            |(users, nodes, pin_frac, bandwidth, server, policy, seed)| ScenarioSpec {
                users,
                nodes,
                pin_frac,
                bandwidth,
                server,
                policy,
                seed,
            },
        )
}

fn build(spec: &ScenarioSpec) -> Scenario {
    let params = SystemParams {
        bandwidth: spec.bandwidth,
        server_capacity: spec.server,
        allocation: spec.policy,
        ..SystemParams::default()
    };
    let pool: Vec<Arc<mec_graph::Graph>> = (0..spec.users.min(3))
        .map(|i| {
            Arc::new(
                NetgenSpec::new(spec.nodes, spec.nodes * 2)
                    .unoffloadable_fraction(spec.pin_frac)
                    .seed(spec.seed + i as u64)
                    .generate()
                    .expect("feasible spec"),
            )
        })
        .collect();
    Scenario::new(params).with_users(
        (0..spec.users)
            .map(|i| UserWorkload::new(format!("u{i}"), Arc::clone(&pool[i % pool.len()]))),
    )
}

/// Every field of both evaluations, as bits.
fn evaluation_bits(e: &Evaluation) -> Vec<u64> {
    let row = |c: &UserCost| {
        [
            c.local_work,
            c.remote_work,
            c.tx_volume,
            c.local_time,
            c.remote_time,
            c.wait_time,
            c.tx_time,
            c.local_energy,
            c.tx_energy,
        ]
    };
    let t = &e.totals;
    e.per_user
        .iter()
        .flat_map(row)
        .chain([
            t.energy,
            t.time,
            t.local_energy,
            t.tx_energy,
            t.local_time,
            t.remote_time,
            t.tx_time,
        ])
        .map(f64::to_bits)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A session prices only the users a replan touched and re-runs the
    /// server-share pass over its cached rows; across a leave, a rejoin
    /// and a fresh join the report must equal `evaluate_plan_for` on
    /// the whole plan, field by field and bit for bit.
    #[test]
    fn session_cached_rows_price_like_evaluate_plan_for(spec in arb_scenario()) {
        let scenario = build(&spec);
        let params = *scenario.params();
        let mut session = OffloadSession::new(params);
        let mut crowd: Vec<(String, Arc<mec_graph::Graph>)> = scenario
            .users()
            .iter()
            .map(|u| (u.name().to_string(), u.graph_arc()))
            .collect();
        session.join_many(crowd.clone()).unwrap();
        let check = |session: &mut OffloadSession, crowd: &[(String, Arc<mec_graph::Graph>)]| {
            let report = session.replan().unwrap();
            let oracle =
                evaluate_plan_for(&params, crowd.iter().map(|(_, g)| g.as_ref()), &report.plan)
                    .unwrap();
            assert_eq!(evaluation_bits(&report.evaluation), evaluation_bits(&oracle));
        };
        check(&mut session, &crowd);
        let (gone, g) = crowd.remove(0);
        assert!(session.leave(&gone));
        check(&mut session, &crowd);
        if let Some((name, _)) = crowd.last().cloned() {
            session.join(name, Arc::clone(&g)).unwrap();
            crowd.last_mut().unwrap().1 = Arc::clone(&g);
            check(&mut session, &crowd);
        }
        session.join(gone.clone(), Arc::clone(&g)).unwrap();
        crowd.push((gone, g));
        check(&mut session, &crowd);
    }

    #[test]
    fn plans_are_always_valid_and_priced(spec in arb_scenario()) {
        let s = build(&spec);
        let report = Offloader::new().solve(&s).unwrap();
        prop_assert_eq!(s.validate_plan(&report.plan), Ok(()));
        let t = &report.evaluation.totals;
        prop_assert!(t.energy >= 0.0 && t.time >= 0.0);
        prop_assert!((t.energy - (t.local_energy + t.tx_energy)).abs() < 1e-6);
        prop_assert!(
            (report.greedy.final_objective - t.objective()).abs() < 1e-6 * (1.0 + t.objective())
        );
    }

    #[test]
    fn never_worse_than_all_local(spec in arb_scenario()) {
        let s = build(&spec);
        let report = Offloader::new().solve(&s).unwrap();
        let base = s.evaluate_all_local().unwrap();
        prop_assert!(
            report.evaluation.totals.objective()
                <= base.totals.objective() * (1.0 + 1e-9) + 1e-9,
            "{} > all-local {}",
            report.evaluation.totals.objective(),
            base.totals.objective()
        );
    }

    #[test]
    fn deterministic(spec in arb_scenario()) {
        let s = build(&spec);
        let a = Offloader::new().solve(&s).unwrap();
        let b = Offloader::new().solve(&s).unwrap();
        prop_assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn pinned_nodes_stay_local_for_every_strategy(spec in arb_scenario()) {
        let s = build(&spec);
        for kind in [StrategyKind::Spectral, StrategyKind::MaxFlow, StrategyKind::KernighanLin] {
            let report = Offloader::builder().strategy(kind).build().solve(&s).unwrap();
            for (user, plan) in s.users().iter().zip(&report.plan) {
                for n in user.graph().node_ids() {
                    if !user.graph().is_offloadable(n) {
                        prop_assert_eq!(plan.side(n), Side::Local);
                    }
                }
            }
        }
    }

    #[test]
    fn offloaded_work_never_exceeds_offloadable(spec in arb_scenario()) {
        let s = build(&spec);
        let report = Offloader::new().solve(&s).unwrap();
        for (user, plan) in s.users().iter().zip(&report.plan) {
            let g = user.graph();
            let offloadable: f64 = g
                .node_ids()
                .filter(|&n| g.is_offloadable(n))
                .map(|n| g.node_weight(n))
                .sum();
            prop_assert!(plan.node_weight_on(g, Side::Remote) <= offloadable + 1e-9);
        }
    }
}
