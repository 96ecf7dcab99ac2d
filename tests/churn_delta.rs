//! Property coverage for delta replanning: over random churn
//! sequences (joins, leaves, resubmits, several seeds) the
//! warm-started delta replan must never price worse than solving the
//! same crowd from scratch with [`Offloader::solve`], its report —
//! priced from cached per-user rows — must equal `evaluate_plan_for`
//! on the whole plan bit for bit, and a session with a zero drift
//! limit — which rebuilds after any churn — must match that one-shot
//! solve exactly. (That certified warm replans equal the rescan-only
//! warm path is tested inside `copmecs-core`, which owns the seam.)
//!
//! The CI matrix runs this file on both the default leg and the
//! `MEC_FORCE_SERIAL=1` leg; the cluster-backed case below covers the
//! pooled backend within a single run.

use copmecs::prelude::*;
use std::sync::Arc;

/// splitmix64: deterministic event streams without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn app_graph(seed: u64) -> Arc<Graph> {
    Arc::new(NetgenSpec::new(40, 110).seed(seed).generate().unwrap())
}

/// The crowd in session order: joins append, resubmits replace in
/// place, leaves remove order-preservingly — the order an
/// [`OffloadSession`] keeps its users in.
type Crowd = Vec<(String, Arc<Graph>)>;

/// Applies one random churn event identically to `crowd` and every
/// session, and returns a label for failure messages.
fn churn_step(
    rng: &mut Rng,
    next_user: &mut u64,
    crowd: &mut Crowd,
    sessions: &mut [&mut OffloadSession],
) -> String {
    let roll = rng.below(10);
    if crowd.is_empty() || roll < 4 {
        // arrival
        let name = format!("u{}", *next_user);
        let g = app_graph(1000 + *next_user);
        *next_user += 1;
        for s in sessions.iter_mut() {
            s.join(name.clone(), Arc::clone(&g)).unwrap();
        }
        crowd.push((name.clone(), g));
        format!("join {name}")
    } else if roll < 7 {
        // departure
        let (victim, _) = crowd.remove(rng.below(crowd.len() as u64) as usize);
        for s in sessions.iter_mut() {
            assert!(s.leave(&victim));
        }
        format!("leave {victim}")
    } else {
        // resubmit: same name, new workload
        let slot = rng.below(crowd.len() as u64) as usize;
        let g = app_graph(5000 + rng.below(64));
        let who = crowd[slot].0.clone();
        for s in sessions.iter_mut() {
            s.join(who.clone(), Arc::clone(&g)).unwrap();
        }
        crowd[slot].1 = g;
        format!("resubmit {who}")
    }
}

/// The independent reference: the crowd solved from scratch by the
/// one-shot pipeline.
fn one_shot(crowd: &Crowd) -> OffloadReport {
    one_shot_with(crowd, SystemParams::default())
}

fn one_shot_with(crowd: &Crowd, params: SystemParams) -> OffloadReport {
    let scenario = crowd.iter().fold(Scenario::new(params), |s, (name, g)| {
        s.with_user(UserWorkload::new(name.clone(), Arc::clone(g)))
    });
    Offloader::new().solve(&scenario).unwrap()
}

/// Every field of an evaluation, as bits.
fn evaluation_bits(e: &copmecs::model::Evaluation) -> Vec<u64> {
    let t = &e.totals;
    e.per_user
        .iter()
        .flat_map(|c| {
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
        })
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

/// The report must be what `evaluate_plan_for` makes of its plan.
fn assert_priced_like_the_model(report: &OffloadReport, crowd: &Crowd, context: &str) {
    let oracle = copmecs::model::evaluate_plan_for(
        &SystemParams::default(),
        crowd.iter().map(|(_, g)| g.as_ref()),
        &report.plan,
    )
    .unwrap();
    assert_eq!(
        evaluation_bits(&report.evaluation),
        evaluation_bits(&oracle),
        "{context}: cached-row pricing diverged from evaluate_plan_for"
    );
}

fn assert_bit_identical(got: &OffloadReport, reference: &OffloadReport, context: &str) {
    assert_eq!(got.plan, reference.plan, "{context}: plan diverged");
    assert_eq!(
        got.evaluation.totals.objective().to_bits(),
        reference.evaluation.totals.objective().to_bits(),
        "{context}: objective must be bit-identical"
    );
}

#[test]
fn delta_replan_is_objective_no_worse_than_a_one_shot_solve() {
    for seed in [3u64, 17, 42] {
        let mut rng = Rng(seed);
        let mut delta = OffloadSession::new(SystemParams::default());
        let mut crowd = Crowd::new();
        let mut next_user = 0u64;
        let mut history = Vec::new();
        for step in 0..24 {
            history.push(churn_step(
                &mut rng,
                &mut next_user,
                &mut crowd,
                &mut [&mut delta],
            ));
            // replan every couple of events so warm starts see both
            // single-event and multi-event dirty sets
            if step % 2 == 1 {
                let d = delta.replan().unwrap().evaluation.totals.objective();
                let f = one_shot(&crowd).evaluation.totals.objective();
                let tol = 1e-9 * f.abs().max(1.0);
                assert!(
                    d <= f + tol,
                    "seed {seed}: delta objective {d} worse than one-shot {f} after {history:?}"
                );
            }
        }
    }
}

#[test]
fn zero_drift_limit_is_bit_identical_to_a_one_shot_solve() {
    for seed in [7u64, 29] {
        let mut rng = Rng(seed);
        // drift limit 0: any churn trips the rebuild, so every replan
        // is the from-scratch path and must match the one-shot solve
        // *exactly*
        let mut strict = OffloadSession::new(SystemParams::default()).with_drift_limit(0.0);
        let mut crowd = Crowd::new();
        let mut next_user = 0u64;
        for step in 0..16 {
            let event = churn_step(&mut rng, &mut next_user, &mut crowd, &mut [&mut strict]);
            if step % 3 == 2 {
                let context = format!("seed {seed}, step {step} ({event})");
                assert_bit_identical(&strict.replan().unwrap(), &one_shot(&crowd), &context);
            }
        }
    }
}

#[test]
fn one_shot_parity_holds_on_the_cluster_backend() {
    let cluster = Arc::new(copmecs::engine::Cluster::new(2).unwrap());
    let mut delta = OffloadSession::new(SystemParams::default()).with_cluster(Arc::clone(&cluster));
    let mut strict = OffloadSession::new(SystemParams::default())
        .with_cluster(cluster)
        .with_drift_limit(0.0);
    let mut rng = Rng(11);
    let mut crowd = Crowd::new();
    let mut next_user = 0u64;
    for step in 0..12 {
        churn_step(
            &mut rng,
            &mut next_user,
            &mut crowd,
            &mut [&mut delta, &mut strict],
        );
        if step % 2 == 1 {
            let reference = one_shot(&crowd);
            let f = reference.evaluation.totals.objective();
            let d = delta.replan().unwrap().evaluation.totals.objective();
            assert!(d <= f + 1e-9 * f.abs().max(1.0));
            assert_bit_identical(
                &strict.replan().unwrap(),
                &reference,
                &format!("step {step}"),
            );
        }
    }
}

#[test]
fn delta_reports_price_like_evaluate_plan_for_on_both_backends() {
    let cluster = Arc::new(copmecs::engine::Cluster::new(2).unwrap());
    for seed in [5u64, 31] {
        let mut serial = OffloadSession::new(SystemParams::default());
        let mut pooled =
            OffloadSession::new(SystemParams::default()).with_cluster(Arc::clone(&cluster));
        let mut rng = Rng(seed);
        let mut crowd = Crowd::new();
        let mut next_user = 1000 * seed;
        for step in 0..20 {
            let event = churn_step(
                &mut rng,
                &mut next_user,
                &mut crowd,
                &mut [&mut serial, &mut pooled],
            );
            // single- and multi-event dirty sets
            if step % 3 != 1 {
                let context = format!("seed {seed}, step {step} ({event})");
                let a = serial.replan().unwrap();
                let b = pooled.replan().unwrap();
                assert_priced_like_the_model(&a, &crowd, &context);
                assert_eq!(a.plan, b.plan, "{context}: backends diverged");
                assert_eq!(
                    evaluation_bits(&a.evaluation),
                    evaluation_bits(&b.evaluation)
                );
            }
        }
    }
}

/// `Fifo` prices a candidate from the whole queue, so it is a
/// reference-only policy: its warm replans always take the exact
/// rescan (no certificate) and still never lose to a one-shot solve.
#[test]
fn fifo_warm_replans_rescan_and_never_lose_to_a_one_shot_solve() {
    let params = SystemParams {
        allocation: AllocationPolicy::Fifo,
        ..SystemParams::default()
    };
    let sink = Arc::new(Recorder::new());
    let mut fifo = OffloadSession::new(params).with_trace_sink(Arc::clone(&sink) as _);
    let mut crowd: Crowd = (0..10u64)
        .map(|i| (format!("u{i}"), app_graph(700 + i)))
        .collect();
    fifo.join_many(crowd.clone()).unwrap();
    fifo.replan().unwrap();
    let mut rng = Rng(19);
    let mut next_user = 100u64;
    for step in 0..12 {
        churn_step(&mut rng, &mut next_user, &mut crowd, &mut [&mut fifo]);
        let d = fifo.replan().unwrap().evaluation.totals.objective();
        let f = one_shot_with(&crowd, params).evaluation.totals.objective();
        assert!(
            d <= f + 1e-9 * f.abs().max(1.0),
            "step {step}: Fifo delta objective {d} worse than one-shot {f}"
        );
    }
    assert!(sink.counter_value("session.replans_delta") > 0);
    assert_eq!(sink.counter_value("greedy.certified"), 0);
    assert_eq!(sink.counter_value("greedy.certificate_fallbacks"), 0);
}
