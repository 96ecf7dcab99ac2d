//! The streaming-churn benchmark (`BENCH_churn.json`).
//!
//! Drives an [`OffloadService`] with a seeded arrival / departure /
//! resubmit mix at a sustained crowd of 10⁵+ users and records the
//! per-event replan latency distribution. Two measurements ride in one
//! report:
//!
//! - **delta**: the service as shipped — warm-started delta replans,
//!   every event timed, p50/p99 over the whole run;
//! - **full**: a mirror service with a zero drift limit
//!   ([`OffloadService::with_drift_limit`]`(0.0)`), so every replan
//!   after churn rebuilds its shard from scratch, timed
//!   on a sampled subset of the same event stream (each sample is
//!   brought current untimed first, so the timed replan covers exactly
//!   one event's worth of churn).
//!
//! `speedup = full mean / delta mean` is the headline the perf gate
//! holds ≥ 5×.

use crate::workload::paper_graph;
use copmecs_core::OffloadService;
use mec_graph::Graph;
use mec_model::SystemParams;
use mec_obs::TraceSink;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Workload shape of the churn run. Serialized into the report so the
/// gate can re-run the exact committed spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChurnSpec {
    /// Crowd bulk-loaded before the timed run; the event mix holds the
    /// tracked count near this level.
    pub users: usize,
    /// Session shards the service hashes users across.
    pub shards: usize,
    /// Functions per user graph.
    pub nodes: usize,
    /// Distinct graphs in the workload pool (users share `Arc`s).
    pub graph_pool: usize,
    /// Timed churn events (each followed by one service replan).
    pub events: usize,
    /// Events additionally timed under a from-scratch mirror service for
    /// the speedup denominator.
    pub full_samples: usize,
    /// RNG seed for the event stream and the graph pool.
    pub seed: u64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        // 102 400 users leaves headroom so the random mix never dips
        // the tracked count below the 10⁵ sustained floor
        ChurnSpec {
            users: 102_400,
            shards: 8,
            nodes: 24,
            graph_pool: 64,
            events: 240,
            full_samples: 12,
            seed: 70,
        }
    }
}

impl ChurnSpec {
    /// A CI-sized run: same code paths, seconds not minutes.
    pub fn quick() -> Self {
        ChurnSpec {
            users: 1_500,
            shards: 4,
            nodes: 24,
            graph_pool: 16,
            events: 48,
            full_samples: 6,
            seed: 70,
        }
    }
}

/// What one churn run measured — written as `BENCH_churn.json`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnReport {
    /// The workload that produced these numbers.
    pub spec: ChurnSpec,
    /// Minimum tracked-user count observed across the timed run (the
    /// "sustained" crowd the latencies were measured at).
    pub sustained_users: usize,
    /// Maximum tracked-user count observed.
    pub peak_users: usize,
    /// Median per-event delta replan latency.
    pub replan_p50_nanos: u64,
    /// 99th-percentile per-event delta replan latency.
    pub replan_p99_nanos: u64,
    /// Mean per-event delta replan latency.
    pub replan_mean_nanos: u64,
    /// Mean sampled from-scratch replan latency.
    pub full_mean_nanos: u64,
    /// From-scratch samples actually taken.
    pub full_samples: usize,
    /// `full_mean_nanos / replan_mean_nanos` — the gated headline.
    pub speedup: f64,
    /// Final objective of the delta service (sanity: finite, > 0).
    pub final_objective: f64,
}

/// splitmix64, the same generator the churn property tests use, so
/// event streams are reproducible from the spec alone.
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
        self.next() % n.max(1)
    }
}

/// One churn event, pre-drawn so both services replay the identical
/// stream.
enum Event {
    Join(String, Arc<Graph>),
    Leave(String),
    Resubmit(String, Arc<Graph>),
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn apply(service: &mut OffloadService, event: &Event) {
    match event {
        Event::Join(name, g) => service.join(name.clone(), Arc::clone(g)).unwrap(),
        Event::Leave(name) => {
            service.leave(name);
        }
        Event::Resubmit(name, g) => {
            service.resubmit(name.clone(), Arc::clone(g)).unwrap();
        }
    }
}

/// Runs the churn benchmark. When `sink` is given, both the service
/// events (`service.*`) and the shard sessions' telemetry
/// (`session.replan_nanos`, `greedy.evaluations`, …) flow through it —
/// this is what the CI smoke inspects over `/metrics`.
///
/// # Panics
///
/// Panics if the spec is degenerate (zero users/events) or a join
/// fails, which seeded generable workloads do not.
pub fn run(spec: &ChurnSpec, sink: Option<Arc<dyn TraceSink>>) -> ChurnReport {
    assert!(spec.users > 0 && spec.events > 0, "degenerate churn spec");
    let mut rng = Rng(spec.seed);
    let pool: Vec<Arc<Graph>> = (0..spec.graph_pool.max(1))
        .map(|i| Arc::new(paper_graph(spec.nodes, spec.seed + 1 + i as u64)))
        .collect();
    let pick = |rng: &mut Rng| Arc::clone(&pool[rng.below(pool.len() as u64) as usize]);

    let mut delta = OffloadService::new(SystemParams::default(), spec.shards);
    if let Some(sink) = sink {
        delta = delta.with_trace_sink(sink);
    }
    let mut full = OffloadService::new(SystemParams::default(), spec.shards).with_drift_limit(0.0);

    // bulk load (untimed): the steady-state crowd both services track
    let mut present: Vec<String> = (0..spec.users).map(|u| format!("u{u}")).collect();
    let batch: Vec<(String, Arc<Graph>)> = present
        .iter()
        .map(|name| (name.clone(), pick(&mut rng)))
        .collect();
    delta.join_many(batch.clone()).unwrap();
    full.join_many(batch).unwrap();
    delta.replan().unwrap();
    full.replan().unwrap();

    // pre-draw the event stream so the delta and full measurements see
    // byte-identical churn
    let mut next_user = spec.users as u64;
    let events: Vec<Event> = (0..spec.events)
        .map(|_| {
            let roll = rng.below(10);
            if roll < 3 || present.is_empty() {
                let name = format!("u{next_user}");
                next_user += 1;
                present.push(name.clone());
                Event::Join(name, pick(&mut rng))
            } else if roll < 6 {
                let i = rng.below(present.len() as u64) as usize;
                Event::Leave(present.swap_remove(i))
            } else {
                let i = rng.below(present.len() as u64) as usize;
                Event::Resubmit(present[i].clone(), pick(&mut rng))
            }
        })
        .collect();

    let sample_every = (spec.events / spec.full_samples.max(1)).max(1);
    let mut delta_nanos: Vec<u64> = Vec::with_capacity(events.len());
    let mut full_nanos: Vec<u64> = Vec::new();
    let mut sustained = delta.user_count();
    let mut peak = sustained;
    let mut final_objective = 0.0;

    for (i, event) in events.iter().enumerate() {
        // the sampled full measurement brings the mirror current
        // first (untimed), so its timed replan covers exactly this
        // event's churn — the same unit of work the delta side pays
        let sampled = i % sample_every == 0 && full_nanos.len() < spec.full_samples;
        if sampled {
            full.replan().unwrap();
        }
        apply(&mut delta, event);
        let t0 = Instant::now();
        let report = delta.replan().unwrap();
        delta_nanos.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        final_objective = report.objective;
        sustained = sustained.min(report.users);
        peak = peak.max(report.users);
        if sampled {
            apply(&mut full, event);
            let t0 = Instant::now();
            full.replan().unwrap();
            full_nanos.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        } else {
            apply(&mut full, event);
        }
    }

    // teardown (untimed, after every stat is captured): drain a slice
    // of the crowd through the batched-departure path so a traced run
    // also exercises `leave_many` and its histograms
    let trim: Vec<String> = present.iter().take(16).cloned().collect();
    delta.leave_many(trim.iter());

    delta_nanos.sort_unstable();
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0
        } else {
            (v.iter().map(|&n| u128::from(n)).sum::<u128>() / v.len() as u128) as u64
        }
    };
    let replan_mean_nanos = mean(&delta_nanos);
    let full_mean_nanos = mean(&full_nanos);
    ChurnReport {
        spec: *spec,
        sustained_users: sustained,
        peak_users: peak,
        replan_p50_nanos: percentile(&delta_nanos, 0.50),
        replan_p99_nanos: percentile(&delta_nanos, 0.99),
        replan_mean_nanos,
        full_mean_nanos,
        full_samples: full_nanos.len(),
        speedup: full_mean_nanos as f64 / replan_mean_nanos.max(1) as f64,
        final_objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChurnSpec {
        ChurnSpec {
            users: 60,
            shards: 2,
            nodes: 16,
            graph_pool: 4,
            events: 12,
            full_samples: 3,
            seed: 5,
        }
    }

    #[test]
    fn churn_run_produces_a_consistent_report() {
        let r = run(&tiny(), None);
        assert!(r.sustained_users > 0 && r.sustained_users <= r.peak_users);
        assert!(r.replan_p50_nanos > 0);
        assert!(r.replan_p99_nanos >= r.replan_p50_nanos);
        assert!(r.full_samples > 0);
        assert!(r.speedup > 0.0);
        assert!(r.final_objective.is_finite() && r.final_objective > 0.0);
    }

    #[test]
    fn event_stream_is_deterministic() {
        let a = run(&tiny(), None);
        let b = run(&tiny(), None);
        // latencies differ run to run; the crowd trajectory must not
        assert_eq!(a.sustained_users, b.sustained_users);
        assert_eq!(a.peak_users, b.peak_users);
        assert_eq!(a.final_objective.to_bits(), b.final_objective.to_bits());
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let v = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.5), 60);
        assert_eq!(percentile(&v, 0.99), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
