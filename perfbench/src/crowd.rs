//! `crowd-admit`: a cell filling up. Each repetition builds a fresh
//! `OffloadService::new(SystemParams::default(), 8)`, admits a crowd of
//! 10⁴ distinct 24-node apps with one `join_many`, and calls `replan`
//! once. No graph is admitted twice within a run: every repetition
//! draws a new crowd, so no work is shared between users.

use crate::alloc::counted;
use crate::gen::{app_graph, derive, user_name};
use crate::layers::replay;
use crate::oracle::{check, check_plan, Tally};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{ms, pct, repeat_setup, Config, Outcome};
use copmecs_core::{OffloadService, PipelineError, ServiceReport};
use mec_graph::Graph;
use mec_model::SystemParams;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CROWD: usize = 10_000;
pub const NODES: usize = 24;
pub const SHARDS: usize = 8;
const SETUP_REPS: usize = 3;
const MIN_REPS: usize = 3;
/// Graphs whose front-end is replayed layer by layer in the traced run.
const REPLAY_GRAPHS: usize = 400;

/// One repetition's crowd: `(name, graph)` in admission order.
fn crowd(seed: u64, rep: u64) -> Vec<(String, Arc<Graph>)> {
    let base = derive(seed, 2) ^ (rep << 32);
    (0..CROWD as u64)
        .map(|i| (user_name(i), app_graph(NODES, base.wrapping_add(i))))
        .collect()
}

/// One admission: service built, crowd joined, first plan computed.
struct Admission {
    service: OffloadService,
    join: Duration,
    replan: Duration,
    report: Result<ServiceReport, PipelineError>,
}

impl Admission {
    fn total(&self) -> Duration {
        self.join + self.replan
    }
}

fn admit(batch: Vec<(String, Arc<Graph>)>, service: OffloadService) -> Admission {
    let mut service = service;
    let t = Instant::now();
    let joined = service.join_many(batch);
    let join = t.elapsed();
    let t = Instant::now();
    let report = joined.and_then(|()| service.replan());
    Admission {
        service,
        join,
        replan: t.elapsed(),
        report,
    }
}

fn default_service() -> OffloadService {
    OffloadService::new(SystemParams::default(), SHARDS)
}

/// Checks an admission against the crowd it admitted and returns the
/// time `evaluate_plan_for` took over all shards.
fn check_admission(a: &Admission, crowd: &[(String, Arc<Graph>)], tally: &mut Tally) -> Duration {
    let mut problems = Vec::new();
    let mut evaluate = Duration::ZERO;
    match &a.report {
        Ok(report) => {
            check(&mut problems, report.users == crowd.len(), || {
                format!(
                    "service reports {} users, admitted {}",
                    report.users,
                    crowd.len()
                )
            });
            // the benchmark's own roster: each shard holds its users in
            // admission order, with a 1/K share of the server
            let mut roster: Vec<Vec<&Graph>> = vec![Vec::new(); SHARDS];
            for (name, g) in crowd {
                roster[a.service.shard_of(name)].push(g);
            }
            let mut params = SystemParams::default();
            params.server_capacity /= SHARDS as f64;
            for (i, graphs) in roster.iter().enumerate() {
                match a.service.shard_report(i) {
                    Some(r) => {
                        let t = check_plan(
                            &params,
                            graphs.iter().copied(),
                            &r.plan,
                            Some(&r.evaluation),
                            &mut problems,
                        );
                        evaluate += t.unwrap_or_default();
                    }
                    None => problems.push(format!("shard {i} has no report")),
                }
            }
        }
        Err(e) => problems.push(format!("admission failed: {e}")),
    }
    tally.op(problems);
    evaluate
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut objective = None;
    let (_, setup) = repeat_setup(SETUP_REPS, || {
        let batch = crowd(cfg.seed, 0);
        let a = admit(batch.clone(), default_service());
        check_admission(&a, &batch, &mut out.tally);
        if let Ok(r) = &a.report {
            let bits = *objective.get_or_insert(r.objective.to_bits());
            if bits != r.objective.to_bits() {
                out.tally
                    .op(vec!["objective differs between identical admissions".into()]);
            }
        }
    });
    out.note(format!(
        "crowd: {CROWD} distinct {NODES}-node apps per repetition, {SHARDS} shards"
    ));
    if let Some(bits) = objective {
        out.set("objective", f64::from_bits(bits));
    }
    if cfg.trace {
        traced(cfg, &mut out);
    } else {
        out.set("setup_s", median(&setup));
        untraced(cfg, &mut out);
    }
    out
}

fn untraced(cfg: &Config, out: &mut Outcome) {
    let start = Instant::now();
    let (mut total_ms, mut replan_ms) = (Vec::new(), Vec::new());
    let mut rep = 0;
    while total_ms.len() < MIN_REPS || start.elapsed() < cfg.seconds {
        rep += 1;
        let batch = crowd(cfg.seed, rep);
        let a = admit(batch.clone(), default_service());
        total_ms.push(ms(a.total()));
        replan_ms.push(ms(a.replan));
        check_admission(&a, &batch, &mut out.tally);
    }
    let s = summarize(&total_ms);
    let (tail_q, tail) = s.tail.unwrap_or((0.5, s.p50));
    out.note(format!(
        "admissions: {} (closed loop); p50 {:.1} ms (replan p50 {:.1} ms); tail p{} {:.1} ms",
        s.samples,
        s.p50,
        median(&replan_ms),
        tail_q * 100.0,
        tail
    ));
    out.set("solve_p50_ms", median(&replan_ms));
    out.set("event_p50_ms", s.p50);
    out.set("admit_users_per_s", CROWD as f64 / (s.p50 / 1e3));
}

fn traced(cfg: &Config, out: &mut Outcome) {
    let mut tracer = Tracer::new(Instant::now());
    let start = Instant::now();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut plain_allocs, mut plain_bytes, mut replan_allocs) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut compression, mut cutting, mut greedy, mut replan_rest, mut service_rest) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut evaluations, mut moves, mut shards_replanned) = (0.0, 0.0, 0.0);
    let (mut evaluate_ms, mut admit_us) = (Vec::new(), Vec::new());
    let mut last_crowd = Vec::new();
    let mut rep = 0u64;
    while traced_ms.len() < MIN_REPS || start.elapsed() < cfg.seconds {
        rep += 1;
        let batch = crowd(cfg.seed, rep);
        let users = batch.clone();
        let (a, allocs) = counted(|| admit(users, default_service()));
        plain_ms.push(ms(a.total()));
        plain_allocs.push(allocs.allocs as f64);
        plain_bytes.push(allocs.bytes as f64);
        check_admission(&a, &batch, &mut out.tally);

        rep += 1;
        let batch = crowd(cfg.seed, rep);
        let users = batch.clone();
        let root = tracer.enter("admission", rep);
        let mut service = default_service();
        let span = tracer.enter("service.join_many", rep);
        let joined = service.join_many(users);
        let join = tracer.exit(span);
        let span = tracer.enter("service.replan", rep);
        let (report, allocs) = counted(|| joined.and_then(|()| service.replan()));
        let replan = tracer.exit(span);
        let wall = tracer.exit(root);
        let a = Admission {
            service,
            join,
            replan,
            report,
        };
        traced_ms.push(ms(wall));
        replan_allocs.push(allocs.allocs as f64);
        admit_us.push(join.as_secs_f64() * 1e6 / CROWD as f64);
        let (mut c, mut k, mut g) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for i in 0..SHARDS {
            let figures = tracer.time("service.shard_report", rep, || {
                a.service.shard_report(i).map(|r| (r.timings, r.greedy))
            });
            if let Some((timings, outcome)) = figures {
                c += timings.compression;
                k += timings.cutting;
                g += timings.greedy;
                evaluations += outcome.evaluations as f64;
                moves += outcome.moves as f64;
            }
        }
        compression += ms(c);
        cutting += ms(k);
        greedy += ms(g);
        replan_rest += ms(replan.saturating_sub(g));
        service_rest += ms(join.saturating_sub(c + k));
        if let Ok(r) = &a.report {
            shards_replanned += r.replanned_shards as f64;
        }
        let span = tracer.enter("oracle", rep);
        evaluate_ms.push(ms(check_admission(&a, &batch, &mut out.tally)));
        tracer.exit(span);
        last_crowd = batch;
    }
    let n = traced_ms.len() as f64;
    let wall: f64 = traced_ms.iter().sum();
    let replay_graphs = last_crowd
        .iter()
        .take(REPLAY_GRAPHS)
        .map(|(_, g)| g.as_ref());
    let fe = replay(replay_graphs, &mut tracer);
    for f in &fe.failures {
        out.tally.op(vec![f.clone()]);
    }
    for (k, v) in [
        ("labelprop.share_pct", compression),
        ("spectral.share_pct", cutting),
        ("greedy.share_pct", greedy),
        ("session.share_pct", replan_rest),
        ("service.share_pct", service_rest),
    ] {
        out.set(k, pct(v, wall));
    }
    let largest = [
        ("labelprop", compression),
        ("spectral", cutting),
        ("greedy", greedy),
        ("session", replan_rest),
        ("service", service_rest),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .map_or("none", |l| l.0);
    out.note(format!(
        "traced admissions: {} (+{} untraced, interleaved); shares of admission time: \
         labelprop {:.1}%, spectral {:.1}%, greedy {:.1}%, session {:.1}%, service {:.1}%",
        traced_ms.len(),
        plain_ms.len(),
        pct(compression, wall),
        pct(cutting, wall),
        pct(greedy, wall),
        pct(replan_rest, wall),
        pct(service_rest, wall)
    ));
    out.note(format!(
        "prediction 'labelprop is the largest layer in crowd-admit': {} (largest: {largest})",
        if largest == "labelprop" {
            "holds"
        } else {
            "FAILS"
        }
    ));
    out.set("labelprop.compress_us", median(&fe.compress_us));
    out.set("labelprop.allocs_per_compress", median(&fe.compress_allocs));
    out.set("labelprop.supernodes_per_node", fe.supernodes_per_node());
    out.set("spectral.cut_ms", median(&fe.cut_ms));
    out.set("spectral.cut_ms_per_op", cutting / n);
    out.set("spectral.allocs_per_cut", median(&fe.cut_allocs));
    out.set("spectral.quotient_nodes", fe.quotient_nodes_per_cut());
    out.set("spectral.cut_weight", fe.cut_weight);
    out.set("linalg.lanczos_iterations", fe.lanczos_per_cut());
    out.set("greedy.ms_per_replan", greedy / n);
    out.set("greedy.evaluations_per_replan", evaluations / n);
    out.set("greedy.moves_per_replan", moves / n);
    out.set("greedy.evals_per_move", evaluations / moves.max(1.0));
    out.set("session.replan_rest_ms", replan_rest / n);
    out.set("model.evaluate_ms", median(&evaluate_ms));
    out.set("service.admit_us", median(&admit_us));
    out.set("service.replanned_shards", shards_replanned / n);
    out.set("alloc.per_event", median(&plain_allocs));
    out.set("alloc.bytes_per_event", median(&plain_bytes));
    out.set("alloc.per_solve", median(&replan_allocs));
    out.set("event_p99_ms", summarize(&plain_ms).p99_or_tail());
    out.set(
        "events_per_s",
        plain_ms.len() as f64 / (plain_ms.iter().sum::<f64>() / 1e3),
    );
    let (p, t) = (median(&plain_ms), median(&traced_ms));
    out.set("trace.overhead_pct", pct(t - p, p));
    out.spans = Some(tracer);
}
