//! `churn` and `churn-telemetry`: the steady-state service. K = 8
//! shards over a crowd of 2×10⁴ users drawn from a 64-graph pool. Events
//! arrive on an open loop at a fixed rate, with a seeded mix: 30% joins,
//! 30% leaves, 40% resubmits, each followed by one `replan`.
//! `churn-telemetry` runs the same stream with a `ShardedRecorder`
//! attached through `OffloadService::with_trace_sink`.

use crate::alloc::{thread_count, AllocCount};
use crate::gen::{app_graph, churn_stream, derive, user_name, ChurnShape, ChurnStream, Op};
use crate::layers::replay;
use crate::loadgen::{drive, Handler, LoopStats, RealClock, Slot};
use crate::oracle::{check, check_plan, Tally};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{ms, pct, repeat_setup, Config, Outcome};
use copmecs_core::{GreedyOutcome, OffloadService, PipelineError, ServiceReport, StageTimings};
use mec_graph::Graph;
use mec_model::SystemParams;
use mec_obs::{ShardedRecorder, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CROWD: usize = 20_000;
pub const POOL: usize = 64;
pub const NODES: usize = 24;
pub const SHARDS: usize = 8;
/// Arrival rate in events per second: about half the slowest capacity
/// measured at this crowd size on a 2-core x86-64 host, whose speed
/// drifts over minutes (230–390 events/s for the default service,
/// 170–270 with the `ShardedRecorder` attached).
pub const RATE: f64 = 100.0;
const SETUP_REPS: usize = 3;
/// Every n-th event's replanned shard is re-priced with
/// `evaluate_plan_for`; every event's plan is validated.
const EVALUATE_EVERY: usize = 8;

fn shard_params() -> SystemParams {
    let mut p = SystemParams::default();
    p.server_capacity /= SHARDS as f64;
    p
}

/// The benchmark's own roster: each shard's users in session order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    shards: Vec<Vec<(u64, usize)>>,
}

impl Roster {
    pub fn new(shards: usize) -> Self {
        Roster {
            shards: vec![Vec::new(); shards],
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Applies `op` the way a session does: joins append, resubmits
    /// replace in place, leaves remove order-preservingly. Returns
    /// whether the op addressed the roster consistently (a join of a
    /// new user, a leave or resubmit of a present one).
    pub fn apply(&mut self, shard: usize, op: Op) -> bool {
        let list = &mut self.shards[shard];
        let find = |list: &[(u64, usize)], user| list.iter().position(|&(u, _)| u == user);
        match op {
            Op::Join { user, graph } => {
                let fresh = find(list, user).is_none();
                if fresh {
                    list.push((user, graph));
                }
                fresh
            }
            Op::Leave { user } => find(list, user).map(|i| list.remove(i)).is_some(),
            Op::Resubmit { user, graph } => match find(list, user) {
                Some(i) => {
                    list[i].1 = graph;
                    true
                }
                None => false,
            },
        }
    }

    fn users(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.shards.iter().flatten().copied()
    }
}

/// Everything set-up builds: inputs, the loaded service, the roster.
struct Setup {
    pool: Vec<Arc<Graph>>,
    stream: ChurnStream,
    service: OffloadService,
    recorder: Option<Arc<ShardedRecorder>>,
    roster: Roster,
    first: Result<ServiceReport, PipelineError>,
}

fn shape(seconds: f64) -> ChurnShape {
    ChurnShape {
        crowd: CROWD,
        pool: POOL,
        rate: RATE,
        seconds,
    }
}

fn set_up(seed: u64, shape: &ChurnShape, telemetry: bool) -> Setup {
    let pool: Vec<Arc<Graph>> = (0..shape.pool as u64)
        .map(|i| app_graph(NODES, derive(seed, 1000 + i)))
        .collect();
    let stream = churn_stream(seed, shape);
    let mut service = OffloadService::new(SystemParams::default(), SHARDS);
    let recorder = telemetry.then(|| Arc::new(ShardedRecorder::new()));
    if let Some(rec) = &recorder {
        service = service.with_trace_sink(Arc::clone(rec) as Arc<dyn TraceSink>);
    }
    let mut roster = Roster::new(SHARDS);
    let batch: Vec<(String, Arc<Graph>)> = stream
        .initial
        .iter()
        .map(|&(user, graph)| {
            let name = user_name(user);
            roster.apply(service.shard_of(&name), Op::Join { user, graph });
            (name, Arc::clone(&pool[graph]))
        })
        .collect();
    let first = service.join_many(batch).and_then(|()| service.replan());
    Setup {
        pool,
        stream,
        service,
        recorder,
        roster,
        first,
    }
}

/// Validates shard `shard`'s current plan against the roster and, if
/// `evaluate`, re-prices it.
fn check_shard(
    s: &Setup,
    shard: usize,
    evaluate: bool,
    problems: &mut Vec<String>,
) -> Option<Duration> {
    let Some(r) = s.service.shard_report(shard) else {
        problems.push(format!("shard {shard} has no report"));
        return None;
    };
    let graphs = s.roster.shards[shard]
        .iter()
        .map(|&(_, g)| s.pool[g].as_ref());
    check_plan(
        &shard_params(),
        graphs,
        &r.plan,
        evaluate.then_some(&r.evaluation),
        problems,
    )
}

fn check_first(s: &Setup, tally: &mut Tally) {
    let mut problems = Vec::new();
    match &s.first {
        Ok(r) => {
            check(&mut problems, r.users == s.roster.len(), || {
                format!(
                    "service reports {} users, roster holds {}",
                    r.users,
                    s.roster.len()
                )
            });
            for shard in 0..SHARDS {
                check_shard(s, shard, true, &mut problems);
            }
        }
        Err(e) => problems.push(format!("initial load failed: {e}")),
    }
    tally.op(problems);
}

/// Figures a traced event reads from the replanned shard's report.
#[derive(Debug, Clone, Copy)]
struct TracedEvent {
    greedy: GreedyOutcome,
    greedy_time: Duration,
    /// Front-end time of a joining user: the growth of the shard's
    /// summed `StageTimings::{compression, cutting}`.
    join_front_end: Option<(Duration, Duration)>,
}

struct Player<'a> {
    s: &'a mut Setup,
    names: Vec<String>,
    homes: Vec<usize>,
    origin: Instant,
    tracer: Option<Tracer>,
    tally: Tally,
    /// A default (NullSink) service fed the same events, untimed, as
    /// the paired baseline for telemetry overhead.
    twin: Option<OffloadService>,
    twin_service: Vec<Duration>,
    // per event
    op_time: Vec<Duration>,
    replan_time: Vec<Duration>,
    allocs: Vec<AllocCount>,
    replan_allocs: Vec<u64>,
    traced_events: Vec<Option<TracedEvent>>,
    evaluate: Vec<Duration>,
    replanned: Vec<usize>,
    crowd_range: (usize, usize),
    objective: f64,
    // the event in flight
    op_ok: bool,
    report: Option<Result<ServiceReport, PipelineError>>,
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Join { .. } => "service.join",
        Op::Leave { .. } => "service.leave",
        Op::Resubmit { .. } => "service.resubmit",
    }
}

/// Applies one event to `service`; `true` if the service accepted it
/// as the roster expects.
fn apply(service: &mut OffloadService, op: Op, name: &str, pool: &[Arc<Graph>]) -> bool {
    match op {
        Op::Join { graph, .. } => service
            .join(name.to_string(), Arc::clone(&pool[graph]))
            .is_ok(),
        Op::Leave { .. } => service.leave(name),
        Op::Resubmit { graph, .. } => matches!(
            service.resubmit(name.to_string(), Arc::clone(&pool[graph])),
            Ok(true)
        ),
    }
}

impl Player<'_> {
    fn enter(&mut self, traced: bool, name: &'static str, id: u64) -> Option<usize> {
        let t = self.tracer.as_mut().filter(|_| traced)?;
        Some(t.enter(name, id))
    }

    fn exit(&mut self, span: Option<usize>) {
        if let (Some(t), Some(span)) = (self.tracer.as_mut(), span) {
            t.exit(span);
        }
    }

    fn shard_figures(&mut self, shard: usize, id: u64) -> Option<(StageTimings, GreedyOutcome)> {
        let span = self.enter(true, "service.shard_report", id);
        let figures = self
            .s
            .service
            .shard_report(shard)
            .map(|r| (r.timings, r.greedy));
        self.exit(span);
        figures
    }
}

impl Handler<RealClock> for Player<'_> {
    fn serve(&mut self, _: &mut RealClock, i: usize, due: Duration) {
        let begin = Instant::now();
        let op = self.s.stream.events[i].op;
        let shard = self.homes[i];
        let id = i as u64;
        // traced and untraced events alternate, for the tracing overhead
        let traced = self.tracer.is_some() && i.is_multiple_of(2);
        let mut root = None;
        let mut before = None;
        if traced {
            let t = self.tracer.as_mut().expect("traced run");
            root = Some(t.enter_at("event", id, self.origin + due));
            t.record("loadgen.wait", id, self.origin + due, begin);
            before = self.shard_figures(shard, id);
        }

        let a0 = thread_count();
        let span = self.enter(traced, op_name(op), id);
        let t0 = Instant::now();
        self.op_ok = apply(&mut self.s.service, op, &self.names[i], &self.s.pool);
        let t1 = Instant::now();
        self.exit(span);
        let a1 = thread_count();
        let span = self.enter(traced, "service.replan", id);
        let t2 = Instant::now();
        self.report = Some(self.s.service.replan());
        let t3 = Instant::now();
        self.exit(span);
        let a2 = thread_count();

        self.op_time.push(t1 - t0);
        self.replan_time.push(t3 - t2);
        self.allocs.push(a2 - a0);
        self.replan_allocs.push((a2 - a1).allocs);
        let mut figures = None;
        if traced {
            if let Some((timings, greedy)) = self.shard_figures(shard, id) {
                let join_front_end = match (op, before) {
                    (Op::Join { .. }, Some((b, _))) => Some((
                        timings.compression.saturating_sub(b.compression),
                        timings.cutting.saturating_sub(b.cutting),
                    )),
                    _ => None,
                };
                figures = Some(TracedEvent {
                    greedy,
                    greedy_time: timings.greedy,
                    join_front_end,
                });
            }
            self.exit(root);
        }
        self.traced_events.push(figures);
    }

    fn check(&mut self, _: &mut RealClock, i: usize, _: &Slot) {
        let span = self.enter(self.tracer.is_some(), "oracle", i as u64);
        let op = self.s.stream.events[i].op;
        let shard = self.homes[i];
        let mut problems = Vec::new();
        let expected = self.s.roster.apply(shard, op);
        check(&mut problems, self.op_ok == expected, || {
            format!(
                "event {i}: {} returned {}, roster expects {expected}",
                op_name(op),
                self.op_ok
            )
        });
        match self.report.take() {
            Some(Ok(r)) => {
                let crowd = self.s.roster.len();
                check(&mut problems, r.users == crowd, || {
                    format!(
                        "event {i}: service reports {} users, roster holds {crowd}",
                        r.users
                    )
                });
                check(&mut problems, r.replanned_shards == 1, || {
                    format!(
                        "event {i}: {} shards replanned, expected 1",
                        r.replanned_shards
                    )
                });
                self.crowd_range = (self.crowd_range.0.min(crowd), self.crowd_range.1.max(crowd));
                self.replanned.push(r.replanned_shards);
                self.objective = r.objective;
                let t = check_shard(
                    self.s,
                    shard,
                    i.is_multiple_of(EVALUATE_EVERY),
                    &mut problems,
                );
                self.evaluate.extend(t);
            }
            Some(Err(e)) => problems.push(format!("event {i}: replan failed: {e}")),
            None => problems.push(format!("event {i}: not served")),
        }
        self.tally.op(problems);
        self.exit(span);

        // the twin serves event i after the main service on even events
        // and event i + 1 before it, so neither side always runs second
        if let Some(twin) = self.twin.as_mut().filter(|_| i.is_multiple_of(2)) {
            for j in i..(i + 2).min(self.names.len()) {
                let op = self.s.stream.events[j].op;
                let t = Instant::now();
                let ok = apply(twin, op, &self.names[j], &self.s.pool) && twin.replan().is_ok();
                self.twin_service.push(t.elapsed());
                if !ok {
                    self.tally
                        .op(vec![format!("event {j}: twin service failed")]);
                }
            }
        }
    }
}

fn obs_counts(rec: &ShardedRecorder) -> (u64, u64) {
    let spans = rec.spans().len() as u64;
    let samples: u64 = rec
        .metrics()
        .snapshot()
        .histograms
        .iter()
        .map(|(_, h)| h.count())
        .sum();
    (spans + samples, rec.dropped_records().total())
}

/// Plays the set-up's event stream open-loop against its service.
fn play(s: &mut Setup, traced: bool, twin: Option<OffloadService>) -> (Player<'_>, LoopStats) {
    let due: Vec<Duration> = s.stream.events.iter().map(|e| e.due).collect();
    let names: Vec<String> = s
        .stream
        .events
        .iter()
        .map(|e| user_name(e.op.user()))
        .collect();
    let homes = names.iter().map(|n| s.service.shard_of(n)).collect();
    let origin = Instant::now();
    let mut d = Player {
        s,
        names,
        homes,
        origin,
        tracer: traced.then(|| Tracer::new(origin)),
        tally: Tally::default(),
        twin,
        twin_service: Vec::new(),
        op_time: Vec::new(),
        replan_time: Vec::new(),
        allocs: Vec::new(),
        replan_allocs: Vec::new(),
        traced_events: Vec::new(),
        evaluate: Vec::new(),
        replanned: Vec::new(),
        crowd_range: (usize::MAX, 0),
        objective: f64::NAN,
        op_ok: false,
        report: None,
    };
    let stats = drive(&mut RealClock { origin }, &due, &mut d);
    (d, stats)
}

pub fn run(cfg: &Config, telemetry: bool) -> Outcome {
    let mut out = Outcome::default();
    let seconds = cfg.seconds.as_secs_f64();
    let mut objective = None;
    let (mut s, setup) = repeat_setup(SETUP_REPS, || {
        let s = set_up(cfg.seed, &shape(seconds), telemetry);
        if let Ok(r) = &s.first {
            let bits = *objective.get_or_insert(r.objective.to_bits());
            if bits != r.objective.to_bits() {
                out.tally.op(vec![
                    "initial objective differs between identical set-ups".into()
                ]);
            }
        }
        s
    });
    check_first(&s, &mut out.tally);
    out.note(format!(
        "crowd {CROWD} users on {SHARDS} shards, pool of {POOL} {NODES}-node graphs; \
         open loop at {RATE} events/s: {} events",
        s.stream.events.len()
    ));

    let twin = (cfg.trace && telemetry).then(|| {
        let mut twin = OffloadService::new(SystemParams::default(), SHARDS);
        let batch = s
            .stream
            .initial
            .iter()
            .map(|&(u, g)| (user_name(u), Arc::clone(&s.pool[g])));
        if let Err(e) = twin.join_many(batch).and_then(|()| twin.replan()) {
            out.tally.op(vec![format!("twin load failed: {e}")]);
        }
        twin
    });
    let obs_before = s.recorder.as_deref().map(obs_counts);
    let (mut d, stats) = play(&mut s, cfg.trace, twin);
    let obs_after = d.s.recorder.as_deref().map(obs_counts);

    out.tally.merge(std::mem::take(&mut d.tally));
    out.set("objective", d.objective);
    let n = stats.slots.len();
    let latency: Vec<f64> = stats.slots.iter().map(|t| ms(t.latency())).collect();
    let wait = summarize(&stats.slots.iter().map(|t| ms(t.wait())).collect::<Vec<_>>());
    let lat = summarize(&latency);
    let (tail_q, tail) = lat.tail.unwrap_or((0.5, lat.p50));
    let service = summarize(
        &stats
            .slots
            .iter()
            .map(|t| ms(t.service()))
            .collect::<Vec<_>>(),
    );
    out.note(format!(
        "events: {n}; latency from due time p50 {:.3} ms, p{} {:.3} ms; service time p50 {:.3} ms, \
         tail {:?}; crowd stayed in [{}, {}]; queue wait p50 {:.3} ms; backlog max {}; oracle pauses {:.2} s",
        lat.p50,
        tail_q * 100.0,
        tail,
        service.p50,
        service.tail,
        d.crowd_range.0,
        d.crowd_range.1,
        wait.p50,
        stats.backlog_max,
        stats.paused.as_secs_f64()
    ));
    let events = &d.s.stream.events;
    let kind_service = |want: fn(&Op) -> bool| -> Vec<f64> {
        stats
            .slots
            .iter()
            .zip(events)
            .filter(|(_, e)| want(&e.op))
            .map(|(t, _)| ms(t.service()))
            .collect()
    };
    let join_service = kind_service(|op| matches!(op, Op::Join { .. }));

    if !cfg.trace {
        out.set("setup_s", median(&setup));
        out.set(
            "solve_p50_ms",
            median(&d.replan_time.iter().map(|&t| ms(t)).collect::<Vec<_>>()),
        );
        out.set("event_p50_ms", lat.p50);
        out.set("admit_users_per_s", 1e3 / median(&join_service));
        out.note(format!(
            "capacity (events / busy time, unbounded): {:.1} events/s",
            n as f64 / stats.busy().as_secs_f64()
        ));
        return out;
    }

    // traced run: per-layer figures
    let traced: Vec<(usize, TracedEvent)> = d
        .traced_events
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (i, t)))
        .collect();
    let service_of = |i: usize| ms(stats.slots[i].service());
    let busy: f64 = traced.iter().map(|&(i, _)| service_of(i)).sum();
    let op_total: f64 = traced.iter().map(|&(i, _)| ms(d.op_time[i])).sum();
    let greedy: f64 = traced.iter().map(|(_, t)| ms(t.greedy_time)).sum();
    let replan: f64 = traced.iter().map(|&(i, _)| ms(d.replan_time[i])).sum();
    let evaluations: f64 = traced
        .iter()
        .map(|(_, t)| t.greedy.evaluations as f64)
        .sum();
    let moves: f64 = traced.iter().map(|(_, t)| t.greedy.moves as f64).sum();
    let joins: Vec<(f64, f64)> = traced
        .iter()
        .filter_map(|(_, t)| t.join_front_end)
        .map(|(c, k)| (ms(c), ms(k)))
        .collect();
    let admits = traced
        .iter()
        .filter(|&&(i, _)| !matches!(events[i].op, Op::Leave { .. }))
        .count() as f64;
    // joins measure their front-end in place; resubmits run the same
    // front-end on graphs from the same pool
    let per_join =
        |f: fn(&(f64, f64)) -> f64| joins.iter().map(f).sum::<f64>() / joins.len().max(1) as f64;
    let labelprop = per_join(|j| j.0) * admits;
    let spectral = per_join(|j| j.1) * admits;
    let service_rest = op_total - labelprop - spectral;
    let m = traced.len().max(1) as f64;
    for (k, v) in [
        ("labelprop.share_pct", labelprop),
        ("spectral.share_pct", spectral),
        ("greedy.share_pct", greedy),
        ("session.share_pct", replan - greedy),
        ("service.share_pct", service_rest),
    ] {
        out.set(k, pct(v, busy));
    }
    let blocking = pct(replan, busy);
    out.note(format!(
        "traced events: {} of {n}; shares of event service time: labelprop {:.1}%, spectral {:.1}%, \
         greedy {:.1}%, session rest {:.1}%, service rest {:.1}%",
        traced.len(),
        pct(labelprop, busy),
        pct(spectral, busy),
        pct(greedy, busy),
        pct(replan - greedy, busy),
        pct(service_rest, busy)
    ));
    out.note(format!(
        "prediction 'greedy + session rest >= 80% of a churn event': {} ({blocking:.1}%)",
        if blocking >= 80.0 { "holds" } else { "FAILS" }
    ));
    out.note(format!(
        "greedy: {evaluations} evaluations over {moves} moves in {} replans (evals/move base: {moves} moves)",
        traced.len()
    ));

    let fe = replay(
        d.s.pool.iter().map(|g| g.as_ref()),
        d.tracer.as_mut().expect("traced run"),
    );
    for f in &fe.failures {
        out.tally.op(vec![f.clone()]);
    }
    out.set("labelprop.compress_us", median(&fe.compress_us));
    out.set("labelprop.allocs_per_compress", median(&fe.compress_allocs));
    out.set("labelprop.supernodes_per_node", fe.supernodes_per_node());
    out.set("spectral.cut_ms", median(&fe.cut_ms));
    out.set("spectral.cut_ms_per_op", spectral / m);
    out.set("spectral.allocs_per_cut", median(&fe.cut_allocs));
    out.set("spectral.quotient_nodes", fe.quotient_nodes_per_cut());
    out.set("spectral.cut_weight", fe.cut_weight);
    out.set("linalg.lanczos_iterations", fe.lanczos_per_cut());
    out.set("greedy.ms_per_replan", greedy / m);
    out.set("greedy.evaluations_per_replan", evaluations / m);
    out.set("greedy.moves_per_replan", moves / m);
    out.set("greedy.evals_per_move", evaluations / moves.max(1.0));
    out.set("session.replan_rest_ms", (replan - greedy) / m);
    out.set(
        "model.evaluate_ms",
        median(&d.evaluate.iter().map(|&t| ms(t)).collect::<Vec<_>>()),
    );
    let op_kind = |leave: bool| -> Vec<f64> {
        d.op_time
            .iter()
            .zip(events)
            .filter(|(_, e)| matches!(e.op, Op::Leave { .. }) == leave)
            .map(|(&t, _)| t.as_secs_f64() * 1e6)
            .collect()
    };
    out.set("service.admit_us", median(&op_kind(false)));
    out.set("service.leave_us", median(&op_kind(true)));
    out.set(
        "service.replanned_shards",
        d.replanned.iter().sum::<usize>() as f64 / d.replanned.len().max(1) as f64,
    );
    out.set("event_p99_ms", lat.p99_or_tail());
    // capacity from the untraced (odd) events, which record no spans
    let plain: Vec<f64> = (1..n).step_by(2).map(service_of).collect();
    out.set(
        "events_per_s",
        plain.len() as f64 / (plain.iter().sum::<f64>() / 1e3),
    );
    out.set("loadgen.queue_wait_p99_ms", wait.p99_or_tail());
    out.set("loadgen.backlog_max", stats.backlog_max as f64);
    // allocation counts from the untraced events, which record no spans
    let untraced = |f: fn(&AllocCount) -> u64| -> Vec<f64> {
        d.allocs
            .iter()
            .skip(1)
            .step_by(2)
            .map(|a| f(a) as f64)
            .collect()
    };
    out.set("alloc.per_event", median(&untraced(|a| a.allocs)));
    out.set("alloc.bytes_per_event", median(&untraced(|a| a.bytes)));
    out.set(
        "alloc.per_solve",
        median(
            &d.replan_allocs
                .iter()
                .skip(1)
                .step_by(2)
                .map(|&a| a as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let (even, odd): (Vec<f64>, Vec<f64>) = {
        let all: Vec<f64> = stats.slots.iter().map(|t| ms(t.service())).collect();
        (
            all.iter().step_by(2).copied().collect(),
            all.iter().skip(1).step_by(2).copied().collect(),
        )
    };
    out.set(
        "trace.overhead_pct",
        pct(median(&even) - median(&odd), median(&odd)),
    );
    if let (Some((r0, d0)), Some((r1, d1))) = (obs_before, obs_after) {
        out.set("obs.records", (r1 - r0) as f64);
        out.set("obs.dropped", (d1 - d0) as f64);
        // paired per event: the same op and replan on both services
        let ratios: Vec<f64> = stats
            .slots
            .iter()
            .zip(&d.twin_service)
            .map(|(t, &base)| t.service().as_secs_f64() / base.as_secs_f64())
            .collect();
        let overhead = 100.0 * (median(&ratios) - 1.0);
        out.set("obs.overhead_pct", overhead);
        out.note(format!(
            "telemetry overhead: median paired service-time ratio {overhead:.2}% over {} events \
             (ShardedRecorder service vs a default service fed the same events)",
            ratios.len()
        ));
    } else {
        let gap = shard_gap(d.s, d.objective, &mut out);
        out.set("service.shard_gap_pct", gap);
    }
    out.spans = d.tracer.take();
    out
}

/// Objective of the sharded service against one unsharded service on
/// the same final crowd, in percent of the latter.
fn shard_gap(s: &Setup, sharded: f64, out: &mut Outcome) -> f64 {
    let mut single = OffloadService::new(SystemParams::default(), 1);
    let crowd = s
        .roster
        .users()
        .map(|(u, g)| (user_name(u), Arc::clone(&s.pool[g])));
    let t = Instant::now();
    match single.join_many(crowd).and_then(|()| single.replan()) {
        Ok(r) => {
            out.note(format!(
                "shard gap: K={SHARDS} objective {sharded} vs K=1 {} on {} users ({:.1} s to compute)",
                r.objective,
                r.users,
                t.elapsed().as_secs_f64()
            ));
            let mut problems = Vec::new();
            check(&mut problems, r.users == s.roster.len(), || {
                "K=1 crowd size differs".into()
            });
            out.tally.op(problems);
            pct(sharded - r.objective, r.objective)
        }
        Err(e) => {
            out.tally.op(vec![format!("K=1 service failed: {e}")]);
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plays a small stream closed-loop, checking after every event that
    /// the roster reproduces the replanned shard's evaluation bit for
    /// bit; returns the stream and the final objective.
    fn play_small(seed: u64) -> (ChurnStream, f64) {
        let shape = ChurnShape {
            crowd: 160,
            pool: 8,
            rate: 100.0,
            seconds: 1.0,
        };
        let mut s = set_up(seed, &shape, false);
        let mut objective = s.first.as_ref().expect("initial load").objective;
        let mut tally = Tally::default();
        check_first(&s, &mut tally);
        for e in s.stream.events.clone() {
            let name = user_name(e.op.user());
            let shard = s.service.shard_of(&name);
            let accepted = apply(&mut s.service, e.op, &name, &s.pool);
            assert_eq!(accepted, s.roster.apply(shard, e.op));
            let r = s.service.replan().expect("replan");
            assert_eq!(r.users, s.roster.len());
            assert_eq!(r.replanned_shards, 1);
            objective = r.objective;
            let mut problems = Vec::new();
            check_shard(&s, shard, true, &mut problems);
            tally.op(problems);
        }
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        (s.stream, objective)
    }

    #[test]
    fn same_seed_same_stream_and_bit_identical_objective() {
        let (a, objective_a) = play_small(4);
        let (b, objective_b) = play_small(4);
        assert!(a.events.len() > 50);
        assert_eq!(a, b);
        assert_eq!(objective_a.to_bits(), objective_b.to_bits());
        let (c, _) = play_small(5);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn roster_follows_session_order() {
        let mut r = Roster::new(1);
        for user in 0..4 {
            assert!(r.apply(0, Op::Join { user, graph: 0 }));
        }
        assert!(!r.apply(0, Op::Join { user: 2, graph: 1 }));
        assert!(r.apply(0, Op::Resubmit { user: 2, graph: 5 }));
        assert!(r.apply(0, Op::Leave { user: 1 }));
        assert!(!r.apply(0, Op::Leave { user: 1 }));
        assert!(!r.apply(0, Op::Resubmit { user: 9, graph: 0 }));
        assert_eq!(r.shards[0], vec![(0, 0), (2, 5), (3, 0)]);
        assert_eq!(r.len(), 3);
    }
}
