//! Dynamic multi-user sessions: join, leave, re-plan.
//!
//! The paper solves a static snapshot, but MEC crowds churn: users walk
//! in and out of the cell. The per-user work — compression and
//! minimum cuts — does not depend on who else is present, only the
//! greedy placement does. [`OffloadSession`] exploits that twice: each
//! user's graph is compressed and cut **once** at join time, and the
//! converged part placement itself persists across replans — a churn
//! event re-seats only the affected user's parts, and the next
//! [`replan`](OffloadSession::replan) warm-starts the greedy search
//! from the previous equilibrium instead of rebuilding the whole part
//! system and searching from the initial split. Convergence of the
//! warm search is shown by a certificate whose cost grows with churn
//! (see `greedy/certificate.rs`), and each slot's plan row and pass-1
//! cost row are cached, so only the churned and moved users are
//! re-planned and re-priced. When accumulated churn
//! exceeds a configurable drift bound, the session rebuilds from
//! scratch; with [`with_drift_limit(0.0)`](OffloadSession::with_drift_limit)
//! every replan after churn does, and its plan is bit-identical to
//! [`Offloader::solve`](crate::Offloader::solve) on the same crowd.

use crate::exec::ExecCtx;
use crate::frontend::{prepare_users, FrontEnd};
use crate::greedy::{run_greedy_traced, run_greedy_warm, GreedyMode, MoveIndex};
use crate::offloader::timed_greedy;
use crate::parts::PartSystem;
use crate::strategy::{CutStrategy, StrategyKind};
use crate::{OffloadReport, PipelineError};
use mec_engine::Cluster;
use mec_graph::{Bipartition, Graph, Side};
use mec_labelprop::{CompressionConfig, Compressor};
use mec_model::{evaluate_rows, price_user, SystemParams, UserCost};
use mec_obs::{FieldValue, TraceSink};
use std::sync::Arc;

/// One user's cached pipeline front-end: the compression outcome,
/// per-component cuts, and the wall-clock both took, computed at join
/// time.
#[derive(Debug, Clone)]
struct PreparedUser {
    name: String,
    graph: Arc<Graph>,
    frontend: FrontEnd,
}

/// The placement carried across replans.
///
/// Invariant: part-system user slot `i` is `OffloadSession::users[i]`
/// at all times — joins append or replace in place, leaves remove
/// order-preservingly — so delta plans and evaluations come out in the
/// same user order the from-scratch path produces. The index and the
/// cached rows follow the same slots.
struct DeltaState {
    ps: PartSystem,
    /// User slots churned since the last replan (unsorted, may repeat).
    dirty: Vec<usize>,
    /// The warm search's convergence certificate; `None` where every
    /// warm replan rescans (`Fifo`, the exhaustive driver).
    index: Option<MoveIndex>,
    /// Slot → its row of the last plan; a placeholder for dirty slots
    /// until the next replan re-plans them.
    plans: Vec<Bipartition>,
    /// Slot → its pass-1 cost row ([`price_user`]) of that plan row.
    rows: Vec<UserCost>,
}

impl DeltaState {
    /// Re-plans and re-prices `slots` (and no other slot) from the
    /// current placement.
    fn reprice(&mut self, params: &SystemParams, users: &[PreparedUser], slots: &[usize]) {
        for &u in slots {
            let plan = self.ps.plan_of(u);
            self.rows[u] = price_user(params, &users[u].graph, &plan);
            self.plans[u] = plan;
        }
    }
}

/// A long-lived multi-user offloading session.
///
/// # Example
///
/// ```
/// use copmecs_core::OffloadSession;
/// use mec_model::SystemParams;
/// use mec_netgen::NetgenSpec;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = OffloadSession::new(SystemParams::default());
/// let g = Arc::new(NetgenSpec::new(100, 300).seed(1).generate()?);
/// session.join("alice", Arc::clone(&g))?;
/// session.join("bob", g)?;
/// let two = session.replan()?;
/// session.leave("alice");
/// let one = session.replan()?;
/// assert!(one.evaluation.totals.objective() < two.evaluation.totals.objective());
/// # Ok(())
/// # }
/// ```
pub struct OffloadSession {
    params: SystemParams,
    compressor: Compressor,
    strategy: Box<dyn CutStrategy>,
    greedy_mode: GreedyMode,
    users: Vec<PreparedUser>,
    /// The session-owned execution context: backend, sink, and (on the
    /// serial backend) the cut arena recycled across every admission.
    ctx: ExecCtx,
    /// Fraction of the crowd allowed to churn between replans before a
    /// delta replan discards the warm start and rebuilds from scratch.
    drift_limit: f64,
    /// Churn events (join, rejoin, leave) since the last replan.
    churned: usize,
    /// The persisted converged placement, once a delta replan has run.
    delta: Option<DeltaState>,
    /// Whether warm replans may use the convergence certificate
    /// (always, outside the tests that compare against the rescan).
    certificate: bool,
}

impl OffloadSession {
    /// A session with default compression, the spectral strategy and
    /// the lazy greedy driver.
    pub fn new(params: SystemParams) -> Self {
        Self::with_config(
            params,
            CompressionConfig::default(),
            StrategyKind::Spectral,
            GreedyMode::Lazy,
        )
    }

    /// A fully configured session.
    pub fn with_config(
        params: SystemParams,
        compression: CompressionConfig,
        strategy: StrategyKind,
        greedy_mode: GreedyMode,
    ) -> Self {
        OffloadSession {
            params,
            compressor: Compressor::new(compression),
            strategy: strategy.build(),
            greedy_mode,
            users: Vec::new(),
            ctx: ExecCtx::serial(),
            drift_limit: 0.25,
            churned: 0,
            delta: None,
            certificate: true,
        }
    }

    /// The rescan-only warm path: the reference the certified path
    /// must match bit for bit.
    #[cfg(test)]
    pub(crate) fn without_certificate(mut self) -> Self {
        self.certificate = false;
        self
    }

    /// Sets the delta-replan drift bound: once more than
    /// `limit × crowd` churn events accumulate between replans, the
    /// warm start is discarded and the placement is rebuilt from
    /// scratch. `0.0` forces a full rebuild after *any* churn — the
    /// from-scratch configuration, whose plans are bit-identical to
    /// [`Offloader::solve`](crate::Offloader::solve) on the same crowd
    /// in session order; the default is `0.25`.
    pub fn with_drift_limit(mut self, limit: f64) -> Self {
        self.drift_limit = limit.max(0.0);
        self
    }

    /// Switches the session's execution context onto `cluster`: every
    /// admission ([`join`](Self::join) and
    /// [`join_many`](Self::join_many)) then fans its front-ends out as
    /// one stage task per user. Results are identical to the serial
    /// backend either way.
    pub fn with_cluster(mut self, cluster: Arc<Cluster>) -> Self {
        self.ctx = self.ctx.into_cluster(cluster);
        self
    }

    /// Replaces the session's whole execution context (backend, sink,
    /// seed) with `ctx`.
    pub fn with_exec_ctx(mut self, ctx: ExecCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Replaces the cut backend with a custom [`CutStrategy`]
    /// implementation (the [`StrategyKind`]-less analogue of
    /// [`with_config`](Self::with_config); also how tests inject
    /// failing strategies).
    pub fn with_strategy(mut self, strategy: Box<dyn CutStrategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Routes session telemetry to `sink`: `session.join` /
    /// `session.replan` spans, churn events, and what the compression
    /// and greedy stages emit. (The cut strategy keeps its own sink;
    /// use [`with_traced_strategy`](Self::with_traced_strategy) to
    /// route the eigensolver too.)
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Like [`with_trace_sink`](Self::with_trace_sink) but also routes
    /// the given [`StrategyKind`]'s internals (the spectral
    /// eigensolver) through the sink.
    pub fn with_traced_strategy(
        mut self,
        strategy: &StrategyKind,
        sink: Arc<dyn TraceSink>,
    ) -> Self {
        self.strategy = strategy.build_with_sink(Arc::clone(&sink));
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Number of users currently in the session.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// `true` if a user with this name is present.
    pub fn contains(&self, name: &str) -> bool {
        self.users.iter().any(|u| u.name == name)
    }

    /// Admits a user, running their compression and cuts once. A user
    /// with the same name replaces the previous entry (e.g. after an
    /// app update changed the graph).
    ///
    /// The context scope guarantees the `session.join` span,
    /// `session.join_nanos` histogram, and sink flush happen on every
    /// exit — a failed admission is still fully accounted.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cut`] if a compressed component cannot be
    /// bipartitioned; [`PipelineError::Engine`] if the context's
    /// cluster backend failed.
    pub fn join(
        &mut self,
        name: impl Into<String>,
        graph: Arc<Graph>,
    ) -> Result<(), PipelineError> {
        let name = name.into();
        let scope = self.ctx.scope("session.join", "session.join_nanos");
        let frontend = prepare_users(
            &mut self.ctx,
            &self.compressor,
            self.strategy.as_ref(),
            vec![Arc::clone(&graph)],
        )?
        .pop()
        .expect("one front-end per graph");
        self.insert(PreparedUser {
            name,
            graph,
            frontend,
        });
        let sink = self.ctx.sink();
        sink.counter_add("session.joins", 1);
        if sink.enabled() {
            sink.event(
                "session.join",
                &[("users", FieldValue::from(self.users.len()))],
            );
        }
        scope.finish();
        Ok(())
    }

    /// Admits a batch of users at once through the same unified
    /// front-end path as [`join`](Self::join): on the cluster backend
    /// every joining user's front-end — compression plus per-component
    /// cuts — runs as its own stage task; on the serial backend the
    /// batch is walked on the calling thread, recycling the ctx-owned
    /// cut arena. Either way the result is identical to calling
    /// [`join`](Self::join) once per user in batch order: later
    /// duplicates (in the batch or already present) replace earlier
    /// entries.
    ///
    /// On error nothing is admitted: the batch joins all-or-nothing,
    /// the reported error is the first failing user's (in batch
    /// order), and the context scope still finishes the
    /// `session.join_many` span, records `session.join_many_nanos`,
    /// and flushes the sink.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cut`] if a compressed component cannot be
    /// bipartitioned; [`PipelineError::Engine`] if a stage task
    /// panicked or the pool is gone.
    pub fn join_many(
        &mut self,
        users: impl IntoIterator<Item = (String, Arc<Graph>)>,
    ) -> Result<(), PipelineError> {
        let batch: Vec<(String, Arc<Graph>)> = users.into_iter().collect();
        let scope = self
            .ctx
            .scope("session.join_many", "session.join_many_nanos");
        let graphs: Vec<_> = batch.iter().map(|(_, g)| Arc::clone(g)).collect();
        let frontends = prepare_users(
            &mut self.ctx,
            &self.compressor,
            self.strategy.as_ref(),
            graphs,
        )?;
        let joined = batch.len();
        for ((name, graph), frontend) in batch.into_iter().zip(frontends) {
            self.insert(PreparedUser {
                name,
                graph,
                frontend,
            });
        }
        let sink = self.ctx.sink();
        sink.counter_add("session.joins", joined as u64);
        if sink.enabled() {
            sink.event(
                "session.join_many",
                &[
                    ("joined", FieldValue::from(joined)),
                    ("users", FieldValue::from(self.users.len())),
                ],
            );
        }
        scope.finish();
        Ok(())
    }

    /// Inserts or replaces a prepared user (same-name join replaces
    /// the previous workload), keeping any persisted placement
    /// slot-aligned: a rejoin re-seats the slot's parts in place, a
    /// fresh join appends, and either way the slot is marked dirty for
    /// the next warm-started replan.
    fn insert(&mut self, prepared: PreparedUser) {
        self.churned += 1;
        match self.users.iter().position(|u| u.name == prepared.name) {
            Some(i) => {
                if let Some(delta) = self.delta.as_mut() {
                    delta.ps.replace_user(
                        i,
                        &prepared.graph,
                        &prepared.frontend.outcome,
                        &prepared.frontend.cuts,
                    );
                    delta.dirty.push(i);
                }
                self.users[i] = prepared;
            }
            None => {
                if let Some(delta) = self.delta.as_mut() {
                    delta.ps.add_user(
                        &prepared.graph,
                        &prepared.frontend.outcome,
                        &prepared.frontend.cuts,
                    );
                    delta.dirty.push(self.users.len());
                    if let Some(index) = delta.index.as_mut() {
                        index.push();
                    }
                    delta.plans.push(Bipartition::uniform(0, Side::Local));
                    delta.rows.push(UserCost::default());
                }
                self.users.push(prepared);
            }
        }
    }

    /// Removes the user at slot `i`, shifting later slots down and
    /// keeping any persisted placement (and its dirty set) aligned.
    fn remove_at(&mut self, i: usize) {
        self.users.remove(i);
        self.churned += 1;
        if let Some(delta) = self.delta.as_mut() {
            delta.ps.remove_user(i);
            if let Some(index) = delta.index.as_mut() {
                index.remove(i);
            }
            delta.plans.remove(i);
            delta.rows.remove(i);
            delta.dirty.retain_mut(|d| {
                if *d == i {
                    return false;
                }
                if *d > i {
                    *d -= 1;
                }
                true
            });
        }
    }

    /// Removes a user; returns `false` when no such user was present.
    ///
    /// Like every other session mutation, a successful leave runs the
    /// full telemetry epilogue (span, `session.leave_nanos` histogram,
    /// flush), so buffered churn records become visible immediately.
    pub fn leave(&mut self, name: &str) -> bool {
        let Some(i) = self.users.iter().position(|u| u.name == name) else {
            return false;
        };
        let scope = self.ctx.scope("session.leave", "session.leave_nanos");
        self.remove_at(i);
        let sink = self.ctx.sink();
        sink.counter_add("session.leaves", 1);
        if sink.enabled() {
            sink.event(
                "session.leave",
                &[("users", FieldValue::from(self.users.len()))],
            );
        }
        scope.finish();
        true
    }

    /// Removes a batch of users under **one** telemetry scope —
    /// a single `session.leave_many` span, one
    /// `session.leave_many_nanos` sample, and one flush for the whole
    /// batch — so mass churn does not pay a per-user telemetry
    /// epilogue. Unknown names are skipped. Returns how many users
    /// actually left; when none did, no scope is opened at all.
    pub fn leave_many<I, S>(&mut self, names: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut slots: Vec<usize> = names
            .into_iter()
            .filter_map(|name| {
                let name = name.as_ref();
                self.users.iter().position(|u| u.name == name)
            })
            .collect();
        // descending removal order keeps the remaining slots valid
        slots.sort_unstable_by(|a, b| b.cmp(a));
        slots.dedup();
        if slots.is_empty() {
            return 0;
        }
        let scope = self
            .ctx
            .scope("session.leave_many", "session.leave_many_nanos");
        for &i in &slots {
            self.remove_at(i);
        }
        let sink = self.ctx.sink();
        sink.counter_add("session.leaves", slots.len() as u64);
        if sink.enabled() {
            sink.event(
                "session.leave_many",
                &[
                    ("left", FieldValue::from(slots.len())),
                    ("users", FieldValue::from(self.users.len())),
                ],
            );
        }
        scope.finish();
        slots.len()
    }

    /// Re-runs the placement for the current crowd using the cached
    /// per-user compression and cuts, and prices the result.
    ///
    /// The converged placement persists across calls and only the
    /// churned slots are re-settled; the first call, and any call after
    /// more than `drift_limit × crowd` churn events, rebuilds the part
    /// system and runs the greedy search from the initial split
    /// (counted as `session.rebuild_first` or `session.rebuild_drift`).
    ///
    /// A warm replan costs `O(churn)` candidate pricings: the seeded
    /// search settles the churned users, and a convergence certificate
    /// over per-block line envelopes replaces the full rescan; only
    /// when it finds an improving candidate does the rescan run. The
    /// plan and pricing are cached per slot and recomputed only for
    /// the churned users and the users the search moved; the report's
    /// evaluation is bit-identical to
    /// [`evaluate_plan_for`](mec_model::evaluate_plan_for) on the whole
    /// plan. What stays `O(crowd)` is scalar: re-deriving the greedy
    /// objective bookkeeping from the placement at warm entry (so
    /// repeated warm replans cannot accumulate floating-point drift
    /// relative to a rebuild), the server-share pass over the cached
    /// cost rows, and copying the plan into the report (into the
    /// previous report's buffers when an [`OffloadService`] shard
    /// replans, so that copy allocates nothing).
    ///
    /// [`OffloadService`]: crate::OffloadService
    ///
    /// The report's `timings.compression` / `timings.cutting` are the
    /// *cached* per-user front-end times recorded at join time (summed
    /// over the current crowd), so a session report accounts for the
    /// same three stages a one-shot
    /// [`Offloader::solve`](crate::Offloader::solve) report does;
    /// only `timings.greedy` is spent during the replan itself.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Model`] if the session's system parameters are
    /// invalid.
    pub fn replan(&mut self) -> Result<OffloadReport, PipelineError> {
        let mut report = None;
        self.replan_into(&mut report)?;
        Ok(report.expect("a successful replan stores its report"))
    }

    /// [`replan`](Self::replan) into `slot`, reusing the buffers of the
    /// report it holds (one this session returned earlier): the cached
    /// plan and cost rows are copied into them, so a steady-state
    /// replan allocates nothing per user. On error `slot` is left as
    /// it was.
    pub(crate) fn replan_into(
        &mut self,
        slot: &mut Option<OffloadReport>,
    ) -> Result<(), PipelineError> {
        // the replan-end-to-end distribution is the ROADMAP's SLO
        // metric: p99 over session.replan_nanos is what a streaming
        // service would alert on — the scope records it (and flushes)
        // on every exit, error returns included
        let scope = self.ctx.scope("session.replan", "session.replan_nanos");
        self.params.validate()?;
        let drift_cap = (self.drift_limit * self.users.len().max(1) as f64).floor() as usize;
        let sink = self.ctx.sink().as_ref();
        let greedy = match self.delta.as_mut() {
            Some(delta) if self.churned <= drift_cap => {
                sink.counter_add("session.replans_delta", 1);
                let mut dirty = std::mem::take(&mut delta.dirty);
                dirty.sort_unstable();
                dirty.dedup();
                let (search, elapsed) = timed_greedy(sink, || {
                    run_greedy_warm(
                        &mut delta.ps,
                        &self.params,
                        self.greedy_mode,
                        sink,
                        &dirty,
                        delta.index.as_mut(),
                    )
                });
                let mut touched = dirty;
                touched.extend(search.moved);
                touched.sort_unstable();
                touched.dedup();
                delta.reprice(&self.params, &self.users, &touched);
                (search.outcome, elapsed)
            }
            _ => {
                sink.counter_add("session.replans_full", 1);
                let first = self.delta.is_none();
                sink.counter_add("session.rebuild_first", u64::from(first));
                sink.counter_add("session.rebuild_drift", u64::from(!first));
                let mut ps = PartSystem::new();
                for u in &self.users {
                    ps.add_user(&u.graph, &u.frontend.outcome, &u.frontend.cuts);
                }
                let greedy = timed_greedy(sink, || {
                    run_greedy_traced(&mut ps, &self.params, self.greedy_mode, sink)
                });
                let indexed = self.certificate
                    && self.greedy_mode == GreedyMode::Lazy
                    && MoveIndex::supports(&self.params);
                let plans = ps.plan();
                let rows = self
                    .users
                    .iter()
                    .zip(&plans)
                    .map(|(u, plan)| price_user(&self.params, &u.graph, plan))
                    .collect();
                self.delta = Some(DeltaState {
                    ps,
                    dirty: Vec::new(),
                    index: indexed.then(|| MoveIndex::new(self.users.len())),
                    plans,
                    rows,
                });
                greedy
            }
        };
        self.churned = 0;
        let delta = self.delta.as_ref().expect("placement set above");
        let (mut plan, mut rows, compression) = match slot.take() {
            Some(r) => (r.plan, r.evaluation.per_user, r.compression),
            None => Default::default(),
        };
        plan.clone_from(&delta.plans);
        rows.clone_from(&delta.rows);
        let evaluation = evaluate_rows(&self.params, rows);
        debug_assert!(
            delta.plans == delta.ps.plan()
                && mec_model::evaluate_plan_for(
                    &self.params,
                    self.users.iter().map(|u| u.graph.as_ref()),
                    &plan,
                )
                .is_ok_and(|oracle| oracle == evaluation),
            "cached plan rows diverged from evaluate_plan_for"
        );
        *slot = Some(OffloadReport::assemble(
            self.users.iter().map(|u| &u.frontend),
            compression,
            plan,
            evaluation,
            greedy,
            self.strategy.name(),
        ));
        sink.counter_add("session.replans", 1);
        scope.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Offloader;
    use mec_model::{Scenario, UserWorkload};
    use mec_netgen::NetgenSpec;

    fn graph(seed: u64) -> Arc<Graph> {
        Arc::new(NetgenSpec::new(90, 250).seed(seed).generate().unwrap())
    }

    #[test]
    fn session_matches_one_shot_solver() {
        let g1 = graph(1);
        let g2 = graph(2);
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", Arc::clone(&g1)).unwrap();
        session.join("b", Arc::clone(&g2)).unwrap();
        let via_session = session.replan().unwrap();

        let scenario = Scenario::new(SystemParams::default())
            .with_user(UserWorkload::new("a", g1))
            .with_user(UserWorkload::new("b", g2));
        let one_shot = Offloader::new().solve(&scenario).unwrap();
        assert_eq!(via_session.plan, one_shot.plan);
        assert!(
            (via_session.evaluation.totals.objective() - one_shot.evaluation.totals.objective())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn join_and_leave_bookkeeping() {
        let mut session = OffloadSession::new(SystemParams::default());
        assert_eq!(session.user_count(), 0);
        session.join("a", graph(1)).unwrap();
        session.join("b", graph(2)).unwrap();
        assert_eq!(session.user_count(), 2);
        assert!(session.contains("a"));
        assert!(session.leave("a"));
        assert!(!session.leave("a"));
        assert_eq!(session.user_count(), 1);
        assert!(!session.contains("a"));
    }

    #[test]
    fn rejoin_replaces_the_workload() {
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", graph(1)).unwrap();
        let before = session.replan().unwrap();
        // same name, different (larger) app
        session
            .join(
                "a",
                Arc::new(NetgenSpec::new(150, 450).seed(9).generate().unwrap()),
            )
            .unwrap();
        assert_eq!(session.user_count(), 1);
        let after = session.replan().unwrap();
        assert_ne!(before.plan[0].len(), after.plan[0].len());
    }

    #[test]
    fn churn_changes_the_objective_monotonically() {
        let mut session = OffloadSession::new(SystemParams::default());
        let mut last = 0.0;
        for i in 0..4u64 {
            session.join(format!("u{i}"), graph(10 + i)).unwrap();
            let obj = session.replan().unwrap().evaluation.totals.objective();
            assert!(obj > last, "objective must grow as the crowd grows");
            last = obj;
        }
        for i in 0..4u64 {
            assert!(session.leave(&format!("u{i}")));
            let report = session.replan().unwrap();
            assert!(report.evaluation.totals.objective() < last);
        }
        assert_eq!(session.user_count(), 0);
        assert!(session.replan().unwrap().plan.is_empty());
    }

    #[test]
    fn joined_session_reports_front_end_timings() {
        // regression: replan used to report zero compression/cutting
        // time, silently dropping the work done in join
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", graph(5)).unwrap();
        session.join("b", graph(6)).unwrap();
        let report = session.replan().unwrap();
        assert!(
            report.timings.compression > std::time::Duration::ZERO,
            "compression time spent at join must surface in the report"
        );
        assert!(
            report.timings.cutting > std::time::Duration::ZERO,
            "cutting time spent at join must surface in the report"
        );
        // leaving a user drops their cached front-end time too
        session.leave("a");
        let after = session.replan().unwrap();
        assert!(after.timings.compression < report.timings.compression);
    }

    #[test]
    fn join_many_matches_repeated_joins() {
        let batch: Vec<(String, Arc<Graph>)> = (0..4u64)
            .map(|i| (format!("u{i}"), graph(20 + i)))
            .collect();

        let mut serial = OffloadSession::new(SystemParams::default());
        for (name, g) in &batch {
            serial.join(name.clone(), Arc::clone(g)).unwrap();
        }
        let mut batched = OffloadSession::new(SystemParams::default());
        batched.join_many(batch.clone()).unwrap();
        assert_eq!(
            serial.replan().unwrap().plan,
            batched.replan().unwrap().plan
        );

        let cluster = Arc::new(mec_engine::Cluster::new(2).unwrap());
        let mut clustered = OffloadSession::new(SystemParams::default()).with_cluster(cluster);
        clustered.join_many(batch).unwrap();
        assert_eq!(
            serial.replan().unwrap().plan,
            clustered.replan().unwrap().plan
        );
    }

    #[test]
    fn join_many_replaces_duplicates_like_join_does() {
        let small = graph(1);
        let big = Arc::new(NetgenSpec::new(150, 450).seed(9).generate().unwrap());
        let mut session = OffloadSession::new(SystemParams::default());
        session
            .join_many([
                ("a".to_string(), Arc::clone(&small)),
                ("b".to_string(), Arc::clone(&small)),
                // later duplicate in the same batch wins
                ("a".to_string(), Arc::clone(&big)),
            ])
            .unwrap();
        assert_eq!(session.user_count(), 2);
        let report = session.replan().unwrap();
        assert_eq!(report.plan[0].len(), big.node_count());
    }

    #[test]
    fn leave_many_matches_repeated_leaves() {
        let mut batched = OffloadSession::new(SystemParams::default());
        let mut serial = OffloadSession::new(SystemParams::default());
        for i in 0..5u64 {
            batched.join(format!("u{i}"), graph(30 + i)).unwrap();
            serial.join(format!("u{i}"), graph(30 + i)).unwrap();
        }
        // converge both so the batch departure exercises the persisted
        // placement's order-preserving removal
        batched.replan().unwrap();
        serial.replan().unwrap();
        // unknown names and duplicates are skipped, not counted
        assert_eq!(batched.leave_many(["u1", "u3", "u1", "ghost"]), 2);
        assert!(serial.leave("u1"));
        assert!(serial.leave("u3"));
        assert_eq!(batched.user_count(), 3);
        assert_eq!(
            batched.replan().unwrap().plan,
            serial.replan().unwrap().plan
        );
        assert_eq!(batched.leave_many(Vec::<String>::new()), 0);
    }

    #[test]
    fn zero_drift_limit_replans_match_the_one_shot_solver() {
        let mut delta = OffloadSession::new(SystemParams::default());
        let mut strict = OffloadSession::new(SystemParams::default()).with_drift_limit(0.0);
        for i in 0..6u64 {
            delta.join(format!("u{i}"), graph(40 + i)).unwrap();
            strict.join(format!("u{i}"), graph(40 + i)).unwrap();
        }
        let one_shot = |users: &[u64]| {
            let scenario = users
                .iter()
                .fold(Scenario::new(SystemParams::default()), |s, &i| {
                    s.with_user(UserWorkload::new(format!("u{i}"), graph(40 + i)))
                });
            Offloader::new().solve(&scenario).unwrap()
        };
        // the first replan has no placement to warm-start from: both
        // sessions rebuild, bit-identical to the one-shot solver
        let reference = one_shot(&[0, 1, 2, 3, 4, 5]);
        for report in [delta.replan().unwrap(), strict.replan().unwrap()] {
            assert_eq!(report.plan, reference.plan);
            assert_eq!(
                report.evaluation.totals.objective().to_bits(),
                reference.evaluation.totals.objective().to_bits()
            );
        }
        // a zero drift limit rebuilds after any churn, so it keeps
        // exact parity with the one-shot solver
        strict.leave("u2");
        let after = strict.replan().unwrap();
        let reference = one_shot(&[0, 1, 3, 4, 5]);
        assert_eq!(after.plan, reference.plan);
        assert_eq!(
            after.evaluation.totals.objective().to_bits(),
            reference.evaluation.totals.objective().to_bits()
        );
    }

    /// splitmix64 for seeded churn streams.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Plays one seeded churn stream (joins, leaves, resubmits, one or
    /// two events per replan) into a certified session and a
    /// rescan-only one, and requires every replan to agree bit for
    /// bit: plan, evaluation, objective and move count. Returns how
    /// many warm replans the certificate settled.
    fn certified_matches_rescan(seed: u64, params: SystemParams, cluster: bool) -> u64 {
        let sink = Arc::new(mec_obs::Recorder::new());
        let mut certified =
            OffloadSession::new(params).with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let mut rescan = OffloadSession::new(params).without_certificate();
        if cluster {
            let pool = Arc::new(Cluster::new(2).unwrap());
            certified = certified.with_cluster(Arc::clone(&pool));
            rescan = rescan.with_cluster(pool);
        }
        let mut rng = seed;
        let mut crowd: Vec<String> = Vec::new();
        let mut next_user = 0u64;
        for step in 0..40 {
            let roll = next(&mut rng) % 10;
            if crowd.len() < 4 || roll < 4 {
                let name = format!("u{next_user}");
                let g = Arc::new(
                    NetgenSpec::new(30 + (next_user % 5) as usize * 8, 90)
                        .seed(seed * 1000 + next_user)
                        .generate()
                        .unwrap(),
                );
                next_user += 1;
                certified.join(name.clone(), Arc::clone(&g)).unwrap();
                rescan.join(name.clone(), g).unwrap();
                crowd.push(name);
            } else if roll < 7 {
                let victim = crowd.remove((next(&mut rng) % crowd.len() as u64) as usize);
                assert!(certified.leave(&victim));
                assert!(rescan.leave(&victim));
            } else {
                let who = crowd[(next(&mut rng) % crowd.len() as u64) as usize].clone();
                let g = graph(500 + next(&mut rng) % 32);
                certified.join(who.clone(), Arc::clone(&g)).unwrap();
                rescan.join(who, g).unwrap();
            }
            if step % 3 != 1 {
                let a = certified.replan().unwrap();
                let b = rescan.replan().unwrap();
                let context = format!("seed {seed}, step {step}");
                assert_eq!(a.plan, b.plan, "{context}: plan diverged");
                assert_eq!(a.evaluation, b.evaluation, "{context}");
                assert_eq!(
                    a.evaluation.totals.objective().to_bits(),
                    b.evaluation.totals.objective().to_bits(),
                    "{context}: objective"
                );
                assert_eq!(a.greedy.moves, b.greedy.moves, "{context}: moves");
                assert_eq!(
                    a.greedy.final_objective.to_bits(),
                    b.greedy.final_objective.to_bits(),
                    "{context}"
                );
            }
        }
        sink.counter_value("greedy.certified")
    }

    #[test]
    fn certified_warm_replans_match_the_rescan_only_path() {
        let mut certified = 0;
        for seed in [1u64, 8, 23] {
            certified += certified_matches_rescan(seed, SystemParams::default(), false);
        }
        let contended = SystemParams {
            server_capacity: 300.0,
            allocation: mec_model::AllocationPolicy::ProportionalToLoad,
            ..SystemParams::default()
        };
        certified += certified_matches_rescan(5, contended, false);
        assert!(certified > 0, "no warm replan used the certificate");
    }

    #[test]
    fn certified_warm_replans_match_the_rescan_only_path_on_the_cluster() {
        assert!(certified_matches_rescan(13, SystemParams::default(), true) > 0);
    }

    #[test]
    fn rebuild_causes_are_counted() {
        let sink = Arc::new(mec_obs::Recorder::new());
        let mut session = OffloadSession::new(SystemParams::default())
            .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        for i in 0..8u64 {
            session.join(format!("u{i}"), graph(60 + i)).unwrap();
        }
        session.replan().unwrap();
        // one event on seven users: inside the default 0.25 drift
        session.leave("u0");
        session.replan().unwrap();
        // three events on ten users: a drift rebuild
        for i in 10..13u64 {
            session.join(format!("u{i}"), graph(60 + i)).unwrap();
        }
        session.replan().unwrap();
        assert_eq!(sink.counter_value("session.rebuild_first"), 1);
        assert_eq!(sink.counter_value("session.rebuild_drift"), 1);
        assert_eq!(sink.counter_value("session.replans_full"), 2);
        assert_eq!(sink.counter_value("session.replans_delta"), 1);
        assert_eq!(
            sink.counter_value("greedy.certified")
                + sink.counter_value("greedy.certificate_fallbacks"),
            1
        );
    }

    #[test]
    fn replan_is_deterministic() {
        let mut session = OffloadSession::new(SystemParams::default());
        session.join("a", graph(3)).unwrap();
        session.join("b", graph(4)).unwrap();
        let x = session.replan().unwrap();
        let y = session.replan().unwrap();
        assert_eq!(x.plan, y.plan);
    }
}
