//! Sharded streaming service: one edge site, many sessions.
//!
//! A warm [`OffloadSession`] replan prices `O(churn)` candidates and
//! re-prices only the touched users, but it still does `O(users)`
//! scalar work: it re-derives the greedy's objective aggregates, runs
//! the server-share pass over the cached cost rows and copies the plan
//! into its report. A cell tracking 10⁵–10⁶ users therefore still
//! wants the crowd split. [`OffloadService`] hashes users across `K`
//! session shards, each with its own [`ExecCtx`]; a churn event dirties
//! exactly one shard, and [`replan`](OffloadService::replan) re-solves
//! **only the dirty shards**, reusing each clean shard's cached report.
//! The edge server's capacity is partitioned evenly across shards
//! (`server_capacity / K` per shard), which approximates the
//! full-crowd coupling by letting users contend only within their
//! shard — the standard shard-local relaxation; at the crowd sizes the
//! service targets every shard is busy, so the per-shard sharer count
//! tracks the global one.
//!
//! Every event records a `service.*_nanos` histogram and bumps a
//! `service.*` counter on the service sink, mirroring the session's
//! own `session.*` telemetry one level up.

use crate::exec::duration_sample;
use crate::greedy::GreedyMode;
use crate::session::OffloadSession;
use crate::strategy::StrategyKind;
use crate::{OffloadReport, PipelineError};
use mec_engine::Cluster;
use mec_graph::Graph;
use mec_labelprop::CompressionConfig;
use mec_model::SystemParams;
use mec_obs::{span, FieldValue, TraceSink};
use std::sync::Arc;

/// One session shard plus its replan cache.
struct Shard {
    session: OffloadSession,
    /// Set by any churn event routed here; cleared when
    /// [`OffloadService::replan`] re-solves the shard.
    dirty: bool,
    /// The shard's report from the last replan that touched it.
    cached: Option<OffloadReport>,
}

/// The crowd-consistent aggregate over all shards.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ServiceReport {
    /// Users tracked across every shard.
    pub users: usize,
    /// Summed objective `E + T` over all shards.
    pub objective: f64,
    /// Summed energy term.
    pub energy: f64,
    /// Summed time term.
    pub time: f64,
    /// Shards re-solved by this replan (the rest served their cache).
    pub replanned_shards: usize,
    /// Total shard count.
    pub shards: usize,
}

/// A sharded, long-lived offloading service.
///
/// # Example
///
/// ```
/// use copmecs_core::OffloadService;
/// use mec_model::SystemParams;
/// use mec_netgen::NetgenSpec;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut service = OffloadService::new(SystemParams::default(), 4);
/// for i in 0..16u64 {
///     let g = Arc::new(NetgenSpec::new(40, 100).seed(i).generate()?);
///     service.join(format!("user-{i}"), g)?;
/// }
/// let report = service.replan()?;
/// assert_eq!(report.users, 16);
/// service.leave("user-3");
/// // only user-3's shard is dirty: the other shards serve their cache
/// let after = service.replan()?;
/// assert!(after.objective < report.objective);
/// # Ok(())
/// # }
/// ```
pub struct OffloadService {
    shards: Vec<Shard>,
    sink: Arc<dyn TraceSink>,
}

impl OffloadService {
    /// A service with `shards` default-configured sessions (spectral
    /// strategy, lazy greedy, delta replanning), splitting
    /// `params.server_capacity` evenly across shards.
    pub fn new(params: SystemParams, shards: usize) -> Self {
        Self::with_config(
            params,
            CompressionConfig::default(),
            StrategyKind::Spectral,
            GreedyMode::Lazy,
            shards,
        )
    }

    /// A fully configured service. `shards` is clamped to at least 1.
    pub fn with_config(
        params: SystemParams,
        compression: CompressionConfig,
        strategy: StrategyKind,
        greedy_mode: GreedyMode,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        let mut shard_params = params;
        shard_params.server_capacity = params.server_capacity / shards as f64;
        let shards = (0..shards)
            .map(|_| Shard {
                session: OffloadSession::with_config(
                    shard_params,
                    compression.clone(),
                    strategy.clone(),
                    greedy_mode,
                ),
                dirty: false,
                cached: None,
            })
            .collect();
        OffloadService {
            shards,
            sink: mec_obs::null_sink(),
        }
    }

    /// Runs every shard's admissions on `cluster` (the shards share
    /// the pool; each keeps its own [`ExecCtx`] wrapper).
    pub fn with_cluster(mut self, cluster: Arc<Cluster>) -> Self {
        for shard in &mut self.shards {
            let session = std::mem::replace(
                &mut shard.session,
                OffloadSession::new(SystemParams::default()),
            );
            shard.session = session.with_cluster(Arc::clone(&cluster));
        }
        self
    }

    /// Routes service-level telemetry (`service.*` counters, events and
    /// histograms) **and** every shard session's telemetry to `sink`.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        for shard in &mut self.shards {
            let session = std::mem::replace(
                &mut shard.session,
                OffloadSession::new(SystemParams::default()),
            );
            shard.session = session.with_trace_sink(Arc::clone(&sink));
        }
        self.sink = sink;
        self
    }

    /// Sets every shard session's delta-replan drift bound.
    pub fn with_drift_limit(mut self, limit: f64) -> Self {
        for shard in &mut self.shards {
            let session = std::mem::replace(
                &mut shard.session,
                OffloadSession::new(SystemParams::default()),
            );
            shard.session = session.with_drift_limit(limit);
        }
        self
    }

    /// Number of session shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Users tracked across all shards.
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(|s| s.session.user_count()).sum()
    }

    /// `true` if the user's home shard tracks them.
    pub fn contains(&self, name: &str) -> bool {
        self.shards[self.route(name)].session.contains(name)
    }

    /// The shard index `name` hashes to.
    pub fn shard_of(&self, name: &str) -> usize {
        self.route(name)
    }

    /// The last report computed for shard `i`, if it has ever been
    /// replanned (`None` for out-of-range `i` too).
    pub fn shard_report(&self, i: usize) -> Option<&OffloadReport> {
        self.shards.get(i).and_then(|s| s.cached.as_ref())
    }

    /// FNV-1a over the user name — stable across runs, so benchmarks
    /// and tests shard deterministically.
    fn route(&self, name: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Admits (or, for a known name, replaces) a user on their home
    /// shard and marks it dirty.
    ///
    /// # Errors
    ///
    /// Whatever [`OffloadSession::join`] reports; on error the shard
    /// is unchanged and stays clean.
    pub fn join(
        &mut self,
        name: impl Into<String>,
        graph: Arc<Graph>,
    ) -> Result<(), PipelineError> {
        let name = name.into();
        let s = span(self.sink.as_ref(), "service.join");
        let shard = self.route(&name);
        let result = self.shards[shard].session.join(name, graph);
        if result.is_ok() {
            self.shards[shard].dirty = true;
            self.sink.counter_add("service.joins", 1);
        }
        self.sink
            .histogram_record("service.join_nanos", duration_sample(s.finish()));
        result
    }

    /// Admits a batch, fanning it out into one
    /// [`OffloadSession::join_many`] per home shard. Shards join
    /// all-or-nothing individually, but a failure in one shard's batch
    /// does not roll back shards already admitted; the first error (in
    /// shard order) is returned.
    ///
    /// # Errors
    ///
    /// Whatever [`OffloadSession::join_many`] reports.
    pub fn join_many(
        &mut self,
        users: impl IntoIterator<Item = (String, Arc<Graph>)>,
    ) -> Result<(), PipelineError> {
        let s = span(self.sink.as_ref(), "service.join_many");
        let mut per_shard: Vec<Vec<(String, Arc<Graph>)>> = vec![Vec::new(); self.shards.len()];
        let mut joined = 0u64;
        for (name, graph) in users {
            per_shard[self.route(&name)].push((name, graph));
            joined += 1;
        }
        let mut result = Ok(());
        for (i, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            match self.shards[i].session.join_many(batch) {
                Ok(()) => self.shards[i].dirty = true,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if result.is_ok() {
            self.sink.counter_add("service.joins", joined);
        }
        self.sink
            .histogram_record("service.join_many_nanos", duration_sample(s.finish()));
        result
    }

    /// Re-submits a known user's (possibly changed) workload: their
    /// home shard re-runs the front-end and re-seats the slot in
    /// place. Returns `Ok(false)` — without admitting — when the user
    /// is unknown, so callers can distinguish churn from arrival.
    ///
    /// # Errors
    ///
    /// Whatever [`OffloadSession::join`] reports.
    pub fn resubmit(
        &mut self,
        name: impl Into<String>,
        graph: Arc<Graph>,
    ) -> Result<bool, PipelineError> {
        let name = name.into();
        let s = span(self.sink.as_ref(), "service.resubmit");
        let shard = self.route(&name);
        if !self.shards[shard].session.contains(&name) {
            self.sink
                .histogram_record("service.resubmit_nanos", duration_sample(s.finish()));
            return Ok(false);
        }
        let result = self.shards[shard].session.join(name, graph);
        if result.is_ok() {
            self.shards[shard].dirty = true;
            self.sink.counter_add("service.resubmits", 1);
        }
        self.sink
            .histogram_record("service.resubmit_nanos", duration_sample(s.finish()));
        result.map(|()| true)
    }

    /// Removes a user from their home shard; `false` when unknown.
    pub fn leave(&mut self, name: &str) -> bool {
        let s = span(self.sink.as_ref(), "service.leave");
        let shard = self.route(name);
        let left = self.shards[shard].session.leave(name);
        if left {
            self.shards[shard].dirty = true;
            self.sink.counter_add("service.leaves", 1);
        }
        self.sink
            .histogram_record("service.leave_nanos", duration_sample(s.finish()));
        left
    }

    /// Removes a batch of users, one [`OffloadSession::leave_many`]
    /// call per home shard. Returns how many actually left.
    pub fn leave_many<I, S>(&mut self, names: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let s = span(self.sink.as_ref(), "service.leave_many");
        let mut per_shard: Vec<Vec<String>> = vec![Vec::new(); self.shards.len()];
        for name in names {
            let name = name.as_ref();
            per_shard[self.route(name)].push(name.to_string());
        }
        let mut left = 0;
        for (i, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let removed = self.shards[i].session.leave_many(batch);
            if removed > 0 {
                self.shards[i].dirty = true;
            }
            left += removed;
        }
        if left > 0 {
            self.sink.counter_add("service.leaves", left as u64);
        }
        self.sink
            .histogram_record("service.leave_many_nanos", duration_sample(s.finish()));
        left
    }

    /// Re-plans every **dirty** shard (clean shards serve their cached
    /// report) and aggregates the crowd-consistent totals.
    ///
    /// # Errors
    ///
    /// The first failing shard's error; shards replanned before it
    /// keep their fresh caches.
    pub fn replan(&mut self) -> Result<ServiceReport, PipelineError> {
        let s = span(self.sink.as_ref(), "service.replan");
        let mut replanned = 0usize;
        for shard in &mut self.shards {
            if shard.dirty || shard.cached.is_none() {
                shard.session.replan_into(&mut shard.cached)?;
                shard.dirty = false;
                replanned += 1;
            }
        }
        let mut report = ServiceReport {
            users: 0,
            objective: 0.0,
            energy: 0.0,
            time: 0.0,
            replanned_shards: replanned,
            shards: self.shards.len(),
        };
        for shard in &self.shards {
            let cached = shard.cached.as_ref().expect("every shard replanned above");
            report.users += shard.session.user_count();
            report.energy += cached.evaluation.totals.energy;
            report.time += cached.evaluation.totals.time;
            report.objective += cached.evaluation.totals.objective();
        }
        self.sink.counter_add("service.replans", 1);
        if self.sink.enabled() {
            self.sink.event(
                "service.replan",
                &[
                    ("users", FieldValue::from(report.users)),
                    ("replanned_shards", FieldValue::from(replanned)),
                ],
            );
        }
        self.sink
            .histogram_record("service.replan_nanos", duration_sample(s.finish()));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_netgen::NetgenSpec;

    fn graph(seed: u64) -> Arc<Graph> {
        Arc::new(NetgenSpec::new(60, 160).seed(seed).generate().unwrap())
    }

    fn filled(shards: usize, users: u64) -> OffloadService {
        let mut service = OffloadService::new(SystemParams::default(), shards);
        for i in 0..users {
            service.join(format!("u{i}"), graph(i + 1)).unwrap();
        }
        service
    }

    #[test]
    fn routes_users_deterministically() {
        let service = filled(4, 12);
        let other = filled(4, 12);
        for i in 0..12 {
            let name = format!("u{i}");
            assert_eq!(service.shard_of(&name), other.shard_of(&name));
            assert!(service.contains(&name));
        }
        assert_eq!(service.user_count(), 12);
        assert!(!service.contains("ghost"));
    }

    #[test]
    fn replan_only_touches_dirty_shards() {
        let mut service = filled(4, 16);
        let first = service.replan().unwrap();
        assert_eq!(first.replanned_shards, 4);
        assert_eq!(first.users, 16);

        // no churn: everything served from cache
        let idle = service.replan().unwrap();
        assert_eq!(idle.replanned_shards, 0);
        assert_eq!(idle.objective, first.objective);

        // one departure dirties exactly one shard
        assert!(service.leave("u5"));
        let after = service.replan().unwrap();
        assert_eq!(after.replanned_shards, 1);
        assert_eq!(after.users, 15);
        assert!(after.objective < first.objective);
    }

    #[test]
    fn aggregate_matches_shard_reports() {
        let mut service = filled(3, 9);
        let report = service.replan().unwrap();
        let mut objective = 0.0;
        let mut users = 0;
        for i in 0..service.shard_count() {
            let shard = service.shard_report(i).expect("replanned");
            objective += shard.evaluation.totals.objective();
            users += shard.plan.len();
        }
        assert_eq!(users, report.users);
        assert!((objective - report.objective).abs() < 1e-9);
        assert!(service.shard_report(99).is_none());
    }

    #[test]
    fn resubmit_reseats_known_users_only() {
        let mut service = filled(2, 4);
        service.replan().unwrap();
        assert!(!service.resubmit("ghost", graph(50)).unwrap());
        assert_eq!(service.user_count(), 4);
        let bigger = Arc::new(NetgenSpec::new(120, 360).seed(77).generate().unwrap());
        assert!(service.resubmit("u2", bigger.clone()).unwrap());
        assert_eq!(service.user_count(), 4);
        let report = service.replan().unwrap();
        assert_eq!(report.replanned_shards, 1);
        let home = service.shard_of("u2");
        let shard = service.shard_report(home).unwrap();
        assert!(shard.plan.iter().any(|p| p.len() == bigger.node_count()));
    }

    #[test]
    fn batched_entrypoints_match_singles() {
        let mut singles = filled(3, 8);
        let mut batched = OffloadService::new(SystemParams::default(), 3);
        batched
            .join_many((0..8u64).map(|i| (format!("u{i}"), graph(i + 1))))
            .unwrap();
        assert_eq!(singles.user_count(), batched.user_count());
        let a = singles.replan().unwrap();
        let b = batched.replan().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);

        assert_eq!(singles.leave_many(["u0", "u3", "ghost"]), 2);
        assert!(batched.leave("u0"));
        assert!(batched.leave("u3"));
        let a = singles.replan().unwrap();
        let b = batched.replan().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);
        assert_eq!(a.users, 6);
    }
}
