//! The end-to-end pipeline driver.

use crate::exec::{duration_sample, ExecCtx};
use crate::frontend::{prepare_users, FrontEnd};
use crate::greedy::{run_greedy_traced, GreedyMode, GreedyOutcome};
use crate::parts::PartSystem;
use crate::strategy::{CutStrategy, StrategyKind};
use crate::PipelineError;
use mec_engine::Cluster;
use mec_graph::Bipartition;
use mec_labelprop::{CompressionConfig, CompressionStats, Compressor};
use mec_model::{Evaluation, Scenario};
use mec_obs::{span, TraceSink};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock time spent in each pipeline stage — the quantity Fig. 9
/// plots against graph size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Graph compression (Algorithm 1).
    pub compression: Duration,
    /// Minimum-cut searches over all compressed components.
    pub cutting: Duration,
    /// Greedy scheme generation (Algorithm 2).
    pub greedy: Duration,
}

impl StageTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.compression + self.cutting + self.greedy
    }
}

/// Everything the pipeline produces for one scenario.
#[derive(Debug, Clone)]
pub struct OffloadReport {
    /// One partition per user (pinned functions always local).
    pub plan: Vec<Bipartition>,
    /// The plan priced by the MEC model.
    pub evaluation: Evaluation,
    /// Compression statistics per user (Table I's columns).
    pub compression: Vec<CompressionStats>,
    /// Statistics from the greedy stage.
    pub greedy: GreedyOutcome,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Name of the cut strategy that produced the plan.
    pub strategy: &'static str,
}

impl OffloadReport {
    /// Total functions offloaded across all users.
    pub fn offloaded_count(&self) -> usize {
        self.plan
            .iter()
            .map(|p| p.count_on(mec_graph::Side::Remote))
            .sum()
    }

    /// Renders a human-readable multi-line summary (used by the
    /// examples and handy in logs).
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = &self.evaluation.totals;
        let _ = writeln!(out, "strategy: {}", self.strategy);
        let _ = writeln!(
            out,
            "objective E+T = {:.3}  (E = {:.3}, T = {:.3})",
            t.objective(),
            t.energy,
            t.time
        );
        let _ = writeln!(
            out,
            "energy: local {:.3} + transmission {:.3}",
            t.local_energy, t.tx_energy
        );
        let _ = writeln!(
            out,
            "time:   local {:.3} + server {:.3} + transmission {:.3}",
            t.local_time, t.remote_time, t.tx_time
        );
        let total_nodes: usize = self.plan.iter().map(mec_graph::Bipartition::len).sum();
        let _ = writeln!(
            out,
            "placement: {} of {} functions offloaded across {} users",
            self.offloaded_count(),
            total_nodes,
            self.plan.len()
        );
        let compressed: usize = self.compression.iter().map(|c| c.compressed_nodes).sum();
        let offloadable: usize = self.compression.iter().map(|c| c.offloadable_nodes).sum();
        let _ = writeln!(
            out,
            "compression: {offloadable} offloadable functions -> {compressed} super-nodes"
        );
        let _ = writeln!(
            out,
            "greedy: {} moves, {} evaluations, {:.3} -> {:.3}",
            self.greedy.moves,
            self.greedy.evaluations,
            self.greedy.initial_objective,
            self.greedy.final_objective
        );
        let _ = write!(
            out,
            "timings: compression {:.1} ms, cuts {:.1} ms, greedy {:.1} ms",
            self.timings.compression.as_secs_f64() * 1e3,
            self.timings.cutting.as_secs_f64() * 1e3,
            self.timings.greedy.as_secs_f64() * 1e3
        );
        out
    }

    /// The one report assembly every solve and replan path shares:
    /// sums the crowd's cached front-end timings (in user order) next
    /// to the greedy stage's and collects the per-user compression
    /// statistics (into `compression`, whose contents are replaced)
    /// around the priced plan.
    pub(crate) fn assemble<'a>(
        users: impl ExactSizeIterator<Item = &'a FrontEnd>,
        mut compression: Vec<CompressionStats>,
        plan: Vec<Bipartition>,
        evaluation: Evaluation,
        (greedy, greedy_time): (GreedyOutcome, Duration),
        strategy: &'static str,
    ) -> OffloadReport {
        let mut timings = StageTimings {
            greedy: greedy_time,
            ..StageTimings::default()
        };
        compression.clear();
        compression.reserve(users.len());
        for fe in users {
            timings.compression += fe.compression;
            timings.cutting += fe.cutting;
            compression.push(fe.outcome.stats);
        }
        OffloadReport {
            plan,
            evaluation,
            compression,
            greedy,
            timings,
            strategy,
        }
    }
}

/// Runs one greedy stage under a `stage.greedy` span, records its
/// `stage.greedy_nanos` sample, and returns the result with its wall
/// time.
pub(crate) fn timed_greedy<T>(sink: &dyn TraceSink, greedy: impl FnOnce() -> T) -> (T, Duration) {
    let s = span(sink, "stage.greedy");
    let outcome = greedy();
    let elapsed = s.finish();
    sink.histogram_record("stage.greedy_nanos", duration_sample(elapsed));
    (outcome, elapsed)
}

/// Configures and builds an [`Offloader`].
#[derive(Default)]
pub struct OffloaderBuilder {
    compression: CompressionConfig,
    strategy: StrategyKind,
    greedy_mode: GreedyMode,
    sink: Option<Arc<dyn TraceSink>>,
    cluster: Option<Arc<Cluster>>,
    seed: u64,
}

impl OffloaderBuilder {
    /// Sets the compression configuration (Algorithm 1 knobs).
    pub fn compression(mut self, config: CompressionConfig) -> Self {
        self.compression = config;
        self
    }

    /// Selects one of the built-in cut strategies.
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy = kind;
        self
    }

    /// Selects the greedy driver (defaults to [`GreedyMode::Lazy`]).
    pub fn greedy_mode(mut self, mode: GreedyMode) -> Self {
        self.greedy_mode = mode;
        self
    }

    /// Routes all pipeline telemetry — stage spans, label-propagation
    /// rounds, eigensolver counters, the greedy objective trajectory —
    /// to `sink` (defaults to the no-op [`mec_obs::NullSink`]).
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Distributes the per-user front-end (compression + cuts) over
    /// `cluster`: [`solve`](Offloader::solve) then runs one stage task
    /// per user instead of a serial loop. Plans are bit-identical to
    /// the serial path at every worker count.
    pub fn cluster(mut self, cluster: Arc<Cluster>) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Sets the RNG seed carried by the contexts this offloader builds
    /// ([`Offloader::exec_ctx`]); see [`ExecCtx::with_seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the offloader.
    pub fn build(self) -> Offloader {
        let sink = self.sink.unwrap_or_else(mec_obs::null_sink);
        Offloader {
            compressor: Compressor::new(self.compression),
            strategy: self.strategy.build_with_sink(Arc::clone(&sink)),
            greedy_mode: self.greedy_mode,
            sink,
            cluster: self.cluster,
            seed: self.seed,
        }
    }

    /// Builds with a custom cut backend instead of a
    /// [`StrategyKind`].
    pub fn build_with_strategy(self, strategy: Box<dyn CutStrategy>) -> Offloader {
        Offloader {
            compressor: Compressor::new(self.compression),
            strategy,
            greedy_mode: self.greedy_mode,
            sink: self.sink.unwrap_or_else(mec_obs::null_sink),
            cluster: self.cluster,
            seed: self.seed,
        }
    }
}

/// The paper's offloading solver: compression → minimum cuts → greedy
/// scheme generation.
pub struct Offloader {
    compressor: Compressor,
    strategy: Box<dyn CutStrategy>,
    greedy_mode: GreedyMode,
    sink: Arc<dyn TraceSink>,
    cluster: Option<Arc<Cluster>>,
    seed: u64,
}

impl Offloader {
    /// Starts building an offloader.
    pub fn builder() -> OffloaderBuilder {
        OffloaderBuilder::default()
    }

    /// An offloader with all defaults (spectral strategy, default
    /// compression, lazy greedy).
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// The active cut strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Runs the scenario through all three of the paper's strategies
    /// and returns the reports in `[spectral, max-flow, KL]` order —
    /// the comparison behind the paper's Figs. 3–8, as one call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](Self::solve); the first failing
    /// strategy aborts the comparison.
    pub fn compare_strategies(scenario: &Scenario) -> Result<Vec<OffloadReport>, PipelineError> {
        [
            StrategyKind::Spectral,
            StrategyKind::MaxFlow,
            StrategyKind::KernighanLin,
        ]
        .into_iter()
        .map(|kind| Offloader::builder().strategy(kind).build().solve(scenario))
        .collect()
    }

    /// Convenience wrapper: solves a single-user scenario built from
    /// `graph` with default system parameters and returns the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](Self::solve).
    pub fn solve_single(&self, graph: &mec_graph::Graph) -> Result<OffloadReport, PipelineError> {
        let scenario = Scenario::new(mec_model::SystemParams::default())
            .with_user(mec_model::UserWorkload::new("user", graph.clone()));
        self.solve(&scenario)
    }

    /// The execution context this offloader's configuration implies: a
    /// cluster backend when one was set via
    /// [`OffloaderBuilder::cluster`] (serial otherwise), the builder's
    /// trace sink, and its seed. Hold one across repeated
    /// [`solve_with`](Self::solve_with) calls to reuse the serial
    /// scratch arena between solves.
    pub fn exec_ctx(&self) -> ExecCtx {
        let mut ctx = ExecCtx::serial()
            .with_sink(Arc::clone(&self.sink))
            .with_seed(self.seed);
        if let Some(cluster) = &self.cluster {
            ctx = ctx.into_cluster(Arc::clone(cluster));
        }
        ctx
    }

    /// Solves the offloading problem for every user of `scenario`
    /// jointly (the greedy stage sees the shared server).
    ///
    /// Builds a fresh context from the offloader's configuration
    /// ([`exec_ctx`](Self::exec_ctx)) and runs
    /// [`solve_with`](Self::solve_with): a cluster configured via
    /// [`OffloaderBuilder::cluster`] fans the per-user front-end out as
    /// one stage task per user, otherwise users are walked serially.
    /// Both backends produce bit-identical plans.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cut`] if a compressed component cannot be
    /// bipartitioned; [`PipelineError::Engine`] if a distributed stage
    /// failed; [`PipelineError::Model`] only on internal invariant
    /// violations.
    pub fn solve(&self, scenario: &Scenario) -> Result<OffloadReport, PipelineError> {
        self.solve_with(&mut self.exec_ctx(), scenario)
    }

    /// [`solve`](Self::solve) under a caller-owned [`ExecCtx`] — the
    /// single implementation every solve entry point dispatches
    /// through. The context decides where the per-user front-end runs
    /// (serial with the ctx-owned cut arena, or one cluster stage task
    /// per user, reassembled in user order before the inherently joint
    /// greedy stage) and where telemetry goes; the RAII context scope
    /// finishes the `pipeline.solve` span, records
    /// `pipeline.solve_nanos`, and flushes the sink on *every* exit,
    /// including error returns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve`](Self::solve).
    pub fn solve_with(
        &self,
        ctx: &mut ExecCtx,
        scenario: &Scenario,
    ) -> Result<OffloadReport, PipelineError> {
        let scope = ctx.scope("pipeline.solve", "pipeline.solve_nanos");
        let graphs: Vec<_> = scenario.users().iter().map(|u| u.graph_arc()).collect();
        let prepared = prepare_users(ctx, &self.compressor, self.strategy.as_ref(), graphs)?;
        let report = self.assemble(scenario, prepared, ctx.sink().as_ref());
        scope.finish();
        report
    }

    /// The joint back half of the pipeline: registers every prepared
    /// front-end in user order and runs the greedy stage over the
    /// shared server. Telemetry goes to the execution context's sink.
    fn assemble(
        &self,
        scenario: &Scenario,
        prepared: Vec<FrontEnd>,
        sink: &dyn TraceSink,
    ) -> Result<OffloadReport, PipelineError> {
        let mut parts = PartSystem::new();
        for (user, fe) in scenario.users().iter().zip(&prepared) {
            parts.add_user(user.graph(), &fe.outcome, &fe.cuts);
        }
        let greedy = timed_greedy(sink, || {
            run_greedy_traced(&mut parts, scenario.params(), self.greedy_mode, sink)
        });
        let plan = parts.plan();
        let evaluation = scenario.evaluate(&plan)?;
        Ok(OffloadReport::assemble(
            prepared.iter(),
            Vec::new(),
            plan,
            evaluation,
            greedy,
            self.strategy.name(),
        ))
    }
}

impl Default for Offloader {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_graph::Side;
    use mec_model::{SystemParams, UserWorkload};
    use mec_netgen::NetgenSpec;

    fn scenario(users: usize, seed: u64) -> Scenario {
        let mut s = Scenario::new(SystemParams::default());
        for i in 0..users {
            let g = NetgenSpec::new(80, 220)
                .seed(seed + i as u64)
                .generate()
                .unwrap();
            s = s.with_user(UserWorkload::new(format!("u{i}"), g));
        }
        s
    }

    #[test]
    fn produces_valid_plans_for_all_strategies() {
        let s = scenario(2, 1);
        for kind in [
            StrategyKind::Spectral,
            StrategyKind::MaxFlow,
            StrategyKind::KernighanLin,
        ] {
            let report = Offloader::builder()
                .strategy(kind)
                .build()
                .solve(&s)
                .unwrap();
            assert_eq!(report.plan.len(), 2);
            assert_eq!(s.validate_plan(&report.plan), Ok(()));
            assert!(report.evaluation.totals.objective() > 0.0);
        }
    }

    #[test]
    fn never_worse_than_all_local() {
        let s = scenario(3, 5);
        let report = Offloader::new().solve(&s).unwrap();
        let all_local: Vec<_> = s.users().iter().map(|u| u.all_local_plan()).collect();
        let baseline = s.evaluate(&all_local).unwrap();
        assert!(
            report.evaluation.totals.objective() <= baseline.totals.objective() + 1e-9,
            "pipeline {} vs all-local {}",
            report.evaluation.totals.objective(),
            baseline.totals.objective()
        );
    }

    #[test]
    fn greedy_objective_matches_model_evaluation() {
        let s = scenario(2, 9);
        let report = Offloader::new().solve(&s).unwrap();
        assert!(
            (report.greedy.final_objective - report.evaluation.totals.objective()).abs() < 1e-6
        );
    }

    #[test]
    fn pinned_functions_stay_local() {
        let s = scenario(1, 3);
        let report = Offloader::new().solve(&s).unwrap();
        let g = s.users()[0].graph();
        for n in g.node_ids() {
            if !g.is_offloadable(n) {
                assert_eq!(report.plan[0].side(n), Side::Local);
            }
        }
    }

    #[test]
    fn compression_stats_reported_per_user() {
        let s = scenario(3, 7);
        let report = Offloader::new().solve(&s).unwrap();
        assert_eq!(report.compression.len(), 3);
        for st in &report.compression {
            assert_eq!(st.original_nodes, 80);
            assert!(st.compressed_nodes <= st.offloadable_nodes);
        }
    }

    #[test]
    fn timings_are_recorded() {
        let s = scenario(1, 2);
        let report = Offloader::new().solve(&s).unwrap();
        assert!(report.timings.total() > Duration::ZERO);
    }

    #[test]
    fn deterministic_end_to_end() {
        let s = scenario(2, 11);
        let a = Offloader::new().solve(&s).unwrap();
        let b = Offloader::new().solve(&s).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(
            a.evaluation.totals.objective().to_bits(),
            b.evaluation.totals.objective().to_bits()
        );
    }

    #[test]
    fn empty_scenario_is_fine() {
        let s = Scenario::new(SystemParams::default());
        let report = Offloader::new().solve(&s).unwrap();
        assert!(report.plan.is_empty());
        assert_eq!(report.greedy.moves, 0);
    }

    #[test]
    fn compare_strategies_returns_all_three() {
        let s = scenario(1, 8);
        let reports = Offloader::compare_strategies(&s).unwrap();
        let names: Vec<_> = reports.iter().map(|r| r.strategy).collect();
        assert_eq!(names, vec!["spectral", "max-flow-min-cut", "kernighan-lin"]);
        for r in &reports {
            assert_eq!(s.validate_plan(&r.plan), Ok(()));
        }
    }

    #[test]
    fn summary_renders_all_sections() {
        let s = scenario(2, 4);
        let report = Offloader::new().solve(&s).unwrap();
        let summary = report.render_summary();
        for needle in [
            "strategy:",
            "objective",
            "placement:",
            "compression:",
            "greedy:",
            "timings:",
        ] {
            assert!(summary.contains(needle), "missing {needle} in summary");
        }
    }

    #[test]
    fn solve_single_matches_manual_scenario() {
        let g = NetgenSpec::new(80, 220).seed(6).generate().unwrap();
        let report = Offloader::new().solve_single(&g).unwrap();
        let manual = Offloader::new()
            .solve(&Scenario::new(SystemParams::default()).with_user(UserWorkload::new("user", g)))
            .unwrap();
        assert_eq!(report.plan, manual.plan);
    }

    #[test]
    fn cluster_solve_matches_serial_bit_for_bit() {
        let s = scenario(4, 21);
        let serial = Offloader::new().solve(&s).unwrap();
        for workers in [1, 2, 8] {
            let cluster = Arc::new(Cluster::new(workers).unwrap());
            let mut ctx = ExecCtx::cluster(cluster);
            let parallel = Offloader::new().solve_with(&mut ctx, &s).unwrap();
            assert_eq!(serial.plan, parallel.plan, "workers={workers}");
            assert_eq!(
                serial.evaluation.totals.objective().to_bits(),
                parallel.evaluation.totals.objective().to_bits(),
                "workers={workers}"
            );
            assert_eq!(serial.compression, parallel.compression);
        }
    }

    #[test]
    fn builder_cluster_knob_routes_solve_through_the_stage_path() {
        let s = scenario(3, 13);
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let clustered = Offloader::builder()
            .cluster(Arc::clone(&cluster))
            .build()
            .solve(&s)
            .unwrap();
        let serial = Offloader::new().solve(&s).unwrap();
        assert_eq!(clustered.plan, serial.plan);
        // the stage path actually ran on the cluster (unless the
        // environment forces every context onto the serial backend)
        if !crate::exec::force_serial() {
            let tasks = cluster
                .metrics()
                .snapshot()
                .histogram_total("engine.task_nanos")
                .count();
            assert!(tasks >= 3);
        }
    }

    #[test]
    fn cluster_solve_records_front_end_timings() {
        let s = scenario(2, 17);
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let mut ctx = ExecCtx::cluster(cluster);
        let report = Offloader::new().solve_with(&mut ctx, &s).unwrap();
        assert!(report.timings.compression > Duration::ZERO);
        assert!(report.timings.cutting > Duration::ZERO);
    }

    #[test]
    fn cluster_solve_empty_scenario_is_fine() {
        let cluster = Arc::new(Cluster::new(2).unwrap());
        let s = Scenario::new(SystemParams::default());
        let mut ctx = ExecCtx::cluster(cluster);
        let report = Offloader::new().solve_with(&mut ctx, &s).unwrap();
        assert!(report.plan.is_empty());
    }

    #[test]
    fn reused_ctx_solves_match_fresh_ctx_solves() {
        // one context across repeated solves: the serial arena is
        // recycled batch to batch without changing any plan
        let s = scenario(2, 29);
        let o = Offloader::new();
        let mut ctx = o.exec_ctx();
        let first = o.solve_with(&mut ctx, &s).unwrap();
        let second = o.solve_with(&mut ctx, &s).unwrap();
        let fresh = o.solve(&s).unwrap();
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.plan, fresh.plan);
    }

    #[test]
    fn strategy_name_is_surfaced() {
        let o = Offloader::builder().strategy(StrategyKind::MaxFlow).build();
        assert_eq!(o.strategy_name(), "max-flow-min-cut");
        let s = scenario(1, 1);
        assert_eq!(o.solve(&s).unwrap().strategy, "max-flow-min-cut");
    }
}
