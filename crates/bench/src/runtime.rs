//! Figure 9 — running time versus graph size.
//!
//! Four curves as in the paper:
//!
//! - **our algorithm without engine** — the spectral pipeline with the
//!   *dense* eigensolver. The paper reports that its serial variant
//!   "wasted most of the running time on lots of matrix
//!   multiplications about the graph spectrum calculation"; the dense
//!   Jacobi path reproduces exactly that cost profile.
//! - **our algorithm with engine** — the sparse Lanczos eigensolver
//!   with Laplacian products sharded over the [`mec_engine`] cluster
//!   (the paper's Spark configuration).
//! - **max-flow min-cut** and **Kernighan–Lin** — the combinatorial
//!   baselines.
//!
//! Two extra series (not in the paper): `lanczos-serial` isolates how
//! much of the speed-up comes from sparsity vs parallelism, and
//! `multilevel` times the future-work coarsen–partition–refine scheme.

use crate::workload::edges_for;
use copmecs_core::{CutError, CutStrategy, Offloader, StrategyKind};
use mec_engine::Cluster;
use mec_graph::{Bipartition, Graph};
use mec_linalg::LanczosOptions;
use mec_model::{Scenario, SystemParams, UserWorkload};
use mec_netgen::NetgenSpec;
use mec_obs::{MetricsRegistry, TraceSink};
use mec_spectral::SpectralBisector;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// One timing measurement.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimePoint {
    /// Graph size (function count).
    pub size: usize,
    /// Curve label.
    pub variant: String,
    /// End-to-end pipeline seconds (compression + cuts + greedy).
    pub seconds: f64,
}

/// Spectral strategy forced onto the dense (Jacobi) eigensolver —
/// the paper's matrix-multiplication-bound serial implementation.
#[derive(Debug, Clone)]
pub struct DenseSpectralStrategy {
    bisector: SpectralBisector,
}

impl DenseSpectralStrategy {
    /// Creates the dense-eigensolver strategy.
    pub fn new() -> Self {
        DenseSpectralStrategy {
            bisector: SpectralBisector::new().lanczos_options(LanczosOptions {
                // always densify: every eigenpair comes from Jacobi
                dense_cutoff: usize::MAX,
                ..LanczosOptions::default()
            }),
        }
    }
}

impl Default for DenseSpectralStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl CutStrategy for DenseSpectralStrategy {
    fn boxed_clone(&self) -> Box<dyn CutStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "spectral-dense"
    }

    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError> {
        Ok(self.bisector.bisect(g)?.partition)
    }
}

/// Serial sparse Lanczos spectral strategy (the ablation series).
#[derive(Debug, Clone)]
pub struct LanczosSerialStrategy {
    bisector: SpectralBisector,
}

impl LanczosSerialStrategy {
    /// Creates the serial-Lanczos strategy.
    pub fn new() -> Self {
        LanczosSerialStrategy {
            bisector: SpectralBisector::new().lanczos_options(LanczosOptions {
                dense_cutoff: 0,
                ..LanczosOptions::default()
            }),
        }
    }
}

impl Default for LanczosSerialStrategy {
    fn default() -> Self {
        Self::new()
    }
}

impl CutStrategy for LanczosSerialStrategy {
    fn boxed_clone(&self) -> Box<dyn CutStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "lanczos-serial"
    }

    fn cut(&self, g: &Graph) -> Result<Bipartition, CutError> {
        Ok(self.bisector.bisect(g)?.partition)
    }
}

/// One serial-vs-cluster measurement of the multi-user pipeline
/// front-end (compression + cuts fanned out one stage task per user) —
/// the speedup rows reported alongside the Fig. 9 runtime table.
#[derive(Debug, Clone, Serialize)]
pub struct FrontendSpeedup {
    /// Users in the scenario (one graph each).
    pub users: usize,
    /// Functions per user graph.
    pub nodes: usize,
    /// Cluster worker threads used for the distributed run.
    pub workers: usize,
    /// Wall-clock seconds of the serial `Offloader::solve`.
    pub serial_seconds: f64,
    /// Wall-clock seconds of `Offloader::solve_with` under a cluster
    /// [`ExecCtx`](copmecs_core::ExecCtx) at `workers`.
    pub cluster_seconds: f64,
    /// `serial_seconds / cluster_seconds`.
    pub speedup: f64,
    /// `available_parallelism` on the measuring host. A speedup near
    /// 1.0 on a single-core host is the hardware ceiling, not a bug.
    pub host_parallelism: usize,
}

/// Times the serial solve against the cluster-backed solve on a
/// `users`-user scenario and asserts the two plans stayed
/// bit-identical while measuring.
///
/// Each user gets a distinct *single-component* graph of `nodes`
/// functions (the Fig. 9 runtime workload): with one component per
/// graph the component-parallel compressor has nothing to fan out, so
/// the measurement isolates the per-*user* stage distribution.
pub fn frontend_speedup(users: usize, nodes: usize, seed: u64, workers: usize) -> FrontendSpeedup {
    let scenario =
        Scenario::new(SystemParams::default())
            .with_users((0..users).map(|i| {
                UserWorkload::new(format!("u{i}"), runtime_graph(nodes, seed + i as u64))
            }));
    let offloader = Offloader::new();

    let start = std::time::Instant::now();
    let serial = offloader
        .solve(&scenario)
        .expect("serial pipeline succeeds");
    let serial_seconds = start.elapsed().as_secs_f64();

    let cluster = Arc::new(Cluster::new(workers).expect("cluster spawns"));
    let mut ctx = offloader.exec_ctx().into_cluster(cluster);
    let start = std::time::Instant::now();
    let clustered = offloader
        .solve_with(&mut ctx, &scenario)
        .expect("cluster pipeline succeeds");
    let cluster_seconds = start.elapsed().as_secs_f64();

    assert_eq!(
        serial.plan, clustered.plan,
        "cluster front-end must stay bit-identical to the serial path"
    );
    FrontendSpeedup {
        users,
        nodes,
        workers,
        serial_seconds,
        cluster_seconds,
        speedup: serial_seconds / cluster_seconds,
        host_parallelism: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
    }
}

/// Per-worker utilization row for the cluster leg of a
/// [`frontend_speedup_traced`] measurement, sourced from the
/// `worker`-labeled series the engine records into its
/// [`MetricsRegistry`].
#[derive(Debug, Clone, Serialize)]
pub struct WorkerUtilization {
    /// Worker index (the registry's `worker` label).
    pub worker: usize,
    /// Tasks this worker completed (`engine.task_nanos{worker}` count).
    pub tasks: u64,
    /// Seconds this worker spent inside tasks
    /// (`engine.worker_busy_nanos{worker}`).
    pub busy_seconds: f64,
    /// `busy / wall` for the cluster leg, clamped to `[0, 1]`.
    pub utilization: f64,
    /// Median task latency in nanoseconds.
    pub p50_task_nanos: u64,
    /// 99th-percentile task latency in nanoseconds.
    pub p99_task_nanos: u64,
    /// Median queue wait in nanoseconds.
    pub p50_queue_nanos: u64,
}

/// [`frontend_speedup`] with full telemetry wired through both legs:
/// the serial and cluster solves record their stage spans and
/// histograms into `sink`, and the cluster is built with
/// [`Cluster::with_telemetry`] so per-worker task-latency / queue-wait
/// distributions land in `registry` and each worker announces itself
/// to the sink ([`TraceSink::register_worker`] — a sharded recorder
/// uses this to pin worker threads to dedicated shards). Returns the
/// speedup record plus one utilization row per worker, computed from
/// the registry's `worker`-labeled series over the cluster leg's wall
/// clock.
pub fn frontend_speedup_traced(
    users: usize,
    nodes: usize,
    seed: u64,
    workers: usize,
    sink: &Arc<dyn TraceSink>,
    registry: &Arc<MetricsRegistry>,
) -> (FrontendSpeedup, Vec<WorkerUtilization>) {
    let scenario =
        Scenario::new(SystemParams::default())
            .with_users((0..users).map(|i| {
                UserWorkload::new(format!("u{i}"), runtime_graph(nodes, seed + i as u64))
            }));
    let offloader = Offloader::builder().trace_sink(Arc::clone(sink)).build();

    let start = std::time::Instant::now();
    let serial = offloader
        .solve(&scenario)
        .expect("serial pipeline succeeds");
    let serial_seconds = start.elapsed().as_secs_f64();

    // snapshot before the cluster leg so the utilization diff only
    // covers registry activity attributable to the clustered run
    let before = registry.snapshot();
    let cluster = Arc::new(
        Cluster::with_telemetry(workers, Some(Arc::clone(registry)), Some(Arc::clone(sink)))
            .expect("cluster spawns"),
    );
    let mut ctx = offloader.exec_ctx().into_cluster(cluster);
    let start = std::time::Instant::now();
    let clustered = offloader
        .solve_with(&mut ctx, &scenario)
        .expect("cluster pipeline succeeds");
    let cluster_seconds = start.elapsed().as_secs_f64();

    assert_eq!(
        serial.plan, clustered.plan,
        "cluster front-end must stay bit-identical to the serial path"
    );

    let interval = registry.snapshot().since(&before);
    let wall_ns = Duration::from_secs_f64(cluster_seconds).as_nanos() as f64;
    let per_worker = (0..workers)
        .map(|w| {
            let label = w.to_string();
            let busy_nanos = interval
                .counter_labeled("engine.worker_busy_nanos", "worker", &label)
                .unwrap_or(0);
            let (tasks, p50, p99) = interval
                .histogram_labeled("engine.task_nanos", "worker", &label)
                .map(|h| {
                    (
                        h.count(),
                        h.value_at_quantile(0.50),
                        h.value_at_quantile(0.99),
                    )
                })
                .unwrap_or((0, 0, 0));
            let p50_queue = interval
                .histogram_labeled("engine.queue_wait_nanos", "worker", &label)
                .map(|h| h.value_at_quantile(0.50))
                .unwrap_or(0);
            WorkerUtilization {
                worker: w,
                tasks,
                busy_seconds: busy_nanos as f64 / 1e9,
                utilization: if wall_ns > 0.0 {
                    (busy_nanos as f64 / wall_ns).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                p50_task_nanos: p50,
                p99_task_nanos: p99,
                p50_queue_nanos: p50_queue,
            }
        })
        .collect();

    (
        FrontendSpeedup {
            users,
            nodes,
            workers,
            serial_seconds,
            cluster_seconds,
            speedup: serial_seconds / cluster_seconds,
            host_parallelism: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
        },
        per_worker,
    )
}

/// Builds the Fig. 9 workload: a *single-component* graph of `nodes`
/// functions (so the spectral stage faces one large compressed graph,
/// as in the paper's runtime experiment).
pub fn runtime_graph(nodes: usize, seed: u64) -> Graph {
    NetgenSpec::new(nodes, edges_for(nodes))
        .components(1)
        .seed(seed)
        .generate()
        .expect("runtime workloads are generable")
}

fn time_pipeline(offloader: &Offloader, scenario: &Scenario) -> f64 {
    let start = std::time::Instant::now();
    let report = offloader.solve(scenario).expect("pipeline succeeds");
    let wall = start.elapsed().as_secs_f64();
    // prefer the report's own stage accounting; fall back to wall time
    let staged = report.timings.total().as_secs_f64();
    if staged > 0.0 {
        staged
    } else {
        wall
    }
}

/// Runs the timing sweep. `include_extra` adds the `lanczos-serial`
/// ablation series.
pub fn run(sizes: &[usize], seed: u64, include_extra: bool) -> Vec<RuntimePoint> {
    run_traced(
        sizes,
        seed,
        include_extra,
        &mec_obs::null_sink(),
        &Arc::default(),
    )
}

/// Like [`run`] but wires `sink` into every pipeline variant and
/// records the engine variant's cluster into `registry` (its
/// `engine.*` series, see [`Cluster::metrics`]).
pub fn run_traced(
    sizes: &[usize],
    seed: u64,
    include_extra: bool,
    sink: &Arc<dyn TraceSink>,
    registry: &Arc<MetricsRegistry>,
) -> Vec<RuntimePoint> {
    // sized like `Cluster::with_default_parallelism`
    let workers = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(2)
        .max(2);
    let cluster =
        Arc::new(Cluster::with_metrics(workers, Arc::clone(registry)).expect("cluster spawns"));
    let mut out = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let graph = Arc::new(runtime_graph(size, seed + i as u64));
        let scenario = Scenario::new(SystemParams::default())
            .with_user(UserWorkload::new("u0", Arc::clone(&graph)));

        let mut variants: Vec<(String, Offloader)> = vec![
            (
                "our algorithm without engine".into(),
                Offloader::builder()
                    .trace_sink(Arc::clone(sink))
                    .build_with_strategy(Box::new(DenseSpectralStrategy::new())),
            ),
            (
                "our algorithm with engine".into(),
                Offloader::builder()
                    .strategy(StrategyKind::SpectralParallel {
                        cluster: Arc::clone(&cluster),
                        blocks: cluster.worker_count() * 2,
                    })
                    .trace_sink(Arc::clone(sink))
                    .build(),
            ),
            (
                "max-flow min-cut".into(),
                Offloader::builder()
                    .strategy(StrategyKind::MaxFlow)
                    .trace_sink(Arc::clone(sink))
                    .build(),
            ),
            (
                "Kernighan-Lin".into(),
                Offloader::builder()
                    .strategy(StrategyKind::KernighanLin)
                    .trace_sink(Arc::clone(sink))
                    .build(),
            ),
        ];
        if include_extra {
            variants.push((
                "lanczos-serial (extra)".into(),
                Offloader::builder()
                    .trace_sink(Arc::clone(sink))
                    .build_with_strategy(Box::new(LanczosSerialStrategy::new())),
            ));
            variants.push((
                "multilevel (extra)".into(),
                Offloader::builder()
                    .strategy(StrategyKind::Multilevel)
                    .trace_sink(Arc::clone(sink))
                    .build(),
            ));
        }
        for (label, offloader) in variants {
            let seconds = time_pipeline(&offloader, &scenario);
            out.push(RuntimePoint {
                size,
                variant: label,
                seconds,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_report_positive_times() {
        let pts = run(&[150], 3, true);
        assert_eq!(pts.len(), 6);
        for p in &pts {
            assert!(p.seconds > 0.0, "{} reported zero time", p.variant);
        }
    }

    #[test]
    fn runtime_graph_is_single_component() {
        let g = runtime_graph(200, 1);
        assert!(g.is_connected());
    }

    #[test]
    fn frontend_speedup_reports_consistent_measurements() {
        // parity is asserted inside frontend_speedup; here we check the
        // record itself is sane (timings positive, ratio consistent)
        let s = frontend_speedup(4, 120, 11, 2);
        assert_eq!((s.users, s.nodes, s.workers), (4, 120, 2));
        assert!(s.serial_seconds > 0.0);
        assert!(s.cluster_seconds > 0.0);
        assert!((s.speedup - s.serial_seconds / s.cluster_seconds).abs() < 1e-12);
    }

    #[test]
    fn traced_speedup_reports_per_worker_utilization() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn TraceSink> =
            Arc::new(mec_obs::MetricsSink::with_registry(Arc::clone(&registry)));
        let (s, workers) = frontend_speedup_traced(4, 120, 11, 2, &sink, &registry);
        assert_eq!((s.users, s.nodes, s.workers), (4, 120, 2));
        assert_eq!(workers.len(), 2);
        // 4 tasks were fanned out; every one is attributed to a worker
        // (under MEC_FORCE_SERIAL the cluster leg never fans out)
        if !copmecs_core::force_serial() {
            assert_eq!(workers.iter().map(|w| w.tasks).sum::<u64>(), 4);
        }
        for w in &workers {
            assert!((0.0..=1.0).contains(&w.utilization));
            if w.tasks > 0 {
                assert!(w.p50_task_nanos > 0);
                assert!(w.p99_task_nanos >= w.p50_task_nanos);
            }
        }
        // both legs recorded their stage histograms into the registry
        let snap = registry.snapshot();
        let comp = snap
            .histogram("stage.compression_nanos")
            .expect("compression histogram");
        assert_eq!(comp.count(), 8, "4 users x 2 legs");
        assert!(snap.histogram("pipeline.solve_nanos").is_some());
    }

    #[test]
    fn custom_strategies_cut_properly() {
        let g = runtime_graph(80, 2);
        // compress first — strategies see compressed graphs in the pipeline
        let dense = DenseSpectralStrategy::new().cut(&g).unwrap();
        let serial = LanczosSerialStrategy::new().cut(&g).unwrap();
        assert!(dense.is_proper());
        assert!(serial.is_proper());
        // both spectral variants find the same cut weight
        assert!((dense.cut_weight(&g) - serial.cut_weight(&g)).abs() < 1e-6);
    }
}
