//! The persistent worker pool.

use crate::metrics::Metrics;
use crate::EngineError;
use crossbeam::channel::{unbounded, Sender};
use mec_obs::metrics::MetricsRegistry;
use mec_obs::TraceSink;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A queued task: invoked with the index of the worker that runs it,
/// so per-worker latency histograms attribute work correctly.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// Why a stage submitted through
/// [`try_run_stage`](Cluster::try_run_stage) failed: either the engine
/// itself broke (a task panicked, the pool died), or a task returned an
/// error of the caller's own type `E`.
///
/// When several tasks fail, the lowest task index is reported — the
/// same task a serial loop over the inputs would have failed on first,
/// so error reporting stays deterministic under parallel scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError<E> {
    /// The engine failed (worker panic or pool shutdown).
    Engine(EngineError),
    /// A task returned `Err` of the caller's error type.
    Task {
        /// Index of the failed task within its stage.
        task: usize,
        /// The task's own error.
        error: E,
    },
}

impl<E: fmt::Display> fmt::Display for StageError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::Engine(e) => write!(f, "{e}"),
            StageError::Task { task, error } => write!(f, "task {task} failed: {error}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for StageError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageError::Engine(e) => Some(e),
            StageError::Task { error, .. } => Some(error),
        }
    }
}

/// What one task of a fallible stage produced.
enum TaskOutcome<R, E> {
    Ok(R),
    TaskError(E),
    Panicked(Option<String>),
}

/// Extracts a human-readable message from a panic payload (the
/// `&'static str` / `String` payloads `panic!` produces).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> Option<String> {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

/// A fixed pool of worker threads executing stages of tasks.
///
/// The cluster is the engine's only scheduling primitive: a *stage* is
/// a batch of independent tasks; [`run_stage`](Cluster::run_stage)
/// submits them all, waits for completion, and reassembles results in
/// task order, so callers observe deterministic output regardless of
/// which worker ran what.
///
/// Workers live until the cluster is dropped.
#[derive(Debug)]
pub struct Cluster {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
    /// Where every stage and task is recorded (see
    /// [`metrics`](Cluster::metrics)).
    registry: Arc<MetricsRegistry>,
    metrics: Arc<Metrics>,
    /// The sink the workers registered with at spawn, kept so pipeline
    /// layers holding only the cluster can flush worker-side shard
    /// records (see [`telemetry_sink`](Cluster::telemetry_sink)).
    sink: Option<Arc<dyn TraceSink>>,
}

impl Cluster {
    /// Spawns a cluster with `workers` threads, recording into a
    /// registry of its own.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] when `workers == 0`.
    pub fn new(workers: usize) -> Result<Self, EngineError> {
        Cluster::build(workers, None, None)
    }

    /// Spawns a cluster that records into the shared `registry`
    /// instead of one of its own (see [`metrics`](Cluster::metrics)
    /// for the series).
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] when `workers == 0`.
    pub fn with_metrics(
        workers: usize,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, EngineError> {
        Cluster::build(workers, Some(registry), None)
    }

    /// Spawns a cluster with both a metrics registry (as in
    /// [`with_metrics`](Cluster::with_metrics); `None` records into a
    /// registry of its own) and a [`TraceSink`]
    /// that each worker thread registers itself with
    /// ([`TraceSink::register_worker`]) before taking its first task —
    /// a sharded sink pins worker `i` to ring shard `i`, so worker
    /// telemetry never contends with the serial path.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] when `workers == 0`.
    pub fn with_telemetry(
        workers: usize,
        registry: Option<Arc<MetricsRegistry>>,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Result<Self, EngineError> {
        Cluster::build(workers, registry, sink)
    }

    fn build(
        workers: usize,
        registry: Option<Arc<MetricsRegistry>>,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Result<Self, EngineError> {
        if workers == 0 {
            return Err(EngineError::NoWorkers);
        }
        let (sender, receiver) = unbounded::<Job>();
        let registry = registry.unwrap_or_default();
        let metrics = Arc::new(Metrics::new(workers, &registry));
        let handles = (0..workers)
            .map(|i| {
                let rx = receiver.clone();
                let sink = sink.clone();
                std::thread::Builder::new()
                    .name(format!("mec-engine-worker-{i}"))
                    .spawn(move || {
                        if let Some(sink) = &sink {
                            sink.register_worker(i);
                        }
                        while let Ok(job) = rx.recv() {
                            job(i);
                        }
                    })
                    .expect("worker thread spawn failed")
            })
            .collect();
        Ok(Cluster {
            sender: Some(sender),
            workers: handles,
            worker_count: workers,
            registry,
            metrics,
            sink,
        })
    }

    /// The [`TraceSink`] this cluster's workers registered with at
    /// spawn ([`with_telemetry`](Cluster::with_telemetry)), if any.
    /// Workers record into per-thread shards of this sink; whoever
    /// drives a stage to completion (or failure) should flush it so
    /// those shard records drain into the aggregated views.
    pub fn telemetry_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// Spawns a cluster sized to the machine (`available_parallelism`,
    /// at least 2 workers).
    pub fn with_default_parallelism() -> Result<Self, EngineError> {
        let n = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(2)
            .max(2);
        Cluster::new(n)
    }

    /// Number of worker threads.
    #[inline]
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Runs one stage: applies `f(index, input)` to every input on the
    /// pool and returns the results in input order.
    ///
    /// # Errors
    ///
    /// [`EngineError::WorkerFailed`] if any task panicked (the lowest
    /// failed task index is reported, with the panic message when it
    /// was a string); [`EngineError::PoolShutDown`] if the worker
    /// threads are gone.
    pub fn run_stage<T, R>(
        &self,
        inputs: Vec<T>,
        f: impl Fn(usize, T) -> R + Send + Sync + 'static,
    ) -> Result<Vec<R>, EngineError>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        self.try_run_stage(inputs, move |i, input| {
            Ok::<R, std::convert::Infallible>(f(i, input))
        })
        .map_err(|e| match e {
            StageError::Engine(e) => e,
            StageError::Task { error, .. } => match error {},
        })
    }

    /// Runs one stage of *fallible* tasks: applies `f(index, input)` to
    /// every input on the pool and returns the `Ok` results in input
    /// order. Unlike [`run_stage`](Cluster::run_stage), a task
    /// returning `Err` is propagated to the caller instead of being a
    /// panic-only affair — this is what lets pipeline stages keep their
    /// typed error channel across the thread boundary.
    ///
    /// All tasks run to completion even when one fails (the pool has no
    /// cancellation), and the reported failure is always the
    /// lowest-indexed one, exactly as a serial loop would fail.
    ///
    /// # Errors
    ///
    /// [`StageError::Task`] if a task returned `Err`;
    /// [`StageError::Engine`] if a task panicked or the pool is gone.
    /// A panic at a lower task index takes precedence over a task error
    /// at a higher one (and vice versa): lowest index wins.
    pub fn try_run_stage<T, R, E>(
        &self,
        inputs: Vec<T>,
        f: impl Fn(usize, T) -> Result<R, E> + Send + Sync + 'static,
    ) -> Result<Vec<R>, StageError<E>>
    where
        T: Send + 'static,
        R: Send + 'static,
        E: Send + 'static,
    {
        let n = inputs.len();
        self.metrics.record_stage(n);
        if n == 0 {
            return Ok(vec![]);
        }
        let f = Arc::new(f);
        let (tx, rx) = unbounded::<(usize, TaskOutcome<R, E>)>();
        let sender = self
            .sender
            .as_ref()
            .ok_or(StageError::Engine(EngineError::PoolShutDown))?;
        let mut submitted = 0usize;
        for (i, input) in inputs.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let metrics = Arc::clone(&self.metrics);
            let enqueued = Instant::now();
            let job: Job = Box::new(move |worker| {
                let queue_wait = enqueued.elapsed();
                let start = Instant::now();
                let out = match catch_unwind(AssertUnwindSafe(|| f(i, input))) {
                    Ok(Ok(r)) => TaskOutcome::Ok(r),
                    Ok(Err(e)) => TaskOutcome::TaskError(e),
                    Err(payload) => TaskOutcome::Panicked(panic_message(payload)),
                };
                metrics.record_task(worker, start.elapsed(), queue_wait);
                // receiver may be gone if the caller bailed early
                let _ = tx.send((i, out));
            });
            if sender.send(job).is_err() {
                // every worker thread died: stop submitting and report,
                // after draining what the pool already finished
                break;
            }
            submitted += 1;
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // lowest-indexed failure seen so far
        let mut failed: Option<(usize, TaskOutcome<R, E>)> = None;
        for _ in 0..submitted {
            let (i, out) = match rx.recv() {
                Ok(v) => v,
                // a worker died mid-task without reporting back
                Err(_) => return Err(StageError::Engine(EngineError::PoolShutDown)),
            };
            match out {
                TaskOutcome::Ok(r) => slots[i] = Some(r),
                failure => {
                    if failed.as_ref().is_none_or(|(p, _)| i < *p) {
                        failed = Some((i, failure));
                    }
                }
            }
        }
        if submitted < n {
            return Err(StageError::Engine(EngineError::PoolShutDown));
        }
        match failed {
            Some((task, TaskOutcome::TaskError(error))) => Err(StageError::Task { task, error }),
            Some((task, TaskOutcome::Panicked(message))) => {
                Err(StageError::Engine(EngineError::WorkerFailed {
                    task,
                    message,
                }))
            }
            Some((_, TaskOutcome::Ok(_))) => unreachable!("Ok outcomes fill slots"),
            None => Ok(slots
                .into_iter()
                .map(|s| s.expect("all slots filled"))
                .collect()),
        }
    }

    /// The registry this cluster records into. Each stage records its
    /// fan-out width in `engine.stage_width`; each task records its
    /// latency in `engine.task_nanos{worker="i"}`, its queue wait in
    /// `engine.queue_wait_nanos{worker="i"}`, and adds its latency to
    /// `engine.worker_busy_nanos{worker="i"}`. So the stage count is
    /// the `engine.stage_width` count, the task count is the summed
    /// `engine.task_nanos` counts, and each worker's busy counter equals
    /// its `engine.task_nanos` sum. Clusters sharing a registry add
    /// into the same series.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // closing the channel lets every worker's recv() fail and exit
        self.sender.take();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_workers() {
        assert_eq!(Cluster::new(0).unwrap_err(), EngineError::NoWorkers);
    }

    #[test]
    fn stage_results_are_in_input_order() {
        let c = Cluster::new(4).unwrap();
        let out = c
            .run_stage((0..100).collect(), |i, x: i32| {
                // jitter completion order
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x * 2
            })
            .unwrap();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_stage_is_fine() {
        let c = Cluster::new(2).unwrap();
        let out: Vec<i32> = c.run_stage(Vec::<i32>::new(), |_, x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_task_reports_failure_not_hang() {
        let c = Cluster::new(2).unwrap();
        let err = c
            .run_stage(vec![1, 2, 3], |i, x: i32| {
                if i == 1 {
                    panic!("boom");
                }
                x
            })
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::WorkerFailed {
                task: 1,
                message: Some("boom".into())
            }
        );
        // cluster still works after a panic
        let ok = c.run_stage(vec![5], |_, x: i32| x + 1).unwrap();
        assert_eq!(ok, vec![6]);
    }

    #[test]
    fn panic_payload_string_is_captured() {
        let c = Cluster::new(2).unwrap();
        let err = c
            .run_stage(vec![7], |i, _: i32| -> i32 { panic!("task {i} exploded") })
            .unwrap_err();
        match err {
            EngineError::WorkerFailed { task, message } => {
                assert_eq!(task, 0);
                assert_eq!(message.as_deref(), Some("task 0 exploded"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn try_stage_collects_ok_results_in_order() {
        let c = Cluster::new(4).unwrap();
        let out = c
            .try_run_stage((0..50).collect(), |_, x: i32| Ok::<_, String>(x + 1))
            .unwrap();
        assert_eq!(out, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn try_stage_propagates_lowest_task_error() {
        let c = Cluster::new(4).unwrap();
        let err = c
            .try_run_stage((0..20).collect(), |i, x: i32| {
                if i % 7 == 3 {
                    Err(format!("task {i} refused"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        // failures at 3, 10, 17 — the lowest wins, deterministically
        assert_eq!(
            err,
            StageError::Task {
                task: 3,
                error: "task 3 refused".to_string()
            }
        );
    }

    #[test]
    fn try_stage_lowest_index_wins_between_panic_and_error() {
        let c = Cluster::new(4).unwrap();
        let err = c
            .try_run_stage(vec![0, 1, 2, 3], |i, x: i32| {
                if i == 1 {
                    panic!("later panic loses");
                }
                if i == 0 {
                    return Err("first error wins".to_string());
                }
                Ok(x)
            })
            .unwrap_err();
        assert_eq!(
            err,
            StageError::Task {
                task: 0,
                error: "first error wins".to_string()
            }
        );
    }

    #[test]
    fn try_stage_panic_surfaces_as_engine_error() {
        let c = Cluster::new(2).unwrap();
        let err = c
            .try_run_stage(vec![1], |_, _: i32| -> Result<i32, String> {
                panic!("strategy exploded")
            })
            .unwrap_err();
        assert_eq!(
            err,
            StageError::Engine(EngineError::WorkerFailed {
                task: 0,
                message: Some("strategy exploded".into())
            })
        );
    }

    #[test]
    fn metrics_count_stages_and_tasks() {
        let c = Cluster::new(2).unwrap();
        c.run_stage(vec![1, 2, 3], |_, x: i32| x).unwrap();
        c.run_stage(vec![1], |_, x: i32| x).unwrap();
        let snap = c.metrics().snapshot();
        assert_eq!(snap.histogram_total("engine.stage_width").count(), 2);
        // every task ran on some worker
        assert_eq!(snap.histogram_total("engine.task_nanos").count(), 4);
        assert_eq!(snap.histogram_total("engine.queue_wait_nanos").count(), 4);
    }

    /// Runs stages of the given widths on `c` and checks the registry
    /// gained exactly one `engine.stage_width` sample per stage, one
    /// `engine.task_nanos` sample per task, and busy time equal to the
    /// summed task latencies.
    fn assert_exact_engine_counts(c: &Cluster, widths: &[usize]) {
        let before = c.metrics().snapshot();
        for &w in widths {
            c.run_stage((0..w).collect(), |_, x: usize| x).unwrap();
        }
        let d = c.metrics().snapshot().since(&before);
        let tasks = d.histogram_total("engine.task_nanos");
        assert_eq!(
            d.histogram_total("engine.stage_width").count(),
            widths.len() as u64
        );
        assert_eq!(tasks.count(), widths.iter().sum::<usize>() as u64);
        assert_eq!(d.counter_total("engine.worker_busy_nanos"), tasks.sum());
    }

    #[test]
    fn registry_counts_are_exact_on_private_and_shared_registries() {
        let widths = [3, 0, 7, 1, 12];
        assert_exact_engine_counts(&Cluster::new(3).unwrap(), &widths);
        // a shared registry that already holds other series, written
        // by two clusters at once: each run's delta is still exact
        let shared = Arc::new(MetricsRegistry::new());
        shared.counter("unrelated.total").add(5);
        let a = Cluster::with_metrics(2, Arc::clone(&shared)).unwrap();
        let b = Cluster::with_telemetry(4, Some(Arc::clone(&shared)), None).unwrap();
        assert!(Arc::ptr_eq(&a.metrics(), &shared));
        assert_exact_engine_counts(&a, &widths);
        assert_exact_engine_counts(&b, &widths);
        let snap = shared.snapshot();
        assert_eq!(snap.histogram_total("engine.stage_width").count(), 10);
        assert_eq!(snap.histogram_total("engine.task_nanos").count(), 46);
    }

    #[test]
    fn registry_backed_cluster_records_distributions() {
        let registry = Arc::new(MetricsRegistry::new());
        let c = Cluster::with_metrics(3, Arc::clone(&registry)).unwrap();
        c.run_stage((0..24).collect(), |_, x: i32| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            x
        })
        .unwrap();
        let snap = registry.snapshot();
        let width = snap.histogram("engine.stage_width").expect("stage width");
        assert_eq!(width.count(), 1);
        assert_eq!(width.max(), 24);
        let recorded: u64 = (0..3)
            .filter_map(|w| {
                snap.histogram_labeled("engine.task_nanos", "worker", &w.to_string())
                    .map(|h| h.count())
            })
            .sum();
        assert_eq!(recorded, 24, "every task lands in some worker histogram");
        // queue-wait histograms exist for the workers that ran tasks
        assert!((0..3).any(|w| {
            snap.histogram_labeled("engine.queue_wait_nanos", "worker", &w.to_string())
                .is_some_and(|h| h.count() > 0)
        }));
    }

    #[test]
    fn default_parallelism_has_at_least_two_workers() {
        let c = Cluster::with_default_parallelism().unwrap();
        assert!(c.worker_count() >= 2);
    }

    #[test]
    fn drop_joins_cleanly() {
        let c = Cluster::new(3).unwrap();
        c.run_stage(vec![1, 2], |_, x: i32| x).unwrap();
        drop(c); // must not deadlock
    }

    #[test]
    fn stages_can_nest_across_clusters() {
        let outer = Cluster::new(2).unwrap();
        let out = outer
            .run_stage(vec![10, 20], |_, x: i32| {
                let inner = Cluster::new(2).unwrap();
                inner
                    .run_stage(vec![x, x + 1], |_, y: i32| y * 10)
                    .unwrap()
                    .into_iter()
                    .sum::<i32>()
            })
            .unwrap();
        assert_eq!(out, vec![210, 410]);
    }
}
