//! Execution metrics: how much work the cluster actually did, and how
//! it was distributed across workers.
//!
//! Every cluster records into a [`mec_obs::MetricsRegistry`] — its own,
//! or the shared one it was built with
//! ([`Cluster::with_metrics`](crate::Cluster::with_metrics)) — and
//! [`Cluster::metrics`](crate::Cluster::metrics) hands that registry
//! back. Per stage it records the fan-out width
//! (`engine.stage_width`); per task, which worker ran it, how long it
//! computed (`engine.task_nanos{worker}`) and how long it sat queued
//! first (`engine.queue_wait_nanos{worker}`), plus the worker's
//! cumulative busy time (`engine.worker_busy_nanos{worker}`). Stage and
//! task counts are the histogram counts; busy time is exactly the sum
//! of the worker's task latencies.

use mec_obs::metrics::{CounterHandle, HistogramHandle, MetricsRegistry};
use std::time::Duration;

/// One worker's registry handles.
#[derive(Debug)]
struct WorkerHandles {
    task_nanos: HistogramHandle,
    queue_wait_nanos: HistogramHandle,
    busy_nanos: CounterHandle,
}

/// The cluster's registry handles, resolved once at spawn so recording
/// is lock-free.
#[derive(Debug)]
pub(crate) struct Metrics {
    workers: Vec<WorkerHandles>,
    stage_width: HistogramHandle,
}

impl Metrics {
    /// Handles for `workers` threads in `registry`.
    pub(crate) fn new(workers: usize, registry: &MetricsRegistry) -> Self {
        Metrics {
            workers: (0..workers)
                .map(|i| WorkerHandles {
                    task_nanos: registry.histogram_labeled(
                        "engine.task_nanos",
                        "worker",
                        i.to_string(),
                    ),
                    queue_wait_nanos: registry.histogram_labeled(
                        "engine.queue_wait_nanos",
                        "worker",
                        i.to_string(),
                    ),
                    busy_nanos: registry.counter_labeled(
                        "engine.worker_busy_nanos",
                        "worker",
                        i.to_string(),
                    ),
                })
                .collect(),
            stage_width: registry.histogram("engine.stage_width"),
        }
    }

    /// Records one completed task: which worker ran it, how long it
    /// computed, and how long it sat queued first.
    pub(crate) fn record_task(&self, worker: usize, busy: Duration, queue_wait: Duration) {
        let busy_ns = busy.as_nanos() as u64;
        if let Some(h) = self.workers.get(worker) {
            h.task_nanos.record(busy_ns);
            h.queue_wait_nanos.record(queue_wait.as_nanos() as u64);
            h.busy_nanos.add(busy_ns);
        }
    }

    /// Records one submitted stage and its fan-out width.
    pub(crate) fn record_stage(&self, width: usize) {
        self.stage_width.record(width as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_receives_per_worker_distributions() {
        let registry = MetricsRegistry::new();
        let m = Metrics::new(2, &registry);
        m.record_stage(4);
        m.record_task(0, Duration::from_nanos(1_000), Duration::from_nanos(50));
        m.record_task(0, Duration::from_nanos(3_000), Duration::from_nanos(70));
        m.record_task(1, Duration::from_nanos(2_000), Duration::from_nanos(60));
        let snap = registry.snapshot();
        let w0 = snap
            .histogram_labeled("engine.task_nanos", "worker", "0")
            .expect("worker 0 histogram");
        assert_eq!(w0.count(), 2);
        assert_eq!(w0.max(), 3_000);
        let w1 = snap
            .histogram_labeled("engine.queue_wait_nanos", "worker", "1")
            .expect("worker 1 queue histogram");
        assert_eq!(w1.count(), 1);
        assert_eq!(w1.sum(), 60);
        assert_eq!(
            snap.counter_labeled("engine.worker_busy_nanos", "worker", "0"),
            Some(4_000)
        );
        let width = snap.histogram("engine.stage_width").expect("stage width");
        assert_eq!(width.count(), 1);
        assert_eq!(width.max(), 4);
    }
}
