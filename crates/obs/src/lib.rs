//! Pipeline-wide telemetry for the offloading pipeline.
//!
//! The paper's evaluation is entirely about *where time goes* —
//! compression shrinkage (Table I), per-stage runtime against graph
//! size (Fig. 9), greedy convergence (Algorithm 2). This crate gives
//! every stage a single, dependency-free instrumentation surface:
//!
//! - [`TraceSink`] — the trait the pipeline calls: span enter/exit,
//!   named monotonic counters, and structured events;
//! - [`NullSink`] — the default no-op; every method is an empty default
//!   so the uninstrumented path compiles away to nothing;
//! - [`Recorder`] — an in-memory sink with a bounded event ring
//!   buffer, full span records, and JSON export for
//!   `scripts/plot_figures.py` and the `--trace-out` flag of the
//!   experiments binary;
//! - [`MetricsRegistry`] (the `mec-metrics` layer, [`metrics`]) — live
//!   log-bucketed histograms, gauges, and labeled counters with
//!   percentile summaries, snapshot diffing, and JSON/Prometheus
//!   exposition — the distributional complement to the event-ordered
//!   trace above, and the one store every counter and histogram lives
//!   in: each recorder keeps its counters in its registry, and every
//!   export reads them from there;
//! - [`MetricsSink`] — a [`TraceSink`] that forwards counters and
//!   histogram records into a shared registry without recording spans
//!   or events, for metric collection at near-zero overhead;
//! - [`ShardedRecorder`] — the always-on collection path: per-thread
//!   bounded SPSC ring shards drained by a background aggregator into
//!   the [`Recorder`]/[`MetricsRegistry`] views, making hot-path
//!   recording wait-free and allocation-free after warm-up, with
//!   per-class drop accounting ([`DroppedRecords`]);
//! - [`serve`] — a dependency-free live exposition endpoint
//!   (`/metrics`, `/trace`, `/healthz`, `/stacks`) over
//!   `std::net::TcpListener`.
//!
//! # Example
//!
//! ```
//! use mec_obs::{FieldValue, Recorder, TraceSink};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as Arc<dyn TraceSink>;
//!
//! let span = mec_obs::span(sink.as_ref(), "stage.compression");
//! sink.counter_add("labelprop.rounds", 3);
//! sink.event("labelprop.round", &[("alpha", FieldValue::F64(0.25))]);
//! let elapsed = span.finish();
//!
//! assert_eq!(recorder.counter_value("labelprop.rounds"), 3);
//! assert!(recorder.to_json_string().contains("stage.compression"));
//! assert!(elapsed.as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
mod recorder;
mod serve;
mod shard;

pub use metrics::{
    CounterHandle, GaugeHandle, Histogram, HistogramHandle, HistogramSnapshot, MetricKey,
    MetricsRegistry, RegistrySnapshot,
};
pub use recorder::{DropClass, DroppedRecords, Recorder, SpanRecord, TraceEvent};
pub use serve::{serve, ObsServer};
pub use shard::{ShardConfig, ShardedRecorder};

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifier of an in-flight span, handed back by
/// [`TraceSink::span_enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The id used when no span is being recorded (the
    /// [`NullSink`] answer).
    pub const NULL: SpanId = SpanId(0);

    /// `true` for the null id.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// One typed value attached to an event field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Static string (labels, stage names).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

/// The instrumentation surface threaded through the pipeline.
///
/// Every method has an empty default body, so a sink implements only
/// what it cares about and the [`NullSink`] is a true no-op. `Debug` is
/// a supertrait so pipeline structs holding an `Arc<dyn TraceSink>`
/// can keep deriving `Debug`.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// `true` when this sink records anything. Call sites may use this
    /// to skip building expensive event payloads.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a span named `name`; returns its id for
    /// [`span_exit`](TraceSink::span_exit).
    fn span_enter(&self, name: &'static str) -> SpanId {
        let _ = name;
        SpanId::NULL
    }

    /// Closes the span `id`.
    fn span_exit(&self, id: SpanId) {
        let _ = id;
    }

    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records a structured event with typed fields.
    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let _ = (name, fields);
    }

    /// Records one sample into the histogram `name` (typically a
    /// latency in nanoseconds or a small count). The default is a true
    /// no-op, so the [`NullSink`] path stays allocation-free.
    fn histogram_record(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Tells the sink the calling thread is engine worker `worker`, so
    /// a sharded sink can pin the thread to a stable shard before the
    /// first record. The default is a no-op — only sinks with
    /// per-thread state care.
    fn register_worker(&self, worker: usize) {
        let _ = worker;
    }

    /// Asks the sink to make everything recorded so far visible to its
    /// snapshot/export views (a no-op for unbuffered sinks). The
    /// pipeline calls this at solve and session boundaries.
    fn flush(&self) {}
}

/// The default sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// A shared handle to the process-wide [`NullSink`], the default sink
/// for every builder in the pipeline.
pub fn null_sink() -> Arc<dyn TraceSink> {
    static NULL: OnceLock<Arc<NullSink>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(NullSink))) as Arc<dyn TraceSink>
}

/// A [`TraceSink`] that collects *metrics only*: counters and histogram
/// records land in a shared [`MetricsRegistry`], spans and events are
/// ignored. This is the cheap way to get live percentiles from a run
/// that does not need a full trace — the experiments binary uses it
/// when `--trace-out` is absent but a metrics table is wanted.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink {
    /// A sink backed by a fresh enabled registry.
    pub fn new() -> Self {
        MetricsSink {
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    /// A sink forwarding into an existing registry.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        MetricsSink { registry }
    }

    /// The shared registry this sink records into.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }
}

impl TraceSink for MetricsSink {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.registry.add_counter(name, delta);
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.registry.record_histogram(name, value);
    }
}

/// RAII guard for a span: exits the span when dropped or
/// [`finish`](SpanGuard::finish)ed.
///
/// The guard carries its own [`Instant`], so the elapsed time it
/// reports is measured identically whether the sink records spans or
/// ignores them — this is what lets `StageTimings` stay a view derived
/// from spans without perturbing the un-instrumented path.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: &'a dyn TraceSink,
    id: SpanId,
    start: Instant,
    finished: bool,
}

impl SpanGuard<'_> {
    /// Closes the span and returns the locally measured elapsed time.
    pub fn finish(mut self) -> Duration {
        self.finished = true;
        self.sink.span_exit(self.id);
        self.start.elapsed()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.sink.span_exit(self.id);
        }
    }
}

/// Opens a span on `sink`, returning the RAII guard.
pub fn span<'a>(sink: &'a dyn TraceSink, name: &'static str) -> SpanGuard<'a> {
    SpanGuard {
        id: sink.span_enter(name),
        sink,
        start: Instant::now(),
        finished: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_answers_are_inert() {
        let sink = NullSink;
        assert!(!sink.enabled());
        let id = sink.span_enter("anything");
        assert!(id.is_null());
        sink.span_exit(id);
        sink.counter_add("c", 5);
        sink.event("e", &[("x", FieldValue::U64(1))]);
    }

    #[test]
    fn span_guard_measures_time_even_on_null_sink() {
        let sink = NullSink;
        let guard = span(&sink, "s");
        std::thread::sleep(Duration::from_millis(1));
        assert!(guard.finish() >= Duration::from_millis(1));
    }

    #[test]
    fn null_sink_handle_is_shared() {
        let a = null_sink();
        let b = null_sink();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
