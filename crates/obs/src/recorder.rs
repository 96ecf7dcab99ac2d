//! The in-memory recording sink and its JSON export.

use crate::metrics::{MetricsRegistry, RegistrySnapshot};
use crate::{FieldValue, SpanId, TraceSink};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of the event ring buffer.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Monotonically increasing id distinguishing recorders, so the
/// per-thread span stacks of two live recorders never interfere.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of (recorder id, span id) for parent attribution.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The classes of lossy telemetry records whose losses are accounted
/// separately (counters are exact and never dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropClass {
    /// A completed span record.
    Span = 0,
    /// A structured event.
    Event = 1,
    /// One histogram sample.
    Histogram = 2,
}

/// Per-class counts of telemetry records lost to bounded buffers —
/// full ring shards, shard-pool exhaustion, or eviction from the
/// retained event ring. `recorded + dropped` is exactly conserved per
/// class (see `crates/obs/tests/shard_properties.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DroppedRecords {
    /// Completed spans lost.
    pub spans: u64,
    /// Events lost or evicted.
    pub events: u64,
    /// Histogram samples lost.
    pub histogram_samples: u64,
}

impl DroppedRecords {
    /// Total losses across all three classes.
    pub fn total(&self) -> u64 {
        self.spans + self.events + self.histogram_samples
    }
}

/// A completed or in-flight span as the recorder stores it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id (1-based, dense).
    pub id: u64,
    /// Enclosing span id on the same thread, 0 for roots.
    pub parent: u64,
    /// Static span name, e.g. `"stage.compression"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End time, `None` while the span is still open.
    pub end_ns: Option<u64>,
    /// Originating track: 0 for spans recorded directly on the
    /// recorder, `shard index + 1` for spans aggregated from a
    /// [`crate::ShardedRecorder`] ring shard. Becomes the `tid` of the
    /// Chrome trace-event export.
    pub tid: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds, `None` while open.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// One structured event as the recorder stores it.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Static event name, e.g. `"labelprop.round"`.
    pub name: &'static str,
    /// Typed fields in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

struct EventRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
}

impl EventRing {
    fn push(&mut self, ev: TraceEvent) -> bool {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            false
        } else {
            // overwrite the oldest entry
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }

    fn iter_in_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, first) = self.buf.split_at(self.head);
        first.iter().chain(tail.iter())
    }
}

/// An in-memory [`TraceSink`]: full span records and a bounded event
/// ring buffer, exportable as JSON, over a [`MetricsRegistry`] that
/// holds its counters and histograms.
///
/// Counter increments are the registry's: a shared read lock plus one
/// atomic add (the write lock is only taken the first time a counter
/// name appears), so hot loops pay near-nothing. Span and event
/// recording take a mutex; the pipeline emits those at stage
/// granularity, not in inner loops.
#[derive(Debug)]
pub struct Recorder {
    recorder_id: u64,
    start: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<EventRing>,
    /// Losses indexed by [`DropClass`]: spans, events, histogram
    /// samples. The recorder's direct path only ever evicts events;
    /// the sharded pipeline forwards all three classes here so every
    /// export reports them uniformly.
    dropped: [AtomicU64; 3],
    drop_warned: AtomicBool,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("len", &self.buf.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default event capacity.
    pub fn new() -> Self {
        Recorder::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder whose ring buffer keeps at most `capacity` events;
    /// once full, new events overwrite the oldest and the dropped
    /// count rises.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Recorder {
            recorder_id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(EventRing {
                buf: Vec::new(),
                capacity: capacity.max(1),
                head: 0,
            }),
            dropped: Default::default(),
            drop_warned: AtomicBool::new(false),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The live metrics registry this recorder's counters and
    /// [`TraceSink::histogram_record`] calls land in. Share the `Arc`
    /// with an engine cluster to collect per-worker histograms in the
    /// same place as the pipeline's stage histograms.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// Snapshot of every unlabeled registry counter — the names
    /// [`TraceSink::counter_add`] writes — sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        trace_counters(&self.metrics.snapshot())
            .map(|(name, v)| (name.to_string(), v))
            .collect()
    }

    /// Copies of all span records, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Copies of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter_in_order()
            .cloned()
            .collect()
    }

    /// Number of events evicted from the ring (or dropped upstream by
    /// a sharded pipeline) so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped[DropClass::Event as usize].load(Ordering::Relaxed)
    }

    /// Per-class record losses. All three classes are reported
    /// uniformly in the JSON export, the Prometheus exposition, and
    /// the one-time warning.
    pub fn dropped_records(&self) -> DroppedRecords {
        DroppedRecords {
            spans: self.dropped[DropClass::Span as usize].load(Ordering::Relaxed),
            events: self.dropped[DropClass::Event as usize].load(Ordering::Relaxed),
            histogram_samples: self.dropped[DropClass::Histogram as usize].load(Ordering::Relaxed),
        }
    }

    /// Counts `n` lost records of `class`, warning (once per recorder)
    /// the first time any loss is observed.
    pub(crate) fn add_dropped(&self, class: DropClass, n: u64) {
        if n == 0 {
            return;
        }
        self.dropped[class as usize].fetch_add(n, Ordering::Relaxed);
        if !self.drop_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "mec-obs: bounded telemetry buffers overflowed; \
                 span/event/histogram records are being dropped or evicted \
                 (raise ShardConfig capacity or Recorder::with_event_capacity); \
                 exact counts are in the export's *_dropped fields"
            );
        }
    }

    /// Appends a completed span record produced by the shard
    /// aggregator (ids are assigned by the caller).
    pub(crate) fn ingest_span(&self, record: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    /// Appends an event produced by the shard aggregator, with the
    /// same bounded-ring eviction accounting as the direct path.
    pub(crate) fn ingest_event(&self, ev: TraceEvent) {
        let evicted = self
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
        if evicted {
            self.add_dropped(DropClass::Event, 1);
        }
    }

    /// Collapses the closed spans into folded-stack lines
    /// (`root;child;leaf <self_nanos>`), the input format of
    /// inferno / `flamegraph.pl`. Self time is the span's duration
    /// minus the summed durations of its direct children; frames whose
    /// self time rounds to zero are omitted (they still appear as
    /// prefixes of their children's stacks). See
    /// `scripts/flamegraph.sh` for the rendering step.
    pub fn to_collapsed_stacks(&self) -> String {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(d) = s.duration_ns() {
                if s.parent != 0 {
                    *child_ns.entry(s.parent).or_insert(0) += d;
                }
            }
        }
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for s in &spans {
            let Some(d) = s.duration_ns() else { continue };
            let self_ns = d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            if self_ns == 0 {
                continue;
            }
            let mut frames = vec![s.name];
            let mut parent = s.parent;
            while parent != 0 {
                match by_id.get(&parent) {
                    Some(p) => {
                        frames.push(p.name);
                        parent = p.parent;
                    }
                    None => break,
                }
            }
            frames.reverse();
            *folded.entry(frames.join(";")).or_insert(0) += self_ns;
        }
        let mut out = String::with_capacity(folded.len() * 48);
        for (stack, ns) in folded {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    /// Serialises the whole trace as a JSON document.
    ///
    /// Schema (stable, consumed by `scripts/plot_figures.py`):
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "duration_ns": 12345,
    ///   "counters": { "greedy.moves_evaluated": 42 },
    ///   "spans": [ { "id": 1, "parent": 0, "name": "stage.compression",
    ///                "start_ns": 10, "end_ns": 900, "duration_ns": 890 } ],
    ///   "events": [ { "t_ns": 15, "name": "labelprop.round",
    ///                 "fields": { "round": 1, "alpha": 0.5 } } ],
    ///   "metrics": { "histograms": {}, "counters": {}, "gauges": {} },
    ///   "spans_dropped": 0,
    ///   "hist_samples_dropped": 0,
    ///   "events_dropped": 0
    /// }
    /// ```
    ///
    /// When any bounded buffer has dropped or evicted records, the
    /// export also carries a top-level `"warning"` string listing the
    /// per-class counts so truncation is never silent.
    /// (`"events_dropped"` was named `"dropped_events"` before the
    /// warning existed; `"spans_dropped"` / `"hist_samples_dropped"`
    /// arrived with the sharded pipeline.)
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"duration_ns\": {},", self.now_ns());

        // one registry snapshot feeds both the trace counters and the
        // nested metrics document, so the two agree exactly
        let metrics = self.metrics.snapshot();
        out.push_str("  \"counters\": {");
        let counters: Vec<_> = trace_counters(&metrics).collect();
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_json_str(&mut out, name);
            let _ = write!(out, ": {value}");
        }
        if !counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"spans\": [");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let _ = write!(
                out,
                "{{ \"id\": {}, \"parent\": {}, \"tid\": {}, ",
                s.id, s.parent, s.tid
            );
            out.push_str("\"name\": ");
            write_json_str(&mut out, s.name);
            let _ = write!(out, ", \"start_ns\": {}", s.start_ns);
            match s.end_ns {
                Some(end) => {
                    let _ = write!(
                        out,
                        ", \"end_ns\": {}, \"duration_ns\": {} }}",
                        end,
                        end.saturating_sub(s.start_ns)
                    );
                }
                None => out.push_str(", \"end_ns\": null, \"duration_ns\": null }"),
            }
        }
        if !spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"events\": [");
        let events = self.events();
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let _ = write!(out, "{{ \"t_ns\": {}, \"name\": ", e.t_ns);
            write_json_str(&mut out, e.name);
            out.push_str(", \"fields\": {");
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_str(&mut out, k);
                out.push_str(": ");
                write_field_value(&mut out, v);
            }
            out.push_str("} }");
        }
        if !events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        // live metrics: spliced in as a nested object (the snapshot
        // serialiser already emits a complete JSON document)
        let metrics_json = metrics.to_json_string();
        out.push_str("  \"metrics\": ");
        out.push_str(metrics_json.trim_end());
        out.push_str(",\n");

        let dropped = self.dropped_records();
        if dropped.total() > 0 {
            out.push_str("  \"warning\": ");
            write_json_str(
                &mut out,
                &format!(
                    "bounded telemetry buffers overflowed: {} span(s), {} event(s), \
                     {} histogram sample(s) dropped or evicted; raise ShardConfig \
                     capacity or Recorder::with_event_capacity to keep them",
                    dropped.spans, dropped.events, dropped.histogram_samples
                ),
            );
            out.push_str(",\n");
        }
        let _ = writeln!(out, "  \"spans_dropped\": {},", dropped.spans);
        let _ = writeln!(
            out,
            "  \"hist_samples_dropped\": {},",
            dropped.histogram_samples
        );
        let _ = write!(out, "  \"events_dropped\": {}\n}}\n", dropped.events);
        out
    }

    /// Serialises the trace in the Chrome trace-event JSON format
    /// (load the file at `chrome://tracing` or in Perfetto).
    ///
    /// Completed spans become `"ph": "X"` duration events on track
    /// `tid` (0 = direct recording, `shard + 1` = sharded pipeline);
    /// trace events become `"ph": "i"` instants with their fields under
    /// `"args"`. Timestamps are microseconds since recorder creation.
    pub fn to_chrome_trace_string(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for s in self.spans() {
            let Some(end_ns) = s.end_ns else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            write_json_str(&mut out, s.name);
            let _ = write!(
                out,
                ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                s.start_ns as f64 / 1_000.0,
                end_ns.saturating_sub(s.start_ns) as f64 / 1_000.0,
                s.tid
            );
        }
        for e in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            write_json_str(&mut out, e.name);
            let _ = write!(
                out,
                ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{",
                e.t_ns as f64 / 1_000.0
            );
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_str(&mut out, k);
                out.push(':');
                write_field_value(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Prometheus text exposition: the metrics registry snapshot
    /// (histograms, counters, gauges) and the three
    /// `mec_obs_dropped_records{class=…}` series.
    pub fn to_prometheus_string(&self) -> String {
        let mut out = self.metrics.snapshot().to_prometheus_string();
        let d = self.dropped_records();
        out.push_str("# TYPE mec_obs_dropped_records counter\n");
        for (class, value) in [
            ("span", d.spans),
            ("event", d.events),
            ("histogram", d.histogram_samples),
        ] {
            let _ = writeln!(out, "mec_obs_dropped_records{{class=\"{class}\"}} {value}");
        }
        out
    }
}

/// The unlabeled counters of `snap`, in key order: the trace counter
/// namespace that [`TraceSink::counter_add`] writes.
fn trace_counters(snap: &RegistrySnapshot) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    snap.counters
        .iter()
        .filter(|(k, _)| k.label.is_none())
        .map(|(k, v)| (k.name, *v))
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(u) => {
            let _ = write!(out, "{u}");
        }
        FieldValue::I64(i) => {
            let _ = write!(out, "{i}");
        }
        FieldValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Str(s) => write_json_str(out, s),
    }
}

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let id = spans.len() as u64 + 1;
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|(rec, _)| *rec == self.recorder_id)
                .map_or(0, |(_, span)| *span);
            stack.push((self.recorder_id, id));
            parent
        });
        spans.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns: None,
            tid: 0,
        });
        SpanId(id)
    }

    fn span_exit(&self, id: SpanId) {
        if id.is_null() {
            return;
        }
        let end_ns = self.now_ns();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(rec, span)| rec == self.recorder_id && span == id.0)
            {
                stack.remove(pos);
            }
        });
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(record) = spans.get_mut((id.0 - 1) as usize) {
            if record.end_ns.is_none() {
                record.end_ns = Some(end_ns);
            }
        }
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.metrics.add_counter(name, delta);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        self.ingest_event(TraceEvent {
            t_ns: self.now_ns(),
            name,
            fields: fields.to_vec(),
        });
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.metrics.record_histogram(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn spans_nest_by_thread_order() {
        let rec = Recorder::new();
        let outer = span(&rec, "outer");
        let inner = span(&rec, "inner");
        inner.finish();
        outer.finish();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer_rec = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner_rec = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer_rec.parent, 0);
        assert_eq!(inner_rec.parent, outer_rec.id);
        assert!(outer_rec.duration_ns().unwrap() >= inner_rec.duration_ns().unwrap());
    }

    #[test]
    fn two_recorders_keep_separate_parent_stacks() {
        let a = Recorder::new();
        let b = Recorder::new();
        let sa = span(&a, "a_root");
        let sb = span(&b, "b_root");
        sb.finish();
        sa.finish();
        assert_eq!(a.spans()[0].parent, 0);
        assert_eq!(b.spans()[0].parent, 0);
    }

    #[test]
    fn event_ring_evicts_oldest_and_counts_drops() {
        let rec = Recorder::with_event_capacity(3);
        for i in 0..5u64 {
            rec.event("e", &[("i", FieldValue::U64(i))]);
        }
        assert_eq!(rec.dropped_events(), 2);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        let kept: Vec<u64> = events
            .iter()
            .map(|e| match e.fields[0].1 {
                FieldValue::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn json_export_contains_all_sections() {
        let rec = Recorder::new();
        let s = span(&rec, "stage.compression");
        rec.counter_add("greedy.moves_evaluated", 7);
        rec.event(
            "labelprop.round",
            &[
                ("round", FieldValue::U64(1)),
                ("alpha", FieldValue::F64(0.5)),
            ],
        );
        s.finish();
        let json = rec.to_json_string();
        for needle in [
            "\"version\": 1",
            "\"stage.compression\"",
            "\"greedy.moves_evaluated\": 7",
            "\"labelprop.round\"",
            "\"alpha\": 0.5",
            "\"events_dropped\": 0",
            "\"metrics\":",
            "\"duration_ns\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(
            !json.contains("\"warning\""),
            "no warning without evictions"
        );
    }

    #[test]
    fn json_export_warns_once_truncation_happened() {
        let rec = Recorder::with_event_capacity(1);
        rec.event("e", &[]);
        rec.event("e", &[]);
        let json = rec.to_json_string();
        assert!(json.contains("\"events_dropped\": 1"), "{json}");
        assert!(json.contains("\"warning\""), "{json}");
        assert!(json.contains("evicted"), "{json}");
    }

    #[test]
    fn histogram_records_land_in_the_registry() {
        let rec = Recorder::new();
        rec.histogram_record("stage.greedy_nanos", 1_000);
        rec.histogram_record("stage.greedy_nanos", 3_000);
        let snap = rec.metrics().snapshot();
        let h = snap.histogram("stage.greedy_nanos").expect("histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 3_000);
        assert!(rec.to_json_string().contains("stage.greedy_nanos"));
    }

    #[test]
    fn collapsed_stacks_fold_self_time_by_path() {
        let rec = Recorder::new();
        let outer = span(&rec, "pipeline.solve");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = span(&rec, "stage.greedy");
        std::thread::sleep(std::time::Duration::from_millis(2));
        inner.finish();
        outer.finish();
        let folded = rec.to_collapsed_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("pipeline.solve;stage.greedy ")),
            "missing nested frame in:\n{folded}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("pipeline.solve ")),
            "missing root self time in:\n{folded}"
        );
        for line in &lines {
            let (stack, weight) = line.rsplit_once(' ').expect("weight separator");
            assert!(!stack.is_empty());
            assert!(weight.parse::<u64>().is_ok(), "bad weight in {line:?}");
        }
        // root self time excludes the child's time
        let root_ns: u64 = lines
            .iter()
            .find_map(|l| l.strip_prefix("pipeline.solve "))
            .unwrap()
            .parse()
            .unwrap();
        let child_ns: u64 = lines
            .iter()
            .find_map(|l| l.strip_prefix("pipeline.solve;stage.greedy "))
            .unwrap()
            .parse()
            .unwrap();
        let total = rec
            .spans()
            .iter()
            .find(|s| s.name == "pipeline.solve")
            .unwrap()
            .duration_ns()
            .unwrap();
        assert_eq!(root_ns + child_ns, total);
    }
}
