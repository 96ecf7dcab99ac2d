//! The traced run's span log: spans the benchmark records around its
//! calls into each layer, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One span. `parent` indexes the enclosing span in the log; `id`
/// names the solve, admission or event the span belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Figures the program reported for this call (for example the
    /// `StageTimings` and `GreedyOutcome` fields of a replan).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name totals over the log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: usize,
    pub total: Duration,
    /// Total minus the time covered by child spans.
    pub self_time: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Opens a span now, nested under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        self.enter_at(name, id, Instant::now())
    }

    /// Opens a span that started at `at` (an open-loop event starts
    /// at its due time, before the benchmark reaches it).
    pub fn enter_at(&mut self, name: &'static str, id: u64, at: Instant) -> usize {
        let start = self.offset(at);
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start,
            end: start,
            attrs: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `idx` (which must be the innermost open one) now.
    pub fn exit(&mut self, idx: usize) -> Duration {
        self.exit_at(idx, Instant::now())
    }

    pub fn exit_at(&mut self, idx: usize, at: Instant) -> Duration {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end = self.offset(at);
        self.spans[idx].duration()
    }

    /// Records a closed child span of the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) -> usize {
        let idx = self.enter_at(name, id, start);
        self.exit_at(idx, end);
        idx
    }

    /// Times `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, id);
        let r = f();
        self.exit(idx);
        r
    }

    pub fn attr(&mut self, idx: usize, key: &'static str, value: f64) {
        self.spans[idx].attrs.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total += s.duration();
            e.self_time += s.duration().saturating_sub(covered);
        }
        out
    }

    /// The span log as JSON: one object per span, times in ns from the
    /// run's origin.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.id,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{}", json_number(*v));
            }
            out.push('}');
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// JSON has no NaN or infinity; those become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut t = Tracer::new(t0);
        let root = t.enter_at("event", 1, t0);
        t.record("a", 1, t0 + ms(1), t0 + ms(3));
        let b = t.enter_at("b", 1, t0 + ms(4));
        t.record("c", 1, t0 + ms(5), t0 + ms(6));
        t.exit_at(b, t0 + ms(8));
        t.exit_at(root, t0 + ms(10));
        let lt = t.layer_times();
        assert_eq!(lt["event"].total, ms(10));
        assert_eq!(lt["event"].self_time, ms(4));
        assert_eq!(lt["b"].self_time, ms(3));
        assert_eq!(lt["c"].self_time, ms(1));
        assert_eq!(t.spans()[2].parent, Some(root));
        assert_eq!(t.spans()[3].parent, Some(b));
        assert!(t.to_json().contains("\"name\":\"c\",\"id\":1,\"parent\":2"));
    }
}
