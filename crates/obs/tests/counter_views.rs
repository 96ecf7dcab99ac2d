//! One counter, one value: a counter added from several threads through
//! [`TraceSink::counter_add`] reads back the same exact total from every
//! view of both recorders — `counter_value`, the registry snapshot, the
//! JSON trace's `counters` section, and the Prometheus exposition.

use mec_obs::{Recorder, ShardedRecorder, TraceSink};
use std::sync::Arc;

const THREADS: u64 = 4;
const ADDS: u64 = 1_000;
/// Each thread adds `1..=ADDS`, so the total is exact and not a
/// multiple of the call count.
const TOTAL: u64 = THREADS * ADDS * (ADDS + 1) / 2;

fn hammer(sink: Arc<dyn TraceSink>) {
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for delta in 1..=ADDS {
                    sink.counter_add("views.hits", delta);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

/// The trace-level `"counters": { … }` object of a JSON trace export
/// (the first one; the nested `metrics` document has its own).
fn json_counters_section(json: &str) -> &str {
    let start = json.find("\"counters\": {").expect("counters section");
    let len = json[start..].find('}').expect("closed section");
    &json[start..start + len]
}

fn assert_every_view_reads(
    counter_value: u64,
    registry_value: Option<u64>,
    json: &str,
    prometheus: &str,
) {
    assert_eq!(counter_value, TOTAL);
    assert_eq!(registry_value, Some(TOTAL));
    let section = json_counters_section(json);
    assert!(
        section.contains(&format!("\"views.hits\": {TOTAL}")),
        "JSON counters section disagrees: {section}"
    );
    let samples: Vec<&str> = prometheus
        .lines()
        .filter(|l| l.starts_with("views_hits"))
        .collect();
    assert_eq!(samples, vec![format!("views_hits {TOTAL}")]);
    let type_lines = prometheus
        .lines()
        .filter(|l| *l == "# TYPE views_hits counter")
        .count();
    assert_eq!(type_lines, 1, "one family, one TYPE line:\n{prometheus}");
}

#[test]
fn recorder_shows_one_counter_value_in_every_view() {
    let rec = Arc::new(Recorder::new());
    hammer(Arc::clone(&rec) as Arc<dyn TraceSink>);
    assert_every_view_reads(
        rec.counter_value("views.hits"),
        rec.metrics().snapshot().counter("views.hits"),
        &rec.to_json_string(),
        &rec.to_prometheus_string(),
    );
}

#[test]
fn sharded_recorder_shows_one_counter_value_in_every_view() {
    let rec = Arc::new(ShardedRecorder::new());
    hammer(Arc::clone(&rec) as Arc<dyn TraceSink>);
    assert_every_view_reads(
        rec.counter_value("views.hits"),
        rec.metrics().snapshot().counter("views.hits"),
        &rec.to_json_string(),
        &rec.to_prometheus_string(),
    );
}
