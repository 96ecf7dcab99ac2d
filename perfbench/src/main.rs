//! The repository benchmark: default-path solve, crowd admission and
//! open-loop churn, with a separate traced run for per-layer figures.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The lines
//! before it are a human-readable table with sample counts.

mod alloc;
mod churn;
mod crowd;
mod fig9;
mod gen;
mod layers;
mod loadgen;
mod oracle;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_p50_ms", "ms"),
    ("event_p50_ms", "ms"),
    ("admit_users_per_s", "1/s"),
    ("objective", "cost"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work on a workload reports 0. `event_p99_ms` and `events_per_s`
/// sit here, unbounded: on a host whose speed drifts in seconds-long
/// episodes the tail, and the mean service time behind `events_per_s`,
/// moved by about as much as the largest allowed bound between runs.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("event_p99_ms", "ms"),
    ("events_per_s", "1/s"),
    ("labelprop.compress_us", "us"),
    ("labelprop.allocs_per_compress", "count"),
    ("labelprop.supernodes_per_node", "ratio"),
    ("labelprop.share_pct", "%"),
    ("spectral.cut_ms", "ms"),
    ("spectral.cut_ms_per_op", "ms"),
    ("spectral.allocs_per_cut", "count"),
    ("spectral.quotient_nodes", "count"),
    ("spectral.cut_weight", "weight"),
    ("spectral.share_pct", "%"),
    ("linalg.lanczos_iterations", "count"),
    ("greedy.ms_per_replan", "ms"),
    ("greedy.evaluations_per_replan", "count"),
    ("greedy.moves_per_replan", "count"),
    ("greedy.evals_per_move", "ratio"),
    ("greedy.share_pct", "%"),
    ("session.replan_rest_ms", "ms"),
    ("session.share_pct", "%"),
    ("model.evaluate_ms", "ms"),
    ("service.admit_us", "us"),
    ("service.leave_us", "us"),
    ("service.replanned_shards", "count"),
    ("service.shard_gap_pct", "%"),
    ("service.share_pct", "%"),
    ("loadgen.queue_wait_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("alloc.per_event", "count"),
    ("alloc.bytes_per_event", "bytes"),
    ("alloc.per_solve", "count"),
    ("obs.records", "count"),
    ("obs.dropped", "count"),
    ("obs.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

pub const WORKLOADS: [&str; 4] = ["fig9-solve", "crowd-admit", "churn", "churn-telemetry"];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Config {
    /// Where the traced run writes its span log.
    fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.json", self.workload, self.seed))
    }
}

/// A workload's result: metrics by name, lines of notes for the table,
/// the operation tally and (traced runs) the span log.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub tally: oracle::Tally,
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Runs `f` `reps` times and returns the last result with each run's
/// wall time in seconds.
pub fn repeat_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // free the previous set-up before building the next
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn pct(part: f64, whole: f64) -> f64 {
    100.0 * part / whole.max(f64::MIN_POSITIVE)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(Duration::from_secs(s)),
                _ => usage(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Config {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    let cfg = parse_args();
    let mut out = match cfg.workload.as_str() {
        "fig9-solve" => fig9::run(&cfg),
        "crowd-admit" => crowd::run(&cfg),
        "churn" => churn::run(&cfg, false),
        "churn-telemetry" => churn::run(&cfg, true),
        _ => unreachable!("workload validated by parse_args"),
    };
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    out.set("error_rate", out.tally.error_rate());
    if !cfg.trace {
        out.set("peak_rss_mb", alloc::peak_rss_mb());
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace)
    );
    for line in &out.notes {
        println!("  {line}");
    }
    println!(
        "  error_rate {} ({} failed of {} operations)",
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    );
    for reason in &out.tally.reasons {
        println!("  FAILED: {reason}");
    }
    let mut json = Vec::with_capacity(names.len());
    let mut missing = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            // only failed operations leave an end-to-end metric unset
            None => {
                missing.push(name);
                f64::NAN
            }
        };
        println!("  {name:<32} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            trace::json_number(value)
        ));
    }
    if let Some(tracer) = &out.spans {
        println!(
            "  {:<24} {:>7} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in tracer.layer_times() {
            println!(
                "  {name:<24} {:>7} {:>12.3} {:>12.3}",
                t.count,
                ms(t.total),
                ms(t.self_time)
            );
        }
        let path = cfg.trace_path();
        let written = std::fs::create_dir_all(path.parent().expect("out dir"))
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!(
                "  spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write the span log: {e}"),
        }
    }
    if !missing.is_empty() {
        println!("  FAILED: metrics not produced: {missing:?}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0 && missing.is_empty(),
        out.tally.attempted.max(1),
        out.tally.failed,
        json.join(", ")
    );
}
