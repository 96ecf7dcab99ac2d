//! The spectral hot-path benchmark (perf PR artefact).
//!
//! Measures the Fig. 9 multi-user front-end — recursive Fiedler cuts
//! of every compressed component. Scenario generation and compression
//! run once, untimed; the timed region is the partitioning of the
//! pre-compressed quotient graphs, measured two ways:
//!
//! - **baseline**: the pre-scratch-arena shape of the code. Every
//!   recursion level materialises an owned sub-graph
//!   ([`Subgraph::induced`]), every cut builds a fresh CSR snapshot and
//!   lets Lanczos allocate a new Krylov basis, and every solve starts
//!   from the random vector instead of a parent seed.
//! - **optimized**: the current hot path. One [`CutScratch`] arena for
//!   the whole run, index-space [`mec_graph::CsrView`] restriction
//!   instead of owned sub-graphs, and each child cut's Lanczos
//!   recurrence seeded with the restriction of its parent's Fiedler
//!   vector.
//!
//! Both sides run the same eigensolver; the baseline differs only in
//! the code shape around it.
//!
//! Both sides are recorded in the same [`HotpathReport`] (written as
//! `BENCH_spectral.json` by `experiments --bench-out`), so every PR
//! carries its own before/after evidence.

use crate::runtime::runtime_graph;
use copmecs_core::{CutStrategy, PipelineError, StrategyKind};
use mec_graph::{Graph, NodeId, Side, Subgraph};
use mec_labelprop::{CompressionConfig, Compressor};
use mec_obs::{span, NullSink, ShardedRecorder, TraceSink};
use mec_spectral::{CutScratch, RecursiveBisector, RecursivePartition, SpectralBisector};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Cumulative allocator counters, supplied by the measuring *binary*
/// (only a binary can install the counting `#[global_allocator]`; this
/// library just diffs snapshots). All counters are monotone.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct AllocSnapshot {
    /// Heap allocations since process start.
    pub allocations: u64,
    /// Bytes requested since process start.
    pub allocated_bytes: u64,
    /// High-water mark of live heap bytes since process start.
    pub peak_bytes: u64,
}

/// Reads the current allocator counters; `None` when the binary has no
/// counting allocator (the alloc fields are then omitted as `null`).
pub type AllocProbe<'a> = Option<&'a dyn Fn() -> AllocSnapshot>;

/// Workload shape: the Fig. 9 multi-user front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HotpathSpec {
    /// Users in the scenario (one single-component graph each).
    pub users: usize,
    /// Functions per user graph.
    pub nodes: usize,
    /// Base RNG seed (user `i` uses `seed + i`).
    pub seed: u64,
    /// Recursive-bisection depth (up to `2^depth` parts per component).
    pub depth: usize,
    /// Timed repetitions; the mean is reported.
    pub iters: usize,
}

impl Default for HotpathSpec {
    fn default() -> Self {
        // nodes is chosen so compressed components stay well above the
        // eigensolver's dense cutoff: the hot path under test is the
        // sparse Lanczos recursion, as in the paper's larger Fig. 9
        // sizes, not the dense small-graph fallback
        HotpathSpec {
            users: 8,
            nodes: 2000,
            seed: 9,
            depth: 3,
            iters: 3,
        }
    }
}

/// One measured side (baseline or optimized).
#[derive(Debug, Clone, Serialize)]
pub struct HotpathMeasurement {
    /// Which implementation this row measured.
    pub label: String,
    /// Numeric-kernel variant active during the measurement
    /// (`"scalar"` or `"simd"`); reports predating the kernel layer
    /// omit the field and are read as `"scalar"`.
    pub kernel: String,
    /// Mean wall-clock seconds per front-end run.
    pub seconds: f64,
    /// Heap allocations per run (`None` without a counting allocator).
    pub allocations: Option<u64>,
    /// Bytes requested per run.
    pub allocated_bytes: Option<u64>,
    /// Growth of the live-bytes high-water mark across the run.
    pub peak_growth_bytes: Option<u64>,
    /// Total parts produced across all users/components (sanity).
    pub parts: usize,
    /// Total cut weight across all users/components (sanity).
    pub cut_weight: f64,
}

/// Tracing overhead on the Fig. 9 front-end, the quantity the
/// perf-gate's observability budget is enforced against.
///
/// Three variants of the *same* instrumented front-end loop
/// (compression + per-component cuts, the shape of
/// `copmecs_core`'s `prepare_user_reusing`) are timed min-of-iters:
///
/// - **off** — no instrumentation calls at all (no spans, no
///   histogram samples, untraced compression): the true floor;
/// - **null** — every call site active but wired to [`NullSink`]:
///   what the default pipeline pays for carrying the seams;
/// - **sharded** — a live [`ShardedRecorder`] with its background
///   aggregator running: what always-on tracing costs.
#[derive(Debug, Clone, Serialize)]
pub struct ObsOverhead {
    /// Min wall-clock seconds per front-end run, uninstrumented.
    pub off_seconds: f64,
    /// Min seconds with call sites wired to the `NullSink`.
    pub null_seconds: f64,
    /// Min seconds with a live sharded recorder (aggregator on).
    pub sharded_seconds: f64,
    /// `null_seconds / off_seconds - 1` (call-site cost).
    pub null_overhead: f64,
    /// `sharded_seconds / off_seconds - 1` (enabled-tracing cost —
    /// the gated quantity).
    pub sharded_overhead: f64,
    /// Spans + events + histogram samples the sharded leg recorded
    /// (evidence the instrumentation was actually live).
    pub sharded_records: u64,
    /// Records the sharded leg dropped (should be 0 at default
    /// capacities).
    pub sharded_dropped: u64,
}

/// The before/after record written to `BENCH_spectral.json`.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathReport {
    /// The workload both sides ran.
    pub spec: HotpathSpec,
    /// Pre-arena shape: owned sub-graphs, unseeded Lanczos, fresh
    /// buffers.
    pub baseline: HotpathMeasurement,
    /// Current shape: CsrView + CutScratch + parent-seeded Lanczos,
    /// scalar kernels.
    pub optimized: HotpathMeasurement,
    /// The optimized shape under the unrolled 4-lane kernels; `None`
    /// when the binary was built without the `simd` cargo feature.
    pub optimized_simd: Option<HotpathMeasurement>,
    /// `baseline.seconds / optimized.seconds`.
    pub speedup: f64,
    /// `optimized.seconds / optimized_simd.seconds`, when measured.
    pub simd_speedup: Option<f64>,
    /// `baseline.allocations / optimized.allocations`, when measured.
    pub alloc_ratio: Option<f64>,
    /// Tracing overhead (off / NullSink / sharded-on); `None` only in
    /// reports predating the observability pipeline.
    pub obs_overhead: Option<ObsOverhead>,
}

/// Pre-arena recursive bisection: owned [`Subgraph::induced`] per
/// level, an unseeded [`SpectralBisector::bisect`] per cut (fresh CSR
/// snapshot, fresh Krylov basis). Faithful to the code shape before the
/// scratch arena landed — this is the measured baseline, not a straw
/// man: the split rule, depth, and leaf policy match the optimized
/// side exactly.
fn baseline_partition(
    g: &Graph,
    depth: usize,
    min_nodes: usize,
) -> Result<RecursivePartition, PipelineError> {
    let bisector = SpectralBisector::new();
    let mut part_of = vec![0u32; g.node_count()];
    let mut parts = 0u32;
    // (owned sub-graph, root ids, remaining depth)
    let ids: Vec<NodeId> = (0..g.node_count()).map(NodeId::new).collect();
    let mut stack: Vec<(Graph, Vec<NodeId>, usize)> = vec![(g.clone(), ids, depth)];
    while let Some((sub, to_root, left_depth)) = stack.pop() {
        let n = sub.node_count();
        if left_depth == 0 || n < min_nodes.max(2) {
            for id in &to_root {
                part_of[id.index()] = parts;
            }
            parts += 1;
            continue;
        }
        let cut = bisector
            .bisect(&sub)
            .map_err(|e| PipelineError::Cut(e.into()))?;
        if !cut.partition.is_proper() {
            for id in &to_root {
                part_of[id.index()] = parts;
            }
            parts += 1;
            continue;
        }
        let mut sides = [Vec::new(), Vec::new()];
        for i in 0..n {
            let side = usize::from(cut.partition.side(NodeId::new(i)) != Side::Local);
            sides[side].push(NodeId::new(i));
        }
        // right pushed first so the left child is processed first, like
        // the optimized partitioner — part numbering stays comparable
        for locals in [&sides[1], &sides[0]] {
            let child = Subgraph::induced(&sub, locals);
            let child_to_root: Vec<NodeId> = child
                .parent_ids()
                .iter()
                .map(|&local| to_root[local.index()])
                .collect();
            let (child_graph, _) = child.into_parts();
            stack.push((child_graph, child_to_root, left_depth - 1));
        }
    }
    Ok(RecursivePartition {
        part_of,
        parts: parts as usize,
    })
}

/// Sums parts and cut weight over per-component partitions, mapping
/// nothing back to the original graphs — both sides are summed the same
/// way, so the totals are directly comparable.
fn tally(acc: &mut (usize, f64), partition: &RecursivePartition, component: &Graph) {
    acc.0 += partition.parts;
    acc.1 += partition.cut_weight(component);
}

fn measure(
    label: &str,
    spec: &HotpathSpec,
    probe: AllocProbe<'_>,
    mut front_end: impl FnMut(&[Graph]) -> Result<(usize, f64), PipelineError>,
    graphs: &[Graph],
) -> Result<HotpathMeasurement, PipelineError> {
    // untimed warm-up: fault in code paths and grow arenas to their
    // high-water mark so the timed runs measure the steady state
    let (parts, cut_weight) = front_end(graphs)?;
    let before = probe.map(|p| p());
    let start = Instant::now();
    for _ in 0..spec.iters.max(1) {
        std::hint::black_box(front_end(graphs)?);
    }
    let seconds = start.elapsed().as_secs_f64() / spec.iters.max(1) as f64;
    let after = probe.map(|p| p());
    let per_iter = |f: fn(&AllocSnapshot) -> u64| {
        before
            .as_ref()
            .zip(after.as_ref())
            .map(|(b, a)| (f(a) - f(b)) / spec.iters.max(1) as u64)
    };
    Ok(HotpathMeasurement {
        label: label.to_string(),
        kernel: mec_linalg::kernels::kernel_name().to_string(),
        seconds,
        allocations: per_iter(|s| s.allocations),
        allocated_bytes: per_iter(|s| s.allocated_bytes),
        // peak growth is not divided: it is a high-water delta over the
        // whole timed window (zero once arenas are warm)
        peak_growth_bytes: before
            .as_ref()
            .zip(after.as_ref())
            .map(|(b, a)| a.peak_bytes - b.peak_bytes),
        parts,
        cut_weight,
    })
}

/// The instrumented Fig. 9 front-end loop: compression plus
/// per-component cuts with the same spans and histogram samples
/// `copmecs_core`'s `prepare_user_reusing` emits. All three overhead
/// variants run this exact shape; only the sink differs.
fn instrumented_front_end(
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    sink: &dyn TraceSink,
    graphs: &[Graph],
    scratch: &mut CutScratch,
) -> Result<(), PipelineError> {
    for g in graphs {
        let s = span(sink, "stage.compression");
        let outcome = compressor.compress_traced(g, sink);
        let compression = s.finish();
        sink.histogram_record(
            "stage.compression_nanos",
            u64::try_from(compression.as_nanos()).unwrap_or(u64::MAX),
        );
        let s = span(sink, "stage.cutting");
        for comp in &outcome.components {
            strategy.cut_reusing(comp.quotient.graph(), scratch)?;
        }
        let cutting = s.finish();
        sink.histogram_record(
            "stage.cutting_nanos",
            u64::try_from(cutting.as_nanos()).unwrap_or(u64::MAX),
        );
    }
    Ok(())
}

/// The same loop with instrumentation compiled out of the call sites
/// entirely — untraced compression, no spans, no samples.
fn bare_front_end(
    compressor: &Compressor,
    strategy: &dyn CutStrategy,
    graphs: &[Graph],
    scratch: &mut CutScratch,
) -> Result<(), PipelineError> {
    for g in graphs {
        let outcome = compressor.compress(g);
        for comp in &outcome.components {
            strategy.cut_reusing(comp.quotient.graph(), scratch)?;
        }
    }
    Ok(())
}

/// Min-of-iters wall time of one front-end variant (one untimed
/// warm-up first). Min is used instead of mean because the overhead
/// deltas being resolved are small against scheduler noise.
fn min_seconds(
    iters: usize,
    mut run_once: impl FnMut() -> Result<(), PipelineError>,
) -> Result<f64, PipelineError> {
    run_once()?;
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        std::hint::black_box(run_once()?);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// Measures tracing overhead on the Fig. 9 front-end: off vs
/// [`NullSink`] vs live [`ShardedRecorder`]. Runs on whatever kernel
/// variant is currently active.
///
/// # Errors
///
/// [`PipelineError::Cut`] if a component cannot be bipartitioned.
pub fn measure_obs_overhead(
    spec: &HotpathSpec,
    graphs: &[Graph],
) -> Result<ObsOverhead, PipelineError> {
    let compressor = Compressor::new(CompressionConfig::default());
    let iters = spec.iters.max(1);

    let off_seconds = {
        let strategy = StrategyKind::Spectral.build();
        let mut scratch = CutScratch::new();
        min_seconds(iters, || {
            bare_front_end(&compressor, strategy.as_ref(), graphs, &mut scratch)
        })?
    };

    let null_seconds = {
        let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
        let strategy = StrategyKind::Spectral.build_with_sink(Arc::clone(&sink));
        let mut scratch = CutScratch::new();
        min_seconds(iters, || {
            instrumented_front_end(
                &compressor,
                strategy.as_ref(),
                sink.as_ref(),
                graphs,
                &mut scratch,
            )
        })?
    };

    let recorder = Arc::new(ShardedRecorder::new());
    let sharded_seconds = {
        let sink: Arc<dyn TraceSink> = Arc::clone(&recorder) as Arc<dyn TraceSink>;
        let strategy = StrategyKind::Spectral.build_with_sink(Arc::clone(&sink));
        let mut scratch = CutScratch::new();
        min_seconds(iters, || {
            instrumented_front_end(
                &compressor,
                strategy.as_ref(),
                sink.as_ref(),
                graphs,
                &mut scratch,
            )
        })?
    };
    recorder.flush();
    let sharded_records = recorder.spans().len() as u64
        + recorder.events().len() as u64
        + recorder
            .metrics()
            .snapshot()
            .histogram("stage.cutting_nanos")
            .map_or(0, |h| h.count());
    let sharded_dropped = recorder.dropped_records().total();

    Ok(ObsOverhead {
        off_seconds,
        null_seconds,
        sharded_seconds,
        null_overhead: null_seconds / off_seconds - 1.0,
        sharded_overhead: sharded_seconds / off_seconds - 1.0,
        sharded_records,
        sharded_dropped,
    })
}

/// Runs the before/after measurement on the Fig. 9 multi-user
/// front-end workload.
///
/// # Errors
///
/// [`PipelineError::Cut`] if a component cannot be bipartitioned
/// (does not happen on generable workloads).
///
/// # Panics
///
/// Panics if `spec.users == 0` or the workload is not generable.
pub fn run(spec: &HotpathSpec, probe: AllocProbe<'_>) -> Result<HotpathReport, PipelineError> {
    assert!(spec.users > 0, "need at least one user");
    let graphs: Vec<Graph> = (0..spec.users)
        .map(|i| runtime_graph(spec.nodes, spec.seed + i as u64))
        .collect();
    // scenario generation AND compression are hoisted out of the timed
    // closures: both sides partition the same pre-compressed quotient
    // graphs, so the timings isolate the spectral hot path instead of
    // being drowned by netgen + labelprop time that is identical on
    // every side
    let compressor = Compressor::new(CompressionConfig::default());
    let quotients: Vec<Graph> = graphs
        .iter()
        .flat_map(|g| {
            compressor
                .compress(g)
                .components
                .iter()
                .map(|comp| comp.quotient.graph().clone())
                .collect::<Vec<Graph>>()
        })
        .collect();
    let depth = spec.depth;

    // both reference sides run on the scalar kernels, whatever mode the
    // process was in; the prior mode is restored before returning
    let prior_simd = mec_linalg::kernels::simd_enabled();
    mec_linalg::kernels::set_simd_enabled(false);

    let baseline = measure(
        "owned-subgraph unseeded (pre-arena shape)",
        spec,
        probe,
        |quotients| {
            let mut acc = (0usize, 0.0f64);
            for quotient in quotients {
                let p = baseline_partition(quotient, depth, 2)?;
                tally(&mut acc, &p, quotient);
            }
            Ok(acc)
        },
        &quotients,
    )?;

    let optimized_bisector = RecursiveBisector::new().max_depth(depth);
    let mut scratch = CutScratch::new();
    let mut optimized_run = |label: &str| {
        measure(
            label,
            spec,
            probe,
            |quotients| {
                let mut acc = (0usize, 0.0f64);
                for quotient in quotients {
                    let p = optimized_bisector
                        .partition_reusing(quotient, &mut scratch)
                        .map_err(|e| PipelineError::Cut(e.into()))?;
                    tally(&mut acc, &p, quotient);
                }
                Ok(acc)
            },
            &quotients,
        )
    };
    let optimized = optimized_run("csr-view scratch-arena parent-seeded")?;

    // the same hot path again under the unrolled kernels, when the
    // binary carries them — one process measures both variants so the
    // report's scalar/simd rows share every other condition
    let optimized_simd = if mec_linalg::kernels::set_simd_enabled(true) {
        Some(optimized_run("csr-view scratch-arena parent-seeded")?)
    } else {
        None
    };
    mec_linalg::kernels::set_simd_enabled(prior_simd);

    // tracing overhead rides on the same report: the full front-end
    // (compression + cuts) under off / NullSink / sharded-on sinks,
    // measured on the original user graphs since compression is part
    // of the instrumented surface
    let obs_overhead = Some(measure_obs_overhead(spec, &graphs)?);

    let speedup = baseline.seconds / optimized.seconds;
    let simd_speedup = optimized_simd
        .as_ref()
        .map(|s| optimized.seconds / s.seconds);
    let alloc_ratio = baseline
        .allocations
        .zip(optimized.allocations)
        .map(|(b, o)| b as f64 / (o.max(1)) as f64);
    Ok(HotpathReport {
        spec: *spec,
        baseline,
        optimized,
        optimized_simd,
        speedup,
        simd_speedup,
        alloc_ratio,
        obs_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_comparable_sides() {
        let spec = HotpathSpec {
            users: 2,
            nodes: 80,
            seed: 4,
            depth: 2,
            iters: 1,
        };
        let r = run(&spec, None).unwrap();
        assert!(r.baseline.seconds > 0.0);
        assert!(r.optimized.seconds > 0.0);
        assert!(r.speedup > 0.0);
        assert!(r.baseline.parts >= 2);
        assert!(r.optimized.parts >= 2);
        // identical leaf policy and depth: part counts land close even
        // though the two recursions split independently
        let (bp, op) = (r.baseline.parts as f64, r.optimized.parts as f64);
        assert!(
            (bp - op).abs() <= 0.5 * bp.max(op),
            "part counts diverged: baseline {bp} vs optimized {op}"
        );
        // no counting allocator in unit tests
        assert!(r.baseline.allocations.is_none());
        assert!(r.alloc_ratio.is_none());
        // the overhead rows always ride along and carry live evidence
        let obs = r.obs_overhead.expect("obs overhead measured");
        assert!(obs.off_seconds > 0.0);
        assert!(obs.null_seconds > 0.0);
        assert!(obs.sharded_seconds > 0.0);
        assert!(obs.sharded_records > 0, "sharded leg recorded nothing");
        assert_eq!(obs.sharded_dropped, 0);
    }

    #[test]
    fn probe_deltas_are_attached_when_supplied() {
        use std::cell::Cell;
        let calls = Cell::new(0u64);
        let probe = || {
            // monotone fake counters: each probe call advances them
            calls.set(calls.get() + 1);
            AllocSnapshot {
                allocations: calls.get() * 100,
                allocated_bytes: calls.get() * 1000,
                peak_bytes: calls.get() * 10,
            }
        };
        let spec = HotpathSpec {
            users: 1,
            nodes: 60,
            seed: 2,
            depth: 1,
            iters: 1,
        };
        let r = run(&spec, Some(&probe)).unwrap();
        assert!(r.baseline.allocations.is_some());
        assert!(r.optimized.allocated_bytes.is_some());
        assert!(r.optimized.peak_growth_bytes.is_some());
        assert!(r.alloc_ratio.is_some());
    }
}
