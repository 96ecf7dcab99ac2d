//! Direct calls into the front-end layers, timed and allocation-counted
//! from outside: `Compressor::compress` and `CutStrategy::cut_reusing`
//! on the default spectral strategy, over a workload's own graphs.

use crate::alloc::counted;
use crate::trace::Tracer;
use copmecs_core::StrategyKind;
use mec_graph::Graph;
use mec_labelprop::Compressor;
use mec_obs::MetricsSink;
use mec_spectral::CutScratch;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct FrontEndReplay {
    pub compress_us: Vec<f64>,
    pub compress_allocs: Vec<f64>,
    pub cut_ms: Vec<f64>,
    /// Allocations per cut with a warm arena, as the serial solve path
    /// runs it (the arena lives in the execution context).
    pub cut_allocs: Vec<f64>,
    pub offloadable_nodes: usize,
    pub supernodes: usize,
    pub quotient_nodes: usize,
    pub cuts: usize,
    /// Summed weight of every cut, in graph order: exact, so any change
    /// to cut quality shows.
    pub cut_weight: f64,
    /// Lanczos iterations the eigensolver recorded during the first
    /// pass (through the strategy's public trace-sink builder).
    pub lanczos_iterations: u64,
    pub failures: Vec<String>,
}

impl FrontEndReplay {
    pub fn supernodes_per_node(&self) -> f64 {
        self.supernodes as f64 / self.offloadable_nodes.max(1) as f64
    }
    pub fn quotient_nodes_per_cut(&self) -> f64 {
        self.quotient_nodes as f64 / self.cuts.max(1) as f64
    }
    pub fn lanczos_per_cut(&self) -> f64 {
        self.lanczos_iterations as f64 / self.cuts.max(1) as f64
    }
}

/// Compresses and cuts each graph twice. The first pass warms the cut
/// arena and fills the exact figures (nodes, weights, Lanczos
/// iterations) with a telemetry-carrying strategy; the second pass is
/// timed and counted on the plain default strategy.
pub fn replay<'a>(
    graphs: impl IntoIterator<Item = &'a Graph> + Clone,
    tracer: &mut Tracer,
) -> FrontEndReplay {
    let compressor = Compressor::default();
    let sink = Arc::new(MetricsSink::new());
    let counting = StrategyKind::Spectral.build_with_sink(sink.clone());
    let strategy = StrategyKind::Spectral.build();
    let mut scratch = CutScratch::new();
    let mut out = FrontEndReplay::default();
    for warm in [false, true] {
        for (gi, g) in graphs.clone().into_iter().enumerate() {
            let id = gi as u64;
            let span = tracer.enter("labelprop.compress", id);
            let t = Instant::now();
            let (outcome, allocs) = counted(|| compressor.compress(g));
            let dt = t.elapsed();
            tracer.exit(span);
            if warm {
                out.compress_us.push(dt.as_secs_f64() * 1e6);
                out.compress_allocs.push(allocs.allocs as f64);
            } else {
                out.offloadable_nodes += outcome.stats.offloadable_nodes;
                out.supernodes += outcome.stats.compressed_nodes;
            }
            for comp in &outcome.components {
                let q = comp.quotient.graph();
                let span = tracer.enter("spectral.cut", id);
                let t = Instant::now();
                let cutter = if warm { &strategy } else { &counting };
                let (cut, allocs) = counted(|| cutter.cut_reusing(q, &mut scratch));
                let dt = t.elapsed();
                tracer.exit(span);
                match cut {
                    Ok(cut) if !warm => {
                        out.cuts += 1;
                        out.quotient_nodes += q.node_count();
                        out.cut_weight += cut.cut_weight(q);
                    }
                    Ok(_) => {
                        out.cut_ms.push(dt.as_secs_f64() * 1e3);
                        out.cut_allocs.push(allocs.allocs as f64);
                    }
                    Err(e) => out.failures.push(format!("cut failed: {e}")),
                }
            }
        }
    }
    out.lanczos_iterations = sink
        .registry()
        .snapshot()
        .histogram("lanczos.iterations")
        .map_or(0, |h| h.sum());
    out
}
