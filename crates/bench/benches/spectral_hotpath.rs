//! Criterion bench for the zero-realloc spectral hot path.
//!
//! Benches the per-user front-end (compress → recursive Fiedler cuts)
//! in two configurations so a regression in either layer of the
//! optimisation shows up as its own curve:
//!
//! - `cold`: a fresh arena per call;
//! - `scratch`: one [`CutScratch`] arena reused across calls — the
//!   hot path as wired by `experiments --bench-out BENCH_spectral.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mec_bench::runtime::runtime_graph;
use mec_graph::Graph;
use mec_labelprop::{CompressionConfig, Compressor};
use mec_spectral::{CutScratch, RecursiveBisector};

const DEPTH: usize = 3;

fn front_end_quotients(users: usize, nodes: usize) -> Vec<Graph> {
    let compressor = Compressor::new(CompressionConfig::default());
    (0..users)
        .flat_map(|i| {
            let g = runtime_graph(nodes, mec_bench::DEFAULT_SEED + i as u64);
            compressor
                .compress(&g)
                .components
                .iter()
                .map(|c| c.quotient.graph().clone())
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bench_spectral_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/front_end");
    group.sample_size(10);
    // small enough for a smoke run, large enough that every quotient
    // clears the eigensolver's dense cutoff and Lanczos actually runs
    let quotients = front_end_quotients(2, 600);

    group.bench_with_input(BenchmarkId::from_parameter("cold"), &quotients, |b, qs| {
        let bisector = RecursiveBisector::new().max_depth(DEPTH);
        b.iter(|| {
            let mut parts = 0usize;
            for q in qs {
                parts += bisector.partition(std::hint::black_box(q)).unwrap().parts;
            }
            std::hint::black_box(parts)
        })
    });

    group.bench_with_input(
        BenchmarkId::from_parameter("scratch"),
        &quotients,
        |b, qs| {
            let bisector = RecursiveBisector::new().max_depth(DEPTH);
            let mut scratch = CutScratch::new();
            b.iter(|| {
                let mut parts = 0usize;
                for q in qs {
                    parts += bisector
                        .partition_reusing(std::hint::black_box(q), &mut scratch)
                        .unwrap()
                        .parts;
                }
                std::hint::black_box(parts)
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_spectral_hotpath);
criterion_main!(benches);
