//! Allocation budget for the spectral hot path.
//!
//! The perf contract this file pins (referenced from
//! `mec_linalg::LanczosScratch` and `mec_spectral::CutScratch` docs):
//!
//! - a warm [`smallest_eigenpairs_with`] re-run at the same dimension
//!   allocates an exact, small number of times — the recurrence inner
//!   loop lives entirely in pooled buffers, so only the convergence
//!   checkpoints and the returned pairs touch the heap;
//! - a warm `partition_reusing` run allocates a small fraction of its
//!   cold first run;
//! - seeding child cuts with the parent's Fiedler restriction changes
//!   wall-time only, not cut quality.
//!
//! Single-thread measurements count the measuring thread's own
//! allocations through a thread-local counter, so concurrent test
//! threads cannot perturb them and every count is exact. Only the
//! sharded-recorder measurement reads the process-global counter (and
//! takes the minimum over several attempts, since a concurrent harness
//! thread can only inflate a sample, never deflate it). Every test in
//! this binary holds [`MEASURE_LOCK`] so that measurement sees as
//! little concurrent allocation as possible, and a failed test cannot
//! poison the others out of their measurements.

use copmecs::linalg::{smallest_eigenpairs_with, CsrMatrix, LanczosOptions, LanczosScratch};
use copmecs::prelude::*;
use copmecs::spectral::{CutScratch, RecursiveBisector, RecursivePartition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and drop-free: reading or bumping it never
    // allocates, so the allocator itself can use it
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to `System` verbatim; the counter updates have no
// safety obligations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // `try_with`: the slot is gone while the thread tears down
            let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the tests of this binary; a panicking test must not
/// turn into failures of every test after it.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

fn measure_lock() -> MutexGuard<'static, ()> {
    MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Heap allocations the calling thread performs while `f` runs — exact
/// for work that stays on this thread.
fn thread_alloc_delta(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

/// Heap allocations performed on any thread while `f` runs.
fn global_alloc_delta(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn laplacian(nodes: usize, edges: usize, seed: u64) -> CsrMatrix {
    let g = NetgenSpec::new(nodes, edges)
        .components(1)
        .seed(seed)
        .generate()
        .expect("generable workload");
    let triples: Vec<(usize, usize, f64)> = g
        .edges()
        .map(|e| (e.source.index(), e.target.index(), e.weight))
        .collect();
    CsrMatrix::laplacian_from_edges(g.node_count(), &triples).expect("valid laplacian")
}

#[test]
fn warm_eigensolver_rerun_allocates_only_checkpoints_and_results() {
    let _guard = measure_lock();
    let l = laplacian(200, 600, 17);
    let opts = LanczosOptions::default();
    let mut scratch = LanczosScratch::new();
    let run = |scratch: &mut LanczosScratch| {
        let pairs =
            smallest_eigenpairs_with(&l, 2, &opts, None, &copmecs::obs::NullSink, scratch).unwrap();
        assert_eq!(pairs.len(), 2);
    };
    // two warm-ups: the first grows the pool, the second grows the
    // pool vector itself to its high-water capacity
    run(&mut scratch);
    run(&mut scratch);
    // The Krylov recurrence itself allocates nothing once warm. This
    // solve takes 8 convergence checkpoints (subspace dimensions 28,
    // 37, 49, 65, 86, 114, 152, 200); each allocates 2 eigenvalue
    // workspaces (QL diagonal and off-diagonal copies), 1 Ritz-vector
    // list and, per requested pair, 3 inverse-iteration factor rows
    // plus 1 iterate: 2 + 1 + 2 × 4 = 11. The returned pairs add the
    // result vector and one eigenvector per pair: 1 + 2 = 3.
    const EXPECTED: u64 = 8 * 11 + 3;
    for _ in 0..3 {
        let delta = thread_alloc_delta(|| run(&mut scratch));
        assert_eq!(
            delta, EXPECTED,
            "warm eigensolver re-run allocation count changed"
        );
    }
}

#[test]
fn warm_partition_rerun_allocates_a_fraction_of_the_cold_run() {
    let _guard = measure_lock();
    let g = NetgenSpec::new(300, 900)
        .components(1)
        .seed(23)
        .generate()
        .expect("generable workload");
    let bisector = RecursiveBisector::new().max_depth(3);
    let mut scratch = CutScratch::new();
    let cold = thread_alloc_delta(|| {
        bisector.partition_reusing(&g, &mut scratch).unwrap();
    });
    // one extra warm-up so every pool reaches its high-water mark
    bisector.partition_reusing(&g, &mut scratch).unwrap();
    let warm = thread_alloc_delta(|| {
        bisector.partition_reusing(&g, &mut scratch).unwrap();
    });
    // the recurrence itself is allocation-free once warm (previous
    // test); what remains on a warm partition run is per-cut result
    // assembly plus the small tridiagonal checkpoint workspaces, so
    // the total must sit well below the cold run but not at zero
    assert!(
        warm * 4 <= cold * 3,
        "warm run should allocate at most three quarters of the cold run, got {warm} vs {cold}"
    );
}

/// The disabled observability hot path — [`NullSink`] counter and
/// histogram records — must stay strictly allocation-free: these calls
/// sit inside the Lanczos and stage loops, and a hidden heap touch
/// there would tax every untraced pipeline run.
#[test]
fn null_sink_hot_path_is_allocation_free() {
    use copmecs::obs::TraceSink;

    let _guard = measure_lock();
    let delta = thread_alloc_delta(|| {
        for i in 0..10_000u64 {
            NullSink.histogram_record("lanczos.iterations", i);
            NullSink.counter_add("lanczos.restarts", 1);
        }
    });
    assert_eq!(delta, 0, "disabled metrics path must not touch the heap");
}

/// An untraced solve and a NullSink-traced solve must produce
/// bit-identical plans, and wiring the NullSink in must not add heap
/// allocations to the solve (the histogram-record call sites compile
/// down to branch-only no-ops).
#[test]
fn null_sink_solve_is_bit_identical_and_allocation_neutral() {
    use copmecs::obs::NullSink;
    use copmecs_core::Offloader;
    use std::sync::Arc;

    let _guard = measure_lock();
    let g = NetgenSpec::new(150, 450)
        .seed(31)
        .generate()
        .expect("generable workload");
    let scenario =
        Scenario::new(SystemParams::default()).with_user(UserWorkload::new("u0", Arc::new(g)));
    let plain = Offloader::new();
    let nulled = Offloader::builder()
        .trace_sink(Arc::new(NullSink) as Arc<dyn TraceSink>)
        .build();

    let plain_report = plain.solve(&scenario).unwrap();
    let nulled_report = nulled.solve(&scenario).unwrap();
    assert_eq!(
        plain_report.plan, nulled_report.plan,
        "NullSink must not perturb the plan"
    );

    // the default offloader solves on the calling thread, so the
    // per-thread counts are exact
    let plain_allocs = thread_alloc_delta(|| drop(plain.solve(&scenario).unwrap()));
    let nulled_allocs = thread_alloc_delta(|| drop(nulled.solve(&scenario).unwrap()));
    assert!(
        nulled_allocs <= plain_allocs,
        "NullSink solve allocated more than the untraced solve: {nulled_allocs} vs {plain_allocs}"
    );
}

/// The *enabled* sharded observability hot path must also stay
/// allocation-free once warm: spans, events, histogram samples, and
/// counter increments all land in pre-sized per-thread SPSC rings (or
/// cached registry counter handles), so after one warm-up round — which
/// interns the names, attaches the thread to a shard, and grows the
/// span stack to its high-water depth — recording never touches the
/// heap. This is
/// the wait-free contract that lets the engine's workers trace without
/// taxing the pipeline.
#[test]
fn warm_sharded_recording_is_allocation_free() {
    use copmecs::obs::{FieldValue, ShardConfig, ShardedRecorder, TraceSink};

    let _guard = measure_lock();
    let rec = ShardedRecorder::with_config(ShardConfig {
        shards: 2,
        capacity: 1 << 15,
        // no aggregator thread: the measurement pins the producer side
        // alone, and manual flushes between rounds keep the rings empty
        drain_interval: None,
        ..ShardConfig::default()
    });
    let round = |rec: &ShardedRecorder| {
        for i in 0..64u64 {
            let guard = copmecs::obs::span(rec, "alloc.unit");
            rec.counter_add("alloc.count", 1);
            rec.event("alloc.tick", &[("i", FieldValue::U64(i))]);
            rec.histogram_record("alloc.nanos", i + 1);
            guard.finish();
        }
    };
    round(&rec);
    rec.flush();
    // the recorder is shared across threads by design, so count every
    // thread's allocations and take the minimum over attempts
    let min_delta = (0..5)
        .map(|_| {
            let d = global_alloc_delta(|| round(&rec));
            rec.flush();
            d
        })
        .min()
        .unwrap();
    assert_eq!(
        min_delta, 0,
        "warm sharded recording must not touch the heap"
    );
}

/// A steady-state [`OffloadSession::replan`] evaluates the live crowd
/// directly — it must NOT rebuild a `Scenario` (re-collecting every
/// user's name and graph handle) per call. This pins the allocation
/// count of a warm replan against a calibrated ceiling sized for the
/// greedy pass plus plan/evaluation assembly alone; a regression back
/// to per-call scenario rebuilding blows well past it.
#[test]
fn steady_state_replan_allocations_stay_pinned() {
    let _guard = measure_lock();
    let mut session = OffloadSession::new(SystemParams::default());
    for i in 0..6u64 {
        let g = NetgenSpec::new(60, 180)
            .seed(100 + i)
            .generate()
            .expect("generable workload");
        session
            .join(format!("u{i}"), std::sync::Arc::new(g))
            .unwrap();
    }
    // warm-up: interns strings, grows any lazily-sized buffers
    session.replan().unwrap();
    let warm = thread_alloc_delta(|| drop(session.replan().unwrap()));
    // calibrated: a 6-user replan measures ~215 allocations (greedy
    // part-system + per-user costs + report assembly); the ceiling
    // leaves ~2.5x headroom while staying low enough that per-call
    // scenario rebuilding (one clone per user per replan on top)
    // cannot creep back in unnoticed
    assert!(
        warm <= 600,
        "steady-state replan allocation count regressed: {warm} > 600"
    );
}

/// Recursive bisection without child seeds: an owned sub-graph and a
/// fresh [`SpectralBisector::bisect`] per level, so every eigensolve
/// starts from the pseudo-random vector.
fn unseeded_partition(g: &Graph, depth: usize) -> RecursivePartition {
    let bisector = SpectralBisector::new();
    let mut part_of = vec![0u32; g.node_count()];
    let mut parts = 0u32;
    let ids: Vec<NodeId> = g.node_ids().collect();
    let mut stack = vec![(g.clone(), ids, depth)];
    while let Some((sub, to_root, left)) = stack.pop() {
        let cut = (left > 0 && sub.node_count() >= 2).then(|| bisector.bisect(&sub).unwrap());
        let Some(cut) = cut.filter(|c| c.partition.is_proper()) else {
            for id in &to_root {
                part_of[id.index()] = parts;
            }
            parts += 1;
            continue;
        };
        // remote side pushed first so the local (left) side is cut
        // first, numbering parts like the recursive bisector
        for side in [Side::Remote, Side::Local] {
            let locals: Vec<NodeId> = sub
                .node_ids()
                .filter(|&n| cut.partition.side(n) == side)
                .collect();
            let child = copmecs::graph::Subgraph::induced(&sub, &locals);
            let child_to_root = child
                .parent_ids()
                .iter()
                .map(|&l| to_root[l.index()])
                .collect();
            stack.push((child.into_parts().0, child_to_root, left - 1));
        }
    }
    RecursivePartition {
        part_of,
        parts: parts as usize,
    }
}

#[test]
fn parent_seeded_recursion_keeps_unseeded_cut_quality_across_seeds() {
    let _guard = measure_lock();
    for seed in [5u64, 11, 23, 42] {
        let g = NetgenSpec::new(260, 780)
            .components(1)
            .seed(seed)
            .generate()
            .expect("generable workload");
        let unseeded = unseeded_partition(&g, 2);
        let mut scratch = CutScratch::new();
        let seeded = RecursiveBisector::new()
            .max_depth(2)
            .partition_reusing(&g, &mut scratch)
            .unwrap();
        assert_eq!(unseeded.parts, seeded.parts, "seed {seed}");
        let (uw, sw) = (unseeded.cut_weight(&g), seeded.cut_weight(&g));
        assert!(
            (uw - sw).abs() <= 0.05 * uw.max(sw) + 1e-9,
            "cut quality diverged at seed {seed}: unseeded {uw} vs seeded {sw}"
        );
    }
}

/// A warm replan that the convergence certificate settles makes an
/// exact number of heap allocations, and none of them grows with the
/// candidates the crowd holds: after a departure the replan has no
/// churned user to re-seat and no rescan to run, so what allocates is
/// the `O(crowd)` scalar work around the search.
#[test]
fn certified_warm_replan_allocations_are_exact() {
    use copmecs::obs::Recorder;
    use std::sync::Arc;

    let _guard = measure_lock();
    let crowd: Vec<(String, Arc<Graph>)> = (0..9u64)
        .map(|i| {
            let g = NetgenSpec::new(60, 180)
                .seed(300 + i)
                .generate()
                .expect("generable workload");
            (format!("u{i}"), Arc::new(g))
        })
        .collect();
    let sink = Arc::new(Recorder::new());
    let mut traced = OffloadSession::new(SystemParams::default())
        .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let mut session = OffloadSession::new(SystemParams::default());
    for s in [&mut traced, &mut session] {
        s.join_many(crowd.clone()).unwrap();
        // the rebuild, then a warm replan that derives every user's
        // candidate lines and sizes the index's buffers
        s.replan().unwrap();
        s.replan().unwrap();
        assert!(s.leave("u4"));
    }
    traced.replan().unwrap();
    assert_eq!(
        sink.counter_value("greedy.certified"),
        2,
        "both warm replans must pass the certificate"
    );

    let users = 8;
    let mut report = None;
    let warm = thread_alloc_delta(|| report = Some(session.replan().unwrap()));
    let report = report.unwrap();
    assert_eq!(report.plan.len(), users);
    assert_eq!(report.greedy.moves, 0);
    // the greedy objective bookkeeping: three per-user accumulators;
    // pricing: the copied cost rows; the report: the plan's outer
    // vector plus one row per user, and the compression statistics
    let release = 3 + 1 + (1 + users) + 1;
    // debug builds also run the oracles: `all_moves` (two vectors)
    // over the certified placement, and `PartSystem::plan` (outer
    // vector plus one row per user) and `evaluate_plan_for` (its
    // rows) against the cached report
    let oracles = |users: usize| 2 + (1 + users) + 1;
    let expected = if cfg!(debug_assertions) {
        release + oracles(users)
    } else {
        release
    };
    assert_eq!(
        warm, expected as u64,
        "certified warm replan allocation count changed"
    );

    // a service copies the rows into the report its shard returned
    // last time, so only the bookkeeping's accumulators remain (a
    // service replans only dirty shards: each warm-up needs churn)
    let mut service = OffloadService::new(SystemParams::default(), 1);
    service.join_many(crowd).unwrap();
    service.replan().unwrap();
    assert!(service.leave("u4"));
    service.replan().unwrap();
    assert!(service.leave("u5"));
    let warm = thread_alloc_delta(|| {
        service.replan().unwrap();
    });
    assert_eq!(service.shard_report(0).unwrap().greedy.evaluations, 0);
    let expected = if cfg!(debug_assertions) {
        3 + oracles(users - 1)
    } else {
        3
    };
    assert_eq!(
        warm, expected as u64,
        "certified warm service replan allocation count changed"
    );
}
