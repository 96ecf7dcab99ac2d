//! The reusable cut arena.
//!
//! The paper's dominant cost is the spectral stage — thousands of
//! Laplacian–vector products per cut — and before this arena existed
//! every cut of every component of every user re-allocated its CSR
//! snapshot, its Krylov basis, and its sweep buffers from a cold heap.
//! [`CutScratch`] owns all of those; threading one instance through
//! [`SpectralBisector::bisect_reusing`](crate::SpectralBisector::bisect_reusing)
//! or [`RecursiveBisector::partition_reusing`](crate::RecursiveBisector::partition_reusing)
//! makes every cut after the first allocation-free in the eigensolver's
//! inner loop (pinned by `tests/alloc_budget.rs`).

use mec_graph::CsrAdjacency;
use mec_linalg::LanczosScratch;

/// Reusable buffers for repeated spectral cuts.
///
/// One arena serves any sequence of graphs: buffers grow to the
/// high-water mark and are recycled from then on. The arena is `Send`,
/// so a cluster task can own one and reuse it across every component
/// it cuts — but it is deliberately not `Sync`-shared: each worker
/// threads its own. In the pipeline the arena's owner is the
/// execution context: `copmecs_core::ExecCtx`'s serial backend embeds
/// one `CutScratch` that survives across solves, and its cluster
/// backend gives each stage task a private arena.
#[derive(Debug, Default)]
pub struct CutScratch {
    /// Krylov-recurrence buffer pool (basis vectors, work vectors).
    pub(crate) lanczos: LanczosScratch,
    /// Reusable CSR snapshot of the graph currently being cut.
    pub(crate) csr: CsrAdjacency,
    /// Reusable compact CSR of the subset currently being cut
    /// (recursive bisection compacts each [`mec_graph::CsrView`] here
    /// so the eigensolver iterates on a dense-rowed CSR instead of
    /// re-filtering parent rows every matrix–vector product).
    pub(crate) csr_sub: CsrAdjacency,
    /// Sweep / median node orderings (also the connectivity check's
    /// breadth-first queue).
    pub(crate) order: Vec<usize>,
    /// Sweep membership flags (also the connectivity check's marks).
    pub(crate) local: Vec<bool>,
    /// Parent → local index map for CSR views (recursive bisection).
    pub(crate) to_local: Vec<u32>,
    /// Pool of node-subset index buffers (recursive bisection).
    pub(crate) idx_pool: Vec<Vec<u32>>,
    /// Pool of float buffers (child Krylov start vectors).
    pub(crate) f64_pool: Vec<Vec<f64>>,
}

impl CutScratch {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks an index buffer out of the pool.
    pub(crate) fn checkout_idx(&mut self) -> Vec<u32> {
        let mut buf = self.idx_pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns an index buffer to the pool.
    pub(crate) fn retire_idx(&mut self, buf: Vec<u32>) {
        self.idx_pool.push(buf);
    }

    /// Checks a float buffer out of the pool.
    pub(crate) fn checkout_f64(&mut self) -> Vec<f64> {
        let mut buf = self.f64_pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a float buffer to the pool.
    pub(crate) fn retire_f64(&mut self, buf: Vec<f64>) {
        self.f64_pool.push(buf);
    }
}
