//! The cluster-backed Laplacian operator.
//!
//! This is the piece that substitutes the paper's "matrix
//! multiplications on Spark" (§IV, Fig. 9): the CSR rows of a graph
//! Laplacian are sharded into row blocks, and every `y = L x` product
//! runs one task per block on the [`Cluster`].

use crate::apply_scratch::{self, ApplyScratch};
use crate::{Cluster, EngineError};
use mec_linalg::SymOp;
use std::sync::{Arc, Mutex};

/// One contiguous block of Laplacian rows in CSR form.
#[derive(Debug)]
struct RowBlock {
    /// First row this block covers.
    start: usize,
    /// Per-row offsets into `columns` / `weights`, block-local
    /// (`offsets[0] == 0`).
    offsets: Vec<usize>,
    columns: Vec<u32>,
    weights: Vec<f64>,
    /// Weighted degree of each row (the Laplacian diagonal).
    degrees: Vec<f64>,
}

impl RowBlock {
    fn apply(&self, x: &[f64], out: &mut Vec<f64>) {
        let rows = self.offsets.len() - 1;
        out.clear();
        out.resize(rows, 0.0);
        mec_linalg::kernels::csr_laplacian_matvec_deg(
            &self.offsets,
            &self.columns,
            &self.weights,
            &self.degrees,
            x,
            self.start,
            out,
        );
    }
}

/// A graph-Laplacian [`SymOp`] whose matrix-vector products are
/// distributed over a [`Cluster`].
///
/// Built from the adjacency edge list of an undirected weighted graph;
/// rows are split into `blocks` shards. Each `apply` broadcasts `x` to
/// the workers (one `Arc` clone per task), runs one task per shard and
/// reassembles `y` in shard order — the same stage structure Spark
/// would use for a block-partitioned `L·x`.
#[derive(Debug, Clone)]
pub struct ParallelLaplacian {
    cluster: Arc<Cluster>,
    blocks: Arc<Vec<RowBlock>>,
    dim: usize,
    /// Recycled broadcast / gather buffers (see [`apply_scratch`]);
    /// shared by clones, which keeps repeated products allocation-free
    /// no matter which handle runs them.
    scratch: Arc<Mutex<ApplyScratch>>,
}

impl ParallelLaplacian {
    /// Builds the operator for a graph with `n` nodes and the given
    /// undirected weighted `edges`, sharded into `blocks` row blocks.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoPartitions`] when `blocks == 0`.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `≥ n` or an edge weight is not
    /// finite (these are programmer errors — graphs validated by
    /// `mec-graph` cannot trigger them).
    pub fn from_edges(
        cluster: Arc<Cluster>,
        n: usize,
        edges: &[(usize, usize, f64)],
        blocks: usize,
    ) -> Result<Self, EngineError> {
        if blocks == 0 {
            return Err(EngineError::NoPartitions);
        }
        // adjacency in CSR
        let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for &(a, b, w) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert!(w.is_finite(), "edge weight must be finite");
            adj[a].push((u32::try_from(b).expect("node id fits u32"), w));
            adj[b].push((u32::try_from(a).expect("node id fits u32"), w));
        }
        let b = blocks.min(n.max(1));
        let rows_per = n.div_ceil(b.max(1)).max(1);
        let mut shards = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + rows_per).min(n);
            let mut offsets = vec![0usize];
            let mut columns = Vec::new();
            let mut weights = Vec::new();
            let mut degrees = Vec::new();
            for row in adj[start..end].iter() {
                let mut deg = 0.0;
                for &(c, w) in row {
                    columns.push(c);
                    weights.push(w);
                    deg += w;
                }
                degrees.push(deg);
                offsets.push(columns.len());
            }
            shards.push(RowBlock {
                start,
                offsets,
                columns,
                weights,
                degrees,
            });
            start = end;
        }
        if shards.is_empty() {
            shards.push(RowBlock {
                start: 0,
                offsets: vec![0],
                columns: vec![],
                weights: vec![],
                degrees: vec![],
            });
        }
        Ok(ParallelLaplacian {
            cluster,
            blocks: Arc::new(shards),
            dim: n,
            scratch: ApplyScratch::shared(),
        })
    }

    /// Number of row blocks (= tasks per matrix-vector product).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The cluster this operator runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }
}

impl SymOp for ParallelLaplacian {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "x length mismatch");
        assert_eq!(y.len(), self.dim, "y length mismatch");
        // broadcast: one shared (pooled) copy of x for the whole
        // stage; each task also carries its pooled output buffer
        let (xs, inputs) = apply_scratch::checkout(&self.scratch, x, self.blocks.len());
        let blocks = Arc::clone(&self.blocks);
        let xs_stage = Arc::clone(&xs);
        let pieces = self
            .cluster
            .run_stage(inputs, move |_, (bi, mut out)| {
                blocks[bi].apply(&xs_stage, &mut out);
                (blocks[bi].start, out)
            })
            .expect("laplacian stage does not panic");
        apply_scratch::retire(&self.scratch, xs, pieces, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_linalg::{smallest_eigenpairs, CsrMatrix, LanczosOptions};

    fn cluster() -> Arc<Cluster> {
        Arc::new(Cluster::new(4).unwrap())
    }

    fn ring_edges(n: usize) -> Vec<(usize, usize, f64)> {
        (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + (i % 3) as f64))
            .collect()
    }

    #[test]
    fn rejects_zero_blocks() {
        assert_eq!(
            ParallelLaplacian::from_edges(cluster(), 4, &ring_edges(4), 0).unwrap_err(),
            EngineError::NoPartitions
        );
    }

    #[test]
    fn matches_serial_laplacian() {
        let n = 57;
        let edges = ring_edges(n);
        let serial = CsrMatrix::laplacian_from_edges(n, &edges).unwrap();
        let par = ParallelLaplacian::from_edges(cluster(), n, &edges, 5).unwrap();
        assert_eq!(par.dim(), n);
        let x: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let mut ys = vec![0.0; n];
        let mut yp = vec![0.0; n];
        serial.apply(&x, &mut ys);
        par.apply(&x, &mut yp);
        for (a, b) in ys.iter().zip(&yp) {
            assert!((a - b).abs() < 1e-12, "serial {a} vs parallel {b}");
        }
    }

    #[test]
    fn block_count_respects_request() {
        let par = ParallelLaplacian::from_edges(cluster(), 100, &ring_edges(100), 8).unwrap();
        assert_eq!(par.block_count(), 8);
        // more blocks than rows clamps
        let par2 = ParallelLaplacian::from_edges(cluster(), 3, &ring_edges(3), 10).unwrap();
        assert!(par2.block_count() <= 3);
    }

    #[test]
    fn eigensolver_runs_on_parallel_backend() {
        let n = 64;
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let par = ParallelLaplacian::from_edges(cluster(), n, &edges, 6).unwrap();
        let opts = LanczosOptions {
            dense_cutoff: 0,
            ..LanczosOptions::default()
        };
        let pairs = smallest_eigenpairs(&par, 2, &opts).unwrap();
        assert!(pairs[0].value.abs() < 1e-8);
        let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!((pairs[1].value - expected).abs() < 1e-7);
    }

    #[test]
    fn empty_graph_operator() {
        let par = ParallelLaplacian::from_edges(cluster(), 0, &[], 3).unwrap();
        assert_eq!(par.dim(), 0);
        let mut y: Vec<f64> = vec![];
        par.apply(&[], &mut y);
    }

    #[test]
    fn stage_metrics_grow_with_applications() {
        let c = cluster();
        let par = ParallelLaplacian::from_edges(Arc::clone(&c), 20, &ring_edges(20), 4).unwrap();
        let stages = || {
            c.metrics()
                .snapshot()
                .histogram_total("engine.stage_width")
                .count()
        };
        let before = stages();
        let x = vec![1.0; 20];
        let mut y = vec![0.0; 20];
        par.apply(&x, &mut y);
        par.apply(&x, &mut y);
        assert_eq!(stages(), before + 2);
    }
}
