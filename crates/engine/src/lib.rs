//! A miniature deterministic data-parallel compute engine — the
//! workspace's stand-in for Apache Spark.
//!
//! The paper evaluates its spectral offloading algorithm twice: once
//! serially ("our algorithm without Spark") and once with the Laplacian
//! matrix products distributed over Spark (Fig. 9). Reproducing that
//! contrast needs a data-parallel engine, not a cloud: this crate
//! provides a persistent worker pool ([`Cluster`]) that runs one
//! stage of tasks at a time ([`Cluster::run_stage`]), and
//! [`ParallelLaplacian`] — a
//! [`SymOp`](mec_linalg::SymOp) whose matrix-vector products are
//! sharded across the cluster exactly the way the paper shards its
//! matrix multiplications.
//!
//! Everything is deterministic: stage results are reassembled in
//! input order regardless of worker scheduling.
//!
//! Every cluster records its stages and tasks into a
//! [`MetricsRegistry`](mec_obs::MetricsRegistry) — its own, or a shared
//! one such as a trace recorder's — which [`Cluster::metrics`] returns:
//! `engine.stage_width`, `engine.task_nanos{worker}`,
//! `engine.queue_wait_nanos{worker}` and
//! `engine.worker_busy_nanos{worker}`.
//!
//! # Example
//!
//! ```
//! use mec_engine::Cluster;
//!
//! # fn main() -> Result<(), mec_engine::EngineError> {
//! let cluster = Cluster::new(4)?;
//! // eight partitions of 1..=100, one task each; results come back in
//! // partition order whichever worker finished first
//! let partitions: Vec<Vec<i64>> = (1..=100i64)
//!     .collect::<Vec<_>>()
//!     .chunks(13)
//!     .map(<[i64]>::to_vec)
//!     .collect();
//! let sums = cluster.run_stage(partitions, |_, part| part.iter().map(|x| x * x).sum::<i64>())?;
//! assert_eq!(sums.len(), 8);
//! assert_eq!(sums.iter().sum::<i64>(), 338_350);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply_scratch;
mod cluster;
mod error;
mod metrics;
mod parallel_csr;
mod parallel_op;

pub use cluster::{Cluster, StageError};
pub use error::EngineError;
pub use parallel_csr::ParallelCsr;
pub use parallel_op::ParallelLaplacian;
