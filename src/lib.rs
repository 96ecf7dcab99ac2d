//! # COPMECS — multi-user computation offloading for mobile-edge computing
//!
//! A from-scratch Rust reproduction of *"Computation Offloading for
//! Mobile-Edge Computing with Multi-user"* (Dong, Satpute, Shan, Liu,
//! Yu, Yan — IEEE ICDCS 2019): function-level offloading decided by
//! label-propagation graph compression, spectral minimum cuts, and
//! greedy scheme generation over a shared edge server.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`graph`] | `mec-graph` | Function data-flow graphs, bipartitions |
//! | [`linalg`] | `mec-linalg` | Lanczos / tridiagonal-QL eigensolvers |
//! | [`engine`] | `mec-engine` | Data-parallel compute engine (Spark substitute) |
//! | [`netgen`] | `mec-netgen` | NETGEN-style workload generator |
//! | [`app`] | `mec-app` | Synthetic app model + extraction (Soot substitute) |
//! | [`labelprop`] | `mec-labelprop` | Algorithm 1: graph compression |
//! | [`spectral`] | `mec-spectral` | §III-B: Fiedler-vector minimum cuts |
//! | [`baselines`] | `mec-baselines` | Edmonds–Karp, Stoer–Wagner, Kernighan–Lin |
//! | [`model`] | `mec-model` | §II: energy/time cost model, formulas (1)–(6) |
//! | [`obs`] | `mec-obs` | Telemetry: trace sinks, spans, counters, JSON export |
//! | [`core`] | `copmecs-core` | Algorithm 2: the end-to-end offloader |
//!
//! # Quickstart
//!
//! ```
//! use copmecs::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. a workload (here: generated; see mec-app for hand-built apps)
//! let graph = NetgenSpec::new(200, 700).seed(42).generate()?;
//! let scenario = Scenario::new(SystemParams::default())
//!     .with_user(UserWorkload::new("phone-1", graph));
//!
//! // 2. solve with the paper's spectral pipeline
//! let report = Offloader::builder()
//!     .strategy(StrategyKind::Spectral)
//!     .build()
//!     .solve(&scenario)?;
//!
//! // 3. inspect the decision
//! println!(
//!     "offloaded {} of {} functions; E+T = {:.3}",
//!     report.plan[0].count_on(Side::Remote),
//!     200,
//!     report.evaluation.totals.objective(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use copmecs_core as core;
pub use mec_app as app;
pub use mec_baselines as baselines;
pub use mec_engine as engine;
pub use mec_graph as graph;
pub use mec_labelprop as labelprop;
pub use mec_linalg as linalg;
pub use mec_model as model;
pub use mec_netgen as netgen;
pub use mec_obs as obs;
pub use mec_spectral as spectral;

/// The names most programs need, in one import.
pub mod prelude {
    pub use copmecs_core::{
        force_serial, CutStrategy, ExecBackend, ExecCtx, GreedyMode, OffloadReport, OffloadService,
        OffloadSession, Offloader, ServiceReport, StrategyKind,
    };
    pub use mec_app::{ApplicationBuilder, FunctionKind, SyntheticAppSpec};
    pub use mec_graph::{Bipartition, Graph, GraphBuilder, NodeId, Side};
    pub use mec_labelprop::{CompressionConfig, Compressor, ThresholdRule};
    pub use mec_model::{AllocationPolicy, Scenario, SystemParams, UserWorkload};
    pub use mec_netgen::NetgenSpec;
    pub use mec_obs::{NullSink, Recorder, ShardedRecorder, TraceSink};
    pub use mec_spectral::{SpectralBisector, SplitRule};
}
