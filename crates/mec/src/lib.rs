//! The multi-user MEC system model (paper §II).
//!
//! Every user `u_i` runs one application, modelled as a function
//! data-flow graph, against a single shared edge server `S`. Given an
//! offloading plan (a [`Bipartition`](mec_graph::Bipartition) per
//! user), this crate prices it with the paper's formulas:
//!
//! | Paper | Here |
//! |---|---|
//! | (1) `t_c = Σ w / I_c`                       | [`UserCost::local_time`] |
//! | (2) `t_s = Σ w / I_s + wt`                  | [`UserCost::remote_time`] + [`UserCost::wait_time`] |
//! | (3) `e_c = t_c · p_c`                       | [`UserCost::local_energy`] |
//! | (4) `e_t = Σ s(v_j,v_l) · p_t / b`          | [`UserCost::tx_energy`] |
//! | (5) `t_t = Σ s(v_j,v_l) / b`                | [`UserCost::tx_time`] |
//! | (6) `min(E), min(T)`                        | [`CostSummary::energy`], [`CostSummary::time`], scalarised as [`CostSummary::objective`] |
//!
//! The shared server capacity is divided between offloading users by an
//! [`AllocationPolicy`]; with more users each share shrinks, which is
//! exactly the contention the paper's multi-user experiments
//! (Figs. 6–8) measure.
//!
//! # Example
//!
//! ```
//! use mec_model::{Scenario, SystemParams, UserWorkload};
//! use mec_graph::{GraphBuilder, Bipartition, Side};
//!
//! # fn main() -> Result<(), mec_model::ModelError> {
//! let mut b = GraphBuilder::new();
//! let sense = b.add_pinned_node(2.0);
//! let crunch = b.add_node(50.0);
//! b.add_edge(sense, crunch, 8.0).unwrap();
//! let g = b.build();
//!
//! let scenario = Scenario::new(SystemParams::default())
//!     .with_user(UserWorkload::new("alice", g));
//! // offload the cruncher, keep the sensor local
//! let plan = vec![Bipartition::from_sides(vec![Side::Local, Side::Remote])];
//! let eval = scenario.evaluate(&plan)?;
//! assert!(eval.totals.energy > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod params;
mod scenario;

pub use cost::{
    evaluate_plan_for, evaluate_rows, price_user, validate_plan_for, CostSummary, Evaluation,
    UserCost,
};
pub use params::{AllocationPolicy, SystemParams};
pub use scenario::{Scenario, UserWorkload};

use mec_graph::NodeId;
use std::error::Error;
use std::fmt;

/// Errors raised while evaluating an offloading plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The plan has a different number of partitions than the scenario
    /// has users.
    PlanLengthMismatch {
        /// Users in the scenario.
        users: usize,
        /// Partitions supplied.
        plans: usize,
    },
    /// A partition covers fewer nodes than its user's graph.
    PartitionTooSmall {
        /// Offending user index.
        user: usize,
    },
    /// An unoffloadable function was placed on the server.
    PinnedNodeOffloaded {
        /// Offending user index.
        user: usize,
        /// The pinned node.
        node: NodeId,
    },
    /// A system parameter is non-positive or non-finite.
    InvalidParams(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::PlanLengthMismatch { users, plans } => {
                write!(f, "plan covers {plans} users but scenario has {users}")
            }
            ModelError::PartitionTooSmall { user } => {
                write!(f, "partition for user {user} covers too few nodes")
            }
            ModelError::PinnedNodeOffloaded { user, node } => {
                write!(
                    f,
                    "unoffloadable node {node} of user {user} placed on the server"
                )
            }
            ModelError::InvalidParams(what) => write!(f, "invalid system parameter: {what}"),
        }
    }
}

impl Error for ModelError {}
