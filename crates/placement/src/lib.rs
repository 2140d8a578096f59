//! # mutsvc-placement — automatic wide-area component placement
//!
//! The paper hand-derives its edge deployments and argues (§5, §7) that
//! containers should automate them. This crate is that automation:
//!
//! * [`graph`] — component interaction graphs (petgraph-backed), hosts,
//!   pinning/replication attributes and placement problems;
//! * [`cost`](mod@cost) — the wide-area objective: RMI round trips × rates
//!   across the placement cut, plus replica-consistency pushes and capacity
//!   penalties — with an incremental evaluator ([`cost::incremental`])
//!   that prices a replica toggle in `O(degree)` and a primary move in one
//!   pass over the component's replica set (its sums at the target) plus
//!   `O(degree)`, instead of re-sweeping the whole graph;
//! * [`algorithms`] — greedy hill-climbing with replica moves (derives the
//!   read-mostly pattern), its region-coarsened variant for large host
//!   sets, and exhaustive enumeration (the optimality oracle);
//! * [`derive`](mod@derive) — extracting problems from the Pet Store and
//!   RUBiS models under the paper's workload, with validation that the
//!   optimizer *recovers the paper's final deployments*;
//! * [`wan`] — deriving host matrices from simulated multi-tier topologies
//!   (latency-shortest multi-hop round trips, the same pricing the engine
//!   and the static analyzer use).
//!
//! ## Example
//!
//! ```
//! use mutsvc_placement::algorithms::greedy::{solve, GreedyOptions};
//! use mutsvc_placement::derive::petstore_problem;
//!
//! let (problem, _app) = petstore_problem();
//! let (placement, cost) = solve(&problem, &GreedyOptions::default());
//! assert!(cost.is_finite());
//! // The catalog entities end up replicated on the edge servers.
//! let item = problem.graph.by_name("ItemEJB").unwrap();
//! assert_eq!(placement.replicas[item.index()].len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod cost;
pub mod derive;
pub mod graph;
pub mod wan;

pub use cost::incremental::{CostEvaluator, Move};
pub use cost::{cost, cost_breakdown, CostBreakdown};
pub use graph::{
    Component, ComponentGraph, CostParams, Host, HostId, Interaction, Placement, PlacementProblem,
    Role,
};
/// Component handle into a [`ComponentGraph`] (re-exported so downstream
/// crates can name [`Move`] targets without depending on petgraph).
pub use petgraph::graph::NodeIndex;
