//! Placement algorithms: greedy hill-climbing with replication, its
//! region-coarsened variant for large host sets, and exhaustive
//! enumeration as the optimality oracle the tests compare against.
//!
//! Every algorithm prices candidate moves through the incremental
//! [`CostEvaluator`](crate::cost::incremental::CostEvaluator) — a
//! single-component move costs `O(degree × hosts)` instead of a
//! whole-graph cost sweep. Both hill-climbs (greedy and the regional
//! refinement) run the one cached best-improvement loop,
//! [`greedy::climb`].

pub mod exhaustive;
pub mod greedy;
pub mod regional;

pub use greedy::{improve as greedy_improve, solve as greedy_solve, GreedyOptions};
pub use regional::{host_regions, region_medoids, solve_regional, RegionalOptions};
