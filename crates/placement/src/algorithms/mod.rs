//! Placement algorithms: exhaustive enumeration, greedy hill-climbing with
//! replication, Kernighan–Lin bipartitioning, METIS-style multilevel k-way
//! partitioning, and deterministic parallel multi-start search.
//!
//! Every algorithm prices candidate moves through the incremental
//! [`CostEvaluator`](crate::cost::incremental::CostEvaluator) — a
//! single-component move costs `O(degree × hosts)` instead of a
//! whole-graph cost sweep. Every hill-climb (greedy, the regional
//! refinement, multi-start polish and the partitioners' polish) runs the
//! one cached best-improvement loop, [`greedy::climb`].

pub mod annealing;
pub mod exhaustive;
pub mod greedy;
pub mod kl;
pub mod multilevel;
pub mod multistart;
pub mod regional;

use crate::graph::{Placement, PlacementProblem};

pub use annealing::{solve as annealing_solve, AnnealingOptions};
pub use greedy::{improve as greedy_improve, solve as greedy_solve, GreedyOptions};
pub use kl::solve_recursive as kl_recursive_solve;
pub use multilevel::{
    partition as multilevel_partition, solve as multilevel_solve, MultilevelOptions,
};
pub use multistart::{solve_multistart, MultistartOptions};
pub use regional::{host_regions, region_medoids, solve_regional, RegionalOptions};

/// Bounded primary-move polish against the true wide-area cost, shared by
/// the partitioners (KL, multilevel) whose internal objective is a rate×RTT
/// proxy. At most one best-improvement move per component, no replication —
/// the partition contracts ("primaries only") are preserved.
pub(crate) fn polish_primaries(
    problem: &PlacementProblem,
    placement: Placement,
) -> (Placement, f64) {
    greedy::improve(
        problem,
        placement,
        &GreedyOptions {
            max_rounds: problem.graph.len(),
            with_replication: false,
        },
    )
}
