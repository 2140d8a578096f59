//! Exhaustive search over primary assignments (no replication).
//!
//! Exponential — use only for small graphs (≲ 12 free components on 3
//! hosts). Serves as the optimality oracle for the heuristic algorithms.
//!
//! Candidates are visited by mutating a single [`CostEvaluator`] in place:
//! each odometer tick is one (amortized) primary move priced by delta
//! evaluation, instead of a full `Placement` rebuild plus `repair_pins`
//! plus whole-graph cost sweep per candidate.

use petgraph::graph::NodeIndex;

use crate::cost::incremental::{CostEvaluator, Move};
use crate::graph::{HostId, Placement, PlacementProblem};

/// Finds the cost-minimal primary-only placement by enumeration.
///
/// # Panics
///
/// Panics if the search space exceeds `10^7` candidates (guard against
/// accidental exponential blow-up).
pub fn solve(problem: &PlacementProblem) -> (Placement, f64) {
    let free: Vec<NodeIndex> = problem
        .graph
        .graph
        .node_indices()
        .filter(|&n| problem.graph.graph[n].pinned.is_none())
        .collect();
    let h = problem.hosts.len();
    let space = (h as f64).powi(free.len() as i32);
    assert!(space <= 1e7, "exhaustive search space too large: {space}");

    // The all-zeros odometer state IS the all-on-host-0 start (pins repaired
    // by `all_on`); every subsequent candidate is one in-place move away.
    let mut eval = CostEvaluator::new(problem, Placement::all_on(problem, HostId(0)));
    let mut best = eval.placement();
    let mut best_cost = eval.total();

    let mut assignment = vec![0usize; free.len()];
    loop {
        // Odometer increment, mutating the evaluator digit by digit.
        let mut i = 0;
        loop {
            if i == assignment.len() {
                return (best, best_cost);
            }
            assignment[i] += 1;
            if assignment[i] < h {
                eval.apply(Move::MovePrimary {
                    node: free[i],
                    to: HostId(assignment[i]),
                });
                break;
            }
            assignment[i] = 0;
            eval.apply(Move::MovePrimary {
                node: free[i],
                to: HostId(0),
            });
            i += 1;
        }
        eval.commit();
        let c = eval.total();
        if c < best_cost {
            best_cost = c;
            best = eval.placement();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Component, ComponentGraph, CostParams, Host, Role};

    #[test]
    fn exhaustive_colocates_a_chatty_chain() {
        // a -(100/s)- b -(1/s)- db@h0 ; entry at h1 only.
        let mut g = ComponentGraph::new();
        let web = g.add(Component {
            name: "web".into(),
            role: Role::Entry,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        let a = g.add(Component {
            name: "a".into(),
            role: Role::Stateless,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        let b = g.add(Component {
            name: "b".into(),
            role: Role::Stateless,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        let db = g.add(Component {
            name: "db".into(),
            role: Role::Database,
            pinned: Some(HostId(0)),
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        g.interact(web, a, 10.0, 0.0);
        g.interact(a, b, 100.0, 0.0);
        g.interact(b, db, 1.0, 0.0);
        let problem = PlacementProblem {
            hosts: vec![
                Host {
                    name: "h0".into(),
                    entry_share: 0.0,
                    cpu_capacity: f64::INFINITY,
                },
                Host {
                    name: "h1".into(),
                    entry_share: 1.0,
                    cpu_capacity: f64::INFINITY,
                },
            ],
            rtt_ms: vec![vec![0.0, 100.0], vec![100.0, 0.0]],
            graph: g,
            params: CostParams::default(),
        };
        let (placement, c) = solve(&problem);
        // a and b belong together at the entry host; only b->db crosses.
        assert_eq!(placement.primary[a.index()], HostId(1));
        assert_eq!(placement.primary[b.index()], HostId(1));
        assert!((c - 1.0 * 100.0 * 1.65).abs() < 1.0, "cost {c}");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn blowup_guard() {
        let mut g = ComponentGraph::new();
        for i in 0..40 {
            g.add(Component {
                name: format!("c{i}"),
                role: Role::Stateless,
                pinned: None,
                cpu_ms_per_call: 1.0,
                write_rate: 0.0,
            });
        }
        let problem = PlacementProblem {
            hosts: vec![
                Host {
                    name: "h0".into(),
                    entry_share: 1.0,
                    cpu_capacity: f64::INFINITY,
                },
                Host {
                    name: "h1".into(),
                    entry_share: 0.0,
                    cpu_capacity: f64::INFINITY,
                },
            ],
            rtt_ms: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            graph: g,
            params: CostParams::default(),
        };
        let _ = solve(&problem);
    }
}
