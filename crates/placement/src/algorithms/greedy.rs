//! Greedy hill-climbing with replication moves.
//!
//! Best-improvement local search over three move kinds:
//!
//! * move a component's primary to another host,
//! * add a read-only replica of a replicable component,
//! * drop a replica.
//!
//! Replica moves are how the search *derives the read-mostly pattern*: a
//! replica is added exactly when the remote-read savings exceed the
//! consistency-push cost — the trade-off §4.3 discusses qualitatively.
//!
//! Candidate moves are priced through the incremental [`CostEvaluator`]'s
//! [`delta`](CostEvaluator::delta), which reads the evaluator's state and
//! writes none of it, so probing a replica toggle costs `O(degree)` and a
//! primary move one pass over the component's replica set plus
//! `O(degree)`, instead of a whole-graph sweep per candidate. Only the
//! committed move is applied.
//!
//! [`climb`] is the one best-improvement loop every hill-climb runs: this
//! module's flat search, the region-restricted refinement and the
//! live-migration controller's one-move rounds. It caches each
//! component's best improving move and, after committing a move, re-probes
//! only the components [`CostEvaluator::mark_stale`] marks: the moved
//! component and its graph neighbours, or every component when some host
//! has finite CPU capacity. A re-probed component's primary moves are
//! priced again, but its replica toggles are priced once per
//! `(component, host)` and re-priced only when `mark_stale` resets that
//! price: after a replica toggle at host `h`, only the toggles at `h` of
//! the marked components. The cached search commits exactly the moves a
//! full re-scan of every candidate would, in the same order, with the
//! same deltas.

use petgraph::graph::NodeIndex;

use crate::cost::incremental::{CostEvaluator, Move};
use crate::graph::{HostId, Placement, PlacementProblem};

/// Search options.
#[derive(Debug, Clone)]
pub struct GreedyOptions {
    /// Maximum improvement rounds (defensive bound; convergence is typical).
    pub max_rounds: usize,
    /// Also try replica add/remove moves.
    pub with_replication: bool,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            max_rounds: 1_000,
            with_replication: true,
        }
    }
}

/// Best-improvement hill-climbing on `eval` for at most `max_rounds`
/// committed moves. `candidates` appends, in probe order, one component's
/// candidate moves at the evaluator's current state; it must read only
/// that component's own placement. Each candidate is priced with
/// [`CostEvaluator::delta`], without applying it. Each round applies and
/// commits the move with the most negative delta below `−1e-9`, the first
/// in node-major candidate order on ties. Returns the committed moves in
/// order, each with the delta its probe priced.
///
/// A move's delta reads only the state of the moved component and its
/// neighbours (plus host loads under finite capacity), so a component's
/// cached best move stays exact until [`CostEvaluator::mark_stale`] marks
/// it. A marked component's primary moves are re-priced, since they read
/// its whole replica set; its replica toggles are priced once per
/// `(component, host)` in each call and re-priced only after `mark_stale`
/// resets that price. Either way the climb commits the same moves, with
/// the same deltas, as re-probing every candidate in every round.
pub fn climb(
    eval: &mut CostEvaluator,
    max_rounds: usize,
    candidates: impl Fn(&CostEvaluator, NodeIndex, &mut Vec<Move>),
) -> Vec<(Move, f64)> {
    let components = eval.components();
    let hosts = eval.hosts();
    let mut best: Vec<Option<(Move, f64)>> = vec![None; components];
    let mut stale = vec![true; components];
    let mut toggle_delta = vec![f64::NAN; components * hosts];
    let mut probes = Vec::new();
    let mut committed = Vec::new();
    for _ in 0..max_rounds {
        for (n, slot) in best.iter_mut().enumerate() {
            if !std::mem::take(&mut stale[n]) {
                continue;
            }
            probes.clear();
            candidates(eval, NodeIndex::new(n), &mut probes);
            *slot = None;
            for &mv in &probes {
                let delta = match mv {
                    Move::MovePrimary { .. } => eval.delta(mv),
                    Move::AddReplica { node, host } | Move::DropReplica { node, host } => {
                        let cached = &mut toggle_delta[node.index() * hosts + host.0];
                        if cached.is_nan() {
                            *cached = eval.delta(mv);
                        }
                        *cached
                    }
                };
                if delta < -1e-9 && slot.is_none_or(|(_, bd)| delta < bd) {
                    *slot = Some((mv, delta));
                }
            }
        }
        let mut round_best: Option<(Move, f64)> = None;
        for &(mv, delta) in best.iter().flatten() {
            if round_best.is_none_or(|(_, bd)| delta < bd) {
                round_best = Some((mv, delta));
            }
        }
        let Some((mv, delta)) = round_best else {
            break;
        };
        eval.apply(mv);
        eval.commit();
        eval.mark_stale(mv, &mut stale, &mut toggle_delta);
        committed.push((mv, delta));
    }
    committed
}

/// The flat neighbourhood: a movable component's primary may move to any
/// other host, and a replicable component may toggle a replica at any host
/// but its primary.
pub fn neighborhood(
    problem: &PlacementProblem,
    with_replication: bool,
) -> impl Fn(&CostEvaluator, NodeIndex, &mut Vec<Move>) + '_ {
    let hosts = problem.hosts.len();
    move |eval, node, out| {
        let spec = &problem.graph.graph[node];
        let primary = eval.primary_of(node);
        let others = (0..hosts).map(HostId).filter(move |&h| h != primary);
        if spec.pinned.is_none() {
            out.extend(others.clone().map(|to| Move::MovePrimary { node, to }));
        }
        if with_replication && spec.role.replicable() {
            out.extend(others.map(|host| eval.toggle_replica(node, host)));
        }
    }
}

/// Runs hill-climbing from `start` until no move improves the cost.
pub fn improve(
    problem: &PlacementProblem,
    mut start: Placement,
    options: &GreedyOptions,
) -> (Placement, f64) {
    start.repair_pins(problem);
    let mut eval = CostEvaluator::new(problem, start);
    climb(
        &mut eval,
        options.max_rounds,
        neighborhood(problem, options.with_replication),
    );
    (eval.placement(), eval.total())
}

/// Runs hill-climbing from several canonical starts (everything on each
/// host) and returns the best result. A later start replaces the best only
/// when it is cheaper by more than a relative 1e-9: each climb's running
/// total carries the last-bit rounding of its own committed moves, and
/// equal-cost optima must not be chosen by that noise.
pub fn solve(problem: &PlacementProblem, options: &GreedyOptions) -> (Placement, f64) {
    let mut best: Option<(Placement, f64)> = None;
    for h in 0..problem.hosts.len() {
        let (placement, c) = improve(problem, Placement::all_on(problem, HostId(h)), options);
        if best
            .as_ref()
            .is_none_or(|(_, bc)| c < bc - 1e-9 * bc.abs().max(1.0))
        {
            best = Some((placement, c));
        }
    }
    best.expect("at least one host")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::exhaustive;
    use crate::graph::{Component, ComponentGraph, CostParams, Host, Role};

    fn star_problem(read_rate: f64, write_rate: f64) -> PlacementProblem {
        // web@entries -> entity -> (db edge only on writes, folded into
        // write_rate), db pinned at h0.
        let mut g = ComponentGraph::new();
        let web = g.add(Component {
            name: "web".into(),
            role: Role::Entry,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        let entity = g.add(Component {
            name: "entity".into(),
            role: Role::Entity,
            pinned: Some(HostId(0)),
            cpu_ms_per_call: 1.0,
            write_rate,
        });
        g.interact(web, entity, read_rate, 200.0);
        PlacementProblem {
            hosts: vec![
                Host {
                    name: "main".into(),
                    entry_share: 1.0 / 3.0,
                    cpu_capacity: f64::INFINITY,
                },
                Host {
                    name: "edge1".into(),
                    entry_share: 1.0 / 3.0,
                    cpu_capacity: f64::INFINITY,
                },
                Host {
                    name: "edge2".into(),
                    entry_share: 1.0 / 3.0,
                    cpu_capacity: f64::INFINITY,
                },
            ],
            rtt_ms: vec![
                vec![0.0, 200.0, 200.0],
                vec![200.0, 0.0, 400.0],
                vec![200.0, 400.0, 0.0],
            ],
            graph: g,
            params: CostParams::default(),
        }
    }

    #[test]
    fn read_mostly_state_gets_replicated() {
        let p = star_problem(10.0, 0.1);
        let (placement, _) = solve(&p, &GreedyOptions::default());
        let entity = p.graph.by_name("entity").unwrap();
        assert_eq!(
            placement.primary[entity.index()],
            HostId(0),
            "primary pinned"
        );
        assert_eq!(
            placement.replicas[entity.index()].len(),
            2,
            "replicas at both edges"
        );
    }

    #[test]
    fn write_heavy_state_stays_centralized() {
        let p = star_problem(0.2, 50.0);
        let (placement, _) = solve(&p, &GreedyOptions::default());
        let entity = p.graph.by_name("entity").unwrap();
        assert!(
            placement.replicas[entity.index()].is_empty(),
            "no replicas for hot writers"
        );
    }

    #[test]
    fn crossover_follows_the_read_write_ratio() {
        // Sweep the write rate: replication should stop paying at some point.
        let mut replicated = Vec::new();
        for write_rate in [0.0, 0.5, 2.0, 10.0, 40.0] {
            let p = star_problem(5.0, write_rate);
            let (placement, _) = solve(&p, &GreedyOptions::default());
            let entity = p.graph.by_name("entity").unwrap();
            replicated.push(!placement.replicas[entity.index()].is_empty());
        }
        assert!(replicated[0], "free replication at zero writes");
        assert!(!replicated[4], "replication must stop at high write rates");
        // Monotone: once it stops paying it never resumes.
        let first_false = replicated.iter().position(|r| !r).unwrap();
        assert!(
            replicated[first_false..].iter().all(|r| !r),
            "{replicated:?}"
        );
    }

    #[test]
    fn matches_exhaustive_without_replication() {
        let p = star_problem(3.0, 1.0);
        let options = GreedyOptions {
            with_replication: false,
            ..Default::default()
        };
        let (_, greedy_cost) = solve(&p, &options);
        let (_, optimal) = exhaustive::solve(&p);
        assert!(
            greedy_cost <= optimal + 1e-6,
            "greedy {greedy_cost} vs optimal {optimal}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn random_problem(
            n: usize,
            edges: &[(usize, usize, f64)],
            shares: (f64, f64),
        ) -> PlacementProblem {
            let mut g = ComponentGraph::new();
            let mut nodes = Vec::new();
            for i in 0..n {
                let role = if i == 0 {
                    Role::Entry
                } else if i == n - 1 {
                    Role::Database
                } else {
                    Role::Stateless
                };
                nodes.push(g.add(Component {
                    name: format!("c{i}"),
                    role,
                    pinned: if role == Role::Database {
                        Some(HostId(0))
                    } else {
                        None
                    },
                    cpu_ms_per_call: 1.0,
                    write_rate: 0.0,
                }));
            }
            for &(a, b, rate) in edges {
                if a != b {
                    g.interact(nodes[a % n], nodes[b % n], rate, 100.0);
                }
            }
            let total = shares.0 + shares.1;
            PlacementProblem {
                hosts: vec![
                    Host {
                        name: "h0".into(),
                        entry_share: shares.0 / total,
                        cpu_capacity: f64::INFINITY,
                    },
                    Host {
                        name: "h1".into(),
                        entry_share: shares.1 / total,
                        cpu_capacity: f64::INFINITY,
                    },
                ],
                rtt_ms: vec![vec![0.0, 150.0], vec![150.0, 0.0]],
                graph: g,
                params: CostParams::default(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Greedy (without replication moves) never loses to exhaustive
            /// enumeration on small random graphs — it is locally optimal
            /// from every all-on-one-host start, and those starts cover the
            /// exhaustive optimum's basin in these instances.
            #[test]
            fn greedy_close_to_optimal(
                n in 3usize..7,
                edges in proptest::collection::vec((0usize..7, 0usize..7, 0.1f64..20.0), 2..12),
                shares in (0.1f64..1.0, 0.1f64..1.0),
            ) {
                let p = random_problem(n, &edges, shares);
                prop_assume!(p.validate().is_ok());
                let options = GreedyOptions { with_replication: false, ..Default::default() };
                let (placement, c) = solve(&p, &options);
                let (_, optimal) = exhaustive::solve(&p);
                prop_assert!(placement.respects_pins(&p));
                // Hill climbing may stop in a local optimum; allow slack but
                // verify it never *beats* the true optimum (cost soundness).
                prop_assert!(c >= optimal - 1e-6);
                prop_assert!(c <= optimal * 1.5 + 1e-6, "greedy {} optimal {}", c, optimal);
            }

            /// Replication moves can only improve the final cost.
            #[test]
            fn replication_never_hurts(
                n in 3usize..6,
                edges in proptest::collection::vec((0usize..6, 0usize..6, 0.1f64..20.0), 2..10),
            ) {
                let p = random_problem(n, &edges, (0.5, 0.5));
                prop_assume!(p.validate().is_ok());
                let without = solve(&p, &GreedyOptions { with_replication: false, ..Default::default() }).1;
                let with = solve(&p, &GreedyOptions::default()).1;
                prop_assert!(with <= without + 1e-6);
            }
        }
    }
}
