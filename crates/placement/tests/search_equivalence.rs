//! Search-equivalence property test: the cached best-improvement
//! [`climb`] must commit exactly the moves of a full re-scan that
//! re-probes every candidate of every component in every round — the same
//! moves in the same order, each with the delta the re-scan's probe
//! returned bit for bit, and the same final placement — from every
//! all-on-one-host start.
//!
//! Inputs: random graphs as generated (about 40 % of hosts with finite CPU
//! capacity, where the evaluator marks every component stale) and the same
//! graphs with unbounded hosts (where only the moved component and its
//! neighbours are re-probed), the multi-tier ladder rungs with 4, 16 and 64
//! hosts, and both paper problems. Each runs the flat neighbourhood with
//! and without replication and the region-restricted one.
//!
//! Run it in release in CI (`cargo test -p mutsvc-placement --release
//! --test search_equivalence`); on the 16- and 64-host rungs the debug
//! build climbs from three starts, and on the 64-host rung it compares only
//! the first 100 committed moves, so `cargo test -q` stays fast.
//!
//! One test pins why greedy and its region-coarsened variant are the whole
//! planner: on the paper problems greedy without replicas finds the
//! exhaustive primaries-only optimum, and read replicas take it far below.

mod common;

use common::random_problem;
use mutsvc_bench::placement_report::ladder_problem;
use mutsvc_desim::rng::SimRng;
use mutsvc_placement::algorithms::exhaustive;
use mutsvc_placement::algorithms::greedy::{self, climb, neighborhood, GreedyOptions};
use mutsvc_placement::algorithms::regional::{
    host_regions, region_medoids, restricted_neighborhood,
};
use mutsvc_placement::graph::{
    Component, ComponentGraph, CostParams, Host, HostId, Placement, PlacementProblem, Role,
};
use mutsvc_placement::{cost, CostEvaluator, Move};
use petgraph::graph::NodeIndex;

/// The round cap both searches default to.
const MAX_ROUNDS: usize = 1_000;

/// The full re-scan the cached climb replaces: every round prices every
/// candidate of every component with `CostEvaluator::delta`, keeping no
/// price between rounds (no toggle-price cache, no stale marks), and
/// commits the most negative delta below `−1e-9`, the first in node-major
/// candidate order on ties. Returns the committed moves in order, each with
/// the delta its probe returned.
fn reference_climb(
    eval: &mut CostEvaluator,
    max_rounds: usize,
    candidates: impl Fn(&CostEvaluator, NodeIndex, &mut Vec<Move>),
) -> Vec<(Move, f64)> {
    let mut committed = Vec::new();
    let mut probes = Vec::new();
    for _ in 0..max_rounds {
        let mut best: Option<(Move, f64)> = None;
        for n in 0..eval.components() {
            probes.clear();
            candidates(eval, NodeIndex::new(n), &mut probes);
            for &mv in &probes {
                let delta = eval.delta(mv);
                if delta < -1e-9 && best.is_none_or(|(_, bd)| delta < bd) {
                    best = Some((mv, delta));
                }
            }
        }
        let Some((mv, delta)) = best else { break };
        eval.apply(mv);
        committed.push((mv, delta));
    }
    committed
}

/// Climbs at most `max_rounds` from each all-on-one-host start in
/// `starts` both ways and asserts the same committed moves, deltas (bit for
/// bit) and final placement. Returns the total number of committed moves,
/// so callers can check the search moved at all.
fn assert_same_climbs(
    label: &str,
    problem: &PlacementProblem,
    starts: &[usize],
    max_rounds: usize,
    candidates: impl Fn(&CostEvaluator, NodeIndex, &mut Vec<Move>),
) -> usize {
    let bits = |climb: Vec<(Move, f64)>| -> Vec<(Move, u64)> {
        climb
            .into_iter()
            .map(|(mv, delta)| (mv, delta.to_bits()))
            .collect()
    };
    let mut moves = 0;
    for &h in starts {
        let start = Placement::all_on(problem, HostId(h));
        let mut cached = CostEvaluator::new(problem, start.clone());
        let mut full = CostEvaluator::new(problem, start);
        let cached_moves = bits(climb(&mut cached, max_rounds, &candidates));
        let full_moves = bits(reference_climb(&mut full, max_rounds, &candidates));
        assert_eq!(
            cached_moves, full_moves,
            "{label}, start h{h}: committed moves or their deltas differ"
        );
        assert_eq!(
            cached.placement(),
            full.placement(),
            "{label}, start h{h}: placements differ"
        );
        moves += cached_moves.len();
    }
    moves
}

/// Every neighbourhood the planner climbs, from every start in `starts`.
fn assert_all_neighborhoods(
    label: &str,
    problem: &PlacementProblem,
    starts: &[usize],
    max_rounds: usize,
) {
    let mut moves = 0;
    for with_replication in [true, false] {
        moves += assert_same_climbs(
            &format!("{label} flat, replication {with_replication}"),
            problem,
            starts,
            max_rounds,
            neighborhood(problem, with_replication),
        );
    }
    let regions = host_regions(&problem.rtt_ms);
    let medoids = region_medoids(&problem.rtt_ms, &regions);
    moves += assert_same_climbs(
        &format!("{label} restricted"),
        problem,
        starts,
        max_rounds,
        restricted_neighborhood(problem, &regions, &medoids, true),
    );
    assert!(moves > 0, "{label}: no climb committed a move");
}

#[test]
fn random_graphs_commit_the_reference_moves() {
    let mut coupled = 0;
    for seed in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0x5EA2_C400 + seed);
        let mut problem = random_problem(&mut rng);
        let starts: Vec<usize> = (0..problem.hosts.len()).collect();
        if problem.hosts.iter().any(|h| h.cpu_capacity.is_finite()) {
            coupled += 1;
            assert_all_neighborhoods(
                &format!("seed {seed} finite"),
                &problem,
                &starts,
                MAX_ROUNDS,
            );
        }
        for host in &mut problem.hosts {
            host.cpu_capacity = f64::INFINITY;
        }
        assert_all_neighborhoods(
            &format!("seed {seed} unbounded"),
            &problem,
            &starts,
            MAX_ROUNDS,
        );
    }
    assert!(coupled > 0, "no random problem had a finite-capacity host");
}

/// Two services that share only their caller compete for one small edge
/// host: once either serves the edge's traffic there, the other's move
/// would overload it. Neither is the other's neighbour, so only the
/// finite-capacity fallback of `mark_stale` re-probes the second service
/// after the first one moves.
#[test]
fn contended_capacity_commits_the_reference_moves() {
    let mut graph = ComponentGraph::new();
    let component = |name: &str, role, pinned, cpu_ms_per_call| Component {
        name: name.into(),
        role,
        pinned,
        cpu_ms_per_call,
        write_rate: 0.0,
    };
    let web = graph.add(component("web", Role::Entry, None, 0.0));
    graph.add(component("db", Role::Database, Some(HostId(0)), 0.0));
    for (name, rate) in [("a", 12.0), ("b", 10.0)] {
        let service = graph.add(component(name, Role::Stateless, None, 5.0));
        graph.interact(web, service, rate, 200.0);
    }
    let host = |name: &str, entry_share, cpu_capacity| Host {
        name: name.into(),
        entry_share,
        cpu_capacity,
    };
    let problem = PlacementProblem {
        // The edge fits one service's 50–60 ms/s, not both.
        hosts: vec![host("main", 0.0, f64::INFINITY), host("edge", 1.0, 70.0)],
        rtt_ms: vec![vec![0.0, 100.0], vec![100.0, 0.0]],
        graph,
        params: CostParams {
            overload_penalty: 100_000.0,
            ..CostParams::default()
        },
    };
    problem
        .validate()
        .expect("contended problem is well-formed");
    let moves = assert_same_climbs(
        "contended edge",
        &problem,
        &[0],
        MAX_ROUNDS,
        neighborhood(&problem, true),
    );
    assert_eq!(moves, 1, "exactly one service fits on the edge");
}

#[test]
fn ladder_rungs_commit_the_reference_moves() {
    for hosts in [4, 16, 64] {
        let problem = ladder_problem(hosts);
        // Debug builds climb on the larger rungs from the main site, a
        // regional hub and the last edge PoP only, and on the 64-host rung
        // for a prefix of the moves.
        let (starts, max_rounds): (Vec<usize>, usize) = match hosts {
            16 if cfg!(debug_assertions) => (vec![0, 1, hosts - 1], MAX_ROUNDS),
            64 if cfg!(debug_assertions) => (vec![0, 1, hosts - 1], 100),
            _ => ((0..hosts).collect(), MAX_ROUNDS),
        };
        assert_all_neighborhoods(&format!("rubis-mt{hosts}"), &problem, &starts, max_rounds);
    }
}

#[test]
fn paper_problems_commit_the_reference_moves() {
    let (petstore, _) = mutsvc_placement::derive::petstore_problem();
    let (rubis, _) = mutsvc_placement::derive::rubis_problem();
    for (name, problem) in [("petstore", petstore), ("rubis", rubis)] {
        let starts: Vec<usize> = (0..problem.hosts.len()).collect();
        assert_all_neighborhoods(name, &problem, &starts, MAX_ROUNDS);
    }
}

/// `greedy::improve` is the cached climb over the flat neighbourhood: it
/// returns the reference's placement from every start of the paper
/// problems and the 4-host rung.
#[test]
fn improve_returns_the_reference_placement() {
    let (petstore, _) = mutsvc_placement::derive::petstore_problem();
    let (rubis, _) = mutsvc_placement::derive::rubis_problem();
    let options = GreedyOptions::default();
    for (name, problem) in [
        ("petstore", petstore),
        ("rubis", rubis),
        ("rubis-mt4", ladder_problem(4)),
    ] {
        for h in 0..problem.hosts.len() {
            let start = Placement::all_on(&problem, HostId(h));
            let mut full = CostEvaluator::new(&problem, start.clone());
            reference_climb(&mut full, options.max_rounds, neighborhood(&problem, true));
            let (placement, _) = greedy::improve(&problem, start, &options);
            assert_eq!(placement, full.placement(), "{name}, start h{h}");
        }
    }
}

/// `greedy::solve` keeps the first start among equal-cost optima. On the
/// 16-host rung every start climbs to its own placement — components
/// without traffic stay where the start put them — at the same full-sweep
/// cost, while the climbs' running totals differ in the last bits. That
/// noise must not pick the answer: it is start h0's placement.
#[test]
fn solve_keeps_the_first_of_equal_cost_starts() {
    let problem = ladder_problem(16);
    let options = GreedyOptions::default();
    let climbs: Vec<Placement> = (0..problem.hosts.len())
        .map(|h| greedy::improve(&problem, Placement::all_on(&problem, HostId(h)), &options).0)
        .collect();
    let first_cost = cost(&problem, &climbs[0]);
    for (h, placement) in climbs.iter().enumerate().skip(1) {
        assert_ne!(
            placement, &climbs[0],
            "start h{h} reached start h0's placement"
        );
        assert_eq!(
            cost(&problem, placement).to_bits(),
            first_cost.to_bits(),
            "start h{h} is not a tie"
        );
    }
    assert_eq!(greedy::solve(&problem, &options).0, climbs[0]);
}

/// Without replicas greedy returns the exhaustive optimum's primaries at
/// its cost; with them it costs under a third of that optimum. RUBiS's
/// 15-component enumeration takes seconds in a debug build, so debug runs
/// Pet Store only.
#[test]
fn greedy_reaches_the_primaries_optimum_and_replicas_beat_it() {
    let mut problems = vec![("petstore", mutsvc_placement::derive::petstore_problem().0)];
    if !cfg!(debug_assertions) {
        problems.push(("rubis", mutsvc_placement::derive::rubis_problem().0));
    }
    let primaries_only = GreedyOptions {
        with_replication: false,
        ..GreedyOptions::default()
    };
    for (name, problem) in problems {
        let (optimal, optimum) = exhaustive::solve(&problem);
        let (placement, greedy_cost) = greedy::solve(&problem, &primaries_only);
        assert_eq!(
            placement.primary, optimal.primary,
            "{name}: primaries differ"
        );
        assert!(
            (greedy_cost - optimum).abs() <= 1e-9 * optimum,
            "{name}: greedy {greedy_cost} vs optimum {optimum}"
        );
        let (_, replicated) = greedy::solve(&problem, &GreedyOptions::default());
        assert!(
            replicated < optimum / 3.0,
            "{name}: greedy with replicas {replicated} vs optimum {optimum}"
        );
    }
}
