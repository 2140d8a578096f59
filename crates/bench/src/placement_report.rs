//! Placement move-throughput measurement behind the
//! `repro-report --placement` report (`BENCH_placement.json`).
//!
//! Two measurement families feed the report:
//!
//! * the *paper graphs* — Pet Store and RUBiS on the 3-host star, replayed
//!   two ways (re-sweeping the whole graph with [`cost`](fn@cost) after
//!   every move versus applying deltas through the incremental
//!   [`CostEvaluator`]), so the reported speedup is an apples-to-apples
//!   moves/sec ratio;
//! * the *scale ladder* — the RUBiS graph re-targeted onto generated
//!   multi-tier topologies ([`MultiTierSpec::ladder_rung`]: 4, 16, 64 and
//!   256 application-server hosts), recording the rung's construction time
//!   (topology, routes, host matrix), its region-coarsened search time and
//!   answer, evaluator build time and the cost-table footprint alongside
//!   move throughput. The baseline rows carry
//!   [`CostEvaluator::dense_table_bytes`] — what the per-edge host×host
//!   tables the APSP pricing replaced would have cost.

use std::time::Instant;

use mutsvc_core::{multi_tier_topology, paper_topology, MultiTierSpec};
use mutsvc_desim::json::Json;
use mutsvc_desim::rng::SimRng;
use mutsvc_placement::algorithms::{solve_regional, RegionalOptions};
use mutsvc_placement::derive::{petstore_problem, rubis_problem};
use mutsvc_placement::graph::{HostId, Placement, PlacementProblem};
use mutsvc_placement::wan::{hosts_from_topology, rehost, ServerSpec};
use mutsvc_placement::{cost, CostEvaluator, Move};
use petgraph::graph::NodeIndex;

/// One measured cell of the throughput comparison.
#[derive(Debug, Clone)]
pub struct PlacementThroughput {
    /// Evaluation strategy: `"full_recompute"` or `"incremental"`.
    pub algorithm: &'static str,
    /// Graph name: `"petstore"`, `"rubis"`, or a ladder rung such as
    /// `"rubis-mt64"`.
    pub graph: String,
    /// Candidate placement hosts.
    pub hosts: usize,
    /// Directed links in the topology behind the host matrix.
    pub links: usize,
    /// Components in the application graph.
    pub components: usize,
    /// Moves evaluated per wall-clock second.
    pub moves_per_sec: f64,
    /// Total cost (ms/s) after the final move — both strategies replay the
    /// same sequence, so the final costs must agree to ~1e-9.
    pub final_cost: f64,
    /// Evaluator construction time in milliseconds (APSP matrix share +
    /// flattened index build); zero for the table-free baseline.
    pub build_ms: f64,
    /// Ladder rungs only, the same on both of a rung's cells; `None` for
    /// the paper graphs, which are not built from a topology.
    pub rung: Option<RungTimes>,
    /// Cost-table footprint in bytes: the shared distance matrix plus
    /// per-edge scalar weights for the incremental strategy, or the dense
    /// per-edge host×host tables it replaced for the baseline.
    pub table_bytes: usize,
}

/// What a ladder rung measures besides move throughput. Both times are
/// the fastest of several passes in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct RungTimes {
    /// Building the problem: topology, all-pairs routes, host matrix and
    /// [`rehost`] of the RUBiS graph, which is derived once per ladder run.
    pub problem_ms: f64,
    /// [`solve_regional`] with default options on the rung.
    pub search_ms: f64,
    /// The cost (ms/s) that search returns, which pins the answer the time
    /// was measured on.
    pub search_cost: f64,
}

/// Generates a deterministic sequence of `count` valid moves for `problem`,
/// starting from the all-on-host-0 placement. Validity (no duplicate
/// replicas, no replica at the primary) is tracked through an evaluator so
/// the same sequence replays cleanly under either strategy.
pub fn move_sequence(problem: &PlacementProblem, count: usize, seed: u64) -> Vec<Move> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut eval = CostEvaluator::new(problem, Placement::all_on(problem, HostId(0)));
    let components = problem.graph.len();
    let hosts = problem.hosts.len();
    let mut moves = Vec::with_capacity(count);
    while moves.len() < count {
        let node = NodeIndex::new(rng.index(components));
        let host = HostId(rng.index(hosts));
        let mv = match rng.index(3) {
            0 => Move::MovePrimary { node, to: host },
            1 if eval.primary_of(node) != host && !eval.has_replica(node, host) => {
                Move::AddReplica { node, host }
            }
            2 if eval.has_replica(node, host) => Move::DropReplica { node, host },
            _ => continue,
        };
        eval.apply(mv);
        moves.push(mv);
    }
    moves
}

/// Replays `moves` mutating a [`Placement`] directly and re-sweeping the
/// whole graph with [`cost`](fn@cost) after every move — what every search
/// algorithm did before the incremental evaluator. Returns the final cost.
pub fn replay_full_recompute(problem: &PlacementProblem, moves: &[Move]) -> f64 {
    let mut placement = Placement::all_on(problem, HostId(0));
    let mut last = cost(problem, &placement);
    for &mv in moves {
        match mv {
            Move::MovePrimary { node, to } => {
                placement.primary[node.index()] = to;
                placement.replicas[node.index()].remove(&to);
            }
            Move::AddReplica { node, host } => {
                placement.replicas[node.index()].insert(host);
            }
            Move::DropReplica { node, host } => {
                placement.replicas[node.index()].remove(&host);
            }
        }
        last = cost(problem, &placement);
    }
    last
}

/// Replays `moves` through the incremental evaluator. Returns the final
/// cost read back from the evaluator's running breakdown.
pub fn replay_incremental(problem: &PlacementProblem, moves: &[Move]) -> f64 {
    let mut eval = CostEvaluator::new(problem, Placement::all_on(problem, HostId(0)));
    for &mv in moves {
        eval.apply(mv);
    }
    eval.total()
}

fn time_replay(replay: impl Fn() -> f64, moves: usize) -> (f64, f64) {
    // One warm-up pass, then repeat passes for ~80 ms and keep the fastest
    // (minimum-of-passes is the low-noise estimator: scheduler and cache
    // interference only ever slow a pass down).
    let mut final_cost = replay();
    let mut best = f64::INFINITY;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < 0.08 {
        let pass = Instant::now();
        final_cost = replay();
        best = best.min(pass.elapsed().as_secs_f64());
    }
    (moves as f64 / best, final_cost)
}

/// Fastest-of-passes time of `build` in milliseconds, each pass dropping
/// what it built: one warm-up, then passes until ~80 ms have gone by (at
/// least one), so a slow construction is timed without stretching the
/// report.
fn fastest_ms<T>(build: impl Fn() -> T) -> f64 {
    drop(build());
    let mut best = f64::INFINITY;
    let started = Instant::now();
    loop {
        let pass = Instant::now();
        drop(build());
        best = best.min(pass.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() > 0.08 {
            break;
        }
    }
    best * 1e3
}

/// Measures both strategies on one problem and pushes the two cells.
fn measure_problem(
    cells: &mut Vec<PlacementThroughput>,
    graph: &str,
    problem: &PlacementProblem,
    links: usize,
    rung: Option<RungTimes>,
    moves: usize,
    seed: u64,
) {
    let sequence = move_sequence(problem, moves, seed);
    let (full_rate, full_cost) = time_replay(|| replay_full_recompute(problem, &sequence), moves);
    let (inc_rate, inc_cost) = time_replay(|| replay_incremental(problem, &sequence), moves);
    assert!(
        (full_cost - inc_cost).abs() <= 1e-9 * full_cost.abs().max(1.0),
        "{graph}: strategies disagree on the final cost: {full_cost} vs {inc_cost}"
    );
    // `CostEvaluator::new` builds the shared distance matrix, the flattened
    // node/edge arrays and the seed totals.
    let build_ms =
        fastest_ms(|| CostEvaluator::new(problem, Placement::all_on(problem, HostId(0))));
    let eval = CostEvaluator::new(problem, Placement::all_on(problem, HostId(0)));
    let hosts = problem.hosts.len();
    let components = problem.graph.len();
    cells.push(PlacementThroughput {
        algorithm: "full_recompute",
        graph: graph.to_string(),
        hosts,
        links,
        components,
        moves_per_sec: full_rate,
        final_cost: full_cost,
        build_ms: 0.0,
        rung,
        table_bytes: eval.dense_table_bytes(),
    });
    cells.push(PlacementThroughput {
        algorithm: "incremental",
        graph: graph.to_string(),
        hosts,
        links,
        components,
        moves_per_sec: inc_rate,
        final_cost: inc_cost,
        build_ms,
        rung,
        table_bytes: eval.table_bytes(),
    });
}

/// Measures full-recompute vs incremental throughput on both paper-derived
/// graphs. `moves` is the sequence length per graph (1,000 is plenty).
pub fn measure_placement_throughput(moves: usize, seed: u64) -> Vec<PlacementThroughput> {
    let mut cells = Vec::new();
    let (petstore, _) = petstore_problem();
    let (rubis, _) = rubis_problem();
    for (graph, problem, db_on_main) in [("petstore", &petstore, true), ("rubis", &rubis, false)] {
        let links = paper_topology(db_on_main).0.link_count();
        measure_problem(&mut cells, graph, problem, links, None, moves, seed);
    }
    cells
}

/// The RUBiS graph re-targeted onto the multi-tier rung with `hosts`
/// application servers: client traffic splits evenly over the main site and
/// every edge PoP, regional hubs are pure compute (zero entry share), and
/// every host pair is priced along the topology's latency-shortest route.
pub fn ladder_problem(hosts: usize) -> PlacementProblem {
    ladder_rung(hosts, &rubis_problem().0).0
}

/// [`ladder_problem`] from an already derived RUBiS graph `rubis`, and the
/// directed-link count of the rung's topology, from one topology build.
fn ladder_rung(hosts: usize, rubis: &PlacementProblem) -> (PlacementProblem, usize) {
    let (topology, nodes) = multi_tier_topology(&MultiTierSpec::ladder_rung(hosts));
    let server_nodes = nodes.servers();
    let share = 1.0 / (nodes.edges.len() as f64 + 1.0);
    let servers: Vec<ServerSpec> = server_nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| ServerSpec {
            node,
            // servers() orders main, hubs, edge PoPs; main and the PoPs
            // originate client traffic, hubs do not.
            entry_share: if i == 0 || i > nodes.hubs.len() {
                share
            } else {
                0.0
            },
            cpu_capacity: f64::INFINITY,
        })
        .collect();
    let (host_list, rtt) = hosts_from_topology(&topology, &servers);
    (rehost(rubis, host_list, rtt), topology.link_count())
}

/// Measures the scale ladder up to `max_hosts` (64 for the CI smoke rung,
/// 256 for the full report).
pub fn measure_placement_ladder(
    moves: usize,
    seed: u64,
    max_hosts: usize,
) -> Vec<PlacementThroughput> {
    let mut cells = Vec::new();
    let (rubis, _) = rubis_problem();
    let options = RegionalOptions::default();
    for hosts in [4, 16, 64, 256] {
        if hosts > max_hosts {
            continue;
        }
        let (problem, links) = ladder_rung(hosts, &rubis);
        let rung = RungTimes {
            problem_ms: fastest_ms(|| ladder_rung(hosts, &rubis)),
            search_ms: fastest_ms(|| solve_regional(&problem, &options)),
            search_cost: solve_regional(&problem, &options).1,
        };
        let graph = format!("rubis-mt{hosts}");
        measure_problem(&mut cells, &graph, &problem, links, Some(rung), moves, seed);
    }
    cells
}

/// Renders the cells as the `BENCH_placement.json` document: the `"cores"`
/// the run had, then per entry `{"algorithm", "graph", "hosts", "links",
/// "components", "moves_per_sec", "final_cost", "build_ms",
/// "table_bytes"}` with `"problem_ms"`, `"search_ms"` and `"search_cost"`
/// after them on ladder rungs, plus a per-graph `"speedup"` summary map.
pub fn render_placement_json(cells: &[PlacementThroughput], cores: usize) -> String {
    let entries = cells.iter().map(|cell| {
        Json::object(
            [
                ("algorithm", cell.algorithm.into()),
                ("graph", cell.graph.as_str().into()),
                ("hosts", cell.hosts.into()),
                ("links", cell.links.into()),
                ("components", cell.components.into()),
                ("moves_per_sec", Json::fixed(cell.moves_per_sec, 1)),
                ("final_cost", Json::fixed(cell.final_cost, 6)),
                ("build_ms", Json::fixed(cell.build_ms, 3)),
                ("table_bytes", cell.table_bytes.into()),
            ]
            .into_iter()
            .chain(cell.rung.into_iter().flat_map(|rung| {
                [
                    ("problem_ms", Json::fixed(rung.problem_ms, 3)),
                    ("search_ms", Json::fixed(rung.search_ms, 3)),
                    ("search_cost", Json::fixed(rung.search_cost, 6)),
                ]
            })),
        )
    });
    let mut speedup: Vec<(String, Json)> = Vec::new();
    for cell in cells {
        if speedup.iter().any(|(graph, _)| *graph == cell.graph) {
            continue;
        }
        let rate = |algorithm: &str| {
            cells
                .iter()
                .find(|c| c.graph == cell.graph && c.algorithm == algorithm)
                .map_or(f64::NAN, |c| c.moves_per_sec)
        };
        let ratio = rate("incremental") / rate("full_recompute");
        speedup.push((cell.graph.clone(), Json::fixed(ratio, 1)));
    }
    Json::object([
        ("cores", cores.into()),
        ("entries", Json::Array(entries.collect())),
        ("speedup", Json::Object(speedup)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::at;

    #[test]
    fn strategies_agree_and_json_is_well_formed() {
        let (problem, _) = rubis_problem();
        let sequence = move_sequence(&problem, 200, 7);
        let full = replay_full_recompute(&problem, &sequence);
        let incremental = replay_incremental(&problem, &sequence);
        assert!((full - incremental).abs() <= 1e-9 * full.abs().max(1.0));

        let cell =
            |algorithm: &'static str, moves_per_sec: f64, final_cost: f64| PlacementThroughput {
                algorithm,
                graph: "rubis".to_string(),
                hosts: 3,
                links: 10,
                components: problem.graph.len(),
                moves_per_sec,
                final_cost,
                build_ms: 0.01,
                rung: None,
                table_bytes: 512,
            };
        let cells = vec![
            cell("full_recompute", 1000.0, full),
            PlacementThroughput {
                rung: Some(RungTimes {
                    problem_ms: 1.25,
                    search_ms: 2.5,
                    search_cost: 100.125,
                }),
                ..cell("incremental", 25_000.0, incremental)
            },
        ];
        let json = render_placement_json(&cells, 2);
        let mut doc = Json::parse(&json).unwrap();
        assert_eq!(doc.render(), json);
        assert_eq!(*at(&mut doc, "cores"), Json::from(2u64));
        assert_eq!(
            *at(&mut doc, "speedup"),
            Json::parse("{\"rubis\":25.0}").unwrap()
        );
        assert_eq!(at(&mut doc, "entries").as_array().unwrap().len(), 2);
        assert_eq!(*at(&mut doc, "entries/0/hosts"), Json::from(3u64));
        assert_eq!(*at(&mut doc, "entries/0/links"), Json::from(10u64));
        assert_eq!(*at(&mut doc, "entries/1/table_bytes"), Json::from(512u64));
        assert_eq!(*at(&mut doc, "entries/1/problem_ms"), Json::fixed(1.25, 3));
        assert_eq!(*at(&mut doc, "entries/1/search_ms"), Json::fixed(2.5, 3));
        assert_eq!(
            *at(&mut doc, "entries/1/search_cost"),
            Json::fixed(100.125, 6)
        );
        for field in ["problem_ms", "search_ms", "search_cost"] {
            assert!(at(&mut doc, "entries/0").get(field).is_err());
        }
    }

    #[test]
    fn move_sequences_are_deterministic() {
        let (problem, _) = petstore_problem();
        assert_eq!(
            move_sequence(&problem, 64, 3),
            move_sequence(&problem, 64, 3)
        );
    }

    /// The 16-host rung: strategies agree move-for-move on a multi-hop
    /// WAN-priced host matrix, and the shared-matrix footprint undercuts
    /// the dense per-edge tables it replaced.
    #[test]
    fn ladder_strategies_agree_on_multi_tier_rungs() {
        let problem = ladder_problem(16);
        assert_eq!(problem.hosts.len(), 16);
        let sequence = move_sequence(&problem, 200, 11);
        let full = replay_full_recompute(&problem, &sequence);
        let incremental = replay_incremental(&problem, &sequence);
        assert!(
            (full - incremental).abs() <= 1e-9 * full.abs().max(1.0),
            "{full} vs {incremental}"
        );
        let eval = CostEvaluator::new(&problem, Placement::all_on(&problem, HostId(0)));
        assert!(eval.table_bytes() < eval.dense_table_bytes());
    }
}
