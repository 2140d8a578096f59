//! Cross-layer properties of the planet-scale placement pipeline, on
//! randomized multi-tier topologies:
//!
//! * the placement host matrix prices every host pair bit for bit like
//!   [`Topology::rtt`] (the routed round trip the analyzer reads), on the
//!   ladder rungs too, and like an independent Floyd–Warshall over the raw
//!   links — the engine's Dijkstra routing, the static analyzer and the
//!   placement layer can never disagree about what a path costs;
//! * the placement layer's region coarsening ([`host_regions`], driven by
//!   the round-trip matrix alone) induces the same partition as the
//!   simulator's link-level [`Topology::regions`];
//! * the incremental evaluator stays within relative 1e-9 of the
//!   from-scratch sweep along randomized move sequences on multi-tier
//!   problems (the scale-ladder extension of the `mutsvc-placement`
//!   `incremental_equivalence` suite);
//! * region-coarsened search matches the flat greedy search to 1e-9 on
//!   small graphs and stays close when coarsening is forced.

use mutsvc_bench::placement_report::{ladder_problem, move_sequence};
use mutsvc_core::{multi_tier_topology, MultiTierSpec};
use mutsvc_desim::rng::SimRng;
use mutsvc_placement::algorithms::{
    greedy_solve, host_regions, solve_regional, GreedyOptions, RegionalOptions,
};
use mutsvc_placement::graph::{HostId, Placement};
use mutsvc_placement::wan::{host_matrix, hosts_from_topology, ServerSpec};
use mutsvc_placement::{cost_breakdown, CostEvaluator};

/// A randomized multi-tier shape: 1–5 hubs, 1–5 PoPs per hub, metro or WAN
/// edge tier, database co-located or split out.
fn random_spec(rng: &mut SimRng) -> MultiTierSpec {
    MultiTierSpec {
        hubs: 1 + rng.index(5),
        edges_per_hub: 1 + rng.index(5),
        metro_edges: rng.chance(0.5),
        db_on_main: rng.chance(0.5),
    }
}

/// Builds the full server list (main, hubs, PoPs) with client traffic split
/// evenly over main + PoPs, as the scale ladder deploys it.
fn server_specs(nodes: &mutsvc_core::MultiTierNodes) -> Vec<ServerSpec> {
    let share = 1.0 / (nodes.edges.len() as f64 + 1.0);
    nodes
        .servers()
        .iter()
        .enumerate()
        .map(|(i, &node)| ServerSpec {
            node,
            entry_share: if i == 0 || i > nodes.hubs.len() {
                share
            } else {
                0.0
            },
            cpu_capacity: f64::INFINITY,
        })
        .collect()
}

/// Independent all-pairs one-way latencies (milliseconds) by Floyd–Warshall
/// over the raw link list — no shared code with `Topology::rtt`'s
/// per-source Dijkstra.
fn floyd_warshall_ms(topology: &mutsvc_netsim::Topology) -> Vec<Vec<f64>> {
    let n = topology.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for l in topology.link_ids() {
        let link = topology.link(l);
        let ms = link.latency.as_millis_f64();
        let (a, b) = (link.from.index(), link.to.index());
        if ms < d[a][b] {
            d[a][b] = ms;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[test]
fn apsp_pricing_matches_analyze_path_model() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from_u64(0x0A25_0000 + seed);
        let spec = random_spec(&mut rng);
        let (topology, nodes) = multi_tier_topology(&spec);
        let servers = server_specs(&nodes);
        let (hosts, rtt_ms) = hosts_from_topology(&topology, &servers);
        let fw = floyd_warshall_ms(&topology);

        let h = hosts.len();
        for a in 0..h {
            for b in 0..h {
                let (na, nb) = (servers[a].node, servers[b].node);
                let expected = if a == b {
                    0.0
                } else {
                    fw[na.index()][nb.index()] + fw[nb.index()][na.index()]
                };
                assert!(
                    (rtt_ms[a][b] - expected).abs() <= 1e-9 * expected.max(1.0),
                    "spec {spec:?}: matrix[{a}][{b}] = {} but Floyd–Warshall says {expected}",
                    rtt_ms[a][b]
                );
                if a != b {
                    let analyze = topology.rtt(na, nb).as_millis_f64();
                    assert_eq!(
                        rtt_ms[a][b].to_bits(),
                        analyze.to_bits(),
                        "spec {spec:?}: matrix[{a}][{b}] = {} but Topology::rtt says {analyze}",
                        rtt_ms[a][b]
                    );
                }
            }
        }
    }
}

/// On every ladder rung the benchmarks build, the host matrix is
/// [`Topology::rtt`] bit for bit.
#[test]
fn host_matrix_is_topology_rtt_on_ladder_rungs() {
    for hosts in [4, 16, 64, 256] {
        let (topology, nodes) = multi_tier_topology(&MultiTierSpec::ladder_rung(hosts));
        let servers = nodes.servers();
        let matrix = host_matrix(&topology, &servers);
        for (a, &na) in servers.iter().enumerate() {
            for (b, &nb) in servers.iter().enumerate() {
                let expected = if a == b {
                    0.0
                } else {
                    topology.rtt(na, nb).as_millis_f64()
                };
                assert_eq!(
                    matrix[a][b].to_bits(),
                    expected.to_bits(),
                    "{hosts} hosts: matrix[{a}][{b}] = {} but Topology::rtt says {expected}",
                    matrix[a][b]
                );
            }
        }
    }
}

#[test]
fn placement_regions_agree_with_topology_regions() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from_u64(0x2E61_0000 + seed);
        let spec = random_spec(&mut rng);
        let (topology, nodes) = multi_tier_topology(&spec);
        let servers = server_specs(&nodes);
        let (_, rtt_ms) = hosts_from_topology(&topology, &servers);

        let link_regions = topology.regions();
        let matrix_regions = host_regions(&rtt_ms);
        for a in 0..servers.len() {
            for b in 0..servers.len() {
                let same_link =
                    link_regions[servers[a].node.index()] == link_regions[servers[b].node.index()];
                let same_matrix = matrix_regions[a] == matrix_regions[b];
                assert_eq!(
                    same_link, same_matrix,
                    "spec {spec:?}: hosts {a},{b} grouped {same_matrix} by the \
                     matrix but {same_link} by the topology"
                );
            }
        }
    }
}

/// The incremental-equivalence walk on the generated rungs: every applied
/// move's running breakdown must stay within relative 1e-9 of the full
/// sweep, on a host matrix whose entries are genuine multi-hop WAN paths.
#[test]
fn incremental_equivalence_on_multi_tier_rungs() {
    for hosts in [4usize, 16] {
        let problem = ladder_problem(hosts);
        let moves = move_sequence(&problem, 150, 0xE0_0000 + hosts as u64);
        let mut eval = CostEvaluator::new(&problem, Placement::all_on(&problem, HostId(0)));
        for (step, &mv) in moves.iter().enumerate() {
            eval.apply(mv);
            let full = cost_breakdown(&problem, &eval.placement());
            let inc = eval.breakdown();
            for (term, i, f) in [
                ("communication", inc.communication, full.communication),
                ("consistency", inc.consistency, full.consistency),
                ("overload", inc.overload, full.overload),
                ("total", inc.total(), full.total()),
            ] {
                assert!(
                    (i - f).abs() <= 1e-9 * f.abs().max(1.0),
                    "{hosts} hosts, step {step}: {term} diverged: {i:.15e} vs {f:.15e}"
                );
            }
        }
    }
}

#[test]
fn coarsened_search_matches_flat_on_small_multi_tier_graphs() {
    // 4 hosts is under the small-graph cutoff: the regional solver must
    // reproduce the flat greedy result bit-for-bit (same code path).
    let problem = ladder_problem(4);
    let (flat_placement, flat_cost) = greedy_solve(&problem, &GreedyOptions::default());
    let (regional_placement, regional_cost) = solve_regional(&problem, &RegionalOptions::default());
    assert_eq!(flat_placement, regional_placement);
    assert!((flat_cost - regional_cost).abs() <= 1e-9 * flat_cost.abs().max(1.0));
}

#[test]
fn forced_coarsening_stays_close_to_flat_on_multi_tier_graphs() {
    // Force coarsening on the 16-host rung (cutoff 0): the restricted
    // search must land within a few percent of the flat greedy optimum and
    // be deterministic run-to-run.
    let problem = ladder_problem(16);
    let (_, flat_cost) = greedy_solve(&problem, &GreedyOptions::default());
    let options = RegionalOptions {
        small_flat: 0,
        ..RegionalOptions::default()
    };
    let (first, regional_cost) = solve_regional(&problem, &options);
    let (second, second_cost) = solve_regional(&problem, &options);
    assert_eq!(first, second);
    assert!((regional_cost - second_cost).abs() <= 1e-12 * regional_cost.abs().max(1.0));
    assert!(
        regional_cost >= flat_cost - 1e-9 * flat_cost.abs().max(1.0),
        "restricted search cannot beat the unrestricted one: {regional_cost} < {flat_cost}"
    );
    assert!(
        regional_cost <= flat_cost * 1.05,
        "coarsened search drifted too far from flat: {regional_cost} vs {flat_cost}"
    );
}
