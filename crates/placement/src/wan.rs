//! Deriving placement problems from simulated WAN topologies.
//!
//! The paper's placement instances hand-write a 3-host round-trip matrix.
//! Multi-tier topologies (regional hubs, CDN edge tiers — see
//! `mutsvc_core::topology::multi_tier_topology`) have hundreds of candidate
//! hosts whose pairwise cost is a *multi-hop* WAN path, not a single link.
//! This module prices those paths the same way the simulator and the static
//! analyzer do: [`Topology::rtt`] sums latency-shortest routes (Dijkstra per
//! source, computed once per topology), so the placement matrix, the
//! analyzer, and the engine's message timing can never disagree about what
//! a host pair costs.
//!
//! The topology keeps every route in one flat table, each source's routes
//! back to back, so [`host_matrix`] prices all of a server's outbound legs
//! in one pass over its row ([`Topology::path_latencies`]). On the
//! 256-host ladder rung (498 topology nodes) that table is ~6.7 MB in two
//! allocations; building it is most of the cost of building the rung's
//! problem.

use std::cmp::Ordering;

use mutsvc_desim::SimDuration;
use mutsvc_netsim::{LinkId, NodeId, Topology, WAN_LATENCY_THRESHOLD};

use crate::graph::{Host, PlacementProblem};

/// One candidate placement host drawn from a topology node.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The topology node acting as the host.
    pub node: NodeId,
    /// Share of client traffic originating at this host (0 for pure
    /// compute tiers such as regional hubs).
    pub entry_share: f64,
    /// CPU capacity in ms/s ([`f64::INFINITY`] = uncapped).
    pub cpu_capacity: f64,
}

/// All-pairs round-trip matrix (milliseconds) over `servers`, priced along
/// latency-shortest routes of `topology` — `rtt[a][b]` is the full
/// multi-hop path there and back, exactly what one remote invocation pays,
/// and bit for bit [`Topology::rtt`].
///
/// One [`Topology::path_latencies`] walk per server prices its outbound
/// legs. The matrix is the only allocation that outlives a walk: until the
/// walk from `b` completes a pair `a < b`, slot `[a][b]` holds the `a → b`
/// leg's microseconds as raw bits.
///
/// # Panics
///
/// Panics if any server pair is unreachable in the topology.
pub fn host_matrix(topology: &Topology, servers: &[NodeId]) -> Vec<Vec<f64>> {
    let mut rtt = vec![vec![0.0_f64; servers.len()]; servers.len()];
    for (b, &node_b) in servers.iter().enumerate() {
        let from_b = topology.path_latencies(node_b);
        for (a, &node_a) in servers.iter().enumerate() {
            let back =
                from_b[node_a.index()].unwrap_or_else(|| panic!("no route {node_b} -> {node_a}"));
            match a.cmp(&b) {
                Ordering::Less => {
                    let there = SimDuration::from_micros(rtt[a][b].to_bits());
                    let ms = if node_a == node_b {
                        0.0
                    } else {
                        (there + back).as_millis_f64()
                    };
                    rtt[a][b] = ms;
                    rtt[b][a] = ms;
                }
                // The walk from `a` completes this pair.
                Ordering::Greater => rtt[b][a] = f64::from_bits(back.as_micros()),
                Ordering::Equal => {}
            }
        }
    }
    rtt
}

/// Builds the placement host list + round-trip matrix for `servers`,
/// naming each host after its topology node.
pub fn hosts_from_topology(
    topology: &Topology,
    servers: &[ServerSpec],
) -> (Vec<Host>, Vec<Vec<f64>>) {
    let nodes: Vec<NodeId> = servers.iter().map(|s| s.node).collect();
    let hosts = servers
        .iter()
        .map(|s| Host {
            name: topology.node(s.node).name.clone(),
            entry_share: s.entry_share,
            cpu_capacity: s.cpu_capacity,
        })
        .collect();
    (hosts, host_matrix(topology, &nodes))
}

/// Re-targets a derived problem (same component graph and cost parameters)
/// onto a different host set — how the scaling bench deploys the RUBiS /
/// Pet Store graphs onto generated multi-tier topologies.
///
/// Pinned components keep their [`HostId`](crate::graph::HostId) indices,
/// so the new host list must keep the pinned hosts (in practice: the main
/// server stays index 0) at the same positions.
///
/// # Panics
///
/// Panics if the rehosted problem fails [`PlacementProblem::validate`]
/// (malformed matrix, pins out of range, entry shares not summing to 1).
pub fn rehost(
    problem: &PlacementProblem,
    hosts: Vec<Host>,
    rtt_ms: Vec<Vec<f64>>,
) -> PlacementProblem {
    let rehosted = PlacementProblem {
        hosts,
        rtt_ms,
        graph: problem.graph.clone(),
        params: problem.params.clone(),
    };
    if let Err(msg) = rehosted.validate() {
        panic!("rehosted problem invalid: {msg}");
    }
    rehosted
}

/// [`host_matrix`] with *observed* per-link latencies: the online
/// re-pricing API the adaptive controller feeds with telemetry.
///
/// `observed_one_way_ms[link]` overrides the one-way latency of that
/// directed link (`None` falls back to the topology's static latency —
/// telemetry only covers WAN links that carried traffic). Paths still
/// follow the *static* latency-shortest routes: observation re-prices the
/// paths the deployed system actually uses, it does not re-route them, so
/// the matrix stays consistent with the simulator's precomputed routing.
///
/// # Panics
///
/// Panics if `observed_one_way_ms` is not one entry per directed link, or
/// if any server pair is unreachable.
pub fn reprice_matrix(
    topology: &Topology,
    servers: &[NodeId],
    observed_one_way_ms: &[Option<f64>],
) -> Vec<Vec<f64>> {
    assert_eq!(
        observed_one_way_ms.len(),
        topology.link_count(),
        "one observed-latency slot per directed link"
    );
    let leg = |from: NodeId, to: NodeId| -> f64 {
        topology
            .route(from, to)
            .unwrap_or_else(|| panic!("no route {from} -> {to}"))
            .iter()
            .map(|&l: &LinkId| {
                observed_one_way_ms[l.index()]
                    .unwrap_or_else(|| topology.link(l).latency.as_millis_f64())
            })
            .sum()
    };
    servers
        .iter()
        .map(|&a| {
            servers
                .iter()
                .map(|&b| if a == b { 0.0 } else { leg(a, b) + leg(b, a) })
                .collect()
        })
        .collect()
}

/// The host-pair round-trip bound (milliseconds) under which two hosts
/// belong to one network region: twice the one-way
/// [`WAN_LATENCY_THRESHOLD`] the engine and analyzer use, since a placement
/// matrix stores round trips. Host pairs joined by LAN/metro links stay
/// strictly under it; any WAN hop pushes the round trip strictly over it.
pub fn region_rtt_threshold_ms() -> f64 {
    2.0 * WAN_LATENCY_THRESHOLD.as_millis_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::SimDuration;
    use mutsvc_netsim::TopologyBuilder;

    /// client — router — hub — edge chain: the client↔edge round trip must
    /// be priced over both WAN legs, not one star hop.
    #[test]
    fn host_matrix_prices_multi_hop_paths() {
        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let router = b.node("router", 8);
        let hub = b.node("hub", 4);
        let edge = b.node("edge", 2);
        b.duplex_link(main, router, SimDuration::from_micros(200), 100e6);
        b.duplex_link(router, hub, SimDuration::from_millis(60), 100e6);
        b.duplex_link(hub, edge, SimDuration::from_millis(30), 100e6);
        let t = b.finalize();
        let m = host_matrix(&t, &[main, hub, edge]);
        assert_eq!(m[0][0], 0.0);
        let main_hub = 2.0 * (0.2 + 60.0);
        let main_edge = 2.0 * (0.2 + 60.0 + 30.0);
        assert!((m[0][1] - main_hub).abs() < 1e-9, "{}", m[0][1]);
        assert!((m[0][2] - main_edge).abs() < 1e-9, "{}", m[0][2]);
        assert!((m[1][2] - 60.0).abs() < 1e-9, "{}", m[1][2]);
        // Symmetric (duplex links with equal latency both ways).
        assert_eq!(m[0][2], m[2][0]);
    }

    /// Directed links of unequal latency make each round trip the sum of
    /// two different legs, and a server listed twice prices as co-located.
    #[test]
    fn host_matrix_sums_both_legs_bit_for_bit() {
        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let hub = b.node("hub", 4);
        let edge = b.node("edge", 2);
        b.directed_link(main, hub, SimDuration::from_micros(60_123), 100e6);
        b.directed_link(hub, main, SimDuration::from_micros(1_001), 100e6);
        b.directed_link(hub, edge, SimDuration::from_micros(333), 100e6);
        b.directed_link(edge, main, SimDuration::from_micros(90_007), 100e6);
        let t = b.finalize();
        let servers = [edge, main, hub, main];
        let m = host_matrix(&t, &servers);
        for (i, &a) in servers.iter().enumerate() {
            for (j, &c) in servers.iter().enumerate() {
                let expected = if a == c {
                    0.0
                } else {
                    t.rtt(a, c).as_millis_f64()
                };
                assert_eq!(m[i][j].to_bits(), expected.to_bits(), "[{i}][{j}]");
            }
        }
        assert_eq!(m[1][0], (60_123.0 + 333.0 + 90_007.0) / 1_000.0);
        assert_eq!(m[1][3], 0.0);
    }

    #[test]
    fn reprice_matrix_overrides_observed_links_and_falls_back_statically() {
        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let router = b.node("router", 8);
        let hub = b.node("hub", 4);
        let edge = b.node("edge", 2);
        b.duplex_link(main, router, SimDuration::from_micros(200), 100e6);
        b.duplex_link(router, hub, SimDuration::from_millis(60), 100e6);
        b.duplex_link(hub, edge, SimDuration::from_millis(30), 100e6);
        let t = b.finalize();
        let servers = [main, hub, edge];
        // No observations: identical to the statically priced matrix.
        let none = vec![None; t.link_count()];
        assert_eq!(
            reprice_matrix(&t, &servers, &none),
            host_matrix(&t, &servers)
        );
        // Degrade the router->hub leg (one direction) to an observed 480 ms.
        let degraded = t.route(router, hub).unwrap()[0];
        let mut obs = none.clone();
        obs[degraded.index()] = Some(480.0);
        let m = reprice_matrix(&t, &servers, &obs);
        // main->hub leg now 0.2 + 480, return leg still 60 + 0.2.
        assert!((m[0][1] - (480.2 + 60.2)).abs() < 1e-9, "{}", m[0][1]);
        // The hub<->edge pair never crosses the degraded link.
        assert!((m[1][2] - 60.0).abs() < 1e-9, "{}", m[1][2]);
        // A one-way observation still enters every round trip through both
        // legs, so the matrix stays symmetric, as `validate` requires.
        assert_eq!(m[1][0], m[0][1], "round trips include both legs");
    }

    #[test]
    fn region_threshold_doubles_the_one_way_constant() {
        assert!((region_rtt_threshold_ms() - 40.0).abs() < 1e-12);
    }
}
