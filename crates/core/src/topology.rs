//! The paper's testbed network (Figure 2).
//!
//! Three application servers and a database host joined by a Click-style
//! software router: the main server, its clients and the database sit on
//! fast LAN legs; the two edge servers hang off 100 ms shaped WAN legs with
//! their own client LANs. For the RUBiS experiments the database runs *on*
//! the main server's workstation (§3.1), which `db_on_main` reproduces.

use mutsvc_desim::time::SimDuration;
use mutsvc_netsim::{NodeId, Topology, TopologyBuilder};

/// One-way WAN latency (§3.1: "100 ms latency each way").
pub const WAN_ONE_WAY: SimDuration = SimDuration::from_millis(100);
/// LAN leg latency.
pub const LAN_ONE_WAY: SimDuration = SimDuration::from_micros(200);
/// Link bandwidth (§3.1: 100 Mbit/s maximum combined).
pub const LINK_BANDWIDTH_BPS: f64 = 100e6;

/// Node handles of the paper topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperNodes {
    /// Main application server (dual-CPU workstation).
    pub main: NodeId,
    /// First edge application server.
    pub edge1: NodeId,
    /// Second edge application server.
    pub edge2: NodeId,
    /// Database host. Equal to `main` when the database is co-located
    /// (RUBiS / MySQL); a separate LAN host otherwise (Pet Store / Oracle).
    pub db: NodeId,
    /// The software router at the topology's center.
    pub router: NodeId,
    /// Client machines co-located with the main server.
    pub client_local: NodeId,
    /// Client machines co-located with edge 1.
    pub client_edge1: NodeId,
    /// Client machines co-located with edge 2.
    pub client_edge2: NodeId,
}

impl PaperNodes {
    /// The three application servers.
    pub fn servers(&self) -> [NodeId; 3] {
        [self.main, self.edge1, self.edge2]
    }

    /// The two edge servers.
    pub fn edges(&self) -> [NodeId; 2] {
        [self.edge1, self.edge2]
    }
}

/// Builds the Figure 2 topology with the paper's 100 ms WAN legs.
pub fn paper_topology(db_on_main: bool) -> (Topology, PaperNodes) {
    topology_with_wan(db_on_main, WAN_ONE_WAY)
}

/// Builds the Figure 2 topology with a custom one-way WAN latency
/// (ablation studies).
pub fn topology_with_wan(db_on_main: bool, wan_one_way: SimDuration) -> (Topology, PaperNodes) {
    let mut b = TopologyBuilder::new();
    // Dual-processor Pentium III workstations (§3.1); client machines are
    // aggregated per group (three physical boxes each).
    let main = b.node("main", 2);
    let edge1 = b.node("edge1", 2);
    let edge2 = b.node("edge2", 2);
    let db = if db_on_main { main } else { b.node("db", 2) };
    let router = b.node("router", 8);
    let client_local = b.node("client-local", 6);
    let client_edge1 = b.node("client-edge1", 6);
    let client_edge2 = b.node("client-edge2", 6);

    b.duplex_link(main, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    if !db_on_main {
        b.duplex_link(db, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    }
    b.duplex_link(client_local, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    b.duplex_link(edge1, router, wan_one_way, LINK_BANDWIDTH_BPS);
    b.duplex_link(edge2, router, wan_one_way, LINK_BANDWIDTH_BPS);
    b.duplex_link(client_edge1, edge1, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    b.duplex_link(client_edge2, edge2, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);

    let nodes = PaperNodes {
        main,
        edge1,
        edge2,
        db,
        router,
        client_local,
        client_edge1,
        client_edge2,
    };
    (b.finalize(), nodes)
}

/// Node handles of a [`fanout_topology`]: the paper's local cluster plus an
/// arbitrary number of WAN edge regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutNodes {
    /// Main application server.
    pub main: NodeId,
    /// Database host (`main` when co-located).
    pub db: NodeId,
    /// The central software router.
    pub router: NodeId,
    /// Client machines on the main server's LAN.
    pub client_local: NodeId,
    /// Edge application servers, one per WAN region.
    pub edges: Vec<NodeId>,
    /// Client machines co-located with each edge (same order as `edges`).
    pub edge_clients: Vec<NodeId>,
}

/// Builds a widened Figure 2 topology: the paper's local cluster with
/// `edges` WAN edge regions instead of two. Each edge region is an edge
/// server plus a client LAN behind a 100 ms shaped leg, so the topology
/// decomposes into `edges + 1` client regions — the scaling axis of the
/// region-sharded parallel engine benchmarks (DESIGN.md §6.5).
pub fn fanout_topology(db_on_main: bool, edges: usize) -> (Topology, FanoutNodes) {
    let mut b = TopologyBuilder::new();
    let main = b.node("main", 2);
    let db = if db_on_main { main } else { b.node("db", 2) };
    let router = b.node("router", 8);
    let client_local = b.node("client-local", 6);
    b.duplex_link(main, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    if !db_on_main {
        b.duplex_link(db, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    }
    b.duplex_link(client_local, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);

    let mut edge_nodes = Vec::with_capacity(edges);
    let mut edge_clients = Vec::with_capacity(edges);
    for i in 1..=edges {
        let edge = b.node(format!("edge{i}"), 2);
        let clients = b.node(format!("client-edge{i}"), 6);
        b.duplex_link(edge, router, WAN_ONE_WAY, LINK_BANDWIDTH_BPS);
        b.duplex_link(clients, edge, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
        edge_nodes.push(edge);
        edge_clients.push(clients);
    }

    let nodes = FanoutNodes {
        main,
        db,
        router,
        client_local,
        edges: edge_nodes,
        edge_clients,
    };
    (b.finalize(), nodes)
}

/// Shape of a generated multi-tier WAN topology: a core site, `hubs`
/// regional hubs on long-haul legs, and `edges_per_hub` CDN-style edge
/// PoPs per hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiTierSpec {
    /// Number of regional hubs on long-haul WAN legs off the core router.
    pub hubs: usize,
    /// Edge PoPs (edge server + client LAN) hanging off each hub.
    pub edges_per_hub: usize,
    /// Edge tier reach: `true` = metro legs (under the engine's WAN
    /// threshold, so a hub and its PoPs form *one* network region — the
    /// coarsening ladder shape); `false` = WAN legs (every PoP is its own
    /// region — the parallel-engine sharding shape).
    pub metro_edges: bool,
    /// Run the database on the main server's workstation (RUBiS / MySQL).
    pub db_on_main: bool,
}

impl MultiTierSpec {
    /// Application-server host count: main + hubs + edge PoPs.
    pub fn host_count(&self) -> usize {
        1 + self.hubs * (1 + self.edges_per_hub)
    }

    /// The benchmark ladder rung with exactly `hosts` application servers
    /// (metro edge tier, database co-located): 4, 16, 64 or 256.
    ///
    /// # Panics
    ///
    /// Panics on a host count that is not a supported rung.
    pub fn ladder_rung(hosts: usize) -> MultiTierSpec {
        let (hubs, edges_per_hub) = match hosts {
            4 => (1, 2),
            16 => (3, 4),
            64 => (7, 8),
            256 => (15, 16),
            _ => panic!("no ladder rung with {hosts} hosts"),
        };
        let spec = MultiTierSpec {
            hubs,
            edges_per_hub,
            metro_edges: true,
            db_on_main: true,
        };
        debug_assert_eq!(spec.host_count(), hosts);
        spec
    }
}

/// Node handles of a [`multi_tier_topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiTierNodes {
    /// Main application server at the core site.
    pub main: NodeId,
    /// Database host (`main` when co-located).
    pub db: NodeId,
    /// The core software router.
    pub router: NodeId,
    /// Client machines on the core LAN.
    pub client_local: NodeId,
    /// Regional hub servers, one per long-haul leg.
    pub hubs: Vec<NodeId>,
    /// Edge PoP servers in hub-major order (`edges[hub * edges_per_hub + j]`).
    pub edges: Vec<NodeId>,
    /// Client machines co-located with each edge PoP (same order).
    pub edge_clients: Vec<NodeId>,
}

impl MultiTierNodes {
    /// All application-server hosts in placement order: main first, then
    /// hubs, then edge PoPs — the main server keeps host index 0, so
    /// problems derived against the paper's 3-host star re-target onto a
    /// multi-tier host list without touching their pins.
    pub fn servers(&self) -> Vec<NodeId> {
        let mut servers = Vec::with_capacity(1 + self.hubs.len() + self.edges.len());
        servers.push(self.main);
        servers.extend_from_slice(&self.hubs);
        servers.extend_from_slice(&self.edges);
        servers
    }
}

/// One-way long-haul latency of hub `i` (milliseconds): a deterministic
/// spread over 60–140 ms, so every hub leg is distinctly WAN and repeated
/// builds are bit-identical (no RNG in topology generation).
fn hub_latency_ms(i: usize) -> u64 {
    60 + ((i as u64) * 37) % 81
}

/// One-way edge-tier latency of PoP `(i, j)` in milliseconds: 2–17 ms
/// metro legs (strictly under the 20 ms WAN threshold) or 25–80 ms WAN
/// legs (strictly over it) — never *exactly* at the threshold, so the
/// region structure is unambiguous.
fn edge_latency_ms(i: usize, j: usize, metro: bool) -> u64 {
    let mix = (i as u64) * 5 + (j as u64) * 11;
    if metro {
        2 + mix % 16
    } else {
        25 + mix % 56
    }
}

/// Heterogeneous link bandwidth (bits/s) seeded by the link's tier slot.
fn tier_bandwidth_bps(tier: u64, slot: u64) -> f64 {
    let mbit = 40 + (tier * 23 + slot * 17) % 111;
    mbit as f64 * 1e6
}

/// Builds a multi-tier WAN topology: the paper's core site (main server,
/// optional separate database, client LAN, software router), `spec.hubs`
/// regional hubs on heterogeneous long-haul legs (60–140 ms one way), and
/// `spec.edges_per_hub` edge PoPs per hub — each an edge server with its
/// own client LAN, reached over metro (2–17 ms) or WAN (25–80 ms) legs.
/// All latencies and bandwidths are deterministic index formulas; building
/// the same spec twice yields identical topologies.
///
/// This is the scaling axis past [`fanout_topology`]: a client request
/// from an edge PoP to the core crosses *two* WAN hops (PoP → hub → core)
/// when the edge tier is WAN, exercising multi-hop path pricing in the
/// placement layer and the analyzer, and hundreds of hosts at the 256-host
/// ladder rung.
pub fn multi_tier_topology(spec: &MultiTierSpec) -> (Topology, MultiTierNodes) {
    assert!(spec.hubs > 0, "at least one hub");
    let mut b = TopologyBuilder::new();
    let main = b.node("main", 2);
    let db = if spec.db_on_main {
        main
    } else {
        b.node("db", 2)
    };
    let router = b.node("router", 8);
    let client_local = b.node("client-local", 6);
    b.duplex_link(main, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    if !spec.db_on_main {
        b.duplex_link(db, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
    }
    b.duplex_link(client_local, router, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);

    let mut hubs = Vec::with_capacity(spec.hubs);
    let mut edges = Vec::with_capacity(spec.hubs * spec.edges_per_hub);
    let mut edge_clients = Vec::with_capacity(spec.hubs * spec.edges_per_hub);
    for i in 0..spec.hubs {
        let hub = b.node(format!("hub{i}"), 4);
        b.duplex_link(
            hub,
            router,
            SimDuration::from_millis(hub_latency_ms(i)),
            tier_bandwidth_bps(1, i as u64),
        );
        for j in 0..spec.edges_per_hub {
            let edge = b.node(format!("edge{i}-{j}"), 2);
            let clients = b.node(format!("client-edge{i}-{j}"), 6);
            b.duplex_link(
                edge,
                hub,
                SimDuration::from_millis(edge_latency_ms(i, j, spec.metro_edges)),
                tier_bandwidth_bps(2, (i * spec.edges_per_hub + j) as u64),
            );
            b.duplex_link(clients, edge, LAN_ONE_WAY, LINK_BANDWIDTH_BPS);
            edges.push(edge);
            edge_clients.push(clients);
        }
        hubs.push(hub);
    }

    let nodes = MultiTierNodes {
        main,
        db,
        router,
        client_local,
        hubs,
        edges,
        edge_clients,
    };
    (b.finalize(), nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_rtt_is_two_hundred_ms() {
        let (t, n) = paper_topology(false);
        let rtt = t.rtt(n.main, n.edge1).as_millis_f64();
        assert!((rtt - 200.8).abs() < 0.5, "rtt {rtt}");
        // Edge-to-edge crosses two WAN legs.
        let rtt2 = t.rtt(n.edge1, n.edge2).as_millis_f64();
        assert!((rtt2 - 400.0).abs() < 1.0, "rtt {rtt2}");
    }

    #[test]
    fn local_clients_reach_main_over_lan() {
        let (t, n) = paper_topology(false);
        assert!(t.rtt(n.client_local, n.main).as_millis_f64() < 1.0);
        assert!(t.rtt(n.client_edge1, n.edge1).as_millis_f64() < 1.0);
        // Remote clients pay the WAN to reach main.
        assert!(t.rtt(n.client_edge1, n.main).as_millis_f64() > 200.0);
    }

    #[test]
    fn db_placement_variants() {
        let (t, n) = paper_topology(false);
        assert_ne!(n.db, n.main);
        assert!(t.rtt(n.main, n.db).as_millis_f64() < 1.0);
        let (_, n) = paper_topology(true);
        assert_eq!(n.db, n.main);
    }

    #[test]
    fn fanout_topology_scales_the_region_count() {
        let (t, n) = fanout_topology(false, 7);
        assert_eq!(n.edges.len(), 7);
        let regions = t.regions();
        let distinct: std::collections::BTreeSet<usize> = regions.iter().copied().collect();
        assert_eq!(distinct.len(), 8, "local + 7 edge regions");
        // Every edge client reaches main across exactly one WAN leg.
        for (&edge, &client) in n.edges.iter().zip(&n.edge_clients) {
            assert_eq!(regions[edge.index()], regions[client.index()]);
            assert_ne!(regions[edge.index()], regions[n.main.index()]);
            let rtt = t.rtt(client, n.main).as_millis_f64();
            assert!((200.0..202.0).contains(&rtt), "rtt {rtt}");
        }
        assert_eq!(t.min_wan_latency(), Some(WAN_ONE_WAY));
    }

    #[test]
    fn multi_tier_metro_groups_pops_under_their_hub() {
        let spec = MultiTierSpec::ladder_rung(16);
        let (t, n) = multi_tier_topology(&spec);
        assert_eq!(n.servers().len(), 16);
        assert_eq!(n.servers()[0], n.main);
        let regions = t.regions();
        let distinct: std::collections::BTreeSet<usize> = regions.iter().copied().collect();
        assert_eq!(distinct.len(), spec.hubs + 1, "core + one region per hub");
        for (i, &hub) in n.hubs.iter().enumerate() {
            for j in 0..spec.edges_per_hub {
                let edge = n.edges[i * spec.edges_per_hub + j];
                assert_eq!(regions[edge.index()], regions[hub.index()]);
            }
            assert_ne!(regions[hub.index()], regions[n.main.index()]);
        }
    }

    #[test]
    fn multi_tier_wan_edges_split_every_pop_into_its_own_region() {
        let spec = MultiTierSpec {
            hubs: 4,
            edges_per_hub: 8,
            metro_edges: false,
            db_on_main: true,
        };
        let (t, n) = multi_tier_topology(&spec);
        let regions = t.regions();
        let distinct: std::collections::BTreeSet<usize> = regions.iter().copied().collect();
        assert_eq!(distinct.len(), 1 + 4 + 32, "core + hubs + every PoP");
        // Client LANs stay glued to their edge server.
        for (&edge, &client) in n.edges.iter().zip(&n.edge_clients) {
            assert_eq!(regions[edge.index()], regions[client.index()]);
        }
        // An edge client reaches the core across two WAN hops.
        let rtt = t.rtt(n.edge_clients[0], n.main).as_millis_f64();
        let expected = 2.0 * (25.0 + 60.0); // edge_latency(0,0) + hub_latency(0)
        assert!((rtt - expected).abs() < 2.0, "rtt {rtt} vs {expected}");
    }

    #[test]
    fn multi_tier_generation_is_deterministic_and_never_at_threshold() {
        let spec = MultiTierSpec::ladder_rung(64);
        let (a, _) = multi_tier_topology(&spec);
        let (b, _) = multi_tier_topology(&spec);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.link_count(), b.link_count());
        let threshold = mutsvc_netsim::WAN_LATENCY_THRESHOLD;
        for id in a.link_ids() {
            let link = a.link(id);
            assert_ne!(link.latency, threshold, "link exactly at the WAN threshold");
            assert_eq!(link.latency, b.link(id).latency);
            assert_eq!(link.bandwidth_bps, b.link(id).bandwidth_bps);
        }
        assert_eq!(a.regions(), b.regions());
    }

    #[test]
    fn ladder_rungs_hit_the_advertised_host_counts() {
        for hosts in [4usize, 16, 64, 256] {
            let spec = MultiTierSpec::ladder_rung(hosts);
            assert_eq!(spec.host_count(), hosts);
            let (_, n) = multi_tier_topology(&spec);
            assert_eq!(n.servers().len(), hosts);
        }
    }

    #[test]
    fn wan_classification() {
        let (t, n) = paper_topology(false);
        let is_wan = |a, b| t.wan_hops(a, b) > 0;
        assert!(is_wan(n.main, n.edge1));
        assert!(is_wan(n.client_edge1, n.main));
        assert!(is_wan(n.edge1, n.edge2));
        assert!(!is_wan(n.main, n.db));
        assert!(!is_wan(n.edge1, n.client_edge1));
        assert!(!is_wan(n.client_local, n.main));
    }
}
