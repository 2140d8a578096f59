//! Network topology: nodes, directed links and latency-shortest routes.
//!
//! The paper's testbed (Figure 2) is a star: three application servers, a
//! database host and client LANs, all joined by a Click software router with
//! traffic shaping on the WAN legs. [`TopologyBuilder`] describes such graphs;
//! [`TopologyBuilder::finalize`] computes all-pairs latency-shortest routes
//! once so that the hot transfer path is a plain slice lookup.

use mutsvc_desim::time::SimDuration;

/// One-way latency above which a link counts as wide-area.
///
/// The paper's LAN legs cost ~200 µs and its shaped WAN legs ≥100 ms; 20 ms
/// splits them with two orders of magnitude of slack on either side. Every
/// WAN/LAN judgement goes through [`Topology::is_wan`], which takes links
/// strictly above it: traced hops, logical WAN round trips, the `wan.*`
/// metrics series, the analyzer's hop counts and its SLO round-trip floor
/// ([`Topology::min_wan_latency`]), and the parallel engine's region
/// shards ([`Topology::regions`]). So "WAN" means one thing everywhere.
pub const WAN_LATENCY_THRESHOLD: SimDuration = SimDuration::from_millis(20);

/// Identifies a node (host) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The link's dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Static description of a host.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Human-readable name ("main", "edge1", …).
    pub name: String,
    /// Number of CPUs (the paper's servers are dual-processor workstations).
    pub cpus: usize,
    /// Relative CPU speed; service demands are divided by this factor.
    pub speed: f64,
}

/// Static description of one direction of a link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Human-readable name ("main->router", …).
    pub name: String,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
}

impl LinkSpec {
    /// Time to serialize `bytes` onto this link.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bps <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host with `cpus` processors at relative speed 1.0.
    pub fn node(&mut self, name: impl Into<String>, cpus: usize) -> NodeId {
        self.node_with_speed(name, cpus, 1.0)
    }

    /// Adds a host with an explicit relative CPU speed.
    ///
    /// # Panics
    ///
    /// Panics if `cpus == 0` or `speed` is not positive and finite.
    pub fn node_with_speed(&mut self, name: impl Into<String>, cpus: usize, speed: f64) -> NodeId {
        assert!(cpus > 0, "a node needs at least one CPU");
        assert!(
            speed.is_finite() && speed > 0.0,
            "node speed must be positive"
        );
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec {
            name: name.into(),
            cpus,
            speed,
        });
        id
    }

    /// Adds a bidirectional link as two directed links with identical
    /// latency and bandwidth; returns `(a→b, b→a)`.
    pub fn duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: SimDuration,
        bandwidth_bps: f64,
    ) -> (LinkId, LinkId) {
        let ab = self.directed_link(a, b, latency, bandwidth_bps);
        let ba = self.directed_link(b, a, latency, bandwidth_bps);
        (ab, ba)
    }

    /// Adds a single directed link.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is unknown, endpoints coincide, or the bandwidth
    /// is not positive and finite.
    pub fn directed_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        latency: SimDuration,
        bandwidth_bps: f64,
    ) -> LinkId {
        assert!(
            from.0 < self.nodes.len() && to.0 < self.nodes.len(),
            "unknown endpoint"
        );
        assert_ne!(from, to, "self-links are not allowed");
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive"
        );
        let id = LinkId(self.links.len());
        let name = format!("{}->{}", self.nodes[from.0].name, self.nodes[to.0].name);
        self.links.push(LinkSpec {
            name,
            from,
            to,
            latency,
            bandwidth_bps,
        });
        id
    }

    /// Computes routes and produces an immutable [`Topology`].
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn finalize(self) -> Topology {
        assert!(!self.nodes.is_empty(), "topology has no nodes");
        let routes = compute_routes(&self.nodes, &self.links);
        Topology {
            nodes: self.nodes,
            links: self.links,
            routes,
        }
    }
}

/// All-pairs latency-shortest routes via repeated Dijkstra (graphs are tiny).
fn compute_routes(nodes: &[NodeSpec], links: &[LinkSpec]) -> Vec<Vec<Option<Vec<LinkId>>>> {
    let n = nodes.len();
    let mut adjacency: Vec<Vec<(usize, LinkId, u64)>> = vec![Vec::new(); n];
    for (i, link) in links.iter().enumerate() {
        adjacency[link.from.0].push((link.to.0, LinkId(i), link.latency.as_micros().max(1)));
    }

    let mut routes = vec![vec![None; n]; n];
    for src in 0..n {
        // Dijkstra from src.
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[src] = 0;
        heap.push(std::cmp::Reverse((0u64, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, link, w) in &adjacency[u] {
                let nd = d.saturating_add(w);
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = Some((u, link));
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        for dst in 0..n {
            if dst == src {
                routes[src][dst] = Some(Vec::new());
                continue;
            }
            if dist[dst] == u64::MAX {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = dst;
            while cur != src {
                let (p, link) = prev[cur].expect("reachable node has predecessor");
                path.push(link);
                cur = p;
            }
            path.reverse();
            routes[src][dst] = Some(path);
        }
    }
    routes
}

/// An immutable network graph with precomputed routes.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    routes: Vec<Vec<Option<Vec<LinkId>>>>,
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// All directed-link identifiers.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId)
    }

    /// Host description.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0]
    }

    /// Link description.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0]
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// The latency-shortest route from `from` to `to` (empty if `from == to`),
    /// or `None` if unreachable.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<&[LinkId]> {
        self.routes[from.0][to.0].as_deref()
    }

    /// Sum of propagation latencies along the route (ignores serialization).
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable from `from`.
    pub fn path_latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.route(from, to)
            .unwrap_or_else(|| panic!("no route {from} -> {to}"))
            .iter()
            .map(|&l| self.links[l.0].latency)
            .sum()
    }

    /// Round-trip propagation latency between two nodes.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.path_latency(a, b) + self.path_latency(b, a)
    }

    /// Whether `link` is a wide-area link: its one-way latency is strictly
    /// above [`WAN_LATENCY_THRESHOLD`].
    pub fn is_wan(&self, link: LinkId) -> bool {
        self.links[link.0].latency > WAN_LATENCY_THRESHOLD
    }

    /// The number of wide-area links ([`Topology::is_wan`]) on the routed
    /// path `from → to` (0 when the nodes coincide or no route exists).
    pub fn wan_hops(&self, from: NodeId, to: NodeId) -> u32 {
        self.route(from, to).map_or(0, |route| {
            route.iter().filter(|&&l| self.is_wan(l)).count() as u32
        })
    }

    /// Partitions the nodes into *regions*: connected components of the
    /// subgraph keeping only non-WAN links ([`Topology::is_wan`]). Returns
    /// one region index per node, dense from zero, numbered by each
    /// region's lowest node index — a pure function of the topology,
    /// independent of link insertion order.
    ///
    /// Hosts in one region interact at LAN speed; hosts in different regions
    /// only through ≥1 wide-area link. The parallel engine runs one
    /// independent shard per client region.
    pub fn regions(&self) -> Vec<usize> {
        // Union-find over sub-threshold links (graphs are tiny).
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (l, link) in self.links.iter().enumerate() {
            if !self.is_wan(LinkId(l)) {
                let a = find(&mut parent, link.from.0);
                let b = find(&mut parent, link.to.0);
                // Lower root wins, keeping numbering insertion-order-free.
                parent[a.max(b)] = a.min(b);
            }
        }
        let mut dense: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut next = 0;
        (0..self.nodes.len())
            .map(|i| {
                let root = find(&mut parent, i);
                *dense[root].get_or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect()
    }

    /// The smallest one-way latency among wide-area links
    /// ([`Topology::is_wan`]), or `None` for an all-LAN topology.
    ///
    /// Every message between regions crosses at least one such link, so
    /// each wide-area round trip costs at least twice this; the analyzer's
    /// `W113` floor prices a page's round trips with it.
    pub fn min_wan_latency(&self) -> Option<SimDuration> {
        self.link_ids()
            .filter(|&l| self.is_wan(l))
            .map(|l| self.link(l).latency)
            .min()
    }

    /// Scales every node's relative CPU speed and every link's bandwidth by
    /// `factor` — a deployment provisioned for `factor`× the offered load.
    /// Propagation latencies (and therefore routes) are unchanged. High-rate
    /// benches use this so the simulator, not the modelled hardware, stays
    /// the thing being measured.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scale_capacity(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "capacity factor must be positive"
        );
        for node in &mut self.nodes {
            node.speed *= factor;
        }
        for link in &mut self.links {
            link.bandwidth_bps *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn star() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let router = b.node("router", 4);
        let edge = b.node("edge", 2);
        b.duplex_link(main, router, ms(1), 100e6);
        b.duplex_link(router, edge, ms(100), 100e6);
        (b.finalize(), main, router, edge)
    }

    #[test]
    fn routes_via_router() {
        let (t, main, router, edge) = star();
        let path = t.route(main, edge).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(t.link(path[0]).from, main);
        assert_eq!(t.link(path[0]).to, router);
        assert_eq!(t.link(path[1]).to, edge);
        assert_eq!(t.path_latency(main, edge), ms(101));
        assert_eq!(t.rtt(main, edge), ms(202));
    }

    #[test]
    fn self_route_is_empty() {
        let (t, main, ..) = star();
        assert_eq!(t.route(main, main).unwrap().len(), 0);
        assert_eq!(t.path_latency(main, main), SimDuration::ZERO);
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        let d = b.node("d", 1);
        // Direct but slow, or via d but fast.
        b.duplex_link(a, c, ms(50), 100e6);
        b.duplex_link(a, d, ms(10), 100e6);
        b.duplex_link(d, c, ms(10), 100e6);
        let t = b.finalize();
        assert_eq!(t.path_latency(a, c), ms(20));
        assert_eq!(t.route(a, c).unwrap().len(), 2);
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a", 1);
        let c = b.node("island", 1);
        let d = b.node("d", 1);
        b.duplex_link(a, d, ms(1), 1e6);
        let t = b.finalize();
        assert!(t.route(a, c).is_none());
    }

    #[test]
    fn serialization_time_scales_with_bytes() {
        let (t, main, _, edge) = star();
        let link = t.route(main, edge).unwrap()[0];
        let spec = t.link(link);
        // 100 Mbit/s: 12_500 bytes per millisecond.
        assert_eq!(spec.serialization_time(12_500), ms(1));
        assert_eq!(spec.serialization_time(0), SimDuration::ZERO);
    }

    #[test]
    fn node_lookup_by_name() {
        let (t, main, ..) = star();
        assert_eq!(t.node_by_name("main"), Some(main));
        assert_eq!(t.node_by_name("nope"), None);
        assert_eq!(t.node(main).cpus, 2);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a", 1);
        b.directed_link(a, a, ms(1), 1e6);
    }

    #[test]
    fn regions_split_at_wan_links() {
        // main+router+db share a LAN; two edges hang off 100 ms WAN legs.
        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let router = b.node("router", 4);
        let db = b.node("db", 2);
        let edge1 = b.node("edge1", 2);
        let edge2 = b.node("edge2", 2);
        b.duplex_link(main, router, SimDuration::from_micros(200), 100e6);
        b.duplex_link(db, router, SimDuration::from_micros(200), 100e6);
        b.duplex_link(router, edge1, ms(100), 100e6);
        b.duplex_link(router, edge2, ms(120), 100e6);
        let t = b.finalize();
        let regions = t.regions();
        assert_eq!(regions[main.0], regions[router.0]);
        assert_eq!(regions[main.0], regions[db.0]);
        assert_ne!(regions[main.0], regions[edge1.0]);
        assert_ne!(regions[edge1.0], regions[edge2.0]);
        // Dense, numbered by lowest member: main's region is 0.
        assert_eq!(regions[main.0], 0);
        assert_eq!(regions[edge1.0], 1);
        assert_eq!(regions[edge2.0], 2);
        assert_eq!(t.min_wan_latency(), Some(ms(100)));
    }

    #[test]
    fn all_lan_topology_is_one_region_without_lookahead() {
        let mut b = TopologyBuilder::new();
        let a = b.node("a", 1);
        let c = b.node("c", 1);
        b.duplex_link(a, c, SimDuration::from_micros(200), 100e6);
        let t = b.finalize();
        assert_eq!(t.regions(), vec![0, 0]);
        assert_eq!(t.min_wan_latency(), None);
    }
}
