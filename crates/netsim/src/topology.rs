//! Network topology: nodes, directed links and latency-shortest routes.
//!
//! The paper's testbed (Figure 2) is a star: three application servers, a
//! database host and client LANs, all joined by a Click software router with
//! traffic shaping on the WAN legs. [`TopologyBuilder`] describes such graphs.
//! A [`Topology`] computes its all-pairs latency-shortest routes on the first
//! [`Topology::route`] query, into one flat table, so that the hot transfer
//! path is a plain slice lookup. The generated multi-tier rungs reach ~500
//! nodes (a quarter of a million routed pairs), so the table holds every
//! route back to back in one buffer rather than one allocation per pair.
//! [`Topology::path_latencies`] runs the same Dijkstra without the table, so
//! a caller that only prices paths (the placement host matrix) never
//! builds it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

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

/// Identifies a directed link. Four bytes, so each hop of a stored route
/// costs four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The link's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
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
    /// Panics if an endpoint is unknown, endpoints coincide, the bandwidth
    /// is not positive and finite, or the topology already has 2^32 links.
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
        let id = LinkId(
            u32::try_from(self.links.len()).expect("a topology holds at most 2^32 directed links"),
        );
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

    /// Produces an immutable [`Topology`]. Its routes are computed on the
    /// first [`Topology::route`] query.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn finalize(self) -> Topology {
        assert!(!self.nodes.is_empty(), "topology has no nodes");
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (id, link) in (0..).map(LinkId).zip(&self.links) {
            adjacency[link.from.0].push(OutLink {
                to: link.to.0,
                link: id,
                weight: link.latency.as_micros().max(1),
            });
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            adjacency,
            routes: OnceLock::new(),
        }
    }
}

/// One directed link as Dijkstra reads it from its tail's adjacency list.
#[derive(Debug, Clone, Copy)]
struct OutLink {
    to: usize,
    link: LinkId,
    /// The link's latency in whole microseconds, at least 1 µs.
    weight: u64,
}

/// The buffers of one-source Dijkstras, reused across sources.
struct Dijkstra {
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Dijkstra {
    fn new(nodes: usize) -> Self {
        Dijkstra {
            dist: vec![u64::MAX; nodes],
            heap: BinaryHeap::new(),
        }
    }

    /// Settles every node reachable from `src` in order of distance over
    /// `adjacency`, and calls `visit(node, last)` once per node as it
    /// settles. `last` is `None` for `src`; for any other node it is the
    /// link that last improved the node's distance. That link is the last
    /// hop of the node's route, and its tail settled earlier. `last_link`
    /// (one slot per node) records it for every reached node but `src`.
    ///
    /// Both the route table and [`Topology::path_latencies`] run this one
    /// loop, so they break ties alike and agree on every route.
    fn settle(
        &mut self,
        adjacency: &[Vec<OutLink>],
        src: usize,
        last_link: &mut [LinkId],
        mut visit: impl FnMut(usize, Option<LinkId>),
    ) {
        self.dist.fill(u64::MAX);
        self.dist[src] = 0;
        self.heap.push(Reverse((0, src)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            visit(u, (u != src).then(|| last_link[u]));
            for out in &adjacency[u] {
                let nd = d.saturating_add(out.weight);
                if nd < self.dist[out.to] {
                    self.dist[out.to] = nd;
                    last_link[out.to] = out.link;
                    self.heap.push(Reverse((nd, out.to)));
                }
            }
        }
    }
}

/// Where one (source, destination) pair's route sits in the route table's
/// hop buffer: `len` links starting at `offset`.
#[derive(Debug, Clone, Copy)]
struct Span {
    offset: u32,
    len: u32,
}

impl Span {
    /// The span of a pair with no route.
    const UNREACHABLE: Span = Span {
        offset: 0,
        len: u32::MAX,
    };

    fn range(self) -> std::ops::Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// The all-pairs route table: every route's links back to back in `hops`
/// (4 bytes per hop), and one 8-byte [`Span`] per ordered node pair in
/// `spans`, row-major by source, with a sentinel length for an unreachable
/// pair. A pair therefore costs 8 bytes plus 4 per hop of its route.
#[derive(Debug, Clone)]
struct Routes {
    hops: Vec<LinkId>,
    spans: Vec<Span>,
}

/// All-pairs latency-shortest routes: one [`Dijkstra::settle`] per source,
/// its buffers reused across sources.
///
/// Two passes, so that the hop buffer is allocated once at its exact size.
/// The Dijkstras keep, per pair, the link that last improved the
/// destination, and fix a node's span when it settles: its route is one
/// link longer than its predecessor's, which settled earlier, and spans are
/// laid out in settle order. The second pass writes each route back to
/// front along those links: exactly the final predecessor chain. (A buffer
/// grown as routes are found leaves its outgrown halves as holes in the
/// allocator's heap; in a loop that rebuilds the 256-host rung they made
/// the peak resident set jump by up to 4 MB at moments that varied from run
/// to run.) That rung has 498 nodes: 248,004 spans and 1,177,058 hops,
/// ~6.7 MB in two allocations, plus 1 MB of per-pair links freed on return.
///
/// # Panics
///
/// Panics if the routes hold more than `u32::MAX` links in all.
fn compute_routes(links: &[LinkSpec], adjacency: &[Vec<OutLink>]) -> Routes {
    let n = adjacency.len();
    let mut spans = vec![Span::UNREACHABLE; n * n];
    // Only read for pairs whose source reached the destination, each of
    // which set it.
    let mut last = vec![LinkId(0); n * n];
    let mut total: u32 = 0;
    let mut dijkstra = Dijkstra::new(n);
    for (src, (row, last)) in spans
        .chunks_exact_mut(n)
        .zip(last.chunks_exact_mut(n))
        .enumerate()
    {
        dijkstra.settle(adjacency, src, last, |u, via| {
            let len = via.map_or(0, |l| row[links[l.index()].from.0].len + 1);
            row[u] = Span { offset: total, len };
            total = total
                .checked_add(len)
                .expect("a route table holds at most u32::MAX links");
        });
    }

    let mut hops = vec![LinkId(0); total as usize];
    for (row, last) in spans.chunks_exact(n).zip(last.chunks_exact(n)) {
        for (dst, &span) in row.iter().enumerate() {
            if span.len == Span::UNREACHABLE.len {
                continue;
            }
            let mut at = dst;
            for hop in hops[span.range()].iter_mut().rev() {
                *hop = last[at];
                at = links[last[at].index()].from.0;
            }
        }
    }
    Routes { hops, spans }
}

/// An immutable network graph and its latency-shortest routes.
///
/// The all-pairs route table is built on the first [`Topology::route`]
/// query and kept from then on; every later query is one check that it is
/// built plus a slice index. A clone copies the table if it is built, and
/// otherwise builds its own on its first query. Only the adjacency lists
/// are kept from the start, for [`Topology::path_latencies`] and the
/// table's Dijkstras.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    /// Each node's outgoing links, in insertion order.
    adjacency: Vec<Vec<OutLink>>,
    routes: OnceLock<Routes>,
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
        (0..).map(LinkId).take(self.links.len())
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
        &self.links[id.index()]
    }

    /// The node with dense index `index`, the form fault events carry.
    ///
    /// # Panics
    ///
    /// Panics, naming the index, if the topology has no such node.
    pub fn node_at(&self, index: u32) -> NodeId {
        let i = index as usize;
        assert!(
            i < self.nodes.len(),
            "node index {index} outside a topology of {} nodes",
            self.nodes.len()
        );
        NodeId(i)
    }

    /// The directed link with dense index `index`, the form fault events
    /// carry.
    ///
    /// # Panics
    ///
    /// Panics, naming the index, if the topology has no such link.
    pub fn link_at(&self, index: u32) -> LinkId {
        assert!(
            (index as usize) < self.links.len(),
            "link index {index} outside a topology of {} links",
            self.links.len()
        );
        LinkId(index)
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// The latency-shortest route from `from` to `to` (empty if `from == to`),
    /// or `None` if unreachable. The first query builds the route table.
    ///
    /// # Panics
    ///
    /// Panics if either node does not belong to this topology.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<&[LinkId]> {
        let n = self.nodes.len();
        assert!(to.0 < n, "node {to} outside a topology of {n} nodes");
        let routes = self
            .routes
            .get_or_init(|| compute_routes(&self.links, &self.adjacency));
        let span = routes.spans[from.0 * n + to.0];
        (span.len != Span::UNREACHABLE.len).then(|| &routes.hops[span.range()])
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
            .map(|&l| self.links[l.index()].latency)
            .sum()
    }

    /// [`path_latency`](Topology::path_latency) from `from` to every node,
    /// indexed by node, with `None` where unreachable: one Dijkstra from
    /// `from` that keeps latencies only, so it neither reads nor builds the
    /// route table. It settles nodes exactly as the table's Dijkstras do,
    /// and prices each as the node its route comes from plus the route's
    /// last link, so every latency is its route's sum.
    ///
    /// # Panics
    ///
    /// Panics if `from` does not belong to this topology.
    pub fn path_latencies(&self, from: NodeId) -> Vec<Option<SimDuration>> {
        let n = self.nodes.len();
        assert!(from.0 < n, "node {from} outside a topology of {n} nodes");
        let mut latency = vec![None; n];
        let mut last = vec![LinkId(0); n];
        Dijkstra::new(n).settle(&self.adjacency, from.0, &mut last, |u, via| {
            latency[u] = Some(via.map_or(SimDuration::ZERO, |l| {
                let link = &self.links[l.index()];
                latency[link.from.0].expect("a route's last hop leaves a settled node")
                    + link.latency
            }));
        });
        latency
    }

    /// Round-trip propagation latency between two nodes.
    pub fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.path_latency(a, b) + self.path_latency(b, a)
    }

    /// Whether `link` is a wide-area link: its one-way latency is strictly
    /// above [`WAN_LATENCY_THRESHOLD`].
    pub fn is_wan(&self, link: LinkId) -> bool {
        self.links[link.index()].latency > WAN_LATENCY_THRESHOLD
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
        // Union-find with path halving over sub-threshold links.
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (l, link) in self.link_ids().zip(&self.links) {
            if !self.is_wan(l) {
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

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Every pair's route as its own vector, read back along the final
        /// predecessor chain of one Dijkstra per source: what the flat
        /// table must reproduce pair for pair.
        fn reference_routes(t: &Topology) -> Vec<Vec<Option<Vec<LinkId>>>> {
            let n = t.node_count();
            let mut adjacency = vec![Vec::new(); n];
            for l in t.link_ids() {
                let link = t.link(l);
                adjacency[link.from.0].push((link.to.0, l, link.latency.as_micros().max(1)));
            }
            (0..n)
                .map(|src| {
                    let mut dist = vec![u64::MAX; n];
                    let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; n];
                    let mut heap = BinaryHeap::new();
                    dist[src] = 0;
                    heap.push(Reverse((0u64, src)));
                    while let Some(Reverse((d, u))) = heap.pop() {
                        if d > dist[u] {
                            continue;
                        }
                        for &(v, link, w) in &adjacency[u] {
                            let nd = d.saturating_add(w);
                            if nd < dist[v] {
                                dist[v] = nd;
                                prev[v] = Some((u, link));
                                heap.push(Reverse((nd, v)));
                            }
                        }
                    }
                    (0..n)
                        .map(|dst| {
                            (dist[dst] != u64::MAX).then(|| {
                                let mut path = Vec::new();
                                let mut cur = dst;
                                while cur != src {
                                    let (p, link) = prev[cur].expect("reached nodes have one");
                                    path.push(link);
                                    cur = p;
                                }
                                path.reverse();
                                path
                            })
                        })
                        .collect()
                })
                .collect()
        }

        /// A directed graph on `nodes` nodes from `(from, to, µs)` triples.
        /// Node 0 gets no in-links and the last node no links at all;
        /// self-links are skipped. Latencies of 0–3 µs make cycles of
        /// equal-cost ties common, and a 0 µs link stands for a
        /// sub-microsecond one, which Dijkstra prices at 1 µs.
        fn random_topology(nodes: usize, links: &[(usize, usize, u64)]) -> Topology {
            let mut b = TopologyBuilder::new();
            let ids: Vec<NodeId> = (0..nodes).map(|i| b.node(format!("n{i}"), 1)).collect();
            let isolated = nodes - 1;
            for &(from, to, us) in links {
                let (from, to) = (from % nodes, to % nodes);
                if from != to && to != 0 && from != isolated && to != isolated {
                    b.directed_link(ids[from], ids[to], SimDuration::from_micros(us), 1e6);
                }
            }
            b.finalize()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn flat_routes_match_the_predecessor_chain(
                nodes in 3usize..14,
                links in proptest::collection::vec((0usize..64, 0usize..64, 0u64..4), 0..48),
            ) {
                let t = random_topology(nodes, &links);
                let reference = reference_routes(&t);
                let before = t.clone();
                prop_assert!(t.route(NodeId(0), NodeId(0)).is_some());
                let after = t.clone();
                prop_assert!(before.routes.get().is_none() && after.routes.get().is_some());
                let (source_only, isolated) = (NodeId(0), NodeId(nodes - 1));
                for a in t.node_ids() {
                    for b in t.node_ids() {
                        let route = t.route(a, b);
                        prop_assert_eq!(route, reference[a.0][b.0].as_deref(), "{} -> {}", a, b);
                        prop_assert_eq!(before.route(a, b), route);
                        prop_assert_eq!(after.route(a, b), route);
                        if a == b {
                            prop_assert_eq!(route, Some(&[][..]));
                        } else if b == source_only || a == isolated || b == isolated {
                            prop_assert_eq!(route, None);
                        }
                    }
                }
            }

            /// The latency-only Dijkstra prices every destination exactly as
            /// summing its route does, with `None` exactly where there is no
            /// route, and so round trips sum to [`Topology::rtt`].
            #[test]
            fn latency_pass_matches_route_sums(
                nodes in 3usize..14,
                links in proptest::collection::vec((0usize..64, 0usize..64, 0u64..4), 0..48),
                scale in 1u64..100_000,
            ) {
                let scaled: Vec<_> = links.iter().map(|&(a, b, us)| (a, b, us * scale)).collect();
                let t = random_topology(nodes, &scaled);
                let rows: Vec<_> = t.node_ids().map(|a| t.path_latencies(a)).collect();
                for a in t.node_ids() {
                    for b in t.node_ids() {
                        let summed = t.route(a, b).map(|route| {
                            route.iter().map(|&l| t.link(l).latency).sum::<SimDuration>()
                        });
                        prop_assert_eq!(rows[a.0][b.0], summed, "{} -> {}", a, b);
                        if let (Some(there), Some(back)) = (rows[a.0][b.0], rows[b.0][a.0]) {
                            prop_assert_eq!(there + back, t.rtt(a, b));
                        }
                    }
                }
            }
        }
    }

    /// Pricing paths from every node leaves the route table unbuilt, and
    /// the first route query builds it.
    #[test]
    fn path_latencies_do_not_build_the_route_table() {
        let (t, main, router, edge) = star();
        for from in t.node_ids() {
            t.path_latencies(from);
        }
        assert_eq!(t.path_latencies(edge)[main.0], Some(ms(101)));
        assert!(t.routes.get().is_none());
        assert_eq!(t.route(main, router).map(<[LinkId]>::len), Some(1));
        assert!(t.routes.get().is_some());
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
