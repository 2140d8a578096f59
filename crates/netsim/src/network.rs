//! The live network: topology plus queueing state (CPU and link resources).

use mutsvc_desim::fault::FaultKind;
use mutsvc_desim::resource::FifoResource;
use mutsvc_desim::time::{SimDuration, SimTime};

use crate::topology::{LinkId, NodeId, Topology};

/// A topology instantiated with per-node CPU queues and per-link
/// serialization queues.
///
/// Transfers are store-and-forward: a message is serialized onto each hop's
/// link queue in turn and experiences each hop's propagation latency. Hop
/// admissions along a path are computed analytically at the time the transfer
/// is issued; with the sub-millisecond serialization times of this model the
/// resulting reordering error is negligible (see DESIGN.md §4).
///
/// Fault state (links and node processes up or down, latency degradation,
/// message loss) changes only through [`Self::apply_fault`].
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    cpus: Vec<FifoResource>,
    links: Vec<FifoResource>,
    /// Per-link latency overrides (`LinkDegraded` fault episodes).
    latency_overrides: Vec<Option<SimDuration>>,
    /// Messages serialized per directed link (telemetry).
    link_msgs: Vec<u64>,
    /// Payload bytes serialized per directed link (telemetry).
    link_bytes: Vec<u64>,
    /// Per-link up/down state (fault injection). All links start up.
    link_up: Vec<bool>,
    /// Per-node application up/down state (fault injection). A downed node
    /// fails CPU work and messages addressed to it, but keeps forwarding
    /// transit traffic (the model is a crashed server process, not a
    /// powered-off host).
    node_up: Vec<bool>,
    /// Per-link message-loss probability (fault injection; 0 = lossless).
    link_loss: Vec<f64>,
    /// Per-link loss-draw sequence counters. Only advanced while a loss
    /// window is active on the link, so fault-off runs never touch them.
    loss_seq: Vec<u64>,
    /// Salt folded into loss draws (typically the experiment seed).
    loss_salt: u64,
}

impl Network {
    /// Instantiates queues for every node and link of `topology`.
    pub fn new(topology: Topology) -> Self {
        let cpus = topology
            .node_ids()
            .map(|id| {
                let spec = topology.node(id);
                FifoResource::new(format!("cpu:{}", spec.name), spec.cpus)
            })
            .collect();
        let links = (0..topology.link_count())
            .map(|i| FifoResource::new(format!("link:{i}"), 1))
            .collect();
        let latency_overrides = vec![None; topology.link_count()];
        let link_msgs = vec![0; topology.link_count()];
        let link_bytes = vec![0; topology.link_count()];
        let link_up = vec![true; topology.link_count()];
        let node_up = vec![true; topology.node_count()];
        let link_loss = vec![0.0; topology.link_count()];
        let loss_seq = vec![0; topology.link_count()];
        Network {
            topology,
            cpus,
            links,
            latency_overrides,
            link_msgs,
            link_bytes,
            link_up,
            node_up,
            link_loss,
            loss_seq,
            loss_salt: 0,
        }
    }

    /// The effective one-way latency of `link` (override or base).
    pub fn link_latency(&self, link: LinkId) -> SimDuration {
        self.latency_overrides[link.index()].unwrap_or(self.topology.link(link).latency)
    }

    /// The effective round-trip propagation time of `link`: twice the
    /// current one-way latency, including any degradation override. This is
    /// the value the metrics recorder samples into per-link RTT gauges, so
    /// windowed series show fault-injected latency changes as they happen.
    pub fn link_round_trip(&self, link: LinkId) -> SimDuration {
        self.link_latency(link) * 2
    }

    /// The underlying immutable topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    // ---- fault state -------------------------------------------------------

    /// Applies one fault event: link down or restore, latency degradation,
    /// message loss, node crash or restart. This is the one place a
    /// [`FaultKind`] takes effect. The workload driver calls it as each
    /// scheduled event fires, and the static analyzer replays an episode's
    /// events through it, so both read the same link, node and loss state.
    ///
    /// # Panics
    ///
    /// Panics, naming the index, if the event targets a link or node outside
    /// the topology.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown { link } => self.set_link_up(self.topology.link_at(link), false),
            FaultKind::LinkRestore { link } => self.set_link_up(self.topology.link_at(link), true),
            FaultKind::LinkDegraded { link, factor } => {
                self.scale_link_latency(self.topology.link_at(link), factor);
            }
            FaultKind::MsgLoss { link, probability } => {
                self.set_link_loss(self.topology.link_at(link), probability);
            }
            FaultKind::NodeCrash { node } => self.set_node_up(self.topology.node_at(node), false),
            FaultKind::NodeRestart { node } => self.set_node_up(self.topology.node_at(node), true),
        }
    }

    /// Sets the up/down state of one directed link.
    pub(crate) fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.link_up[link.index()] = up;
    }

    /// Whether `link` is currently delivering messages.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.index()]
    }

    /// Sets the application up/down state of one node.
    pub(crate) fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.node_up[node.index()] = up;
    }

    /// Whether the application process on `node` is up.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// Opens (or with `0.0` closes) a message-loss window on one directed
    /// link: each subsequent send is dropped independently with probability
    /// `probability`, decided by a deterministic counter hash salted with
    /// [`Self::set_loss_salt`].
    pub(crate) fn set_link_loss(&mut self, link: LinkId, probability: f64) {
        self.link_loss[link.index()] = probability.clamp(0.0, 1.0);
    }

    /// The message-loss probability currently set on `link` (0 = lossless).
    pub fn link_loss(&self, link: LinkId) -> f64 {
        self.link_loss[link.index()]
    }

    /// Salt folded into loss draws so distinct experiment seeds see distinct
    /// loss patterns while same-seed replays stay byte-identical.
    pub fn set_loss_salt(&mut self, salt: u64) {
        self.loss_salt = salt;
    }

    /// Whether a message sent on `link` right now is dropped by the active
    /// loss window. Advances the link's loss sequence counter only while a
    /// window is open, so fault-off runs are untouched.
    pub fn message_dropped(&mut self, link: LinkId) -> bool {
        let p = self.link_loss[link.index()];
        if p <= 0.0 {
            return false;
        }
        let seq = self.loss_seq[link.index()];
        self.loss_seq[link.index()] += 1;
        mutsvc_desim::fault::message_lost(self.loss_salt, link.index() as u32, seq, p)
    }

    /// Number of directed links currently down (fault-state telemetry).
    pub fn links_down(&self) -> usize {
        self.link_up.iter().filter(|&&up| !up).count()
    }

    /// Number of nodes currently crashed (fault-state telemetry).
    pub fn nodes_down(&self) -> usize {
        self.node_up.iter().filter(|&&up| !up).count()
    }

    /// Scales the latency of one directed link relative to its *base*
    /// latency (`1.0` restores). Models per-link degradation episodes.
    pub(crate) fn scale_link_latency(&mut self, link: LinkId, factor: f64) {
        let base = self.topology.link(link).latency;
        self.latency_overrides[link.index()] = if factor == 1.0 {
            None
        } else {
            Some(base.mul_f64(factor))
        };
    }

    /// Whether the route `from -> to` is currently free of downed links and
    /// ends at a live node. Transit nodes are not checked: a crashed node's
    /// host keeps forwarding.
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable from `from` in the base topology.
    pub fn path_is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.node_is_up(to)
            && self
                .route(from, to)
                .iter()
                .all(|&l| self.link_up[l.index()])
    }

    /// Admits `demand` of CPU work on `node` at time `now`; returns the
    /// completion time. The demand is scaled by the node's relative speed.
    pub fn cpu(&mut self, now: SimTime, node: NodeId, demand: SimDuration) -> SimTime {
        if demand.is_zero() {
            return now;
        }
        let speed = self.topology.node(node).speed;
        let scaled = demand.mul_f64(1.0 / speed);
        self.cpus[node.index()].admit(now, scaled)
    }

    /// The route from `from` to `to`, borrowed from the topology's route
    /// table (built on the first query).
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable from `from`.
    pub fn route(&self, from: NodeId, to: NodeId) -> &[LinkId] {
        self.topology
            .route(from, to)
            .unwrap_or_else(|| panic!("no route {from} -> {to}"))
    }

    /// Serializes `bytes` onto directed link `link` at `now` and returns the
    /// arrival time at the link's far end (serialization queueing plus
    /// propagation latency).
    pub fn link_send(&mut self, now: SimTime, link: LinkId, bytes: u64) -> SimTime {
        let spec = self.topology.link(link);
        let serialization = spec.serialization_time(bytes);
        let latency = self.link_latency(link);
        let sent = self.links[link.index()].admit(now, serialization);
        self.link_msgs[link.index()] += 1;
        self.link_bytes[link.index()] += bytes;
        sent + latency
    }

    /// Sends `bytes` from `from` to `to` starting at `now`; returns the
    /// arrival time at `to`. A transfer to self arrives immediately.
    ///
    /// All hop admissions happen at call time, through [`Self::link_send`]
    /// hop by hop, so a long-latency path reserves far-hop link slots "in the
    /// future". This is fine for one-shot estimates and tests; the
    /// event-driven job executor instead calls [`Self::link_send`] for each
    /// hop at its actual time, keeping link admissions chronological under
    /// load.
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable from `from`.
    pub fn transfer(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        if from == to {
            return now;
        }
        let mut t = now;
        for hop in 0..self.route(from, to).len() {
            let link = self.route(from, to)[hop];
            t = self.link_send(t, link, bytes);
        }
        t
    }

    /// One round trip of `req_bytes` / `resp_bytes` between `a` and `b`;
    /// returns the time the response arrives back at `a`.
    pub fn round_trip(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> SimTime {
        let there = self.transfer(now, a, b, req_bytes);
        self.transfer(there, b, a, resp_bytes)
    }

    /// Bulk state transfer for a live component migration: a small control
    /// handshake (one round trip of [`Self::MIGRATION_HANDSHAKE_BYTES`])
    /// followed by `bytes` of component state pushed `from -> to`, occupying
    /// each hop's serialization queue like any other traffic. Returns the
    /// time the state is fully installed at `to`; a migration to the current
    /// host is free.
    pub fn migrate(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        if from == to {
            return now;
        }
        let acked = self.round_trip(
            now,
            from,
            to,
            Self::MIGRATION_HANDSHAKE_BYTES,
            Self::MIGRATION_HANDSHAKE_BYTES,
        );
        self.transfer(acked, from, to, bytes)
    }

    /// Control-plane payload of the migration handshake round trip.
    pub const MIGRATION_HANDSHAKE_BYTES: u64 = 512;

    /// CPU utilization of `node` over `[first admission, horizon]`.
    pub fn cpu_utilization(&self, node: NodeId, horizon: SimTime) -> f64 {
        self.cpus[node.index()].utilization(horizon)
    }

    /// Jobs admitted at `node`'s CPU.
    pub fn cpu_jobs(&self, node: NodeId) -> u64 {
        self.cpus[node.index()].jobs_admitted()
    }

    /// `(messages, payload bytes)` serialized onto directed link `link`
    /// since the last [`Self::reset_stats`]: every [`Self::link_send`],
    /// whether the job executor's hop or one of a [`Self::transfer`],
    /// [`Self::round_trip`] or [`Self::migrate`].
    pub fn link_traffic(&self, link: LinkId) -> (u64, u64) {
        (self.link_msgs[link.index()], self.link_bytes[link.index()])
    }

    /// Clears accumulated statistics (not occupancy) on all resources.
    /// Called when discarding warm-up measurements.
    pub fn reset_stats(&mut self) {
        for r in &mut self.cpus {
            r.reset_stats();
        }
        for r in &mut self.links {
            r.reset_stats();
        }
        for m in &mut self.link_msgs {
            *m = 0;
        }
        for b in &mut self.link_bytes {
            *b = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn wan_pair() -> (Network, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a", 2);
        let r = b.node("router", 4);
        let c = b.node("c", 2);
        // 12_500_000 bytes/s = 12.5 bytes/us so serialization is visible.
        b.duplex_link(a, r, ms(10), 100e6);
        b.duplex_link(r, c, ms(90), 100e6);
        (Network::new(b.finalize()), a, c)
    }

    #[test]
    fn transfer_accumulates_latency_and_serialization() {
        let (mut net, a, c) = wan_pair();
        // 12_500 bytes = 1 ms serialization per hop at 100 Mbit/s.
        let arrival = net.transfer(SimTime::ZERO, a, c, 12_500);
        // 1ms + 10ms + 1ms + 90ms = 102 ms.
        assert_eq!(arrival, at(102));
    }

    #[test]
    fn transfer_to_self_is_free() {
        let (mut net, a, _) = wan_pair();
        assert_eq!(net.transfer(at(5), a, a, 1_000_000), at(5));
    }

    #[test]
    fn round_trip_is_two_transfers() {
        let (mut net, a, c) = wan_pair();
        let back = net.round_trip(SimTime::ZERO, a, c, 0, 0);
        assert_eq!(back, at(200));
    }

    #[test]
    fn link_contention_queues_transfers() {
        let (mut net, a, c) = wan_pair();
        // Two large messages issued at t=0 share the a->router link.
        let first = net.transfer(SimTime::ZERO, a, c, 125_000); // 10ms serialization/hop
        let second = net.transfer(SimTime::ZERO, a, c, 125_000);
        assert_eq!(first, at(120)); // 10 + 10 + 10 + 90
                                    // Second waits 10ms for the first on hop 1; and 10 more on hop 2 (the
                                    // first message still owns it when the second arrives).
        assert!(second > first);
    }

    #[test]
    fn cpu_respects_node_speed() {
        let mut b = TopologyBuilder::new();
        let slow = b.node_with_speed("slow", 1, 0.5);
        let fast = b.node_with_speed("fast", 1, 2.0);
        b.duplex_link(slow, fast, ms(1), 1e9);
        let mut net = Network::new(b.finalize());
        assert_eq!(net.cpu(SimTime::ZERO, slow, ms(10)), at(20));
        assert_eq!(net.cpu(SimTime::ZERO, fast, ms(10)), at(5));
    }

    #[test]
    fn zero_demand_cpu_is_instant() {
        let (mut net, a, _) = wan_pair();
        assert_eq!(net.cpu(at(3), a, SimDuration::ZERO), at(3));
        assert_eq!(net.cpu_jobs(a), 0);
    }

    #[test]
    fn fault_state_defaults_to_healthy() {
        let (net, a, c) = wan_pair();
        assert!(net.link_is_up(net.route(a, c)[0]));
        assert!(net.node_is_up(c));
        assert!(net.path_is_up(a, c));
        assert_eq!(net.links_down(), 0);
        assert_eq!(net.nodes_down(), 0);
    }

    #[test]
    fn downed_link_breaks_the_path_until_restored() {
        let (mut net, a, c) = wan_pair();
        let wan = net.route(a, c)[1];
        net.set_link_up(wan, false);
        assert!(!net.path_is_up(a, c));
        assert_eq!(net.links_down(), 1);
        // The reverse direction is a distinct directed link and stays up.
        assert!(net.path_is_up(c, a));
        net.set_link_up(wan, true);
        assert!(net.path_is_up(a, c));
    }

    #[test]
    fn crashed_destination_breaks_the_path_but_not_transit() {
        let (mut net, a, c) = wan_pair();
        let router = net.topology().node_by_name("router").unwrap();
        net.set_node_up(router, false);
        // The router process is down, but it still forwards: a -> c is fine.
        assert!(net.path_is_up(a, c));
        assert!(!net.path_is_up(a, router));
        net.set_node_up(c, false);
        assert!(!net.path_is_up(a, c));
        assert_eq!(net.nodes_down(), 2);
    }

    #[test]
    fn loss_window_drops_deterministically_and_only_while_open() {
        let (mut net, a, c) = wan_pair();
        let link = net.route(a, c)[0];
        net.set_loss_salt(42);
        // Closed window: nothing dropped, counter untouched.
        for _ in 0..8 {
            assert!(!net.message_dropped(link));
        }
        net.set_link_loss(link, 0.5);
        let pattern: Vec<bool> = (0..64).map(|_| net.message_dropped(link)).collect();
        assert!(pattern.iter().any(|&d| d) && pattern.iter().any(|&d| !d));
        // Same salt and a fresh network replays the same pattern.
        let (mut net2, a2, c2) = wan_pair();
        let link2 = net2.route(a2, c2)[0];
        net2.set_loss_salt(42);
        net2.set_link_loss(link2, 0.5);
        let replay: Vec<bool> = (0..64).map(|_| net2.message_dropped(link2)).collect();
        assert_eq!(pattern, replay);
        net.set_link_loss(link, 0.0);
        assert!(!net.message_dropped(link));
    }

    #[test]
    fn per_link_degradation_scales_and_restores() {
        let (mut net, a, c) = wan_pair();
        let wan = net.route(a, c)[1]; // 90 ms base leg
        net.scale_link_latency(wan, 3.0);
        assert_eq!(net.link_latency(wan), ms(270));
        net.scale_link_latency(wan, 1.0);
        assert_eq!(net.link_latency(wan), ms(90));
    }

    #[test]
    fn each_fault_kind_reaches_its_state() {
        let (mut net, a, c) = wan_pair();
        let wan = net.route(a, c)[1]; // 90 ms base leg
        let link = wan.index() as u32;
        let node = c.index() as u32;
        net.apply_fault(FaultKind::LinkDown { link });
        assert!(!net.link_is_up(wan));
        net.apply_fault(FaultKind::LinkDegraded { link, factor: 2.0 });
        assert_eq!(net.link_latency(wan), ms(180));
        assert!(!net.link_is_up(wan), "degradation does not revive the link");
        net.apply_fault(FaultKind::LinkRestore { link });
        assert!(net.link_is_up(wan));
        net.apply_fault(FaultKind::LinkDegraded { link, factor: 1.0 });
        assert_eq!(net.link_latency(wan), ms(90));
        net.apply_fault(FaultKind::MsgLoss {
            link,
            probability: 0.25,
        });
        assert_eq!(net.link_loss(wan), 0.25);
        net.apply_fault(FaultKind::MsgLoss {
            link,
            probability: 0.0,
        });
        assert_eq!(net.link_loss(wan), 0.0);
        net.apply_fault(FaultKind::NodeCrash { node });
        assert!(!net.node_is_up(c));
        net.apply_fault(FaultKind::NodeRestart { node });
        assert!(net.node_is_up(c));
        assert_eq!((net.links_down(), net.nodes_down()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "link index 4 outside")]
    fn fault_on_an_unknown_link_panics() {
        let (mut net, _, _) = wan_pair();
        net.apply_fault(FaultKind::LinkDown { link: 4 });
    }

    #[test]
    #[should_panic(expected = "node index 3 outside")]
    fn fault_on_an_unknown_node_panics() {
        let (mut net, _, _) = wan_pair();
        net.apply_fault(FaultKind::NodeCrash { node: 3 });
    }

    #[test]
    fn migration_pays_handshake_then_bulk_transfer() {
        let (mut net, a, c) = wan_pair();
        assert_eq!(
            net.migrate(at(5), a, a, 1_000_000),
            at(5),
            "self-migration is free"
        );
        let small = net.migrate(SimTime::ZERO, a, c, 12_500);
        // Lower bound: handshake RTT (200 ms propagation) + one-way bulk
        // (100 ms propagation + 1 ms serialization per hop).
        assert!(small >= at(302), "migration finished too early: {small:?}");
        // More state takes strictly longer on a fresh network.
        let (mut net2, a2, c2) = wan_pair();
        let big = net2.migrate(SimTime::ZERO, a2, c2, 1_250_000);
        assert!(big > small, "bulk size must price the transfer: {big:?}");
    }

    /// A migration's handshake and state transfer are link traffic: each
    /// forward link carries the handshake request and the state, each
    /// return link the handshake response, with their bytes.
    #[test]
    fn migration_counts_as_link_traffic() {
        let (mut net, a, c) = wan_pair();
        let state = 1_250_000;
        net.migrate(SimTime::ZERO, a, c, state);
        let handshake = Network::MIGRATION_HANDSHAKE_BYTES;
        for &link in net.route(a, c) {
            assert_eq!(net.link_traffic(link), (2, handshake + state));
        }
        for &link in net.route(c, a) {
            assert_eq!(net.link_traffic(link), (1, handshake));
        }
    }

    #[test]
    fn utilization_reported_per_node() {
        let (mut net, a, c) = wan_pair();
        net.cpu(SimTime::ZERO, a, ms(50));
        let u = net.cpu_utilization(a, at(100));
        assert!(
            (u - 0.25).abs() < 1e-9,
            "dual cpu, 50ms busy over 100ms: {u}"
        );
        assert_eq!(net.cpu_utilization(c, at(100)), 0.0);
    }
}
