//! Closed-loop adaptive placement: telemetry in, migrations out.
//!
//! The paper's deployment descriptors are chosen *offline* against a static
//! cost model. This module closes the loop at run time: the controller
//! subscribes to the engine's windowed telemetry (per-link WAN round trips,
//! per-page response histograms — see the metrics pipeline in the driver),
//! re-prices the placement problem with the *observed* link latencies via
//! [`reprice_matrix`], and runs one round of the planner's best-improvement
//! climb ([`greedy::climb`] over a [`CostEvaluator`]) across
//! single-component primary moves and replica additions. The best move, if
//! it clears the hysteresis gate, becomes a typed migration order the
//! driver turns into a mid-run component move (state transfer over the
//! WAN, cold caches at the destination — the fault machinery's
//! crash/restart semantics, reused).
//!
//! The run's spec sets one value, the round cadence
//! ([`AdaptiveSettings`](crate::spec::AdaptiveSettings)). The rest of the
//! policy is constants: at most one move per round, a 5 % hysteresis gate,
//! a cooldown of two cadences and 4 MiB of state per transfer.
//!
//! Determinism: a controller round is a pure function of the observed
//! telemetry rows and the controller's own committed history — no RNG, no
//! wall clock, and iteration in (component, host) index order with
//! strict-improvement tie-breaks. Its one host is the sequential driver,
//! which runs rounds from an internal tick event.

use mutsvc_middleware::{ComponentId, ComponentRegistry, DeploymentDescriptor};
use mutsvc_netsim::{NodeId, Topology};
use mutsvc_placement::algorithms::greedy;
use mutsvc_placement::derive::{petstore_problem, rubis_problem};
use mutsvc_placement::wan::{host_matrix, reprice_matrix};
use mutsvc_placement::{CostEvaluator, HostId, Move, NodeIndex, Placement, PlacementProblem, Role};

use mutsvc_apps::App;
use mutsvc_desim::time::{SimDuration, SimTime};

use crate::spec::WorkloadSpec;

/// Hysteresis: a round only commits a move whose modeled cost gain is at
/// least this fraction of the current total cost, so telemetry noise cannot
/// thrash components back and forth.
const HYSTERESIS_PCT: f64 = 0.05;

/// After migrating, a component sits out of the search for this many round
/// cadences.
const COOLDOWN_CADENCES: u64 = 2;

/// Serialized component state size in bytes: prices the migration transfer
/// that occupies the WAN link between old and new primary.
pub(crate) const STATE_BYTES: u64 = 4 << 20;

/// What the controller sees at one decision point: the freshest closed
/// telemetry window, reduced to the model's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveObs {
    /// Observed one-way latency (ms) per directed topology link, `None`
    /// where telemetry tracks no series for the link (sub-WAN links fall
    /// back to their static latency when re-pricing).
    pub one_way_ms: Vec<Option<f64>>,
    /// Telemetry windows closed so far.
    pub windows: u64,
    /// Median response time (ms) pooled over every page histogram in the
    /// freshest window (0 when the window saw no completions). Logged for
    /// the cost trajectory; decisions use link and demand observations.
    pub p50_ms: f64,
    /// Cumulative issued requests per client group (aligned with
    /// `spec.groups`) over every closed window — the offered-demand signal
    /// that lets the controller reweight entry shares when a flash crowd
    /// shifts traffic between sites.
    pub group_issued: Vec<u64>,
}

/// The runtime shape of one migration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Re-home the component's primary at `to` (a replica already there is
    /// absorbed).
    Primary,
    /// Add a read-only replica at `to`; the primary stays put.
    Replica,
}

/// One migration the controller ordered for `component`, transferring state
/// from `from` to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationOrder {
    /// The runtime component to move.
    pub component: ComponentId,
    /// Its registry name (for logs and reports).
    pub name: String,
    /// Primary re-homing or replica addition.
    pub kind: MoveKind,
    /// The node the state transfer leaves from (the current primary).
    pub from: NodeId,
    /// The node gaining the primary or replica.
    pub to: NodeId,
    /// Modeled steady-state cost reduction (ms/s of aggregate waiting).
    pub modeled_gain: f64,
}

/// One controller decision point, committed moves or not.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Simulated decision time.
    pub at: SimTime,
    /// Telemetry windows observed by this round.
    pub windows: u64,
    /// Modeled cost (ms/s) under observed latencies before the round's moves.
    pub cost_before: f64,
    /// Modeled cost after the round's committed moves.
    pub cost_after: f64,
    /// Observed pooled median response time (ms) in the freshest window.
    pub observed_p50_ms: f64,
    /// Moves committed this round.
    pub moves: u32,
}

/// One committed migration, as logged.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// When the controller decided the move (transfer delay comes on top).
    pub decided_at: SimTime,
    /// Component name.
    pub component: String,
    /// Primary re-homing or replica addition.
    pub kind: MoveKind,
    /// Source node name.
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// Modeled steady-state gain (ms/s).
    pub modeled_gain: f64,
}

/// The controller's full decision log, attached to the experiment report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdaptiveData {
    /// Every decision point, in time order.
    pub rounds: Vec<RoundRecord>,
    /// Every committed migration, in decision order.
    pub migrations: Vec<MigrationRecord>,
}

/// The live-migration controller.
///
/// Holds the placement model (the paper's derived component graph, rehosted
/// onto the run's candidate nodes), a mirror of the current placement, and
/// per-component cooldown state. [`round`](Controller::round) is the only
/// entry point; it never touches simulation state.
#[derive(Debug)]
pub struct Controller {
    /// How long a moved component sits out: `COOLDOWN_CADENCES` rounds.
    cooldown: SimDuration,
    topology: Topology,
    problem: PlacementProblem,
    /// `HostId` index → topology node backing that host.
    hosts: Vec<NodeId>,
    /// Graph node → runtime component (None for pseudo-components such as
    /// the database, or model components absent from this run's registry).
    node_component: Vec<Option<ComponentId>>,
    /// Per graph node: whether it is an unpinned, non-Entry node with a
    /// runtime counterpart. (Entry-role components are priced at the origin
    /// by the model — the runtime mirrors this by requiring the web facade
    /// on every entry node — so moving them is meaningless.)
    movable: Vec<bool>,
    /// Client group index → candidate-host index of its entry node.
    group_host: Vec<usize>,
    /// Mirror of the descriptor-level placement, in model terms.
    placement: Placement,
    /// Per graph node: no further moves before this time.
    cooldown_until: Vec<SimTime>,
    /// The best single-move gain under *static* pricing at construction:
    /// the static model's disagreement with the deployed descriptor. Moves
    /// must beat this floor (with margin), so the controller corrects
    /// *observed drift* only — re-optimizing a freshly deployed system
    /// under nominal conditions is the offline search's job, not the
    /// control loop's.
    drift_floor: f64,
    data: AdaptiveData,
}

/// The margin a move's gain must clear over the construction-time drift
/// floor before the controller treats it as observed drift rather than
/// static modeling disagreement.
const DRIFT_MARGIN: f64 = 1.25;

/// The controller's candidate moves of one component, in probe order for
/// [`greedy::climb`]: none unless the node is movable and out of cooldown
/// at `now`; otherwise, for each other host in index order, re-homing the
/// primary there and then adding a replica there when it has none. The
/// climb's strict `<` keeps ties on the first candidate. Replica drops are
/// left to the offline search: they never pay mid-run in our episodes and
/// halve the runtime surface the driver must support.
fn candidates<'a>(
    movable: &'a [bool],
    cooldown_until: &'a [SimTime],
    now: SimTime,
    hosts: usize,
) -> impl Fn(&CostEvaluator, NodeIndex, &mut Vec<Move>) + 'a {
    move |eval, node, out| {
        if !movable[node.index()] || cooldown_until[node.index()] > now {
            return;
        }
        let from = eval.primary_of(node);
        for to in (0..hosts).map(HostId).filter(|&h| h != from) {
            out.push(Move::MovePrimary { node, to });
            if !eval.has_replica(node, to) {
                out.push(Move::AddReplica { node, host: to });
            }
        }
    }
}

impl Controller {
    /// Builds the controller for a run: derives the application's placement
    /// problem (the same §5 derivation the offline search uses), re-hosts it
    /// onto the run's candidate nodes, and mirrors the descriptor's current
    /// placement into model terms.
    ///
    /// Candidate hosts are the descriptor's central node plus every node
    /// already hosting a primary or replica and every client group's entry
    /// node — the nodes the deployment actually spans. Entry shares follow
    /// the groups' offered request rates.
    ///
    /// Model components are matched to the run's registry *by name*;
    /// pseudo-components (the database) and names absent from this run stay
    /// pinned to the central host and are never moved.
    pub fn new(
        app: &App,
        registry: &ComponentRegistry,
        descriptor: &DeploymentDescriptor,
        topology: &Topology,
        spec: &WorkloadSpec,
    ) -> Controller {
        let template = match app {
            App::PetStore(_) => petstore_problem().0,
            App::Rubis(_) => rubis_problem().0,
        };

        // Candidate hosts: central first (model pins reference HostId(0)),
        // then every deployed/entry node in ascending node-index order.
        let mut hosts = vec![descriptor.central_node];
        let mut tail: Vec<NodeId> = Vec::new();
        let note = |n: NodeId, tail: &mut Vec<NodeId>| {
            if n != descriptor.central_node && !tail.contains(&n) {
                tail.push(n);
            }
        };
        for placement in descriptor.placements.values() {
            note(placement.primary, &mut tail);
            for &r in &placement.replicas {
                note(r, &mut tail);
            }
        }
        for group in &spec.groups {
            note(group.entry_node, &mut tail);
        }
        tail.sort_by_key(|n| n.index());
        hosts.extend(tail);

        // Entry shares follow each group's share of the offered load.
        let total_rate: f64 = spec
            .groups
            .iter()
            .map(|g| g.browser_rate + g.transactional_rate)
            .sum();
        let mut shares = vec![0.0; hosts.len()];
        if total_rate > 0.0 {
            for group in &spec.groups {
                let h = hosts
                    .iter()
                    .position(|&n| n == group.entry_node)
                    .expect("entry node is a candidate host");
                shares[h] += (group.browser_rate + group.transactional_rate) / total_rate;
            }
        } else {
            shares[0] = 1.0;
        }
        let host_list: Vec<mutsvc_placement::Host> = hosts
            .iter()
            .zip(&shares)
            .map(|(&n, &share)| mutsvc_placement::Host {
                name: topology.node(n).name.clone(),
                entry_share: share,
                cpu_capacity: f64::INFINITY,
            })
            .collect();
        let matrix = host_matrix(topology, &hosts);
        let problem = mutsvc_placement::wan::rehost(&template, host_list, matrix);

        // Match model components to the run's registry by name and mirror
        // the descriptor's placement; unmatched or pinned nodes sit at the
        // central host, immobile.
        let host_of =
            |n: NodeId| -> Option<HostId> { hosts.iter().position(|&h| h == n).map(HostId) };
        let n_nodes = problem.graph.len();
        let mut node_component = vec![None; n_nodes];
        let mut movable = vec![false; n_nodes];
        let mut placement = Placement::all_on(&problem, HostId(0));
        for node in problem.graph.graph.node_indices() {
            let model = &problem.graph.graph[node];
            let Some(component) = registry.by_name(&model.name) else {
                continue;
            };
            let Some(deployed) = descriptor.placements.get(&component) else {
                continue;
            };
            node_component[node.index()] = Some(component);
            if model.pinned.is_none() && model.role != Role::Entry {
                movable[node.index()] = true;
            }
            if let Some(h) = host_of(deployed.primary) {
                placement.primary[node.index()] = h;
            }
            for &replica in &deployed.replicas {
                if let Some(h) = host_of(replica) {
                    placement.replicas[node.index()].insert(h);
                }
            }
            let primary = placement.primary[node.index()];
            placement.replicas[node.index()].remove(&primary);
        }
        placement.repair_pins(&problem);

        // The static model rarely agrees *exactly* with the deployed
        // descriptor; measure that disagreement once so rounds can tell it
        // apart from observed drift.
        let zero_cool = vec![SimTime::ZERO; n_nodes];
        let mut probe = CostEvaluator::new(&problem, placement.clone());
        let drift_floor = greedy::climb(
            &mut probe,
            1,
            candidates(&movable, &zero_cool, SimTime::ZERO, problem.hosts.len()),
        )
        .first()
        .map_or(0.0, |&(_, delta)| -delta);

        let group_host = spec
            .groups
            .iter()
            .map(|g| {
                hosts
                    .iter()
                    .position(|&n| n == g.entry_node)
                    .expect("entry node is a candidate host")
            })
            .collect();

        Controller {
            cooldown: spec.adaptive.cadence.unwrap_or(SimDuration::ZERO) * COOLDOWN_CADENCES,
            topology: topology.clone(),
            problem,
            hosts,
            node_component,
            movable,
            group_host,
            placement,
            cooldown_until: vec![SimTime::ZERO; n_nodes],
            drift_floor,
            data: AdaptiveData::default(),
        }
    }

    /// Re-weights the model's entry shares from the cumulative demand
    /// observed so far. A flash crowd at one site shifts its share of the
    /// offered load, which re-prices every origin-weighted interaction
    /// exactly like a latency change does. Cumulative (not windowed) counts
    /// keep the estimate smooth: per-window binomial noise on a few hundred
    /// requests would swing shares enough to defeat the drift floor.
    /// Rounds that observed no requests keep the current weights.
    fn reweight_entry_shares(&mut self, obs: &AdaptiveObs) {
        if obs.group_issued.len() != self.group_host.len() {
            return;
        }
        let mut by_host = vec![0u64; self.problem.hosts.len()];
        let mut total = 0u64;
        for (g, &count) in obs.group_issued.iter().enumerate() {
            by_host[self.group_host[g]] += count;
            total += count;
        }
        if total == 0 {
            return;
        }
        for (host, &count) in self.problem.hosts.iter_mut().zip(&by_host) {
            host.entry_share = count as f64 / total as f64;
        }
    }

    /// One decision round at simulated time `now`: re-price the model with
    /// the observed link latencies, then commit the best single move if its
    /// modeled gain clears both `HYSTERESIS_PCT` of the current total cost
    /// and the construction-time drift floor. A moved component keeps a
    /// cooldown so the loop cannot thrash it back and forth between windows.
    pub fn round(&mut self, now: SimTime, obs: &AdaptiveObs) -> Option<MigrationOrder> {
        self.problem.rtt_ms = reprice_matrix(&self.topology, &self.hosts, &obs.one_way_ms);
        self.reweight_entry_shares(obs);
        let mut eval = CostEvaluator::new(&self.problem, self.placement.clone());
        let cost_before = eval.total();
        let gate =
            (HYSTERESIS_PCT * cost_before.abs().max(1e-9)).max(self.drift_floor * DRIFT_MARGIN);
        // The climb commits its move to `eval`; one that misses the gate is
        // discarded with it, leaving the placement as it was.
        let best = greedy::climb(
            &mut eval,
            1,
            candidates(
                &self.movable,
                &self.cooldown_until,
                now,
                self.problem.hosts.len(),
            ),
        )
        .pop()
        .filter(|&(_, delta)| -delta >= gate);
        let order = best.map(|(mv, delta)| {
            let (node, to, kind) = match mv {
                Move::MovePrimary { node, to } => (node, to, MoveKind::Primary),
                Move::AddReplica { node, host } => (node, host, MoveKind::Replica),
                Move::DropReplica { .. } => unreachable!("drops are never searched"),
            };
            let from = self.placement.primary[node.index()];
            self.cooldown_until[node.index()] = now + self.cooldown;
            let name = self.problem.graph.graph[node].name.clone();
            self.data.migrations.push(MigrationRecord {
                decided_at: now,
                component: name.clone(),
                kind,
                from: self.problem.hosts[from.0].name.clone(),
                to: self.problem.hosts[to.0].name.clone(),
                modeled_gain: -delta,
            });
            MigrationOrder {
                component: self.node_component[node.index()]
                    .expect("movable nodes map to runtime components"),
                name,
                kind,
                from: self.hosts[from.0],
                to: self.hosts[to.0],
                modeled_gain: -delta,
            }
        });

        let cost_after = if order.is_some() {
            self.placement = eval.placement();
            eval.total()
        } else {
            cost_before
        };
        self.data.rounds.push(RoundRecord {
            at: now,
            windows: obs.windows,
            cost_before,
            cost_after,
            observed_p50_ms: obs.p50_ms,
            moves: u32::from(order.is_some()),
        });
        order
    }

    /// Consumes the controller, yielding its decision log.
    pub fn into_data(self) -> AdaptiveData {
        self.data
    }
}
