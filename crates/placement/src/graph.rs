//! Component interaction graphs and placement problems.
//!
//! The paper hand-derives its deployments; §5 and §7 argue that containers
//! should wire the patterns automatically from declarative information. This
//! module provides the data model an automatic deployer needs: components
//! with pinning/replication attributes, weighted interaction edges (call
//! rates and payload sizes), hosts with entry shares, and a wide-area cost
//! model over candidate placements.

use std::collections::BTreeSet;

use petgraph::graph::{DiGraph, NodeIndex};
use serde::{Deserialize, Serialize};

/// Identifies a host in a [`PlacementProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A candidate host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Host name ("main", "edge1", …).
    pub name: String,
    /// Fraction of client traffic entering at this host (entry components
    /// are implicitly instantiated wherever this is positive).
    pub entry_share: f64,
    /// CPU capacity in milliseconds of service per second (`f64::INFINITY`
    /// to ignore).
    pub cpu_capacity: f64,
}

/// The role of a component in placement decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Client-facing entry tier: implicitly present at every entry host.
    Entry,
    /// Per-client conversational state: freely movable and instantiable per
    /// server (never shared, so "replication" is free).
    Session,
    /// Stateless service/façade: freely movable and replicable.
    Stateless,
    /// Shared read-mostly state: one read-write primary, read-only replicas
    /// allowed at a consistency (push) cost.
    Entity,
    /// Pinned authoritative state that must not be replicated: the database
    /// itself, and security- or transaction-critical entities (the paper
    /// keeps `SignOn`, `Order`, `Account` strictly at the main server).
    Database,
}

impl Role {
    /// Whether read-only replicas of this role are meaningful.
    pub fn replicable(self) -> bool {
        matches!(self, Role::Session | Role::Stateless | Role::Entity)
    }
}

/// A component vertex.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// Placement role.
    pub role: Role,
    /// Primary pinned to a host (`Database` components must be pinned).
    pub pinned: Option<HostId>,
    /// CPU demand in milliseconds per invocation (capacity accounting).
    pub cpu_ms_per_call: f64,
    /// Writes per second against this component's state (drives the
    /// replication consistency cost).
    pub write_rate: f64,
}

/// A weighted interaction edge (caller → callee).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Interaction {
    /// Invocations per second (aggregated over the whole workload).
    pub calls_per_sec: f64,
    /// Mean payload per call (arguments + results), bytes.
    pub bytes_per_call: f64,
    /// Write-path traffic: always executes against the endpoints'
    /// *primaries* (read-only replicas never absorb writes).
    pub write_path: bool,
}

/// The component interaction graph.
#[derive(Debug, Clone, Default)]
pub struct ComponentGraph {
    /// The underlying petgraph structure.
    pub graph: DiGraph<Component, Interaction>,
}

impl ComponentGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component.
    pub fn add(&mut self, component: Component) -> NodeIndex {
        self.graph.add_node(component)
    }

    /// Adds (or accumulates onto) a read-path interaction edge.
    pub fn interact(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        calls_per_sec: f64,
        bytes_per_call: f64,
    ) {
        self.interact_kind(from, to, calls_per_sec, bytes_per_call, false);
    }

    /// Adds (or accumulates onto) a write-path interaction edge.
    pub fn interact_write(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        calls_per_sec: f64,
        bytes_per_call: f64,
    ) {
        self.interact_kind(from, to, calls_per_sec, bytes_per_call, true);
    }

    fn interact_kind(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        calls_per_sec: f64,
        bytes_per_call: f64,
        write_path: bool,
    ) {
        let existing = self
            .graph
            .edges_connecting(from, to)
            .find(|e| e.weight().write_path == write_path)
            .map(|e| e.id());
        if let Some(edge) = existing {
            let w = self.graph.edge_weight_mut(edge).expect("edge exists");
            let total = w.calls_per_sec + calls_per_sec;
            if total > 0.0 {
                w.bytes_per_call =
                    (w.bytes_per_call * w.calls_per_sec + bytes_per_call * calls_per_sec) / total;
            }
            w.calls_per_sec = total;
        } else {
            self.graph.add_edge(
                from,
                to,
                Interaction {
                    calls_per_sec,
                    bytes_per_call,
                    write_path,
                },
            );
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// `true` when the graph has no components.
    pub fn is_empty(&self) -> bool {
        self.graph.node_count() == 0
    }

    /// Looks a component up by name.
    pub fn by_name(&self, name: &str) -> Option<NodeIndex> {
        self.graph
            .node_indices()
            .find(|&i| self.graph[i].name == name)
    }

    /// Aggregate invocation rate into `node` (reads, roughly).
    pub fn read_rate(&self, node: NodeIndex) -> f64 {
        self.graph
            .edges_directed(node, petgraph::Direction::Incoming)
            .map(|e| e.weight().calls_per_sec)
            .sum()
    }
}

/// A complete placement problem.
#[derive(Debug, Clone)]
pub struct PlacementProblem {
    /// Candidate hosts.
    pub hosts: Vec<Host>,
    /// Symmetric round-trip times between hosts, milliseconds.
    pub rtt_ms: Vec<Vec<f64>>,
    /// The interaction graph.
    pub graph: ComponentGraph,
    /// Cost model parameters.
    pub params: CostParams,
}

/// Wide-area communication cost parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostParams {
    /// Mean round trips per remote invocation (RMI chattiness; the paper's
    /// stacks measure ≈1.65 and ≈1.35).
    pub rmi_round_trips: f64,
    /// Mean round trips per consistency push to one replica.
    pub push_round_trips: f64,
    /// Bytes pushed per write per replica.
    pub push_bytes: f64,
    /// Link bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// Penalty (ms/s) per unit of CPU overload beyond a host's capacity.
    pub overload_penalty: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            rmi_round_trips: 1.65,
            push_round_trips: 1.65,
            push_bytes: 400.0,
            bandwidth_bps: 100e6,
            overload_penalty: 10_000.0,
        }
    }
}

impl PlacementProblem {
    /// Validates basic consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the host matrix is malformed, a pinned
    /// component references an unknown host, or a database component is not
    /// pinned.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts.is_empty() {
            return Err("no hosts".into());
        }
        if self.rtt_ms.len() != self.hosts.len()
            || self.rtt_ms.iter().any(|row| row.len() != self.hosts.len())
        {
            return Err("rtt matrix shape mismatch".into());
        }
        for (i, row) in self.rtt_ms.iter().enumerate() {
            if row[i] != 0.0 {
                return Err(format!("rtt[{i}][{i}] must be zero"));
            }
        }
        for node in self.graph.graph.node_indices() {
            let c = &self.graph.graph[node];
            if let Some(HostId(h)) = c.pinned {
                if h >= self.hosts.len() {
                    return Err(format!("component {} pinned to unknown host", c.name));
                }
            }
            if c.role == Role::Database && c.pinned.is_none() {
                return Err(format!("database component {} must be pinned", c.name));
            }
        }
        let share: f64 = self.hosts.iter().map(|h| h.entry_share).sum();
        if (share - 1.0).abs() > 1e-6 {
            return Err(format!("entry shares sum to {share}, expected 1"));
        }
        Ok(())
    }

    /// The communication cost (ms) of one remote interaction of `bytes`.
    pub fn comm_ms(&self, a: HostId, b: HostId, bytes: f64, round_trips: f64) -> f64 {
        if a == b {
            return 0.0;
        }
        self.rtt_ms[a.0][b.0] * round_trips + bytes * 8.0 / self.params.bandwidth_bps * 1_000.0
    }
}

/// A candidate deployment: a primary host per component and optional
/// read-only replica sets, indexed by `NodeIndex`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Primary host per component (node-index order).
    pub primary: Vec<HostId>,
    /// Replica hosts per component (excluding the primary).
    pub replicas: Vec<BTreeSet<HostId>>,
}

impl Placement {
    /// Places every component on `host` with no replicas.
    pub fn all_on(problem: &PlacementProblem, host: HostId) -> Placement {
        let n = problem.graph.len();
        let mut p = Placement {
            primary: vec![host; n],
            replicas: vec![BTreeSet::new(); n],
        };
        p.repair_pins(problem);
        p
    }

    /// Forces pinned components back onto their pinned hosts.
    pub fn repair_pins(&mut self, problem: &PlacementProblem) {
        for node in problem.graph.graph.node_indices() {
            if let Some(host) = problem.graph.graph[node].pinned {
                self.primary[node.index()] = host;
                self.replicas[node.index()].remove(&host);
            }
        }
    }

    /// The serving location of `node` for traffic originating at `origin`:
    /// entry components follow the origin; replicated components serve from
    /// a co-located replica when one exists.
    pub fn location(&self, problem: &PlacementProblem, node: NodeIndex, origin: HostId) -> HostId {
        let c = &problem.graph.graph[node];
        if c.role == Role::Entry {
            return origin;
        }
        let idx = node.index();
        if self.primary[idx] == origin || self.replicas[idx].contains(&origin) {
            origin
        } else {
            self.primary[idx]
        }
    }

    /// Whether the placement respects every pin.
    pub fn respects_pins(&self, problem: &PlacementProblem) -> bool {
        problem.graph.graph.node_indices().all(|node| {
            problem.graph.graph[node]
                .pinned
                .is_none_or(|h| self.primary[node.index()] == h)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (PlacementProblem, NodeIndex, NodeIndex, NodeIndex) {
        let mut g = ComponentGraph::new();
        let web = g.add(Component {
            name: "web".into(),
            role: Role::Entry,
            pinned: None,
            cpu_ms_per_call: 5.0,
            write_rate: 0.0,
        });
        let svc = g.add(Component {
            name: "svc".into(),
            role: Role::Stateless,
            pinned: None,
            cpu_ms_per_call: 2.0,
            write_rate: 0.0,
        });
        let db = g.add(Component {
            name: "db".into(),
            role: Role::Database,
            pinned: Some(HostId(0)),
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        g.interact(web, svc, 10.0, 500.0);
        g.interact(svc, db, 10.0, 300.0);
        let problem = PlacementProblem {
            hosts: vec![
                Host {
                    name: "main".into(),
                    entry_share: 0.4,
                    cpu_capacity: f64::INFINITY,
                },
                Host {
                    name: "edge".into(),
                    entry_share: 0.6,
                    cpu_capacity: f64::INFINITY,
                },
            ],
            rtt_ms: vec![vec![0.0, 200.0], vec![200.0, 0.0]],
            graph: g,
            params: CostParams::default(),
        };
        (problem, web, svc, db)
    }

    #[test]
    fn validation_passes_and_catches_errors() {
        let (mut p, _, _, db) = tiny();
        assert!(p.validate().is_ok());
        p.graph.graph[db].pinned = None;
        assert!(p.validate().unwrap_err().contains("pinned"));
        p.graph.graph[db].pinned = Some(HostId(9));
        assert!(p.validate().unwrap_err().contains("unknown host"));
    }

    #[test]
    fn interactions_accumulate() {
        let (p, web, svc, _) = tiny();
        let mut g = p.graph.clone();
        g.interact(web, svc, 10.0, 100.0);
        let e = g.graph.find_edge(web, svc).unwrap();
        let w = g.graph[e];
        assert!((w.calls_per_sec - 20.0).abs() < 1e-9);
        assert!((w.bytes_per_call - 300.0).abs() < 1e-9);
        assert!((g.read_rate(svc) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn locations_respect_entry_and_replicas() {
        let (p, web, svc, db) = tiny();
        let mut placement = Placement::all_on(&p, HostId(0));
        // Entry follows the origin.
        assert_eq!(placement.location(&p, web, HostId(1)), HostId(1));
        // Unreplicated service serves from its primary.
        assert_eq!(placement.location(&p, svc, HostId(1)), HostId(0));
        // A replica at the edge serves edge traffic locally.
        placement.replicas[svc.index()].insert(HostId(1));
        assert_eq!(placement.location(&p, svc, HostId(1)), HostId(1));
        assert_eq!(placement.location(&p, svc, HostId(0)), HostId(0));
        // Database pinned.
        assert_eq!(placement.location(&p, db, HostId(1)), HostId(0));
        assert!(placement.respects_pins(&p));
    }

    #[test]
    fn comm_cost_is_zero_locally() {
        let (p, ..) = tiny();
        assert_eq!(p.comm_ms(HostId(0), HostId(0), 1e6, 2.0), 0.0);
        let remote = p.comm_ms(HostId(0), HostId(1), 12_500.0, 1.65);
        assert!((remote - (330.0 + 1.0)).abs() < 0.1, "{remote}");
    }

    #[test]
    fn repair_pins_moves_database_back() {
        let (p, _, _, db) = tiny();
        let mut placement = Placement::all_on(&p, HostId(1));
        assert_eq!(placement.primary[db.index()], HostId(0));
        placement.primary[db.index()] = HostId(1);
        placement.repair_pins(&p);
        assert_eq!(placement.primary[db.index()], HostId(0));
    }
}
