//! The binder: compiles logical call trees into concrete step programs.
//!
//! This is the container's run-time intelligence the paper argues for in §5:
//! given an application call tree and a deployment descriptor, the binder
//!
//! 1. resolves every invocation to a hosting node (preferring co-located
//!    instances; routing entity writes to the read-write primary),
//! 2. pays RMI/JNDI costs for node-crossing calls (with stub caching),
//! 3. serves entity reads from read-only replica caches when valid, fetching
//!    through the central façade on misses,
//! 4. consults edge query caches for tagged aggregate queries,
//! 5. executes database statements (with the CMP/BMP round-trip distinction),
//!    and
//! 6. wires update propagation after writes: blocking parallel pushes
//!    (§4.3), pull invalidations, or detached JMS fan-out (§4.5) with
//!    deferred state application for staleness accounting.
//!
//! Database mutations are applied at *bind* time, i.e. in request-arrival
//! order rather than at simulated commit instants. The paper's workloads are
//! sized to avoid data contention (§3.4), so this ordering simplification
//! does not alter any measured behaviour.

use mutsvc_desim::rng::SimRng;
use mutsvc_desim::time::SimDuration;
use mutsvc_netsim::{NodeId, ProtocolParams, Step};
use mutsvc_relstore::{Database, Query, RowId, TableId};

use crate::component::{ComponentId, ComponentKind, ComponentRegistry};
use crate::descriptor::{DeploymentDescriptor, UpdatePropagation};
use crate::invocation::{Action, Call, Invoke, MutateAction, PageRequest, QueryAction};
use crate::state::{ContainerState, RowCacheState};

/// CPU cost constants of the container runtime itself.
#[derive(Debug, Clone)]
pub struct ContainerCosts {
    /// Serving a read from an in-memory cache (entity replica or query cache).
    pub cache_hit: SimDuration,
    /// A JNDI lookup at the naming server.
    pub jndi_lookup: SimDuration,
    /// Applying one pushed update bundle at a replica node.
    pub push_apply: SimDuration,
    /// Publishing an update message to the JMS topic.
    pub jms_publish: SimDuration,
    /// Message-driven-bean delivery overhead per subscriber.
    pub mdb_delivery: SimDuration,
}

impl Default for ContainerCosts {
    fn default() -> Self {
        ContainerCosts {
            cache_hit: SimDuration::from_micros(300),
            jndi_lookup: SimDuration::from_micros(500),
            push_apply: SimDuration::from_micros(800),
            jms_publish: SimDuration::from_micros(500),
            mdb_delivery: SimDuration::from_micros(1_000),
        }
    }
}

/// Counters describing how one page bind resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BindStats {
    /// Invocations that crossed nodes (RMI).
    pub remote_invocations: u32,
    /// JNDI lookups performed.
    pub jndi_lookups: u32,
    /// Entity reads served from a valid replica row.
    pub entity_cache_hits: u32,
    /// Entity reads that had to fetch from the primary.
    pub entity_cache_misses: u32,
    /// Tagged queries served from a valid edge cache.
    pub query_cache_hits: u32,
    /// Tagged queries that executed remotely and populated the cache.
    pub query_cache_misses: u32,
    /// Database statements executed (reads and writes).
    pub db_statements: u32,
    /// Nodes that received a blocking push.
    pub sync_push_nodes: u32,
    /// Nodes that received an asynchronous push.
    pub async_push_nodes: u32,
    /// Nodes that received pull-mode invalidations.
    pub invalidate_nodes: u32,
    /// Sum of version lags observed on replica reads (staleness audit).
    pub staleness_observed: u64,
}

impl BindStats {
    /// Accumulates another bind's counters. Saturates instead of overflowing:
    /// long sweeps merge millions of binds and a wrapped counter would read
    /// as a plausible small number.
    pub fn merge(&mut self, other: &BindStats) {
        self.remote_invocations = self
            .remote_invocations
            .saturating_add(other.remote_invocations);
        self.jndi_lookups = self.jndi_lookups.saturating_add(other.jndi_lookups);
        self.entity_cache_hits = self
            .entity_cache_hits
            .saturating_add(other.entity_cache_hits);
        self.entity_cache_misses = self
            .entity_cache_misses
            .saturating_add(other.entity_cache_misses);
        self.query_cache_hits = self.query_cache_hits.saturating_add(other.query_cache_hits);
        self.query_cache_misses = self
            .query_cache_misses
            .saturating_add(other.query_cache_misses);
        self.db_statements = self.db_statements.saturating_add(other.db_statements);
        self.sync_push_nodes = self.sync_push_nodes.saturating_add(other.sync_push_nodes);
        self.async_push_nodes = self.async_push_nodes.saturating_add(other.async_push_nodes);
        self.invalidate_nodes = self.invalidate_nodes.saturating_add(other.invalidate_nodes);
        self.staleness_observed = self
            .staleness_observed
            .saturating_add(other.staleness_observed);
    }
}

/// The wire interaction kind of one node crossing on a request's synchronous
/// path (update propagation is excluded: it rides on forks or blocking
/// pushes, not on the logical call tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingKind {
    /// A remote component invocation (RMI).
    Rmi,
    /// A JNDI home lookup at the naming server.
    Jndi,
    /// A delegated fetch through the central façade (replica miss, uncovered
    /// query at an edge session bean).
    Fetch,
    /// JDBC statement round trips to the database host.
    Jdbc {
        /// Statement round trips (1 for CMP, n+1 for BMP finders).
        trips: u32,
    },
}

/// One node crossing recorded while binding a page — the introspection the
/// static analyzer cross-validates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    /// Originating node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// What travelled.
    pub kind: CrossingKind,
}

impl Crossing {
    /// Request/response round trips this crossing costs.
    pub fn round_trips(&self) -> u32 {
        match self.kind {
            CrossingKind::Jdbc { trips } => trips,
            _ => 1,
        }
    }
}

/// State updates to apply when an asynchronous propagation completes.
#[derive(Debug, Clone, Default)]
pub struct DeferredApply {
    /// Replica rows to mark fresh.
    pub entity_rows: Vec<(ComponentId, NodeId, RowId)>,
    /// Query results to mark fresh (push-mode caches keep serving meanwhile).
    pub queries: Vec<(NodeId, Query)>,
}

impl DeferredApply {
    /// Applies the deferred updates to container state.
    pub fn apply(&self, state: &mut ContainerState) {
        for &(entity, node, row) in &self.entity_rows {
            state.load_entity_row(entity, node, row);
        }
        for (node, query) in &self.queries {
            state.cache_query(*node, query.clone());
        }
    }

    /// Tables whose observable read results change when this apply lands —
    /// the plan cache invalidates memoized binds reading any of them.
    pub fn tables(&self, registry: &ComponentRegistry, out: &mut Vec<TableId>) {
        for &(entity, _, _) in &self.entity_rows {
            if let Some(t) = registry.spec(entity).table {
                out.push(t);
            }
        }
        for (_, query) in &self.queries {
            out.push(query.table());
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The result of binding one page request.
#[derive(Debug)]
pub struct BoundRequest {
    /// The executable step program.
    pub steps: Vec<Step>,
    /// Resolution counters.
    pub stats: BindStats,
    /// Node crossings on the synchronous path, in bind order.
    pub crossings: Vec<Crossing>,
    /// Asynchronous propagations started by this request, keyed by fork tag.
    pub deferred: Vec<(u64, DeferredApply)>,
    /// The binder's replayability certificate: `true` iff this bind drew no
    /// randomness, wrote nothing, and caused no cold cache/stub transition —
    /// i.e. re-binding the same page shape from the same client would produce
    /// the identical program and stats as long as `read_tables` are unchanged.
    pub replayable: bool,
    /// Tables whose contents (or replica freshness) this bind's results
    /// depend on; a write to any of them invalidates a memoized plan.
    pub read_tables: Vec<TableId>,
    /// Tables mutated by this bind (always empty when `replayable`).
    pub written_tables: Vec<TableId>,
}

/// Per-destination bundle of a transaction's propagation payload: the entity
/// rows and cached queries pushed to one node in one bulk RMI call.
type PerNodePush = std::collections::BTreeMap<NodeId, (Vec<(ComponentId, RowId)>, Vec<Query>)>;

/// Binds call trees against a deployment.
///
/// Holds mutable borrows of the shared world pieces for the duration of one
/// bind; construct it per request.
pub struct Binder<'a> {
    /// Component inventory.
    pub registry: &'a ComponentRegistry,
    /// The active configuration.
    pub descriptor: &'a DeploymentDescriptor,
    /// Wire protocol cost model.
    pub protocols: &'a ProtocolParams,
    /// Container runtime cost model.
    pub costs: &'a ContainerCosts,
    /// Shared persistent state (mutations apply immediately).
    pub db: &'a mut Database,
    /// Live container caches.
    pub state: &'a mut ContainerState,
    /// Randomness (protocol overhead sampling).
    pub rng: &'a mut SimRng,
    /// Allocator for fork tags (monotonic across the run).
    pub next_tag: &'a mut u64,
    stats: BindStats,
    crossings: Vec<Crossing>,
    deferred: Vec<(u64, DeferredApply)>,
    replayable: bool,
    read_tables: Vec<TableId>,
    written_tables: Vec<TableId>,
    /// Propagation targets accumulated within the current transaction;
    /// flushed as one bulk push per destination at the transaction boundary
    /// ("updates … are made in one bulk RMI call", §4.4).
    pending_entities: Vec<(ComponentId, NodeId, RowId)>,
    pending_queries: Vec<(NodeId, Query)>,
    in_transaction: bool,
}

impl<'a> Binder<'a> {
    /// Creates a binder over the shared world pieces.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        registry: &'a ComponentRegistry,
        descriptor: &'a DeploymentDescriptor,
        protocols: &'a ProtocolParams,
        costs: &'a ContainerCosts,
        db: &'a mut Database,
        state: &'a mut ContainerState,
        rng: &'a mut SimRng,
        next_tag: &'a mut u64,
    ) -> Self {
        Binder {
            registry,
            descriptor,
            protocols,
            costs,
            db,
            state,
            rng,
            next_tag,
            stats: BindStats::default(),
            crossings: Vec::new(),
            deferred: Vec::new(),
            replayable: true,
            read_tables: Vec::new(),
            written_tables: Vec::new(),
            pending_entities: Vec::new(),
            pending_queries: Vec::new(),
            in_transaction: false,
        }
    }

    /// Withdraws the replayability certificate: the bind drew randomness,
    /// mutated shared state, or took a cold cache/stub transition.
    fn not_replayable(&mut self) {
        self.replayable = false;
    }

    /// Records that this bind's results depend on the contents of `table`.
    fn record_read(&mut self, table: TableId) {
        if !self.read_tables.contains(&table) {
            self.read_tables.push(table);
        }
    }

    /// Compiles a page requested by `client` against entry server `entry`.
    ///
    /// # Panics
    ///
    /// Panics if the root web component is not deployed on `entry`.
    pub fn bind_page(mut self, client: NodeId, entry: NodeId, page: &PageRequest) -> BoundRequest {
        let root_placement = self.descriptor.placement(page.root.component);
        assert!(
            root_placement.hosts(entry),
            "web component {} not deployed on entry node {entry}",
            self.registry.spec(page.root.component).name
        );
        let mut steps = self.protocols.http_request(client, entry, 0);
        if !page.overhead.is_zero() {
            steps.push(Step::Delay(page.overhead));
        }
        steps.extend(self.bind_call(entry, &page.root, 0, 0));
        // Legacy direct-JDBC writes from the web tier (the original Pet
        // Store) have no bean-level transaction root; their propagation — if
        // any replicas exist — flushes from the central server.
        if !(self.pending_entities.is_empty() && self.pending_queries.is_empty()) {
            let central = self.descriptor.central_node;
            let flush = self.flush_propagation(central);
            steps.extend(flush);
        }
        for _ in 1..page.http_exchanges {
            // Redirect-after-POST: an extra request/response exchange.
            steps.push(Step::exchange(
                client,
                entry,
                self.protocols.http_request_bytes,
                300,
            ));
        }
        steps.push(
            self.protocols
                .http_response(entry, client, page.response_bytes),
        );
        self.finish(steps)
    }

    fn finish(mut self, steps: Vec<Step>) -> BoundRequest {
        self.read_tables.sort_unstable();
        self.written_tables.sort_unstable();
        self.written_tables.dedup();
        debug_assert!(
            !self.replayable || self.written_tables.is_empty(),
            "a replayable bind cannot have written tables"
        );
        BoundRequest {
            steps,
            stats: self.stats,
            crossings: self.crossings,
            deferred: self.deferred,
            replayable: self.replayable,
            read_tables: self.read_tables,
            written_tables: self.written_tables,
        }
    }

    /// Chooses the hosting node for a call issued from `caller`.
    fn resolve_host(&self, caller: NodeId, call: &Call) -> NodeId {
        let placement = self.descriptor.placement(call.component);
        let kind = self.registry.spec(call.component).kind;
        match kind {
            ComponentKind::Entity => {
                if call.has_writes() {
                    placement.primary
                } else if placement.hosts(caller) {
                    caller
                } else {
                    placement.primary
                }
            }
            _ => {
                if placement.hosts(caller) {
                    caller
                } else {
                    placement.primary
                }
            }
        }
    }

    fn bind_call(
        &mut self,
        caller: NodeId,
        call: &Call,
        args_bytes: u64,
        ret_bytes: u64,
    ) -> Vec<Step> {
        let host = self.resolve_host(caller, call);
        let mut steps = Vec::new();

        if host != caller {
            // Cross-node RMI samples DGC/ping overhead from the shared RNG
            // stream (and may take a cold stub transition below) — never
            // memoizable.
            self.not_replayable();
            self.stats.remote_invocations += 1;
            self.bind_stub_resolution(caller, call.component, &mut steps);
            self.crossings.push(Crossing {
                from: caller,
                to: host,
                kind: CrossingKind::Rmi,
            });
            steps.extend(
                self.protocols
                    .rmi_request(self.rng, caller, host, args_bytes),
            );
        }
        if !call.cpu.is_zero() {
            steps.push(Step::cpu(host, call.cpu));
        }
        // The outermost write-containing *EJB-tier* call is the transaction
        // boundary (container-managed transactions begin at the first bean
        // invocation, not in the servlet): update propagation for every
        // write inside it is bundled into one push per destination node,
        // emitted before this call returns.
        let tx_root = call.has_writes()
            && !self.in_transaction
            && self.registry.spec(call.component).kind != ComponentKind::Web;
        if tx_root {
            self.in_transaction = true;
        }
        for action in &call.actions {
            match action {
                Action::Invoke(invoke) => {
                    let Invoke {
                        call: child,
                        args_bytes,
                        ret_bytes,
                    } = invoke;
                    steps.extend(self.bind_call(host, child, *args_bytes, *ret_bytes));
                }
                Action::Query(qa) => {
                    steps.extend(self.bind_query(host, call.component, qa));
                }
                Action::Mutate(ma) => {
                    steps.extend(self.bind_mutation(host, ma));
                }
            }
        }
        if tx_root {
            self.in_transaction = false;
            // The pushes originate at the central server, where the
            // read-write beans and the JMS topic live — regardless of where
            // the transaction started. The writer still blocks here for
            // synchronous propagation (the Parallel sits on its return path).
            let central = self.descriptor.central_node;
            let flush = self.flush_propagation(central);
            steps.extend(flush);
        }
        if host != caller {
            steps.extend(self.protocols.rmi_response(host, caller, ret_bytes));
        }
        steps
    }

    /// JNDI home lookup before a remote call. With stub caching
    /// (EJBHomeFactory) only the first call per `(node, component)` pays;
    /// without it every call does.
    fn bind_stub_resolution(
        &mut self,
        caller: NodeId,
        component: ComponentId,
        steps: &mut Vec<Step>,
    ) {
        let naming = self.descriptor.central_node;
        if self.descriptor.stub_caching && self.state.stub_cached(caller, component) {
            return;
        }
        if caller != naming {
            self.stats.jndi_lookups += 1;
            self.crossings.push(Crossing {
                from: caller,
                to: naming,
                kind: CrossingKind::Jndi,
            });
            steps.push(Step::cpu(caller, self.costs.jndi_lookup));
            steps.push(Step::exchange(caller, naming, 200, 800));
        }
        if self.descriptor.stub_caching {
            self.state.cache_stub(caller, component);
        }
    }

    fn bind_query(&mut self, host: NodeId, component: ComponentId, qa: &QueryAction) -> Vec<Step> {
        let spec = self.registry.spec(component);
        let placement = self.descriptor.placement(component);

        // Read-only entity replica path (§4.3).
        if spec.kind == ComponentKind::Entity && host != placement.primary {
            return self.bind_replica_read(host, component, qa);
        }

        // Edge query cache path (§4.4).
        if let Some(tag) = &qa.tag {
            if self.descriptor.query_cache.covers(host, tag) {
                if self.state.query_cached(host, &qa.query) {
                    self.stats.query_cache_hits += 1;
                    self.record_read(qa.query.table());
                    return vec![Step::cpu(host, self.costs.cache_hit)];
                }
                // Miss: fetch through the central façade, then cache. The
                // insert is a cold transition: a replay would hit instead.
                self.not_replayable();
                self.stats.query_cache_misses += 1;
                let mut steps = self.remote_fetch(host, &qa.query);
                self.state.cache_query(host, qa.query.clone());
                steps.push(Step::cpu(host, self.costs.push_apply));
                return steps;
            }
        }

        // Plain database access. Session-tier components never open remote
        // database connections: an edge-resident façade that cannot serve a
        // query locally dispatches it to its central counterpart in one RMI
        // (the paper's edge `Catalog` delegating to the central `Catalog`).
        // Only the legacy web tier (the original Pet Store) and components
        // co-located with the data issue JDBC directly.
        let direct_jdbc = spec.kind == ComponentKind::Web
            || host == self.descriptor.db_node
            || host == self.descriptor.central_node;
        if direct_jdbc {
            self.db_steps(host, qa)
        } else {
            self.remote_fetch(host, &qa.query)
        }
    }

    /// A read against a read-only entity replica at `host`.
    fn bind_replica_read(
        &mut self,
        host: NodeId,
        component: ComponentId,
        qa: &QueryAction,
    ) -> Vec<Step> {
        match &qa.query {
            Query::ByPk { id, .. } => match self.state.entity_row(component, host, *id) {
                RowCacheState::Valid => {
                    self.stats.entity_cache_hits += 1;
                    self.stats.staleness_observed += self.state.staleness(component, host, *id);
                    // The observed staleness is derived from row versions,
                    // which only change on writes to the entity's table — so
                    // the hit is memoizable under table-generation validity.
                    match self.registry.spec(component).table {
                        Some(t) => self.record_read(t),
                        None => self.not_replayable(),
                    }
                    vec![Step::cpu(host, self.costs.cache_hit)]
                }
                RowCacheState::Absent | RowCacheState::Invalid => {
                    // Cold transition: the fetch repopulates the replica row.
                    self.not_replayable();
                    self.stats.entity_cache_misses += 1;
                    let steps = self.remote_fetch(host, &qa.query);
                    self.state.load_entity_row(component, host, *id);
                    steps
                }
            },
            // Finder queries on a replica delegate to the primary each time:
            // home finders require the authoritative view.
            _ => self.remote_fetch(host, &qa.query),
        }
    }

    /// One RMI to the central façade which executes `query` next to the
    /// database and returns the result.
    fn remote_fetch(&mut self, host: NodeId, query: &Query) -> Vec<Step> {
        let central = self.descriptor.central_node;
        if host != central {
            // The façade RMI samples protocol overhead from the RNG stream.
            self.not_replayable();
        }
        self.record_read(query.table());
        let outcome = self.db.execute(query);
        self.stats.db_statements += 1;
        let db_node = self.descriptor.db_node;
        let mut steps = Vec::new();
        if host == central {
            steps.push(Step::cpu(db_node, outcome.cpu));
            steps.extend(
                self.protocols
                    .jdbc(central, db_node, 1, outcome.row_count()),
            );
        } else {
            self.crossings.push(Crossing {
                from: host,
                to: central,
                kind: CrossingKind::Fetch,
            });
            steps.extend(self.protocols.rmi_request(self.rng, host, central, 300));
            steps.push(Step::cpu(db_node, outcome.cpu));
            steps.extend(
                self.protocols
                    .jdbc(central, db_node, 1, outcome.row_count()),
            );
            steps.extend(self.protocols.rmi_response(central, host, outcome.bytes));
        }
        if central != db_node {
            self.crossings.push(Crossing {
                from: central,
                to: db_node,
                kind: CrossingKind::Jdbc { trips: 1 },
            });
        }
        steps
    }

    /// Direct database access from `host` (entity primary, central façade, or
    /// the original web tier's direct JDBC).
    fn db_steps(&mut self, host: NodeId, qa: &QueryAction) -> Vec<Step> {
        self.record_read(qa.query.table());
        let outcome = self.db.execute(&qa.query);
        self.stats.db_statements += 1;
        let db_node = self.descriptor.db_node;
        let mut steps = vec![Step::cpu(db_node, outcome.cpu)];
        if host != db_node {
            let trips = qa.access.round_trips(outcome.row_count());
            self.crossings.push(Crossing {
                from: host,
                to: db_node,
                kind: CrossingKind::Jdbc { trips },
            });
            steps.extend(
                self.protocols
                    .jdbc(host, db_node, trips, outcome.row_count()),
            );
        }
        steps
    }

    /// Executes a write and queues its propagation targets; the push itself
    /// is emitted at the transaction boundary by [`Self::flush_propagation`].
    fn bind_mutation(&mut self, host: NodeId, ma: &MutateAction) -> Vec<Step> {
        self.not_replayable();
        let effect = self.db.mutate(ma.mutation.clone());
        self.written_tables.push(effect.table);
        self.stats.db_statements += 1;
        let db_node = self.descriptor.db_node;
        let mut steps = vec![Step::cpu(db_node, effect.cpu)];
        if host != db_node {
            self.crossings.push(Crossing {
                from: host,
                to: db_node,
                kind: CrossingKind::Jdbc { trips: 1 },
            });
            steps.extend(self.protocols.jdbc(host, db_node, 1, 0));
        }
        if !effect.applied {
            return steps;
        }

        for entity in self.registry.entities_of_table(effect.table) {
            self.state.bump_version(entity, effect.row);
            let replicas: Vec<NodeId> = self.descriptor.replica_nodes(entity).collect();
            for node in replicas {
                if self.state.entity_row(entity, node, effect.row) != RowCacheState::Absent {
                    self.pending_entities.push((entity, node, effect.row));
                }
            }
        }
        for &node in &self.descriptor.query_cache.nodes {
            self.state
                .affected_queries(node, &effect, &mut self.pending_queries);
        }
        steps
    }

    /// Emits the accumulated propagation of one transaction: one bulk push
    /// per destination node, blocking (`Parallel`), pull-invalidating, or
    /// detached JMS fan-out depending on the descriptor.
    fn flush_propagation(&mut self, host: NodeId) -> Vec<Step> {
        let mut entity_targets = std::mem::take(&mut self.pending_entities);
        let mut query_targets = std::mem::take(&mut self.pending_queries);
        entity_targets.sort_unstable();
        entity_targets.dedup();
        query_targets.sort_unstable();
        query_targets.dedup();
        if entity_targets.is_empty() && query_targets.is_empty() {
            return Vec::new();
        }
        // Propagation mutates replica/cache state and may draw fork tags.
        self.not_replayable();

        // Bundle per destination node (the paper's bulk-RMI pushes).
        let mut per_node: PerNodePush = std::collections::BTreeMap::new();
        for &(entity, node, row) in &entity_targets {
            per_node.entry(node).or_default().0.push((entity, row));
        }
        for (node, query) in &query_targets {
            per_node.entry(*node).or_default().1.push(query.clone());
        }

        let mut steps = Vec::new();
        let mode = self.effective_propagation(&entity_targets, &query_targets);
        match mode {
            UpdatePropagation::None => {}
            UpdatePropagation::Invalidate => {
                for (&node, (rows, queries)) in &per_node {
                    self.stats.invalidate_nodes += 1;
                    for &(entity, row) in rows {
                        self.state.invalidate_entity_row(entity, node, row);
                    }
                    for q in queries {
                        self.state.invalidate_query(node, q);
                    }
                    // Invalidation control messages travel asynchronously.
                    steps.push(Step::Fork {
                        steps: vec![Step::transfer(host, node, 200)],
                        tag: None,
                    });
                }
            }
            UpdatePropagation::SyncPush => {
                let mut branches = Vec::new();
                for (&node, (rows, queries)) in &per_node {
                    self.stats.sync_push_nodes += 1;
                    branches.push(self.push_branch(host, node, rows, queries, true));
                    for &(entity, row) in rows {
                        self.state.load_entity_row(entity, node, row);
                    }
                    for q in queries {
                        self.state.cache_query(node, q.clone());
                    }
                }
                steps.push(Step::Parallel(branches));
            }
            UpdatePropagation::AsyncPush => {
                // The writer's only synchronous cost is handing the message
                // to the container; everything downstream rides in one
                // detached fork. The broker delivers to subscribers in turn
                // (sequential steps, not a `Step::Parallel` — a parallel
                // join here would model a blocking push, which §4.5
                // explicitly avoids), and the deferred apply fires when the
                // last delivery lands.
                let broker = self.descriptor.jms_broker;
                let tag = *self.next_tag;
                *self.next_tag += 1;
                let mut apply = DeferredApply::default();
                let mut fork = vec![Step::cpu(host, self.costs.jms_publish)];
                fork.extend(
                    self.protocols
                        .jms_publish(host, broker, self.push_bytes(&per_node)),
                );
                for (&node, (rows, queries)) in &per_node {
                    self.stats.async_push_nodes += 1;
                    fork.extend(self.protocols.jms_delivery(
                        broker,
                        node,
                        self.node_push_bytes(rows, queries),
                    ));
                    fork.push(Step::cpu(
                        node,
                        self.costs.mdb_delivery + self.costs.push_apply,
                    ));
                    for &(entity, row) in rows {
                        apply.entity_rows.push((entity, node, row));
                    }
                    for q in queries {
                        apply.queries.push((node, q.clone()));
                    }
                }
                self.deferred.push((tag, apply));
                steps.push(Step::Fork {
                    steps: fork,
                    tag: Some(tag),
                });
            }
        }
        steps
    }

    /// Picks the propagation mode: entity policy dominates; pure query-cache
    /// updates follow the query-cache policy.
    fn effective_propagation(
        &self,
        entity_targets: &[(ComponentId, NodeId, RowId)],
        query_targets: &[(NodeId, Query)],
    ) -> UpdatePropagation {
        if !entity_targets.is_empty() {
            self.descriptor.entity_propagation
        } else if !query_targets.is_empty() {
            self.descriptor.query_cache.propagation
        } else {
            UpdatePropagation::None
        }
    }

    /// One blocking push branch: bulk RMI to `node`, apply, acknowledge.
    fn push_branch(
        &mut self,
        from: NodeId,
        node: NodeId,
        rows: &[(ComponentId, RowId)],
        queries: &[Query],
        ack: bool,
    ) -> Vec<Step> {
        let bytes = self.node_push_bytes(rows, queries);
        let mut branch = self.protocols.rmi_request(self.rng, from, node, bytes);
        branch.push(Step::cpu(node, self.costs.push_apply));
        if ack {
            branch.extend(self.protocols.rmi_response(node, from, 50));
        }
        branch
    }

    fn node_push_bytes(&self, rows: &[(ComponentId, RowId)], queries: &[Query]) -> u64 {
        let row_bytes: u64 = rows
            .iter()
            .map(|(entity, _)| {
                self.registry
                    .spec(*entity)
                    .table
                    .map_or(100, |t| self.db.table(t).row_bytes())
            })
            .sum();
        // Pushed query deltas are small (single-row updates, §4.4).
        row_bytes + queries.len() as u64 * 150
    }

    fn push_bytes(&self, per_node: &PerNodePush) -> u64 {
        per_node
            .values()
            .map(|(rows, queries)| self.node_push_bytes(rows, queries))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_stats_merge_saturates() {
        let mut a = BindStats {
            remote_invocations: u32::MAX,
            jndi_lookups: u32::MAX - 1,
            db_statements: 7,
            staleness_observed: u64::MAX,
            ..BindStats::default()
        };
        let b = BindStats {
            remote_invocations: 3,
            jndi_lookups: 5,
            db_statements: 2,
            staleness_observed: 1,
            ..BindStats::default()
        };
        a.merge(&b);
        assert_eq!(a.remote_invocations, u32::MAX);
        assert_eq!(a.jndi_lookups, u32::MAX);
        assert_eq!(a.db_statements, 9);
        assert_eq!(a.staleness_observed, u64::MAX);
        assert_eq!(a.entity_cache_hits, 0);
    }

    #[test]
    fn crossing_round_trips() {
        let mut b = mutsvc_netsim::TopologyBuilder::new();
        let a = b.node("a", 1);
        let d = b.node("d", 1);
        let c = Crossing {
            from: a,
            to: d,
            kind: CrossingKind::Jdbc { trips: 4 },
        };
        assert_eq!(c.round_trips(), 4);
        let c = Crossing {
            from: a,
            to: d,
            kind: CrossingKind::Rmi,
        };
        assert_eq!(c.round_trips(), 1);
    }
}
