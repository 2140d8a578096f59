//! Deployment descriptors.
//!
//! The paper's central argument (§5) is that the wide-area design patterns —
//! remote façade, read-mostly entity caching, query caching, asynchronous
//! update propagation — should be *declared* in extended deployment
//! descriptors and wired automatically by containers. [`DeploymentDescriptor`]
//! is that declaration: the five experimental configurations of §4 differ
//! only in their descriptors, never in application code.

use std::collections::{BTreeMap, BTreeSet};

use mutsvc_netsim::NodeId;

use crate::component::{ComponentId, ComponentKind, ComponentRegistry};
use crate::invocation::Call;

/// Where a component's instances live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The authoritative instance (read-write primary for entities, the
    /// delegate-of-last-resort for session beans).
    pub primary: NodeId,
    /// Additional instances. For entities these are **read-only replicas**
    /// (§4.3); for web/session components, independent per-server instances.
    pub replicas: BTreeSet<NodeId>,
}

impl Placement {
    /// A placement with no replicas.
    pub fn single(primary: NodeId) -> Self {
        Placement {
            primary,
            replicas: BTreeSet::new(),
        }
    }

    /// All nodes hosting an instance.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.primary).chain(self.replicas.iter().copied())
    }

    /// Whether `node` hosts an instance.
    pub fn hosts(&self, node: NodeId) -> bool {
        self.primary == node || self.replicas.contains(&node)
    }
}

/// How updates reach read-only entity replicas and edge query caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePropagation {
    /// No replicas exist; nothing to propagate.
    None,
    /// Pull-based: invalidate remote copies; the next read refetches (§4.3's
    /// baseline approach, "unacceptable in the wide area" for entity state
    /// but used for the read-only Pet Store catalog caches).
    Invalidate,
    /// Push updated state synchronously; the writer **blocks** until every
    /// replica acknowledges (zero staleness, §4.3).
    SyncPush,
    /// Publish updates to a JMS topic consumed by message-driven façades on
    /// the edges; the writer does not block (§4.5).
    AsyncPush,
}

impl UpdatePropagation {
    /// Whether the writer's response waits for propagation.
    pub fn blocks_writer(self) -> bool {
        matches!(self, UpdatePropagation::SyncPush)
    }
}

/// Declarative configuration of edge query caching (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCachePolicy {
    /// Nodes running a query-cache container.
    pub nodes: BTreeSet<NodeId>,
    /// Cacheable query tags (from the extended deployment descriptor; the
    /// Pet Store caches `products-by-category` and `items-by-product`,
    /// RUBiS caches every browse query — keyword search is never listed).
    pub cacheable_tags: BTreeSet<String>,
    /// How cached results learn about writes.
    pub propagation: UpdatePropagation,
}

impl QueryCachePolicy {
    /// A disabled policy (no cache nodes).
    pub fn disabled() -> Self {
        QueryCachePolicy {
            nodes: BTreeSet::new(),
            cacheable_tags: BTreeSet::new(),
            propagation: UpdatePropagation::None,
        }
    }

    /// Whether queries tagged `tag` are cacheable at `node`.
    pub fn covers(&self, node: NodeId, tag: &str) -> bool {
        self.nodes.contains(&node) && self.cacheable_tags.contains(tag)
    }
}

/// The complete deployment of an application onto a topology.
#[derive(Debug, Clone)]
pub struct DeploymentDescriptor {
    /// A human-readable configuration name ("centralized", "remote-facade"…).
    pub name: String,
    /// Per-component placements.
    pub placements: BTreeMap<ComponentId, Placement>,
    /// The node hosting the database server.
    pub db_node: NodeId,
    /// Propagation mode for read-only entity replicas.
    pub entity_propagation: UpdatePropagation,
    /// Edge query caching.
    pub query_cache: QueryCachePolicy,
    /// Whether home/remote stubs are cached (EJBHomeFactory, §4.2). When
    /// disabled every remote invocation pays an extra JNDI round trip.
    pub stub_caching: bool,
    /// The JMS broker node for [`UpdatePropagation::AsyncPush`] (typically
    /// the main server, co-located with the writers).
    pub jms_broker: NodeId,
    /// The main application server: hosts the JNDI tree and the central
    /// façades that edge containers delegate to on cache misses.
    pub central_node: NodeId,
    /// Eagerly populate edge caches (entity replicas and query caches) at
    /// deployment time instead of warming on demand. Matches push-based
    /// propagation stacks (the paper's RUBiS caches), where a freshly
    /// deployed cache is loaded once and kept fresh by pushes thereafter.
    pub eager_cache_warmup: bool,
}

impl DeploymentDescriptor {
    /// The placement of `component`.
    ///
    /// # Panics
    ///
    /// Panics if the component is not placed (validated builders prevent this).
    pub fn placement(&self, component: ComponentId) -> &Placement {
        self.placements
            .get(&component)
            .unwrap_or_else(|| panic!("component {component} is not placed"))
    }

    /// The node that serves `call`, issued from `caller` to a component of
    /// `kind`: an entity call that writes goes to the primary; any other
    /// call prefers an instance on the caller's node and falls back to the
    /// primary. The binder and the analyzer's static walker both ask here.
    pub fn host_for(&self, kind: ComponentKind, caller: NodeId, call: &Call) -> NodeId {
        let placement = self.placement(call.component);
        if (kind == ComponentKind::Entity && call.has_writes()) || !placement.hosts(caller) {
            placement.primary
        } else {
            caller
        }
    }

    /// Whether a component of `kind` running on `host` opens database
    /// connections itself. Only the legacy web tier (the original Pet Store)
    /// and components co-located with the data or the central server issue
    /// JDBC directly. Session-tier components elsewhere never open remote
    /// database connections: an edge-resident façade that cannot serve a
    /// query locally dispatches it to its central counterpart in one RMI
    /// (the paper's edge `Catalog` delegating to the central `Catalog`).
    pub fn opens_jdbc(&self, kind: ComponentKind, host: NodeId) -> bool {
        kind == ComponentKind::Web || host == self.db_node || host == self.central_node
    }

    /// Whether edge caches can answer reads while the central server is cut
    /// off: entity replicas kept by some propagation mode, or query-cache
    /// nodes. The driver's stale-serve gate and the analyzer's both read it.
    pub fn caches_serve_reads(&self) -> bool {
        self.entity_propagation != UpdatePropagation::None || !self.query_cache.nodes.is_empty()
    }

    /// Nodes hosting read-only replicas of `entity` (excluding the primary).
    pub fn replica_nodes(&self, entity: ComponentId) -> impl Iterator<Item = NodeId> + '_ {
        self.placement(entity).replicas.iter().copied()
    }

    /// Re-homes `component`'s authoritative instance onto `to` — the
    /// descriptor half of a live migration. A read-only replica already at
    /// `to` is absorbed into the primary role (the same semantics as the
    /// placement optimizer's `MovePrimary`); the displaced former primary
    /// keeps no instance. Moving onto the current primary is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the component is not placed.
    pub fn move_primary(&mut self, component: ComponentId, to: NodeId) {
        let placement = self
            .placements
            .get_mut(&component)
            .unwrap_or_else(|| panic!("component {component} is not placed"));
        if placement.primary == to {
            return;
        }
        placement.replicas.remove(&to);
        placement.primary = to;
    }

    /// Adds a read-only replica of `component` at `node`: the descriptor
    /// half of a live replication order (the placement optimizer's
    /// `AddReplica`). Replicating onto the current primary is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the component is not placed.
    pub fn add_replica(&mut self, component: ComponentId, node: NodeId) {
        let placement = self
            .placements
            .get_mut(&component)
            .unwrap_or_else(|| panic!("component {component} is not placed"));
        if placement.primary == node {
            return;
        }
        placement.replicas.insert(node);
    }
}

/// Validating builder for [`DeploymentDescriptor`].
#[derive(Debug)]
pub struct DescriptorBuilder<'a> {
    registry: &'a ComponentRegistry,
    name: String,
    placements: BTreeMap<ComponentId, Placement>,
    db_node: NodeId,
    entity_propagation: UpdatePropagation,
    query_cache: QueryCachePolicy,
    stub_caching: bool,
    jms_broker: NodeId,
    central_node: NodeId,
    eager_cache_warmup: bool,
}

impl<'a> DescriptorBuilder<'a> {
    /// Starts a descriptor for `registry` with the database on `db_node`.
    /// The central (main) application server defaults to `db_node` until
    /// overridden with [`Self::central_node`].
    pub fn new(registry: &'a ComponentRegistry, name: &str, db_node: NodeId) -> Self {
        DescriptorBuilder {
            registry,
            name: name.to_string(),
            placements: BTreeMap::new(),
            db_node,
            entity_propagation: UpdatePropagation::None,
            query_cache: QueryCachePolicy::disabled(),
            stub_caching: true,
            jms_broker: db_node,
            central_node: db_node,
            eager_cache_warmup: false,
        }
    }

    /// Enables eager population of edge caches at deployment.
    pub fn eager_cache_warmup(&mut self, enabled: bool) -> &mut Self {
        self.eager_cache_warmup = enabled;
        self
    }

    /// Sets the main application server (JNDI tree, central façades, JMS
    /// broker default).
    pub fn central_node(&mut self, node: NodeId) -> &mut Self {
        self.central_node = node;
        self.jms_broker = node;
        self
    }

    /// Places a component's primary instance.
    pub fn place(&mut self, component: ComponentId, primary: NodeId) -> &mut Self {
        self.placements
            .insert(component, Placement::single(primary));
        self
    }

    /// Places a component's primary on `primary` and instances on each of
    /// `replicas` (ignoring `primary` if repeated).
    pub fn place_replicated(
        &mut self,
        component: ComponentId,
        primary: NodeId,
        replicas: impl IntoIterator<Item = NodeId>,
    ) -> &mut Self {
        let replicas: BTreeSet<NodeId> = replicas.into_iter().filter(|&n| n != primary).collect();
        self.placements
            .insert(component, Placement { primary, replicas });
        self
    }

    /// Sets the entity update propagation mode.
    pub fn entity_propagation(&mut self, mode: UpdatePropagation) -> &mut Self {
        self.entity_propagation = mode;
        self
    }

    /// Enables query caching at `nodes` for queries tagged `tags`.
    pub fn query_cache(
        &mut self,
        nodes: impl IntoIterator<Item = NodeId>,
        tags: impl IntoIterator<Item = &'a str>,
        propagation: UpdatePropagation,
    ) -> &mut Self {
        self.query_cache = QueryCachePolicy {
            nodes: nodes.into_iter().collect(),
            cacheable_tags: tags.into_iter().map(str::to_string).collect(),
            propagation,
        };
        self
    }

    /// Enables or disables stub caching (EJBHomeFactory).
    pub fn stub_caching(&mut self, enabled: bool) -> &mut Self {
        self.stub_caching = enabled;
        self
    }

    /// Sets the JMS broker node used by asynchronous propagation.
    pub fn jms_broker(&mut self, node: NodeId) -> &mut Self {
        self.jms_broker = node;
        self
    }

    /// Validates and builds the descriptor.
    ///
    /// # Errors
    ///
    /// Returns a message when a component is unplaced, a non-shared component
    /// declares replicas together with entity propagation, or replicas are
    /// declared without a propagation mode.
    pub fn build(&self) -> Result<DeploymentDescriptor, String> {
        for id in self.registry.ids() {
            if !self.placements.contains_key(&id) {
                return Err(format!(
                    "component {} is not placed",
                    self.registry.spec(id).name
                ));
            }
        }
        let mut any_entity_replicas = false;
        for (&id, placement) in &self.placements {
            let spec = self.registry.spec(id);
            if spec.kind == ComponentKind::Entity && !placement.replicas.is_empty() {
                any_entity_replicas = true;
            }
        }
        if any_entity_replicas && self.entity_propagation == UpdatePropagation::None {
            return Err(
                "entity read-only replicas declared but no propagation mode set".to_string(),
            );
        }
        Ok(DeploymentDescriptor {
            name: self.name.clone(),
            placements: self.placements.clone(),
            db_node: self.db_node,
            entity_propagation: self.entity_propagation,
            query_cache: self.query_cache.clone(),
            stub_caching: self.stub_caching,
            jms_broker: self.jms_broker,
            central_node: self.central_node,
            eager_cache_warmup: self.eager_cache_warmup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentKind;
    use mutsvc_netsim::TopologyBuilder;
    use mutsvc_relstore::DatabaseBuilder;

    fn setup() -> (ComponentRegistry, ComponentId, ComponentId, NodeId, NodeId) {
        let mut dbb = DatabaseBuilder::new();
        let t = dbb.table("item", &["n"], 10);
        let mut reg = ComponentRegistry::new();
        let web = reg.register("web", ComponentKind::Web);
        let item = reg.register_entity("Item", t);
        let mut tb = TopologyBuilder::new();
        let main = tb.node("main", 2);
        let edge = tb.node("edge", 2);
        tb.duplex_link(
            main,
            edge,
            mutsvc_desim::SimDuration::from_millis(100),
            100e6,
        );
        (reg, web, item, main, edge)
    }

    #[test]
    fn build_validates_full_placement() {
        let (reg, web, item, main, edge) = setup();
        let mut b = DescriptorBuilder::new(&reg, "test", main);
        b.place(web, main);
        assert!(b.build().unwrap_err().contains("Item"));
        b.place_replicated(item, main, [edge]);
        assert!(b.build().unwrap_err().contains("propagation"));
        b.entity_propagation(UpdatePropagation::SyncPush);
        let d = b.build().unwrap();
        assert_eq!(d.placement(item).primary, main);
        assert!(d.placement(item).hosts(edge));
        assert_eq!(d.replica_nodes(item).collect::<Vec<_>>(), vec![edge]);
    }

    #[test]
    fn primary_excluded_from_replicas() {
        let (reg, web, item, main, edge) = setup();
        let mut b = DescriptorBuilder::new(&reg, "test", main);
        b.place(web, edge);
        b.place_replicated(item, main, [main, edge]);
        b.entity_propagation(UpdatePropagation::AsyncPush);
        let d = b.build().unwrap();
        assert_eq!(d.placement(item).replicas.len(), 1);
        assert_eq!(d.placement(item).nodes().count(), 2);
    }

    #[test]
    fn move_primary_rehomes_and_absorbs_destination_replica() {
        let (reg, web, item, main, edge) = setup();
        let mut b = DescriptorBuilder::new(&reg, "mv", main);
        b.place(web, main);
        b.place_replicated(item, main, [edge]);
        b.entity_propagation(UpdatePropagation::AsyncPush);
        let mut d = b.build().unwrap();
        d.move_primary(item, edge);
        assert_eq!(d.placement(item).primary, edge);
        assert!(
            d.placement(item).replicas.is_empty(),
            "the destination replica is absorbed, the old primary keeps nothing"
        );
        // Moving onto the current primary is a no-op.
        d.move_primary(web, main);
        assert_eq!(d.placement(web).primary, main);
    }

    #[test]
    fn query_cache_policy_coverage() {
        let (reg, web, item, main, edge) = setup();
        let mut b = DescriptorBuilder::new(&reg, "qc", main);
        b.place(web, main).place(item, main);
        b.query_cache(
            [edge],
            ["products-by-category"],
            UpdatePropagation::Invalidate,
        );
        let d = b.build().unwrap();
        assert!(d.query_cache.covers(edge, "products-by-category"));
        assert!(!d.query_cache.covers(main, "products-by-category"));
        assert!(!d.query_cache.covers(edge, "search"));
    }

    #[test]
    fn propagation_blocking_semantics() {
        assert!(UpdatePropagation::SyncPush.blocks_writer());
        assert!(!UpdatePropagation::AsyncPush.blocks_writer());
        assert!(!UpdatePropagation::Invalidate.blocks_writer());
        assert!(!UpdatePropagation::None.blocks_writer());
    }

    #[test]
    fn defaults_are_sensible() {
        let (reg, web, item, main, _) = setup();
        let mut b = DescriptorBuilder::new(&reg, "defaults", main);
        b.place(web, main).place(item, main);
        let d = b.build().unwrap();
        assert!(d.stub_caching);
        assert_eq!(d.jms_broker, main);
        assert_eq!(d.query_cache, QueryCachePolicy::disabled());
        assert_eq!(d.name, "defaults");
    }
}
