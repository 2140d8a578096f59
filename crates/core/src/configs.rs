//! The five experimental configurations of §4, expressed as deployment
//! descriptors — the paper's incremental design patterns with application
//! code untouched (beyond the one-time façade refactoring of §4.2).

use mutsvc_apps::petstore::{PsComponents, TAG_ITEMS_BY_PRODUCT, TAG_PRODUCTS_BY_CATEGORY};
use mutsvc_apps::rubis::{tags, RubisComponents};
use mutsvc_middleware::{
    ComponentRegistry, DeploymentDescriptor, DescriptorBuilder, UpdatePropagation,
};
use mutsvc_netsim::NodeId;

use crate::topology::PaperNodes;

/// The five configurations, in the paper's incremental order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Config {
    /// §4.1 — everything on the main server.
    Centralized,
    /// §4.2 — web components and stateful session beans on the edges; all
    /// shared access through session façades; stub caching.
    RemoteFacade,
    /// §4.3 — read-only entity replicas on the edges with blocking
    /// synchronous push (zero staleness).
    StatefulCaching,
    /// §4.4 — aggregate-query result caches on the edges.
    QueryCaching,
    /// §4.5 — update propagation through a JMS topic and message-driven
    /// façades; writers no longer block.
    AsyncUpdates,
}

impl Config {
    /// All configurations in order.
    pub fn all() -> [Config; 5] {
        [
            Config::Centralized,
            Config::RemoteFacade,
            Config::StatefulCaching,
            Config::QueryCaching,
            Config::AsyncUpdates,
        ]
    }

    /// The configuration name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Config::Centralized => "centralized",
            Config::RemoteFacade => "remote-facade",
            Config::StatefulCaching => "stateful-caching",
            Config::QueryCaching => "query-caching",
            Config::AsyncUpdates => "async-updates",
        }
    }

    /// The paper section introducing it.
    pub fn section(self) -> &'static str {
        match self {
            Config::Centralized => "4.1",
            Config::RemoteFacade => "4.2",
            Config::StatefulCaching => "4.3",
            Config::QueryCaching => "4.4",
            Config::AsyncUpdates => "4.5",
        }
    }

    /// Whether this configuration uses the façade-refactored application
    /// (every configuration after the centralized baseline).
    pub fn uses_facade_app(self) -> bool {
        self != Config::Centralized
    }

    /// The server that remote clients behind `edge` enter through: the edge
    /// server itself whenever the web tier is deployed there; the
    /// centralized baseline leaves the edge servers unused and sends
    /// everyone to `main` (§4.1).
    pub(crate) fn entry(self, main: NodeId, edge: NodeId) -> NodeId {
        if self == Config::Centralized {
            main
        } else {
            edge
        }
    }
}

/// Builds the Pet Store deployment descriptor for `config` on the paper
/// topology (two edge servers).
pub fn petstore_descriptor(
    config: Config,
    registry: &ComponentRegistry,
    c: &PsComponents,
    nodes: &PaperNodes,
) -> DeploymentDescriptor {
    petstore_descriptor_on(config, registry, c, nodes.main, nodes.db, &nodes.edges())
}

/// Builds the Pet Store deployment descriptor for `config` over an
/// arbitrary set of edge servers — the paper's two, or the wider fan-out
/// topologies the parallel-engine benchmarks use
/// ([`crate::topology::fanout_topology`]).
pub fn petstore_descriptor_on(
    config: Config,
    registry: &ComponentRegistry,
    c: &PsComponents,
    main: NodeId,
    db: NodeId,
    edges: &[NodeId],
) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(registry, config.name(), db);
    b.central_node(main);
    let edges = || edges.iter().copied();

    // Start from everything on main.
    for comp in c.all() {
        b.place(comp, main);
    }

    if config >= Config::RemoteFacade {
        // Web tier and stateful session beans on every server (§4.2).
        for comp in c.edge_session_components() {
            b.place_replicated(comp, main, edges());
        }
    }
    if config >= Config::StatefulCaching {
        // Read-only entity replicas plus the edge Catalog/Updater (§4.3).
        // Propagation is push-based, so replicas are populated as part of
        // deployment warm-up and kept fresh by pushes (the driver re-runs
        // the warm-up after a node restart for the same reason).
        b.place_replicated(c.catalog, main, edges());
        b.place_replicated(c.updater, main, edges());
        for entity in c.cacheable_entities() {
            b.place_replicated(entity, main, edges());
        }
        b.entity_propagation(UpdatePropagation::SyncPush);
        b.eager_cache_warmup(true);
    }
    if config >= Config::QueryCaching {
        // Catalog query caches on the edges; the Pet Store catalog is
        // read-only, so the paper used the simple pull-based variant (§4.4).
        b.query_cache(
            edges(),
            [TAG_PRODUCTS_BY_CATEGORY, TAG_ITEMS_BY_PRODUCT],
            UpdatePropagation::Invalidate,
        );
    }
    if config >= Config::AsyncUpdates {
        // Message-driven propagation (§4.5).
        b.entity_propagation(UpdatePropagation::AsyncPush);
        b.place_replicated(c.update_subscriber, main, edges());
        b.jms_broker(main);
    }

    b.build().expect("petstore descriptor is complete")
}

/// Builds the Pet Store *adaptive baseline*: remote clients enter at their
/// edge server — the web façade is replicated there, because request
/// binding requires the root web component at every entry node — but the
/// stateful session tier and everything behind it stay centralized.
///
/// This is the deployment the live-migration controller (DESIGN.md §6.8)
/// is meant to improve at runtime: when a region's WAN leg degrades or its
/// demand surges, replicating its session beans out to the stressed edge
/// is a real, model-visible win, while a quiescent run leaves the
/// descriptor untouched.
pub fn petstore_adaptive_baseline(
    registry: &ComponentRegistry,
    c: &PsComponents,
    main: NodeId,
    db: NodeId,
    edges: &[NodeId],
) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(registry, "adaptive-baseline", db);
    b.central_node(main);
    for comp in c.all() {
        b.place(comp, main);
    }
    b.place_replicated(c.web, main, edges.iter().copied());
    b.build().expect("adaptive baseline descriptor is complete")
}

/// The RUBiS adaptive baseline (see [`petstore_adaptive_baseline`]): the
/// servlet tier at every entry, session façades and entities centralized.
pub fn rubis_adaptive_baseline(
    registry: &ComponentRegistry,
    c: &RubisComponents,
    main: NodeId,
    db: NodeId,
    edges: &[NodeId],
) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(registry, "adaptive-baseline", db);
    b.central_node(main);
    for comp in c.all() {
        b.place(comp, main);
    }
    b.place_replicated(c.web, main, edges.iter().copied());
    b.build().expect("adaptive baseline descriptor is complete")
}

/// Builds the RUBiS deployment descriptor for `config` on the paper
/// topology (two edge servers).
pub fn rubis_descriptor(
    config: Config,
    registry: &ComponentRegistry,
    c: &RubisComponents,
    nodes: &PaperNodes,
) -> DeploymentDescriptor {
    rubis_descriptor_on(config, registry, c, nodes.main, nodes.db, &nodes.edges())
}

/// Builds the RUBiS deployment descriptor for `config` over an arbitrary
/// set of edge servers (see [`petstore_descriptor_on`]).
pub fn rubis_descriptor_on(
    config: Config,
    registry: &ComponentRegistry,
    c: &RubisComponents,
    main: NodeId,
    db: NodeId,
    edges: &[NodeId],
) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(registry, config.name(), db);
    b.central_node(main);
    let edges = || edges.iter().copied();

    for comp in c.all() {
        b.place(comp, main);
    }

    if config >= Config::RemoteFacade {
        // RUBiS has no stateful session beans: only the servlet tier moves
        // to the edges (§4.2), with EJBHomeFactory stub caching.
        b.place_replicated(c.web, main, edges());
    }
    if config >= Config::StatefulCaching {
        // Read-only Item and User beans plus the three read façades (§4.3).
        // RUBiS propagation is push-based throughout, so freshly deployed
        // replicas/caches are populated eagerly and kept fresh by pushes.
        for comp in c.edge_read_facades() {
            b.place_replicated(comp, main, edges());
        }
        for entity in c.cacheable_entities() {
            b.place_replicated(entity, main, edges());
        }
        b.entity_propagation(UpdatePropagation::SyncPush);
        b.eager_cache_warmup(true);
    }
    if config >= Config::QueryCaching {
        // Every browse/form façade on the edges, all session queries cached,
        // push-based updates in one bulk RMI (§4.4).
        for comp in c.edge_browse_facades() {
            b.place_replicated(comp, main, edges());
        }
        b.query_cache(edges(), tags::ALL, UpdatePropagation::SyncPush);
    }
    if config >= Config::AsyncUpdates {
        b.entity_propagation(UpdatePropagation::AsyncPush);
        b.query_cache(edges(), tags::ALL, UpdatePropagation::AsyncPush);
        b.place_replicated(c.update_subscriber, main, edges());
        b.jms_broker(main);
    }

    b.build().expect("rubis descriptor is complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::paper_topology;
    use mutsvc_apps::App;

    fn ps() -> (ComponentRegistry, PsComponents, PaperNodes) {
        let (app, registry, _) = App::petstore(true);
        let c = match app {
            App::PetStore(ps) => ps.components,
            _ => unreachable!(),
        };
        let (_, nodes) = paper_topology(false);
        (registry, c, nodes)
    }

    fn rubis() -> (ComponentRegistry, RubisComponents, PaperNodes) {
        let (app, registry, _) = App::rubis();
        let c = match app {
            App::Rubis(r) => r.components,
            _ => unreachable!(),
        };
        let (_, nodes) = paper_topology(true);
        (registry, c, nodes)
    }

    #[test]
    fn centralized_uses_only_main() {
        let (reg, c, nodes) = ps();
        let d = petstore_descriptor(Config::Centralized, &reg, &c, &nodes);
        for comp in c.all() {
            assert_eq!(d.placement(comp).primary, nodes.main);
            assert!(d.placement(comp).replicas.is_empty());
        }
        assert_eq!(d.entity_propagation, UpdatePropagation::None);
    }

    #[test]
    fn facade_moves_session_tier_only() {
        let (reg, c, nodes) = ps();
        let d = petstore_descriptor(Config::RemoteFacade, &reg, &c, &nodes);
        assert!(d.placement(c.web).hosts(nodes.edge1));
        assert!(d.placement(c.cart).hosts(nodes.edge2));
        assert!(!d.placement(c.catalog).hosts(nodes.edge1));
        assert!(!d.placement(c.item).hosts(nodes.edge1));
    }

    #[test]
    fn stateful_caching_replicates_catalog_entities_with_sync_push() {
        let (reg, c, nodes) = ps();
        let d = petstore_descriptor(Config::StatefulCaching, &reg, &c, &nodes);
        for entity in c.cacheable_entities() {
            assert!(d.placement(entity).hosts(nodes.edge1));
            assert_eq!(d.placement(entity).primary, nodes.main);
        }
        // SignOn / Order / Account stay centralized (Verify keeps 2 RMIs).
        assert!(!d.placement(c.signon).hosts(nodes.edge1));
        assert!(!d.placement(c.order).hosts(nodes.edge1));
        assert_eq!(d.entity_propagation, UpdatePropagation::SyncPush);
        assert!(d.query_cache.nodes.is_empty());
    }

    #[test]
    fn query_caching_adds_edge_caches_pull_mode_for_petstore() {
        let (reg, c, nodes) = ps();
        let d = petstore_descriptor(Config::QueryCaching, &reg, &c, &nodes);
        assert!(d.query_cache.covers(nodes.edge1, TAG_PRODUCTS_BY_CATEGORY));
        assert!(d.query_cache.covers(nodes.edge2, TAG_ITEMS_BY_PRODUCT));
        assert_eq!(d.query_cache.propagation, UpdatePropagation::Invalidate);
        assert_eq!(d.entity_propagation, UpdatePropagation::SyncPush);
    }

    #[test]
    fn async_updates_switch_propagation_and_deploy_mdbs() {
        let (reg, c, nodes) = ps();
        let d = petstore_descriptor(Config::AsyncUpdates, &reg, &c, &nodes);
        assert_eq!(d.entity_propagation, UpdatePropagation::AsyncPush);
        assert!(d.placement(c.update_subscriber).hosts(nodes.edge1));
        assert_eq!(d.jms_broker, nodes.main);
    }

    #[test]
    fn rubis_facade_moves_only_servlets() {
        let (reg, c, nodes) = rubis();
        let d = rubis_descriptor(Config::RemoteFacade, &reg, &c, &nodes);
        assert!(d.placement(c.web).hosts(nodes.edge1));
        for sb in [c.sb_view_item, c.sb_store_bid, c.sb_put_bid] {
            assert!(!d.placement(sb).hosts(nodes.edge1));
        }
    }

    #[test]
    fn rubis_caching_deploys_read_facades_and_replicas() {
        let (reg, c, nodes) = rubis();
        let d = rubis_descriptor(Config::StatefulCaching, &reg, &c, &nodes);
        for sb in c.edge_read_facades() {
            assert!(d.placement(sb).hosts(nodes.edge1));
        }
        assert!(d.placement(c.item).hosts(nodes.edge2));
        assert!(d.placement(c.user).hosts(nodes.edge1));
        // Bid/Comment entities are write-path: not replicated.
        assert!(!d.placement(c.bid).hosts(nodes.edge1));
        // Form façades arrive only with query caching.
        assert!(!d.placement(c.sb_put_bid).hosts(nodes.edge1));
    }

    #[test]
    fn rubis_query_caching_is_push_based_and_covers_all_tags() {
        let (reg, c, nodes) = rubis();
        let d = rubis_descriptor(Config::QueryCaching, &reg, &c, &nodes);
        for tag in tags::ALL {
            assert!(d.query_cache.covers(nodes.edge1, tag), "{tag}");
        }
        assert_eq!(d.query_cache.propagation, UpdatePropagation::SyncPush);
        assert!(d.placement(c.sb_put_bid).hosts(nodes.edge1));
        // Writers stay centralized.
        assert!(!d.placement(c.sb_store_bid).hosts(nodes.edge1));
    }

    #[test]
    fn config_metadata() {
        assert_eq!(Config::all().len(), 5);
        assert!(!Config::Centralized.uses_facade_app());
        assert!(Config::RemoteFacade.uses_facade_app());
        assert_eq!(Config::StatefulCaching.section(), "4.3");
        let names: Vec<_> = Config::all().iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
