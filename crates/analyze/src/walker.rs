//! The static page walker.
//!
//! Applies the binder's resolution rules ([`mutsvc_middleware::binding`])
//! over a page's logical call tree *without* executing the simulator,
//! assuming **steady state**: stubs cached (when the descriptor enables
//! caching), entity replica rows valid, covered query-cache entries
//! populated. The host choice and the JDBC-delegation rule are the
//! descriptor's own ([`DeploymentDescriptor::host_for`],
//! [`DeploymentDescriptor::opens_jdbc`]), called by the binder too. The
//! binder's own warm (second) bind of the same page makes the identical
//! decisions, which is what the golden cross-validation test checks
//! crossing-by-crossing.

use std::collections::BTreeSet;

use mutsvc_middleware::{
    Action, Call, ComponentId, ComponentKind, ComponentRegistry, Crossing, CrossingKind, DbAccess,
    DeploymentDescriptor, MutateAction, PageRequest, QueryAction, UpdatePropagation,
};
use mutsvc_netsim::{NodeId, Topology};
use mutsvc_relstore::{Database, Query, TableId};

/// How a read was served locally (for staleness lint context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadVia {
    /// From a read-only entity replica row.
    Replica,
    /// From an edge query cache.
    QueryCache,
}

/// One lint-relevant event observed during the walk, with the invocation
/// path where it happened.
#[derive(Debug, Clone)]
pub struct WalkEvent {
    /// The component executing the action.
    pub component: ComponentId,
    /// The node it executed on.
    pub node: NodeId,
    /// Invocation path (`web.doGet > Catalog.getItem`).
    pub path: String,
    /// What happened.
    pub kind: WalkEventKind,
}

/// Lint-relevant event kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkEventKind {
    /// An `n+1`-style BMP finder issued direct JDBC across the WAN (W101).
    FinderOverWan {
        /// The queried table.
        table: TableId,
    },
    /// A session-tier component executed a write across the WAN (W102).
    SessionWriteOverWan {
        /// The written table.
        table: TableId,
    },
    /// A locally cached read of data this page wrote earlier, under
    /// asynchronous propagation (W105).
    StaleReadAfterWrite {
        /// The read table.
        table: TableId,
        /// How the read was served.
        via: ReadVia,
    },
}

/// One read served from locally cached state (entity replica row or edge
/// query cache) during the walk — the program points the staleness dataflow
/// abstract-interprets.
#[derive(Debug, Clone)]
pub struct CachedRead {
    /// The table read.
    pub table: TableId,
    /// How the read was served.
    pub via: ReadVia,
    /// The node holding the cached state.
    pub node: NodeId,
    /// The component issuing the read.
    pub component: ComponentId,
    /// Invocation path of the read site.
    pub path: String,
}

/// The result of statically walking one page from one entry server.
#[derive(Debug)]
pub struct PageWalk {
    /// Page name.
    pub page: String,
    /// Entry server used.
    pub entry: NodeId,
    /// Node crossings on the synchronous path, in call-tree order — the same
    /// sequence the binder records on a warm bind.
    pub crossings: Vec<Crossing>,
    /// Lint-relevant events.
    pub events: Vec<WalkEvent>,
    /// Cacheable tags issued by this page's queries.
    pub tags_issued: BTreeSet<String>,
    /// Tables this page writes.
    pub written_tables: BTreeSet<TableId>,
    /// Every read served from cached state, in call-tree order.
    pub cached_reads: Vec<CachedRead>,
}

/// The entry server a remote edge-1 client uses for `page`: the edge when
/// the root web component is deployed there, otherwise the main server
/// (mirrors the workload driver's group wiring).
pub fn entry_node(
    descriptor: &DeploymentDescriptor,
    edge: NodeId,
    central: NodeId,
    page: &PageRequest,
) -> NodeId {
    if descriptor.placement(page.root.component).hosts(edge) {
        edge
    } else {
        central
    }
}

/// Statically walks `page` as served from `entry`. A crossing is wide-area
/// when its route over `topology` traverses a WAN link
/// ([`Topology::wan_hops`]).
pub fn walk_page(
    registry: &ComponentRegistry,
    descriptor: &DeploymentDescriptor,
    db: &Database,
    topology: &Topology,
    entry: NodeId,
    page: &PageRequest,
) -> PageWalk {
    let mut walker = Walker {
        registry,
        descriptor,
        db,
        topology,
        crossings: Vec::new(),
        events: Vec::new(),
        tags_issued: BTreeSet::new(),
        written_tables: BTreeSet::new(),
        cached_reads: Vec::new(),
        path: Vec::new(),
    };
    walker.walk_call(entry, &page.root);
    PageWalk {
        page: page.page.clone(),
        entry,
        crossings: walker.crossings,
        events: walker.events,
        tags_issued: walker.tags_issued,
        written_tables: walker.written_tables,
        cached_reads: walker.cached_reads,
    }
}

struct Walker<'a> {
    registry: &'a ComponentRegistry,
    descriptor: &'a DeploymentDescriptor,
    db: &'a Database,
    topology: &'a Topology,
    crossings: Vec<Crossing>,
    events: Vec<WalkEvent>,
    tags_issued: BTreeSet<String>,
    written_tables: BTreeSet<TableId>,
    cached_reads: Vec<CachedRead>,
    path: Vec<String>,
}

impl Walker<'_> {
    fn path_string(&self) -> String {
        self.path.join(" > ")
    }

    fn walk_call(&mut self, caller: NodeId, call: &Call) {
        let spec = self.registry.spec(call.component);
        let host = self.descriptor.host_for(spec.kind, caller, call);
        self.path.push(format!("{}.{}", spec.name, call.op));
        if host != caller {
            // Steady state: with stub caching the home stub is already held;
            // without it, every remote call pays a JNDI exchange first.
            let naming = self.descriptor.central_node;
            if !self.descriptor.stub_caching && caller != naming {
                self.crossings.push(Crossing {
                    from: caller,
                    to: naming,
                    kind: CrossingKind::Jndi,
                });
            }
            self.crossings.push(Crossing {
                from: caller,
                to: host,
                kind: CrossingKind::Rmi,
            });
        }
        for action in &call.actions {
            match action {
                Action::Invoke(invoke) => self.walk_call(host, &invoke.call),
                Action::Query(qa) => self.walk_query(host, call.component, qa),
                Action::Mutate(ma) => self.walk_mutation(host, call.component, ma),
            }
        }
        self.path.pop();
    }

    fn walk_query(&mut self, host: NodeId, component: ComponentId, qa: &QueryAction) {
        if let Some(tag) = &qa.tag {
            self.tags_issued.insert(tag.clone());
        }
        let spec = self.registry.spec(component);
        let placement = self.descriptor.placement(component);
        let table = qa.query.table();

        // Read-only entity replica (§4.3): warm by-pk reads are local hits,
        // finders always delegate to the authoritative primary.
        if spec.kind == ComponentKind::Entity && host != placement.primary {
            match &qa.query {
                Query::ByPk { .. } => {
                    self.note_cached_read(host, component, table, ReadVia::Replica);
                }
                _ => self.remote_fetch(host),
            }
            return;
        }

        // Edge query cache (§4.4): warm covered queries are local hits.
        if let Some(tag) = &qa.tag {
            if self.descriptor.query_cache.covers(host, tag) {
                self.note_cached_read(host, component, table, ReadVia::QueryCache);
                return;
            }
        }

        // Plain database access, or delegation to the central façade.
        let db_node = self.descriptor.db_node;
        if self.descriptor.opens_jdbc(spec.kind, host) {
            if host != db_node {
                let trips = qa
                    .access
                    .round_trips(self.db.execute(&qa.query).row_count());
                self.crossings.push(Crossing {
                    from: host,
                    to: db_node,
                    kind: CrossingKind::Jdbc { trips },
                });
                if qa.access == DbAccess::BmpFinder && self.topology.wan_hops(host, db_node) > 0 {
                    self.events.push(WalkEvent {
                        component,
                        node: host,
                        path: self.path_string(),
                        kind: WalkEventKind::FinderOverWan { table },
                    });
                }
            }
        } else {
            self.remote_fetch(host);
        }
    }

    /// One delegated fetch through the central façade, plus its LAN JDBC leg.
    fn remote_fetch(&mut self, host: NodeId) {
        let central = self.descriptor.central_node;
        let db_node = self.descriptor.db_node;
        if host != central {
            self.crossings.push(Crossing {
                from: host,
                to: central,
                kind: CrossingKind::Fetch,
            });
        }
        if central != db_node {
            self.crossings.push(Crossing {
                from: central,
                to: db_node,
                kind: CrossingKind::Jdbc { trips: 1 },
            });
        }
    }

    fn walk_mutation(&mut self, host: NodeId, component: ComponentId, ma: &MutateAction) {
        let db_node = self.descriptor.db_node;
        let table = ma.mutation.table();
        if host != db_node {
            self.crossings.push(Crossing {
                from: host,
                to: db_node,
                kind: CrossingKind::Jdbc { trips: 1 },
            });
        }
        self.written_tables.insert(table);
        let kind = self.registry.spec(component).kind;
        let session_tier = matches!(
            kind,
            ComponentKind::StatefulSession | ComponentKind::StatelessSession
        );
        if session_tier && self.topology.wan_hops(host, db_node) > 0 {
            self.events.push(WalkEvent {
                component,
                node: host,
                path: self.path_string(),
                kind: WalkEventKind::SessionWriteOverWan { table },
            });
        }
    }

    /// A read served from local cached state: always recorded as a
    /// [`CachedRead`] site for the staleness dataflow, and flagged inline
    /// when this page already wrote the same table and propagation is
    /// asynchronous — the warm cache still holds the pre-write value when
    /// the response is assembled (W105).
    fn note_cached_read(
        &mut self,
        host: NodeId,
        component: ComponentId,
        table: TableId,
        via: ReadVia,
    ) {
        self.cached_reads.push(CachedRead {
            table,
            via,
            node: host,
            component,
            path: self.path_string(),
        });
        if !self.written_tables.contains(&table) {
            return;
        }
        let propagation = match via {
            ReadVia::Replica => self.descriptor.entity_propagation,
            ReadVia::QueryCache => self.descriptor.query_cache.propagation,
        };
        if propagation == UpdatePropagation::AsyncPush {
            self.events.push(WalkEvent {
                component,
                node: host,
                path: self.path_string(),
                kind: WalkEventKind::StaleReadAfterWrite { table, via },
            });
        }
    }
}
