//! Live container state.
//!
//! The binder consults and mutates *real* cache state rather than assumed hit
//! ratios: read-only entity replicas track which rows are loaded and valid,
//! query-cache containers track which results are cached and fresh, and stub
//! caches track which `(node, component)` pairs have resolved their
//! home/remote stubs. Warm-up behaviour therefore emerges naturally, and
//! invariants such as §4.3's zero-staleness guarantee are testable.
//!
//! Each query-cache node keeps one [`QueryCache`], which indexes its results
//! by predicate: a write looks up the results it invalidates
//! ([`ContainerState::affected_queries`]) instead of testing every result
//! cached on the written table.
//!
//! The maps are Fx-hashed ([`mutsvc_desim::hash`]). No iteration of them
//! reaches an output: [`ContainerState::loaded_rows`] sorts, and eviction
//! only retains.

use mutsvc_desim::hash::{FxHashMap, FxHashSet};
use mutsvc_netsim::NodeId;
use mutsvc_relstore::{MutationEffect, Query, QueryCache, RowId};

use crate::component::ComponentId;

/// State of one read-only entity replica's row cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCacheState {
    /// Never loaded at this replica.
    Absent,
    /// Loaded and fresh.
    Valid,
    /// Loaded but invalidated by a write (pull propagation).
    Invalid,
}

/// Mutable runtime state of every container in the deployment.
#[derive(Debug, Clone, Default)]
pub struct ContainerState {
    /// Read-only entity replica caches: (entity, node) → row → valid?
    entity_rows: FxHashMap<(ComponentId, NodeId), FxHashMap<RowId, bool>>,
    /// Query caches: node → its cached results, indexed by predicate.
    query_results: FxHashMap<NodeId, QueryCache>,
    /// Resolved stubs: (node, component).
    stubs: FxHashSet<(NodeId, ComponentId)>,
    /// Monotonic version counter per entity row, for staleness audits.
    versions: FxHashMap<(ComponentId, RowId), u64>,
    /// Version last seen by each replica row, for staleness audits.
    replica_versions: FxHashMap<(ComponentId, NodeId, RowId), u64>,
}

impl ContainerState {
    /// Creates empty (cold) state.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- entity replica rows ----------------------------------------------

    /// The cache state of `row` at the replica of `entity` on `node`.
    pub fn entity_row(&self, entity: ComponentId, node: NodeId, row: RowId) -> RowCacheState {
        match self
            .entity_rows
            .get(&(entity, node))
            .and_then(|m| m.get(&row))
        {
            None => RowCacheState::Absent,
            Some(true) => RowCacheState::Valid,
            Some(false) => RowCacheState::Invalid,
        }
    }

    /// Marks `row` loaded-and-valid at a replica (after a miss fetch or a
    /// pushed update) and records the version it now reflects.
    pub fn load_entity_row(&mut self, entity: ComponentId, node: NodeId, row: RowId) {
        self.entity_rows
            .entry((entity, node))
            .or_default()
            .insert(row, true);
        let version = self.version(entity, row);
        self.replica_versions.insert((entity, node, row), version);
    }

    /// Invalidates `row` at a replica if it is loaded (pull propagation).
    pub fn invalidate_entity_row(&mut self, entity: ComponentId, node: NodeId, row: RowId) {
        if let Some(rows) = self.entity_rows.get_mut(&(entity, node)) {
            if let Some(valid) = rows.get_mut(&row) {
                *valid = false;
            }
        }
    }

    /// Rows currently loaded (valid or not) at a replica.
    pub fn loaded_rows(&self, entity: ComponentId, node: NodeId) -> Vec<RowId> {
        let mut rows: Vec<RowId> = self
            .entity_rows
            .get(&(entity, node))
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        rows.sort_unstable();
        rows
    }

    // ---- versions / staleness ---------------------------------------------

    /// Bumps the authoritative version of an entity row (a committed write).
    pub fn bump_version(&mut self, entity: ComponentId, row: RowId) -> u64 {
        let v = self.versions.entry((entity, row)).or_insert(0);
        *v += 1;
        *v
    }

    /// The authoritative version of an entity row.
    pub fn version(&self, entity: ComponentId, row: RowId) -> u64 {
        self.versions.get(&(entity, row)).copied().unwrap_or(0)
    }

    /// The version a replica row last reflected.
    pub fn replica_version(&self, entity: ComponentId, node: NodeId, row: RowId) -> u64 {
        self.replica_versions
            .get(&(entity, node, row))
            .copied()
            .unwrap_or(0)
    }

    /// Version lag of a replica row: 0 means fresh.
    pub fn staleness(&self, entity: ComponentId, node: NodeId, row: RowId) -> u64 {
        self.version(entity, row)
            .saturating_sub(self.replica_version(entity, node, row))
    }

    // ---- query caches -------------------------------------------------------

    /// Whether `query` is cached-and-valid at `node`.
    pub fn query_cached(&self, node: NodeId, query: &Query) -> bool {
        self.query_results
            .get(&node)
            .is_some_and(|c| c.is_valid(query))
    }

    /// Stores (or refreshes) a query result at `node`.
    pub fn cache_query(&mut self, node: NodeId, query: Query) {
        self.query_results.entry(node).or_default().cache(query);
    }

    /// Invalidates a cached query at `node` if present; returns whether it
    /// was cached.
    pub fn invalidate_query(&mut self, node: NodeId, query: &Query) -> bool {
        self.query_results
            .get_mut(&node)
            .is_some_and(|c| c.invalidate(query))
    }

    /// Pushes `(node, q)` onto `out` for every query `q` stored (valid or
    /// not) at `node` that `effect` invalidates; see
    /// [`QueryCache::affected`].
    pub fn affected_queries(
        &self,
        node: NodeId,
        effect: &MutationEffect,
        out: &mut Vec<(NodeId, Query)>,
    ) {
        if let Some(cache) = self.query_results.get(&node) {
            cache.affected(effect, |q| out.push((node, q)));
        }
    }

    // ---- stub caches --------------------------------------------------------

    /// Whether `node` has resolved stubs for `component`.
    pub fn stub_cached(&self, node: NodeId, component: ComponentId) -> bool {
        self.stubs.contains(&(node, component))
    }

    /// Records a resolved stub.
    pub fn cache_stub(&mut self, node: NodeId, component: ComponentId) {
        self.stubs.insert((node, component));
    }

    // ---- failure semantics --------------------------------------------------

    /// Drops every cache `node` holds: entity rows, query results, resolved
    /// stubs, and replica sync watermarks. Models a container process crash —
    /// the restarted process comes back cold (per §4.3–§4.4 every cache is
    /// memory-resident) and must re-warm. Authoritative row versions live
    /// with the database, not the container, and are untouched.
    pub fn evict_node(&mut self, node: NodeId) {
        self.entity_rows.retain(|(_, n), _| *n != node);
        self.query_results.remove(&node);
        self.stubs.retain(|(n, _)| *n != node);
        self.replica_versions.retain(|(_, n, _), _| *n != node);
    }

    /// Drops every node's resolved stubs for one component. A migrated
    /// component's cached home/remote stubs point at the old host; callers
    /// re-resolve through JNDI on next use (paying the lookup round trip the
    /// stub cache normally elides).
    pub fn invalidate_component_stubs(&mut self, component: ComponentId) {
        self.stubs.retain(|(_, c)| *c != component);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (ComponentId, NodeId, NodeId) {
        // Construct through public registries in other crates' tests; here we
        // only need opaque ids.
        let mut reg = crate::component::ComponentRegistry::new();
        let c = reg.register("c", crate::component::ComponentKind::StatelessSession);
        let mut tb = mutsvc_netsim::TopologyBuilder::new();
        let a = tb.node("a", 1);
        let b = tb.node("b", 1);
        tb.duplex_link(a, b, mutsvc_desim::SimDuration::from_millis(1), 1e6);
        (c, a, b)
    }

    #[test]
    fn entity_row_lifecycle() {
        let (e, main, edge) = ids();
        let mut s = ContainerState::new();
        let row = RowId(7);
        assert_eq!(s.entity_row(e, edge, row), RowCacheState::Absent);
        s.load_entity_row(e, edge, row);
        assert_eq!(s.entity_row(e, edge, row), RowCacheState::Valid);
        s.invalidate_entity_row(e, edge, row);
        assert_eq!(s.entity_row(e, edge, row), RowCacheState::Invalid);
        s.load_entity_row(e, edge, row);
        assert_eq!(s.entity_row(e, edge, row), RowCacheState::Valid);
        assert_eq!(s.entity_row(e, main, row), RowCacheState::Absent);
        assert_eq!(s.loaded_rows(e, edge), vec![row]);
    }

    #[test]
    fn invalidating_an_absent_row_is_a_noop() {
        let (e, _, edge) = ids();
        let mut s = ContainerState::new();
        s.invalidate_entity_row(e, edge, RowId(1));
        assert_eq!(s.entity_row(e, edge, RowId(1)), RowCacheState::Absent);
    }

    #[test]
    fn staleness_tracks_version_lag() {
        let (e, _, edge) = ids();
        let mut s = ContainerState::new();
        let row = RowId(1);
        s.load_entity_row(e, edge, row);
        assert_eq!(s.staleness(e, edge, row), 0);
        s.bump_version(e, row);
        s.bump_version(e, row);
        assert_eq!(s.staleness(e, edge, row), 2);
        s.load_entity_row(e, edge, row); // pushed update arrives
        assert_eq!(s.staleness(e, edge, row), 0);
        assert_eq!(s.version(e, row), 2);
    }

    #[test]
    fn query_cache_lifecycle() {
        let (_, _, edge) = ids();
        let mut dbb = mutsvc_relstore::DatabaseBuilder::new();
        let t = dbb.table("t", &["a"], 10);
        let q = Query::All { table: t };
        let mut s = ContainerState::new();
        assert!(!s.query_cached(edge, &q));
        s.cache_query(edge, q.clone());
        assert!(s.query_cached(edge, &q));
        assert!(s.invalidate_query(edge, &q));
        assert!(!s.query_cached(edge, &q));
        assert!(!s.invalidate_query(
            edge,
            &Query::ByPk {
                table: t,
                id: RowId(1)
            }
        ));
        // An invalidated result stays stored until it is re-cached.
        assert!(s.invalidate_query(edge, &q));
        s.cache_query(edge, q.clone());
        assert!(s.query_cached(edge, &q));
    }

    #[test]
    fn stub_cache() {
        let (c, a, _) = ids();
        let mut s = ContainerState::new();
        assert!(!s.stub_cached(a, c));
        s.cache_stub(a, c);
        assert!(s.stub_cached(a, c));
    }

    #[test]
    fn component_stub_invalidation_spans_nodes_but_not_components() {
        let (_, a, b) = ids();
        let mut reg = crate::component::ComponentRegistry::new();
        let c = reg.register("c", crate::component::ComponentKind::StatelessSession);
        let other = reg.register("other", crate::component::ComponentKind::StatelessSession);
        let mut s = ContainerState::new();
        s.cache_stub(a, c);
        s.cache_stub(b, c);
        s.cache_stub(a, other);
        s.invalidate_component_stubs(c);
        assert!(!s.stub_cached(a, c) && !s.stub_cached(b, c));
        assert!(s.stub_cached(a, other), "other components keep their stubs");
    }

    /// A crash evicts every cache on the node — entity rows, query results,
    /// stubs, replica watermarks — while other nodes and the authoritative
    /// versions survive.
    #[test]
    fn evict_node_cold_starts_only_that_node() {
        let (e, main, edge) = ids();
        let mut dbb = mutsvc_relstore::DatabaseBuilder::new();
        let t = dbb.table("t", &["a"], 10);
        let q = Query::All { table: t };
        let row = RowId(3);
        let mut s = ContainerState::new();
        s.bump_version(e, row);
        s.load_entity_row(e, edge, row);
        s.load_entity_row(e, main, row);
        s.cache_query(edge, q.clone());
        s.cache_stub(edge, e);
        assert_eq!(s.staleness(e, edge, row), 0);

        s.evict_node(edge);
        assert_eq!(s.entity_row(e, edge, row), RowCacheState::Absent);
        assert!(!s.query_cached(edge, &q));
        assert!(!s.stub_cached(edge, e));
        // The restarted container is detectably behind the authority…
        assert_eq!(s.staleness(e, edge, row), 1);
        // …while the untouched node and the authoritative version survive.
        assert_eq!(s.entity_row(e, main, row), RowCacheState::Valid);
        assert_eq!(s.version(e, row), 1);
    }
}
