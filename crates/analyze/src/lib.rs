//! # mutsvc-analyze — static wide-area deployment linter
//!
//! Walks every page's logical invocation tree against a deployment
//! descriptor **without executing the simulator** and checks the paper's
//! design rules:
//!
//! * the §4.2 invariant — remote-façade pages make at most one wide-area
//!   round trip (two for Pet Store's *VerifySignIn*), zero for the
//!   centralized baseline;
//! * descriptor validity — every component placed, on a hosting node, with
//!   the propagation machinery its declarations require;
//! * wide-area anti-pattern lints — `n+1` BMP finders over the WAN (the
//!   paper's motivating pathology), session façades writing across the WAN,
//!   disabled stub caching, dead or uncovered cacheable-query tags, and
//!   read-your-writes staleness hazards under asynchronous propagation.
//!
//! The static walker mirrors the binder's resolution rules under steady
//! state; a golden test cross-validates its crossing sequences against
//! [`mutsvc_middleware::Binder`]'s own warm-bind introspection, so the
//! linter cannot drift from the executable semantics.
//!
//! Diagnostic codes are stable:
//!
//! | Code | Meaning |
//! |------|---------|
//! | `E001` | writes to a table land across the WAN from the database |
//! | `E002` | push propagation declared without the machinery it needs |
//! | `E003` | page exceeds its §4.2 wide-area round-trip budget |
//! | `E004` | component unplaced or placed on a non-hosting node |
//! | `W101` | BMP-style `n+1` finder issued over the WAN |
//! | `W102` | session façade writes across the WAN |
//! | `W103` | stub caching disabled while remote calls exist |
//! | `W104` | cacheable tag never issued, or issued tag not declared |
//! | `W105` | read-your-writes staleness hazard under async propagation |
//! | `W106` | replicated stateful session not hosted on the central node |
//! | `W107` | caching machinery deployed but no page is ever memoizable |
//! | `W108` | traced WAN round trips disagree with the static walk |
//! | `W109` | every read-only page needs the wide area: a WAN partition blanks the edges |
//! | `E005` | a page can observe its own write rolled back after failover |
//! | `W110` | unbounded staleness reachable on a read path |
//! | `W111` | failover target statically unreachable during its episode |
//! | `W112` | binder crossing routes through ≥2 WAN hops (one-hop budget assumption broken) |
//! | `W113` | SLO latency objective below the static WAN round-trip floor |
//!
//! Beyond the flat walk, three dataflow analyses run over the walked pages:
//! a staleness lattice ([`dataflow`]) abstract-interprets every cached read
//! against the propagation machinery and propagates written tables across
//! pages along the service-usage flow graphs; a reachability analysis
//! ([`reachability`]) predicts per-episode availability under the standard
//! fault suite; and the multi-hop path cost ([`paths`]) charges every
//! crossing by its shortest-path WAN hop count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod diagnostics;
pub mod explain;
pub mod paths;
pub mod reachability;
pub mod walker;

use std::collections::BTreeSet;

use mutsvc_apps::SessionFlow;
use mutsvc_core::{wan_invariant, AppKind, Config, PaperNodes, Scenario, WanInvariant};
use mutsvc_middleware::{
    ComponentKind, ComponentRegistry, CrossingKind, DeploymentDescriptor, PageRequest,
    UpdatePropagation,
};
use mutsvc_netsim::{NodeId, Topology};
use mutsvc_relstore::Database;
use mutsvc_workload::SloSpec;
use paths::hop_weighted_wan_trips;

pub use dataflow::{analyze_staleness, site_staleness, Staleness, StalenessAnalysis};
pub use diagnostics::{
    sarif_document, AvailabilityRow, CrossingNote, Diagnostic, PageWanCost, Report, Severity, Span,
};
pub use explain::{explain, CodeDoc, CODES};
pub use reachability::{
    predict_availability, AvailabilityAnalysis, EpisodePrediction, FaultContext, PageFate,
};
pub use walker::{entry_node, walk_page, CachedRead, PageWalk, ReadVia, WalkEvent, WalkEventKind};

/// Everything the analyzer needs about one application × configuration.
pub struct AnalyzeInput<'a> {
    /// Application name for reporting.
    pub app_name: &'a str,
    /// Component inventory.
    pub registry: &'a ComponentRegistry,
    /// The deployment under analysis.
    pub descriptor: &'a DeploymentDescriptor,
    /// Populated database (read-only; used for finder result-set sizes).
    pub db: &'a Database,
    /// The paper topology's named nodes (entry wiring and reporting labels).
    pub nodes: &'a PaperNodes,
    /// The weighted topology graph (multi-hop WAN path costs, episode
    /// reachability).
    pub topology: &'a Topology,
    /// Every page to walk.
    pub pages: &'a [PageRequest],
    /// The service-usage patterns' page-flow graphs (inter-page dataflow
    /// and availability page weights).
    pub flows: &'a [SessionFlow],
    /// The §4.2 budget to enforce.
    pub invariant: WanInvariant,
    /// Fault model to verify availability against (`None` skips the
    /// reachability analysis and E005/W111).
    pub fault_context: Option<FaultContext>,
}

/// The human-readable name of a paper-topology node.
pub fn node_label(nodes: &PaperNodes, id: NodeId) -> String {
    let named = [
        (nodes.main, "main"),
        (nodes.edge1, "edge1"),
        (nodes.edge2, "edge2"),
        (nodes.db, "db"),
        (nodes.router, "router"),
        (nodes.client_local, "client-local"),
        (nodes.client_edge1, "client-edge1"),
        (nodes.client_edge2, "client-edge2"),
    ];
    named
        .iter()
        .find(|&&(n, _)| n == id)
        .map_or_else(|| id.to_string(), |&(_, label)| label.to_string())
}

fn kind_label(kind: CrossingKind) -> &'static str {
    match kind {
        CrossingKind::Rmi => "rmi",
        CrossingKind::Jndi => "jndi",
        CrossingKind::Fetch => "fetch",
        CrossingKind::Jdbc { .. } => "jdbc",
    }
}

/// Analyzes one deployment: validity first, then a static walk of every
/// page, then the budget check and lints. Returns the full report; callers
/// decide what to do with errors ([`Report::has_errors`]).
pub fn analyze(input: &AnalyzeInput<'_>) -> Report {
    let mut report = Report {
        app: input.app_name.to_string(),
        config: input.descriptor.name.clone(),
        pages: Vec::new(),
        diagnostics: Vec::new(),
        availability: Vec::new(),
        staleness_iterations: 0,
        staleness_converged: true,
    };

    check_placements(input, &mut report);
    if report.has_errors() {
        // Unplaced components would panic the walker; stop at validity.
        report.sort_diagnostics();
        return report;
    }

    let walks = walk_all_pages(input, &mut report);
    check_wan_budget(input, &walks, &mut report);
    check_multi_hop_crossings(input, &walks, &mut report);
    check_write_locality(input, &walks, &mut report);
    check_propagation_machinery(input, &mut report);
    check_stub_caching(input, &walks, &mut report);
    check_query_tags(input, &walks, &mut report);
    check_stateful_replicas(input, &mut report);
    check_plan_cacheability(input, &walks, &mut report);
    check_wan_single_point_of_failure(input, &walks, &mut report);
    emit_walk_lints(input, &walks, &mut report);

    let staleness = analyze_staleness(input.descriptor, input.flows, &walks);
    report.staleness_iterations = staleness.iterations;
    report.staleness_converged = staleness.converged;
    for page in &mut report.pages {
        if let Some(bound) = staleness.page_bounds.get(&page.page) {
            page.staleness = bound.label();
        }
    }
    emit_staleness_lints(input, &staleness, &mut report);

    if let Some(ctx) = &input.fault_context {
        let analysis = predict_availability(input, ctx, &walks);
        emit_fault_lints(input, ctx, &staleness, &analysis, &mut report);
        report.availability = analysis
            .episodes
            .iter()
            .map(|e| AvailabilityRow {
                episode: e.episode.clone(),
                availability: e.availability,
            })
            .collect();
    }

    report.sort_diagnostics();
    report
}

/// Builds the full analysis for a paper scenario: application, descriptor,
/// topology, usage flows, invariant table and standard fault suite exactly
/// as the simulator would assemble them, with the fault episodes scheduled
/// in [`Scenario::quick`]'s windows.
pub fn analyze_target(app: AppKind, config: Config) -> Report {
    let scenario = Scenario::quick(app, config);
    let (input, nodes) = scenario.build();
    let pages = input.app.all_pages();
    let flows = input.app.session_flows();
    let fault_context =
        FaultContext::standard(&input.topology, &nodes, scenario.warmup, scenario.duration);
    analyze(&AnalyzeInput {
        app_name: app.name(),
        registry: &input.registry,
        descriptor: &input.descriptor,
        db: &input.db,
        nodes: &nodes,
        topology: &input.topology,
        pages: &pages,
        flows: &flows,
        invariant: wan_invariant(config),
        fault_context: Some(fault_context),
    })
}

/// W108: cross-checks a traced run's per-page WAN round trips against the
/// static walker's counts.
///
/// `traced` holds `(page, mean WAN round trips)` pairs from a traced
/// simulator run — the *logical* accounting the tracer records from the
/// binder's crossing list, which is defined on the same terms as the static
/// walk (synchronous call tree, HTTP/TCP envelope and sampled DGC chatter
/// excluded; the trace's measured critical-path decomposition reports those
/// separately). A disagreement beyond one round trip means the deployment
/// is not executing the calls the analyzer reasoned about — a stale
/// descriptor, a diverged walker, or a misconfigured run — and appends a
/// `W108` warning for the page. Returns the number of warnings added;
/// pages absent from the static report are ignored.
pub fn cross_check_traced_wan(report: &mut Report, traced: &[(String, f64)]) -> usize {
    let mut added = 0;
    for (page, traced_rts) in traced {
        let Some(cost) = report.pages.iter().find(|p| &p.page == page) else {
            continue;
        };
        let static_rts = f64::from(cost.wan_round_trips);
        if (static_rts - traced_rts).abs() > 1.0 {
            report.diagnostics.push(Diagnostic {
                code: "W108",
                severity: Severity::Warning,
                component: None,
                node: None,
                message: format!(
                    "page `{page}` averaged {traced_rts:.2} wide-area round trips in the \
                     traced run but the static walk counts {static_rts:.0}; the deployment \
                     is not behaving as analyzed"
                ),
                span: Span::page(page.clone(), "traced run vs static walk"),
            });
            added += 1;
        }
    }
    if added > 0 {
        report.sort_diagnostics();
    }
    added
}

/// W113: a latency objective the wide area makes unsatisfiable.
///
/// Each hop-weighted wide-area round trip the static walker counts for a
/// page costs at least two traversals of the topology's cheapest WAN leg,
/// so `wan_round_trips × 2 × min WAN one-way latency` lower-bounds the
/// page's response time regardless of seed, load or caching luck. A
/// latency objective whose threshold sits below that floor can never be
/// met — every run would grade it as missed — so the spec is flagged
/// statically before simulation time is spent, mirroring what
/// [`cross_check_traced_wan`] (W108) does for traced round-trip counts.
/// Objectives naming pages the static report does not cost, and
/// topologies with no WAN legs at all, produce no warnings. Returns the
/// number of warnings added.
pub fn check_slo_reachability(report: &mut Report, slo: &SloSpec, topology: &Topology) -> usize {
    let Some(min_leg) = topology.min_wan_latency() else {
        return 0;
    };
    let rtt_ms = min_leg.as_millis_f64() * 2.0;
    let mut added = 0;
    for obj in &slo.objectives {
        let Some(cost) = report.pages.iter().find(|p| p.page == obj.page) else {
            continue;
        };
        let floor = f64::from(cost.wan_round_trips) * rtt_ms;
        if obj.latency_ms < floor {
            report.diagnostics.push(Diagnostic {
                code: "W113",
                severity: Severity::Warning,
                component: None,
                node: None,
                message: format!(
                    "SLO wants {:.1}% of `{}` under {:.0} ms, but its {} static wide-area \
                     round trips cost at least {floor:.0} ms on this topology's cheapest \
                     WAN leg ({rtt_ms:.0} ms per round trip); the objective is \
                     unsatisfiable as deployed",
                    obj.target * 100.0,
                    obj.page,
                    obj.latency_ms,
                    cost.wan_round_trips,
                ),
                span: Span::page(obj.page.clone(), "SLO objective vs static WAN floor"),
            });
            added += 1;
        }
    }
    if added > 0 {
        report.sort_diagnostics();
    }
    added
}

/// E004: every component must be placed, and only on hosting nodes (the
/// three application servers and the database host — never the router or a
/// client LAN), and every page root must sit on an entry server.
fn check_placements(input: &AnalyzeInput<'_>, report: &mut Report) {
    let nodes = input.nodes;
    let valid_hosts = [nodes.main, nodes.edge1, nodes.edge2, nodes.db];
    for id in input.registry.ids() {
        let spec = input.registry.spec(id);
        match input.descriptor.placements.get(&id) {
            None => report.diagnostics.push(Diagnostic {
                code: "E004",
                severity: Severity::Error,
                component: Some(spec.name.clone()),
                node: None,
                message: format!("component `{}` is not placed on any node", spec.name),
                span: Span::descriptor("descriptor.placements"),
            }),
            Some(placement) => {
                for node in placement.nodes() {
                    if !valid_hosts.contains(&node) {
                        report.diagnostics.push(Diagnostic {
                            code: "E004",
                            severity: Severity::Error,
                            component: Some(spec.name.clone()),
                            node: Some(node_label(nodes, node)),
                            message: format!(
                                "component `{}` is placed on `{}`, which is not an \
                                 application hosting node",
                                spec.name,
                                node_label(nodes, node)
                            ),
                            span: Span::descriptor("descriptor.placements"),
                        });
                    }
                }
            }
        }
    }
    for page in input.pages {
        let Some(placement) = input.descriptor.placements.get(&page.root.component) else {
            continue; // already reported above
        };
        if !placement.hosts(nodes.edge1) && !placement.hosts(nodes.main) {
            let spec = input.registry.spec(page.root.component);
            report.diagnostics.push(Diagnostic {
                code: "E004",
                severity: Severity::Error,
                component: Some(spec.name.clone()),
                node: None,
                message: format!(
                    "root web component `{}` of page `{}` is deployed on neither an edge \
                     entry server nor the central server",
                    spec.name, page.page
                ),
                span: Span::page(page.page.clone(), String::new()),
            });
        }
    }
}

fn walk_all_pages(input: &AnalyzeInput<'_>, report: &mut Report) -> Vec<PageWalk> {
    let nodes = input.nodes;
    let mut walks = Vec::with_capacity(input.pages.len());
    for page in input.pages {
        let entry = entry_node(input.descriptor, nodes.edge1, nodes.main, page);
        let walk = walk_page(
            input.registry,
            input.descriptor,
            input.db,
            input.topology,
            entry,
            page,
        );
        let crossings = walk
            .crossings
            .iter()
            .map(|c| {
                let hops = input.topology.wan_hops(c.from, c.to);
                CrossingNote {
                    from: node_label(nodes, c.from),
                    to: node_label(nodes, c.to),
                    kind: kind_label(c.kind).to_string(),
                    trips: c.round_trips(),
                    wan: hops > 0,
                    wan_hops: hops,
                }
            })
            .collect();
        report.pages.push(PageWanCost {
            page: walk.page.clone(),
            entry: node_label(nodes, entry),
            wan_round_trips: hop_weighted_wan_trips(input.topology, &walk),
            limit: input.invariant.page_limit(&walk.page),
            staleness: "fresh".to_string(),
            crossings,
        });
        walks.push(walk);
    }
    walks
}

/// E003: the §4.2 invariant — each page within its wide-area budget.
fn check_wan_budget(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    let nodes = input.nodes;
    for walk in walks {
        let wan = hop_weighted_wan_trips(input.topology, walk);
        let limit = input.invariant.page_limit(&walk.page);
        if wan > limit {
            report.diagnostics.push(Diagnostic {
                code: "E003",
                severity: Severity::Error,
                component: None,
                node: Some(node_label(nodes, walk.entry)),
                message: format!(
                    "page `{}` makes {wan} wide-area round trips from entry `{}` \
                     (budget: {limit})",
                    walk.page,
                    node_label(nodes, walk.entry)
                ),
                span: Span::page(walk.page.clone(), String::new()),
            });
        }
    }
}

/// E001: the authoritative (read-write) instance of every written entity
/// must sit next to the database — a WAN-separated primary means every
/// write from it crosses the wide area, so the node holds what is
/// effectively a read-only replica.
fn check_write_locality(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    let written: BTreeSet<_> = walks
        .iter()
        .flat_map(|w| w.written_tables.iter().copied())
        .collect();
    let db_node = input.descriptor.db_node;
    for table in written {
        for entity in input.registry.entities_of_table(table) {
            let primary = input.descriptor.placement(entity).primary;
            if input.topology.wan_hops(primary, db_node) > 0 {
                let spec = input.registry.spec(entity);
                report.diagnostics.push(Diagnostic {
                    code: "E001",
                    severity: Severity::Error,
                    component: Some(spec.name.clone()),
                    node: Some(node_label(input.nodes, primary)),
                    message: format!(
                        "writes to table `{}` go through entity `{}` whose primary `{}` is \
                         across the WAN from the database `{}`",
                        input.db.table(table).name(),
                        spec.name,
                        node_label(input.nodes, primary),
                        node_label(input.nodes, db_node)
                    ),
                    span: Span::descriptor("descriptor.placements"),
                });
            }
        }
    }
}

/// E002: push-mode propagation needs its machinery — replicas to push to,
/// a placed JMS broker, and message-driven receivers at every push target.
fn check_propagation_machinery(input: &AnalyzeInput<'_>, report: &mut Report) {
    let d = input.descriptor;
    let registry = input.registry;
    let entity_replica_nodes: BTreeSet<NodeId> = registry
        .ids()
        .filter(|&id| registry.spec(id).kind == ComponentKind::Entity)
        .flat_map(|id| d.placement(id).replicas.iter().copied().collect::<Vec<_>>())
        .collect();

    if matches!(
        d.entity_propagation,
        UpdatePropagation::SyncPush | UpdatePropagation::AsyncPush
    ) && entity_replica_nodes.is_empty()
    {
        report.diagnostics.push(Diagnostic {
            code: "E002",
            severity: Severity::Error,
            component: None,
            node: None,
            message: format!(
                "entity propagation `{:?}` is declared but no entity has read-only replicas",
                d.entity_propagation
            ),
            span: Span::descriptor("descriptor.entity_propagation"),
        });
    }

    let mut async_targets: BTreeSet<NodeId> = BTreeSet::new();
    if d.entity_propagation == UpdatePropagation::AsyncPush {
        async_targets.extend(entity_replica_nodes.iter().copied());
    }
    if d.query_cache.propagation == UpdatePropagation::AsyncPush {
        async_targets.extend(d.query_cache.nodes.iter().copied());
    }
    if async_targets.is_empty() {
        return;
    }

    let hosted_anywhere: BTreeSet<NodeId> = d
        .placements
        .values()
        .flat_map(|p| p.nodes().collect::<Vec<_>>())
        .collect();
    if !hosted_anywhere.contains(&d.jms_broker) {
        report.diagnostics.push(Diagnostic {
            code: "E002",
            severity: Severity::Error,
            component: None,
            node: Some(node_label(input.nodes, d.jms_broker)),
            message: format!(
                "asynchronous propagation is declared but the JMS broker node `{}` hosts no \
                 application components",
                node_label(input.nodes, d.jms_broker)
            ),
            span: Span::descriptor("descriptor.jms_broker"),
        });
    }
    for &node in &async_targets {
        let has_mdb = registry.ids().any(|id| {
            registry.spec(id).kind == ComponentKind::MessageDriven && d.placement(id).hosts(node)
        });
        if !has_mdb {
            report.diagnostics.push(Diagnostic {
                code: "E002",
                severity: Severity::Error,
                component: None,
                node: Some(node_label(input.nodes, node)),
                message: format!(
                    "node `{}` receives asynchronous pushes but hosts no message-driven \
                     component to apply them",
                    node_label(input.nodes, node)
                ),
                span: Span::descriptor("descriptor.placements"),
            });
        }
    }
}

/// W103: remote calls without stub caching pay a JNDI exchange each time.
fn check_stub_caching(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    if input.descriptor.stub_caching {
        return;
    }
    let any_remote = walks
        .iter()
        .any(|w| w.crossings.iter().any(|c| c.kind == CrossingKind::Rmi));
    if any_remote {
        report.diagnostics.push(Diagnostic {
            code: "W103",
            severity: Severity::Warning,
            component: None,
            node: None,
            message: "stub caching is disabled: every remote invocation pays an extra JNDI \
                      round trip (§4.2 recommends EJBHomeFactory caching)"
                .to_string(),
            span: Span::descriptor("descriptor.stub_caching"),
        });
    }
}

/// W104: declared-but-dead and issued-but-undeclared cacheable tags.
fn check_query_tags(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    let policy = &input.descriptor.query_cache;
    if policy.nodes.is_empty() {
        return;
    }
    let issued: BTreeSet<&str> = walks
        .iter()
        .flat_map(|w| w.tags_issued.iter().map(String::as_str))
        .collect();
    for tag in &policy.cacheable_tags {
        if !issued.contains(tag.as_str()) {
            report.diagnostics.push(Diagnostic {
                code: "W104",
                severity: Severity::Warning,
                component: None,
                node: None,
                message: format!(
                    "cacheable query tag `{tag}` is declared but never issued by any page"
                ),
                span: Span::descriptor("descriptor.query_cache.cacheable_tags"),
            });
        }
    }
    for tag in issued {
        if !policy.cacheable_tags.contains(tag) {
            report.diagnostics.push(Diagnostic {
                code: "W104",
                severity: Severity::Warning,
                component: None,
                node: None,
                message: format!(
                    "query tag `{tag}` is issued by the application but not declared \
                     cacheable — its queries always travel to the central site"
                ),
                span: Span::descriptor("descriptor.query_cache.cacheable_tags"),
            });
        }
    }
}

/// W106: a replicated stateful session bean should keep an instance on the
/// central node when entity propagation is active, so conversational state
/// stays reachable from the write path.
fn check_stateful_replicas(input: &AnalyzeInput<'_>, report: &mut Report) {
    let d = input.descriptor;
    if d.entity_propagation == UpdatePropagation::None {
        return;
    }
    for id in input.registry.ids() {
        let spec = input.registry.spec(id);
        if spec.kind != ComponentKind::StatefulSession {
            continue;
        }
        let placement = d.placement(id);
        if !placement.replicas.is_empty() && !placement.hosts(d.central_node) {
            report.diagnostics.push(Diagnostic {
                code: "W106",
                severity: Severity::Warning,
                component: Some(spec.name.clone()),
                node: Some(node_label(input.nodes, d.central_node)),
                message: format!(
                    "stateful session bean `{}` is replicated but has no instance on the \
                     central node while entity propagation is active",
                    spec.name
                ),
                span: Span::descriptor("descriptor.placements"),
            });
        }
    }
}

/// W107: the descriptor deploys edge-caching machinery (entity replicas or
/// query-cache nodes), yet no page can ever be served from a memoized bound
/// program. The binder certifies a bind replayable only when the page writes
/// no table and makes no node crossing other than direct JDBC — RMI samples
/// protocol overhead from the RNG stream, JNDI and façade fetches take cold
/// transitions — so if every page trips one of those, the bound-program
/// cache never engages and each request pays the full bind walk.
fn check_plan_cacheability(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    let d = input.descriptor;
    let registry = input.registry;
    let has_entity_replicas = registry.ids().any(|id| {
        registry.spec(id).kind == ComponentKind::Entity && !d.placement(id).replicas.is_empty()
    });
    if !has_entity_replicas && d.query_cache.nodes.is_empty() {
        return; // no caching machinery to leave idle
    }
    if walks.iter().any(reachability::replayable) {
        return;
    }
    report.diagnostics.push(Diagnostic {
        code: "W107",
        severity: Severity::Warning,
        component: None,
        node: None,
        message: format!(
            "the deployment provisions {} but every page either writes a table or \
             crosses nodes, so no bind is ever replayable and the bound-program \
             cache cannot engage",
            if has_entity_replicas && !d.query_cache.nodes.is_empty() {
                "entity replicas and edge query caches"
            } else if has_entity_replicas {
                "entity replicas"
            } else {
                "edge query caches"
            }
        ),
        span: Span::descriptor("descriptor.placements"),
    });
}

/// W109: the central site is a wide-area single point of failure for reads.
///
/// A read-only page is *partition-servable* when an edge entry can complete
/// it without any wide-area crossing — precisely the pages that keep
/// answering when the WAN leg to the central site is cut (the fault suite's
/// main-link partition). Writes legitimately need the center, so only
/// read-only pages (no written tables) are considered. If a deployment
/// leaves edge clients with *no* partition-servable read page, every
/// interaction dies with the WAN and the warning fires — the centralized
/// baseline by construction, while §4.3's entity replicas already keep
/// catalog reads local.
fn check_wan_single_point_of_failure(
    input: &AnalyzeInput<'_>,
    walks: &[PageWalk],
    report: &mut Report,
) {
    let nodes = input.nodes;
    let read_pages: Vec<&PageWalk> = walks
        .iter()
        .filter(|w| w.written_tables.is_empty())
        .collect();
    if read_pages.is_empty() {
        return;
    }
    let partition_servable = |w: &PageWalk| {
        (w.entry == nodes.edge1 || w.entry == nodes.edge2)
            && !w
                .crossings
                .iter()
                .any(|c| input.topology.wan_hops(c.from, c.to) > 0)
    };
    if read_pages.iter().any(|w| partition_servable(w)) {
        return;
    }
    report.diagnostics.push(Diagnostic {
        code: "W109",
        severity: Severity::Warning,
        component: None,
        node: Some(node_label(nodes, nodes.edge1)),
        message: format!(
            "all {} read-only pages need the wide area to complete — a WAN partition \
             between the edges and the central site leaves edge clients with no servable \
             page; deploy entity replicas or query caches (§4.3–§4.4) to keep reads local",
            read_pages.len()
        ),
        span: Span::descriptor("descriptor.placements"),
    });
}

fn via_label(via: ReadVia) -> &'static str {
    match via {
        ReadVia::Replica => "entity replica",
        ReadVia::QueryCache => "query cache",
    }
}

/// W112: a crossing whose shortest path traverses two or more wide-area
/// hops. The §4.2 budget and the descriptors were written assuming one hop
/// per crossing; the budget check already charges the hop-weighted cost,
/// and this lint points at the crossing whose placement multiplied it.
fn check_multi_hop_crossings(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    for walk in walks {
        let mut seen = BTreeSet::new();
        for c in &walk.crossings {
            let hops = input.topology.wan_hops(c.from, c.to);
            if hops < 2 || !seen.insert((c.from, c.to)) {
                continue;
            }
            let from = node_label(input.nodes, c.from);
            let to = node_label(input.nodes, c.to);
            report.diagnostics.push(Diagnostic {
                code: "W112",
                severity: Severity::Warning,
                component: None,
                node: Some(to.clone()),
                message: format!(
                    "page `{}` makes a {} crossing `{from}` → `{to}` whose route traverses \
                     {hops} wide-area hops — each round trip is charged {hops}× against the \
                     §4.2 budget",
                    walk.page,
                    kind_label(c.kind)
                ),
                span: Span::page(walk.page.clone(), format!("{from} -> {to}")),
            });
        }
    }
}

/// W110: cached read sites with unbounded staleness.
fn emit_staleness_lints(
    input: &AnalyzeInput<'_>,
    staleness: &StalenessAnalysis,
    report: &mut Report,
) {
    for (page, site) in &staleness.unbounded_sites {
        let spec = input.registry.spec(site.component);
        let node = node_label(input.nodes, site.node);
        report.diagnostics.push(Diagnostic {
            code: "W110",
            severity: Severity::Warning,
            component: Some(spec.name.clone()),
            node: Some(node.clone()),
            message: format!(
                "page `{page}` reads table `{}` from a {} on `{node}` that no propagation \
                 ever refreshes — served staleness is unbounded; declare a propagation mode \
                 or remove the replica",
                input.db.table(site.table).name(),
                via_label(site.via)
            ),
            span: Span::page(page.clone(), site.path.clone()),
        });
    }
}

/// W111 from broken failover edges, and E005 from inter-page
/// read-your-writes hazards whose propagation path some episode severs
/// while the policy keeps serving.
fn emit_fault_lints(
    input: &AnalyzeInput<'_>,
    ctx: &FaultContext,
    staleness: &StalenessAnalysis,
    analysis: &AvailabilityAnalysis,
    report: &mut Report,
) {
    for broken in &analysis.broken_failovers {
        report.diagnostics.push(Diagnostic {
            code: "W111",
            severity: Severity::Warning,
            component: None,
            node: Some(node_label(input.nodes, broken.target)),
            message: format!(
                "the fault policy fails requests for dead entry `{}` over to `{}`, but \
                 during episode `{}` the target is itself dead or unreachable from the edge \
                 clients — the failover edge can never be taken when it is needed",
                node_label(input.nodes, broken.dead_entry),
                node_label(input.nodes, broken.target),
                broken.episode
            ),
            span: Span::descriptor("fault policy failover"),
        });
    }

    // E005 needs a fault arm that keeps answering through the episode —
    // strict fail-everything policies surface the inconsistency as an error
    // to the user instead of serving it.
    if !(ctx.policy.stale_serve || ctx.policy.failover) {
        return;
    }
    for hazard in &staleness.hazards {
        let propagation = match hazard.site.via {
            ReadVia::Replica => input.descriptor.entity_propagation,
            ReadVia::QueryCache => input.descriptor.query_cache.propagation,
        };
        let source = if propagation == UpdatePropagation::AsyncPush {
            input.descriptor.jms_broker
        } else {
            input.descriptor.central_node
        };
        let Some(view) = ctx
            .episodes
            .iter()
            .find(|view| reachability::severed(&view.network, source, hazard.site.node))
        else {
            continue;
        };
        let spec = input.registry.spec(hazard.site.component);
        report.diagnostics.push(Diagnostic {
            code: "E005",
            severity: Severity::Error,
            component: Some(spec.name.clone()),
            node: Some(node_label(input.nodes, hazard.site.node)),
            message: format!(
                "session pattern `{}` can write table `{}` on an earlier page and read it \
                 back on page `{}` from a {} on `{}` ({}); episode `{}` severs the \
                 propagation path while the policy keeps serving, so the session observes \
                 its own write rolled back",
                hazard.pattern,
                input.db.table(hazard.site.table).name(),
                hazard.page,
                via_label(hazard.site.via),
                node_label(input.nodes, hazard.site.node),
                hazard.staleness.label(),
                view.name
            ),
            span: Span::page(hazard.page.clone(), hazard.site.path.clone()),
        });
    }
}

/// W101, W102, W105 from per-page walk events.
fn emit_walk_lints(input: &AnalyzeInput<'_>, walks: &[PageWalk], report: &mut Report) {
    for walk in walks {
        for event in &walk.events {
            let spec = input.registry.spec(event.component);
            let node = node_label(input.nodes, event.node);
            let span = Span::page(walk.page.clone(), event.path.clone());
            let diagnostic = match &event.kind {
                WalkEventKind::FinderOverWan { table } => Diagnostic {
                    code: "W101",
                    severity: Severity::Warning,
                    component: Some(spec.name.clone()),
                    node: Some(node.clone()),
                    message: format!(
                        "`{}` runs an n+1-style BMP finder on `{}` over the WAN against table \
                         `{}` — each returned row costs a wide-area round trip",
                        spec.name,
                        node,
                        input.db.table(*table).name()
                    ),
                    span,
                },
                WalkEventKind::SessionWriteOverWan { table } => Diagnostic {
                    code: "W102",
                    severity: Severity::Warning,
                    component: Some(spec.name.clone()),
                    node: Some(node.clone()),
                    message: format!(
                        "session façade `{}` on `{}` writes table `{}` across the WAN — \
                         writers belong next to the rows they mutate",
                        spec.name,
                        node,
                        input.db.table(*table).name()
                    ),
                    span,
                },
                WalkEventKind::StaleReadAfterWrite { table, via } => Diagnostic {
                    code: "W105",
                    severity: Severity::Warning,
                    component: Some(spec.name.clone()),
                    node: Some(node.clone()),
                    message: format!(
                        "page `{}` reads table `{}` from a local {} on `{}` after writing it \
                         under asynchronous propagation — the response can observe the \
                         pre-write value (read-your-writes hazard, §4.5)",
                        walk.page,
                        input.db.table(*table).name(),
                        match via {
                            ReadVia::Replica => "entity replica",
                            ReadVia::QueryCache => "query cache",
                        },
                        node
                    ),
                    span,
                },
            };
            report.diagnostics.push(diagnostic);
        }
    }
}
