//! Integration tests for the binder: a miniature application (web tier,
//! façade, one entity, one aggregate query) resolved under descriptors that
//! mirror the paper's five configurations.

use mutsvc_desim::{Context, Fire, SimDuration, SimRng, SimTime, Simulation};
use mutsvc_middleware::{
    Binder, Call, ComponentId, ComponentKind, ComponentRegistry, ContainerCosts, ContainerState,
    DbAccess, DeploymentDescriptor, DescriptorBuilder, PageRequest, UpdatePropagation,
};
use mutsvc_netsim::{
    advance_job, spawn_program, JobWorld, Jobs, NetEvent, Network, NodeId, ProtocolParams, Step,
    TopologyBuilder,
};
use mutsvc_relstore::{Database, DatabaseBuilder, Mutation, Query, RowId, TableId, Value};

struct Fixture {
    registry: ComponentRegistry,
    db: Database,
    state: ContainerState,
    rng: SimRng,
    next_tag: u64,
    protocols: ProtocolParams,
    costs: ContainerCosts,
    // topology
    topology: mutsvc_netsim::Topology,
    client_main: NodeId,
    client_edge: NodeId,
    main: NodeId,
    edge1: NodeId,
    edge2: NodeId,
    dbn: NodeId,
    // components
    web: ComponentId,
    facade: ComponentId,
    item: ComponentId,
    items_table: TableId,
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn fixture() -> Fixture {
    // Topology: star through a router; WAN legs 100ms, LAN legs 0.2ms.
    let mut tb = TopologyBuilder::new();
    let main = tb.node("main", 2);
    let edge1 = tb.node("edge1", 2);
    let edge2 = tb.node("edge2", 2);
    let dbn = tb.node("db", 2);
    let router = tb.node("router", 8);
    let client_main = tb.node("client-main", 4);
    let client_edge = tb.node("client-edge1", 4);
    let lan = SimDuration::from_micros(200);
    let wan = SimDuration::from_millis(100);
    tb.duplex_link(main, router, lan, 100e6);
    tb.duplex_link(dbn, router, lan, 100e6);
    tb.duplex_link(client_main, router, lan, 100e6);
    tb.duplex_link(edge1, router, wan, 100e6);
    tb.duplex_link(edge2, router, wan, 100e6);
    // Edge clients sit on the edge LAN: model as tiny-latency link to edge1.
    tb.duplex_link(client_edge, edge1, lan, 100e6);
    let topology = tb.finalize();

    let mut dbb = DatabaseBuilder::new();
    let items_table = dbb.table("item", &["name", "*product", "price"], 250);
    let mut db = dbb.build();
    for i in 0..12i64 {
        db.table_mut(items_table).insert(vec![
            format!("item-{i}").into(),
            Value::Int(i % 3),
            Value::Int(1_000 + i),
        ]);
    }

    let mut registry = ComponentRegistry::new();
    let web = registry.register("item.jsp", ComponentKind::Web);
    let facade = registry.register("Catalog", ComponentKind::StatelessSession);
    let item = registry.register_entity("ItemEJB", items_table);

    Fixture {
        registry,
        db,
        state: ContainerState::new(),
        rng: SimRng::seed_from_u64(7),
        next_tag: 0,
        protocols: ProtocolParams {
            rmi_extra_round_trip_prob: 0.0,
            ..Default::default()
        },
        costs: ContainerCosts::default(),
        topology,
        client_main,
        client_edge,
        main,
        edge1,
        edge2,
        dbn,
        web,
        facade,
        item,
        items_table,
    }
}

/// Builds a binder and binds one page; descriptors are created per test and
/// passed explicitly (the binder briefly borrows the fixture's shared state).
macro_rules! bind {
    ($fx:expr, $desc:expr, $client:expr, $entry:expr, $page:expr) => {{
        let client = $client;
        let entry = $entry;
        let fx: &mut Fixture = $fx;
        Binder::new(
            &fx.registry,
            $desc,
            &fx.protocols,
            &fx.costs,
            &mut fx.db,
            &mut fx.state,
            &mut fx.rng,
            &mut fx.next_tag,
        )
        .bind_page(client, entry, $page)
    }};
}

fn centralized(fx: &Fixture) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(&fx.registry, "centralized", fx.dbn);
    b.central_node(fx.main);
    b.place(fx.web, fx.main)
        .place(fx.facade, fx.main)
        .place(fx.item, fx.main);
    b.build().unwrap()
}

fn facade_config(fx: &Fixture) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(&fx.registry, "remote-facade", fx.dbn);
    b.central_node(fx.main);
    b.place_replicated(fx.web, fx.main, [fx.edge1, fx.edge2]);
    b.place(fx.facade, fx.main);
    b.place(fx.item, fx.main);
    b.build().unwrap()
}

fn caching_config(fx: &Fixture, prop: UpdatePropagation) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(&fx.registry, "stateful-caching", fx.dbn);
    b.central_node(fx.main);
    b.place_replicated(fx.web, fx.main, [fx.edge1, fx.edge2]);
    b.place_replicated(fx.facade, fx.main, [fx.edge1, fx.edge2]);
    b.place_replicated(fx.item, fx.main, [fx.edge1, fx.edge2]);
    b.entity_propagation(prop);
    b.build().unwrap()
}

fn query_cached_config(fx: &Fixture, prop: UpdatePropagation) -> DeploymentDescriptor {
    let mut b = DescriptorBuilder::new(&fx.registry, "query-caching", fx.dbn);
    b.central_node(fx.main);
    b.place_replicated(fx.web, fx.main, [fx.edge1, fx.edge2]);
    b.place_replicated(fx.facade, fx.main, [fx.edge1, fx.edge2]);
    b.place_replicated(fx.item, fx.main, [fx.edge1, fx.edge2]);
    b.entity_propagation(UpdatePropagation::SyncPush);
    b.query_cache([fx.edge1, fx.edge2], ["items-by-product"], prop);
    b.build().unwrap()
}

/// Item page: web -> facade -> entity PK read.
fn item_page(fx: &Fixture, id: u64) -> PageRequest {
    let entity_call = Call::new(fx.item, "load", ms(1)).query(
        Query::ByPk {
            table: fx.items_table,
            id: RowId(id),
        },
        DbAccess::Single,
    );
    let facade_call = Call::new(fx.facade, "getItem", ms(2)).invoke(entity_call, 100, 500);
    let root = Call::new(fx.web, "doGet", ms(5)).invoke(facade_call, 150, 2_000);
    PageRequest::new("Item", root, 10_000)
}

/// Product page: web -> facade -> tagged aggregate query.
fn product_page(fx: &Fixture, product: i64) -> PageRequest {
    let facade_call = Call::new(fx.facade, "getItems", ms(2)).tagged_query(
        Query::Eq {
            table: fx.items_table,
            column: 1,
            value: Value::Int(product),
        },
        "items-by-product",
        DbAccess::Single,
    );
    let root = Call::new(fx.web, "doGet", ms(5)).invoke(facade_call, 150, 4_000);
    PageRequest::new("Product", root, 14_000)
}

/// Commit page: web -> facade -> entity write.
fn commit_page(fx: &Fixture, id: u64) -> PageRequest {
    let entity_call = Call::new(fx.item, "setPrice", ms(1)).mutate(Mutation::Update {
        table: fx.items_table,
        id: RowId(id),
        column: 2,
        value: Value::Int(1),
    });
    let facade_call = Call::new(fx.facade, "commit", ms(3)).invoke(entity_call, 200, 100);
    let root = Call::new(fx.web, "doPost", ms(4)).invoke(facade_call, 250, 500);
    PageRequest::new("Commit", root, 6_000).with_redirect()
}

/// Executes a bound program and returns the completion time in ms.
fn execute(fx: &Fixture, steps: Vec<Step>) -> f64 {
    struct W {
        net: Network,
        jobs: Jobs<W>,
        done: Option<SimTime>,
    }
    /// Start the program, or record its completion.
    enum Ev {
        Net(NetEvent),
        Start(Vec<Step>),
        Done,
    }
    impl From<NetEvent> for Ev {
        fn from(e: NetEvent) -> Ev {
            Ev::Net(e)
        }
    }
    impl Fire<W> for Ev {
        fn fire(self, w: &mut W, ctx: &mut Context<'_, W, Ev>) {
            match self {
                Ev::Net(NetEvent::Advance { job }) => advance_job(w, ctx, job),
                Ev::Start(steps) => spawn_program(w, ctx, steps.into(), Ev::Done, None),
                Ev::Done => w.done = Some(ctx.now()),
            }
        }
    }
    impl JobWorld for W {
        type Event = Ev;
        fn network_mut(&mut self) -> &mut Network {
            &mut self.net
        }
        fn jobs_mut(&mut self) -> &mut Jobs<W> {
            &mut self.jobs
        }
    }
    let mut sim = Simulation::with_events(W {
        net: Network::new(fx.topology.clone()),
        jobs: Jobs::new(),
        done: None,
    });
    sim.schedule_event_at(SimTime::ZERO, Ev::Start(steps));
    sim.run();
    sim.world().done.expect("job completed").as_millis_f64()
}

fn count_parallel(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| match s {
            Step::Parallel(branches) => {
                1 + branches.iter().map(|b| count_parallel(b)).sum::<usize>()
            }
            Step::Fork { steps, .. } => count_parallel(steps),
            _ => 0,
        })
        .sum()
}

fn count_forks(steps: &[Step]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, Step::Fork { .. }))
        .count()
}

#[test]
fn centralized_remote_page_costs_two_wan_round_trips() {
    let mut fx = fixture();
    let desc = centralized(&fx);
    let page = item_page(&fx, 1);
    let local = bind!(&mut fx, &desc, fx.client_main, fx.main, &page);
    let remote = bind!(&mut fx, &desc, fx.client_edge, fx.main, &page);
    assert_eq!(local.stats.remote_invocations, 0);
    assert_eq!(remote.stats.remote_invocations, 0);
    let t_local = execute(&fx, local.steps);
    let t_remote = execute(&fx, remote.steps);
    // Handshake + request/response over ~200ms RTT ≈ +400ms.
    let delta = t_remote - t_local;
    assert!((395.0..425.0).contains(&delta), "WAN delta {delta}");
}

#[test]
fn facade_config_pays_one_rmi_for_remote_entry() {
    let mut fx = fixture();
    let desc = facade_config(&fx);
    let page = item_page(&fx, 1);
    // Entry at edge1: web local, facade remote -> 1 RMI.
    let bound = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(bound.stats.remote_invocations, 1);
    assert_eq!(bound.stats.jndi_lookups, 1, "first call resolves the stub");
    let t_first = execute(&fx, bound.steps);

    let bound2 = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(bound2.stats.jndi_lookups, 0, "stub cached afterwards");
    let t_second = execute(&fx, bound2.steps);
    assert!(t_second < t_first, "stub caching saves a WAN round trip");
    // One WAN RMI ≈ 200ms; well below the centralized remote ~430ms.
    assert!((200.0..300.0).contains(&t_second), "got {t_second}");
}

#[test]
fn stub_caching_disabled_pays_jndi_every_time() {
    let mut fx = fixture();
    let mut b = DescriptorBuilder::new(&fx.registry, "no-homefactory", fx.dbn);
    b.central_node(fx.main);
    b.place_replicated(fx.web, fx.main, [fx.edge1, fx.edge2]);
    b.place(fx.facade, fx.main).place(fx.item, fx.main);
    b.stub_caching(false);
    let desc = b.build().unwrap();
    let page = item_page(&fx, 1);
    for _ in 0..3 {
        let bound = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
        assert_eq!(bound.stats.jndi_lookups, 1);
    }
}

#[test]
fn replica_read_misses_then_hits() {
    let mut fx = fixture();
    let desc = caching_config(&fx, UpdatePropagation::SyncPush);
    let page = item_page(&fx, 3);
    let first = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(first.stats.entity_cache_misses, 1);
    assert_eq!(first.stats.entity_cache_hits, 0);
    let t_first = execute(&fx, first.steps);

    let second = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(second.stats.entity_cache_hits, 1);
    assert_eq!(second.stats.remote_invocations, 0, "fully local page");
    let t_second = execute(&fx, second.steps);
    assert!(t_second < 30.0, "local page, got {t_second}");
    assert!(
        t_first > 200.0,
        "miss fetches across the WAN, got {t_first}"
    );

    // The other edge is independent.
    let other = bind!(&mut fx, &desc, fx.client_edge, fx.edge2, &page);
    assert_eq!(other.stats.entity_cache_misses, 1);
}

#[test]
fn sync_push_blocks_writer_and_keeps_replicas_valid() {
    let mut fx = fixture();
    let desc = caching_config(&fx, UpdatePropagation::SyncPush);
    let item = item_page(&fx, 5);
    // Warm both edges.
    let _ = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);
    let _ = bind!(&mut fx, &desc, fx.client_edge, fx.edge2, &item);

    let commit = commit_page(&fx, 5);
    let bound = bind!(&mut fx, &desc, fx.client_main, fx.main, &commit);
    assert_eq!(bound.stats.sync_push_nodes, 2);
    assert_eq!(
        count_parallel(&bound.steps),
        1,
        "one blocking parallel push"
    );
    let t = execute(&fx, bound.steps);
    assert!(t > 200.0, "writer blocked on WAN push, got {t}");

    // Replica reads stay local and fresh (zero staleness).
    let after = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);
    assert_eq!(after.stats.entity_cache_hits, 1);
    assert_eq!(after.stats.staleness_observed, 0);
}

#[test]
fn invalidate_mode_forces_refetch() {
    let mut fx = fixture();
    let desc = caching_config(&fx, UpdatePropagation::Invalidate);
    let item = item_page(&fx, 5);
    let _ = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);

    let commit = commit_page(&fx, 5);
    let bound = bind!(&mut fx, &desc, fx.client_main, fx.main, &commit);
    assert_eq!(bound.stats.invalidate_nodes, 1);
    assert_eq!(
        count_parallel(&bound.steps),
        0,
        "invalidations do not block"
    );
    let t = execute(&fx, bound.steps);
    assert!(t < 100.0, "writer not blocked, got {t}");

    let after = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);
    assert_eq!(
        after.stats.entity_cache_misses, 1,
        "invalidated row refetches"
    );
}

#[test]
fn async_push_does_not_block_and_defers_state() {
    let mut fx = fixture();
    let desc = caching_config(&fx, UpdatePropagation::AsyncPush);
    let item = item_page(&fx, 7);
    let _ = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);
    let _ = bind!(&mut fx, &desc, fx.client_edge, fx.edge2, &item);

    let commit = commit_page(&fx, 7);
    let bound = bind!(&mut fx, &desc, fx.client_main, fx.main, &commit);
    assert_eq!(bound.stats.async_push_nodes, 2);
    assert_eq!(count_forks(&bound.steps), 1);
    assert_eq!(bound.deferred.len(), 1);
    let t = execute(&fx, bound.steps);
    assert!(t < 100.0, "async writer unblocked, got {t}");

    // Until the deferred apply runs, replica reads observe staleness.
    let stale = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);
    assert_eq!(
        stale.stats.entity_cache_hits, 1,
        "replica still serves (stale) data"
    );
    assert_eq!(stale.stats.staleness_observed, 1);

    // Apply the deferred update (simulating fork completion).
    let (_, apply) = &bound.deferred[0];
    apply.apply(&mut fx.state);
    let fresh = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &item);
    assert_eq!(fresh.stats.staleness_observed, 0);
}

#[test]
fn query_cache_miss_then_hit_then_push_update() {
    let mut fx = fixture();
    let desc = query_cached_config(&fx, UpdatePropagation::SyncPush);
    let page = product_page(&fx, 1);
    let first = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(first.stats.query_cache_misses, 1);
    let t_first = execute(&fx, first.steps);
    assert!(t_first > 200.0, "miss crosses the WAN, got {t_first}");

    let second = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(second.stats.query_cache_hits, 1);
    let t_second = execute(&fx, second.steps);
    assert!(t_second < 30.0, "hit is local, got {t_second}");

    // A write that affects product 1 pushes the refreshed result: still a hit.
    let commit = commit_page(&fx, 5); // item 5 has product (5-1)%3 == 1
    assert_eq!(
        fx.db.table(fx.items_table).cell(RowId(5), 1),
        Some(&Value::Int(1))
    );
    let w = bind!(&mut fx, &desc, fx.client_main, fx.main, &commit);
    assert!(w.stats.sync_push_nodes >= 1);
    let third = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(
        third.stats.query_cache_hits, 1,
        "pushed update keeps the cache valid"
    );
}

#[test]
fn query_cache_pull_mode_invalidates() {
    let mut fx = fixture();
    // Entity propagation sync, query caches pull-based.
    let desc = query_cached_config(&fx, UpdatePropagation::Invalidate);
    let page = product_page(&fx, 1);
    let _ = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    // A write to a product-2 row cannot change the product-1 result, so the
    // cached page must keep hitting.
    let unrelated = commit_page(&fx, 6); // item 6 has product (6-1)%3 == 2
    assert_eq!(
        fx.db.table(fx.items_table).cell(RowId(6), 1),
        Some(&Value::Int(2))
    );
    let _ = bind!(&mut fx, &desc, fx.client_main, fx.main, &unrelated);
    let still = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(
        still.stats.query_cache_hits, 1,
        "a write to another product leaves the cached result valid"
    );
    let commit = commit_page(&fx, 5);
    let _ = bind!(&mut fx, &desc, fx.client_main, fx.main, &commit);
    let after = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert_eq!(
        after.stats.query_cache_misses, 1,
        "pull mode refetches after a write"
    );
}

#[test]
fn untagged_queries_bypass_the_cache() {
    let mut fx = fixture();
    let desc = query_cached_config(&fx, UpdatePropagation::SyncPush);
    // Same query shape, but untagged (e.g. keyword search).
    let facade_call = Call::new(fx.facade, "search", ms(2)).query(
        Query::Like {
            table: fx.items_table,
            column: 0,
            needle: "item".into(),
        },
        DbAccess::Single,
    );
    let root = Call::new(fx.web, "doGet", ms(5)).invoke(facade_call, 150, 4_000);
    let page = PageRequest::new("Search", root, 14_000);
    for _ in 0..2 {
        let bound = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
        assert_eq!(bound.stats.query_cache_hits, 0);
        assert_eq!(bound.stats.query_cache_misses, 0);
        assert_eq!(bound.stats.db_statements, 1);
    }
}

#[test]
fn writes_route_to_primary_even_from_edges() {
    let mut fx = fixture();
    let desc = caching_config(&fx, UpdatePropagation::SyncPush);
    let commit = commit_page(&fx, 2);
    // Issued at edge1: the entity write must still execute at main.
    let bound = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &commit);
    // facade resolves locally at edge1, but the entity hop crosses to main.
    assert!(bound.stats.remote_invocations >= 1);
    let t = execute(&fx, bound.steps);
    assert!(t > 200.0, "write crossed the WAN, got {t}");
    // And the database really changed.
    assert_eq!(
        fx.db.table(fx.items_table).cell(RowId(2), 2),
        Some(&Value::Int(1))
    );
}

#[test]
fn bmp_finder_pays_n_plus_one_over_the_wire() {
    let mut fx = fixture();
    // Web tier on edge does DIRECT JDBC (the original Pet Store shape).
    let mut b = DescriptorBuilder::new(&fx.registry, "direct-jdbc", fx.dbn);
    b.central_node(fx.main);
    b.place_replicated(fx.web, fx.main, [fx.edge1, fx.edge2]);
    b.place(fx.facade, fx.main).place(fx.item, fx.main);
    let desc = b.build().unwrap();

    let q = Query::Eq {
        table: fx.items_table,
        column: 1,
        value: Value::Int(1),
    };
    let bmp_root = Call::new(fx.web, "doGet", ms(5)).query(q.clone(), DbAccess::BmpFinder);
    let cmp_root = Call::new(fx.web, "doGet", ms(5)).query(q, DbAccess::Single);
    let bmp = bind!(
        &mut fx,
        &desc,
        fx.client_edge,
        fx.edge1,
        &PageRequest::new("P", bmp_root, 1_000)
    );
    let cmp = bind!(
        &mut fx,
        &desc,
        fx.client_edge,
        fx.edge1,
        &PageRequest::new("P", cmp_root, 1_000)
    );
    let t_bmp = execute(&fx, bmp.steps);
    let t_cmp = execute(&fx, cmp.steps);
    // 4 rows -> 5 statement round trips vs 1: each ~200ms over the WAN.
    assert!(
        t_bmp - t_cmp > 700.0,
        "n+1 penalty missing: bmp={t_bmp} cmp={t_cmp}"
    );
}

#[test]
fn deterministic_binding_given_seed() {
    let run = || {
        let mut fx = fixture();
        let desc = caching_config(&fx, UpdatePropagation::SyncPush);
        let mut times = Vec::new();
        for i in 0..5 {
            let page = item_page(&fx, 1 + i);
            let bound = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
            times.push(execute(&fx, bound.steps));
        }
        times
    };
    assert_eq!(run(), run());
}

#[test]
fn centralized_read_bind_is_replayable() {
    let mut fx = fixture();
    let desc = centralized(&fx);
    let page = item_page(&fx, 3);
    let bound = bind!(&mut fx, &desc, fx.client_main, fx.main, &page);
    assert!(bound.replayable, "all-local read bind must be certified");
    assert_eq!(bound.read_tables, vec![fx.items_table]);
    assert!(bound.written_tables.is_empty());
    // The certificate survives the WAN client too: the HTTP envelope crosses
    // the network, but the bind itself stays on the central server.
    let bound = bind!(&mut fx, &desc, fx.client_edge, fx.main, &page);
    assert!(bound.replayable);
}

#[test]
fn replica_hit_is_replayable_but_cold_miss_is_not() {
    let mut fx = fixture();
    let desc = caching_config(&fx, UpdatePropagation::SyncPush);
    let page = item_page(&fx, 5);
    let cold = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert!(!cold.replayable, "cold replica miss repopulates state");
    let warm = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert!(warm.replayable, "valid replica hit draws nothing");
    assert_eq!(warm.read_tables, vec![fx.items_table]);
    assert!(warm.stats.entity_cache_hits > 0);
}

#[test]
fn write_bind_reports_written_tables() {
    let mut fx = fixture();
    let desc = centralized(&fx);
    let page = commit_page(&fx, 2);
    let bound = bind!(&mut fx, &desc, fx.client_main, fx.main, &page);
    assert!(!bound.replayable, "writes are never memoizable");
    assert_eq!(bound.written_tables, vec![fx.items_table]);
}

#[test]
fn query_cache_hit_is_replayable_after_population() {
    let mut fx = fixture();
    let desc = query_cached_config(&fx, UpdatePropagation::SyncPush);
    let page = product_page(&fx, 1);
    let cold = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert!(!cold.replayable, "cache population is a cold transition");
    let warm = bind!(&mut fx, &desc, fx.client_edge, fx.edge1, &page);
    assert!(warm.replayable);
    assert_eq!(warm.read_tables, vec![fx.items_table]);
    assert!(warm.stats.query_cache_hits > 0);
}
