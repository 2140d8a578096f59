//! Negative coverage: deliberately broken descriptors must trip the lints.
//! Each test takes a paper scenario, damages one aspect of its deployment,
//! and asserts the corresponding diagnostic code fires.

use std::collections::BTreeSet;

use mutsvc_analyze::{analyze, AnalyzeInput};
use mutsvc_core::{wan_invariant, AppKind, Config, Scenario};
use mutsvc_desim::fault::FaultKind;
use mutsvc_desim::SimDuration;
use mutsvc_middleware::{Call, DbAccess, PageRequest, Placement, UpdatePropagation};
use mutsvc_relstore::{Mutation, Query, Value};

fn report_for(
    app: AppKind,
    config: Config,
    damage: impl FnOnce(&mut mutsvc_workload::ExperimentInput, &mutsvc_core::PaperNodes),
) -> mutsvc_analyze::Report {
    let (mut input, nodes) = Scenario::quick(app, config).build();
    damage(&mut input, &nodes);
    let pages = input.app.all_pages();
    let flows = input.app.session_flows();
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
        fault_context: None,
    })
}

#[test]
fn e001_write_primary_across_the_wan() {
    // The Commit page writes the inventory table; marooning InventoryEJB's
    // primary on an edge puts every write across the WAN.
    let report = report_for(AppKind::PetStore, Config::RemoteFacade, |input, nodes| {
        let inventory = input.registry.by_name("InventoryEJB").unwrap();
        input.descriptor.placements.insert(
            inventory,
            Placement {
                primary: nodes.edge1,
                replicas: BTreeSet::new(),
            },
        );
    });
    assert!(report.has_errors());
    assert!(report.codes().contains(&"E001"), "{}", report.render_text());
}

#[test]
fn e002_push_propagation_without_replicas() {
    // Remote-façade keeps every entity centralized; declaring SyncPush
    // propagation gives the pusher nothing to push to.
    let report = report_for(AppKind::PetStore, Config::RemoteFacade, |input, _| {
        input.descriptor.entity_propagation = UpdatePropagation::SyncPush;
    });
    assert!(report.codes().contains(&"E002"), "{}", report.render_text());
}

#[test]
fn e002_async_push_without_subscribers() {
    // Async-updates relies on the UpdateSubscriber MDB at each replica
    // node; unplacing it from the edges leaves pushes with no receiver.
    let report = report_for(AppKind::PetStore, Config::AsyncUpdates, |input, nodes| {
        let mdb = input.registry.by_name("UpdateSubscriber").unwrap();
        input.descriptor.placements.insert(
            mdb,
            Placement {
                primary: nodes.main,
                replicas: BTreeSet::new(),
            },
        );
    });
    assert!(report.codes().contains(&"E002"), "{}", report.render_text());
}

#[test]
fn e003_budget_exceeded_when_caches_are_stripped() {
    // Stripping the Item/Inventory replicas from stateful-caching while
    // keeping its budget of one makes the Item page fetch twice.
    let report = report_for(AppKind::PetStore, Config::StatefulCaching, |input, _| {
        for name in ["ItemEJB", "InventoryEJB"] {
            let id = input.registry.by_name(name).unwrap();
            let primary = input.descriptor.placement(id).primary;
            input.descriptor.placements.insert(
                id,
                Placement {
                    primary,
                    replicas: BTreeSet::new(),
                },
            );
        }
    });
    assert!(report.codes().contains(&"E003"), "{}", report.render_text());
}

#[test]
fn e004_unplaced_and_misplaced_components() {
    let report = report_for(AppKind::PetStore, Config::RemoteFacade, |input, nodes| {
        let catalog = input.registry.by_name("Catalog").unwrap();
        input.descriptor.placements.remove(&catalog);
        let customer = input.registry.by_name("Customer").unwrap();
        input.descriptor.placements.insert(
            customer,
            Placement {
                primary: nodes.router,
                replicas: BTreeSet::new(),
            },
        );
    });
    let codes = report.codes();
    assert!(
        codes.iter().filter(|&&c| c == "E004").count() >= 2,
        "{}",
        report.render_text()
    );
    // Validity errors stop the analysis before any page walk.
    assert!(report.pages.is_empty());
}

#[test]
fn w101_bmp_finder_over_the_wan() {
    // The §4.1 baseline application (direct-JDBC web tier, BMP finders)
    // deployed naively to an edge: every finder row costs a WAN round trip.
    let report = report_for(AppKind::PetStore, Config::Centralized, |input, nodes| {
        for name in ["web", "ShoppingClientController", "ShoppingCart"] {
            let id = input.registry.by_name(name).unwrap();
            input.descriptor.placements.insert(
                id,
                Placement {
                    primary: nodes.edge1,
                    replicas: BTreeSet::new(),
                },
            );
        }
    });
    assert!(report.codes().contains(&"W101"), "{}", report.render_text());
}

#[test]
fn w102_session_facade_writing_across_the_wan() {
    // Replicating the Customer façade to the edges makes the Commit page
    // run its order mutations from edge1, across the WAN from the database.
    let report = report_for(AppKind::PetStore, Config::RemoteFacade, |input, nodes| {
        let customer = input.registry.by_name("Customer").unwrap();
        input.descriptor.placements.insert(
            customer,
            Placement {
                primary: nodes.main,
                replicas: [nodes.edge1, nodes.edge2].into_iter().collect(),
            },
        );
    });
    assert!(report.codes().contains(&"W102"), "{}", report.render_text());
}

#[test]
fn w105_read_your_writes_under_async_push() {
    // A page that updates an item and then re-reads it from the edge
    // replica: under AsyncPush the replica still holds the pre-write value
    // when the response renders.
    let (input, nodes) = Scenario::quick(AppKind::PetStore, Config::AsyncUpdates).build();
    let mutsvc_apps::App::PetStore(ps) = &input.app else {
        unreachable!()
    };
    let params = ps.representative_params();
    let t = ps.tables.item;
    let item = ps.components.item;
    let web = ps.components.web;
    let root = Call::new(web, "editItem", SimDuration::ZERO)
        .invoke(
            Call::new(item, "update", SimDuration::ZERO).mutate(Mutation::Update {
                table: t,
                id: params.item,
                column: 2,
                value: Value::Int(1),
            }),
            100,
            100,
        )
        .invoke(
            Call::new(item, "load", SimDuration::ZERO).query(
                Query::ByPk {
                    table: t,
                    id: params.item,
                },
                DbAccess::Single,
            ),
            100,
            400,
        );
    let page = PageRequest::new("EditItem", root, 8_000);
    let pages = vec![page];
    let report = analyze(&AnalyzeInput {
        app_name: "petstore",
        registry: &input.registry,
        descriptor: &input.descriptor,
        db: &input.db,
        nodes: &nodes,
        topology: &input.topology,
        pages: &pages,
        flows: &[],
        invariant: wan_invariant(Config::AsyncUpdates),
        fault_context: None,
    });
    assert!(report.codes().contains(&"W105"), "{}", report.render_text());
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn w103_disabled_stub_caching() {
    let report = report_for(AppKind::PetStore, Config::RemoteFacade, |input, _| {
        input.descriptor.stub_caching = false;
    });
    assert!(report.codes().contains(&"W103"), "{}", report.render_text());
}

#[test]
fn w104_dead_and_undeclared_tags() {
    let report = report_for(AppKind::PetStore, Config::QueryCaching, |input, _| {
        input
            .descriptor
            .query_cache
            .cacheable_tags
            .remove("ps:items-by-product");
        input
            .descriptor
            .query_cache
            .cacheable_tags
            .insert("no-such-tag".to_string());
    });
    let codes = report.codes();
    assert!(
        codes.iter().filter(|&&c| c == "W104").count() >= 2,
        "{}",
        report.render_text()
    );
}

#[test]
fn w107_caching_machinery_with_no_memoizable_page() {
    // Async-updates provisions entity replicas and edge query caches; narrow
    // the application to a single writing page and no bind can ever be
    // certified replayable, leaving the bound-program cache permanently idle.
    let (input, nodes) = Scenario::quick(AppKind::PetStore, Config::AsyncUpdates).build();
    let mutsvc_apps::App::PetStore(ps) = &input.app else {
        unreachable!()
    };
    let params = ps.representative_params();
    let root = Call::new(ps.components.web, "editItem", SimDuration::ZERO).invoke(
        Call::new(ps.components.item, "update", SimDuration::ZERO).mutate(Mutation::Update {
            table: ps.tables.item,
            id: params.item,
            column: 2,
            value: Value::Int(1),
        }),
        100,
        100,
    );
    let pages = vec![PageRequest::new("EditItem", root, 8_000)];
    let report = analyze(&AnalyzeInput {
        app_name: "petstore",
        registry: &input.registry,
        descriptor: &input.descriptor,
        db: &input.db,
        nodes: &nodes,
        topology: &input.topology,
        pages: &pages,
        flows: &[],
        invariant: wan_invariant(Config::AsyncUpdates),
        fault_context: None,
    });
    assert!(report.codes().contains(&"W107"), "{}", report.render_text());
}

#[test]
fn w108_traced_wan_rts_disagreeing_with_the_static_walk() {
    use mutsvc_analyze::cross_check_traced_wan;
    let mut report = report_for(AppKind::PetStore, Config::RemoteFacade, |_, _| {});
    assert!(!report.codes().contains(&"W108"));

    // Agreement (and sub-RT protocol jitter) stays silent.
    let agreeing: Vec<(String, f64)> = report
        .pages
        .iter()
        .map(|p| (p.page.clone(), f64::from(p.wan_round_trips) + 0.4))
        .collect();
    assert_eq!(cross_check_traced_wan(&mut report, &agreeing), 0);

    // A traced run observing two extra WAN round trips on Item — say a
    // replica that silently stopped covering it — must trip the check.
    let item_static = f64::from(
        report
            .pages
            .iter()
            .find(|p| p.page == "Item")
            .unwrap()
            .wan_round_trips,
    );
    let disagreeing = vec![
        ("Item".to_string(), item_static + 2.0),
        ("NotAPage".to_string(), 99.0), // unknown pages are ignored
    ];
    assert_eq!(cross_check_traced_wan(&mut report, &disagreeing), 1);
    assert!(report.codes().contains(&"W108"), "{}", report.render_text());
    let w108 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "W108")
        .unwrap();
    assert_eq!(w108.span.page.as_deref(), Some("Item"));
    assert!(w108.message.contains("not behaving as analyzed"));
}

#[test]
fn w113_slo_latency_objective_below_the_wan_floor() {
    use mutsvc_analyze::check_slo_reachability;
    use mutsvc_core::SloSpec;

    let mut report = report_for(AppKind::PetStore, Config::RemoteFacade, |_, _| {});
    assert!(!report.codes().contains(&"W113"));
    let (input, _) = Scenario::quick(AppKind::PetStore, Config::RemoteFacade).build();

    // Remote-façade serves Item through one wide-area façade call, so the
    // static walk prices it at least one 200 ms round trip on the paper
    // topology's 100 ms WAN legs.
    let item_rts = report
        .pages
        .iter()
        .find(|p| p.page == "Item")
        .unwrap()
        .wan_round_trips;
    assert!(item_rts >= 1, "remote-façade Item must cross the WAN");
    let floor = f64::from(item_rts) * 200.0;

    // Reachable objectives — and objectives naming unknown pages — stay
    // silent.
    let fine = SloSpec::new()
        .page("Item", floor + 50.0, 0.95)
        .page("NotAPage", 1.0, 0.5);
    assert_eq!(
        check_slo_reachability(&mut report, &fine, &input.topology),
        0
    );
    assert!(!report.codes().contains(&"W113"));

    // A threshold under the static floor can never be met on this topology.
    let hopeless = SloSpec::new().page("Item", floor - 100.0, 0.95);
    assert_eq!(
        check_slo_reachability(&mut report, &hopeless, &input.topology),
        1
    );
    assert!(report.codes().contains(&"W113"), "{}", report.render_text());
    let w113 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "W113")
        .unwrap();
    assert_eq!(w113.span.page.as_deref(), Some("Item"));
    assert!(w113.message.contains("unsatisfiable"));
}

#[test]
fn w106_replicated_stateful_session_off_the_central_node() {
    let report = report_for(
        AppKind::PetStore,
        Config::StatefulCaching,
        |input, nodes| {
            let cart = input.registry.by_name("ShoppingCart").unwrap();
            input.descriptor.placements.insert(
                cart,
                Placement {
                    primary: nodes.edge1,
                    replicas: [nodes.edge2].into_iter().collect(),
                },
            );
        },
    );
    assert!(report.codes().contains(&"W106"), "{}", report.render_text());
}

#[test]
fn w109_centralized_is_a_wide_area_single_point_of_failure() {
    use mutsvc_analyze::analyze_target;
    // The paper's strawman: every page — reads included — dies with the WAN.
    let report = analyze_target(AppKind::PetStore, Config::Centralized);
    assert!(report.codes().contains(&"W109"), "{}", report.render_text());
    let w109 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "W109")
        .unwrap();
    assert!(w109.message.contains("WAN partition"));

    // §4.3 replicas keep catalog reads local: no single point of failure
    // for reads, in either application.
    for app in AppKind::all() {
        let report = analyze_target(app, Config::StatefulCaching);
        assert!(
            !report.codes().contains(&"W109"),
            "{}: {}",
            app.name(),
            report.render_text()
        );
    }
}

#[test]
fn w110_unbounded_staleness_when_propagation_is_stripped() {
    // Keep the §4.3 entity replicas but delete the propagation mode that
    // maintains them: every replica-served read site degrades to Unbounded
    // on the staleness lattice and the dataflow reports each one.
    let report = report_for(AppKind::PetStore, Config::StatefulCaching, |input, _| {
        input.descriptor.entity_propagation = UpdatePropagation::None;
    });
    assert!(report.codes().contains(&"W110"), "{}", report.render_text());
    // The per-page staleness column degrades with the sites.
    assert!(
        report.pages.iter().any(|p| p.staleness == "unbounded"),
        "{}",
        report.render_text()
    );
}

#[test]
fn w111_failover_target_unreachable_during_its_episode() {
    use mutsvc_analyze::FaultContext;
    // Damage the edge-crash episode so the central server dies with the
    // edge: the resilient policy's edge→main failover edge then has nowhere
    // to land exactly when it is supposed to be taken.
    let scenario = Scenario::quick(AppKind::PetStore, Config::StatefulCaching);
    let (warmup, duration) = (scenario.warmup, scenario.duration);
    let (input, nodes) = scenario.build();
    let pages = input.app.all_pages();
    let flows = input.app.session_flows();
    let mut ctx = FaultContext::standard(&input.topology, &nodes, warmup, duration);
    for view in &mut ctx.episodes {
        if view.name == "edge-crash" {
            view.network.apply_fault(FaultKind::NodeCrash {
                node: nodes.main.index() as u32,
            });
        }
    }
    let report = analyze(&AnalyzeInput {
        app_name: "petstore",
        registry: &input.registry,
        descriptor: &input.descriptor,
        db: &input.db,
        nodes: &nodes,
        topology: &input.topology,
        pages: &pages,
        flows: &flows,
        invariant: wan_invariant(Config::StatefulCaching),
        fault_context: Some(ctx),
    });
    assert!(report.codes().contains(&"W111"), "{}", report.render_text());
    let w111 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "W111")
        .unwrap();
    assert!(w111.message.contains("edge-crash"), "{}", w111.message);
}

#[test]
fn w112_relayed_crossing_through_two_wan_hops() {
    // Maroon the Catalog's only instance on edge-2: pages entered at edge-1
    // must relay through the router across both wide-area legs, and each
    // round trip is charged twice against the §4.2 budget.
    let report = report_for(AppKind::PetStore, Config::RemoteFacade, |input, nodes| {
        let catalog = input.registry.by_name("Catalog").unwrap();
        input.descriptor.placements.insert(
            catalog,
            Placement {
                primary: nodes.edge2,
                replicas: BTreeSet::new(),
            },
        );
    });
    assert!(report.codes().contains(&"W112"), "{}", report.render_text());
    let w112 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "W112")
        .unwrap();
    assert!(
        w112.message.contains("2 wide-area hops"),
        "{}",
        w112.message
    );
    // The budget check prices the same relay, so the hop-weighted E003
    // fires alongside the lint that explains it.
    assert!(report.codes().contains(&"E003"), "{}", report.render_text());
}

#[test]
fn e005_own_write_rolled_back_when_the_propagation_path_partitions() {
    use mutsvc_analyze::FaultContext;
    use mutsvc_apps::{SessionFlow, SessionKind};
    // A two-page session: EditItem writes the item table at the center,
    // ItemAgain re-reads the same table from the edge replica. Under
    // asynchronous propagation the replica trails the write, and the
    // main-link partition severs the JMS path while the resilient policy
    // keeps serving from the edge — the session observes its own write
    // rolled back.
    let scenario = Scenario::quick(AppKind::PetStore, Config::AsyncUpdates);
    let (warmup, duration) = (scenario.warmup, scenario.duration);
    let (input, nodes) = scenario.build();
    let mutsvc_apps::App::PetStore(ps) = &input.app else {
        unreachable!()
    };
    let params = ps.representative_params();
    let t = ps.tables.item;
    let item = ps.components.item;
    let web = ps.components.web;
    let write_root = Call::new(web, "editItem", SimDuration::ZERO).invoke(
        Call::new(item, "update", SimDuration::ZERO).mutate(Mutation::Update {
            table: t,
            id: params.item,
            column: 2,
            value: Value::Int(1),
        }),
        100,
        100,
    );
    let read_root = Call::new(web, "viewItem", SimDuration::ZERO).invoke(
        Call::new(item, "load", SimDuration::ZERO).query(
            Query::ByPk {
                table: t,
                id: params.item,
            },
            DbAccess::Single,
        ),
        100,
        400,
    );
    let pages = vec![
        PageRequest::new("EditItem", write_root, 8_000),
        PageRequest::new("ItemAgain", read_root, 8_000),
    ];
    let flows = vec![SessionFlow {
        pattern: "Editor",
        kind: SessionKind::Transactional,
        pages: vec!["EditItem", "ItemAgain"],
        chain: true,
        weights: vec![0.5, 0.5],
    }];
    let ctx = FaultContext::standard(&input.topology, &nodes, warmup, duration);
    let report = analyze(&AnalyzeInput {
        app_name: "petstore",
        registry: &input.registry,
        descriptor: &input.descriptor,
        db: &input.db,
        nodes: &nodes,
        topology: &input.topology,
        pages: &pages,
        flows: &flows,
        invariant: wan_invariant(Config::AsyncUpdates),
        fault_context: Some(ctx),
    });
    assert!(report.has_errors());
    assert!(report.codes().contains(&"E005"), "{}", report.render_text());
    let e005 = report
        .diagnostics
        .iter()
        .find(|d| d.code == "E005")
        .unwrap();
    assert!(e005.message.contains("Editor"), "{}", e005.message);
    assert!(
        e005.message.contains("main-link-partition"),
        "{}",
        e005.message
    );
    assert_eq!(e005.span.page.as_deref(), Some("ItemAgain"));
}

#[test]
fn w109_fires_when_damage_pins_every_read_to_the_center() {
    // Undo §4.3: strip every entity replica from the stateful-caching
    // deployment. Catalog reads fall back to the center and the edge is
    // again one cut away from serving nothing.
    let report = report_for(
        AppKind::PetStore,
        Config::StatefulCaching,
        |input, nodes| {
            input.descriptor.entity_propagation = UpdatePropagation::None;
            for placement in input.descriptor.placements.values_mut() {
                placement.replicas.remove(&nodes.edge1);
                placement.replicas.remove(&nodes.edge2);
            }
        },
    );
    assert!(report.codes().contains(&"W109"), "{}", report.render_text());
}
