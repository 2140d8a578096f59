//! Golden cross-validation: the static walker's crossing model must match
//! the binder's own warm-bind introspection, page by page, for every
//! application × configuration.
//!
//! Each page is statically walked first (against the current database
//! state), then bound twice from the edge-1 client; the second (warm) bind
//! represents steady state. Two properties are checked:
//!
//! * the static count of RMI crossings equals the binder's
//!   `remote_invocations` stat **exactly**;
//! * the sequence of wide-area crossings (from, to, kind, trips) is
//!   identical. LAN-only crossings are excluded because cold-bind mutations
//!   shift BMP finder row counts between the walk and the warm bind; those
//!   finders stay on the LAN in every paper configuration.

use mutsvc_analyze::{entry_node, node_label, walk_page};
use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_desim::SimRng;
use mutsvc_middleware::{Binder, ContainerCosts, ContainerState, Crossing, CrossingKind};

fn check_scenario(app: AppKind, config: Config) {
    let (mut input, nodes) = Scenario::quick(app, config).build();
    let pages = input.app.all_pages();
    let mut state = ContainerState::new();
    let mut rng = SimRng::seed_from_u64(7);
    let mut tag = 0u64;
    let costs = ContainerCosts::default();
    let is_wan = |c: &Crossing| input.topology.wan_hops(c.from, c.to) > 0;

    for page in &pages {
        let entry = entry_node(&input.descriptor, nodes.edge1, nodes.main, page);
        let walk = walk_page(
            &input.registry,
            &input.descriptor,
            &input.db,
            &input.topology,
            entry,
            page,
        );

        let mut warm = None;
        for _ in 0..2 {
            let bound = Binder::new(
                &input.registry,
                &input.descriptor,
                &input.protocols,
                &costs,
                &mut input.db,
                &mut state,
                &mut rng,
                &mut tag,
            )
            .bind_page(nodes.client_edge1, entry, page);
            warm = Some(bound);
        }
        let warm = warm.expect("two binds");

        let label = format!("{}/{}/{}", app.name(), config.name(), page.page);

        let static_rmi = walk
            .crossings
            .iter()
            .filter(|c| c.kind == CrossingKind::Rmi)
            .count() as u32;
        assert_eq!(
            static_rmi, warm.stats.remote_invocations,
            "{label}: static RMI crossings vs binder remote_invocations"
        );

        let wan_only = |crossings: &[Crossing]| -> Vec<Crossing> {
            crossings.iter().copied().filter(is_wan).collect()
        };
        let static_wan = wan_only(&walk.crossings);
        let dynamic_wan = wan_only(&warm.crossings);
        assert_eq!(
            static_wan.len(),
            dynamic_wan.len(),
            "{label}: WAN crossing count (static {static_wan:?} vs dynamic {dynamic_wan:?})"
        );
        for (s, d) in static_wan.iter().zip(&dynamic_wan) {
            assert_eq!(
                s,
                d,
                "{label}: WAN crossing mismatch ({} -> {} {:?} vs {} -> {} {:?})",
                node_label(&nodes, s.from),
                node_label(&nodes, s.to),
                s.kind,
                node_label(&nodes, d.from),
                node_label(&nodes, d.to),
                d.kind
            );
        }
    }
}

#[test]
fn petstore_static_walk_matches_warm_binds() {
    for config in Config::all() {
        check_scenario(AppKind::PetStore, config);
    }
}

#[test]
fn rubis_static_walk_matches_warm_binds() {
    for config in Config::all() {
        check_scenario(AppKind::Rubis, config);
    }
}
