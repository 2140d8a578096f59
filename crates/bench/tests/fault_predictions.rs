//! Acceptance: the analyzer's static per-episode availability predictions
//! agree with the fault suite's *simulated* availability — the same runs
//! that feed `BENCH_faults.json` — within one percentage point, for all
//! three standard episodes across every application × configuration cell
//! (resilient policy arm, the arm the predictions model), and on cells
//! outside the suite that combine schedules, policies and deployments the
//! suite does not.

use mutsvc_analyze::{analyze, analyze_target, AnalyzeInput, FaultContext};
use mutsvc_bench::fault_artifacts::run_fault_suite;
use mutsvc_core::{wan_invariant, AppKind, Config, EpisodeView, FaultCase, PaperNodes, Scenario};
use mutsvc_desim::fault::{FaultEvent, FaultKind, FaultSchedule};
use mutsvc_desim::time::SimDuration;
use mutsvc_middleware::UpdatePropagation;
use mutsvc_netsim::{NodeId, Topology};
use mutsvc_workload::{run_experiment, ExperimentInput, FaultPolicy};

const TOLERANCE: f64 = 0.01;

#[test]
fn static_availability_within_one_point_of_simulated() {
    for app in AppKind::all() {
        let cells = run_fault_suite(app, true, false, 42);
        for config in Config::all() {
            let report = analyze_target(app, config);
            let mut checked = 0;
            for cell in cells
                .iter()
                .filter(|c| c.policy == "resilient" && c.config == config)
            {
                let episode = cell.case.name();
                let row = report
                    .availability
                    .iter()
                    .find(|r| r.episode == episode)
                    .unwrap_or_else(|| {
                        panic!(
                            "{}/{}: no prediction for episode `{episode}`",
                            app.name(),
                            config.name()
                        )
                    });
                let simulated = cell
                    .report
                    .stats
                    .outcome("remote1")
                    .expect("remote1 group outcome")
                    .availability();
                let diff = (row.availability - simulated).abs();
                assert!(
                    diff.is_finite() && diff <= TOLERANCE,
                    "{}/{} {episode}: predicted {:.4}, simulated {:.4}, diff {:.4} > {TOLERANCE}",
                    app.name(),
                    config.name(),
                    row.availability,
                    simulated,
                    diff
                );
                checked += 1;
            }
            assert_eq!(
                checked,
                3,
                "{}/{}: expected all three standard episodes",
                app.name(),
                config.name()
            );
        }
    }
}

/// The dense index of the directed link `from -> to`.
fn link(topology: &Topology, from: NodeId, to: NodeId) -> u32 {
    topology
        .link_ids()
        .find(|&l| topology.link(l).from == from && topology.link(l).to == to)
        .expect("a direct link")
        .index() as u32
}

/// Runs one cell at seed 42 with quick windows through the analyzer and the
/// simulator. `damage` edits the input both sides see; `schedule` scripts
/// the episode against the built topology. Returns the predicted and the
/// simulated availability of the `remote1` group.
fn predicted_and_simulated(
    app: AppKind,
    config: Config,
    policy: FaultPolicy,
    damage: impl FnOnce(&mut ExperimentInput),
    schedule: impl FnOnce(&Topology, &PaperNodes, SimDuration, SimDuration) -> FaultSchedule,
) -> (f64, f64) {
    let scenario = Scenario::quick(app, config);
    let (warmup, duration) = (scenario.warmup, scenario.duration);
    let (mut input, nodes) = scenario.build();
    damage(&mut input);
    let schedule = schedule(&input.topology, &nodes, warmup, duration);
    let pages = input.app.all_pages();
    let flows = input.app.session_flows();
    let report = analyze(&AnalyzeInput {
        app_name: app.name(),
        registry: &input.registry,
        descriptor: &input.descriptor,
        db: &input.db,
        nodes: &nodes,
        topology: &input.topology,
        pages: &pages,
        flows: &flows,
        invariant: wan_invariant(config),
        fault_context: Some(FaultContext {
            policy,
            timeout: input.spec.faults.timeout,
            episodes: vec![EpisodeView::from_schedule(
                "off-suite",
                &schedule,
                &input.topology,
            )],
            window: duration,
        }),
    });
    let predicted = report.availability[0].availability;
    input.spec.faults.schedule = schedule;
    input.spec.faults.policy = policy;
    let simulated = run_experiment(input)
        .stats
        .outcome("remote1")
        .expect("remote1 group outcome")
        .availability();
    (predicted, simulated)
}

/// Seven cells off the standard suite, each resting on one fault semantic
/// the analyzer must share with the simulator: a degradation while the link
/// is down, the stale-serve rule for query caches without entity
/// propagation, and a cut in one direction only.
#[test]
fn off_suite_cells_agree_with_the_simulator() {
    let at = |warmup: SimDuration, duration: SimDuration, quarters: u64| {
        warmup + (duration / 4) * quarters
    };
    // Both directions of the edge-1 leg go down at 1/4, are degraded x2 at
    // 1/2 and come back at 3/4.
    let flapping_leg = |t: &Topology, n: &PaperNodes, w, d| {
        let legs = [link(t, n.edge1, n.router), link(t, n.router, n.edge1)];
        let mut events = Vec::new();
        for link in legs {
            events.push(FaultEvent {
                at: at(w, d, 1),
                kind: FaultKind::LinkDown { link },
            });
            events.push(FaultEvent {
                at: at(w, d, 2),
                kind: FaultKind::LinkDegraded { link, factor: 2.0 },
            });
            events.push(FaultEvent {
                at: at(w, d, 3),
                kind: FaultKind::LinkRestore { link },
            });
        }
        FaultSchedule::scripted(events)
    };
    let partition =
        |t: &Topology, n: &PaperNodes, w, d| FaultCase::MainLinkPartition.schedule(t, n, w, d);
    // Only `router -> edge1` goes down, from 1/4 to 3/4.
    let one_way_cut = |t: &Topology, n: &PaperNodes, w, d| {
        let link = link(t, n.router, n.edge1);
        FaultSchedule::scripted(vec![
            FaultEvent {
                at: at(w, d, 1),
                kind: FaultKind::LinkDown { link },
            },
            FaultEvent {
                at: at(w, d, 3),
                kind: FaultKind::LinkRestore { link },
            },
        ])
    };
    let no_entity_propagation = |input: &mut ExperimentInput| {
        input.descriptor.entity_propagation = UpdatePropagation::None;
    };
    let strict = FaultPolicy::none();
    let cells = [
        (
            "petstore/remote-facade flapping leg",
            predicted_and_simulated(
                AppKind::PetStore,
                Config::RemoteFacade,
                FaultPolicy::resilient(),
                |_| {},
                flapping_leg,
            ),
        ),
        (
            "petstore/query-caching without entity propagation",
            predicted_and_simulated(
                AppKind::PetStore,
                Config::QueryCaching,
                strict,
                no_entity_propagation,
                partition,
            ),
        ),
        (
            "rubis/query-caching without entity propagation",
            predicted_and_simulated(
                AppKind::Rubis,
                Config::QueryCaching,
                strict,
                no_entity_propagation,
                partition,
            ),
        ),
        (
            "petstore/stateful-caching one-way cut",
            predicted_and_simulated(
                AppKind::PetStore,
                Config::StatefulCaching,
                strict,
                |_| {},
                one_way_cut,
            ),
        ),
        (
            "petstore/query-caching one-way cut",
            predicted_and_simulated(
                AppKind::PetStore,
                Config::QueryCaching,
                strict,
                |_| {},
                one_way_cut,
            ),
        ),
        (
            "rubis/stateful-caching one-way cut",
            predicted_and_simulated(
                AppKind::Rubis,
                Config::StatefulCaching,
                strict,
                |_| {},
                one_way_cut,
            ),
        ),
        (
            "rubis/query-caching one-way cut",
            predicted_and_simulated(
                AppKind::Rubis,
                Config::QueryCaching,
                strict,
                |_| {},
                one_way_cut,
            ),
        ),
    ];
    let mut misses = Vec::new();
    for (cell, (predicted, simulated)) in cells {
        let diff = (predicted - simulated).abs();
        println!("{cell}: predicted {predicted:.4}, simulated {simulated:.4}, diff {diff:.4}");
        if diff > TOLERANCE {
            misses.push(cell);
        }
    }
    assert!(
        misses.is_empty(),
        "off by more than {TOLERANCE}: {misses:?}"
    );
}
