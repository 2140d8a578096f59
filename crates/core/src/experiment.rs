//! Scenario assembly: application × configuration → a runnable experiment.

use mutsvc_apps::App;
use mutsvc_desim::time::SimDuration;
use mutsvc_middleware::ContainerCosts;
use mutsvc_netsim::{NodeId, ProtocolParams, Topology};
use mutsvc_workload::{
    paper_groups, run_experiment, run_experiment_parallel, AdaptiveSettings, ClientGroup,
    ExperimentInput, ExperimentReport, FaultPolicy, FaultSettings, MetricsSettings, SloSpec,
    TraceSettings, WorkloadSpec,
};

use crate::configs::{
    petstore_adaptive_baseline, petstore_descriptor_on, rubis_adaptive_baseline,
    rubis_descriptor_on, Config,
};
use crate::faultsuite::{AdaptiveEpisode, EpisodeTargets, FaultCase};
use crate::topology::{
    fanout_topology, multi_tier_topology, paper_topology, MultiTierSpec, PaperNodes,
};

/// Which application a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Java Pet Store.
    PetStore,
    /// RUBiS.
    Rubis,
}

impl AppKind {
    /// Both applications.
    pub fn all() -> [AppKind; 2] {
        [AppKind::PetStore, AppKind::Rubis]
    }

    /// The application name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::PetStore => "petstore",
            AppKind::Rubis => "rubis",
        }
    }
}

/// One experiment: an application under one configuration at the paper's load.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The application.
    pub app: AppKind,
    /// The configuration under test.
    pub config: Config,
    /// RNG seed.
    pub seed: u64,
    /// Warm-up excluded from statistics.
    pub warmup: SimDuration,
    /// Measured duration.
    pub duration: SimDuration,
    /// One-way WAN latency override (ablation; default 100 ms).
    pub wan_one_way: Option<SimDuration>,
    /// RMI extra-round-trip probability override (ablation).
    pub rmi_extra_round_trip_prob: Option<f64>,
    /// Tracing policy (off by default).
    pub trace: TraceSettings,
    /// Windowed metrics recorder policy (off by default).
    pub metrics: MetricsSettings,
    /// Service-level objectives graded against the metrics windows by
    /// [`mutsvc_workload::evaluate`]. Carried on the scenario so report
    /// generators and the static analyzer see the same objectives.
    pub slo: Option<SloSpec>,
    /// Fault schedule, timeout and recovery policy (off by default).
    pub faults: FaultSettings,
    /// A standard-suite episode scripted at build time against the built
    /// topology (it needs link/node indices, which only exist then). When
    /// set, it replaces `faults.schedule`.
    pub fault_case: Option<FaultCase>,
    /// Run on the parallel engine with up to this many OS threads, as
    /// independent client-region shards (DESIGN.md §6.5). `None` (the
    /// default) keeps the classic sequential engine. The parallel result
    /// is byte-identical at every thread count, but draws from per-shard
    /// RNG streams, so it is not bit-comparable to a sequential run.
    pub parallel: Option<usize>,
}

impl Scenario {
    /// A scenario with the paper's full measurement window (§3.3: roughly
    /// one hour preceded by warm-up).
    pub fn paper(app: AppKind, config: Config) -> Self {
        Scenario {
            app,
            config,
            seed: 42,
            warmup: SimDuration::from_secs(180),
            duration: SimDuration::from_secs(3_600),
            wan_one_way: None,
            rmi_extra_round_trip_prob: None,
            trace: TraceSettings::off(),
            metrics: MetricsSettings::off(),
            slo: None,
            faults: FaultSettings::off(),
            fault_case: None,
            parallel: None,
        }
    }

    /// A shortened scenario for tests and quick reports. The page means
    /// stabilize well before the full hour: at 30 req/s even a 5-minute
    /// window collects ~9000 samples.
    pub fn quick(app: AppKind, config: Config) -> Self {
        Scenario {
            app,
            config,
            seed: 42,
            warmup: SimDuration::from_secs(90),
            duration: SimDuration::from_secs(300),
            wan_one_way: None,
            rmi_extra_round_trip_prob: None,
            trace: TraceSettings::off(),
            metrics: MetricsSettings::off(),
            slo: None,
            faults: FaultSettings::off(),
            fault_case: None,
            parallel: None,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the one-way WAN latency (ablation sweeps).
    pub fn with_wan_latency(mut self, one_way: SimDuration) -> Self {
        self.wan_one_way = Some(one_way);
        self
    }

    /// Overrides the RMI extra-round-trip probability (stack chattiness).
    pub fn with_rmi_chattiness(mut self, prob: f64) -> Self {
        self.rmi_extra_round_trip_prob = Some(prob);
        self
    }

    /// Sets the tracing policy.
    pub fn with_trace(mut self, trace: TraceSettings) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the windowed metrics recorder policy.
    pub fn with_metrics(mut self, metrics: MetricsSettings) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches service-level objectives to grade against the metrics windows.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets an explicit fault schedule, timeout and policy.
    pub fn with_faults(mut self, faults: FaultSettings) -> Self {
        self.faults = faults;
        self
    }

    /// Runs a standard-suite fault episode under the given recovery policy.
    pub fn with_fault_case(mut self, case: FaultCase, policy: FaultPolicy) -> Self {
        self.fault_case = Some(case);
        self.faults.policy = policy;
        self
    }

    /// Runs on the region-sharded parallel engine with up to `threads` OS
    /// threads (DESIGN.md §6.5).
    pub fn with_parallel(mut self, threads: usize) -> Self {
        self.parallel = Some(threads);
        self
    }

    /// Assembles the runnable input: topology, application, descriptor,
    /// protocol stack and the paper's client groups.
    pub fn build(&self) -> (ExperimentInput, PaperNodes) {
        let db_on_main = matches!(self.app, AppKind::Rubis);
        let (topology, nodes) = match self.wan_one_way {
            Some(wan) => crate::topology::topology_with_wan(db_on_main, wan),
            None => paper_topology(db_on_main),
        };

        let entry = |edge| self.config.entry(nodes.main, edge);
        let groups = paper_groups(
            (nodes.client_local, nodes.main),
            (nodes.client_edge1, entry(nodes.edge1)),
            (nodes.client_edge2, entry(nodes.edge2)),
        );
        let mut faults = self.faults.clone();
        if let Some(case) = self.fault_case {
            faults.schedule = case.schedule(&topology, &nodes, self.warmup, self.duration);
        }
        let spec = WorkloadSpec::paper_load(groups)
            .with_duration(self.warmup, self.duration)
            .with_seed(self.seed)
            .with_trace(self.trace)
            .with_metrics(self.metrics)
            .with_faults(faults);

        let mut input = assemble(
            self.app,
            Deployment::Paper(self.config),
            topology,
            nodes.main,
            nodes.db,
            &nodes.edges(),
            spec,
        );
        if let Some(prob) = self.rmi_extra_round_trip_prob {
            input.protocols.rmi_extra_round_trip_prob = prob;
        }
        (input, nodes)
    }

    /// Builds and runs the experiment on the engine selected by
    /// [`Scenario::parallel`].
    pub fn run(&self) -> ExperimentReport {
        let (input, _) = self.build();
        match self.parallel {
            Some(threads) => run_experiment_parallel(input, threads),
            None => run_experiment(input),
        }
    }
}

/// What an assembled input deploys: one of the paper's configurations, or
/// the adaptation suite's baseline ([`petstore_adaptive_baseline`]).
#[derive(Clone, Copy)]
enum Deployment {
    Paper(Config),
    AdaptiveBaseline,
}

/// Assembles a runnable input over `topology`: the application with its
/// registry and database, the deployment descriptor over the central server
/// `main`, the database host `db_node` and the edge servers, the
/// application's protocol stack, and `spec`.
fn assemble(
    app: AppKind,
    deployment: Deployment,
    topology: Topology,
    main: NodeId,
    db_node: NodeId,
    edges: &[NodeId],
    spec: WorkloadSpec,
) -> ExperimentInput {
    let (app, registry, db, descriptor, protocols) = match app {
        AppKind::PetStore => {
            let facade = match deployment {
                Deployment::Paper(config) => config.uses_facade_app(),
                Deployment::AdaptiveBaseline => true,
            };
            let (app, registry, db) = App::petstore(facade);
            let c = match &app {
                App::PetStore(ps) => ps.components,
                App::Rubis(_) => unreachable!(),
            };
            let descriptor = match deployment {
                Deployment::Paper(config) => {
                    petstore_descriptor_on(config, &registry, &c, main, db_node, edges)
                }
                Deployment::AdaptiveBaseline => {
                    petstore_adaptive_baseline(&registry, &c, main, db_node, edges)
                }
            };
            let protocols = ProtocolParams::petstore_stack();
            (app, registry, db, descriptor, protocols)
        }
        AppKind::Rubis => {
            let (app, registry, db) = App::rubis();
            let c = match &app {
                App::Rubis(r) => r.components,
                App::PetStore(_) => unreachable!(),
            };
            let descriptor = match deployment {
                Deployment::Paper(config) => {
                    rubis_descriptor_on(config, &registry, &c, main, db_node, edges)
                }
                Deployment::AdaptiveBaseline => {
                    rubis_adaptive_baseline(&registry, &c, main, db_node, edges)
                }
            };
            (app, registry, db, descriptor, ProtocolParams::rubis_stack())
        }
    };
    ExperimentInput {
        app,
        registry,
        db,
        descriptor,
        topology,
        protocols,
        container_costs: ContainerCosts::default(),
        spec,
    }
}

/// Splits the paper's 30 req/s aggregate equally (80 % browsers / 20 %
/// transactional, as in §3.3) across a `"local"` group of `client_local`
/// entering at `main`, and one group per edge server, named `{prefix}1`,
/// `{prefix}2`, …, whose clients `edge_clients[i]` enter at
/// `entry(edges[i])`.
fn equal_split_groups(
    (client_local, main): (NodeId, NodeId),
    prefix: &str,
    edges: &[NodeId],
    edge_clients: &[NodeId],
    entry: impl Fn(NodeId) -> NodeId,
) -> Vec<ClientGroup> {
    let group_rate = 30.0 / (edges.len() + 1) as f64;
    let mk = |name: String, client, entry| ClientGroup {
        name,
        client_node: client,
        entry_node: entry,
        browser_rate: group_rate * 0.8,
        transactional_rate: group_rate * 0.2,
    };
    let mut groups = vec![mk("local".to_string(), client_local, main)];
    for (i, (&edge, &clients)) in edges.iter().zip(edge_clients).enumerate() {
        groups.push(mk(format!("{prefix}{}", i + 1), clients, entry(edge)));
    }
    groups
}

/// Assembles an experiment over a widened [`fanout_topology`]: the paper's
/// local cluster plus `edges` WAN edge regions, each with its own client
/// group. The paper's 30 req/s aggregate load is split equally across the
/// `edges + 1` groups (80 % browsers / 20 % transactional, as in §3.3), so
/// the offered load stays constant while the region count — and hence the
/// shard count of the parallel engine — scales.
pub fn fanout_input(app: AppKind, config: Config, edges: usize, seed: u64) -> ExperimentInput {
    let db_on_main = matches!(app, AppKind::Rubis);
    let (topology, nodes) = fanout_topology(db_on_main, edges);
    let groups = equal_split_groups(
        (nodes.client_local, nodes.main),
        "remote",
        &nodes.edges,
        &nodes.edge_clients,
        |edge| config.entry(nodes.main, edge),
    );
    let spec = WorkloadSpec::paper_load(groups)
        .with_duration(SimDuration::from_secs(90), SimDuration::from_secs(300))
        .with_seed(seed);
    assemble(
        app,
        Deployment::Paper(config),
        topology,
        nodes.main,
        nodes.db,
        &nodes.edges,
        spec,
    )
}

/// Assembles an experiment over a generated [`multi_tier_topology`]: the
/// paper's core site plus `spec.hubs` regional hubs carrying
/// `spec.edges_per_hub` edge PoPs each. The application descriptor deploys
/// its edge-tier components onto every PoP server (hubs stay pure transit,
/// like the paper's router), and the 30 req/s aggregate load is split
/// equally across the core client group and one client group per PoP —
/// with WAN edge legs (`metro_edges: false`) every PoP is its own client
/// region, so this is the shard-count scaling axis for the parallel
/// engine.
pub fn multi_tier_input(
    app: AppKind,
    config: Config,
    spec: &MultiTierSpec,
    seed: u64,
) -> ExperimentInput {
    let (topology, nodes) = multi_tier_topology(spec);
    let groups = equal_split_groups(
        (nodes.client_local, nodes.main),
        "pop",
        &nodes.edges,
        &nodes.edge_clients,
        |edge| config.entry(nodes.main, edge),
    );
    let spec = WorkloadSpec::paper_load(groups)
        .with_duration(SimDuration::from_secs(90), SimDuration::from_secs(300))
        .with_seed(seed);
    assemble(
        app,
        Deployment::Paper(config),
        topology,
        nodes.main,
        nodes.db,
        &nodes.edges,
        spec,
    )
}

/// Assembles one adaptation-suite experiment: the application on its
/// *adaptive baseline* descriptor (entries at the edges, session tier
/// centralized — see [`petstore_adaptive_baseline`]), windowed metrics, the
/// episode's scripted drift, and the given controller policy. Pass
/// [`AdaptiveSettings::off`] for the control arm of an on/off pair — both
/// arms share topology, descriptor, load and seed, so any divergence is
/// the controller's doing.
///
/// `tier` selects the network: `None` is the paper's two-edge star;
/// `Some(spec)` a generated [`multi_tier_topology`] whose edge PoPs all
/// receive an entry deployment and a client group (load split equally, as
/// in [`multi_tier_input`]). The episode stresses the first PoP; the
/// diurnal shift swings between the first and second.
pub fn adaptive_episode_input(
    app: AppKind,
    episode: AdaptiveEpisode,
    tier: Option<&MultiTierSpec>,
    controller: AdaptiveSettings,
    warmup: SimDuration,
    duration: SimDuration,
    seed: u64,
) -> ExperimentInput {
    let db_on_main = matches!(app, AppKind::Rubis);
    let (topology, main, db, client_local, edges, edge_clients) = match tier {
        Some(spec) => {
            let (t, n) = multi_tier_topology(spec);
            (t, n.main, n.db, n.client_local, n.edges, n.edge_clients)
        }
        None => {
            let (t, n) = paper_topology(db_on_main);
            (
                t,
                n.main,
                n.db,
                n.client_local,
                vec![n.edge1, n.edge2],
                vec![n.client_edge1, n.client_edge2],
            )
        }
    };
    assert!(edges.len() >= 2, "the adaptation suite needs two edge PoPs");

    // Every remote group enters at its own edge.
    let groups = equal_split_groups(
        (client_local, main),
        "remote",
        &edges,
        &edge_clients,
        |edge| edge,
    );
    let targets = EpisodeTargets {
        core: main,
        edge1: edges[0],
        edge2: edges[1],
        group1: "remote1".to_string(),
    };
    let (schedule, surges) = episode.schedule(&topology, &targets, warmup, duration);
    let mut spec = WorkloadSpec::paper_load(groups)
        .with_duration(warmup, duration)
        .with_seed(seed)
        .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)))
        .with_faults(FaultSettings {
            schedule,
            timeout: SimDuration::from_secs(30),
            policy: FaultPolicy::none(),
        })
        .with_adaptive(controller);
    for surge in surges {
        spec = spec.with_surge(surge);
    }
    assemble(
        app,
        Deployment::AdaptiveBaseline,
        topology,
        main,
        db,
        &edges,
        spec,
    )
}

/// Runs the five configurations of one application (the full Table 6 or
/// Table 7 sweep).
pub fn run_sweep(app: AppKind, quick: bool, seed: u64) -> Vec<ExperimentReport> {
    Config::all()
        .into_iter()
        .map(|config| {
            let scenario = if quick {
                Scenario::quick(app, config)
            } else {
                Scenario::paper(app, config)
            };
            scenario.with_seed(seed).run()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_assemble_for_every_cell() {
        for app in AppKind::all() {
            for config in Config::all() {
                let (input, nodes) = Scenario::quick(app, config).build();
                assert_eq!(input.descriptor.name, config.name());
                assert_eq!(input.spec.total_rate(), 30.0);
                // Entry servers: centralized keeps everyone on main.
                let remote_entry = input.spec.groups[1].entry_node;
                if config == Config::Centralized {
                    assert_eq!(remote_entry, nodes.main);
                } else {
                    assert_eq!(remote_entry, nodes.edge1);
                }
            }
        }
    }

    #[test]
    fn partition_availability_orders_centralized_below_caching() {
        let run = |config| {
            Scenario::quick(AppKind::PetStore, config)
                .with_fault_case(FaultCase::MainLinkPartition, FaultPolicy::resilient())
                .run()
        };
        let central = run(Config::Centralized);
        let caching = run(Config::StatefulCaching);
        let c = central.stats.outcome("remote1").unwrap().availability();
        let s = caching.stats.outcome("remote1").unwrap().availability();
        assert!(c < 0.7, "centralized goes dark behind the cut: {c}");
        assert!(s > c + 0.15, "caching {s} vs centralized {c}");
        // Reads served from partitioned caches are recorded as stale, not
        // silently passed off as fresh.
        assert!(caching.stats.total_outcome().stale_served > 0);
        // The edge-2 group never crosses the cut leg.
        assert_eq!(
            central.stats.outcome("remote2").unwrap().availability(),
            1.0
        );
    }

    #[test]
    fn fanout_input_splits_the_load_across_regions() {
        let input = fanout_input(AppKind::PetStore, Config::AsyncUpdates, 7, 7);
        assert_eq!(input.spec.groups.len(), 8);
        assert!((input.spec.total_rate() - 30.0).abs() < 1e-9);
        // Remote groups enter through their own edge server.
        let entries: std::collections::BTreeSet<_> = input
            .spec
            .groups
            .iter()
            .map(|g| g.entry_node.index())
            .collect();
        assert_eq!(entries.len(), 8, "one entry per region");
        // The centralized baseline funnels everyone to main.
        let central = fanout_input(AppKind::PetStore, Config::Centralized, 7, 7);
        let entries: std::collections::BTreeSet<_> = central
            .spec
            .groups
            .iter()
            .map(|g| g.entry_node.index())
            .collect();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn multi_tier_input_deploys_onto_every_pop() {
        let spec = MultiTierSpec {
            hubs: 3,
            edges_per_hub: 2,
            metro_edges: false,
            db_on_main: false,
        };
        let input = multi_tier_input(AppKind::PetStore, Config::AsyncUpdates, &spec, 7);
        assert_eq!(input.spec.groups.len(), 7, "local + 6 PoP groups");
        assert!((input.spec.total_rate() - 30.0).abs() < 1e-9);
        let entries: std::collections::BTreeSet<_> = input
            .spec
            .groups
            .iter()
            .map(|g| g.entry_node.index())
            .collect();
        assert_eq!(entries.len(), 7, "one entry per PoP plus main");
        // With WAN edge legs, every PoP group is its own client region —
        // the shard count of the parallel engine.
        let regions = input.topology.regions();
        let client_regions: std::collections::BTreeSet<_> = input
            .spec
            .groups
            .iter()
            .map(|g| regions[g.client_node.index()])
            .collect();
        assert_eq!(client_regions.len(), 7);
    }

    #[test]
    fn parallel_knob_selects_the_sharded_engine() {
        let base = Scenario::quick(AppKind::PetStore, Config::StatefulCaching);
        let seq = base.clone().run();
        assert!(seq.shard_events.is_empty(), "classic engine has no shards");
        let par = base.with_parallel(2).run();
        assert_eq!(par.shard_events.len(), 3, "one shard per client region");
        assert!(par.completed > 1000);
        // The parallel engine draws per-shard RNG streams, so distributions
        // agree with the sequential run without being bit-identical.
        let s = seq.stats.mean_ms("remote1", "Browser", "Item").unwrap();
        let p = par.stats.mean_ms("remote1", "Browser", "Item").unwrap();
        assert!((s - p).abs() / s < 0.1, "seq {s} vs par {p}");
    }

    #[test]
    fn adaptive_episode_inputs_assemble_on_both_topologies() {
        let controller = mutsvc_workload::AdaptiveSettings::every(SimDuration::from_secs(10));
        let (w, d) = (SimDuration::from_secs(90), SimDuration::from_secs(300));
        let paper = adaptive_episode_input(
            AppKind::PetStore,
            AdaptiveEpisode::LinkDegradation,
            None,
            controller,
            w,
            d,
            5,
        );
        assert_eq!(paper.descriptor.name, "adaptive-baseline");
        assert_eq!(paper.spec.groups.len(), 3);
        assert!(paper.spec.adaptive.active());
        assert!(paper.spec.faults.active());
        assert!(paper.spec.metrics.active());
        // Remote groups enter at their own edge, not at main.
        let entries: std::collections::BTreeSet<_> = paper
            .spec
            .groups
            .iter()
            .map(|g| g.entry_node.index())
            .collect();
        assert_eq!(entries.len(), 3);

        let tier = MultiTierSpec {
            hubs: 2,
            edges_per_hub: 2,
            metro_edges: false,
            db_on_main: false,
        };
        let multi = adaptive_episode_input(
            AppKind::PetStore,
            AdaptiveEpisode::FlashCrowd,
            Some(&tier),
            mutsvc_workload::AdaptiveSettings::off(),
            w,
            d,
            5,
        );
        assert_eq!(multi.spec.groups.len(), 5, "local + 4 PoPs");
        assert!(!multi.spec.adaptive.active(), "control arm stays off");
        assert!(!multi.spec.faults.active(), "flash crowd injects no faults");
        assert_eq!(multi.spec.surges.len(), 1);
        assert_eq!(multi.spec.surges[0].group, "remote1");
    }

    #[test]
    fn controller_beats_frozen_deployment_under_multi_tier_degradation() {
        let tier = MultiTierSpec {
            hubs: 2,
            edges_per_hub: 1,
            metro_edges: false,
            db_on_main: false,
        };
        let (w, d) = (SimDuration::from_secs(30), SimDuration::from_secs(160));
        let run = |controller| {
            run_experiment(adaptive_episode_input(
                AppKind::PetStore,
                AdaptiveEpisode::LinkDegradation,
                Some(&tier),
                controller,
                w,
                d,
                11,
            ))
        };
        let on = run(mutsvc_workload::AdaptiveSettings::every(
            SimDuration::from_secs(10),
        ));
        let off = run(mutsvc_workload::AdaptiveSettings::off());
        let data = on.adaptive.as_ref().expect("controller log attached");
        assert!(
            !data.migrations.is_empty(),
            "degrading the stressed PoP's leg must trigger a migration"
        );
        assert!(off.adaptive.is_none());
        // Acceptance: controller-on strictly improves the stressed group's
        // mean session time or its availability.
        let on_rt = on
            .stats
            .session_mean_over_groups(&["remote1"], "Browser")
            .unwrap();
        let off_rt = off
            .stats
            .session_mean_over_groups(&["remote1"], "Browser")
            .unwrap();
        let on_avail = on.stats.outcome("remote1").unwrap().availability();
        let off_avail = off.stats.outcome("remote1").unwrap().availability();
        assert!(
            on_rt < off_rt || on_avail > off_avail,
            "adaptation must pay: rt {on_rt:.0} vs {off_rt:.0} ms, \
             availability {on_avail:.3} vs {off_avail:.3}"
        );
    }

    #[test]
    fn rubis_db_is_colocated_petstore_db_is_not() {
        let (input, nodes) = Scenario::quick(AppKind::Rubis, Config::Centralized).build();
        assert_eq!(input.descriptor.db_node, nodes.main);
        let (input, nodes) = Scenario::quick(AppKind::PetStore, Config::Centralized).build();
        assert_ne!(input.descriptor.db_node, nodes.main);
        assert_eq!(input.descriptor.central_node, nodes.main);
    }
}
