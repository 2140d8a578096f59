//! Region-sharded experiment driving (DESIGN.md §6.5).
//!
//! [`run_experiment_parallel`] splits one experiment by *client region* —
//! the LAN-connected components of the topology
//! ([`Topology::regions`](mutsvc_netsim::Topology::regions)) — into
//! independent shard simulations, runs them to the horizon on up to
//! `threads` workers (the calling thread is worker 0, so a one-thread run
//! starts no thread), and merges their reports exactly.
//!
//! # Decomposition
//!
//! Each shard owns the client groups whose client node lives in its
//! region and simulates them against a full replica of the world (network,
//! database, container state). Requests from a region's sessions still
//! traverse the shared topology to the central servers, so WAN response
//! times, CPU load on the central nodes, and per-group statistics are
//! produced exactly as in a sequential run of that region's load alone.
//!
//! Nothing crosses shards. What the replica scheme approximates away is
//! cross-region interaction: shard A's requests do not queue behind shard
//! B's on the shared central CPUs, and a remote write changes neither a
//! shard's database replica nor its memoized plans. Telling a shard about
//! a remote write could only make it re-bind against its own unchanged
//! replica, and the plan cache is transparent (the `bind_cache_equivalence`
//! suite pins cache-on and cache-off runs equal, sharded ones included), so
//! such a re-bind returns the plan it replaced. In the provisioned regime
//! the benchmarks run (central CPUs well below saturation) the contention
//! term is small; the approximation is documented, not hidden.
//!
//! # Determinism
//!
//! The decomposition (regions) and the per-shard RNG streams
//! ([`stream::shard`](mutsvc_desim::rng::stream::shard)) are functions of
//! the input alone — never of the thread count — and the shard reports
//! merge in shard-index order. A run at 8 threads is byte-identical to a
//! run at 1: same span logs, same fault tables, same statistics.
//!
//! The live-migration controller ([`crate::adaptive`]) is not hosted here:
//! it runs on the sequential driver's tick, and a spec that arms it is
//! rejected.

use crate::driver::{run_to_horizon, ExperimentInput, ExperimentReport, ShardPlan, ShardProfile};

/// How a topology and workload decompose into shards: one shard per client
/// region, in ascending region order, each listing which client groups it
/// owns.
fn decompose(input: &ExperimentInput) -> Vec<Vec<bool>> {
    let regions = input.topology.regions();
    // Distinct client regions, ascending. Region ids are already dense and
    // ordered by lowest member, so this ordering is a pure function of the
    // topology.
    let mut shard_regions: Vec<usize> = input
        .spec
        .groups
        .iter()
        .map(|g| regions[g.client_node.index()])
        .collect();
    shard_regions.sort_unstable();
    shard_regions.dedup();

    shard_regions
        .iter()
        .map(|&r| {
            input
                .spec
                .groups
                .iter()
                .map(|g| regions[g.client_node.index()] == r)
                .collect()
        })
        .collect()
}

/// Runs one experiment sharded by client region on up to `threads`
/// workers, returning the deterministically merged report. Worker 0 is the
/// calling thread; the others are scoped threads, so a one-thread run
/// spawns none.
///
/// Each worker takes shards round-robin (`index % threads`) and handles
/// one at a time: it builds the shard's world, runs it to the horizon and
/// drains its report. So at most `threads` worlds are alive at once, and
/// the wall time is the slowest worker's. The dealing order
/// barely moves it. On the 8-region Pet Store fan-out at 100× (seed 42),
/// worker 0 of 2 gets shard 0's 168,864 events plus three edge shards of
/// ~109.7 k each, 498,245 against worker 1's 439,007. The best static
/// split, shard 0 with the three smallest edge shards, is 497,801, so no
/// order shortens the slower worker by even 0.1 % (and the benchmark's
/// timed runs of that input use one thread).
///
/// The merged report is byte-identical at every `threads` value; its
/// [`shard_events`](ExperimentReport::shard_events) field records each
/// shard's event count in shard order. Note that a parallel run is *not*
/// byte-identical to [`run_experiment`](crate::driver::run_experiment) —
/// shards draw from per-shard RNG streams — but reproduces the same
/// workload distributions per seed.
///
/// # Panics
///
/// Panics if the spec arms the adaptive controller (it runs on
/// [`run_experiment`](crate::driver::run_experiment) only) or if the spec
/// has no client groups.
pub fn run_experiment_parallel(input: ExperimentInput, threads: usize) -> ExperimentReport {
    assert!(
        !input.spec.adaptive.active(),
        "the adaptive controller runs on the sequential engine only"
    );
    let members = decompose(&input);
    let shard_count = members.len();
    assert!(shard_count > 0, "no client groups to shard");
    let threads = threads.clamp(1, shard_count);

    let run_shard = |index: usize| {
        let plan = ShardPlan {
            index,
            members: members[index].clone(),
        };
        let mut report = run_to_horizon(input.clone(), Some(plan));
        if let Some(m) = &mut report.metrics {
            m.shard_profiles.push(ShardProfile {
                shard: index as u32,
                windows: 1,
                stalled: 0,
                events: report.events_fired,
            });
        }
        report
    };
    let work = |worker: usize| {
        (worker..shard_count)
            .step_by(threads)
            .map(|index| (index, run_shard(index)))
            .collect::<Vec<_>>()
    };
    let mut reports: Vec<(usize, ExperimentReport)> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads)
            .map(|worker| {
                let work = &work;
                scope.spawn(move || work(worker))
            })
            .collect();
        let mut reports = work(0);
        for other in others {
            reports.extend(
                other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        reports
    });
    reports.sort_unstable_by_key(|&(index, _)| index);
    merge_reports(reports.into_iter().map(|(_, report)| report).collect())
}

/// Reduces per-shard reports into one, in ascending shard order: summaries
/// and outcomes merge by key (exactly: Welford moments plus histogram
/// buckets), counters sum, traces concatenate, metrics windows sum
/// pointwise, shard self-profiles concatenate. Gauge series (queue depths,
/// jobs in flight) therefore read as *sums over shard replicas* in a merged
/// report.
fn merge_reports(reports: Vec<ExperimentReport>) -> ExperimentReport {
    let shard_events: Vec<u64> = reports.iter().map(|r| r.events_fired).collect();
    let mut iter = reports.into_iter();
    let mut total = iter.next().expect("at least one shard report");
    for r in iter {
        assert_eq!(total.config, r.config, "shards run one configuration");
        total.stats.merge(&r.stats);
        total.bind_totals.merge(&r.bind_totals);
        total.staleness_ms.merge(&r.staleness_ms);
        for (acc, (name, util)) in total.cpu_utilization.iter_mut().zip(&r.cpu_utilization) {
            assert_eq!(&acc.0, name, "shards share one topology");
            acc.1 += util;
        }
        total.completed += r.completed;
        total.events_fired += r.events_fired;
        total.bind_cache.enabled |= r.bind_cache.enabled;
        total.bind_cache.hits += r.bind_cache.hits;
        total.bind_cache.misses += r.bind_cache.misses;
        total.bind_cache.invalidations += r.bind_cache.invalidations;
        match (&mut total.trace, r.trace) {
            (Some(t), Some(o)) => t.traces.extend(o.traces),
            (None, None) => {}
            _ => unreachable!("every shard runs the same trace settings"),
        }
        match (&mut total.metrics, r.metrics) {
            (Some(a), Some(b)) => {
                a.recorder.merge(&b.recorder);
                a.shard_profiles.extend(b.shard_profiles);
            }
            (None, None) => {}
            _ => unreachable!("every shard runs the same metrics settings"),
        }
        debug_assert!(r.adaptive.is_none(), "shard worlds do not run controllers");
    }
    total.shard_events = shard_events;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_experiment;
    use crate::spec::{paper_groups, TraceSettings, WorkloadSpec};
    use crate::trace_report::jsonl;
    use mutsvc_apps::App;
    use mutsvc_desim::time::SimDuration;
    use mutsvc_middleware::{ContainerCosts, DescriptorBuilder};
    use mutsvc_netsim::{ProtocolParams, TopologyBuilder};

    /// A Pet Store experiment over three client regions: a local group on
    /// the server LAN and two groups behind their own WAN edges.
    fn three_region_input(seed: u64) -> ExperimentInput {
        let (app, registry, db) = App::petstore(false);
        let mut tb = TopologyBuilder::new();
        let main = tb.node("main", 2);
        let dbn = tb.node("db", 2);
        let router = tb.node("router", 8);
        let edge1 = tb.node("edge1", 2);
        let edge2 = tb.node("edge2", 2);
        let lc = tb.node("client-local", 4);
        let rc1 = tb.node("client-remote1", 4);
        let rc2 = tb.node("client-remote2", 4);
        let lan = SimDuration::from_micros(200);
        tb.duplex_link(main, router, lan, 100e6);
        tb.duplex_link(dbn, router, lan, 100e6);
        tb.duplex_link(lc, router, lan, 100e6);
        tb.duplex_link(edge1, router, SimDuration::from_millis(100), 100e6);
        tb.duplex_link(edge2, router, SimDuration::from_millis(150), 100e6);
        tb.duplex_link(rc1, edge1, lan, 100e6);
        tb.duplex_link(rc2, edge2, lan, 100e6);
        let topology = tb.finalize();

        let components = match &app {
            App::PetStore(ps) => ps.components,
            App::Rubis(_) => unreachable!(),
        };
        let mut b = DescriptorBuilder::new(&registry, "centralized", dbn);
        b.central_node(main);
        for c in components.all() {
            b.place(c, main);
        }
        let descriptor = b.build().unwrap();

        let groups = paper_groups((lc, main), (rc1, main), (rc2, main));
        let spec = WorkloadSpec::paper_load(groups)
            .with_duration(SimDuration::from_secs(10), SimDuration::from_secs(60))
            .with_seed(seed);

        ExperimentInput {
            app,
            registry,
            db,
            descriptor,
            topology,
            protocols: ProtocolParams::petstore_stack(),
            container_costs: ContainerCosts::default(),
            spec,
        }
    }

    #[test]
    fn thread_count_is_invisible_in_the_merged_report() {
        let run = |threads| {
            let mut input = three_region_input(71);
            input.spec = input.spec.with_trace(TraceSettings::full());
            run_experiment_parallel(input, threads)
        };
        let one = run(1);
        assert_eq!(one.shard_events.len(), 3, "one shard per client region");
        assert!(one.completed > 500, "completed {}", one.completed);
        let log = jsonl(one.trace.as_ref().unwrap());
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(one.stats, r.stats);
            assert_eq!(one.completed, r.completed);
            assert_eq!(one.bind_totals, r.bind_totals);
            assert_eq!(one.staleness_ms, r.staleness_ms);
            assert_eq!(one.events_fired, r.events_fired);
            assert_eq!(one.shard_events, r.shard_events);
            assert_eq!(one.bind_cache, r.bind_cache);
            assert_eq!(one.cpu_utilization, r.cpu_utilization);
            assert_eq!(
                log,
                jsonl(r.trace.as_ref().unwrap()),
                "span log byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn shards_cover_the_whole_offered_load() {
        let report = run_experiment_parallel(three_region_input(72), 4);
        // Three groups at 10 req/s over a 60 s measured window.
        let expected = 30.0 * 60.0;
        let ratio = report.completed as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
        // Every shard simulated real work.
        assert_eq!(report.shard_events.len(), 3);
        for (i, &n) in report.shard_events.iter().enumerate() {
            assert!(n > 1_000, "shard {i} fired only {n} events");
        }
        assert_eq!(report.events_fired, report.shard_events.iter().sum::<u64>());
        // Per-group series all present, and remote groups pay the WAN.
        let local = report.stats.mean_ms("local", "Browser", "Item").unwrap();
        let r1 = report.stats.mean_ms("remote1", "Browser", "Item").unwrap();
        let r2 = report.stats.mean_ms("remote2", "Browser", "Item").unwrap();
        assert!(r1 - local > 350.0, "local {local:.0} remote1 {r1:.0}");
        assert!(r2 > r1, "the farther edge is slower: {r1:.0} vs {r2:.0}");
    }

    #[test]
    fn parallel_run_matches_sequential_distributions() {
        // Not byte-identical (per-shard RNG streams), but the same model:
        // means per series agree within a few percent.
        let seq = run_experiment(three_region_input(73));
        let par = run_experiment_parallel(three_region_input(73), 4);
        for (group, pattern, page) in [("local", "Browser", "Item"), ("remote1", "Browser", "Item")]
        {
            let s = seq.stats.mean_ms(group, pattern, page).unwrap();
            let p = par.stats.mean_ms(group, pattern, page).unwrap();
            assert!(
                (s - p).abs() / s < 0.05,
                "{group}/{pattern}/{page}: sequential {s:.1}ms parallel {p:.1}ms"
            );
        }
        let ratio = par.completed as f64 / seq.completed as f64;
        assert!((0.95..1.05).contains(&ratio), "completed ratio {ratio}");
    }

    #[test]
    fn single_region_collapses_to_one_shard() {
        let mut input = three_region_input(75);
        // Only the local group remains: one client region, one shard.
        input.spec.groups.truncate(1);
        let report = run_experiment_parallel(input, 8);
        assert_eq!(report.shard_events.len(), 1);
        assert!(report.completed > 300, "completed {}", report.completed);
    }

    #[test]
    fn metrics_merge_identically_at_any_thread_count() {
        use crate::spec::MetricsSettings;
        let run = |threads| {
            let mut input = three_region_input(77);
            input.spec = input
                .spec
                .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
            run_experiment_parallel(input, threads)
        };
        let one = run(1);
        let m1 = one.metrics.as_ref().expect("metrics armed");
        assert_eq!(m1.shard_profiles.len(), 3, "one profile per shard");
        for p in &m1.shard_profiles {
            assert!(
                p.windows == 1 && p.stalled == 0,
                "one pass per shard: {p:?}"
            );
            assert!(p.events > 1_000, "{p:?}");
        }
        // 70 s horizon at a 5 s window: 14 complete windows per shard,
        // merged pointwise.
        assert_eq!(m1.recorder.rows().len(), 14);
        let ok = m1.recorder.counter_index("requests.ok").unwrap();
        let total_ok: u64 = m1.recorder.rows().iter().map(|r| r.counters[ok]).sum();
        assert_eq!(total_ok, one.completed);
        for threads in [2, 8] {
            let r = run(threads);
            assert_eq!(one.metrics, r.metrics, "at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "sequential engine only")]
    fn an_armed_controller_is_rejected() {
        use crate::spec::{AdaptiveSettings, MetricsSettings};
        let mut input = three_region_input(78);
        input.spec = input
            .spec
            .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)))
            .with_adaptive(AdaptiveSettings::every(SimDuration::from_secs(10)));
        run_experiment_parallel(input, 2);
    }

    #[test]
    fn fault_episodes_replay_identically_at_any_thread_count() {
        use crate::spec::{FaultPolicy, FaultSettings, MetricsSettings};
        use mutsvc_desim::fault::{FaultEvent, FaultKind, FaultSchedule};
        let run = |threads| {
            let mut input = three_region_input(76);
            let out = input
                .topology
                .link_ids()
                .find(|&l| input.topology.link(l).name == "edge1->router")
                .unwrap()
                .index() as u32;
            let back = input
                .topology
                .link_ids()
                .find(|&l| input.topology.link(l).name == "router->edge1")
                .unwrap()
                .index() as u32;
            input.spec = input
                .spec
                .with_trace(TraceSettings::full())
                .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)))
                .with_faults(FaultSettings {
                    schedule: FaultSchedule::scripted(vec![
                        FaultEvent {
                            at: SimDuration::from_secs(20),
                            kind: FaultKind::LinkDown { link: out },
                        },
                        FaultEvent {
                            at: SimDuration::from_secs(20),
                            kind: FaultKind::LinkDown { link: back },
                        },
                        FaultEvent {
                            at: SimDuration::from_secs(40),
                            kind: FaultKind::LinkRestore { link: out },
                        },
                        FaultEvent {
                            at: SimDuration::from_secs(40),
                            kind: FaultKind::LinkRestore { link: back },
                        },
                    ]),
                    timeout: SimDuration::from_secs(2),
                    policy: FaultPolicy::none(),
                });
            run_experiment_parallel(input, threads)
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_fired, b.events_fired);
        assert_eq!(a.metrics, b.metrics);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(jsonl(&ta), jsonl(&tb));
        // The partition actually bit: only the partitioned group failed.
        let r1 = a.stats.outcome("remote1").unwrap();
        assert!(r1.failed > 0, "{r1:?}");
        assert_eq!(a.stats.outcome("local").unwrap().availability(), 1.0);
        assert_eq!(a.stats.outcome("remote2").unwrap().availability(), 1.0);
    }
}
