//! The simulator workloads: `seq-rubis` on the sequential engine and
//! `par-petstore` on the conservative-parallel engine, both running the
//! §4.5 `async-updates` deployment at 100× the paper's arrival rate on
//! hardware scaled 100×, so the simulator and not a saturated model is what
//! the host time measures.

use std::collections::BTreeMap;
use std::time::Instant;

use mutsvc_core::{fanout_input, AppKind, Config, MetricsSettings, Scenario};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    run_experiment, run_experiment_parallel, ExperimentInput, ExperimentReport, TraceSettings,
};

use crate::metrics::{median, peak_rss_mib, Clock, Fnv, RunResult, PER_LAYER};
use crate::replay;
use crate::spans::Spans;

/// Multiplier on the paper's arrival rate and on the modelled capacity.
const RATE: f64 = 100.0;
/// Simulated warm-up, excluded from the statistics.
const WARMUP: SimDuration = SimDuration::from_secs(5);
/// Simulated measured window of one batch.
const MEASURED: SimDuration = SimDuration::from_secs(20);
/// Edge regions of the `par-petstore` fan-out (eight client regions).
const EDGES: usize = 7;
/// Input constructions the traced run times; `core.build_ms` is the median.
const SETUP_REPS: usize = 21;
/// Fewest timed batches per run, whatever `--seconds` says.
const MIN_BATCHES: usize = 3;
/// Floor of the bound-program cache hit rate; `--simperf` asserts the same.
const HIT_RATE_FLOOR: f64 = 0.25;
/// Replayed binds and page query sets of the traced run.
const BIND_BUDGET: u64 = 4_000;
const EXECUTE_BUDGET: u64 = 40_000;
/// Cap on replayed queue events and transfers, so the traced run stays short.
const REPLAY_CAP: u64 = 3_000_000;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// RUBiS, paper topology, sequential engine, recorder and tracer off.
    SeqRubis,
    /// Pet Store, 8-region fan-out, parallel engine, recorder and 1-in-100
    /// trace sampling on.
    ParPetstore,
}

/// Threads of the traced run's scaling rerun: two where the host has them.
fn scaling_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

impl SimWorkload {
    /// Engine threads of the timed runs. The shard engine runs on one
    /// thread: at two threads on a two-core host shared with other work the
    /// batch times split into two modes, too far apart for a regression
    /// bound. One thread still runs shard build, windows, mailboxes and
    /// merge; the traced run measures the two-thread speed-up.
    fn threads(self) -> Option<usize> {
        match self {
            SimWorkload::SeqRubis => None,
            SimWorkload::ParPetstore => Some(1),
        }
    }

    /// The workload's input from `seed`: everything the program receives.
    fn build(self, seed: u64) -> ExperimentInput {
        let mut input = match self {
            SimWorkload::SeqRubis => {
                Scenario::quick(AppKind::Rubis, Config::AsyncUpdates)
                    .with_seed(seed)
                    .build()
                    .0
            }
            SimWorkload::ParPetstore => {
                fanout_input(AppKind::PetStore, Config::AsyncUpdates, EDGES, seed)
            }
        };
        input.topology.scale_capacity(RATE);
        input.spec = input.spec.scale_rates(RATE).with_duration(WARMUP, MEASURED);
        if self == SimWorkload::ParPetstore {
            input.spec = observed(input.spec);
        }
        input
    }
}

/// Arms the windowed recorder (1 s windows) and 1-in-100 trace sampling.
fn observed(spec: mutsvc_workload::WorkloadSpec) -> mutsvc_workload::WorkloadSpec {
    spec.with_metrics(MetricsSettings::windowed(SimDuration::from_secs(1)))
        .with_trace(TraceSettings::sampled(100))
}

fn execute(input: ExperimentInput, threads: Option<usize>) -> ExperimentReport {
    match threads {
        Some(t) => run_experiment_parallel(input, t),
        None => run_experiment(input),
    }
}

/// Fingerprint of the simulated answer: request counts, every page series'
/// count and mean, outcomes, cache and binder counters. It leaves out the
/// event counts, which include the recorder's own roll events, so an
/// observed and an unobserved run of one history agree.
pub fn digest(report: &ExperimentReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(report.completed);
    for (key, summary) in report.stats.iter() {
        h.bytes(key.group.as_bytes());
        h.bytes(key.pattern.as_bytes());
        h.bytes(key.page.as_bytes());
        h.u64(summary.count());
        h.u64(summary.mean().to_bits());
    }
    let total = report.stats.total_outcome();
    for v in [total.ok, total.failed, total.retries, total.failovers] {
        h.u64(v);
    }
    let c = report.bind_cache;
    for v in [c.hits, c.misses, c.invalidations] {
        h.u64(v);
    }
    let b = &report.bind_totals;
    for v in [
        b.remote_invocations,
        b.jndi_lookups,
        b.entity_cache_hits,
        b.entity_cache_misses,
        b.query_cache_hits,
        b.query_cache_misses,
        b.db_statements,
        b.sync_push_nodes,
        b.async_push_nodes,
        b.invalidate_nodes,
    ] {
        h.u64(u64::from(v));
    }
    h.u64(b.staleness_observed);
    h.u64(report.staleness_ms.count());
    h.u64(report.staleness_ms.mean().to_bits());
    h.finish()
}

/// Checks one report: request conservation, no failed request (no faults
/// are armed) and the plan-cache hit-rate floor. Returns the problems.
pub fn check(report: &ExperimentReport) -> Vec<String> {
    let mut problems = Vec::new();
    let total = report.stats.total_outcome();
    let recorded: u64 = report.stats.iter().map(|(_, s)| s.count()).sum();
    let issued = report.bind_cache.hits + report.bind_cache.misses;
    if report.completed == 0 {
        problems.push("no request completed".to_string());
    }
    if total.failed != 0 {
        problems.push(format!("{} requests failed", total.failed));
    }
    if total.ok != report.completed || recorded != report.completed {
        problems.push(format!(
            "conservation: {} ok, {} recorded, {} completed",
            total.ok, recorded, report.completed
        ));
    }
    if issued < report.completed {
        problems.push(format!(
            "conservation: {issued} issued < {} completed",
            report.completed
        ));
    }
    let hit_rate = hit_rate(report);
    if hit_rate <= HIT_RATE_FLOOR {
        problems.push(format!("plan hit rate {hit_rate:.3} <= {HIT_RATE_FLOOR}"));
    }
    problems
}

fn same_events(a: &ExperimentReport, b: &ExperimentReport) -> bool {
    a.events_fired == b.events_fired && a.shard_events == b.shard_events
}

fn hit_rate(report: &ExperimentReport) -> f64 {
    let c = report.bind_cache;
    c.hits as f64 / (c.hits + c.misses).max(1) as f64
}

fn counters(report: &ExperimentReport) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    out.insert("workload.completed".into(), report.completed);
    out.insert("desim.events".into(), report.events_fired);
    out.insert("workload.binds".into(), report.bind_cache.misses);
    out.insert("workload.plan_hits".into(), report.bind_cache.hits);
    out.insert(
        "workload.plan_invalidations".into(),
        report.bind_cache.invalidations,
    );
    out.insert(
        "middleware.rmi_calls".into(),
        u64::from(report.bind_totals.remote_invocations),
    );
    out.insert(
        "relstore.db_statements".into(),
        u64::from(report.bind_totals.db_statements),
    );
    for (i, &e) in report.shard_events.iter().enumerate() {
        out.insert(format!("desim.shard_events.{i}"), e);
    }
    out
}

/// Builds the input `SETUP_REPS` times, each inside a `core.build` span;
/// returns the last input and the median build time in seconds.
fn setup(
    w: SimWorkload,
    seed: u64,
    clock: &mut Clock,
    spans: &mut Spans,
) -> (ExperimentInput, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let (built, secs) = clock.time(|| spans.span("core.build", |_| w.build(seed)));
        times.push(secs);
        input = Some(built);
    }
    (input.expect("at least one build"), median(&times))
}

/// The timed run: batches of the workload until `seconds` have passed,
/// each building its input afresh (timed as set-up) and running it.
pub fn run(w: SimWorkload, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let threads = w.threads();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, ExperimentReport)> = None;
    let mut clock = Clock::new();
    let started = Instant::now();
    while walls.len() < MIN_BATCHES || started.elapsed().as_secs_f64() < seconds {
        let (input, setup) = clock.time(|| w.build(seed));
        setups.push(setup);
        let (report, wall) = clock.time(|| execute(input, threads));
        walls.push(wall);
        let total = report.stats.total_outcome();
        result.attempted += total.ok + total.failed;
        result.failed += total.failed;
        for p in check(&report) {
            result.check(false, || p);
        }
        let d = digest(&report);
        match &first {
            None => first = Some((d, report)),
            Some((d0, r0)) => result.check(d == *d0 && same_events(&report, r0), || {
                format!("batch {} simulated a different history", walls.len())
            }),
        }
    }
    let (d, report) = first.expect("at least one batch");
    let wall_s = median(&walls);
    result.digest = d;
    result.counters = counters(&report);
    result.set("ops_per_s", report.completed as f64 / wall_s);
    result.set("wall_s", wall_s);
    result.set("setup_s", median(&setups));
    result.set("peak_rss_mib", peak_rss_mib());
    println!(
        "{} batches, median {wall_s:.4} s, {} requests and {} events per batch, plan hit rate {:.4}",
        walls.len(),
        report.completed,
        report.events_fired,
        hit_rate(&report)
    );
    result
}

/// Sum of every `wan.*.<suffix>` counter over every window.
fn wan_total(report: &ExperimentReport, suffix: &str) -> u64 {
    let Some(m) = &report.metrics else { return 0 };
    let rec = &m.recorder;
    let slots: Vec<usize> = rec
        .counter_names()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.starts_with("wan.") && n.ends_with(suffix))
        .map(|(i, _)| i)
        .collect();
    rec.rows()
        .iter()
        .map(|r| slots.iter().map(|&i| r.counters[i]).sum::<u64>())
        .sum()
}

/// Mean pending events per queue over the recorded windows.
fn mean_depth(report: &ExperimentReport) -> usize {
    let Some(m) = &report.metrics else { return 1 };
    let rec = &m.recorder;
    let gauges: Vec<usize> = ["engine.queue.near_depth", "engine.queue.far_depth"]
        .iter()
        .filter_map(|n| rec.gauge_index(n))
        .collect();
    let rows = rec.rows();
    if rows.is_empty() {
        return 1;
    }
    let sum: f64 = rows
        .iter()
        .map(|r| gauges.iter().map(|&g| r.gauges[g]).sum::<f64>())
        .sum();
    let queues = report.shard_events.len().max(1) as f64;
    ((sum / rows.len() as f64 / queues).round() as usize).max(1)
}

fn page_weights(report: &ExperimentReport) -> BTreeMap<String, u64> {
    let mut weights = BTreeMap::new();
    for (key, summary) in report.stats.iter() {
        *weights.entry(key.page.clone()).or_insert(0) += summary.count();
    }
    weights
}

fn frac(num: u32, den: u32) -> f64 {
    f64::from(num) / f64::from(den.max(1))
}

/// Host times of one round of the traced run.
#[derive(Debug, Default)]
struct Round {
    plain_s: f64,
    traced_s: f64,
    two_threads_s: f64,
    unobserved_s: f64,
    queue_ns: f64,
    transfer_ns: f64,
    bind_us: f64,
    execute_ns: f64,
}

/// The traced run. A first untraced and a first observed batch fix the
/// answer and the counts the replays take their shape from; then rounds of
/// an untraced batch, a traced batch with the recorder armed, the reruns
/// the shard engine's metrics need and the layer replays repeat until
/// `seconds` have passed, and each time is the median of its rounds.
pub fn trace(w: SimWorkload, seed: u64, seconds: f64, spans: &mut Spans) -> RunResult {
    let mut result = RunResult::zeroed(PER_LAYER);
    let mut clock = Clock::new();
    let (input, setup_s) = setup(w, seed, &mut clock, spans);
    let threads = w.threads();
    let mut observed_input = input.clone();
    observed_input.spec = observed(observed_input.spec);
    let mut bare = input.clone();
    bare.spec = bare
        .spec
        .with_metrics(MetricsSettings::off())
        .with_trace(TraceSettings::off());
    let plain = execute(input.clone(), threads);
    let report = execute(observed_input.clone(), threads);
    let d = digest(&plain);
    for p in check(&plain).into_iter().chain(check(&report)) {
        result.check(false, || p);
    }
    let events = plain.events_fired;
    let wan_msgs = wan_total(&report, ".msgs");
    let wan_bytes = wan_total(&report, ".bytes");
    let weights = page_weights(&plain);
    let depth = mean_depth(&report);
    let horizon = input
        .spec
        .horizon()
        .saturating_since(mutsvc_desim::time::SimTime::ZERO);

    let mut rounds: Vec<Round> = Vec::new();
    let mut stmts_per_bind = 0.0;
    let mut binds = 0;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut r = Round::default();
        let mut same = |what: &str, other: &ExperimentReport, events_too: bool| {
            result.check(
                digest(other) == d && (!events_too || same_events(other, &plain)),
                || format!("the {what} batch simulated a different history"),
            );
        };
        let batch = input.clone();
        let (again, wall) = clock.time(|| execute(batch, threads));
        same("untraced", &again, true);
        r.plain_s = wall;
        let batch = observed_input.clone();
        let (obs, wall) =
            clock.time(|| spans.span("workload.run_experiment", |_| execute(batch, threads)));
        same("observed", &obs, false);
        r.traced_s = wall;
        if w == SimWorkload::ParPetstore {
            // The speed-up counts only when the answer is unchanged.
            let batch = input.clone();
            let (two, wall) = clock.time(|| {
                spans.span("workload.run_experiment_parallel.2t", |_| {
                    execute(batch, Some(scaling_threads()))
                })
            });
            same("2-thread", &two, true);
            r.two_threads_s = wall;
            let batch = bare.clone();
            let (off, wall) = clock.time(|| {
                spans.span("workload.run_experiment.unobserved", |_| {
                    execute(batch, threads)
                })
            });
            same("unobserved", &off, false);
            r.unobserved_s = wall;
        }
        // The replays time themselves per call; the clock rescales them.
        let (ns, _) = clock.time(|| {
            spans.span("replay.desim.queue", |_| {
                replay::queue_ns_per_event(events.min(REPLAY_CAP), depth, horizon, seed)
            })
        });
        r.queue_ns = ns * clock.factor();
        let (ns, _) = clock.time(|| {
            spans.span("replay.netsim.transfer", |_| {
                replay::transfer_ns(
                    &input,
                    wan_bytes / wan_msgs.max(1),
                    wan_msgs.min(REPLAY_CAP),
                    seed,
                )
            })
        });
        r.transfer_ns = ns * clock.factor();
        let (us, _) = clock.time(|| {
            spans.span("replay.middleware.bind_page", |_| {
                replay::bind_page_us(&input, &weights, BIND_BUDGET, seed)
            })
        });
        (r.bind_us, stmts_per_bind, binds) = (us.0 * clock.factor(), us.1, us.2);
        let (ns, _) = clock.time(|| {
            spans.span("replay.relstore.execute", |_| {
                replay::execute_ns(&input, &weights, EXECUTE_BUDGET)
            })
        });
        r.execute_ns = ns * clock.factor();
        rounds.push(r);
    }
    // Every batch simulated the first one's history, so each counts its
    // requests.
    let batches = 2 + rounds.len() as u64 * if w == SimWorkload::ParPetstore { 4 } else { 2 };
    let total = plain.stats.total_outcome();
    result.attempted = batches * (total.ok + total.failed);
    result.failed = batches * total.failed;
    let mid = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (plain_wall, traced_wall) = (mid(|r| r.plain_s), mid(|r| r.traced_s));
    let (queue_ns, transfer_ns) = (mid(|r| r.queue_ns), mid(|r| r.transfer_ns));
    let (bind_us, execute_ns) = (mid(|r| r.bind_us), mid(|r| r.execute_ns));
    let (par_speedup, observe_frac) = if w == SimWorkload::ParPetstore {
        let off = mid(|r| r.unobserved_s);
        (
            plain_wall / mid(|r| r.two_threads_s),
            (plain_wall - off) / off,
        )
    } else {
        (0.0, 0.0)
    };

    let (shard_stall, shard_windows, imbalance) = match report.metrics.as_ref() {
        Some(m) if !m.shard_profiles.is_empty() => {
            let windows: u64 = m.shard_profiles.iter().map(|p| p.windows).sum();
            let stalled: u64 = m.shard_profiles.iter().map(|p| p.stalled).sum();
            let max = plain.shard_events.iter().copied().max().unwrap_or(0) as f64;
            let mean = plain.shard_events.iter().sum::<u64>() as f64
                / plain.shard_events.len().max(1) as f64;
            (
                stalled as f64 / windows.max(1) as f64,
                windows as f64,
                max / mean.max(1.0),
            )
        }
        _ => (0.0, 0.0, 0.0),
    };

    let b = &plain.bind_totals;
    let c = plain.bind_cache;
    result.set("desim.events", events as f64);
    result.set(
        "desim.events_per_req",
        events as f64 / plain.completed.max(1) as f64,
    );
    result.set("desim.queue_ns_per_event", queue_ns);
    result.set("desim.shard_stall_frac", shard_stall);
    result.set("desim.shard_windows", shard_windows);
    result.set("desim.shard_imbalance", imbalance);
    result.set("desim.par_speedup", par_speedup);
    result.set(
        "desim.recorder_rows",
        report
            .metrics
            .as_ref()
            .map_or(0, |m| m.recorder.rows().len()) as f64,
    );
    result.set(
        "desim.traces_committed",
        report.trace.as_ref().map_or(0, |t| t.traces.len()) as f64,
    );
    result.set("desim.observe_overhead_frac", observe_frac);
    result.set("netsim.transfer_ns", transfer_ns);
    result.set("netsim.wan_msgs", wan_msgs as f64);
    result.set("middleware.bind_page_us", bind_us);
    result.set("middleware.rmi_calls", f64::from(b.remote_invocations));
    result.set(
        "middleware.entity_cache_hit_rate",
        frac(
            b.entity_cache_hits,
            b.entity_cache_hits + b.entity_cache_misses,
        ),
    );
    result.set(
        "middleware.query_cache_hit_rate",
        frac(
            b.query_cache_hits,
            b.query_cache_hits + b.query_cache_misses,
        ),
    );
    result.set("relstore.db_statements", f64::from(b.db_statements));
    result.set("relstore.execute_ns", execute_ns);
    result.set("workload.binds", c.misses as f64);
    result.set("workload.plan_hit_rate", hit_rate(&plain));
    result.set("workload.plan_invalidations", c.invalidations as f64);
    result.set("core.build_ms", setup_s * 1e3);

    // Estimated shares of the single-thread wall time: replayed cost × exact
    // count. Database executes happen inside binds, so the relstore share is
    // part of the middleware share, not added to it.
    let desim = queue_ns * 1e-9 * events as f64 / plain_wall;
    let netsim = transfer_ns * 1e-9 * wan_msgs as f64 / plain_wall;
    let middleware = bind_us * 1e-6 * c.misses as f64 / plain_wall;
    let relstore = execute_ns * 1e-9 * stmts_per_bind * c.misses as f64 / plain_wall;
    result.set("share.desim", desim);
    result.set("share.netsim", netsim);
    result.set("share.middleware", middleware);
    result.set("share.relstore", relstore);
    result.set("share.unexplained", 1.0 - desim - netsim - middleware);
    result.set("trace.wall_s", traced_wall);
    result.set("trace.overhead_s", traced_wall - plain_wall);

    result.digest = d;
    result.counters = counters(&plain);
    println!(
        "{} rounds, untraced {plain_wall:.4} s, traced {traced_wall:.4} s; replayed {binds} binds at queue depth {depth}; estimated shares: desim {desim:.3}, netsim {netsim:.3}, middleware {middleware:.3} (relstore {relstore:.3} of it), unexplained {:.3}",
        rounds.len(),
        1.0 - desim - netsim - middleware
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short `seq-rubis` batch, small enough for a debug build. It spans
    /// more than one 7 s soft delay: every session's first page is the same
    /// for every seed.
    fn short_report(seed: u64) -> ExperimentReport {
        let mut input = SimWorkload::SeqRubis.build(seed);
        input.spec = input
            .spec
            .with_duration(SimDuration::from_secs(1), SimDuration::from_secs(9));
        run_experiment(input)
    }

    #[test]
    fn a_clean_batch_passes_and_repeats_its_digest() {
        let a = short_report(5);
        assert!(check(&a).is_empty(), "{:?}", check(&a));
        let b = short_report(5);
        assert_eq!(digest(&a), digest(&b));
        assert!(same_events(&a, &b));
        assert_ne!(digest(&a), digest(&short_report(6)));
    }

    #[test]
    fn corrupted_batches_are_rejected() {
        let mut lost = short_report(5);
        let d = digest(&lost);
        lost.completed -= 1;
        assert!(!check(&lost).is_empty(), "conservation");
        assert_ne!(digest(&lost), d);

        let mut failed = short_report(5);
        let group = failed.stats.intern_group("local");
        failed.stats.record_outcome_id(group, false);
        assert!(!check(&failed).is_empty(), "failed request");
        assert_ne!(digest(&failed), d);

        let mut cold = short_report(5);
        cold.bind_cache.misses += cold.bind_cache.hits * 4;
        assert!(!check(&cold).is_empty(), "hit-rate floor");
        assert_ne!(digest(&cold), d);
    }
}
