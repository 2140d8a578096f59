//! Thread-count invariance of the region-sharded parallel engine.
//!
//! The parallel engine's contract (DESIGN.md §6.5) is that the OS thread
//! count is invisible in the simulated history. A run is one independent
//! simulation per client region, and the shard decomposition, the
//! per-shard RNG streams and the merge order depend only on the input,
//! never on which worker ran which shard or when. These tests pin the
//! contract at the artifact level — the rendered `BENCH_faults.json` for the
//! three standard fault episodes, the traced span JSONL and the metrics
//! window log must be byte-identical at 1, 2, 4 and 8 threads.

use mutsvc_bench::fault_artifacts::{fault_scenario, render_faults_json, validate_faults_json};
use mutsvc_bench::metrics_artifacts::{default_slo, metrics_jsonl};
use mutsvc_bench::simperf_report::thread_counts;
use mutsvc_core::{multi_tier_input, AppKind, Config, FaultCase, MultiTierSpec};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    evaluate, jsonl, run_experiment_parallel, FaultPolicy, MetricsSettings, SloReport,
    TraceSettings,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The three standard episodes under the resilient policy, rendered through
/// the real `BENCH_faults.json` renderer, at one thread count.
fn faults_json_at(threads: usize, seed: u64) -> String {
    let mut cells = Vec::new();
    for case in FaultCase::all() {
        for config in [Config::Centralized, Config::StatefulCaching] {
            let scenario = fault_scenario(
                AppKind::PetStore,
                config,
                case,
                FaultPolicy::resilient(),
                true,
                true,
                seed,
            )
            .with_parallel(threads);
            let window = scenario.duration;
            let report = scenario.run();
            assert_eq!(
                report.shard_events.len(),
                3,
                "paper topology decomposes into three client regions"
            );
            cells.push(mutsvc_bench::fault_artifacts::FaultCell {
                config,
                case,
                policy: "resilient",
                window,
                report,
            });
        }
    }
    render_faults_json(&[(AppKind::PetStore, cells)], seed, "smoke")
}

#[test]
fn fault_suite_json_is_byte_identical_at_every_thread_count() {
    let baseline = faults_json_at(THREADS[0], 42);
    validate_faults_json(&baseline).expect("single-thread suite renders valid JSON");
    for &threads in &THREADS[1..] {
        let json = faults_json_at(threads, 42);
        assert_eq!(
            baseline, json,
            "{threads}-thread fault suite diverged from the 1-thread artifact"
        );
    }
    // The artifact is seed-sensitive, so the equality above is not vacuous.
    assert_ne!(baseline, faults_json_at(1, 43));
}

fn span_log_at(threads: usize, seed: u64) -> String {
    let mut scenario = fault_scenario(
        AppKind::Rubis,
        Config::AsyncUpdates,
        FaultCase::EdgeCrash,
        FaultPolicy::resilient(),
        true,
        true,
        seed,
    )
    .with_parallel(threads);
    scenario.trace = TraceSettings::full();
    let report = scenario.run();
    jsonl(
        report
            .trace
            .as_ref()
            .expect("traced run must carry trace data"),
    )
}

#[test]
fn span_logs_are_byte_identical_at_every_thread_count() {
    let baseline = span_log_at(THREADS[0], 7);
    assert!(!baseline.is_empty());
    for &threads in &THREADS[1..] {
        assert_eq!(
            baseline,
            span_log_at(threads, 7),
            "{threads}-thread span log diverged from the 1-thread log"
        );
    }
    assert_ne!(baseline, span_log_at(1, 8), "different seeds must differ");
}

/// A generated multi-tier topology (4 hubs × 8 WAN PoPs → 33 client
/// regions) run through the parallel engine at one thread count: the
/// shard-count scaling cell of the invariance suite.
fn multi_tier_report_at(threads: usize, seed: u64) -> (String, mutsvc_workload::ExperimentReport) {
    let spec = MultiTierSpec {
        hubs: 4,
        edges_per_hub: 8,
        metro_edges: false,
        db_on_main: false,
    };
    let mut input = multi_tier_input(AppKind::Rubis, Config::StatefulCaching, &spec, seed);
    // Short windows: the cell pins determinism across 33 shards, not the
    // paper's full measurement horizon.
    input.spec = input
        .spec
        .with_duration(SimDuration::from_secs(5), SimDuration::from_secs(20))
        .with_trace(TraceSettings::full());
    let report = run_experiment_parallel(input, threads);
    let log = jsonl(
        report
            .trace
            .as_ref()
            .expect("traced run carries trace data"),
    );
    (log, report)
}

#[test]
fn multi_tier_topology_is_byte_identical_at_every_thread_count() {
    let (baseline_log, baseline) = multi_tier_report_at(THREADS[0], 42);
    assert!(
        baseline.shard_events.len() >= 32,
        "WAN edge tier must decompose into one shard per client region, got {}",
        baseline.shard_events.len()
    );
    assert!(baseline.completed > 100, "completed {}", baseline.completed);
    for &threads in &THREADS[1..] {
        let (log, report) = multi_tier_report_at(threads, 42);
        assert_eq!(baseline.stats, report.stats);
        assert_eq!(baseline.completed, report.completed);
        assert_eq!(baseline.events_fired, report.events_fired);
        assert_eq!(baseline.shard_events, report.shard_events);
        assert_eq!(
            baseline_log, log,
            "{threads}-thread multi-tier span log diverged from the 1-thread log"
        );
    }
    assert_ne!(
        baseline_log,
        multi_tier_report_at(1, 43).0,
        "different seeds must differ"
    );
}

/// The multi-tier cell with the windowed metrics recorder armed instead of
/// the tracer: the rendered `METRICS_*.jsonl` window log and the burn-rate
/// engine's verdicts at one thread count.
fn multi_tier_metrics_at(
    threads: usize,
    seed: u64,
) -> (String, SloReport, mutsvc_workload::ExperimentReport) {
    let spec = MultiTierSpec {
        hubs: 4,
        edges_per_hub: 8,
        metro_edges: false,
        db_on_main: false,
    };
    let mut input = multi_tier_input(AppKind::Rubis, Config::StatefulCaching, &spec, seed);
    input.spec = input
        .spec
        .with_duration(SimDuration::from_secs(5), SimDuration::from_secs(20))
        .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
    let report = run_experiment_parallel(input, threads);
    let data = report
        .metrics
        .as_ref()
        .expect("metrics run carries recorder data");
    let log = metrics_jsonl(data);
    let slo = evaluate(&default_slo(AppKind::Rubis), &data.recorder);
    (log, slo, report)
}

#[test]
fn metrics_and_slo_verdicts_are_byte_identical_at_every_thread_count() {
    let (baseline_log, baseline_slo, baseline) = multi_tier_metrics_at(THREADS[0], 42);
    let data = baseline.metrics.as_ref().unwrap();
    assert!(
        data.shard_profiles.len() >= 32,
        "one self-profile per shard, got {}",
        data.shard_profiles.len()
    );
    assert!(
        data.recorder.rows().len() >= 4,
        "the 25 s horizon rolls several 5 s windows"
    );
    assert!(!baseline_log.is_empty());
    assert!(!baseline_slo.verdicts.is_empty());
    for &threads in &THREADS[1..] {
        let (log, slo, report) = multi_tier_metrics_at(threads, 42);
        assert_eq!(
            baseline_log, log,
            "{threads}-thread metrics window log diverged from the 1-thread log"
        );
        assert_eq!(
            baseline_slo, slo,
            "{threads}-thread SLO verdicts diverged from the 1-thread grade"
        );
        assert_eq!(baseline.metrics, report.metrics);
        assert_eq!(baseline.completed, report.completed);
    }
    assert_ne!(
        baseline_log,
        multi_tier_metrics_at(1, 43).0,
        "different seeds must differ"
    );
}

#[test]
fn thread_ladder_spans_the_suite() {
    // The suite's thread counts are exactly the bench ladder at its full
    // cap, so CI's `--parallel`-capped bench and this suite agree on what
    // "every thread count" means.
    assert_eq!(thread_counts(8), THREADS.to_vec());
}
