//! Driver-level equivalence: the bound-program cache must be a pure
//! optimization. For both applications under all five paper configurations,
//! a run with the cache enabled must produce a **bit-identical**
//! `ExperimentReport` — response-time statistics, binder totals, staleness
//! histograms, CPU utilization, completion and event counts — to a run with
//! every request going through the full binder.
//!
//! Debug builds use a shortened window; CI re-runs this in release with the
//! full quick window (see .github/workflows/ci.yml).
//!
//! The parallel engine's shards each keep their own plan cache and never
//! hear of another shard's writes, so the same transparency must hold for a
//! merged region-sharded report, span log included.

use mutsvc_core::{fanout_input, AppKind, Config, Scenario};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    jsonl, run_experiment, run_experiment_parallel, ExperimentReport, TraceSettings,
};

/// Asserts that the cache-on run `on` and the cache-off run `off` of one
/// cell report the same simulated history, and that the cache engaged.
fn assert_transparent(cell: &str, on: &ExperimentReport, off: &ExperimentReport) {
    assert!(on.bind_cache.enabled && !off.bind_cache.enabled);
    assert!(
        on.bind_cache.hits > 0,
        "{cell}: cache never hit ({:?})",
        on.bind_cache
    );
    assert_eq!(off.bind_cache.hits, 0, "{cell}");

    assert_eq!(on.config, off.config, "{cell}");
    assert_eq!(on.stats, off.stats, "{cell}: stats diverged");
    assert_eq!(
        on.bind_totals, off.bind_totals,
        "{cell}: bind totals diverged"
    );
    assert_eq!(
        on.staleness_ms, off.staleness_ms,
        "{cell}: staleness diverged"
    );
    assert_eq!(
        on.cpu_utilization, off.cpu_utilization,
        "{cell}: cpu utilization diverged"
    );
    assert_eq!(on.completed, off.completed, "{cell}");
    assert_eq!(on.events_fired, off.events_fired, "{cell}");
}

#[test]
fn cache_on_and_off_reports_are_bit_identical() {
    let (warmup, duration) = if cfg!(debug_assertions) {
        (SimDuration::from_secs(30), SimDuration::from_secs(90))
    } else {
        (SimDuration::from_secs(90), SimDuration::from_secs(300))
    };

    for app in AppKind::all() {
        for config in Config::all() {
            let mut scenario = Scenario::quick(app, config);
            scenario.warmup = warmup;
            scenario.duration = duration;

            let (mut input_on, _) = scenario.build();
            input_on.spec.bind_cache = true;
            let on = run_experiment(input_on);

            let (mut input_off, _) = scenario.build();
            input_off.spec.bind_cache = false;
            let off = run_experiment(input_off);

            assert_transparent(&format!("{} / {}", app.name(), config.name()), &on, &off);
        }
    }
}

/// Two edge regions plus the local one, both apps under the two caching
/// configurations, at the fan-out's default 390 s horizon: long enough for
/// Pet Store buyers to commit and RUBiS bidders to bid, so shards write.
#[test]
fn sharded_cache_on_and_off_reports_are_bit_identical() {
    for app in AppKind::all() {
        for config in [Config::StatefulCaching, Config::AsyncUpdates] {
            let run = |cache: bool| {
                let mut input = fanout_input(app, config, 2, 42);
                input.spec.bind_cache = cache;
                input.spec = input.spec.with_trace(TraceSettings::sampled(10));
                run_experiment_parallel(input, 2)
            };
            let (on, off) = (run(true), run(false));

            let cell = format!("{} / {} sharded", app.name(), config.name());
            assert_transparent(&cell, &on, &off);
            assert_eq!(on.shard_events.len(), 3, "{cell}: one shard per region");
            assert!(
                on.bind_cache.invalidations > 0,
                "{cell}: no shard wrote ({:?})",
                on.bind_cache
            );
            assert_eq!(
                jsonl(on.trace.as_ref().expect("traced")),
                jsonl(off.trace.as_ref().expect("traced")),
                "{cell}: span logs diverged"
            );
        }
    }
}
