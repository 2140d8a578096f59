//! Driver-level equivalence: the bound-program cache must be a pure
//! optimization. For both applications under all five paper configurations,
//! a run with the cache enabled must produce a **bit-identical**
//! `ExperimentReport` — response-time statistics, binder totals, staleness
//! histograms, CPU utilization, completion and event counts — to a run with
//! every request going through the full binder.
//!
//! Debug builds use a shortened window; CI re-runs this in release with the
//! full quick window (see .github/workflows/ci.yml).

use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::run_experiment;

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

            let cell = format!("{} / {}", app.name(), config.name());
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
    }
}
