//! Traced-run determinism and golden cross-checks.
//!
//! The span log is part of the repro surface: two runs with the same seed
//! must produce byte-identical JSONL, whether the sweep runs sequentially
//! or across threads. The remote-façade golden check pins the traced
//! *logical* WAN accounting to the static analyzer's walk.

use mutsvc_bench::run_scenarios_parallel;
use mutsvc_bench::trace_artifacts::{render_trace_json, run_traced_sweep, traced_scenario};
use mutsvc_core::{AppKind, Config};
use mutsvc_desim::json::Json;
use mutsvc_workload::{chrome_trace_json, jsonl, validate_chrome_trace};

fn smoke_jsonl(app: AppKind, config: Config, seed: u64) -> String {
    let report = traced_scenario(app, config, true, true, seed).run();
    jsonl(
        report
            .trace
            .as_ref()
            .expect("traced run must carry trace data"),
    )
}

#[test]
fn span_logs_are_byte_identical_across_identical_seed_runs() {
    let first = smoke_jsonl(AppKind::PetStore, Config::RemoteFacade, 7);
    let second = smoke_jsonl(AppKind::PetStore, Config::RemoteFacade, 7);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must replay the same span log");
    let other_seed = smoke_jsonl(AppKind::PetStore, Config::RemoteFacade, 8);
    assert_ne!(first, other_seed, "different seeds must differ");
}

#[test]
fn parallel_sweep_span_logs_match_sequential_runs() {
    let configs = [
        Config::Centralized,
        Config::RemoteFacade,
        Config::AsyncUpdates,
    ];
    let sequential: Vec<String> = configs
        .iter()
        .map(|&config| smoke_jsonl(AppKind::Rubis, config, 11))
        .collect();
    let scenarios = configs
        .iter()
        .map(|&config| traced_scenario(AppKind::Rubis, config, true, true, 11))
        .collect();
    let parallel: Vec<String> = run_scenarios_parallel(scenarios)
        .iter()
        .map(|report| jsonl(report.trace.as_ref().unwrap()))
        .collect();
    assert_eq!(
        sequential, parallel,
        "thread scheduling must not leak into span logs"
    );
}

#[test]
fn chrome_exports_validate_for_every_configuration() {
    for config in Config::all() {
        let report = traced_scenario(AppKind::PetStore, config, true, true, 3).run();
        let chrome = chrome_trace_json(report.trace.as_ref().unwrap(), 10);
        let pairs = validate_chrome_trace(&chrome)
            .unwrap_or_else(|e| panic!("{} chrome trace invalid: {e}", config.name()));
        assert!(pairs > 0, "{} exported no spans", config.name());
    }
}

#[test]
fn remote_facade_traced_wan_matches_the_static_walk() {
    for app in [AppKind::PetStore, AppKind::Rubis] {
        let cells = run_traced_sweep(app, &[Config::RemoteFacade], true, true, 42);
        let cell = &cells[0];
        assert_eq!(
            cell.w108,
            0,
            "{}: traced remote-facade WAN accounting disagrees with the static walk:\n{}",
            app.name(),
            cell.static_report.render_text()
        );
        // The traced run must actually exercise wide-area pages: at least one
        // remote1 page with a positive logical count that the walk confirms.
        let confirmed = cell
            .rows
            .iter()
            .filter(|r| r.group == "remote1" && r.wan_rts_logical > 0.5)
            .filter(|r| {
                cell.static_report
                    .pages
                    .iter()
                    .any(|p| p.page == r.page && p.wan_round_trips > 0)
            })
            .count();
        assert!(
            confirmed >= 3,
            "{}: only {confirmed} wide-area pages confirmed",
            app.name()
        );
        let json = render_trace_json(&[(app, cells)]);
        assert_eq!(Json::parse(&json).unwrap().render(), json);
    }
}
