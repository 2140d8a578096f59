//! Traced-sweep artifacts: `BENCH_trace.json`, span logs, Chrome traces.
//!
//! `repro-report --trace` runs the five configurations with per-request
//! tracing on, decomposes each page's mean response time along the critical
//! path (WAN propagation vs serialization vs queueing vs server vs DB), and
//! cross-checks the traced wide-area accounting against the static
//! analyzer's walk (`W108`). The per-config span logs are byte-stable for a
//! given seed — the determinism tests diff them across runs and across
//! sequential/parallel execution.

use mutsvc_analyze::{analyze_target, cross_check_traced_wan, Report};
use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_desim::json::Json;
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{page_breakdown, ExperimentReport, PageTraceRow, TraceSettings};

/// Looks a configuration up by its report name ("remote-facade", …).
pub fn config_by_name(name: &str) -> Option<Config> {
    Config::all().into_iter().find(|c| c.name() == name)
}

/// The tracing policy of a `--trace` run: smoke runs are short enough to
/// trace every request; quick/paper windows head-sample 1-in-8 (plus the
/// slowest-so-far outliers) to bound the span-log size.
pub fn trace_settings(smoke: bool) -> TraceSettings {
    if smoke {
        TraceSettings::full()
    } else {
        TraceSettings::sampled(8)
    }
}

/// Builds the scenario a `--trace` run executes for one cell. Smoke mode
/// shortens the windows to 10 s warm-up + 30 s measured (CI wall-clock).
pub fn traced_scenario(
    app: AppKind,
    config: Config,
    quick: bool,
    smoke: bool,
    seed: u64,
) -> Scenario {
    let mut scenario = if quick || smoke {
        Scenario::quick(app, config)
    } else {
        Scenario::paper(app, config)
    };
    if smoke {
        scenario.warmup = SimDuration::from_secs(10);
        scenario.duration = SimDuration::from_secs(30);
    }
    scenario.with_seed(seed).with_trace(trace_settings(smoke))
}

/// One traced configuration cell: the run, its per-page critical-path rows,
/// and the static analyzer's report after the `W108` cross-check.
pub struct TraceCell {
    /// The configuration.
    pub config: Config,
    /// The traced run (`report.trace` is always `Some`).
    pub report: ExperimentReport,
    /// Per-(group, page) critical-path decomposition.
    pub rows: Vec<PageTraceRow>,
    /// Static analysis with any `W108` disagreement warnings appended.
    pub static_report: Report,
    /// Number of `W108` warnings the cross-check added.
    pub w108: usize,
}

/// Runs the requested configurations of `app` traced (in parallel), then
/// cross-checks each against the static analyzer.
///
/// The cross-check compares, per page, the traced run's mean *logical* WAN
/// round trips for the `remote1` client group — the group the static walker
/// analyzes — against the walk's count.
pub fn run_traced_sweep(
    app: AppKind,
    configs: &[Config],
    quick: bool,
    smoke: bool,
    seed: u64,
) -> Vec<TraceCell> {
    let scenarios = configs
        .iter()
        .map(|&config| traced_scenario(app, config, quick, smoke, seed))
        .collect();
    let reports = crate::run_scenarios_parallel(scenarios);
    configs
        .iter()
        .zip(reports)
        .map(|(&config, report)| {
            let data = report
                .trace
                .as_ref()
                .expect("traced scenario must produce trace data");
            let rows = page_breakdown(data);
            let mut static_report = analyze_target(app, config);
            let traced: Vec<(String, f64)> = rows
                .iter()
                .filter(|r| r.group == "remote1")
                .map(|r| (r.page.to_string(), r.wan_rts_logical))
                .collect();
            let w108 = cross_check_traced_wan(&mut static_report, &traced);
            TraceCell {
                config,
                report,
                rows,
                static_report,
                w108,
            }
        })
        .collect()
}

/// Renders `BENCH_trace.json`: per app × configuration, the per-page
/// critical-path decomposition (with the static walker's WAN count where
/// one exists), trace accounting and `W108` results.
pub fn render_trace_json(sweeps: &[(AppKind, Vec<TraceCell>)]) -> String {
    let cell_json = |cell: &TraceCell| {
        let pages = cell.rows.iter().map(|row| {
            let static_rts = cell
                .static_report
                .pages
                .iter()
                .find(|p| p.page == row.page)
                .map(|p| p.wan_round_trips);
            Json::object([
                ("group", row.group.as_str().into()),
                ("page", row.page.into()),
                ("count", row.count.into()),
                ("mean_ms", Json::fixed(row.mean_ms, 2)),
                ("wan_rts_logical", Json::fixed(row.wan_rts_logical, 2)),
                ("wan_rts_critical", Json::fixed(row.wan_rts_critical, 2)),
                ("static_wan_rts", static_rts.into()),
                ("wan_propagation_ms", Json::fixed(row.wan_propagation_ms, 2)),
                ("serialization_ms", Json::fixed(row.serialization_ms, 2)),
                ("queueing_ms", Json::fixed(row.queueing_ms, 2)),
                ("service_ms", Json::fixed(row.service_ms, 2)),
                ("db_ms", Json::fixed(row.db_ms, 2)),
                ("delay_ms", Json::fixed(row.delay_ms, 2)),
            ])
        });
        let trace = cell.report.trace.as_ref();
        let traces = trace.expect("traced cells carry trace data").traces.len();
        Json::object([
            ("config", cell.config.name().into()),
            ("completed", cell.report.completed.into()),
            ("traces", traces.into()),
            ("w108_warnings", cell.w108.into()),
            ("pages", Json::Array(pages.collect())),
        ])
    };
    let apps = sweeps.iter().map(|(app, cells)| {
        let configs = cells.iter().map(cell_json).collect();
        Json::object([
            ("app", app.name().into()),
            ("configs", Json::Array(configs)),
        ])
    });
    Json::object([("apps", Json::Array(apps.collect()))]).render()
}

/// Renders the per-page wide-area round-trip table of one traced sweep
/// (rows: the remote client group's pages; columns: configurations),
/// showing `logical traced / critical-path measured / static` per cell.
pub fn render_wan_rt_table(app: AppKind, cells: &[TraceCell]) -> String {
    use std::fmt::Write as _;
    let mut pages: Vec<&'static str> = Vec::new();
    for cell in cells {
        for row in cell.rows.iter().filter(|r| r.group == "remote1") {
            if !pages.contains(&row.page) {
                pages.push(row.page);
            }
        }
    }
    pages.sort_unstable();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-page WAN round trips ({}, remote1 group; logical/critical-path/static):",
        app.name()
    );
    let _ = write!(out, "  {:<16}", "page");
    for cell in cells {
        let _ = write!(out, " {:>18}", cell.config.name());
    }
    out.push('\n');
    for page in pages {
        let _ = write!(out, "  {page:<16}");
        for cell in cells {
            let entry = match cell
                .rows
                .iter()
                .find(|r| r.group == "remote1" && r.page == page)
            {
                Some(row) => {
                    let stat = cell
                        .static_report
                        .pages
                        .iter()
                        .find(|p| p.page == page)
                        .map_or("-".to_string(), |p| p.wan_round_trips.to_string());
                    format!(
                        "{:.1}/{:.1}/{stat}",
                        row.wan_rts_logical, row.wan_rts_critical
                    )
                }
                None => "-".to_string(),
            };
            let _ = write!(out, " {entry:>18}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_workload::validate_chrome_trace;

    #[test]
    fn config_lookup_roundtrips() {
        for config in Config::all() {
            assert_eq!(config_by_name(config.name()), Some(config));
        }
        assert_eq!(config_by_name("nope"), None);
    }

    #[test]
    fn chrome_validator_rejects_malformed_documents() {
        let ok = "{\"traceEvents\":[\n\
                  {\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0,\"name\":\"a\"},\n\
                  {\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":1,\"name\":\"n\"},\n\
                  {\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"a\"}\n]}";
        assert_eq!(validate_chrome_trace(ok), Ok(1));
        let unbalanced = ok.replace(
            ",\n{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"a\"}",
            "",
        );
        assert!(validate_chrome_trace(&unbalanced).is_err());
        let crossed = ok.replace("\"name\":\"a\"},\n]", "\"name\":\"b\"},\n]");
        let crossed = crossed.replace(
            "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"a\"}",
            "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"b\"}",
        );
        assert!(validate_chrome_trace(&crossed).is_err());
    }
}
