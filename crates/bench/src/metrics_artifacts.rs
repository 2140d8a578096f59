//! Metrics-sweep artifacts: `BENCH_metrics.json` and per-config window logs.
//!
//! `repro-report --metrics` re-runs the sweep with the windowed metrics
//! recorder armed, grades every configuration against a default (and
//! deliberately attainable) SLO spec with the burn-rate engine, statically
//! cross-checks each objective against the analyzer's WAN round-trip floor
//! (`W113`), and exports one byte-stable window log per configuration
//! (`METRICS_<app>_<config>.jsonl`) plus a summary document carrying the
//! SLO verdicts, the engine self-profile and a metrics-on/off wall-clock
//! A/B. The window logs are deterministic for a given seed — the
//! invariance tests diff them across thread counts.

use std::fmt::Write as _;
use std::time::Instant;

use mutsvc_analyze::{analyze_target, check_slo_reachability, Report};
use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_desim::json::Json;
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    evaluate, ExperimentReport, MetricsData, MetricsSettings, SloReport, SloSpec,
};

/// Windowing policy of a `--metrics` run: 10 s windows on quick/paper
/// runs, 5 s on the shortened smoke windows so CI still sees several rows.
pub fn metrics_settings(smoke: bool) -> MetricsSettings {
    MetricsSettings::windowed(SimDuration::from_secs(if smoke { 5 } else { 10 }))
}

/// The default objectives a `--metrics` sweep grades every configuration
/// against: each of the application's pages at 90 % under 5 s plus a 99 %
/// availability floor. The thresholds sit far above any committed cell's
/// static WAN floor on purpose — the sweep runs the `W113` reachability
/// lint over every cell and treats a warning as a hard failure, so a
/// verdict miss always means the deployment underperformed, never that the
/// ask was physically impossible.
pub fn default_slo(app: AppKind) -> SloSpec {
    let (input, _) = Scenario::quick(app, Config::Centralized).build();
    let mut spec = SloSpec::new();
    let mut seen: Vec<String> = Vec::new();
    for page in input.app.all_pages() {
        if !seen.contains(&page.page) {
            spec = spec.page(&page.page, 5_000.0, 0.90);
            seen.push(page.page);
        }
    }
    spec.with_availability(0.99)
}

/// Builds the scenario a `--metrics` run executes for one cell. Smoke mode
/// shortens the windows to 10 s warm-up + 30 s measured (CI wall-clock).
/// Cells run on the region-sharded parallel engine (two shards) so the
/// artifact carries real per-shard self-profiles; the merged report is
/// byte-identical at any thread count.
pub fn metrics_scenario(
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
    scenario
        .with_seed(seed)
        .with_metrics(metrics_settings(smoke))
        .with_slo(default_slo(app))
        .with_parallel(2)
}

/// One metrics configuration cell: the run (metrics armed), its SLO grade,
/// and the static analyzer's report after the `W113` reachability check.
pub struct MetricsCell {
    /// The configuration.
    pub config: Config,
    /// The run (`report.metrics` is always `Some`).
    pub report: ExperimentReport,
    /// Burn-rate engine output for [`default_slo`].
    pub slo: SloReport,
    /// Static analysis with any `W113` reachability warnings appended.
    pub static_report: Report,
    /// Number of `W113` warnings the reachability check added.
    pub w113: usize,
}

/// Wall-clock A/B of one sweep: the same seeds and windows with the
/// recorder armed vs off. The simulation itself is byte-identical either
/// way (pinned by the workload parity test); this measures what the
/// recording costs.
#[derive(Debug, Clone, Copy)]
pub struct OverheadSample {
    /// Wall-clock of the metrics-on sweep, milliseconds.
    pub on_ms: f64,
    /// Wall-clock of the metrics-off sweep, milliseconds.
    pub off_ms: f64,
}

impl OverheadSample {
    /// Relative overhead of recording, in percent (0 when the off run
    /// measured as zero).
    pub fn pct(&self) -> f64 {
        if self.off_ms > 0.0 {
            (self.on_ms - self.off_ms) / self.off_ms * 100.0
        } else {
            0.0
        }
    }
}

/// Runs the requested configurations of `app` with metrics armed (in
/// parallel), grades each against [`default_slo`], runs the `W113`
/// reachability check, and A/Bs the whole sweep against a metrics-off
/// re-run for the recording-overhead figure.
pub fn run_metrics_sweep(
    app: AppKind,
    configs: &[Config],
    quick: bool,
    smoke: bool,
    seed: u64,
) -> (Vec<MetricsCell>, OverheadSample) {
    let slo = default_slo(app);
    let scenarios: Vec<Scenario> = configs
        .iter()
        .map(|&config| metrics_scenario(app, config, quick, smoke, seed))
        .collect();
    let off: Vec<Scenario> = scenarios
        .iter()
        .map(|s| s.clone().with_metrics(MetricsSettings::off()))
        .collect();
    // Short (quick/smoke) sweeps finish in well under a second, where
    // scheduler jitter on a shared host swamps the recording cost. Run the
    // two arms interleaved (so load drift hits both alike) and keep each
    // arm's minimum — the runs are deterministic, so every repeat computes
    // identical reports and the minimum is the least-perturbed sample.
    // Paper windows run each arm once.
    let iters = if quick || smoke { 7 } else { 1 };
    let mut on_ms = f64::INFINITY;
    let mut off_ms = f64::INFINITY;
    let mut reports = None;
    let mut off_reports = None;
    for _ in 0..iters {
        let started = Instant::now();
        let r = crate::run_scenarios_parallel(scenarios.clone());
        on_ms = on_ms.min(started.elapsed().as_secs_f64() * 1e3);
        reports.get_or_insert(r);
        let started = Instant::now();
        let r = crate::run_scenarios_parallel(off.clone());
        off_ms = off_ms.min(started.elapsed().as_secs_f64() * 1e3);
        off_reports.get_or_insert(r);
    }
    let reports = reports.expect("at least one timing iteration");
    let off_reports = off_reports.expect("at least one timing iteration");
    // Full stats/span-log parity is pinned by the workload parity test;
    // here a cheap completion check guards the A/B's like-for-like claim.
    for (on, off) in reports.iter().zip(&off_reports) {
        assert_eq!(
            on.completed, off.completed,
            "{}: metrics-on and metrics-off runs diverged",
            on.config
        );
    }
    let cells = configs
        .iter()
        .zip(reports)
        .map(|(&config, report)| {
            let metrics = report
                .metrics
                .as_ref()
                .expect("metrics scenario must produce recorder data");
            let graded = evaluate(&slo, &metrics.recorder);
            let mut static_report = analyze_target(app, config);
            let scenario = metrics_scenario(app, config, quick, smoke, seed);
            let (input, _) = scenario.build();
            let w113 = check_slo_reachability(&mut static_report, &slo, &input.topology);
            MetricsCell {
                config,
                report,
                slo: graded,
                static_report,
                w113,
            }
        })
        .collect();
    (cells, OverheadSample { on_ms, off_ms })
}

/// An object whose member `names[i]` holds `value(i)`.
fn named(names: &[String], value: impl Fn(usize) -> Json) -> Json {
    Json::Object(
        names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), value(i)))
            .collect(),
    )
}

/// Renders one run's window series as JSON lines — one object per window
/// with the counter deltas, gauge samples, and per-histogram count/p50/p95
/// summaries. Byte-stable for a given seed and thread count (and, by the
/// invariance tests, across thread counts).
pub fn metrics_jsonl(data: &MetricsData) -> String {
    let rec = &data.recorder;
    let window_s = rec.window().as_secs_f64();
    rec.rows()
        .iter()
        .map(|row| {
            let hist = |i: usize| {
                let h = &row.hists[i];
                Json::object([
                    ("count", h.total().into()),
                    ("p50_ms", Json::fixed(h.quantile(0.5), 2)),
                    ("p95_ms", Json::fixed(h.quantile(0.95), 2)),
                ])
            };
            let counters = named(rec.counter_names(), |i| row.counters[i].into());
            let gauges = named(rec.gauge_names(), |i| Json::fixed(row.gauges[i], 2));
            Json::object([
                ("window", row.index.into()),
                ("end_s", Json::fixed((row.index + 1) as f64 * window_s, 1)),
                ("counters", counters),
                ("gauges", gauges),
                ("hists", named(rec.hist_names(), hist)),
            ])
            .render()
        })
        .collect()
}

fn slo_json(slo: &SloReport) -> Json {
    let verdicts = slo.verdicts.iter().map(|v| {
        let threshold = v.threshold_ms.map_or(Json::Null, |t| Json::fixed(t, 0));
        Json::object([
            ("objective", v.objective.as_str().into()),
            ("threshold_ms", threshold),
            ("target", Json::fixed(v.target, 2)),
            ("attained", Json::fixed(v.attained, 2)),
            ("met", v.met.into()),
            ("max_burn", Json::fixed(v.max_burn, 2)),
            ("breached_windows", v.breached_windows.into()),
            ("samples", v.samples.into()),
        ])
    });
    let events = slo.events.iter().map(|e| {
        let kind = match e.kind {
            mutsvc_workload::SloEventKind::Breach => "breach",
            mutsvc_workload::SloEventKind::Recovery => "recovery",
        };
        Json::object([
            ("window", e.window.into()),
            ("objective", e.objective.as_str().into()),
            ("kind", kind.into()),
            ("burn", Json::fixed(e.burn, 2)),
        ])
    });
    Json::object([
        ("all_met", slo.all_met().into()),
        ("burn_threshold", Json::fixed(slo.burn_threshold, 2)),
        ("verdicts", Json::Array(verdicts.collect())),
        ("events", Json::Array(events.collect())),
    ])
}

fn metrics_cell_json(cell: &MetricsCell) -> Json {
    let data = cell
        .report
        .metrics
        .as_ref()
        .expect("metrics cells carry recorder data");
    let rec = &data.recorder;
    let ev_totals = rec
        .counter_names()
        .iter()
        .enumerate()
        .filter(|(_, name)| name.starts_with("engine.ev."))
        .map(|(i, name)| {
            let total: u64 = rec.rows().iter().map(|r| r.counters[i]).sum();
            (name.clone(), total.into())
        });
    let shards = data
        .shard_profiles
        .iter()
        .map(|p| Json::object([("shard", p.shard.into()), ("events", p.events.into())]));
    Json::object([
        ("config", cell.config.name().into()),
        ("completed", cell.report.completed.into()),
        ("windows", rec.rows().len().into()),
        ("w113_warnings", cell.w113.into()),
        ("slo", slo_json(&cell.slo)),
        ("ev_totals", Json::Object(ev_totals.collect())),
        ("shards", Json::Array(shards.collect())),
    ])
}

/// Renders `BENCH_metrics.json`: per app, the sweep's recording-overhead
/// A/B, and per configuration the SLO verdict table, the breach/recovery
/// timeline, the `W113` reachability result, and the engine self-profile
/// (per-event-kind totals plus each shard's event count).
pub fn render_metrics_json(
    sweeps: &[(AppKind, Vec<MetricsCell>, OverheadSample)],
    seed: u64,
    mode: &str,
) -> String {
    let apps = sweeps.iter().map(|(app, cells, overhead)| {
        let overhead = Json::object([
            ("on_ms", Json::fixed(overhead.on_ms, 2)),
            ("off_ms", Json::fixed(overhead.off_ms, 2)),
            ("pct", Json::fixed(overhead.pct(), 2)),
        ]);
        let configs = cells.iter().map(metrics_cell_json).collect();
        Json::object([
            ("app", app.name().into()),
            ("overhead", overhead),
            ("configs", Json::Array(configs)),
        ])
    });
    Json::object([
        ("seed", seed.into()),
        ("mode", mode.into()),
        ("apps", Json::Array(apps.collect())),
    ])
    .render()
}

/// Validates a `BENCH_metrics.json` document by parsing it: per app the
/// overhead A/B (`on_ms`, `off_ms`, `pct`), and per configuration the
/// `W113` count, the SLO verdicts with their `all_met` flag, the
/// per-event-kind totals and at least one shard self-profile. Returns the
/// number of configuration cells.
pub fn validate_metrics_json(json: &str) -> Result<usize, String> {
    let doc = Json::parse(json)?;
    doc.get("seed")?.as_u64()?;
    doc.get("mode")?.as_str()?;
    let mut cells = 0;
    for app in doc.get("apps")?.as_array()? {
        let overhead = app.get("overhead")?;
        for key in ["on_ms", "off_ms", "pct"] {
            overhead.get(key)?.as_f64()?;
        }
        for config in app.get("configs")?.as_array()? {
            config.get("config")?.as_str()?;
            config.get("w113_warnings")?.as_u64()?;
            let slo = config.get("slo")?;
            slo.get("all_met")?.as_bool()?;
            slo.get("verdicts")?.as_array()?;
            config.get("ev_totals")?;
            let shards = config.get("shards")?.as_array()?;
            if shards.is_empty() {
                return Err("no shard self-profiles recorded".into());
            }
            for shard in shards {
                shard.get("shard")?.as_u64()?;
                shard.get("events")?.as_u64()?;
            }
            cells += 1;
        }
    }
    if cells == 0 {
        return Err("no configuration cells".into());
    }
    Ok(cells)
}

/// Renders the SLO verdict table of one metrics sweep (rows:
/// configurations; verdict summary, worst burn, breached windows, `W113`).
pub fn render_slo_table(app: AppKind, cells: &[MetricsCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SLO verdicts ({}, {} objectives per cell):",
        app.name(),
        cells.first().map_or(0, |c| c.slo.verdicts.len())
    );
    for cell in cells {
        let worst = cell
            .slo
            .verdicts
            .iter()
            .map(|v| v.max_burn)
            .fold(0.0, f64::max);
        let breached: u64 = cell.slo.verdicts.iter().map(|v| v.breached_windows).sum();
        let missed: Vec<&str> = cell
            .slo
            .verdicts
            .iter()
            .filter(|v| !v.met)
            .map(|v| v.objective.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  {:<18} {}  max burn {:>6.2}  breached windows {:>3}  W113 {}{}",
            cell.config.name(),
            if cell.slo.all_met() {
                "met   "
            } else {
                "MISSED"
            },
            worst,
            breached,
            cell.w113,
            if missed.is_empty() {
                String::new()
            } else {
                format!("  ({})", missed.join(", "))
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_slos_are_reachable_on_every_committed_cell() {
        // The sweep treats a W113 warning as a hard failure, so the default
        // spec must clear the static WAN floor on every golden cell.
        for app in AppKind::all() {
            let slo = default_slo(app);
            assert!(!slo.objectives.is_empty());
            for config in Config::all() {
                let mut report = analyze_target(app, config);
                let (input, _) = Scenario::quick(app, config).build();
                assert_eq!(
                    check_slo_reachability(&mut report, &slo, &input.topology),
                    0,
                    "{} {} default SLO is statically unreachable",
                    app.name(),
                    config.name()
                );
            }
        }
    }

    #[test]
    fn metrics_json_validator_rejects_malformed_documents() {
        let ok = "{\"seed\":1,\"mode\":\"smoke\",\"apps\":[{\"app\":\"petstore\",\
                  \"overhead\":{\"on_ms\":10.00,\"off_ms\":9.00,\"pct\":11.11},\"configs\":[\
                  {\"config\":\"centralized\",\"completed\":5,\"windows\":3,\"w113_warnings\":0,\
                  \"slo\":{\"all_met\":true,\"burn_threshold\":1.00,\"verdicts\":[],\"events\":[]},\
                  \"ev_totals\":{\"engine.ev.net\":12},\
                  \"shards\":[{\"shard\":0,\"events\":12}]}]}]}";
        assert_eq!(validate_metrics_json(ok), Ok(1));
        assert!(validate_metrics_json(&ok.replace("\"overhead\"", "\"xx\"")).is_err());
        assert!(validate_metrics_json(&ok.replace("\"shards\":", "\"s\":")).is_err());
        assert!(validate_metrics_json(&ok.replace("\"shard\":0,", "")).is_err());
        assert!(validate_metrics_json(&ok.replace(",\"events\":12", "")).is_err());
        assert!(validate_metrics_json(ok.trim_end_matches("]}")).is_err());
    }

    #[test]
    fn smoke_sweep_produces_stable_artifacts_and_clean_slos() {
        // One smoke cell end to end: recorder armed, SLO graded, W113
        // clean, window log byte-stable across a re-run.
        let (cells, overhead) =
            run_metrics_sweep(AppKind::PetStore, &[Config::RemoteFacade], true, true, 7);
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.w113, 0, "{}", cell.static_report.render_text());
        assert!(cell.slo.all_met(), "{:?}", cell.slo.verdicts);
        let data = cell.report.metrics.as_ref().unwrap();
        assert!(
            !data.shard_profiles.is_empty(),
            "parallel run self-profiles"
        );
        let jsonl = metrics_jsonl(data);
        assert!(jsonl.lines().count() >= 4, "several smoke windows");
        let line = format!("{}\n", jsonl.lines().next().unwrap());
        assert_eq!(Json::parse(&line).unwrap().render(), line);
        assert!(overhead.on_ms > 0.0 && overhead.off_ms > 0.0);

        let (again, _) =
            run_metrics_sweep(AppKind::PetStore, &[Config::RemoteFacade], true, true, 7);
        assert_eq!(
            jsonl,
            metrics_jsonl(again[0].report.metrics.as_ref().unwrap()),
            "window log must be byte-stable across runs"
        );
        assert_eq!(cell.slo, again[0].slo);

        let json = render_metrics_json(&[(AppKind::PetStore, cells, overhead)], 7, "smoke");
        assert_eq!(validate_metrics_json(&json), Ok(1), "{json}");
        assert_eq!(Json::parse(&json).unwrap().render(), json);
    }
}
