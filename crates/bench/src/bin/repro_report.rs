//! `repro-report` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro-report [--app petstore|rubis|all] [--paper|--quick] [--seed N]
//!              [--tables] [--figures] [--compare] [--validate]
//!              [--sessions] [--topology] [--wiring] [--placement [--smoke]]
//!              [--simperf [--smoke] [--parallel N]] [--trace [config] [--smoke]]
//!              [--faults [--smoke]] [--metrics [config] [--smoke]]
//!              [--adaptive [--smoke]]
//! ```
//!
//! `--placement` measures placement move-evaluation throughput (full
//! recompute vs the incremental evaluator) on the paper-derived graphs and
//! on the multi-tier scale ladder (4/16/64/256 hosts), and writes
//! `BENCH_placement.json` to the current directory; `--smoke` stops the
//! ladder at the 64-host rung for CI's wall-clock-bounded gate.
//!
//! `--simperf` measures simulator request throughput at 1×/10×/100× the
//! paper's arrival rate, with the bound-program cache off (the full-binder
//! baseline) and on, then sequential RUBiS on the fan-out topology at 2, 4,
//! 8 and 16 client regions (best of 3 runs each), and writes
//! `BENCH_simperf.json`; `--smoke` shortens the windows and stops at 10× for
//! CI's wall-clock-bounded regression gate.
//! `--parallel N` caps the region-sharded parallel engine's thread ladder
//! (1/2/4/8) measured on the eight-region fan-out topology; every thread
//! count is asserted in-process to produce an identical report digest.
//! `--parallel 0` skips the parallel rows.
//!
//! `--trace [config]` re-runs the sweep (or one named configuration) with
//! per-request tracing on, writes a compact span log
//! (`TRACE_<app>_<config>.spans.jsonl`), a Chrome `trace_event` document
//! loadable in Perfetto (`TRACE_<app>_<config>.chrome.json`) and
//! `BENCH_trace.json`, prints the per-page WAN critical-path decomposition,
//! and cross-checks the traced wide-area round trips against
//! `mutsvc-analyze`'s static walk (`W108`). `--smoke` shortens the windows
//! and traces every request. Time series come from `--metrics`.
//!
//! `--faults` runs the standard WAN fault suite (main-link partition, edge
//! crash, lossy link) across the five configurations with the recovery
//! policy on and off, prints the edge-1 availability table, checks the
//! graceful-degradation ordering (centralized < remote-facade < caching
//! configurations under the partition) and writes `BENCH_faults.json`.
//! `--smoke` shortens the windows for CI's schema-validation gate.
//!
//! `--metrics [config]` re-runs the sweep (or one named configuration) on
//! the conservative-parallel engine with the windowed metrics recorder
//! armed, grades each cell against a default SLO spec with the burn-rate
//! engine, statically cross-checks every objective against the analyzer's
//! WAN round-trip floor (`W113`, a hard failure), writes one byte-stable
//! window log per cell (`METRICS_<app>_<config>.jsonl`) and
//! `BENCH_metrics.json` (SLO verdicts, burn timeline, engine self-profile,
//! metrics-on/off wall-clock A/B). `--smoke` shortens the windows for CI.
//!
//! `--adaptive` runs the adaptation suite (quiescent, flash-crowd,
//! link-degradation, diurnal-shift) with the closed-loop live-migration
//! controller on and off, prints the per-episode on/off table and writes
//! `BENCH_adaptive.json` (migration schedules, cost trajectories, SLO
//! verdicts, stressed-group deltas). The written document must parse and
//! pass `validate_adaptive_json` — every episode with both arms, the
//! quiescent control committing zero migrations, the link-degradation
//! episode at least one. `--smoke` shortens the windows for CI's
//! schema-validation gate.
//!
//! With no selection flags, everything is printed. `--quick` (default) uses
//! a 90 s warm-up + 300 s measured window; `--paper` runs the full
//! one-hour windows of §3.3.

use mutsvc_apps::petstore::{BROWSER_MIX as PS_MIX, BUYER_SEQUENCE};
use mutsvc_apps::rubis::{BIDDER_SEQUENCE, BROWSER_MIX as RUBIS_MIX};
use mutsvc_bench::adaptive_artifacts::{
    render_adaptive_json, render_adaptive_table, run_adaptive_suite, validate_adaptive_json,
    AdaptiveCell,
};
use mutsvc_bench::fault_artifacts::{
    partition_ordering_violations, render_availability_table, render_faults_json, run_fault_suite,
    validate_faults_json, FaultCell,
};
use mutsvc_bench::metrics_artifacts::{
    metrics_jsonl, render_metrics_json, render_slo_table, run_metrics_sweep, validate_metrics_json,
    MetricsCell, OverheadSample,
};
use mutsvc_bench::placement_report::{
    measure_placement_ladder, measure_placement_throughput, render_placement_json,
};
use mutsvc_bench::run_sweep_parallel;
use mutsvc_bench::simperf_report::{
    fanout_cost_at, measure_simperf, parallel_scaling_at, render_simperf_json, speedup_at,
    thread_counts, FANOUT_REGIONS,
};
use mutsvc_bench::trace_artifacts::{
    config_by_name, render_trace_json, render_wan_rt_table, run_traced_sweep, TraceCell,
};
use mutsvc_core::{
    paper_topology, render_comparison, render_figure, render_percentiles, render_table,
    validate_shapes, AppKind, Config,
};
use mutsvc_workload::{chrome_trace_json, jsonl, validate_chrome_trace};

struct Options {
    apps: Vec<AppKind>,
    quick: bool,
    seed: u64,
    tables: bool,
    figures: bool,
    compare: bool,
    validate: bool,
    sessions: bool,
    topology: bool,
    wiring: bool,
    percentiles: bool,
    placement: bool,
    simperf: bool,
    parallel: usize,
    smoke: bool,
    trace: bool,
    trace_config: Option<Config>,
    faults: bool,
    metrics: bool,
    metrics_config: Option<Config>,
    adaptive: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        apps: vec![AppKind::PetStore, AppKind::Rubis],
        quick: true,
        seed: 42,
        tables: false,
        figures: false,
        compare: false,
        validate: false,
        sessions: false,
        topology: false,
        wiring: false,
        percentiles: false,
        placement: false,
        simperf: false,
        parallel: 8,
        smoke: false,
        trace: false,
        trace_config: None,
        faults: false,
        metrics: false,
        metrics_config: None,
        adaptive: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--app" => match args.next().as_deref() {
                Some("petstore") => opts.apps = vec![AppKind::PetStore],
                Some("rubis") => opts.apps = vec![AppKind::Rubis],
                Some("all") => {}
                other => {
                    eprintln!("unknown --app {other:?}");
                    std::process::exit(2);
                }
            },
            "--paper" => opts.quick = false,
            "--quick" => opts.quick = true,
            "--seed" => {
                opts.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--tables" => opts.tables = true,
            "--figures" => opts.figures = true,
            "--compare" => opts.compare = true,
            "--validate" => opts.validate = true,
            "--sessions" => opts.sessions = true,
            "--topology" => opts.topology = true,
            "--wiring" => opts.wiring = true,
            "--percentiles" => opts.percentiles = true,
            "--placement" => opts.placement = true,
            "--simperf" => opts.simperf = true,
            "--parallel" => {
                opts.parallel = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--parallel needs a thread count (0 skips the parallel rows)");
                    std::process::exit(2);
                });
            }
            "--smoke" => opts.smoke = true,
            "--faults" => opts.faults = true,
            "--adaptive" => opts.adaptive = true,
            "--trace" => {
                opts.trace = true;
                // Optional configuration name ("remote-facade", ...).
                if let Some(next) = args.peek() {
                    if !next.starts_with("--") {
                        let name = args.next().unwrap();
                        opts.trace_config = Some(config_by_name(&name).unwrap_or_else(|| {
                            eprintln!("unknown --trace configuration {name:?}");
                            std::process::exit(2);
                        }));
                    }
                }
            }
            "--metrics" => {
                opts.metrics = true;
                // Optional configuration name ("remote-facade", ...).
                if let Some(next) = args.peek() {
                    if !next.starts_with("--") {
                        let name = args.next().unwrap();
                        opts.metrics_config = Some(config_by_name(&name).unwrap_or_else(|| {
                            eprintln!("unknown --metrics configuration {name:?}");
                            std::process::exit(2);
                        }));
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "repro-report [--app petstore|rubis|all] [--paper|--quick] [--seed N]\n             [--tables] [--figures] [--compare] [--validate] [--percentiles]\n             [--sessions] [--topology] [--wiring] [--placement [--smoke]]\n             [--simperf [--smoke] [--parallel N]] [--trace [config] [--smoke]]\n             [--faults [--smoke]] [--metrics [config] [--smoke]]\n             [--adaptive [--smoke]]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if !(opts.tables
        || opts.figures
        || opts.compare
        || opts.validate
        || opts.percentiles
        || opts.sessions
        || opts.topology
        || opts.wiring
        || opts.placement
        || opts.simperf
        || opts.trace
        || opts.faults
        || opts.metrics
        || opts.adaptive)
    {
        opts.tables = true;
        opts.figures = true;
        opts.compare = true;
        opts.validate = true;
    }
    opts
}

fn print_sessions() {
    println!("Table 2: Java Pet Store Browser session mix (20 requests)");
    for (page, pct) in PS_MIX {
        println!("  {:<10} {pct:>5.1}%", page.name());
    }
    println!("Table 3: Java Pet Store Buyer session sequence");
    for page in BUYER_SEQUENCE {
        println!("  {}", page.name());
    }
    println!("Table 4: RUBiS Browser session mix (40 requests)");
    for (page, pct) in RUBIS_MIX {
        println!("  {:<16} {pct:>5.1}%", page.name());
    }
    println!("Table 5: RUBiS Bidder session sequence");
    for page in BIDDER_SEQUENCE {
        println!("  {}", page.name());
    }
}

fn print_topology() {
    for (label, db_on_main) in [
        ("Pet Store (Oracle on a LAN host)", false),
        ("RUBiS (MySQL on main)", true),
    ] {
        let (topology, nodes) = paper_topology(db_on_main);
        println!("Figure 2 topology — {label}");
        for id in topology.node_ids() {
            let spec = topology.node(id);
            println!("  node {:<14} cpus={}", spec.name, spec.cpus);
        }
        println!(
            "  WAN one-way main<->edge1: {:.1} ms; edge1<->edge2: {:.1} ms",
            topology
                .path_latency(nodes.main, nodes.edge1)
                .as_millis_f64(),
            topology
                .path_latency(nodes.edge1, nodes.edge2)
                .as_millis_f64(),
        );
    }
}

fn print_wiring(app: AppKind) {
    println!("Figures 3-6 wiring — {} deployment descriptors", app.name());
    for config in Config::all() {
        let scenario = mutsvc_core::Scenario::quick(app, config);
        let (input, nodes) = scenario.build();
        println!("-- {} (§{})", config.name(), config.section());
        println!(
            "   entity propagation: {:?}; query cache tags: {}; stub caching: {}",
            input.descriptor.entity_propagation,
            input.descriptor.query_cache.cacheable_tags.len(),
            input.descriptor.stub_caching,
        );
        let mut edge_hosted = Vec::new();
        for (&component, placement) in &input.descriptor.placements {
            if placement.hosts(nodes.edge1) {
                edge_hosted.push(input.registry.spec(component).name.clone());
            }
        }
        edge_hosted.sort();
        println!(
            "   on edges: {}",
            if edge_hosted.is_empty() {
                "(nothing)".to_string()
            } else {
                edge_hosted.join(", ")
            }
        );
    }
}

fn print_placement_throughput(smoke: bool) {
    // The smoke gate (CI) stops the scale ladder at the 64-host rung; the
    // full report climbs to 256 hosts.
    let max_hosts = if smoke { 64 } else { 256 };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "measuring placement move throughput (1000-move sequences, ladder to {max_hosts} hosts, \
         {cores} core(s))..."
    );
    let mut cells = measure_placement_throughput(1_000, 42);
    cells.extend(measure_placement_ladder(1_000, 42, max_hosts));
    println!("placement move throughput (moves/sec):");
    for cell in &cells {
        let rung = cell.rung.map_or_else(String::new, |rung| {
            format!(
                "  rung {:>8.3} ms  search {:>8.3} ms at {:.1} ms/s",
                rung.problem_ms, rung.search_ms, rung.search_cost
            )
        });
        println!(
            "  {:<12} {:<16} {:>4} hosts {:>12.0} moves/s  build {:>8.3} ms  table {:>12} B  final cost {:>10.1} ms/s{rung}",
            cell.graph,
            cell.algorithm,
            cell.hosts,
            cell.moves_per_sec,
            cell.build_ms,
            cell.table_bytes,
            cell.final_cost
        );
    }
    let json = render_placement_json(&cells, cores);
    write_artifact(
        "BENCH_placement.json",
        &json,
        &format!("{} rows", cells.len()),
    );
}

fn print_simperf(smoke: bool, seed: u64, parallel: usize) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "measuring simulator hot-path throughput ({} mode, seed {seed}, \
         {cores} core(s), parallel cap {parallel})...",
        if smoke { "smoke" } else { "full" }
    );
    let cells = measure_simperf(smoke, seed, parallel);
    println!("simulator request throughput (requests/sec wall-clock):");
    for cell in &cells {
        let engine = if cell.threads == 0 {
            "seq   ".to_string()
        } else {
            format!(
                "par/{}t{}",
                cell.threads,
                if cell.threads < 10 { " " } else { "" }
            )
        };
        println!(
            "  {:<9} {:<6} {:>2} regions {:>4}x load  {engine}  cache {:<3}  {:>9.0} req/s  \
             {:>11.0} events/s  hit rate {:>5.1}%",
            cell.app,
            cell.topology,
            cell.regions,
            cell.load_factor,
            if cell.bind_cache { "on" } else { "off" },
            cell.requests_per_sec,
            cell.events_per_sec,
            cell.hit_rate * 100.0
        );
    }
    let top = if smoke { 10 } else { 100 };
    for regions in FANOUT_REGIONS {
        println!(
            "  rubis: {:.2}x host time per request at {regions} regions vs the paper topology",
            fanout_cost_at(&cells, "rubis", regions)
        );
    }
    for app in ["petstore", "rubis"] {
        println!(
            "  {app}: {:.1}x requests/s with the bound-program cache at {top}x load",
            speedup_at(&cells, app, top)
        );
        for t in thread_counts(parallel) {
            if t > 1 {
                println!(
                    "  {app}: {:.2}x requests/s at {t} threads vs 1 \
                     (8-region fan-out, {cores} core(s) available)",
                    parallel_scaling_at(&cells, app, t)
                );
            }
        }
    }
    let json = render_simperf_json(&cells, cores);
    write_artifact(
        "BENCH_simperf.json",
        &json,
        &format!("{} rows", cells.len()),
    );
}

/// How many traces the Chrome export keeps per configuration — enough to
/// inspect one of each page in Perfetto without a multi-megabyte document.
const CHROME_TRACE_CAP: usize = 25;

fn print_trace(opts: &Options) {
    let configs: Vec<Config> = match opts.trace_config {
        Some(config) => vec![config],
        None => Config::all().to_vec(),
    };
    let mut sweeps: Vec<(AppKind, Vec<TraceCell>)> = Vec::new();
    for &app in &opts.apps {
        eprintln!(
            "running traced {} sweep ({} mode, seed {})...",
            app.name(),
            if opts.smoke {
                "smoke"
            } else if opts.quick {
                "quick"
            } else {
                "paper"
            },
            opts.seed
        );
        let cells = run_traced_sweep(app, &configs, opts.quick, opts.smoke, opts.seed);
        for cell in &cells {
            let data = cell.report.trace.as_ref().unwrap();
            let stem = format!("TRACE_{}_{}", app.name(), cell.config.name());
            let traces = format!("{} traces", data.traces.len());
            write_artifact(&format!("{stem}.spans.jsonl"), &jsonl(data), &traces);
            write_validated(
                &format!("{stem}.chrome.json"),
                &chrome_trace_json(data, CHROME_TRACE_CAP),
                validate_chrome_trace,
                "span pairs",
            );
            for diag in cell
                .static_report
                .diagnostics
                .iter()
                .filter(|d| d.code == "W108")
            {
                println!("  W108: {}", diag.message);
            }
        }
        println!("{}", render_wan_rt_table(app, &cells));
        sweeps.push((app, cells));
    }
    let json = render_trace_json(&sweeps);
    write_artifact("BENCH_trace.json", &json, &format!("{} apps", sweeps.len()));
    let w108: usize = sweeps
        .iter()
        .flat_map(|(_, cells)| cells.iter().map(|c| c.w108))
        .sum();
    if w108 > 0 {
        println!("traced/static WAN cross-check: {w108} W108 warning(s)");
    } else {
        println!("traced/static WAN cross-check: all pages agree");
    }
}

fn print_faults(opts: &Options) {
    let mode = if opts.smoke {
        "smoke"
    } else if opts.quick {
        "quick"
    } else {
        "paper"
    };
    let mut sweeps: Vec<(AppKind, Vec<FaultCell>)> = Vec::new();
    let mut violations = Vec::new();
    for &app in &opts.apps {
        eprintln!(
            "running {} fault suite ({mode} mode, seed {}; 5 configs x 3 episodes x 2 policies)...",
            app.name(),
            opts.seed
        );
        let cells = run_fault_suite(app, opts.quick, opts.smoke, opts.seed);
        println!("{}", render_availability_table(app, &cells));
        for v in partition_ordering_violations(&cells) {
            violations.push(format!("{}: {v}", app.name()));
        }
        sweeps.push((app, cells));
    }
    let json = render_faults_json(&sweeps, opts.seed, mode);
    write_validated("BENCH_faults.json", &json, validate_faults_json, "cells");
    if violations.is_empty() {
        println!(
            "graceful degradation: centralized < remote-facade < caching \
             configurations under the main-link partition"
        );
    } else {
        println!("graceful-degradation ordering violations:");
        for v in &violations {
            println!("  - {v}");
        }
        // Smoke windows are too short for stable availability ordering;
        // the full windows must reproduce the paper's claim.
        if !opts.smoke {
            std::process::exit(1);
        }
    }
}

fn print_metrics(opts: &Options) {
    let mode = if opts.smoke {
        "smoke"
    } else if opts.quick {
        "quick"
    } else {
        "paper"
    };
    let configs: Vec<Config> = match opts.metrics_config {
        Some(config) => vec![config],
        None => Config::all().to_vec(),
    };
    let mut sweeps: Vec<(AppKind, Vec<MetricsCell>, OverheadSample)> = Vec::new();
    let mut unreachable = 0usize;
    for &app in &opts.apps {
        eprintln!(
            "running {} metrics sweep ({mode} mode, seed {}; recorder on + off A/B)...",
            app.name(),
            opts.seed
        );
        let (cells, overhead) = run_metrics_sweep(app, &configs, opts.quick, opts.smoke, opts.seed);
        for cell in &cells {
            let data = cell.report.metrics.as_ref().unwrap();
            let path = format!("METRICS_{}_{}.jsonl", app.name(), cell.config.name());
            let windows = format!("{} windows", data.recorder.rows().len());
            write_artifact(&path, &metrics_jsonl(data), &windows);
            for diag in cell
                .static_report
                .diagnostics
                .iter()
                .filter(|d| d.code == "W113")
            {
                println!("  W113: {}", diag.message);
            }
            unreachable += cell.w113;
        }
        println!("{}", render_slo_table(app, &cells));
        println!(
            "  recording overhead: on {:.0} ms vs off {:.0} ms ({:+.2}%)",
            overhead.on_ms,
            overhead.off_ms,
            overhead.pct()
        );
        sweeps.push((app, cells, overhead));
    }
    let json = render_metrics_json(&sweeps, opts.seed, mode);
    write_validated("BENCH_metrics.json", &json, validate_metrics_json, "cells");
    if unreachable > 0 {
        eprintln!(
            "SLO reachability: {unreachable} W113 warning(s) — an objective sits below \
             the static WAN round-trip floor"
        );
        std::process::exit(1);
    }
    println!("SLO reachability: every objective clears the static WAN floor");
}

fn print_adaptive(opts: &Options) {
    let mode = if opts.smoke {
        "smoke"
    } else if opts.quick {
        "quick"
    } else {
        "paper"
    };
    let mut sweeps: Vec<(AppKind, Vec<AdaptiveCell>)> = Vec::new();
    for &app in &opts.apps {
        eprintln!(
            "running {} adaptation suite ({mode} mode, seed {}; 4 episodes x controller on/off)...",
            app.name(),
            opts.seed
        );
        let cells = run_adaptive_suite(app, opts.quick, opts.smoke, opts.seed);
        println!("{}", render_adaptive_table(app, &cells));
        for cell in cells.iter().filter(|c| c.arm == "on") {
            if let Some(data) = &cell.report.adaptive {
                for m in &data.migrations {
                    println!(
                        "  {} @{:.0}s: {} {} {} -> {} (modeled gain {:.0} ms/s)",
                        cell.episode.name(),
                        m.decided_at.as_secs_f64(),
                        match m.kind {
                            mutsvc_workload::MoveKind::Primary => "re-home",
                            mutsvc_workload::MoveKind::Replica => "replicate",
                        },
                        m.component,
                        m.from,
                        m.to,
                        m.modeled_gain,
                    );
                }
            }
        }
        sweeps.push((app, cells));
    }
    let json = render_adaptive_json(&sweeps, opts.seed, mode);
    write_validated(
        "BENCH_adaptive.json",
        &json,
        validate_adaptive_json,
        "arm cells",
    );
}

/// Writes one artifact and reports `what` it holds; a failed write is
/// reported, not fatal.
fn write_artifact(path: &str, text: &str, what: &str) {
    match std::fs::write(path, text) {
        Ok(()) => println!("wrote {path} ({what})"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Writes an artifact `validate` accepts, reporting the count of `unit`s it
/// returns; exits 1 on a document the validator rejects.
fn write_validated(
    path: &str,
    text: &str,
    validate: fn(&str) -> Result<usize, String>,
    unit: &str,
) {
    match validate(text) {
        Ok(n) => write_artifact(path, text, &format!("{n} {unit}")),
        Err(e) => {
            eprintln!("invalid {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = parse_args();
    if opts.placement {
        print_placement_throughput(opts.smoke);
    }
    if opts.simperf {
        print_simperf(opts.smoke, opts.seed, opts.parallel);
    }
    if opts.trace {
        print_trace(&opts);
    }
    if opts.faults {
        print_faults(&opts);
    }
    if opts.metrics {
        print_metrics(&opts);
    }
    if opts.adaptive {
        print_adaptive(&opts);
    }
    if opts.sessions {
        print_sessions();
    }
    if opts.topology {
        print_topology();
    }
    if opts.wiring {
        for &app in &opts.apps {
            print_wiring(app);
        }
    }
    if !(opts.tables || opts.figures || opts.compare || opts.validate || opts.percentiles) {
        return;
    }
    for &app in &opts.apps {
        eprintln!(
            "running {} sweep ({} mode, seed {})...",
            app.name(),
            if opts.quick { "quick" } else { "paper" },
            opts.seed
        );
        let reports = run_sweep_parallel(app, opts.quick, opts.seed);
        if opts.tables {
            println!("{}", render_table(app, &reports));
        }
        if opts.percentiles {
            println!("{}", render_percentiles(app, &reports));
        }
        if opts.compare {
            println!("{}", render_comparison(app, &reports));
        }
        if opts.figures {
            println!("{}", render_figure(app, &reports));
        }
        if opts.validate {
            let violations = validate_shapes(app, &reports);
            if violations.is_empty() {
                println!("shape validation ({}): all criteria hold\n", app.name());
            } else {
                println!(
                    "shape validation ({}): {} violations",
                    app.name(),
                    violations.len()
                );
                for v in &violations {
                    println!("  - {v}");
                }
                println!();
            }
        }
        for report in &reports {
            let util: Vec<String> = report
                .cpu_utilization
                .iter()
                .filter(|(n, _)| !n.starts_with("client") && n != "router")
                .map(|(n, u)| format!("{n}={:.0}%", u * 100.0))
                .collect();
            eprintln!(
                "  {}: {} requests, cpu {}",
                report.config,
                report.completed,
                util.join(" ")
            );
        }
    }
}
