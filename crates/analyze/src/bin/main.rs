//! `mutsvc-analyze` — the static deployment linter CLI.
//!
//! ```text
//! mutsvc-analyze [--app petstore|rubis] [--config NAME] [--all]
//!                [--format text|json|sarif]
//!                [--check-faults]
//!                [--explain CODE]
//! ```
//!
//! With no selection flags, `--all` is assumed (both applications × all five
//! configurations). `--explain CODE` prints the registered documentation
//! for one diagnostic code and exits. `--check-faults` additionally runs
//! the fault-suite simulations for every selected cell, in
//! [`Scenario::quick`]'s windows, and cross-checks the analyzer's predicted
//! per-episode availability against the simulated figure within one
//! percentage point. Exits `1` when any analyzed deployment has errors or a
//! cross-check misses, `2` on usage errors.

use std::process::ExitCode;

use mutsvc_analyze::{analyze_target, explain, sarif_document, Report};
use mutsvc_core::{AppKind, Config, FaultCase, Scenario};
use mutsvc_desim::json::Json;
use mutsvc_workload::FaultPolicy;

/// Largest predicted-minus-simulated availability gap `--check-faults`
/// accepts.
const TOLERANCE: f64 = 0.01;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    app: Option<AppKind>,
    config: Option<Config>,
    all: bool,
    format: Format,
    explain: Option<String>,
    check_faults: bool,
}

fn usage() -> String {
    let configs: Vec<&str> = Config::all().iter().map(|c| c.name()).collect();
    format!(
        "usage: mutsvc-analyze [--app petstore|rubis] [--config NAME] [--all] \
         [--format text|json|sarif] [--check-faults] [--explain CODE]\n\
         configs: {}",
        configs.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        app: None,
        config: None,
        all: false,
        format: Format::Text,
        explain: None,
        check_faults: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--app" => {
                let value = it.next().ok_or("--app needs a value")?;
                opts.app = Some(match value.as_str() {
                    "petstore" => AppKind::PetStore,
                    "rubis" => AppKind::Rubis,
                    other => return Err(format!("unknown application `{other}`")),
                });
            }
            "--config" => {
                let value = it.next().ok_or("--config needs a value")?;
                opts.config = Some(
                    Config::all()
                        .iter()
                        .copied()
                        .find(|c| c.name() == value.as_str())
                        .ok_or_else(|| format!("unknown configuration `{value}`"))?,
                );
            }
            "--all" => opts.all = true,
            "--format" => {
                let value = it.next().ok_or("--format needs a value")?;
                opts.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--explain" => {
                let value = it.next().ok_or("--explain needs a code")?;
                opts.explain = Some(value.clone());
            }
            "--check-faults" => opts.check_faults = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn print_explain(code: &str) -> ExitCode {
    match explain(code) {
        Some(doc) => {
            println!("{}: {}  ({})", doc.code, doc.summary, doc.section);
            println!();
            // Re-flow the explain paragraph to honest line lengths.
            let mut line = String::new();
            for word in doc.explain.split_whitespace() {
                if !line.is_empty() && line.len() + 1 + word.len() > 76 {
                    println!("{line}");
                    line.clear();
                }
                if !line.is_empty() {
                    line.push(' ');
                }
                line.push_str(word);
            }
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: unknown diagnostic code `{code}`");
            ExitCode::from(2)
        }
    }
}

/// Cross-checks one cell: predicted availability per episode against a
/// resilient-arm simulation of the same episode and windows. Returns the
/// number of misses.
fn check_faults_cell(app: AppKind, config: Config, report: &Report) -> usize {
    let mut misses = 0;
    for case in FaultCase::all() {
        let Some(row) = report
            .availability
            .iter()
            .find(|r| r.episode == case.name())
        else {
            println!(
                "  {:<9} {:<17} {:<20} no prediction  MISS",
                app.name(),
                config.name(),
                case.name()
            );
            misses += 1;
            continue;
        };
        let scenario = Scenario::quick(app, config).with_fault_case(case, FaultPolicy::resilient());
        let simulated = scenario
            .run()
            .stats
            .outcome("remote1")
            .map_or(f64::NAN, mutsvc_workload::GroupOutcome::availability);
        let diff = (row.availability - simulated).abs();
        let ok = diff.is_finite() && diff <= TOLERANCE;
        println!(
            "  {:<9} {:<17} {:<20} predicted {:.4}  simulated {:.4}  diff {:.4}  {}",
            app.name(),
            config.name(),
            case.name(),
            row.availability,
            simulated,
            diff,
            if ok { "ok" } else { "MISS" }
        );
        if !ok {
            misses += 1;
        }
    }
    misses
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if let Some(code) = &opts.explain {
        return print_explain(code);
    }

    let apps: Vec<AppKind> = match (opts.all, opts.app) {
        (false, Some(app)) => vec![app],
        _ => AppKind::all().to_vec(),
    };
    let configs: Vec<Config> = match (opts.all, opts.config) {
        (false, Some(config)) => vec![config],
        _ => Config::all().to_vec(),
    };

    let mut failed = false;
    let mut misses = 0;
    let mut reports = Vec::new();
    for &app in &apps {
        for &config in &configs {
            let report = analyze_target(app, config);
            failed |= report.has_errors();
            match opts.format {
                Format::Text => print!("{}", report.render_text()),
                Format::Json | Format::Sarif => {}
            }
            reports.push((app, config, report));
        }
    }
    match opts.format {
        Format::Text => {}
        Format::Json => {
            let docs = reports.iter().map(|(_, _, r)| r.to_json()).collect();
            print!("{}", Json::Array(docs).render());
        }
        Format::Sarif => {
            let docs: Vec<Report> = reports.iter().map(|(_, _, r)| r.clone()).collect();
            print!("{}", sarif_document(&docs).render());
        }
    }

    if opts.check_faults {
        let quick = Scenario::quick(AppKind::PetStore, Config::Centralized);
        println!(
            "fault cross-check (windows {}s+{}s, tolerance {TOLERANCE:.2}):",
            quick.warmup.as_secs_f64(),
            quick.duration.as_secs_f64(),
        );
        for (app, config, report) in &reports {
            misses += check_faults_cell(*app, *config, report);
        }
        if misses > 0 {
            eprintln!("error: {misses} fault cross-check misses");
        } else {
            println!("fault cross-check: all cells within {TOLERANCE:.2}");
        }
    }

    if failed || misses > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
