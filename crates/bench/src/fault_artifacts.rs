//! Fault-suite artifacts: `BENCH_faults.json` and the availability tables.
//!
//! `repro-report --faults` runs the five configurations under the standard
//! fault suite ([`FaultCase`]: main-link partition, edge crash, lossy link),
//! each with the recovery policy on (`resilient`) and off, and reports
//! availability, goodput, error rate, retries/failovers and staleness per
//! cell. The headline result is the paper's graceful-degradation claim:
//! under the main-link partition, edge-1 client availability orders
//! centralized < remote-facade < the caching configurations — the
//! centralized baseline goes dark behind the cut while edge caches keep
//! answering reads (with recorded staleness). Schedules are scripted, so a
//! same-seed suite run renders `BENCH_faults.json` byte-identically — the
//! determinism tests diff sequential vs parallel execution.

use mutsvc_core::{AppKind, Config, FaultCase, Scenario};
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{ExperimentReport, FaultPolicy, GroupOutcome};

/// The two recovery-policy arms every episode runs under.
pub fn suite_policies() -> [(&'static str, FaultPolicy); 2] {
    [
        ("resilient", FaultPolicy::resilient()),
        ("off", FaultPolicy::none()),
    ]
}

/// Builds the scenario one fault cell executes. Smoke mode shortens the
/// windows to 10 s warm-up + 40 s measured (CI wall-clock); the episode
/// then covers the middle half of the measured window either way.
pub fn fault_scenario(
    app: AppKind,
    config: Config,
    case: FaultCase,
    policy: FaultPolicy,
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
        scenario.duration = SimDuration::from_secs(40);
    }
    scenario.with_seed(seed).with_fault_case(case, policy)
}

/// One fault-suite cell: a configuration run under one episode and policy.
pub struct FaultCell {
    /// The configuration.
    pub config: Config,
    /// The injected episode.
    pub case: FaultCase,
    /// Policy-arm name (`"resilient"` or `"off"`).
    pub policy: &'static str,
    /// Measured window (the goodput denominator).
    pub window: SimDuration,
    /// The finished run.
    pub report: ExperimentReport,
}

/// Runs the full suite for one application — every episode × policy arm ×
/// configuration — in parallel. Cells are ordered case-major, then policy,
/// then configuration (the order [`render_faults_json`] emits).
pub fn run_fault_suite(app: AppKind, quick: bool, smoke: bool, seed: u64) -> Vec<FaultCell> {
    let mut plan = Vec::new();
    for case in FaultCase::all() {
        for (name, policy) in suite_policies() {
            for config in Config::all() {
                let scenario = fault_scenario(app, config, case, policy, quick, smoke, seed);
                plan.push((config, case, name, scenario));
            }
        }
    }
    let scenarios: Vec<Scenario> = plan.iter().map(|(_, _, _, s)| s.clone()).collect();
    let reports = crate::run_scenarios_parallel(scenarios);
    plan.into_iter()
        .zip(reports)
        .map(|((config, case, policy, scenario), report)| FaultCell {
            config,
            case,
            policy,
            window: scenario.duration,
            report,
        })
        .collect()
}

pub(crate) fn fmt2(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn fmt4(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn outcome_json(outcome: &GroupOutcome, window: SimDuration) -> String {
    format!(
        "{{\"ok\":{},\"failed\":{},\"retries\":{},\"failovers\":{},\"stale_served\":{},\
         \"availability\":{},\"error_rate\":{},\"goodput_rps\":{}}}",
        outcome.ok,
        outcome.failed,
        outcome.retries,
        outcome.failovers,
        outcome.stale_served,
        fmt4(outcome.availability()),
        fmt4(outcome.error_rate()),
        fmt2(outcome.goodput(window)),
    )
}

/// Renders `BENCH_faults.json`: per app × episode × policy arm, each
/// configuration's request outcomes (total and per client group) and the
/// staleness distribution of partition-served reads.
pub fn render_faults_json(sweeps: &[(AppKind, Vec<FaultCell>)], seed: u64, mode: &str) -> String {
    let mut out = format!("{{\"suite\":\"faults\",\"mode\":\"{mode}\",\"seed\":{seed},\"apps\":[");
    for (ai, (app, cells)) in sweeps.iter().enumerate() {
        if ai > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n{{\"app\":\"{}\",\"cases\":[", app.name()));
        for (ci, case) in FaultCase::all().into_iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n{{\"case\":\"{}\",\"policies\":[", case.name()));
            for (pi, (policy, _)) in suite_policies().into_iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n{{\"policy\":\"{policy}\",\"configs\":["));
                let mut first = true;
                for cell in cells
                    .iter()
                    .filter(|c| c.case == case && c.policy == policy)
                {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let stats = &cell.report.stats;
                    let hist = stats.staleness_histogram();
                    out.push_str(&format!(
                        "\n{{\"config\":\"{}\",\"completed\":{},\"total\":{},\
                         \"staleness_ms\":{{\"count\":{},\"p50\":{},\"p95\":{}}},\"groups\":[",
                        cell.config.name(),
                        cell.report.completed,
                        outcome_json(&stats.total_outcome(), cell.window),
                        hist.total(),
                        fmt2(hist.quantile(0.5)),
                        fmt2(hist.quantile(0.95)),
                    ));
                    for (gi, (group, outcome)) in stats.outcomes().enumerate() {
                        if gi > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"group\":\"{group}\",\"outcome\":{}}}",
                            outcome_json(outcome, cell.window)
                        ));
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

/// Renders the edge-1 client availability table of one suite run (rows:
/// episodes; columns: configurations; cells: `resilient policy / policy
/// off`). This is the README's five-configuration availability table.
pub fn render_availability_table(app: AppKind, cells: &[FaultCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "edge-1 client availability under faults ({}; resilient policy / policy off):",
        app.name()
    );
    let _ = write!(out, "  {:<22}", "episode");
    for config in Config::all() {
        let _ = write!(out, " {:>17}", config.name());
    }
    out.push('\n');
    for case in FaultCase::all() {
        let _ = write!(out, "  {:<22}", case.name());
        for config in Config::all() {
            let avail = |policy: &str| {
                cells
                    .iter()
                    .find(|c| c.case == case && c.policy == policy && c.config == config)
                    .and_then(|c| c.report.stats.outcome("remote1"))
                    .map_or("-".to_string(), |o| format!("{:.2}", o.availability()))
            };
            let entry = format!("{}/{}", avail("resilient"), avail("off"));
            let _ = write!(out, " {entry:>17}");
        }
        out.push('\n');
    }
    out
}

/// Checks the §4 graceful-degradation claim on a finished suite: under the
/// main-link partition with the resilient policy, edge-1 client
/// availability must order centralized < remote-facade < every caching
/// configuration. Returns the violations (empty = the ordering holds).
pub fn partition_ordering_violations(cells: &[FaultCell]) -> Vec<String> {
    let avail = |config: Config| -> Option<f64> {
        cells
            .iter()
            .find(|c| {
                c.case == FaultCase::MainLinkPartition
                    && c.policy == "resilient"
                    && c.config == config
            })
            .and_then(|c| c.report.stats.outcome("remote1"))
            .map(mutsvc_workload::GroupOutcome::availability)
    };
    let (Some(central), Some(facade)) = (avail(Config::Centralized), avail(Config::RemoteFacade))
    else {
        return vec!["suite lacks the resilient main-link-partition cells".to_string()];
    };
    let mut violations = Vec::new();
    if facade <= central {
        violations.push(format!(
            "remote-facade availability {facade:.3} should exceed centralized {central:.3}"
        ));
    }
    for config in [
        Config::StatefulCaching,
        Config::QueryCaching,
        Config::AsyncUpdates,
    ] {
        match avail(config) {
            Some(v) if v > facade => {}
            Some(v) => violations.push(format!(
                "{} availability {v:.3} should exceed remote-facade {facade:.3}",
                config.name()
            )),
            None => violations.push(format!("no {} partition cell", config.name())),
        }
    }
    violations
}

pub(crate) fn after_each<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    json.match_indices(key)
        .map(|(i, m)| &json[i + m.len()..])
        .collect()
}

/// Structurally validates a `BENCH_faults.json` document: balanced
/// braces/brackets, the required header and section keys, known episode
/// names, and every `availability`/`error_rate` a number in `[0, 1]`.
/// Returns the number of configuration cells found.
///
/// This is a purpose-built scanner for our own renderer's output, not a
/// general JSON parser (the vendored `serde` is a stub).
pub fn validate_faults_json(json: &str) -> Result<usize, String> {
    let (mut braces, mut brackets) = (0i64, 0i64);
    for ch in json.chars() {
        match ch {
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            return Err("closing brace before its opener".to_string());
        }
    }
    if braces != 0 || brackets != 0 {
        return Err(format!(
            "unbalanced document ({braces} braces, {brackets} brackets open)"
        ));
    }
    if !json.starts_with("{\"suite\":\"faults\"") {
        return Err("missing {\"suite\":\"faults\"} header".to_string());
    }
    for key in [
        "\"mode\":",
        "\"seed\":",
        "\"apps\":",
        "\"policies\":",
        "\"groups\":",
        "\"staleness_ms\":",
    ] {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    for rest in after_each(json, "\"case\":\"") {
        let name = rest.split('"').next().unwrap_or_default();
        if !FaultCase::all().iter().any(|c| c.name() == name) {
            return Err(format!("unknown episode {name:?}"));
        }
    }
    for key in ["\"availability\":", "\"error_rate\":"] {
        for rest in after_each(json, key) {
            let num = rest.split([',', '}']).next().unwrap_or_default();
            let v: f64 = num
                .parse()
                .map_err(|_| format!("bad number {num:?} after {key}"))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{key}{v} out of [0,1]"));
            }
        }
    }
    let cells = after_each(json, "\"config\":\"").len();
    if cells == 0 {
        return Err("no configuration cells".to_string());
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cell(config: Config, policy_name: &'static str, seed: u64) -> FaultCell {
        let (_, policy) = suite_policies()
            .into_iter()
            .find(|(n, _)| *n == policy_name)
            .unwrap();
        let scenario = fault_scenario(
            AppKind::PetStore,
            config,
            FaultCase::MainLinkPartition,
            policy,
            true,
            true,
            seed,
        );
        FaultCell {
            config,
            case: FaultCase::MainLinkPartition,
            policy: policy_name,
            window: scenario.duration,
            report: scenario.run(),
        }
    }

    #[test]
    fn validator_accepts_the_rendered_suite_and_rejects_tampering() {
        let cells = vec![smoke_cell(Config::Centralized, "resilient", 7)];
        let json = render_faults_json(&[(AppKind::PetStore, cells)], 7, "smoke");
        assert_eq!(validate_faults_json(&json), Ok(1));
        // An out-of-range rate.
        let bad = json.replacen("\"availability\":", "\"availability\":9", 1);
        assert!(validate_faults_json(&bad).is_err());
        // A truncated document.
        assert!(validate_faults_json(&json[..json.len() - 3]).is_err());
        // An unknown episode name.
        let bad = json.replace("main-link-partition", "earthquake");
        assert!(validate_faults_json(&bad).is_err());
    }

    #[test]
    fn rendered_artifact_is_byte_identical_per_seed() {
        let run = || {
            let cells = vec![smoke_cell(Config::QueryCaching, "off", 7)];
            render_faults_json(&[(AppKind::PetStore, cells)], 7, "smoke")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_sweeps_are_identical_sequential_and_parallel() {
        let scenarios: Vec<Scenario> = [Config::Centralized, Config::StatefulCaching]
            .into_iter()
            .map(|config| {
                fault_scenario(
                    AppKind::Rubis,
                    config,
                    FaultCase::EdgeCrash,
                    FaultPolicy::resilient(),
                    true,
                    true,
                    11,
                )
            })
            .collect();
        let sequential: Vec<ExperimentReport> = scenarios.iter().map(Scenario::run).collect();
        let parallel = crate::run_scenarios_parallel(scenarios);
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.events_fired, b.events_fired);
        }
    }
}
