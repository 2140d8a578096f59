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
use mutsvc_desim::json::Json;
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

pub(crate) fn outcome_json(outcome: &GroupOutcome, window: SimDuration) -> Json {
    Json::object([
        ("ok", outcome.ok.into()),
        ("failed", outcome.failed.into()),
        ("retries", outcome.retries.into()),
        ("failovers", outcome.failovers.into()),
        ("stale_served", outcome.stale_served.into()),
        ("availability", Json::fixed(outcome.availability(), 4)),
        ("error_rate", Json::fixed(outcome.error_rate(), 4)),
        ("goodput_rps", Json::fixed(outcome.goodput(window), 2)),
    ])
}

/// Each client group's outcome of one run, in group order.
pub(crate) fn groups_json(report: &ExperimentReport, window: SimDuration) -> Json {
    let groups = report.stats.outcomes().map(|(group, outcome)| {
        Json::object([
            ("group", group.into()),
            ("outcome", outcome_json(outcome, window)),
        ])
    });
    Json::Array(groups.collect())
}

fn cell_json(cell: &FaultCell) -> Json {
    let stats = &cell.report.stats;
    let hist = stats.staleness_histogram();
    let staleness = Json::object([
        ("count", hist.total().into()),
        ("p50", Json::fixed(hist.quantile(0.5), 2)),
        ("p95", Json::fixed(hist.quantile(0.95), 2)),
    ]);
    Json::object([
        ("config", cell.config.name().into()),
        ("completed", cell.report.completed.into()),
        ("total", outcome_json(&stats.total_outcome(), cell.window)),
        ("staleness_ms", staleness),
        ("groups", groups_json(&cell.report, cell.window)),
    ])
}

/// Renders `BENCH_faults.json`: per app × episode × policy arm, each
/// configuration's request outcomes (total and per client group) and the
/// staleness distribution of partition-served reads.
pub fn render_faults_json(sweeps: &[(AppKind, Vec<FaultCell>)], seed: u64, mode: &str) -> String {
    let apps = sweeps.iter().map(|(app, cells)| {
        let cases = FaultCase::all().into_iter().map(|case| {
            let policies = suite_policies().into_iter().map(|(policy, _)| {
                let configs = cells
                    .iter()
                    .filter(|c| c.case == case && c.policy == policy)
                    .map(cell_json);
                Json::object([
                    ("policy", policy.into()),
                    ("configs", Json::Array(configs.collect())),
                ])
            });
            Json::object([
                ("case", case.name().into()),
                ("policies", Json::Array(policies.collect())),
            ])
        });
        Json::object([
            ("app", app.name().into()),
            ("cases", Json::Array(cases.collect())),
        ])
    });
    Json::object([
        ("suite", "faults".into()),
        ("mode", mode.into()),
        ("seed", seed.into()),
        ("apps", Json::Array(apps.collect())),
    ])
    .render()
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

/// Checks the `suite`, `mode` and `seed` header of a parsed artifact.
pub(crate) fn check_header(doc: &Json, suite: &str) -> Result<(), String> {
    let found = doc.get("suite")?.as_str()?;
    if found != suite {
        return Err(format!("suite {found:?}, expected {suite:?}"));
    }
    doc.get("mode")?.as_str()?;
    doc.get("seed")?.as_u64()?;
    Ok(())
}

/// Checks that `items` carry exactly the `expected` names under `key`, in
/// order.
pub(crate) fn check_names(items: &[Json], key: &str, expected: &[&str]) -> Result<(), String> {
    let found: Vec<&str> = items
        .iter()
        .map(|item| item.get(key).and_then(Json::as_str))
        .collect::<Result<_, _>>()?;
    if found != expected {
        return Err(format!("{key}s {found:?}, expected {expected:?}"));
    }
    Ok(())
}

/// Checks that the number under `key` lies in `[0, 1]`.
pub(crate) fn check_fraction(value: &Json, key: &str) -> Result<(), String> {
    let v = value.get(key)?.as_f64()?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{key} {v} out of [0,1]"));
    }
    Ok(())
}

/// Checks a request outcome's `availability` and `error_rate`.
pub(crate) fn check_outcome(outcome: &Json) -> Result<(), String> {
    check_fraction(outcome, "availability")?;
    check_fraction(outcome, "error_rate")
}

/// Validates a `BENCH_faults.json` document by parsing it: the `faults`
/// header; per app every [`FaultCase`] in order, each with both policy
/// arms of [`suite_policies`]; and in every configuration cell the
/// staleness count and an `availability` and `error_rate` in `[0, 1]`
/// for the total and for each client group. Returns the number of
/// configuration cells.
pub fn validate_faults_json(json: &str) -> Result<usize, String> {
    let doc = Json::parse(json)?;
    check_header(&doc, "faults")?;
    let mut cells = 0;
    for app in doc.get("apps")?.as_array()? {
        let cases = app.get("cases")?.as_array()?;
        check_names(cases, "case", &FaultCase::all().map(FaultCase::name))?;
        for case in cases {
            let policies = case.get("policies")?.as_array()?;
            check_names(policies, "policy", &suite_policies().map(|(p, _)| p))?;
            for policy in policies {
                for config in policy.get("configs")?.as_array()? {
                    config.get("config")?.as_str()?;
                    config.get("staleness_ms")?.get("count")?.as_u64()?;
                    check_outcome(config.get("total")?)?;
                    for group in config.get("groups")?.as_array()? {
                        check_outcome(group.get("outcome")?)?;
                    }
                    cells += 1;
                }
            }
        }
    }
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
        use crate::tests::{at, edited, remove};
        let rejects = |edit: fn(&mut Json)| validate_faults_json(&edited(&json, edit)).is_err();
        // A dropped episode, and a dropped policy arm.
        assert!(rejects(|d| remove(d, "apps/0/cases/1")));
        assert!(rejects(|d| remove(d, "apps/0/cases/0/policies/1")));
        // An unknown episode name.
        assert!(rejects(
            |d| *at(d, "apps/0/cases/2/case") = "earthquake".into()
        ));
        // An out-of-range rate, in the total and in a group.
        const CELL: &str = "apps/0/cases/0/policies/0/configs/0";
        assert!(rejects(|d| {
            *at(d, &format!("{CELL}/total/availability")) = Json::fixed(9.0, 4);
        }));
        assert!(rejects(|d| {
            *at(d, &format!("{CELL}/groups/1/outcome/error_rate")) = Json::fixed(-0.5, 4);
        }));
        // A wrong header and a truncated document.
        assert!(rejects(|d| *at(d, "suite") = "adaptive".into()));
        assert!(validate_faults_json(&json[..json.len() - 3]).is_err());
    }

    #[test]
    fn rendered_artifact_is_byte_identical_per_seed() {
        let run = || {
            let cells = vec![smoke_cell(Config::QueryCaching, "off", 7)];
            render_faults_json(&[(AppKind::PetStore, cells)], 7, "smoke")
        };
        let json = run();
        assert_eq!(json, run());
        assert_eq!(Json::parse(&json).unwrap().render(), json);
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
