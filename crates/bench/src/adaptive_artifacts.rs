//! Adaptation-suite artifacts: `BENCH_adaptive.json` and the controller
//! on/off tables.
//!
//! `repro-report --adaptive` runs the four adaptation episodes
//! ([`AdaptiveEpisode`]: quiescent, flash-crowd, link-degradation,
//! diurnal-shift) on the paper topology, each twice — once with the
//! closed-loop live-migration controller armed (`on`) and once frozen at
//! the deployment-time placement (`off`) — and reports the stressed
//! group's session time, every group's request outcomes, the SLO verdicts,
//! the controller's cost trajectory and its committed migrations per cell.
//!
//! The headline results are structural and enforced by
//! [`validate_adaptive_json`]: the quiescent control commits **zero**
//! migrations (the drift floor holds against telemetry noise), while
//! link-degradation commits at least one (the controller re-homes the
//! session tier when the stressed corridor slows down). Episodes script
//! drift, not outages, so the on/off delta is attributable to adaptation
//! alone. Schedules and controller rounds are deterministic: a same-seed
//! suite run renders `BENCH_adaptive.json` byte-identically.

use crate::fault_artifacts::{
    check_fraction, check_header, check_names, check_outcome, groups_json,
};
use crate::metrics_artifacts::default_slo;
use mutsvc_core::{adaptive_episode_input, AdaptiveEpisode, AppKind};
use mutsvc_desim::json::Json;
use mutsvc_desim::time::SimDuration;
use mutsvc_workload::{
    evaluate, run_experiment, AdaptiveSettings, ExperimentReport, MoveKind, SloReport,
};

/// The client group every episode stresses (`EpisodeTargets::group1`).
pub const STRESSED_GROUP: &str = "remote1";

/// Controller round cadence the suite arms — two telemetry windows per
/// round at the 5 s recorder window [`adaptive_episode_input`] wires.
fn suite_cadence() -> SimDuration {
    SimDuration::from_secs(10)
}

/// Suite windows (warm-up, measured duration). Episode onset lands one
/// quarter into the measured window and heals at three quarters either
/// way; smoke compresses the wall clock for CI's schema-validation gate
/// while still leaving four controller rounds inside the episode.
fn suite_windows(quick: bool, smoke: bool) -> (SimDuration, SimDuration) {
    if smoke {
        (SimDuration::from_secs(10), SimDuration::from_secs(80))
    } else if quick {
        (SimDuration::from_secs(90), SimDuration::from_secs(300))
    } else {
        (SimDuration::from_secs(120), SimDuration::from_secs(600))
    }
}

/// The two controller arms every episode runs under.
pub fn suite_arms() -> [(&'static str, AdaptiveSettings); 2] {
    [
        ("on", AdaptiveSettings::every(suite_cadence())),
        ("off", AdaptiveSettings::off()),
    ]
}

/// One adaptation-suite cell: an episode run under one controller arm.
pub struct AdaptiveCell {
    /// The scripted episode.
    pub episode: AdaptiveEpisode,
    /// Controller-arm name (`"on"` or `"off"`).
    pub arm: &'static str,
    /// Measured window (the goodput denominator).
    pub window: SimDuration,
    /// The finished run.
    pub report: ExperimentReport,
    /// The run graded against the default SLO spec.
    pub slo: SloReport,
}

impl AdaptiveCell {
    /// The stressed group's mean Browser session time, if it completed any.
    pub fn stressed_session_ms(&self) -> Option<f64> {
        self.report
            .stats
            .session_mean_over_groups(&[STRESSED_GROUP], "Browser")
    }

    /// The stressed group's availability (1 when nothing was measured).
    pub fn stressed_availability(&self) -> f64 {
        self.report
            .stats
            .outcome(STRESSED_GROUP)
            .map_or(1.0, mutsvc_workload::GroupOutcome::availability)
    }

    /// Migrations the controller committed (0 for the frozen arm).
    pub fn migration_count(&self) -> usize {
        self.report
            .adaptive
            .as_ref()
            .map_or(0, |d| d.migrations.len())
    }
}

/// Runs the full adaptation suite for one application — every episode ×
/// controller arm on the paper topology — through
/// [`run_cells`](crate::run_cells). Cells are ordered
/// episode-major, then arm (`on` before `off`), the order
/// [`render_adaptive_json`] emits.
pub fn run_adaptive_suite(app: AppKind, quick: bool, smoke: bool, seed: u64) -> Vec<AdaptiveCell> {
    let (warmup, duration) = suite_windows(quick, smoke);
    let slo_spec = default_slo(app);
    let mut meta = Vec::new();
    let mut inputs = Vec::new();
    for episode in AdaptiveEpisode::all() {
        for (arm, controller) in suite_arms() {
            meta.push((episode, arm));
            inputs.push((
                format!("adaptive cell adaptive-{}-{arm}", episode.name()),
                adaptive_episode_input(app, episode, None, controller, warmup, duration, seed),
            ));
        }
    }
    let reports = crate::run_cells(inputs, run_experiment);
    meta.into_iter()
        .zip(reports)
        .map(|((episode, arm), report)| {
            let recorder = &report
                .metrics
                .as_ref()
                .expect("the adaptation suite arms the windowed recorder")
                .recorder;
            let slo = evaluate(&slo_spec, recorder);
            AdaptiveCell {
                episode,
                arm,
                window: duration,
                report,
                slo,
            }
        })
        .collect()
}

fn move_kind_name(kind: MoveKind) -> &'static str {
    match kind {
        MoveKind::Primary => "primary",
        MoveKind::Replica => "replica",
    }
}

/// Renders one arm cell of `BENCH_adaptive.json` — the migration schedule,
/// cost trajectory, per-group outcomes and SLO verdicts of a single run.
/// Public so the thread-invariance suite can pin the rendered value.
fn adaptive_cell_json(cell: &AdaptiveCell) -> Json {
    let data = cell.report.adaptive.as_ref();
    let migrations = data.into_iter().flat_map(|d| &d.migrations).map(|m| {
        Json::object([
            ("at_ms", Json::fixed(m.decided_at.as_millis_f64(), 2)),
            ("component", m.component.as_str().into()),
            ("kind", move_kind_name(m.kind).into()),
            ("from", m.from.as_str().into()),
            ("to", m.to.as_str().into()),
            ("modeled_gain_ms_per_s", Json::fixed(m.modeled_gain, 2)),
        ])
    });
    let rounds = data.into_iter().flat_map(|d| &d.rounds).map(|r| {
        Json::object([
            ("at_ms", Json::fixed(r.at.as_millis_f64(), 2)),
            ("windows", r.windows.into()),
            ("cost_before", Json::fixed(r.cost_before, 2)),
            ("cost_after", Json::fixed(r.cost_after, 2)),
            ("observed_p50_ms", Json::fixed(r.observed_p50_ms, 2)),
            ("moves", r.moves.into()),
        ])
    });
    let verdicts = cell.slo.verdicts.iter().map(|v| {
        Json::object([
            ("objective", v.objective.as_str().into()),
            ("target", Json::fixed(v.target, 4)),
            ("attained", Json::fixed(v.attained, 4)),
            ("met", v.met.into()),
        ])
    });
    let session_ms = cell.stressed_session_ms().unwrap_or(f64::NAN);
    let stressed = Json::object([
        ("group", STRESSED_GROUP.into()),
        ("session_mean_ms", Json::fixed(session_ms, 2)),
        ("availability", Json::fixed(cell.stressed_availability(), 4)),
    ]);
    let slo = Json::object([
        ("all_met", cell.slo.all_met().into()),
        ("verdicts", Json::Array(verdicts.collect())),
    ]);
    Json::object([
        ("arm", cell.arm.into()),
        ("migration_count", cell.migration_count().into()),
        ("completed", cell.report.completed.into()),
        ("stressed", stressed),
        ("migrations", Json::Array(migrations.collect())),
        ("rounds", Json::Array(rounds.collect())),
        ("groups", groups_json(&cell.report, cell.window)),
        ("slo", slo),
    ])
}

/// Renders `BENCH_adaptive.json`: per app × episode, both controller arms
/// (migration schedule, cost trajectory, per-group outcomes, SLO verdicts)
/// plus the stressed group's on-minus-off delta.
pub fn render_adaptive_json(
    sweeps: &[(AppKind, Vec<AdaptiveCell>)],
    seed: u64,
    mode: &str,
) -> String {
    let apps = sweeps.iter().map(|(app, cells)| {
        let episodes = AdaptiveEpisode::all().into_iter().map(|episode| {
            let arm = |name| {
                cells
                    .iter()
                    .find(|c| c.episode == episode && c.arm == name)
                    .expect("suite covers every episode x arm")
            };
            let (on, off) = (arm("on"), arm("off"));
            let rt_delta = match (on.stressed_session_ms(), off.stressed_session_ms()) {
                (Some(a), Some(b)) => a - b,
                _ => f64::NAN,
            };
            let availability_delta = on.stressed_availability() - off.stressed_availability();
            let delta = Json::object([
                ("stressed_session_mean_ms", Json::fixed(rt_delta, 2)),
                ("stressed_availability", Json::fixed(availability_delta, 4)),
            ]);
            let arms = vec![adaptive_cell_json(on), adaptive_cell_json(off)];
            Json::object([
                ("episode", episode.name().into()),
                ("arms", Json::Array(arms)),
                ("delta", delta),
            ])
        });
        Json::object([
            ("app", app.name().into()),
            ("episodes", Json::Array(episodes.collect())),
        ])
    });
    Json::object([
        ("suite", "adaptive".into()),
        ("mode", mode.into()),
        ("seed", seed.into()),
        ("cadence_s", (suite_cadence().as_secs_f64() as u64).into()),
        ("stressed_group", STRESSED_GROUP.into()),
        ("apps", Json::Array(apps.collect())),
    ])
    .render()
}

/// Renders the controller on/off table for one application: the stressed
/// group's mean session time and availability under each arm, the number
/// of committed migrations, and the on-arm SLO verdict, per episode.
pub fn render_adaptive_table(app: AppKind, cells: &[AdaptiveCell]) -> String {
    let mut out = format!(
        "{} adaptation suite — controller on vs frozen ({STRESSED_GROUP} group):\n  \
         {:<18} {:>10} {:>10}   {:>8} {:>8}   {:>10}  {:>8}\n",
        app.name(),
        "episode",
        "on ms",
        "off ms",
        "on avail",
        "off av",
        "migrations",
        "SLO(on)",
    );
    for episode in AdaptiveEpisode::all() {
        let arm = |name| {
            cells
                .iter()
                .find(|c| c.episode == episode && c.arm == name)
                .expect("suite covers every episode x arm")
        };
        let (on, off) = (arm("on"), arm("off"));
        let ms = |c: &AdaptiveCell| {
            c.stressed_session_ms()
                .map_or("-".to_string(), |v| format!("{v:.0}"))
        };
        out.push_str(&format!(
            "  {:<18} {:>10} {:>10}   {:>8.4} {:>8.4}   {:>10}  {:>8}\n",
            episode.name(),
            ms(on),
            ms(off),
            on.stressed_availability(),
            off.stressed_availability(),
            on.migration_count(),
            if on.slo.all_met() { "met" } else { "MISSED" },
        ));
    }
    out
}

/// Validates a `BENCH_adaptive.json` document by parsing it: the
/// `adaptive` header; per app every [`AdaptiveEpisode`] in order, each with
/// a `delta` and exactly the `on` and `off` arms of [`suite_arms`]; in
/// every arm a migration count that matches its schedule, the cost
/// trajectory, the SLO verdicts and every `availability` in `[0, 1]` — and
/// the suite's physics: the quiescent on-arm and every frozen arm commit
/// **zero** migrations, while the link-degradation on-arm commits at least
/// one. Returns the number of arm cells.
pub fn validate_adaptive_json(json: &str) -> Result<usize, String> {
    let doc = Json::parse(json)?;
    check_header(&doc, "adaptive")?;
    let mut cells = 0;
    for app in doc.get("apps")?.as_array()? {
        let episodes = app.get("episodes")?.as_array()?;
        let names = AdaptiveEpisode::all().map(AdaptiveEpisode::name);
        check_names(episodes, "episode", &names)?;
        for (episode, kind) in episodes.iter().zip(AdaptiveEpisode::all()) {
            episode.get("delta")?;
            let arms = episode.get("arms")?.as_array()?;
            check_names(arms, "arm", &suite_arms().map(|(arm, _)| arm))?;
            let mut counts = Vec::new();
            for arm in arms {
                let count = arm.get("migration_count")?.as_u64()?;
                let scheduled = arm.get("migrations")?.as_array()?.len();
                if count != scheduled as u64 {
                    return Err(format!(
                        "{} arm counts {count} migrations but schedules {scheduled}",
                        kind.name()
                    ));
                }
                arm.get("rounds")?.as_array()?;
                arm.get("slo")?.get("verdicts")?.as_array()?;
                check_fraction(arm.get("stressed")?, "availability")?;
                for group in arm.get("groups")?.as_array()? {
                    check_outcome(group.get("outcome")?)?;
                }
                counts.push(count);
                cells += 1;
            }
            let (on, off) = (counts[0], counts[1]);
            match kind {
                AdaptiveEpisode::Quiescent if on != 0 => {
                    return Err(format!(
                        "the quiescent control committed {on} migrations; the drift floor must \
                         hold at zero"
                    ));
                }
                AdaptiveEpisode::LinkDegradation if on == 0 => {
                    return Err(
                        "the link-degradation on-arm committed no migrations; the controller \
                         must react to the slowed corridor"
                            .to_string(),
                    );
                }
                _ => {}
            }
            if off != 0 {
                return Err(format!(
                    "episode {:?} frozen arm reports {off} migrations",
                    kind.name()
                ));
            }
        }
    }
    if cells == 0 {
        return Err("no arm cells".to_string());
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{at, edited, remove};

    #[test]
    fn suite_renders_validates_and_pins_the_physics() {
        let cells = run_adaptive_suite(AppKind::PetStore, true, true, 42);
        assert_eq!(cells.len(), AdaptiveEpisode::all().len() * 2);
        let degraded_on = cells
            .iter()
            .find(|c| c.episode == AdaptiveEpisode::LinkDegradation && c.arm == "on")
            .unwrap();
        assert!(
            degraded_on.migration_count() > 0,
            "smoke windows must leave the controller room to react"
        );
        let quiescent_on = cells
            .iter()
            .find(|c| c.episode == AdaptiveEpisode::Quiescent && c.arm == "on")
            .unwrap();
        assert_eq!(quiescent_on.migration_count(), 0);
        for cell in cells.iter().filter(|c| c.arm == "off") {
            assert!(cell.report.adaptive.is_none());
        }
        let sweeps = [(AppKind::PetStore, cells)];
        let json = render_adaptive_json(&sweeps, 42, "smoke");
        assert_eq!(validate_adaptive_json(&json), Ok(8));
        let table = render_adaptive_table(AppKind::PetStore, &sweeps[0].1);
        for episode in AdaptiveEpisode::all() {
            assert!(table.contains(episode.name()));
        }
    }

    #[test]
    fn same_seed_suites_render_byte_identically() {
        let render = || {
            let cells = run_adaptive_suite(AppKind::PetStore, true, true, 9);
            render_adaptive_json(&[(AppKind::PetStore, cells)], 9, "smoke")
        };
        let json = render();
        assert_eq!(json, render());
        assert_eq!(Json::parse(&json).unwrap().render(), json);
    }

    /// A minimal well-formed document the rejection tests tamper with: the
    /// quiescent on-arm holds still and every other on-arm migrates once.
    fn minimal_doc() -> String {
        let arm = |arm: &str, migrations: usize| {
            Json::object([
                ("arm", arm.into()),
                ("migration_count", migrations.into()),
                (
                    "stressed",
                    Json::object([("availability", Json::fixed(1.0, 4))]),
                ),
                (
                    "migrations",
                    Json::Array(vec![Json::object([]); migrations]),
                ),
                ("rounds", Json::Array(Vec::new())),
                ("groups", Json::Array(Vec::new())),
                ("slo", Json::object([("verdicts", Json::Array(Vec::new()))])),
            ])
        };
        let episodes = AdaptiveEpisode::all().into_iter().map(|episode| {
            let on = usize::from(episode != AdaptiveEpisode::Quiescent);
            Json::object([
                ("episode", episode.name().into()),
                ("arms", Json::Array(vec![arm("on", on), arm("off", 0)])),
                ("delta", Json::object([])),
            ])
        });
        let app = Json::object([
            ("app", "petstore".into()),
            ("episodes", Json::Array(episodes.collect())),
        ]);
        Json::object([
            ("suite", "adaptive".into()),
            ("mode", "smoke".into()),
            ("seed", 1u64.into()),
            ("apps", Json::Array(vec![app])),
        ])
        .render()
    }

    /// Episode `e`'s arm `a` (0 = on, 1 = off) of the first app.
    fn arm(d: &mut Json, e: usize, a: usize) -> &mut Json {
        at(d, &format!("apps/0/episodes/{e}/arms/{a}"))
    }

    /// Sets an arm's migration count and a schedule to match.
    fn set_migrations(arm: &mut Json, n: usize) {
        *at(arm, "migration_count") = n.into();
        *at(arm, "migrations") = Json::Array(vec![Json::object([]); n]);
    }

    #[test]
    fn validator_rejects_tampering() {
        let json = minimal_doc();
        assert_eq!(validate_adaptive_json(&json), Ok(8));
        let rejects = |edit: fn(&mut Json)| validate_adaptive_json(&edited(&json, edit)).is_err();
        // A dropped episode (the link-degradation one), and a dropped arm.
        assert!(rejects(|d| remove(d, "apps/0/episodes/2")));
        assert!(rejects(|d| remove(d, "apps/0/episodes/1/arms/1")));
        // An unknown episode name.
        assert!(rejects(
            |d| *at(d, "apps/0/episodes/3/episode") = "earthquake".into()
        ));
        // An out-of-range availability.
        assert!(rejects(|d| {
            *at(arm(d, 1, 0), "stressed/availability") = Json::fixed(9.0, 4);
        }));
        // A thrashing quiescent control.
        assert!(rejects(|d| set_migrations(arm(d, 0, 0), 3)));
        // A controller asleep through the degradation.
        assert!(rejects(|d| set_migrations(arm(d, 2, 0), 0)));
        // A migrating frozen arm.
        assert!(rejects(|d| set_migrations(arm(d, 3, 1), 1)));
        // A count that disagrees with the schedule.
        assert!(rejects(
            |d| *at(arm(d, 1, 0), "migration_count") = 2u64.into()
        ));
        // A wrong suite header and a truncated document.
        assert!(rejects(|d| *at(d, "suite") = "faults".into()));
        assert!(validate_adaptive_json(&json[..json.len() - 3]).is_err());
    }

    /// The validator reads fields by name: an arm whose fields come in
    /// reverse order still passes, and its physics are still checked.
    #[test]
    fn validator_reads_fields_in_any_order() {
        let reversed = |d: &mut Json| {
            let Json::Object(members) = arm(d, 2, 0) else {
                panic!("an arm is an object")
            };
            members.reverse();
        };
        let json = edited(&minimal_doc(), reversed);
        assert!(
            json.contains("\"migration_count\":1,\"arm\":\"on\"}"),
            "{json}"
        );
        assert_eq!(validate_adaptive_json(&json), Ok(8));
        let asleep = edited(&json, |d| set_migrations(arm(d, 2, 0), 0));
        assert!(validate_adaptive_json(&asleep).is_err());
    }
}
