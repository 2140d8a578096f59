//! Service-level objectives evaluated over the windowed metrics series.
//!
//! An [`SloSpec`] states what the deployment must deliver — per-page
//! latency objectives ("95 % of BrowseCategories under 300 ms") and an
//! availability target — and the burn-rate engine grades a finished run's
//! [`mutsvc_desim::Recorder`] windows against it. Burn rate is the SRE
//! convention: the fraction of the error budget consumed per window,
//! `bad_fraction / (1 - target)`, so `1.0` means "exactly on budget" and a
//! WAN partition that fails half the requests against a 99.9 % target burns
//! at 500×. The engine emits window-stamped breach/recovery events (the
//! feedback signal ROADMAP item 6's placement controller consumes) and a
//! final verdict table per objective.
//!
//! Latency objectives count a request as bad only when its histogram bucket
//! certifies it at or above the threshold ([`LogHistogram::count_over`] is
//! conservative at bucket granularity), so verdicts never over-report from
//! bucketing.
//!
//! [`LogHistogram::count_over`]: mutsvc_desim::LogHistogram::count_over

use mutsvc_desim::Recorder;

/// Name of the per-window successful-completions counter the driver
/// registers when metrics are armed.
pub const OK_COUNTER: &str = "requests.ok";
/// Name of the per-window failed-completions counter.
pub const FAILED_COUNTER: &str = "requests.failed";

/// The recorder series carrying one page's response-time histogram.
pub fn page_series(page: &str) -> String {
    format!("page.{page}.response_ms")
}

/// One per-page latency objective: at least `target` of the page's
/// measured requests complete under `latency_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// Page label as the application descriptor names it.
    pub page: String,
    /// Response-time threshold in milliseconds.
    pub latency_ms: f64,
    /// Required fraction of requests under the threshold, in `(0, 1)`.
    pub target: f64,
}

/// A deployment's service-level objectives: per-page latency targets plus
/// an optional availability floor, graded by the burn-rate engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloSpec {
    /// Per-page latency objectives.
    pub objectives: Vec<SloObjective>,
    /// Required fraction of completions that succeed (e.g. `0.999`), or
    /// `None` to skip availability grading.
    pub availability: Option<f64>,
    /// Burn rate at or above which a window counts as breaching (0 is
    /// normalized to the conventional `1.0` — consuming budget exactly at
    /// the sustainable rate).
    pub burn_threshold: f64,
}

impl SloSpec {
    /// An empty spec (no objectives, burn threshold 1).
    pub fn new() -> Self {
        SloSpec {
            objectives: Vec::new(),
            availability: None,
            burn_threshold: 1.0,
        }
    }

    /// Adds a per-page latency objective.
    pub fn page(mut self, page: &str, latency_ms: f64, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "latency target must lie in (0, 1), got {target}"
        );
        self.objectives.push(SloObjective {
            page: page.to_string(),
            latency_ms,
            target,
        });
        self
    }

    /// Sets the availability floor.
    pub fn with_availability(mut self, target: f64) -> Self {
        assert!(
            target > 0.0 && target < 1.0,
            "availability target must lie in (0, 1), got {target}"
        );
        self.availability = Some(target);
        self
    }

    /// Whether the spec grades anything.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty() && self.availability.is_none()
    }

    /// The effective breach threshold (`burn_threshold`, 0 normalized to 1).
    pub fn effective_burn_threshold(&self) -> f64 {
        if self.burn_threshold > 0.0 {
            self.burn_threshold
        } else {
            1.0
        }
    }
}

/// What happened to one objective in one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloEventKind {
    /// The objective's burn rate crossed up through the threshold.
    Breach,
    /// The burn rate dropped back below the threshold.
    Recovery,
}

/// A window-stamped breach or recovery of one objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloEvent {
    /// Window index the transition was observed in.
    pub window: u64,
    /// Objective name (`page.<page>` or `availability`).
    pub objective: String,
    /// Transition direction.
    pub kind: SloEventKind,
    /// The window's burn rate at the transition.
    pub burn: f64,
}

/// The final grade of one objective over every complete window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Objective name (`page.<page>` or `availability`).
    pub objective: String,
    /// Latency threshold for page objectives, `None` for availability.
    pub threshold_ms: Option<f64>,
    /// Required good fraction.
    pub target: f64,
    /// Attained good fraction over all windows (1 when nothing was
    /// measured — a vacuous pass).
    pub attained: f64,
    /// Whether `attained >= target`.
    pub met: bool,
    /// Worst single-window burn rate.
    pub max_burn: f64,
    /// Number of windows spent at or above the breach threshold.
    pub breached_windows: u64,
    /// Samples graded (requests for page objectives, completions for
    /// availability).
    pub samples: u64,
}

/// The burn-rate engine's output: one verdict per objective plus the
/// window-stamped breach/recovery timeline, in objective order then window
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Final grades, one per objective, in spec order (availability last).
    pub verdicts: Vec<SloVerdict>,
    /// Breach/recovery transitions, grouped by objective in spec order.
    pub events: Vec<SloEvent>,
    /// The breach threshold the timeline was cut at.
    pub burn_threshold: f64,
}

impl SloReport {
    /// Whether every objective was met.
    pub fn all_met(&self) -> bool {
        self.verdicts.iter().all(|v| v.met)
    }
}

#[derive(Default)]
struct ObjectiveRun {
    good: u64,
    samples: u64,
    max_burn: f64,
    breached_windows: u64,
    transitions: Vec<(u64, bool, f64)>,
    breach_at: f64,
}

impl ObjectiveRun {
    fn into_parts(self, objective: String, threshold_ms: Option<f64>, target: f64) -> Graded {
        let attained = if self.samples == 0 {
            1.0
        } else {
            self.good as f64 / self.samples as f64
        };
        let events = self
            .transitions
            .into_iter()
            .map(|(window, over, burn)| SloEvent {
                window,
                objective: objective.clone(),
                kind: if over {
                    SloEventKind::Breach
                } else {
                    SloEventKind::Recovery
                },
                burn,
            })
            .collect();
        Graded {
            verdict: SloVerdict {
                objective,
                threshold_ms,
                target,
                attained,
                met: attained >= target,
                max_burn: self.max_burn,
                breached_windows: self.breached_windows,
                samples: self.samples,
            },
            events,
        }
    }
}

struct Graded {
    verdict: SloVerdict,
    events: Vec<SloEvent>,
}

/// Grades every complete window of `recorder` against `spec`.
///
/// Unknown pages (no registered series) grade as vacuous passes with zero
/// samples — the static W113 lint is the place that catches misspelled or
/// unreachable objectives, not a runtime panic in the grader.
pub fn evaluate(spec: &SloSpec, recorder: &Recorder) -> SloReport {
    let breach_at = spec.effective_burn_threshold();
    let mut verdicts = Vec::new();
    let mut events = Vec::new();
    for obj in &spec.objectives {
        let name = format!("page.{}", obj.page);
        let budget = 1.0 - obj.target;
        let hist = recorder.hist_index(&page_series(&obj.page));
        let mut run = ObjectiveRun {
            breach_at,
            ..Default::default()
        };
        grade_windows(
            &mut run,
            recorder.rows().iter().map(|row| match hist {
                Some(idx) => {
                    let h = &row.hists[idx];
                    let bad = h.count_over(obj.latency_ms);
                    (h.total() - bad, bad)
                }
                None => (0, 0),
            }),
            budget,
        );
        let graded = run.into_parts(name, Some(obj.latency_ms), obj.target);
        verdicts.push(graded.verdict);
        events.extend(graded.events);
    }
    if let Some(target) = spec.availability {
        let budget = 1.0 - target;
        let ok = recorder.counter_index(OK_COUNTER);
        let failed = recorder.counter_index(FAILED_COUNTER);
        let mut run = ObjectiveRun {
            breach_at,
            ..Default::default()
        };
        grade_windows(
            &mut run,
            recorder.rows().iter().map(|row| {
                let g = ok.map_or(0, |i| row.counters[i]);
                let b = failed.map_or(0, |i| row.counters[i]);
                (g, b)
            }),
            budget,
        );
        let graded = run.into_parts("availability".to_string(), None, target);
        verdicts.push(graded.verdict);
        events.extend(graded.events);
    }
    SloReport {
        verdicts,
        events,
        burn_threshold: breach_at,
    }
}

/// Folds per-window `(good, bad)` counts into `run`: budget burn, breach
/// transitions, attainment tallies.
fn grade_windows(run: &mut ObjectiveRun, good_bad: impl Iterator<Item = (u64, u64)>, budget: f64) {
    let mut breached = false;
    for (window, (good, bad)) in good_bad.enumerate() {
        let total = good + bad;
        run.good += good;
        run.samples += total;
        let burn = if total == 0 {
            0.0
        } else {
            (bad as f64 / total as f64) / budget
        };
        run.max_burn = run.max_burn.max(burn);
        let over = total > 0 && burn >= run.breach_at;
        if over {
            run.breached_windows += 1;
        }
        if over != breached {
            run.transitions.push((window as u64, over, burn));
            breached = over;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_desim::time::SimDuration;
    use mutsvc_desim::Recorder;

    /// A recorder with one page histogram and the availability counters,
    /// rolled through scripted windows.
    fn scripted() -> Recorder {
        let mut r = Recorder::new(SimDuration::from_secs(30));
        let ok = r.counter(OK_COUNTER);
        let failed = r.counter(FAILED_COUNTER);
        let h = r.histogram(&page_series("Home"));
        // Window 0: healthy — 100 fast requests, all ok.
        for _ in 0..100 {
            r.observe(h, 50.0);
            r.add(ok, 1);
        }
        r.roll();
        // Window 1: degraded — half the requests slow, a quarter failed.
        for _ in 0..50 {
            r.observe(h, 50.0);
            r.add(ok, 1);
        }
        for _ in 0..50 {
            r.observe(h, 900.0);
        }
        r.add(ok, 25);
        r.add(failed, 25);
        r.roll();
        // Window 2: recovered.
        for _ in 0..100 {
            r.observe(h, 60.0);
            r.add(ok, 1);
        }
        r.roll();
        r
    }

    #[test]
    fn burn_rate_breaches_and_recovers() {
        let spec = SloSpec::new()
            .page("Home", 300.0, 0.95)
            .with_availability(0.99);
        let report = evaluate(&spec, &scripted());
        assert_eq!(report.verdicts.len(), 2);

        let page = &report.verdicts[0];
        assert_eq!(page.objective, "page.Home");
        assert_eq!(page.threshold_ms, Some(300.0));
        assert_eq!(page.samples, 300);
        // 50 of 300 requests certified over 300 ms.
        assert!((page.attained - 250.0 / 300.0).abs() < 1e-12);
        assert!(!page.met);
        // Window 1 burns at (0.5 bad) / (0.05 budget) = 10×.
        assert!((page.max_burn - 10.0).abs() < 1e-9);
        assert_eq!(page.breached_windows, 1);

        let avail = &report.verdicts[1];
        assert_eq!(avail.objective, "availability");
        assert_eq!(avail.samples, 300);
        assert!((avail.attained - 275.0 / 300.0).abs() < 1e-12);
        assert!(!avail.met);

        // Timeline: each objective breaches entering window 1 and recovers
        // entering window 2.
        let windows: Vec<(u64, SloEventKind)> = report
            .events
            .iter()
            .filter(|e| e.objective == "page.Home")
            .map(|e| (e.window, e.kind))
            .collect();
        assert_eq!(
            windows,
            vec![(1, SloEventKind::Breach), (2, SloEventKind::Recovery)]
        );
        assert!(!report.all_met());
    }

    #[test]
    fn generous_objectives_are_met_without_events() {
        let spec = SloSpec::new()
            .page("Home", 2000.0, 0.5)
            .with_availability(0.5);
        let report = evaluate(&spec, &scripted());
        assert!(report.all_met());
        assert!(report.events.is_empty());
        assert_eq!(report.verdicts[0].breached_windows, 0);
    }

    #[test]
    fn unknown_page_is_a_vacuous_pass() {
        let spec = SloSpec::new().page("NoSuchPage", 100.0, 0.9);
        let report = evaluate(&spec, &scripted());
        assert_eq!(report.verdicts[0].samples, 0);
        assert_eq!(report.verdicts[0].attained, 1.0);
        assert!(report.verdicts[0].met);
        assert!(report.events.is_empty());
    }

    #[test]
    fn empty_windows_do_not_burn() {
        let mut r = Recorder::new(SimDuration::from_secs(30));
        let _ = r.counter(OK_COUNTER);
        let _ = r.counter(FAILED_COUNTER);
        let _ = r.histogram(&page_series("Home"));
        r.roll();
        r.roll();
        let spec = SloSpec::new()
            .page("Home", 100.0, 0.99)
            .with_availability(0.999);
        let report = evaluate(&spec, &r);
        assert!(report.all_met());
        for v in &report.verdicts {
            assert_eq!(v.max_burn, 0.0);
            assert_eq!(v.samples, 0);
        }
    }

    #[test]
    #[should_panic(expected = "latency target must lie in (0, 1)")]
    fn degenerate_targets_are_rejected() {
        let _ = SloSpec::new().page("Home", 100.0, 1.0);
    }
}
