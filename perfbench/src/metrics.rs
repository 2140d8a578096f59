//! Metric names and units, the exact counters and digest every run prints,
//! and the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of every end-to-end metric, printed with `--trace 0`.
///
/// Simulated requests per host second is `ops_per_s` here: every workload
/// prints every end-to-end metric, and on the planning workload the
/// operations are placement and analyzer calls, not simulated requests.
/// `failed_frac` is not a metric because it is 0 on every passing run; the
/// result line's `attempted` and `failed` carry it.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("ops_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed with
/// `--trace 1`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("desim.events", "count", "lower"),
    ("desim.events_per_req", "count", "lower"),
    ("desim.queue_ns_per_event", "ns", "lower"),
    ("desim.shard_stall_frac", "frac", "lower"),
    ("desim.shard_windows", "count", "lower"),
    ("desim.shard_imbalance", "ratio", "lower"),
    ("desim.par_speedup", "ratio", "higher"),
    ("desim.recorder_rows", "count", "lower"),
    ("desim.traces_committed", "count", "lower"),
    ("desim.observe_overhead_frac", "frac", "lower"),
    ("netsim.transfer_ns", "ns", "lower"),
    ("netsim.wan_msgs", "count", "lower"),
    ("middleware.bind_page_us", "us", "lower"),
    ("middleware.rmi_calls", "count", "lower"),
    ("middleware.entity_cache_hit_rate", "frac", "higher"),
    ("middleware.query_cache_hit_rate", "frac", "higher"),
    ("relstore.db_statements", "count", "lower"),
    ("relstore.execute_ns", "ns", "lower"),
    ("workload.binds", "count", "lower"),
    ("workload.plan_hit_rate", "frac", "higher"),
    ("workload.plan_invalidations", "count", "lower"),
    ("core.build_ms", "ms", "lower"),
    ("placement.build_ms", "ms", "lower"),
    ("placement.moves_per_s", "1/s", "higher"),
    ("placement.regional_s", "s", "lower"),
    ("placement.greedy_s", "s", "lower"),
    ("placement.table_bytes", "bytes", "lower"),
    ("placement.regional_cost", "ms/s", "lower"),
    ("analyze.ms_per_cell", "ms", "lower"),
    ("analyze.diagnostics", "count", "lower"),
    ("share.desim", "frac", "lower"),
    ("share.netsim", "frac", "lower"),
    ("share.middleware", "frac", "lower"),
    ("share.relstore", "frac", "lower"),
    ("share.placement", "frac", "lower"),
    ("share.analyze", "frac", "lower"),
    ("share.unexplained", "frac", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Whether `name` obeys the metric-name grammar: starts with a letter or a
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` obeys the unit grammar: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted: simulated requests, or placement and analyzer
    /// calls.
    pub attempted: u64,
    /// Operations that failed; all of them when a check tripped.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact deterministic counters, equal on every host for a given seed.
    pub counters: BTreeMap<String, u64>,
    /// Fingerprint of the simulated or planned answer.
    pub digest: u64,
    /// Why a check tripped, one line each.
    pub problems: Vec<String>,
}

impl RunResult {
    /// A result whose `defs` metrics all start at 0, so a layer the workload
    /// does not exercise reads 0.
    pub fn zeroed(defs: &[(&'static str, &str, &str)]) -> Self {
        let mut result = RunResult::default();
        for (name, _, _) in defs {
            result.set(name, 0.0);
        }
        result
    }

    /// Records a check: a false `ok` marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Seals the result: checks that `defs` are exactly the metrics set and
    /// every value is finite, then settles `correct` and `failed`.
    pub fn finish(&mut self, defs: &[(&'static str, &str, &str)]) {
        for (name, unit, _) in defs {
            if !valid_name(name) || !valid_unit(unit) {
                self.problems
                    .push(format!("metric {name} [{unit}] breaks the grammar"));
            }
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.problems.push(format!("metric {name} is {v}")),
                None => self.problems.push(format!("metric {name} missing")),
            }
        }
        for name in self.metrics.keys() {
            if !defs.iter().any(|(n, _, _)| n == name) {
                self.problems.push(format!("metric {name} is not declared"));
            }
        }
        self.metrics
            .retain(|k, _| defs.iter().any(|(n, _, _)| n == k));
        for v in self.metrics.values_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        if self.attempted == 0 {
            self.problems.push("no operation attempted".to_string());
            self.attempted = 1;
        }
        self.correct = self.problems.is_empty();
        if !self.correct {
            self.failed = self.attempted;
        }
    }

    /// The exact counters and digest as one line, for comparing two commits.
    pub fn counters_line(&self) -> String {
        let mut out = format!("digest {:016x} counters", self.digest);
        for (name, value) in &self.counters {
            let _ = write!(out, " {name}={value}");
        }
        out
    }

    /// The result line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self, defs: &[(&'static str, &str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        let mut first = true;
        for (name, unit, _) in defs {
            if let Some(value) = self.metrics.get(name) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a over a byte stream: a stable 64-bit fingerprint for digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Seconds the calibration kernel takes on the quiet two-core host the
/// first numbers come from; see [`Clock`].
const CALIBRATION_REFERENCE_S: f64 = 0.002;

/// Host seconds of a fixed kernel that belongs to the benchmark, not to
/// the program: 2^16 small heap vectors allocated, filled and dropped
/// through a 4 096-slot working set. Median of five.
fn calibration_s() -> f64 {
    let mut times = [0.0; 5];
    for t in &mut times {
        let started = std::time::Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(4_097);
        for i in 0..1u64 << 16 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut v = Vec::with_capacity((x % 16) as usize + 1);
            v.extend([x, i]);
            live.push(v);
            if live.len() > 4_096 {
                live.swap_remove((x % live.len() as u64) as usize);
            }
        }
        std::hint::black_box(&live);
        *t = started.elapsed().as_secs_f64();
    }
    median(&times)
}

/// Times calls in calibrated host seconds.
///
/// The host is shared with other machines' work, which slows everything on
/// it for seconds to minutes at a time, by up to 2×. A fixed kernel run
/// just before and just after a call slows with it: allocation churn like
/// the simulator's and the planner's tracks that drift more closely than
/// sorting, hashing or pointer chasing do. Each call's seconds are scaled
/// by the reference kernel time over the mean of its two calibrations, so
/// they read as seconds on the quiet host, and no change to the program
/// can move the scale.
#[derive(Debug)]
pub struct Clock {
    calibration: f64,
    factor: f64,
}

impl Clock {
    /// A clock with its first calibration taken.
    pub fn new() -> Self {
        Clock {
            calibration: calibration_s(),
            factor: 1.0,
        }
    }

    /// Runs `f`; returns its output and its calibrated seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let started = std::time::Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let next = calibration_s();
        self.factor = 2.0 * CALIBRATION_REFERENCE_S / (self.calibration + next);
        self.calibration = next;
        (out, secs * self.factor)
    }

    /// The scale the last [`Clock::time`] applied, for host times a call
    /// measured inside itself.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_follow_the_grammar() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit, better) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(matches!(*better, "higher" | "lower"), "{name}: {better}");
        }
        for (i, (a, _, _)) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|(b, _, _)| a != b),
                "{a} declared twice"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    #[test]
    fn grammar_rejects_bad_names_and_units() {
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("desim.queue_ns_per_event"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
        assert!(valid_unit("1/s"));
    }

    /// The declared tables match `BENCHMARK.json`, entry by entry.
    #[test]
    fn tables_match_the_benchmark_description() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    fn passing() -> RunResult {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        for (name, _, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r
    }

    #[test]
    fn a_clean_result_passes_and_prints_every_metric() {
        let mut r = passing();
        r.finish(END_TO_END);
        assert!(r.correct, "{:?}", r.problems);
        assert_eq!(r.failed, 0);
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn a_tripped_check_fails_every_operation() {
        let mut r = passing();
        r.check(false, || "conservation broken".to_string());
        r.finish(END_TO_END);
        assert!(!r.correct);
        assert_eq!(r.failed, r.attempted);
    }

    #[test]
    fn missing_extra_or_non_finite_metrics_are_rejected() {
        let mut missing = passing();
        missing.metrics.remove("wall_s");
        missing.finish(END_TO_END);
        assert!(!missing.correct);

        let mut extra = passing();
        extra.set("bogus", 1.0);
        extra.finish(END_TO_END);
        assert!(!extra.correct);
        assert!(!extra.json(END_TO_END).contains("bogus"));

        let mut nan = passing();
        nan.set("wall_s", f64::NAN);
        nan.finish(END_TO_END);
        assert!(!nan.correct);
        assert!(!nan.json(END_TO_END).contains("NaN"));
    }

    #[test]
    fn the_clock_scales_by_its_calibrations() {
        let mut clock = Clock::new();
        let (v, secs) = clock.time(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0 && clock.factor() > 0.0 && clock.factor().is_finite());
    }

    #[test]
    fn median_and_fingerprint_are_stable() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let fp = |xs: &[u64]| {
            let mut h = Fnv::default();
            xs.iter().for_each(|&x| h.u64(x));
            h.finish()
        };
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 2, 4]));
    }
}
