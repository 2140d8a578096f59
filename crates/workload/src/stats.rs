//! Measurement collection: per-page and per-session-pattern response times,
//! keyed the way the paper's Tables 6/7 and Figures 7/8 report them.

use std::collections::BTreeMap;

use mutsvc_desim::metrics::Summary;
use mutsvc_desim::recorder::LogHistogram;
use mutsvc_desim::time::SimDuration;

/// Identifies one measured series: client group × usage pattern × page.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Client group name ("local", "remote1", "remote2").
    pub group: String,
    /// Usage pattern ("Browser", "Buyer", "Bidder").
    pub pattern: String,
    /// Page label ("Item", "Commit", …).
    pub page: String,
}

/// Per-client-group request outcomes under fault injection: the inputs for
/// availability, goodput and error-rate reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupOutcome {
    /// Measured requests that completed successfully.
    pub ok: u64,
    /// Measured requests that failed (timeouts exhausted, or stale reads
    /// rejected by a strict policy).
    pub failed: u64,
    /// Retry attempts spent on measured requests.
    pub retries: u64,
    /// Requests re-targeted from a crashed entry to the central server.
    pub failovers: u64,
    /// Successful reads answered from a partitioned edge cache (a subset
    /// of `ok`; each recorded its staleness bound).
    pub stale_served: u64,
}

impl GroupOutcome {
    /// Fraction of measured requests that succeeded (1.0 when idle).
    pub fn availability(&self) -> f64 {
        let total = self.ok + self.failed;
        if total == 0 {
            1.0
        } else {
            self.ok as f64 / total as f64
        }
    }

    /// Fraction of measured requests that failed.
    pub fn error_rate(&self) -> f64 {
        1.0 - self.availability()
    }

    /// Successful requests per second over `window` — the goodput the
    /// group actually received (offered load minus failures).
    pub fn goodput(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            self.ok as f64 / window.as_secs_f64()
        }
    }

    /// Folds another group's outcome in (for whole-run aggregates).
    pub fn merge(&mut self, other: &GroupOutcome) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.stale_served += other.stale_served;
    }
}

/// Collected response-time statistics for one experiment run.
///
/// Internally series are *interned*: the string-keyed maps hold dense
/// indices into `Vec<Summary>` storage, so the driver's hot path records
/// measurements through [`WorkloadStats::record_ids`] without allocating
/// (the string-keyed [`WorkloadStats::record`] remains as a convenience).
/// Request outcomes (availability/error accounting under faults) are
/// interned the same way through [`WorkloadStats::intern_group`].
#[derive(Debug, Clone, Default)]
pub struct WorkloadStats {
    series_index: BTreeMap<SeriesKey, u32>,
    series_data: Vec<Summary>,
    /// Aggregate per (group, pattern) — the Figures 7/8 session averages.
    session_index: BTreeMap<(String, String), u32>,
    session_data: Vec<Summary>,
    requests: u64,
    outcome_index: BTreeMap<String, u32>,
    outcome_data: Vec<GroupOutcome>,
    /// Staleness bounds (ms) of stale-served responses, across all groups.
    staleness: LogHistogram,
}

impl WorkloadStats {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns one (group, pattern, page) series and its (group, pattern)
    /// session aggregate, returning `(series_id, session_id)` for use with
    /// [`Self::record_ids`]. Idempotent; intended for setup time.
    pub fn intern(&mut self, group: &str, pattern: &str, page: &str) -> (u32, u32) {
        let series_id = match self.series_index.entry(SeriesKey {
            group: group.to_string(),
            pattern: pattern.to_string(),
            page: page.to_string(),
        }) {
            std::collections::btree_map::Entry::Occupied(e) => *e.get(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let id = self.series_data.len() as u32;
                self.series_data.push(Summary::default());
                *e.insert(id)
            }
        };
        let session_id = match self
            .session_index
            .entry((group.to_string(), pattern.to_string()))
        {
            std::collections::btree_map::Entry::Occupied(e) => *e.get(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let id = self.session_data.len() as u32;
                self.session_data.push(Summary::default());
                *e.insert(id)
            }
        };
        (series_id, session_id)
    }

    /// Records one completed page request against pre-interned ids
    /// (allocation-free; the driver's steady-state path).
    ///
    /// # Panics
    ///
    /// Panics if either id did not come from [`Self::intern`].
    pub fn record_ids(&mut self, series_id: u32, session_id: u32, response: SimDuration) {
        self.requests += 1;
        self.series_data[series_id as usize].record_duration(response);
        self.session_data[session_id as usize].record_duration(response);
    }

    /// Records one completed page request.
    pub fn record(&mut self, group: &str, pattern: &str, page: &str, response: SimDuration) {
        let (series_id, session_id) = self.intern(group, pattern, page);
        self.record_ids(series_id, session_id, response);
    }

    /// Total requests recorded.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    // ---- request outcomes (availability under faults) -----------------------

    /// Interns one client group's outcome slot, returning its id for the
    /// `*_id` recording methods. Idempotent; intended for setup time.
    pub fn intern_group(&mut self, group: &str) -> u32 {
        match self.outcome_index.entry(group.to_string()) {
            std::collections::btree_map::Entry::Occupied(e) => *e.get(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let id = self.outcome_data.len() as u32;
                self.outcome_data.push(GroupOutcome::default());
                *e.insert(id)
            }
        }
    }

    /// Records one measured request outcome (allocation-free).
    pub fn record_outcome_id(&mut self, group_id: u32, ok: bool) {
        let o = &mut self.outcome_data[group_id as usize];
        if ok {
            o.ok += 1;
        } else {
            o.failed += 1;
        }
    }

    /// Records one retry attempt of a measured request.
    pub fn record_retry_id(&mut self, group_id: u32) {
        self.outcome_data[group_id as usize].retries += 1;
    }

    /// Records one entry failover of a measured request.
    pub fn record_failover_id(&mut self, group_id: u32) {
        self.outcome_data[group_id as usize].failovers += 1;
    }

    /// Records a stale-served read and its staleness bound. Counts toward
    /// neither `ok` nor `failed` by itself — the caller also records the
    /// outcome.
    pub fn record_stale_serve_id(&mut self, group_id: u32, staleness_ms: f64) {
        self.outcome_data[group_id as usize].stale_served += 1;
        self.staleness.record(staleness_ms);
    }

    /// One group's request outcomes, if interned.
    pub fn outcome(&self, group: &str) -> Option<&GroupOutcome> {
        self.outcome_index
            .get(group)
            .map(|&i| &self.outcome_data[i as usize])
    }

    /// Iterates every group's outcomes, sorted by group name.
    pub fn outcomes(&self) -> impl Iterator<Item = (&str, &GroupOutcome)> {
        self.outcome_index
            .iter()
            .map(|(k, &i)| (k.as_str(), &self.outcome_data[i as usize]))
    }

    /// Whole-run outcome aggregate.
    pub fn total_outcome(&self) -> GroupOutcome {
        let mut total = GroupOutcome::default();
        for o in &self.outcome_data {
            total.merge(o);
        }
        total
    }

    /// The staleness CDF of stale-served responses (ms).
    pub fn staleness_histogram(&self) -> &LogHistogram {
        &self.staleness
    }

    /// The summary of one series, if measured.
    pub fn series(&self, group: &str, pattern: &str, page: &str) -> Option<&Summary> {
        self.series_index
            .get(&SeriesKey {
                group: group.to_string(),
                pattern: pattern.to_string(),
                page: page.to_string(),
            })
            .map(|&i| &self.series_data[i as usize])
    }

    /// Mean response time of one series in milliseconds (`None` if unmeasured).
    pub fn mean_ms(&self, group: &str, pattern: &str, page: &str) -> Option<f64> {
        self.series(group, pattern, page).map(Summary::mean)
    }

    /// Mean response time of a page aggregated over several groups (e.g. the
    /// paper's single "remote" column covering both edge client groups).
    pub fn mean_ms_over_groups(&self, groups: &[&str], pattern: &str, page: &str) -> Option<f64> {
        mutsvc_desim::metrics::weighted_mean(
            groups
                .iter()
                .filter_map(|g| self.series(g, pattern, page))
                .map(|s| (s.mean(), s.count())),
        )
    }

    /// The session-average summary of a (group, pattern) — Figures 7/8 bars.
    pub fn session_summary(&self, group: &str, pattern: &str) -> Option<&Summary> {
        self.session_index
            .get(&(group.to_string(), pattern.to_string()))
            .map(|&i| &self.session_data[i as usize])
    }

    /// Session-average response time over several groups.
    pub fn session_mean_over_groups(&self, groups: &[&str], pattern: &str) -> Option<f64> {
        mutsvc_desim::metrics::weighted_mean(
            groups
                .iter()
                .filter_map(|g| self.session_summary(g, pattern))
                .map(|s| (s.mean(), s.count())),
        )
    }

    /// Iterates every series, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &Summary)> {
        self.series_index
            .iter()
            .map(|(k, &i)| (k, &self.series_data[i as usize]))
    }

    /// Folds another run's measurements in, matching series, session
    /// aggregates and group outcomes *by key* (so the two collections may
    /// have interned in any order) and summing the staleness histogram.
    ///
    /// This is the reduce step of a region-sharded parallel run (DESIGN.md
    /// §6.5): each shard measures its own client groups, and the merged
    /// collection is identical whichever shard order produced it — merging
    /// is applied in ascending shard index, which is fixed by the topology,
    /// so thread count never changes the result.
    pub fn merge(&mut self, other: &WorkloadStats) {
        use std::collections::btree_map::Entry;
        self.requests += other.requests;
        for (key, &oi) in &other.series_index {
            let id = match self.series_index.entry(key.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = self.series_data.len() as u32;
                    self.series_data.push(Summary::default());
                    *e.insert(id)
                }
            };
            self.series_data[id as usize].merge(&other.series_data[oi as usize]);
        }
        for (key, &oi) in &other.session_index {
            let id = match self.session_index.entry(key.clone()) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = self.session_data.len() as u32;
                    self.session_data.push(Summary::default());
                    *e.insert(id)
                }
            };
            self.session_data[id as usize].merge(&other.session_data[oi as usize]);
        }
        for (group, &oi) in &other.outcome_index {
            let id = self.intern_group(group);
            self.outcome_data[id as usize].merge(&other.outcome_data[oi as usize]);
        }
        self.staleness.merge(&other.staleness);
    }

    /// All page labels recorded for a pattern, in sorted order.
    pub fn pages_of(&self, pattern: &str) -> Vec<String> {
        let mut pages: Vec<String> = self
            .series_index
            .keys()
            .filter(|k| k.pattern == pattern)
            .map(|k| k.page.clone())
            .collect();
        pages.sort();
        pages.dedup();
        pages
    }
}

/// Equality compares the *logical* content — every (key, summary) pair and
/// the request count — independent of interning order, so cache-on and
/// cache-off runs with permuted intern sequences still compare equal when
/// they measured the same thing.
impl PartialEq for WorkloadStats {
    fn eq(&self, other: &Self) -> bool {
        self.requests == other.requests
            && self.series_index.len() == other.series_index.len()
            && self.session_index.len() == other.session_index.len()
            && self.iter().eq(other.iter())
            && self
                .session_index
                .iter()
                .map(|(k, &i)| (k, &self.session_data[i as usize]))
                .eq(other
                    .session_index
                    .iter()
                    .map(|(k, &i)| (k, &other.session_data[i as usize])))
            && self.outcomes().eq(other.outcomes())
            && self.staleness == other.staleness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn records_and_aggregates() {
        let mut s = WorkloadStats::new();
        s.record("local", "Browser", "Item", ms(50));
        s.record("local", "Browser", "Item", ms(70));
        s.record("local", "Browser", "Main", ms(80));
        s.record("remote1", "Browser", "Item", ms(400));
        assert_eq!(s.requests(), 4);
        assert_eq!(s.mean_ms("local", "Browser", "Item"), Some(60.0));
        assert_eq!(s.mean_ms("remote1", "Browser", "Item"), Some(400.0));
        assert_eq!(s.mean_ms("remote2", "Browser", "Item"), None);
        // Session average over all local browser pages: (50+70+80)/3.
        let sess = s.session_summary("local", "Browser").unwrap();
        assert!((sess.mean() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn group_aggregation_weights_by_count() {
        let mut s = WorkloadStats::new();
        s.record("remote1", "Browser", "Item", ms(100));
        s.record("remote1", "Browser", "Item", ms(100));
        s.record("remote2", "Browser", "Item", ms(400));
        let m = s
            .mean_ms_over_groups(&["remote1", "remote2"], "Browser", "Item")
            .unwrap();
        assert!((m - 200.0).abs() < 1e-9);
        assert_eq!(s.mean_ms_over_groups(&["nope"], "Browser", "Item"), None);
        let sess = s
            .session_mean_over_groups(&["remote1", "remote2"], "Browser")
            .unwrap();
        assert!((sess - 200.0).abs() < 1e-9);
    }

    #[test]
    fn outcomes_track_availability_and_staleness() {
        let mut s = WorkloadStats::new();
        let local = s.intern_group("local");
        let remote = s.intern_group("remote1");
        assert_eq!(s.intern_group("local"), local, "idempotent");
        for _ in 0..9 {
            s.record_outcome_id(remote, true);
        }
        s.record_outcome_id(remote, false);
        s.record_retry_id(remote);
        s.record_failover_id(remote);
        s.record_stale_serve_id(remote, 30_000.0);
        s.record_outcome_id(local, true);

        let r = s.outcome("remote1").unwrap();
        assert_eq!(r.ok, 9);
        assert_eq!(r.failed, 1);
        assert!((r.availability() - 0.9).abs() < 1e-12);
        assert!((r.error_rate() - 0.1).abs() < 1e-12);
        assert!((r.goodput(SimDuration::from_secs(3)) - 3.0).abs() < 1e-12);
        assert_eq!(s.outcome("local").unwrap().availability(), 1.0);
        assert_eq!(s.outcome("nope"), None);

        let total = s.total_outcome();
        assert_eq!(total.ok, 10);
        assert_eq!(total.failed, 1);
        assert_eq!(total.stale_served, 1);
        assert_eq!(s.staleness_histogram().total(), 1);
        assert!(s.staleness_histogram().quantile(0.99) >= 30_000.0);
        // An idle group reports full availability, not a 0/0 panic.
        assert_eq!(GroupOutcome::default().availability(), 1.0);
    }

    #[test]
    fn merge_matches_by_key_not_intern_order() {
        // Left interns (A then B); right interns (B then A) plus a series
        // the left never saw. Merging must line everything up by key.
        let mut a = WorkloadStats::new();
        let ga = a.intern_group("local");
        a.record("local", "Browser", "Item", ms(100));
        a.record("remote1", "Browser", "Item", ms(400));
        a.record_outcome_id(ga, true);

        let mut b = WorkloadStats::new();
        let gb = b.intern_group("remote1");
        b.record("remote1", "Browser", "Item", ms(600));
        b.record("local", "Browser", "Item", ms(200));
        b.record("local", "Buyer", "Commit", ms(50));
        b.record_outcome_id(gb, false);
        b.record_stale_serve_id(gb, 10_000.0);

        a.merge(&b);
        assert_eq!(a.requests(), 5);
        assert_eq!(a.mean_ms("local", "Browser", "Item"), Some(150.0));
        assert_eq!(a.mean_ms("remote1", "Browser", "Item"), Some(500.0));
        assert_eq!(a.mean_ms("local", "Buyer", "Commit"), Some(50.0));
        let sess = a.session_summary("local", "Browser").unwrap();
        assert_eq!(sess.count(), 2);
        assert_eq!(a.outcome("local").unwrap().ok, 1);
        let r = a.outcome("remote1").unwrap();
        assert_eq!((r.failed, r.stale_served), (1, 1));
        assert_eq!(a.staleness_histogram().total(), 1);

        // Merging an empty collection is a no-op.
        let before = a.clone();
        a.merge(&WorkloadStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn pages_of_pattern() {
        let mut s = WorkloadStats::new();
        s.record("local", "Buyer", "Commit", ms(1));
        s.record("local", "Buyer", "Cart", ms(1));
        s.record("local", "Browser", "Item", ms(1));
        assert_eq!(
            s.pages_of("Buyer"),
            vec!["Cart".to_string(), "Commit".to_string()]
        );
    }
}
