//! Workload specification: client groups, rates and soft delays (§3.3).

use mutsvc_desim::fault::FaultSchedule;
use mutsvc_desim::time::{SimDuration, SimTime};
use mutsvc_netsim::NodeId;

/// Tracing policy for one run. Fully disabled by default: the driver then
/// never allocates a tracer buffer and each instrumentation site costs a
/// single branch (verified by the `--simperf` hot-path bench). Time series
/// are the windowed recorder's job (see [`MetricsSettings`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSettings {
    /// Head-sampling period: keep 1-in-N requests (`Some(1)` keeps
    /// everything), plus every request slower than the slowest kept so
    /// far. `None` turns span collection off.
    pub sample_every: Option<u64>,
}

impl TraceSettings {
    /// Tracing off (the default).
    pub fn off() -> Self {
        TraceSettings { sample_every: None }
    }

    /// Trace every request.
    pub fn full() -> Self {
        TraceSettings::sampled(1)
    }

    /// Head-sample 1-in-`n` (plus slowest-so-far).
    pub fn sampled(n: u64) -> Self {
        TraceSettings {
            sample_every: Some(n.max(1)),
        }
    }
}

impl Default for TraceSettings {
    fn default() -> Self {
        TraceSettings::off()
    }
}

/// Windowed metrics policy for one run. Fully disabled by default: the
/// driver then never builds a [`mutsvc_desim::Recorder`], never schedules
/// the roll-cadence event, and each instrumentation site costs a single
/// branch — the same zero-cost-when-off contract as [`TraceSettings`],
/// pinned by the metrics-on/off parity test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSettings {
    /// Window width series roll at (window `k` covers `[k·w, (k+1)·w)`
    /// of sim time); `None` turns the windowed recorder off.
    pub window: Option<SimDuration>,
}

impl MetricsSettings {
    /// Metrics off (the default).
    pub fn off() -> Self {
        MetricsSettings { window: None }
    }

    /// Roll windows every `window` of sim time (a zero window is off).
    pub fn windowed(window: SimDuration) -> Self {
        MetricsSettings {
            window: (!window.is_zero()).then_some(window),
        }
    }

    /// Whether the windowed recorder is armed.
    pub fn active(&self) -> bool {
        self.window.is_some()
    }
}

impl Default for MetricsSettings {
    fn default() -> Self {
        MetricsSettings::off()
    }
}

/// Closed-loop adaptive placement policy for one run (DESIGN.md §6.8).
/// Fully disabled by default: the driver then never builds a controller,
/// never schedules the controller tick, and each instrumentation site costs
/// a single branch — the same zero-cost-when-off contract as
/// [`MetricsSettings`], pinned by the adaptive-off purity test. The
/// controller's other parameters are constants in [`crate::adaptive`].
///
/// The controller only observes *windowed metrics* rows, so an active
/// adaptive policy requires an active [`MetricsSettings`] whose window it
/// adopts as its observation granularity. It runs on the sequential engine
/// only: [`crate::run_experiment_parallel`] rejects an armed controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSettings {
    /// Controller round cadence: how often observed telemetry is folded
    /// into a re-priced placement problem and a move is considered.
    /// `None` turns the controller off.
    pub cadence: Option<SimDuration>,
}

impl AdaptiveSettings {
    /// Controller off (the default).
    pub fn off() -> Self {
        AdaptiveSettings { cadence: None }
    }

    /// Controller on at the given round cadence (a zero cadence is off).
    pub fn every(cadence: SimDuration) -> Self {
        AdaptiveSettings {
            cadence: (!cadence.is_zero()).then_some(cadence),
        }
    }

    /// Whether the controller is armed.
    pub fn active(&self) -> bool {
        self.cadence.is_some()
    }
}

impl Default for AdaptiveSettings {
    fn default() -> Self {
        AdaptiveSettings::off()
    }
}

/// One scheduled load surge: a client group's offered rates scale by
/// `factor` over `[from, to)` (offsets from simulation start). The surge
/// sessions draw from their own RNG stream
/// ([`stream::SURGES`](mutsvc_desim::rng::stream::SURGES)), so an empty
/// surge list leaves a run byte-identical to a pre-surge build.
#[derive(Debug, Clone, PartialEq)]
pub struct Surge {
    /// Name of the client group whose load surges.
    pub group: String,
    /// Surge onset (offset from simulation start).
    pub from: SimDuration,
    /// Surge end: the extra sessions stop issuing at this offset.
    pub to: SimDuration,
    /// Rate multiplier during the window (`4.0` = flash crowd at 4× the
    /// steady rate; the extra sessions model `factor - 1` of offered load).
    pub factor: f64,
}

/// How the client/container stack reacts to injected faults.
///
/// All knobs are deterministic: backoff is computed from the attempt count
/// in simulated time (no wall clock), and failover re-targets requests by
/// descriptor, never by sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Retries after the first failed attempt (`0` fails immediately).
    pub max_retries: u32,
    /// Re-target new requests from a crashed edge entry to the central
    /// server (the façade failover of §4.2's deployment flexibility).
    pub failover: bool,
    /// During a partition, let edge caches answer reads — each such
    /// response records its staleness bound. Off: those completions are
    /// counted as failures (strict consistency over availability).
    pub stale_serve: bool,
}

impl FaultPolicy {
    /// No resilience: no retries, no failover, strict staleness.
    pub fn none() -> Self {
        FaultPolicy {
            max_retries: 0,
            failover: false,
            stale_serve: false,
        }
    }

    /// The resilient stack: capped-exponential retries, edge→main
    /// failover, and stale reads during partitions.
    pub fn resilient() -> Self {
        FaultPolicy {
            max_retries: 3,
            failover: true,
            stale_serve: true,
        }
    }

    /// First backoff delay; attempt `n` waits `BACKOFF_BASE * 2^(n-1)`.
    const BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);
    /// Cap on the exponential backoff.
    const BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);

    /// Backoff before retry attempt `n` (1-based): 500 ms, doubling per
    /// attempt, capped at 8 s.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        Self::BACKOFF_CAP.min(SimDuration::from_micros(
            Self::BACKOFF_BASE.as_micros() << exp,
        ))
    }
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy::none()
    }
}

/// Fault injection for one run: the scripted timeline plus the stack's
/// reaction policy. Default is fully off — an empty schedule adds zero
/// events, zero RNG draws and zero per-request work.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSettings {
    /// The fault timeline (empty = faults off).
    pub schedule: FaultSchedule,
    /// RMI timeout: how long a requester waits on a lost message or a
    /// crashed callee before the attempt counts as failed.
    pub timeout: SimDuration,
    /// Retry/failover/stale-serve policy.
    pub policy: FaultPolicy,
}

fn default_fault_timeout() -> SimDuration {
    SimDuration::from_secs(2)
}

impl FaultSettings {
    /// Faults off (the default).
    pub fn off() -> Self {
        FaultSettings {
            schedule: FaultSchedule::none(),
            timeout: default_fault_timeout(),
            policy: FaultPolicy::none(),
        }
    }

    /// Whether any fault episode is scheduled.
    pub fn active(&self) -> bool {
        !self.schedule.is_empty()
    }
}

impl Default for FaultSettings {
    fn default() -> Self {
        FaultSettings::off()
    }
}

/// One group of clients co-located with an application server.
#[derive(Debug, Clone)]
pub struct ClientGroup {
    /// Group name ("local", "remote1", "remote2").
    pub name: String,
    /// The node the clients run on.
    pub client_node: NodeId,
    /// The application server the group sends its HTTP requests to.
    pub entry_node: NodeId,
    /// Aggregate browser request rate (requests/second).
    pub browser_rate: f64,
    /// Aggregate buyer/bidder request rate (requests/second).
    pub transactional_rate: f64,
}

/// The complete load specification of one experiment.
///
/// Defaults reproduce §3.3: a combined 30 requests/s from 80 % browsers and
/// 20 % buyers/bidders, split evenly across three client groups (10 req/s
/// each), soft inter-request delays, one (simulated) hour of measurement
/// after warm-up.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Client groups.
    pub groups: Vec<ClientGroup>,
    /// Soft delay: the fixed interval between successive request *sends*
    /// within a session ("effectively DELAY becomes the time interval
    /// between sending requests").
    pub soft_delay: SimDuration,
    /// Warm-up period excluded from statistics.
    pub warmup: SimDuration,
    /// Measured duration (after warm-up).
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Whether the driver may reuse memoized bound-page programs for
    /// replayable read binds (see DESIGN.md §6.2). On by default; turning it
    /// off forces every request through the full binder — useful for
    /// equivalence testing and as the baseline in `--simperf` benches.
    pub bind_cache: bool,
    /// Tracing policy (off by default; see [`TraceSettings`]).
    pub trace: TraceSettings,
    /// Fault injection: schedule, RMI timeout and reaction policy (off by
    /// default; see [`FaultSettings`]).
    pub faults: FaultSettings,
    /// Windowed metrics policy (off by default; see [`MetricsSettings`]).
    pub metrics: MetricsSettings,
    /// Closed-loop adaptive placement (off by default; see
    /// [`AdaptiveSettings`]).
    pub adaptive: AdaptiveSettings,
    /// Scheduled load surges (empty by default; see [`Surge`]).
    pub surges: Vec<Surge>,
}

impl WorkloadSpec {
    /// The paper's load: 10 req/s per group, 80/20 browser/transactional.
    pub fn paper_load(groups: Vec<ClientGroup>) -> Self {
        WorkloadSpec {
            groups,
            soft_delay: SimDuration::from_secs(7),
            warmup: SimDuration::from_secs(120),
            duration: SimDuration::from_secs(3_600),
            seed: 42,
            bind_cache: true,
            trace: TraceSettings::off(),
            faults: FaultSettings::off(),
            metrics: MetricsSettings::off(),
            adaptive: AdaptiveSettings::off(),
            surges: Vec::new(),
        }
    }

    /// Sets the tracing policy.
    pub fn with_trace(mut self, trace: TraceSettings) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the windowed metrics policy.
    pub fn with_metrics(mut self, metrics: MetricsSettings) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the fault-injection schedule and policy.
    pub fn with_faults(mut self, faults: FaultSettings) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the adaptive-placement policy.
    pub fn with_adaptive(mut self, adaptive: AdaptiveSettings) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Schedules a load surge.
    pub fn with_surge(mut self, surge: Surge) -> Self {
        self.surges.push(surge);
        self
    }

    /// Enables or disables the bound-program cache.
    pub fn with_bind_cache(mut self, enabled: bool) -> Self {
        self.bind_cache = enabled;
        self
    }

    /// Scales every group's request rates by `factor` (for high-load
    /// stress benches; session counts scale with the rates).
    pub fn scale_rates(mut self, factor: f64) -> Self {
        for g in &mut self.groups {
            g.browser_rate *= factor;
            g.transactional_rate *= factor;
        }
        self
    }

    /// Scales warm-up and measured duration (for quick tests and benches).
    pub fn with_duration(mut self, warmup: SimDuration, duration: SimDuration) -> Self {
        self.warmup = warmup;
        self.duration = duration;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// End of the simulation (warm-up plus measurement).
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.duration
    }

    /// Number of concurrent sessions needed for `rate` with this soft delay.
    pub fn sessions_for_rate(&self, rate: f64) -> usize {
        (rate * self.soft_delay.as_secs_f64()).round().max(0.0) as usize
    }

    /// Aggregate offered load in requests/second.
    pub fn total_rate(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.browser_rate + g.transactional_rate)
            .sum()
    }
}

/// Builds the paper's three standard groups (10 req/s each, 80 % browser)
/// given the node placements.
pub fn paper_groups(
    local: (NodeId, NodeId),
    remote1: (NodeId, NodeId),
    remote2: (NodeId, NodeId),
) -> Vec<ClientGroup> {
    let mk = |name: &str, (client, entry): (NodeId, NodeId)| ClientGroup {
        name: name.to_string(),
        client_node: client,
        entry_node: entry,
        browser_rate: 8.0,
        transactional_rate: 2.0,
    };
    vec![
        mk("local", local),
        mk("remote1", remote1),
        mk("remote2", remote2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutsvc_netsim::TopologyBuilder;

    #[test]
    fn paper_load_matches_section_3_3() {
        let mut tb = TopologyBuilder::new();
        let a = tb.node("a", 1);
        let b = tb.node("b", 1);
        tb.duplex_link(a, b, SimDuration::from_millis(1), 1e9);
        let groups = paper_groups((a, a), (b, b), (b, b));
        let spec = WorkloadSpec::paper_load(groups);
        assert_eq!(spec.total_rate(), 30.0);
        assert_eq!(spec.sessions_for_rate(8.0), 56);
        assert_eq!(spec.sessions_for_rate(2.0), 14);
        assert_eq!(spec.horizon().as_secs_f64(), 3_720.0);
        let browser_share: f64 =
            spec.groups.iter().map(|g| g.browser_rate).sum::<f64>() / spec.total_rate();
        assert!((browser_share - 0.8).abs() < 1e-9);
    }
}
