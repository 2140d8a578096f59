//! The end-to-end experiment driver.
//!
//! Owns the simulation world — network, database, container state, client
//! sessions — and reproduces the paper's measurement procedure (§3.3): a
//! warm-up period, then a measured window during which each client session
//! issues requests with *soft delays* (a fixed interval between request
//! sends, independent of response times, giving a steady open-loop load).
//!
//! # Request hot path (DESIGN.md §6.2)
//!
//! Steady-state requests avoid per-request allocation three ways:
//!
//! * **Typed events.** Every event — job advancement, request issue,
//!   request completion, fault injection and the stats reset — is an `Ev`
//!   enum value stored by value in the queue, so no event allocates.
//! * **Bound-program memoization.** Binds the binder certifies replayable
//!   (read-only, no cache-state transitions, no RNG draws) are split into a
//!   reusable *plan* (`Arc<[Step]>` program + [`BindStats`]) and cached by
//!   (page shape, client node, entry node). A hit skips page construction
//!   and binding entirely and replays the shared program through a cursor.
//!   Writes and asynchronous propagation invalidate by table generation;
//!   fault transitions clear the cache wholesale.
//! * **Interned stats.** Series are resolved to dense ids once per
//!   (group, pattern, page) and recorded through
//!   [`WorkloadStats::record_ids`].

use std::sync::Arc;

use mutsvc_apps::{App, PageKey, SessionKind, SessionState};
use mutsvc_desim::fault::FaultKind;
use mutsvc_desim::hash::FxHashMap;
use mutsvc_desim::metrics::Summary;
use mutsvc_desim::recorder::{CounterId, GaugeId, HistId, LogHistogram, Recorder};
use mutsvc_desim::rng::{stream, SimRng};
use mutsvc_desim::sim::{Context, Fire, Simulation};
use mutsvc_desim::time::{SimDuration, SimTime};
use mutsvc_desim::trace::{SpanCtx, SpanKind, TraceMeta, Tracer};
use mutsvc_middleware::{
    BindStats, Binder, ComponentId, ComponentRegistry, ContainerCosts, ContainerState, Crossing,
    DeferredApply, DeploymentDescriptor,
};
use mutsvc_netsim::{
    advance_job, spawn_program, JobWorld, Jobs, LinkId, NetEvent, Network, NodeId, ProtocolParams,
    Step, Topology,
};
use mutsvc_relstore::{Database, TableId};

use crate::adaptive::{AdaptiveData, AdaptiveObs, Controller, MoveKind, STATE_BYTES};
use crate::spec::WorkloadSpec;
use crate::stats::WorkloadStats;
use crate::trace_report::TraceData;

/// Everything needed to run one experiment.
///
/// `Clone` exists for the region-sharded driver
/// ([`crate::parallel::run_experiment_parallel`]), which gives every shard
/// its own full replica of the world's inputs.
#[derive(Debug, Clone)]
pub struct ExperimentInput {
    /// The application model.
    pub app: App,
    /// Its component registry.
    pub registry: ComponentRegistry,
    /// Its populated database.
    pub db: Database,
    /// The configuration under test.
    pub descriptor: DeploymentDescriptor,
    /// The network topology.
    pub topology: Topology,
    /// Wire protocol cost model.
    pub protocols: ProtocolParams,
    /// Container runtime cost model.
    pub container_costs: ContainerCosts,
    /// Load specification.
    pub spec: WorkloadSpec,
}

/// Bound-program cache counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BindCacheStats {
    /// Whether the cache was enabled.
    pub enabled: bool,
    /// Requests served from a memoized plan.
    pub hits: u64,
    /// Requests that went through the full binder.
    pub misses: u64,
    /// Cached plans dropped because a read table changed or the network
    /// was perturbed.
    pub invalidations: u64,
}

/// The measured outcome of one experiment.
#[derive(Debug)]
pub struct ExperimentReport {
    /// Configuration name (from the descriptor).
    pub config: String,
    /// Per-page and per-session response-time statistics.
    pub stats: WorkloadStats,
    /// Aggregated binder counters (RMI calls, cache hits, pushes…).
    pub bind_totals: BindStats,
    /// Asynchronous propagation delay (write commit → all replicas fresh),
    /// in milliseconds.
    pub staleness_ms: Summary,
    /// CPU utilization per node over the measured window.
    pub cpu_utilization: Vec<(String, f64)>,
    /// Requests completed within the measured window.
    pub completed: u64,
    /// Total simulator events fired over the run.
    pub events_fired: u64,
    /// Bound-program cache counters.
    pub bind_cache: BindCacheStats,
    /// Events fired per shard of a region-sharded run, in shard order.
    /// Empty for classic sequential runs.
    pub shard_events: Vec<u64>,
    /// Committed request traces (present iff the spec's
    /// [`crate::spec::TraceSettings`] enabled tracing).
    pub trace: Option<TraceData>,
    /// Windowed metric series and engine self-profile (present iff the
    /// spec's [`crate::spec::MetricsSettings`] armed the recorder).
    pub metrics: Option<MetricsData>,
    /// The adaptive controller's decision log (present iff the spec's
    /// [`crate::spec::AdaptiveSettings`] armed the closed-loop controller).
    pub adaptive: Option<AdaptiveData>,
}

/// Windowed metric series of one run: the rolled [`Recorder`] plus the
/// region-sharded engine's per-shard self-profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsData {
    /// The rolled counter/gauge/histogram series.
    pub recorder: Recorder,
    /// Engine self-profile, one entry per shard in ascending shard order.
    /// Empty for classic sequential runs.
    pub shard_profiles: Vec<ShardProfile>,
}

/// Self-profile of one region shard of a parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProfile {
    /// Shard index (ascending region order).
    pub shard: u32,
    /// Passes the shard ran. Always 1: a shard runs straight to the horizon
    /// in one pass.
    pub windows: u64,
    /// Passes spent waiting on a peer without firing an event. Always 0:
    /// shards never wait on each other.
    pub stalled: u64,
    /// Events the shard fired over the run.
    pub events: u64,
}

struct SessionSlot {
    group: usize,
    kind: SessionKind,
    pattern: &'static str,
    state: SessionState,
    /// The slot stops issuing at this time: the horizon for steady-state
    /// sessions, the surge's end for surge sessions.
    ends: SimTime,
}

/// One request in flight, tracked in a slab and resolved on completion.
struct Inflight {
    start: SimTime,
    measured: bool,
    /// Pre-interned stats ids (valid only when `measured`).
    series: u32,
    session: u32,
    /// The request's root span, when this request was sampled for tracing.
    trace: Option<SpanCtx>,
    /// Client group index (also the interned outcome id).
    group: u16,
    /// Entry node index (for partition-staleness accounting).
    entry: u16,
    /// Failed attempts so far (fault runs only).
    attempt: u32,
    /// Whether the bind was a read-only replay (stale-serve eligible).
    replayable: bool,
    /// The request's program, retained for retries. `None` when faults are
    /// off — the fault-free hot path never pays the extra `Arc`.
    program: Option<Arc<[Step]>>,
    /// The page's response-time histogram (set only when `measured` and the
    /// metrics recorder is armed).
    hist: Option<HistId>,
}

/// Identity of a memoized plan: what the request looks like and where it
/// enters the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    page: PageKey,
    client: NodeId,
    entry: NodeId,
}

/// A memoized bound-page program: the reusable output of a replayable bind.
struct CachedPlan {
    steps: Arc<[Step]>,
    stats: BindStats,
    /// Logical WAN round trips of the bind's crossing list (computed only
    /// when tracing is on; see [`logical_wan_rts`]).
    wan_rts: f64,
    /// Tables the bind read, with the generation each had at capture time.
    reads: Vec<(TableId, u64)>,
    epoch: u64,
}

/// The bound-program cache. Validity of an entry requires its capture epoch
/// to be current (epoch advances on fault transitions and descriptor
/// change) and every read table's generation to be unchanged (generations
/// advance on writes and on deferred propagation applies).
struct PlanCache {
    enabled: bool,
    map: FxHashMap<PlanKey, CachedPlan>,
    table_gen: Vec<u64>,
    epoch: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl PlanCache {
    fn new(enabled: bool) -> Self {
        PlanCache {
            enabled,
            map: FxHashMap::default(),
            table_gen: Vec::new(),
            epoch: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn generation(&self, table: TableId) -> u64 {
        self.table_gen.get(table.index()).copied().unwrap_or(0)
    }

    /// Advances a table's generation, invalidating every plan that read it.
    fn bump(&mut self, table: TableId) {
        if !self.enabled {
            return;
        }
        if self.table_gen.len() <= table.index() {
            self.table_gen.resize(table.index() + 1, 0);
        }
        self.table_gen[table.index()] += 1;
    }

    /// Drops every cached plan (fault transitions, descriptor changes).
    fn invalidate_all(&mut self) {
        self.epoch += 1;
        self.invalidations += self.map.len() as u64;
        self.map.clear();
    }

    fn lookup(&mut self, key: &PlanKey) -> Option<(Arc<[Step]>, BindStats, f64)> {
        if !self.enabled {
            return None;
        }
        match self.map.get(key) {
            Some(plan)
                if plan.epoch == self.epoch
                    && plan.reads.iter().all(|&(t, g)| self.generation(t) == g) =>
            {
                self.hits += 1;
                Some((Arc::clone(&plan.steps), plan.stats, plan.wan_rts))
            }
            Some(_) => {
                self.map.remove(key);
                self.invalidations += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(
        &mut self,
        key: PlanKey,
        steps: Arc<[Step]>,
        stats: BindStats,
        wan_rts: f64,
        reads: &[TableId],
    ) {
        if !self.enabled {
            return;
        }
        let reads = reads.iter().map(|&t| (t, self.generation(t))).collect();
        self.map.insert(
            key,
            CachedPlan {
                steps,
                stats,
                wan_rts,
                reads,
                epoch: self.epoch,
            },
        );
    }
}

/// Fault-injection runtime state. Inert (one predicate branch per site)
/// when the schedule is empty.
struct FaultRuntime {
    /// Whether any fault episode is scheduled this run.
    active: bool,
    /// Per node: when its path to the central server was cut. A successful
    /// read at a cut entry may be serving from caches the partition keeps
    /// from being refreshed — its staleness bound is `now - stale_since`.
    stale_since: Vec<Option<SimTime>>,
    /// Set by the executor's [`JobWorld::job_failed`] hook immediately
    /// before a failed completion fires; consumed by the `Ev::Done`
    /// handler to route the token into retry/failure accounting.
    last_done_failed: bool,
}

/// Which slice of the experiment one region shard runs: its index (fixing
/// its derived RNG streams) and the client groups whose sessions it owns.
/// Built by [`crate::parallel`] from the topology's client regions — never
/// from the thread count, so the decomposition (and with it every simulated
/// byte) is identical at any parallelism.
pub(crate) struct ShardPlan {
    /// This shard's index in ascending-region order.
    pub index: usize,
    /// Per client group: whether this shard simulates its sessions.
    pub members: Vec<bool>,
}

/// Memo key of one request shape: (group index, pattern, page label).
type SeriesKey = (u16, &'static str, &'static str);
/// Memoized per-shape handles: the interned stats series pair plus the
/// page's response-time histogram (`None` when metrics are off).
type SeriesIds = (u32, u32, Option<HistId>);

/// The simulation world.
struct World {
    net: Network,
    jobs: Jobs<World>,
    db: Database,
    state: ContainerState,
    registry: ComponentRegistry,
    descriptor: DeploymentDescriptor,
    protocols: ProtocolParams,
    container_costs: ContainerCosts,
    app: App,
    rng: SimRng,
    next_tag: u64,
    deferred: FxHashMap<u64, (SimTime, DeferredApply)>,
    deferred_tables: Vec<TableId>,
    plans: PlanCache,
    stats: WorkloadStats,
    /// Per-(group, pattern, page) series ids plus the page's response-time
    /// histogram handle (`None` when metrics are off), resolved once and
    /// replayed on every later request of the same shape.
    series_memo: FxHashMap<SeriesKey, SeriesIds>,
    staleness_ms: Summary,
    bind_totals: BindStats,
    sessions: Vec<SessionSlot>,
    inflight: Vec<Option<Inflight>>,
    inflight_free: Vec<u32>,
    spec: WorkloadSpec,
    measuring_from: SimTime,
    completed: u64,
    tracer: Tracer,
    fault_rt: FaultRuntime,
    /// Windowed metrics recorder state; `None` when the spec's
    /// [`crate::spec::MetricsSettings`] are off — the `Ev::MetricsRoll`
    /// event is then never scheduled.
    metrics: Option<MetricsState>,
    /// Per-event-kind self-profile counts, indexed by [`Ev::kind_index`].
    /// Always incremented (one unconditional array add per event, cheaper
    /// than a branch would be); [`MetricsState::flush_ev_counts`] moves the
    /// totals into the recorder only when metrics are armed.
    ev_counts: [u64; EV_KINDS],
    /// Live-migration controller; `None` unless the spec arms adaptive
    /// placement (sequential runs only: the parallel driver rejects it).
    adaptive: Option<Controller>,
    /// Migrations in transfer, indexed by the [`Ev::Migrate`] slot.
    adaptive_pending: Vec<(ComponentId, MoveKind, NodeId)>,
}

impl World {
    /// Reduces the freshest closed metrics window to the adaptive
    /// controller's inputs: observed per-directed-link one-way latencies
    /// (from the `wan.*.rtt_ms` gauges the roll samples) and the pooled
    /// median response time. `None` until the first window closes, or when
    /// metrics are off — the controller then has nothing to act on.
    fn adaptive_observation(&self) -> Option<AdaptiveObs> {
        let m = self.metrics.as_ref()?;
        let last = m.rec.rows().last()?;
        let mut one_way_ms = vec![None; self.net.topology().link_count()];
        for w in &m.wan {
            let rtt = m.rec.gauge_value(w.rtt);
            if rtt > 0.0 {
                one_way_ms[w.link.index()] = Some(rtt / 2.0);
            }
        }
        let mut pooled = LogHistogram::new();
        for hist in &last.hists {
            pooled.merge(hist);
        }
        let p50_ms = if pooled.is_empty() {
            0.0
        } else {
            pooled.quantile(0.5)
        };
        // Cumulative issued requests per client group over every *closed*
        // window — the controller's offered-demand signal.
        let group_issued = m
            .groups
            .iter()
            .map(|&id| {
                let slot = m.rec.counter_slot(id);
                m.rec.rows().iter().map(|r| r.counters[slot]).sum()
            })
            .collect();
        Some(AdaptiveObs {
            one_way_ms,
            windows: m.rec.rows().len() as u64,
            p50_ms,
            group_issued,
        })
    }
}

/// Capacity of the hot-path event-kind count array. A power of two so the
/// per-event index can be masked instead of bounds-checked; must hold every
/// named slot plus the [`EV_CONTROL_KINDS`] control slots past them.
const EV_KINDS: usize = 16;
/// Kind slots of the unnamed control events (see [`Ev::kind_index`]).
const EV_CONTROL_KINDS: usize = 1;
// Past `EV_KINDS` the `& (EV_KINDS - 1)` mask in `Ev::fire` would silently
// alias one kind's counter onto another's.
const _: () = assert!(EV_KIND_NAMES.len() + EV_CONTROL_KINDS <= EV_KINDS);
/// Self-profile counter names, indexed by [`Ev::kind_index`].
const EV_KIND_NAMES: [&str; 8] = [
    "engine.ev.net",
    "engine.ev.issue",
    "engine.ev.done",
    "engine.ev.fault",
    "engine.ev.retry",
    "engine.ev.metrics_roll",
    "engine.ev.adapt_tick",
    "engine.ev.migrate",
];

/// Registered recorder handles plus the WAN traffic baselines the roll
/// event differences against between windows.
struct MetricsState {
    window: SimDuration,
    rec: Recorder,
    /// Per-event-kind engine counters, indexed by [`Ev::kind_index`].
    ev_kinds: [CounterId; EV_KIND_NAMES.len()],
    ok: CounterId,
    failed: CounterId,
    queue_near: GaugeId,
    queue_far: GaugeId,
    jobs_in_flight: GaugeId,
    /// `(page label, histogram)` in the app's page-inventory order.
    pages: Vec<(String, HistId)>,
    /// Per-WAN-leg series: every WAN link ([`mutsvc_netsim::Topology::is_wan`]).
    wan: Vec<WanSeries>,
    /// Per-client-group issued-request counters (`group.<name>.issued`),
    /// aligned with `spec.groups`: the offered-demand signal the adaptive
    /// controller reweights entry shares from.
    groups: Vec<CounterId>,
}

/// One WAN leg's windowed series: traffic counters record window deltas of
/// the network's cumulative figures, the gauge samples the leg's current
/// round trip (including degradation overrides).
struct WanSeries {
    link: LinkId,
    msgs: CounterId,
    bytes: CounterId,
    rtt: GaugeId,
    last_msgs: u64,
    last_bytes: u64,
}

impl MetricsState {
    fn register(
        net: &Network,
        app: &App,
        groups: &[crate::spec::ClientGroup],
        window: SimDuration,
    ) -> Self {
        let mut rec = Recorder::new(window);
        let ev_kinds = EV_KIND_NAMES.map(|n| rec.counter(n));
        let ok = rec.counter(crate::slo::OK_COUNTER);
        let failed = rec.counter(crate::slo::FAILED_COUNTER);
        let queue_near = rec.gauge("engine.queue.near_depth");
        let queue_far = rec.gauge("engine.queue.far_depth");
        let jobs_in_flight = rec.gauge("engine.jobs.in_flight");
        // One histogram per distinct page label, pooled across groups and
        // patterns; the inventory order is a pure function of the app, so
        // every shard registers the identical series set.
        let mut pages: Vec<(String, HistId)> = Vec::new();
        for page in app.all_pages() {
            if pages.iter().any(|(l, _)| *l == page.page) {
                continue;
            }
            let id = rec.histogram(&crate::slo::page_series(&page.page));
            pages.push((page.page, id));
        }
        let wan = net
            .topology()
            .link_ids()
            .filter(|&l| net.topology().is_wan(l))
            .map(|l| {
                let name = &net.topology().link(l).name;
                WanSeries {
                    link: l,
                    msgs: rec.counter(&format!("wan.{name}.msgs")),
                    bytes: rec.counter(&format!("wan.{name}.bytes")),
                    rtt: rec.gauge(&format!("wan.{name}.rtt_ms")),
                    last_msgs: 0,
                    last_bytes: 0,
                }
            })
            .collect();
        let groups = groups
            .iter()
            .map(|g| rec.counter(&format!("group.{}.issued", g.name)))
            .collect();
        MetricsState {
            window,
            rec,
            ev_kinds,
            ok,
            failed,
            queue_near,
            queue_far,
            jobs_in_flight,
            pages,
            wan,
            groups,
        }
    }

    fn page_hist(&self, label: &str) -> Option<HistId> {
        self.pages
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, id)| *id)
    }

    /// Moves the world's hot-path event-count array into the recorder's
    /// current window. Called at every roll and at drain, so no count is
    /// lost when the horizon lands between rolls.
    fn flush_ev_counts(&mut self, counts: &mut [u64; EV_KINDS]) {
        for (&id, count) in self.ev_kinds.iter().zip(counts.iter_mut()) {
            if *count > 0 {
                self.rec.add(id, *count);
                *count = 0;
            }
        }
    }
}

/// The driver's event type: every event of a run, recurring or control, is
/// one of these, stored by value in the queue.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Advance an in-flight job (network/CPU step completion).
    Net(NetEvent),
    /// A session's soft-delay timer expired: issue its next request.
    Issue { slot: u32 },
    /// A request's program completed: record it and free its slot.
    Done { token: u32 },
    /// Apply fault-schedule entry `idx` (scheduled once per entry at run
    /// start; an empty schedule adds zero events).
    Fault { idx: u32 },
    /// A failed request's backoff expired: re-spawn its program.
    Retry { token: u32 },
    /// Close the current metrics window (scheduled only when the spec's
    /// [`crate::spec::MetricsSettings`] arm the recorder, so metrics-off
    /// runs never see this variant). The roll samples the `queue.*` gauges
    /// from the heap's open slot, so they never count the roll itself.
    MetricsRoll,
    /// Adaptive-controller decision point (sequential runs only: the
    /// parallel driver rejects an armed controller).
    AdaptTick,
    /// A migrating component's state transfer arrived: flip the primary in
    /// the deployment descriptor and restart the destination container
    /// cold. The payload indexes the world's pending-migration buffer.
    Migrate { slot: u32 },
    /// The measured window opens: reset the network's resource statistics.
    ResetStats,
}

impl Ev {
    /// Dense kind index for the engine self-profile counters
    /// ([`EV_KIND_NAMES`]).
    ///
    /// The control variant `ResetStats` fires once per run and has no
    /// counter name: its slot sits past the named ones, where
    /// [`MetricsState::flush_ev_counts`] never reads, so it adds no
    /// `engine.ev.*` series and no column to any `METRICS_*.jsonl`.
    fn kind_index(&self) -> usize {
        match self {
            Ev::Net(_) => 0,
            Ev::Issue { .. } => 1,
            Ev::Done { .. } => 2,
            Ev::Fault { .. } => 3,
            Ev::Retry { .. } => 4,
            Ev::MetricsRoll => 5,
            Ev::AdaptTick => 6,
            Ev::Migrate { .. } => 7,
            Ev::ResetStats => EV_KIND_NAMES.len(),
        }
    }
}

impl From<NetEvent> for Ev {
    fn from(e: NetEvent) -> Ev {
        Ev::Net(e)
    }
}

impl Fire<World> for Ev {
    fn fire(self, world: &mut World, ctx: &mut Context<'_, World, Ev>) {
        // Engine self-profile: one unconditional, bounds-check-free array
        // increment per event. Counting unconditionally is cheaper than
        // branching on whether metrics are armed; the totals only reach the
        // recorder at flush time when they are.
        world.ev_counts[self.kind_index() & (EV_KINDS - 1)] += 1;
        match self {
            Ev::Net(NetEvent::Advance { job }) => advance_job(world, ctx, job),
            Ev::Issue { slot } => issue(world, ctx, slot as usize),
            Ev::Done { token } => complete_request(world, ctx, token),
            Ev::Fault { idx } => apply_fault(world, ctx, idx),
            Ev::Retry { token } => retry_request(world, ctx, token),
            Ev::MetricsRoll => roll_metrics(world, ctx),
            Ev::AdaptTick => adapt_tick(world, ctx),
            Ev::Migrate { slot } => apply_migration(world, slot),
            Ev::ResetStats => world.net.reset_stats(),
        }
    }
}

impl JobWorld for World {
    type Event = Ev;

    fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    fn jobs_mut(&mut self) -> &mut Jobs<World> {
        &mut self.jobs
    }

    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        // The job executor only calls this after finding a span context on
        // the job, which in turn only exists when tracing sampled the
        // request — so no enabled-check is needed here.
        Some(&mut self.tracer)
    }

    fn fault_timeout(&self) -> SimDuration {
        self.spec.faults.timeout
    }

    fn job_failed(&mut self) {
        self.fault_rt.last_done_failed = true;
    }

    fn fork_failed(&mut self, tag: u64, _at: SimTime) {
        // A lost asynchronous push: its deferred apply never reaches the
        // replicas, which simply stay (detectably) stale. Cache state is
        // unchanged, so memoized plans stay valid and no staleness sample
        // is recorded — the update never arrived anywhere.
        self.deferred.remove(&tag);
    }

    fn fork_completed(&mut self, tag: u64, at: SimTime) {
        if let Some((issued, apply)) = self.deferred.remove(&tag) {
            if self.plans.enabled {
                // The apply changes replica/cache state: invalidate every
                // plan reading an affected table.
                let mut tables = std::mem::take(&mut self.deferred_tables);
                tables.clear();
                apply.tables(&self.registry, &mut tables);
                for &t in &tables {
                    self.plans.bump(t);
                }
                self.deferred_tables = tables;
            }
            apply.apply(&mut self.state);
            if issued >= self.measuring_from {
                self.staleness_ms.record((at - issued).as_millis_f64());
            }
        }
    }
}

fn alloc_inflight(world: &mut World, inf: Inflight) -> u32 {
    if let Some(token) = world.inflight_free.pop() {
        world.inflight[token as usize] = Some(inf);
        token
    } else {
        world.inflight.push(Some(inf));
        (world.inflight.len() - 1) as u32
    }
}

fn complete_request(world: &mut World, ctx: &mut Context<'_, World, Ev>, token: u32) {
    // One predictable branch on fault-free runs: the flag is only ever set
    // by the executor's `job_failed` hook, synchronously before this event.
    if std::mem::take(&mut world.fault_rt.last_done_failed) {
        request_attempt_failed(world, ctx, token);
        return;
    }
    let inf = world.inflight[token as usize]
        .take()
        .expect("completion token not in flight");
    world.inflight_free.push(token);
    if inf.measured {
        let now = ctx.now();
        let mut ok = true;
        if world.fault_rt.active {
            // The request completed at an entry cut off from the central
            // server. With edge caches deployed, reads are being answered
            // from state the partition keeps from refreshing: serve them
            // with a recorded staleness bound, or — under a strict policy —
            // reject them as failures. Configs without caches only complete
            // here when the page needed no far-side data at all.
            if let Some(since) = world.fault_rt.stale_since[inf.entry as usize] {
                if world.descriptor.caches_serve_reads() && inf.replayable {
                    if world.spec.faults.policy.stale_serve {
                        world
                            .stats
                            .record_stale_serve_id(inf.group as u32, (now - since).as_millis_f64());
                    } else {
                        ok = false;
                    }
                }
            }
        }
        world.stats.record_outcome_id(inf.group as u32, ok);
        if ok {
            let response = now - inf.start;
            world.stats.record_ids(inf.series, inf.session, response);
            world.completed += 1;
            if let Some(m) = &mut world.metrics {
                m.rec.add(m.ok, 1);
                if let Some(h) = inf.hist {
                    m.rec.observe(h, response.as_millis_f64());
                }
            }
        } else if let Some(m) = &mut world.metrics {
            m.rec.add(m.failed, 1);
        }
    }
    if let Some(tc) = inf.trace {
        world.tracer.finish_request(tc, ctx.now());
    }
}

/// A request attempt hit an injected fault. Retry with capped exponential
/// backoff while the policy allows, then count the request as failed.
fn request_attempt_failed(world: &mut World, ctx: &mut Context<'_, World, Ev>, token: u32) {
    let now = ctx.now();
    let policy = world.spec.faults.policy;
    let inf = world.inflight[token as usize]
        .as_mut()
        .expect("failed token not in flight");
    inf.attempt += 1;
    if inf.program.is_some() && inf.attempt <= policy.max_retries {
        let delay = policy.backoff(inf.attempt);
        let attempt = inf.attempt;
        let (measured, group, trace) = (inf.measured, inf.group, inf.trace);
        if measured {
            world.stats.record_retry_id(group as u32);
        }
        if let Some(tc) = trace {
            world.tracer.leaf(
                tc,
                now,
                now + delay,
                SpanKind::Retry {
                    attempt,
                    failover: false,
                },
            );
        }
        ctx.schedule_event_in(delay, Ev::Retry { token });
    } else {
        let inf = world.inflight[token as usize].take().expect("in flight");
        world.inflight_free.push(token);
        if inf.measured {
            world.stats.record_outcome_id(inf.group as u32, false);
            if let Some(m) = &mut world.metrics {
                m.rec.add(m.failed, 1);
            }
        }
        if let Some(tc) = inf.trace {
            world.tracer.finish_request(tc, now);
        }
    }
}

/// Re-spawns a failed request's program after its backoff. State effects
/// were applied at bind time, so a replay only re-drives network and CPU
/// work — including the asynchronous push forks, whose deferred applies are
/// keyed by tag and therefore apply at most once.
fn retry_request(world: &mut World, ctx: &mut Context<'_, World, Ev>, token: u32) {
    let (steps, trace) = {
        let inf = world.inflight[token as usize]
            .as_ref()
            .expect("retry token not in flight");
        (
            Arc::clone(inf.program.as_ref().expect("retryable request")),
            inf.trace,
        )
    };
    spawn_program(world, ctx, steps, Ev::Done { token }, trace);
}

/// Applies one fault-schedule entry: the network takes the event
/// ([`Network::apply_fault`]), then the container state and the per-entry
/// partition bookkeeping follow it.
fn apply_fault(world: &mut World, ctx: &mut Context<'_, World, Ev>, idx: u32) {
    let kind = world.spec.faults.schedule.events[idx as usize].kind;
    // Memoized plans carry routing, timing and cache-state assumptions; any
    // fault transition invalidates them wholesale.
    world.plans.invalidate_all();
    world.net.apply_fault(kind);
    match kind {
        FaultKind::NodeCrash { node } => {
            // The container process died: every memory-resident cache on
            // the node is gone (§4.3–§4.4).
            world.state.evict_node(world.net.topology().node_at(node));
        }
        FaultKind::NodeRestart { node } => {
            let n = world.net.topology().node_at(node);
            if world.descriptor.eager_cache_warmup {
                // Push-based configs re-run deployment warm-up for the
                // restarted node; lazy configs refill on demand.
                warm_caches(
                    &mut world.state,
                    &world.app,
                    &world.registry,
                    &world.descriptor,
                    &world.db,
                    Some(n),
                );
            }
        }
        _ => {}
    }
    // Refresh partition state for every entry node: a cut starts the
    // staleness clock, healing stops it.
    let central = world.descriptor.central_node;
    for g in 0..world.spec.groups.len() {
        let entry = world.spec.groups[g].entry_node;
        let cut = !world.net.path_is_up(entry, central);
        let slot = &mut world.fault_rt.stale_since[entry.index()];
        if cut && slot.is_none() {
            *slot = Some(ctx.now());
        } else if !cut && slot.is_some() {
            *slot = None;
        }
    }
}

/// Logical WAN round trips of a bind: the sum of round trips of every
/// crossing whose route traverses a WAN link ([`Topology::is_wan`], the
/// classification the executor's hop spans use). This is the *static*
/// figure — derived from the binder's crossing list, independent of sampled
/// protocol chatter — and is what the analyzer's static budget is compared
/// against.
///
/// [`Topology::is_wan`]: mutsvc_netsim::Topology::is_wan
fn logical_wan_rts(net: &Network, crossings: &[Crossing]) -> f64 {
    crossings
        .iter()
        .filter(|c| net.topology().wan_hops(c.from, c.to) > 0)
        .map(|c| f64::from(c.round_trips()))
        .sum()
}

/// Samples the engine gauges, folds the WAN traffic deltas, and closes the
/// current metrics window; re-arms the cadence event until the horizon. The
/// recorder is pure observation — nothing here touches simulation state, so
/// metrics-on runs replay metrics-off runs byte-for-byte.
fn roll_metrics(world: &mut World, ctx: &mut Context<'_, World, Ev>) {
    // Take the state out so the recorder and the rest of the world can be
    // borrowed simultaneously.
    let Some(mut m) = world.metrics.take() else {
        return;
    };

    m.flush_ev_counts(&mut world.ev_counts);
    let depths = ctx.queue_depths();
    m.rec.set(m.queue_near, depths.near as f64);
    m.rec.set(m.queue_far, depths.far as f64);
    m.rec.set(m.jobs_in_flight, world.jobs.in_flight() as f64);
    for w in &mut m.wan {
        let (msgs, bytes) = world.net.link_traffic(w.link);
        // `reset_stats` at the measured-window boundary moves the cumulative
        // figures backwards; the saturating delta charges the window holding
        // the reset only what it observed afterwards.
        m.rec.add(w.msgs, msgs.saturating_sub(w.last_msgs));
        m.rec.add(w.bytes, bytes.saturating_sub(w.last_bytes));
        w.last_msgs = msgs;
        w.last_bytes = bytes;
        m.rec
            .set(w.rtt, world.net.link_round_trip(w.link).as_millis_f64());
    }
    m.rec.roll();
    if ctx.now() + m.window <= world.spec.horizon() {
        ctx.schedule_event_in(m.window, Ev::MetricsRoll);
    }
    world.metrics = Some(m);
}

/// One adaptive-controller decision point: observe the freshest metrics
/// window, run a delta-cost search, and launch the ordered migration as a
/// WAN state transfer.
fn adapt_tick(world: &mut World, ctx: &mut Context<'_, World, Ev>) {
    let now = ctx.now();
    let cadence = world
        .spec
        .adaptive
        .cadence
        .expect("the controller tick is armed only with a cadence");
    if now + cadence <= world.spec.horizon() {
        ctx.schedule_event_in(cadence, Ev::AdaptTick);
    }
    let Some(obs) = world.adaptive_observation() else {
        return;
    };
    let Some(controller) = world.adaptive.as_mut() else {
        return;
    };
    let Some(order) = controller.round(now, &obs) else {
        return;
    };
    // The state transfer occupies the WAN (control handshake plus bulk
    // bytes — see `Network::migrate`); the order waits in the pending
    // buffer until it arrives.
    let arrival = world.net.migrate(now, order.from, order.to, STATE_BYTES);
    world
        .adaptive_pending
        .push((order.component, order.kind, order.to));
    let slot = (world.adaptive_pending.len() - 1) as u32;
    ctx.schedule_event_at(arrival, Ev::Migrate { slot });
}

/// A migration's state transfer arrived: re-home the component's primary
/// (or install its new replica) and restart the destination container cold
/// — the fault machinery's crash/restart semantics, reused. In-flight
/// requests keep their already bound plans (they complete against the old
/// placement); every later request re-binds against the updated
/// descriptor.
fn apply_migration(world: &mut World, slot: u32) {
    let (component, kind, to) = world.adaptive_pending[slot as usize];
    match kind {
        MoveKind::Primary => world.descriptor.move_primary(component, to),
        MoveKind::Replica => world.descriptor.add_replica(component, to),
    }
    // The destination container restarts to host the migrated primary:
    // every memory-resident cache there starts cold.
    world.state.evict_node(to);
    // Remote stubs for the moved component dangle everywhere; drop them.
    world.state.invalidate_component_stubs(component);
    world.plans.invalidate_all();
}

/// Issues the next request of session `slot_idx`, then re-schedules itself
/// after the soft delay.
fn issue(world: &mut World, ctx: &mut Context<'_, World, Ev>, slot_idx: usize) {
    let now = ctx.now();
    // Per-slot end: the horizon for steady-state sessions, the surge window's
    // close for surge sessions.
    if now >= world.sessions[slot_idx].ends {
        return;
    }

    // Draw the next page spec, recycling the session when it finishes.
    let drawn = {
        let slot = &mut world.sessions[slot_idx];
        match world.app.draw_page(&mut slot.state, &mut world.rng) {
            Some(x) => Some(x),
            None => {
                slot.state = world.app.new_session(slot.kind, &mut world.rng);
                world.app.draw_page(&mut slot.state, &mut world.rng)
            }
        }
    };
    let Some((label, page_spec)) = drawn else {
        return;
    };

    let slot_group = world.sessions[slot_idx].group;
    let pattern = world.sessions[slot_idx].pattern;
    if let Some(m) = world.metrics.as_mut() {
        let id = m.groups[slot_group];
        m.rec.add(id, 1);
    }
    let (client_node, mut entry_node) = {
        let g = &world.spec.groups[slot_group];
        (g.client_node, g.entry_node)
    };
    let measured = now >= world.measuring_from;

    // Entry failover: with the policy on, new requests to a crashed edge
    // entry re-target the central server (the host still forwards, only
    // the application process is down).
    let mut failover = false;
    if world.fault_rt.active
        && world.spec.faults.policy.failover
        && !world.net.node_is_up(entry_node)
    {
        entry_node = world.descriptor.central_node;
        failover = true;
        if measured {
            world.stats.record_failover_id(slot_group as u32);
        }
    }

    let (series, session, hist) = if measured {
        let memo_key = (slot_group as u16, pattern, label);
        match world.series_memo.get(&memo_key) {
            Some(&ids) => ids,
            None => {
                let (series, session) =
                    world
                        .stats
                        .intern(&world.spec.groups[slot_group].name, pattern, label);
                let hist = world.metrics.as_ref().and_then(|m| m.page_hist(label));
                world.series_memo.insert(memo_key, (series, session, hist));
                (series, session, hist)
            }
        }
    } else {
        (0, 0, None)
    };
    // One branch on the disabled path: `start_request` is only reached when
    // the run's tracer is on; it then applies head sampling itself.
    let trace = if world.tracer.enabled() {
        world.tracer.start_request(
            now,
            TraceMeta {
                label,
                group: slot_group as u32,
                client: client_node.index() as u32,
                entry: entry_node.index() as u32,
                measured,
                wan_rts_logical: 0.0,
            },
        )
    } else {
        None
    };
    if failover {
        if let Some(tc) = trace {
            world.tracer.note(tc, now, "failover", 1);
        }
    }
    let token = alloc_inflight(
        world,
        Inflight {
            start: now,
            measured,
            series,
            session,
            trace,
            group: slot_group as u16,
            entry: entry_node.index() as u16,
            attempt: 0,
            replayable: false,
            program: None,
            hist,
        },
    );

    let key = PlanKey {
        page: page_spec.key(),
        client: client_node,
        entry: entry_node,
    };
    let (steps, replayable) = if let Some((steps, stats, wan_rts)) = world.plans.lookup(&key) {
        // Replay the memoized program: no page construction, no binder, no
        // RNG draws (the bind was certified draw-free), identical steps.
        if measured {
            world.bind_totals.merge(&stats);
        }
        if let Some(tc) = trace {
            world.tracer.set_logical_wan(tc, wan_rts);
        }
        (steps, true)
    } else {
        let page = world.app.build_page(&page_spec);
        let bound = Binder::new(
            &world.registry,
            &world.descriptor,
            &world.protocols,
            &world.container_costs,
            &mut world.db,
            &mut world.state,
            &mut world.rng,
            &mut world.next_tag,
        )
        .bind_page(client_node, entry_node, &page);

        if measured {
            world.bind_totals.merge(&bound.stats);
        }
        for &t in &bound.written_tables {
            world.plans.bump(t);
        }
        for (tag, apply) in bound.deferred {
            world.deferred.insert(tag, (now, apply));
        }

        // Logical WAN accounting is only needed when tracing is on; keep the
        // untraced bind path free of route walks.
        let wan_rts = if world.tracer.enabled() {
            logical_wan_rts(&world.net, &bound.crossings)
        } else {
            0.0
        };
        if let Some(tc) = trace {
            world.tracer.set_logical_wan(tc, wan_rts);
        }

        let steps: Arc<[Step]> = bound.steps.into();
        if bound.replayable {
            world.plans.insert(
                key,
                Arc::clone(&steps),
                bound.stats,
                wan_rts,
                &bound.read_tables,
            );
        }
        (steps, bound.replayable)
    };
    if world.fault_rt.active {
        // Fault runs retain every program for retries.
        let inf = world.inflight[token as usize]
            .as_mut()
            .expect("just allocated");
        inf.replayable = replayable;
        inf.program = Some(Arc::clone(&steps));
    }
    spawn_program(world, ctx, steps, Ev::Done { token }, trace);

    // A fixed delay after every issue: the re-arms come due in the order they
    // are armed, so they wait in the queue's timer lane.
    ctx.schedule_timer_in(
        world.spec.soft_delay,
        Ev::Issue {
            slot: slot_idx as u32,
        },
    );
}

/// Deployment-time cache warm-up for push-based configurations: populate
/// every cacheable query instance at its cache nodes and every replicated
/// entity row at its replica nodes. With `only`, warms just that node — the
/// restart path after a crash evicted it.
fn warm_caches(
    state: &mut ContainerState,
    app: &App,
    registry: &ComponentRegistry,
    descriptor: &DeploymentDescriptor,
    db: &Database,
    only: Option<NodeId>,
) {
    for (tag, query) in app.cacheable_query_instances() {
        for &node in &descriptor.query_cache.nodes {
            if only.is_some_and(|n| n != node) {
                continue;
            }
            if descriptor.query_cache.covers(node, &tag) {
                state.cache_query(node, query.clone());
            }
        }
    }
    for component in registry.ids() {
        let spec_c = registry.spec(component);
        if let Some(table) = spec_c.table {
            let replicas: Vec<_> = descriptor
                .replica_nodes(component)
                .filter(|&n| only.is_none_or(|o| o == n))
                .collect();
            if replicas.is_empty() {
                continue;
            }
            for row in db.table(table).all_ids() {
                for &node in &replicas {
                    state.load_entity_row(component, node, row);
                }
            }
        }
    }
}

/// Builds one run's fully-scheduled simulation without running it.
///
/// The classic sequential driver builds one simulation (`shard: None`); the
/// region-sharded driver ([`crate::parallel`]) builds one per
/// [`ShardPlan`]. Either way [`run_to_horizon`] runs it straight to the
/// horizon. A shard simulates only its own client groups' sessions and
/// draws from per-shard RNG streams ([`stream::shard`]) — both fixed by the
/// decomposition, never by the thread count.
fn build_sim(input: ExperimentInput, shard: Option<ShardPlan>) -> Simulation<World, Ev> {
    let ExperimentInput {
        app,
        registry,
        db,
        descriptor,
        topology,
        protocols,
        container_costs,
        spec,
    } = input;

    let rng = SimRng::seed_from_u64(spec.seed);
    let (mut session_rng, world_rng) = match &shard {
        Some(p) => (
            rng.derive(stream::shard(stream::SESSIONS, p.index)),
            rng.derive(stream::shard(stream::WORLD, p.index)),
        ),
        None => (rng.derive(stream::SESSIONS), rng.derive(stream::WORLD)),
    };
    let measuring_from = SimTime::ZERO + spec.warmup;
    let horizon = spec.horizon();

    // Create the session slots: one per concurrent client session (of the
    // shard's own groups, when sharded; group indices stay global).
    let mut sessions = Vec::new();
    for (gi, group) in spec.groups.iter().enumerate() {
        if shard.as_ref().is_some_and(|p| !p.members[gi]) {
            continue;
        }
        for (kind, rate) in [
            (SessionKind::Browser, group.browser_rate),
            (SessionKind::Transactional, group.transactional_rate),
        ] {
            for _ in 0..spec.sessions_for_rate(rate) {
                let pattern = match kind {
                    SessionKind::Browser => "Browser",
                    SessionKind::Transactional => app.transactional_label(),
                };
                sessions.push(SessionSlot {
                    group: gi,
                    kind,
                    pattern,
                    state: app.new_session(kind, &mut session_rng),
                    ends: horizon,
                });
            }
        }
    }

    let n_sessions = sessions.len();
    let soft_delay = spec.soft_delay;

    // Surge sessions: extra slots modeling `factor - 1` of a group's
    // offered load over `[from, to)` — flash crowds, diurnal shifts. Drawn
    // from the dedicated `stream::SURGES` RNG stream so a surge-free spec
    // performs zero extra draws and stays byte-identical to earlier builds.
    let mut surge_rng = match &shard {
        Some(p) => rng.derive(stream::shard(stream::SURGES, p.index)),
        None => rng.derive(stream::SURGES),
    };
    let mut surge_starts: Vec<(u32, SimTime)> = Vec::new();
    for surge in &spec.surges {
        let gi = spec
            .groups
            .iter()
            .position(|g| g.name == surge.group)
            .unwrap_or_else(|| panic!("surge references unknown group {}", surge.group));
        if shard.as_ref().is_some_and(|p| !p.members[gi]) {
            continue;
        }
        let group = &spec.groups[gi];
        let extra = (surge.factor - 1.0).max(0.0);
        let ends = (SimTime::ZERO + surge.to).min(horizon);
        let base_idx = sessions.len();
        for (kind, rate) in [
            (SessionKind::Browser, group.browser_rate),
            (SessionKind::Transactional, group.transactional_rate),
        ] {
            for _ in 0..spec.sessions_for_rate(rate * extra) {
                let pattern = match kind {
                    SessionKind::Browser => "Browser",
                    SessionKind::Transactional => app.transactional_label(),
                };
                sessions.push(SessionSlot {
                    group: gi,
                    kind,
                    pattern,
                    state: app.new_session(kind, &mut surge_rng),
                    ends,
                });
            }
        }
        // Stagger the surge's slots across one soft-delay interval from its
        // onset, mirroring the steady-state session ramp.
        let n_surge = sessions.len() - base_idx;
        for k in 0..n_surge {
            let offset = soft_delay.mul_f64(k as f64 / n_surge.max(1) as f64);
            surge_starts.push(((base_idx + k) as u32, SimTime::ZERO + surge.from + offset));
        }
    }

    let mut state = ContainerState::new();
    if descriptor.eager_cache_warmup {
        warm_caches(&mut state, &app, &registry, &descriptor, &db, None);
    }

    let mut net = Network::new(topology);
    // Deterministic message-loss hashing is keyed by the experiment seed, so
    // loss outcomes replay identically across sequential and parallel sweeps
    // without touching any RNG stream.
    net.set_loss_salt(spec.seed);
    let fault_rt = FaultRuntime {
        active: spec.faults.active(),
        stale_since: vec![None; net.topology().node_count()],
        last_done_failed: false,
    };
    let tracer = spec
        .trace
        .sample_every
        .map_or_else(Tracer::disabled, Tracer::new);
    let metrics = spec
        .metrics
        .window
        .map(|window| MetricsState::register(&net, &app, &spec.groups, window));
    // Pre-intern each group's outcome slot so its id equals its index.
    let mut stats = WorkloadStats::new();
    for g in &spec.groups {
        stats.intern_group(&g.name);
    }
    // Fault firing times, captured before `spec` moves into the world; the
    // handler looks the kind up by index.
    let fault_times: Vec<SimDuration> = spec.faults.schedule.events.iter().map(|e| e.at).collect();
    let adaptive = spec
        .adaptive
        .active()
        .then(|| Controller::new(&app, &registry, &descriptor, net.topology(), &spec));
    let world = World {
        net,
        jobs: Jobs::new(),
        db,
        state,
        registry,
        descriptor,
        protocols,
        container_costs,
        app,
        rng: world_rng,
        next_tag: 0,
        deferred: FxHashMap::default(),
        deferred_tables: Vec::new(),
        plans: PlanCache::new(spec.bind_cache),
        fault_rt,
        stats,
        series_memo: FxHashMap::default(),
        staleness_ms: Summary::new(),
        bind_totals: BindStats::default(),
        sessions,
        inflight: Vec::new(),
        inflight_free: Vec::new(),
        spec,
        measuring_from,
        completed: 0,
        tracer,
        metrics,
        ev_counts: [0; EV_KINDS],
        adaptive,
        adaptive_pending: Vec::new(),
    };

    let mut sim: Simulation<World, Ev> = Simulation::with_events(world);
    // Stagger session starts uniformly across one soft-delay interval, in
    // order, as timers: every later re-arm lands behind them in the lane.
    for i in 0..n_sessions {
        let offset = soft_delay.mul_f64(i as f64 / n_sessions.max(1) as f64);
        sim.schedule_timer_at(SimTime::ZERO + offset, Ev::Issue { slot: i as u32 });
    }
    // Reset resource statistics when the measured window opens.
    sim.schedule_event_at(measuring_from, Ev::ResetStats);
    // Surge onsets (no surges: no events, byte-identical queue history).
    // They go into the heap: a far onset at the lane's tail would turn every
    // steady-state re-arm before it away from the lane.
    for (slot, at) in surge_starts {
        sim.schedule_event_at(at, Ev::Issue { slot });
    }
    // Arm the metrics roll cadence. The roll samples the queue's gauges
    // while it is the firing heap head, whose open slot the depths exclude,
    // so it never counts itself.
    if let Some(window) = sim.world().spec.metrics.window {
        sim.schedule_event_at(SimTime::ZERO + window, Ev::MetricsRoll);
    }
    // Arm the adaptive decision cadence. The first round fires one cadence
    // past warm-up: windows closed during the ramp carry cold caches and
    // connection setup, and a controller acting on them migrates against
    // transients.
    if let Some(cadence) = sim.world().spec.adaptive.cadence {
        let warmup = sim.world().spec.warmup;
        sim.schedule_event_at(SimTime::ZERO + warmup + cadence, Ev::AdaptTick);
    }
    // Failure injection: the fault schedule. An empty schedule adds zero
    // events, leaving the queue history untouched.
    for (i, at) in fault_times.into_iter().enumerate() {
        sim.schedule_event_at(SimTime::ZERO + at, Ev::Fault { idx: i as u32 });
    }

    sim
}

/// Runs one experiment to completion and reports its measurements.
pub fn run_experiment(input: ExperimentInput) -> ExperimentReport {
    run_to_horizon(input, None)
}

/// Builds one simulation — the whole experiment, or one region shard of
/// it — runs it to the horizon and drains its report.
pub(crate) fn run_to_horizon(input: ExperimentInput, shard: Option<ShardPlan>) -> ExperimentReport {
    let horizon = input.spec.horizon();
    let mut sim = build_sim(input, shard);
    sim.run_until(horizon);
    drain_report(sim)
}

/// Tears a finished simulation down into its [`ExperimentReport`].
fn drain_report(sim: Simulation<World, Ev>) -> ExperimentReport {
    let horizon = sim.world().spec.horizon();
    let events_fired = sim.events_fired();

    let mut world = sim.into_world();
    let config = world.descriptor.name.clone();
    let cpu_utilization = world
        .net
        .topology()
        .node_ids()
        .map(|n| {
            (
                world.net.topology().node(n).name.clone(),
                world.net.cpu_utilization(n, horizon),
            )
        })
        .collect();

    let trace = if world.tracer.enabled() {
        let topology = world.net.topology();
        Some(TraceData {
            traces: world.tracer.take_finished(),
            node_names: topology
                .node_ids()
                .map(|n| topology.node(n).name.clone())
                .collect(),
            link_names: topology
                .link_ids()
                .map(|l| topology.link(l).name.clone())
                .collect(),
            group_names: world.spec.groups.iter().map(|g| g.name.clone()).collect(),
            db_node: world.descriptor.db_node.index() as u32,
        })
    } else {
        None
    };

    let metrics = world.metrics.take().map(|mut m| {
        m.flush_ev_counts(&mut world.ev_counts);
        MetricsData {
            recorder: m.rec,
            shard_profiles: Vec::new(),
        }
    });

    ExperimentReport {
        config,
        stats: world.stats,
        bind_totals: world.bind_totals,
        staleness_ms: world.staleness_ms,
        cpu_utilization,
        completed: world.completed,
        events_fired,
        bind_cache: BindCacheStats {
            enabled: world.plans.enabled,
            hits: world.plans.hits,
            misses: world.plans.misses,
            invalidations: world.plans.invalidations,
        },
        shard_events: Vec::new(),
        trace,
        metrics,
        adaptive: world.adaptive.take().map(Controller::into_data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{paper_groups, WorkloadSpec};
    use mutsvc_desim::time::SimDuration;
    use mutsvc_middleware::DescriptorBuilder;
    use mutsvc_netsim::TopologyBuilder;

    /// A small Pet Store experiment on a two-server topology.
    fn small_input(seed: u64) -> ExperimentInput {
        small_input_over(seed, SimDuration::from_millis(100))
    }

    /// [`small_input`] with the edge leg's one-way latency set to `wan`.
    fn small_input_over(seed: u64, wan: SimDuration) -> ExperimentInput {
        let (app, registry, db) = App::petstore(false);
        let mut tb = TopologyBuilder::new();
        let main = tb.node("main", 2);
        let dbn = tb.node("db", 2);
        let router = tb.node("router", 8);
        let edge = tb.node("edge1", 2);
        let lc = tb.node("client-local", 4);
        let rc = tb.node("client-remote", 4);
        let lan = SimDuration::from_micros(200);
        tb.duplex_link(main, router, lan, 100e6);
        tb.duplex_link(dbn, router, lan, 100e6);
        tb.duplex_link(lc, router, lan, 100e6);
        tb.duplex_link(edge, router, wan, 100e6);
        tb.duplex_link(rc, edge, lan, 100e6);
        let topology = tb.finalize();

        let components = match &app {
            App::PetStore(ps) => ps.components,
            App::Rubis(_) => unreachable!(),
        };
        let mut b = DescriptorBuilder::new(&registry, "centralized", dbn);
        b.central_node(main);
        for c in components.all() {
            b.place(c, main);
        }
        let descriptor = b.build().unwrap();

        let mut groups = paper_groups((lc, main), (rc, main), (rc, main));
        groups.truncate(2); // local + one remote group keeps the test fast
        let spec = WorkloadSpec::paper_load(groups)
            .with_duration(SimDuration::from_secs(30), SimDuration::from_secs(120))
            .with_seed(seed);

        ExperimentInput {
            app,
            registry,
            db,
            descriptor,
            topology,
            protocols: ProtocolParams::petstore_stack(),
            container_costs: ContainerCosts::default(),
            spec,
        }
    }

    #[test]
    fn centralized_experiment_measures_the_wan_gap() {
        let report = run_experiment(small_input(7));
        assert!(report.completed > 1_000, "completed {}", report.completed);

        let local = report.stats.mean_ms("local", "Browser", "Item").unwrap();
        let remote = report.stats.mean_ms("remote1", "Browser", "Item").unwrap();
        assert!(
            remote - local > 350.0 && remote - local < 500.0,
            "local {local:.0}ms remote {remote:.0}ms"
        );

        // Offered load: 20 req/s over 120 s measured ≈ 2400 requests.
        let expected = 20.0 * 120.0;
        let ratio = report.completed as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn soft_delay_keeps_load_steady_despite_slow_responses() {
        // Even with every remote page costing ~500ms, the send rate stays
        // fixed because delays are soft (measured request count unchanged).
        let report = run_experiment(small_input(8));
        let sessions_expected = 56 + 14; // per group
        assert!(
            report.completed as f64 > 0.9 * 20.0 * 120.0,
            "{}",
            report.completed
        );
        let _ = sessions_expected;
    }

    #[test]
    fn experiments_are_deterministic_per_seed() {
        let a = run_experiment(small_input(9));
        let b = run_experiment(small_input(9));
        assert_eq!(a.completed, b.completed);
        assert_eq!(
            a.stats.mean_ms("local", "Browser", "Item"),
            b.stats.mean_ms("local", "Browser", "Item")
        );
        assert_eq!(a.bind_totals, b.bind_totals);
        let c = run_experiment(small_input(10));
        assert_ne!(
            a.stats.mean_ms("local", "Browser", "Item"),
            c.stats.mean_ms("local", "Browser", "Item")
        );
    }

    #[test]
    fn cpu_stays_in_the_papers_envelope() {
        let report = run_experiment(small_input(11));
        for (node, util) in &report.cpu_utilization {
            assert!(*util < 0.75, "{node} at {util:.2}");
        }
        // The main server does carry load.
        let main = report
            .cpu_utilization
            .iter()
            .find(|(n, _)| n == "main")
            .map(|(_, u)| *u)
            .unwrap();
        assert!(main > 0.05, "main util {main}");
    }

    /// `LinkDegraded` events scaling every directed link of `input` whose
    /// base latency is at least 50 ms (the WAN legs) by `factor` at `at`.
    fn wan_degradation(input: &ExperimentInput, at: SimDuration, factor: f64) -> Vec<FaultEvent> {
        let topology = &input.topology;
        topology
            .link_ids()
            .filter(|&l| topology.link(l).latency >= SimDuration::from_millis(50))
            .map(|l| FaultEvent {
                at,
                kind: FaultKind::LinkDegraded {
                    link: l.index() as u32,
                    factor,
                },
            })
            .collect()
    }

    /// `input` with `events` scheduled and no recovery policy.
    fn with_fault_events(mut input: ExperimentInput, events: Vec<FaultEvent>) -> ExperimentInput {
        input.spec = input.spec.with_faults(FaultSettings {
            schedule: FaultSchedule::scripted(events),
            ..FaultSettings::off()
        });
        input
    }

    #[test]
    fn wan_degradation_perturbation_slows_remote_clients() {
        let baseline = run_experiment(small_input(21));
        // Double the WAN legs for the whole measured window.
        let input = small_input(21);
        let events = wan_degradation(&input, SimDuration::from_secs(1), 2.0);
        let degraded = run_experiment(with_fault_events(input, events));
        let base = baseline
            .stats
            .mean_ms("remote1", "Browser", "Item")
            .unwrap();
        let slow = degraded
            .stats
            .mean_ms("remote1", "Browser", "Item")
            .unwrap();
        assert!(
            slow > base + 300.0,
            "degraded {slow:.0} vs baseline {base:.0}"
        );
        // Local clients are unaffected.
        let base_local = baseline.stats.mean_ms("local", "Browser", "Item").unwrap();
        let slow_local = degraded.stats.mean_ms("local", "Browser", "Item").unwrap();
        assert!((slow_local - base_local).abs() < 10.0);
    }

    #[test]
    fn restore_perturbation_heals_mid_run() {
        let input = small_input(22);
        let half = (input.spec.horizon() - SimTime::ZERO) / 2;
        let mut events = wan_degradation(&input, SimDuration::from_secs(1), 3.0);
        events.extend(wan_degradation(&input, half, 1.0));
        let healed = run_experiment(with_fault_events(input, events));
        let baseline = run_experiment(small_input(22));
        let healed_mean = healed.stats.mean_ms("remote1", "Browser", "Item").unwrap();
        let base_mean = baseline
            .stats
            .mean_ms("remote1", "Browser", "Item")
            .unwrap();
        // Roughly half the window is degraded (+400ms): the mean sits
        // strictly between the healthy and fully-degraded levels.
        assert!(
            healed_mean > base_mean + 100.0,
            "{healed_mean:.0} vs {base_mean:.0}"
        );
        assert!(
            healed_mean < base_mean + 700.0,
            "{healed_mean:.0} vs {base_mean:.0}"
        );
    }

    #[test]
    fn buyer_pattern_is_measured_separately() {
        let report = run_experiment(small_input(12));
        assert!(report.stats.mean_ms("local", "Buyer", "Commit").is_some());
        assert!(report.stats.mean_ms("local", "Browser", "Commit").is_none());
        assert!(report.stats.session_summary("remote1", "Buyer").is_some());
    }

    #[test]
    fn bind_cache_reports_hits_and_matches_uncached_run() {
        let cached = run_experiment(small_input(30));
        assert!(cached.bind_cache.enabled);
        assert!(
            cached.bind_cache.hits > cached.bind_cache.misses,
            "steady-state reads should mostly hit: {:?}",
            cached.bind_cache
        );

        let mut input = small_input(30);
        input.spec.bind_cache = false;
        let uncached = run_experiment(input);
        assert!(!uncached.bind_cache.enabled);
        assert_eq!(uncached.bind_cache.hits, 0);

        // Bit-identical measurements either way.
        assert_eq!(cached.stats, uncached.stats);
        assert_eq!(cached.bind_totals, uncached.bind_totals);
        assert_eq!(cached.staleness_ms, uncached.staleness_ms);
        assert_eq!(cached.completed, uncached.completed);
        assert_eq!(cached.events_fired, uncached.events_fired);
    }

    /// Latency changes flush the plan cache wholesale (`Ev::Fault`): a run
    /// that degrades and then restores the WAN measures bit-identically with
    /// the cache on and off, and the cache-on run counts the dropped plans.
    #[test]
    fn perturbations_flush_the_plan_cache_without_changing_results() {
        // `factor` scales the WAN legs from 60 s until a restore at 110 s.
        let schedule = |input: &ExperimentInput, factor: f64| {
            let mut events = wan_degradation(input, SimDuration::from_secs(60), factor);
            events.extend(wan_degradation(input, SimDuration::from_secs(110), 1.0));
            events
        };
        let run = |bind_cache: bool, factor: Option<f64>| {
            let mut input = small_input(34);
            input.spec = input.spec.with_bind_cache(bind_cache);
            if let Some(factor) = factor {
                let events = schedule(&input, factor);
                input = with_fault_events(input, events);
            }
            run_experiment(input)
        };
        let on = run(true, Some(2.0));
        let off = run(false, Some(2.0));
        assert!(on.bind_cache.enabled && !off.bind_cache.enabled);
        assert!(
            on.bind_cache.invalidations > 0,
            "latency changes must drop plans: {:?}",
            on.bind_cache
        );
        assert_eq!(on.stats, off.stats);
        assert_eq!(on.bind_totals, off.bind_totals);
        assert_eq!(on.events_fired, off.events_fired);

        // An identity degradation changes no timing, so only the flush
        // tells it apart from an unperturbed run: every plan it drops is
        // counted and re-bound.
        let plain = run(true, None);
        let flushed = run(true, Some(1.0));
        let entries = schedule(&small_input(34), 1.0).len() as u64;
        assert_eq!(plain.stats, flushed.stats);
        assert_eq!(plain.events_fired + entries, flushed.events_fired);
        assert!(
            flushed.bind_cache.invalidations > plain.bind_cache.invalidations
                && flushed.bind_cache.misses > plain.bind_cache.misses,
            "flushed {:?} vs plain {:?}",
            flushed.bind_cache,
            plain.bind_cache
        );
    }

    #[test]
    fn traced_run_commits_spans_and_telemetry() {
        use crate::spec::TraceSettings;
        use crate::trace_report::page_breakdown;
        let mut input = small_input(40);
        input.spec = input
            .spec
            .with_trace(TraceSettings::full())
            .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
        let report = run_experiment(input);
        let data = report.trace.expect("tracing enabled");
        // Full tracing commits one trace per completed measured request.
        let measured = data.traces.iter().filter(|t| t.meta.measured).count() as u64;
        assert_eq!(measured, report.completed);
        // The recorder's windows ride along: 150 s horizon at a 5 s window,
        // WAN traffic on the edge legs.
        let rec = &report.metrics.expect("metrics armed").recorder;
        assert_eq!(rec.rows().len(), 30);
        let wan_bytes: u64 = rec
            .counter_names()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.starts_with("wan.") && n.ends_with(".bytes"))
            .map(|(i, _)| rec.rows().iter().map(|r| r.counters[i]).sum::<u64>())
            .sum();
        assert!(wan_bytes > 0);

        // Critical-path attribution: the centralized config keeps every
        // crossing on the LAN (no logical WAN RTs), but remote clients ride
        // the WAN for the HTTP leg — one critical-path round trip and
        // ~200 ms of WAN propagation the local group doesn't pay.
        let rows = page_breakdown(&data);
        let find = |group: &str| {
            rows.iter()
                .find(|r| r.group == group && r.page == "Item")
                .unwrap()
        };
        let remote = find("remote1");
        let local = find("local");
        assert_eq!(remote.wan_rts_logical, 0.0);
        assert!(remote.wan_rts_critical >= 1.0, "{remote:?}");
        assert!(remote.wan_propagation_ms > 150.0, "{remote:?}");
        assert_eq!(local.wan_rts_critical, 0.0, "{local:?}");
        assert!(remote.mean_ms - local.mean_ms > 350.0);
        // The decomposition covers the response time it explains.
        let parts = remote.wan_propagation_ms
            + remote.serialization_ms
            + remote.queueing_ms
            + remote.service_ms
            + remote.db_ms
            + remote.delay_ms;
        assert!(
            (parts - remote.mean_ms).abs() < remote.mean_ms * 0.05,
            "parts {parts:.1} vs mean {:.1}",
            remote.mean_ms
        );
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        use crate::spec::TraceSettings;
        let plain = run_experiment(small_input(41));
        assert!(plain.trace.is_none());
        let mut traced_input = small_input(41);
        traced_input.spec = traced_input.spec.with_trace(TraceSettings::full());
        let traced = run_experiment(traced_input);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.bind_totals, traced.bind_totals);
        assert_eq!(plain.staleness_ms, traced.staleness_ms);
    }

    #[test]
    fn head_sampling_commits_a_fraction_plus_slow_outliers() {
        use crate::spec::TraceSettings;
        let mut full_input = small_input(42);
        full_input.spec = full_input.spec.with_trace(TraceSettings::full());
        let full = run_experiment(full_input);
        let mut sampled_input = small_input(42);
        sampled_input.spec = sampled_input.spec.with_trace(TraceSettings::sampled(10));
        let sampled = run_experiment(sampled_input);
        let n_full = full.trace.unwrap().traces.len();
        let n_sampled = sampled.trace.unwrap().traces.len();
        assert!(n_sampled < n_full / 5, "{n_sampled} vs {n_full}");
        assert!(n_sampled > n_full / 20, "{n_sampled} vs {n_full}");
    }

    /// A link at exactly `WAN_LATENCY_THRESHOLD` is LAN for every
    /// judgement: the region split merges its ends, traced hops across it
    /// carry `wan: false`, and the recorder registers no `wan.*` series.
    #[test]
    fn a_link_at_the_wan_threshold_is_lan_everywhere() {
        use crate::spec::TraceSettings;
        use mutsvc_desim::trace::SpanKind;
        let mut input = small_input_over(43, mutsvc_netsim::WAN_LATENCY_THRESHOLD);
        let regions = input.topology.regions();
        assert!(regions.iter().all(|&r| r == 0), "one region: {regions:?}");
        assert_eq!(input.topology.min_wan_latency(), None);
        let edge_leg = link_index(&input, "edge1->router");
        input.spec = input
            .spec
            .with_trace(TraceSettings::full())
            .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
        let report = run_experiment(input);

        let traces = report.trace.expect("tracing enabled").traces;
        let hops: Vec<bool> = traces
            .iter()
            .flat_map(|t| &t.spans)
            .filter_map(|s| match s.kind {
                SpanKind::Hop { link, wan, .. } if link == edge_leg => Some(wan),
                _ => None,
            })
            .collect();
        assert!(!hops.is_empty(), "remote clients cross the edge leg");
        assert!(hops.iter().all(|&wan| !wan), "a 20 ms hop is not WAN");

        let rec = &report.metrics.expect("metrics armed").recorder;
        let wan_series = rec
            .counter_names()
            .iter()
            .chain(rec.gauge_names())
            .filter(|n| n.starts_with("wan."))
            .count();
        assert_eq!(wan_series, 0);
    }

    #[test]
    fn span_logs_are_byte_identical_per_seed() {
        use crate::spec::TraceSettings;
        use crate::trace_report::jsonl;
        let run = |seed| {
            let mut input = small_input(seed);
            input.spec = input.spec.with_trace(TraceSettings::full());
            jsonl(&run_experiment(input).trace.unwrap())
        };
        let a = run(43);
        let b = run(43);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, run(44));
    }

    #[test]
    fn writes_invalidate_cached_plans() {
        // Buyer commits write the inventory/orders tables; Item plans read
        // the item table (untouched), but any plan reading a written table
        // must drop. With the default mix the run must see invalidations
        // while still mostly hitting.
        let report = run_experiment(small_input(32));
        assert!(report.bind_cache.hits > 0);
        assert!(report.bind_cache.misses > 0, "writes must miss");
    }

    // ---- fault injection ---------------------------------------------------

    use crate::spec::{FaultPolicy, FaultSettings};
    use mutsvc_desim::fault::{FaultEvent, FaultKind, FaultSchedule};

    fn link_index(input: &ExperimentInput, name: &str) -> u32 {
        input
            .topology
            .link_ids()
            .find(|&l| input.topology.link(l).name == name)
            .unwrap_or_else(|| panic!("no link {name}"))
            .index() as u32
    }

    fn node_index(input: &ExperimentInput, name: &str) -> u32 {
        input.topology.node_by_name(name).expect(name).index() as u32
    }

    fn sec(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// The two directed WAN legs between edge1 and the router cut for
    /// `[down, up)` — the driver-test equivalent of a main-link partition.
    fn wan_partition(input: &ExperimentInput, down: u64, up: u64) -> FaultSchedule {
        let out = link_index(input, "edge1->router");
        let back = link_index(input, "router->edge1");
        FaultSchedule::scripted(vec![
            FaultEvent {
                at: sec(down),
                kind: FaultKind::LinkDown { link: out },
            },
            FaultEvent {
                at: sec(down),
                kind: FaultKind::LinkDown { link: back },
            },
            FaultEvent {
                at: sec(up),
                kind: FaultKind::LinkRestore { link: out },
            },
            FaultEvent {
                at: sec(up),
                kind: FaultKind::LinkRestore { link: back },
            },
        ])
    }

    /// Satellite (a): a configured-but-empty fault policy leaves stats,
    /// traces and metrics windows byte-identical to a run without the
    /// subsystem.
    #[test]
    fn fault_off_runs_are_byte_identical() {
        use crate::spec::TraceSettings;
        use crate::trace_report::jsonl;
        let run = |with_policy: bool| {
            let mut input = small_input(51);
            input.spec = input
                .spec
                .with_trace(TraceSettings::full())
                .with_metrics(MetricsSettings::windowed(sec(5)));
            if with_policy {
                // An armed policy and a non-default timeout — but no
                // scheduled episode — must change nothing.
                input.spec = input.spec.with_faults(FaultSettings {
                    schedule: FaultSchedule::none(),
                    timeout: SimDuration::from_millis(123),
                    policy: FaultPolicy::resilient(),
                });
            }
            run_experiment(input)
        };
        let plain = run(false);
        let armed = run(true);
        assert_eq!(plain.stats, armed.stats);
        assert_eq!(plain.completed, armed.completed);
        assert_eq!(plain.bind_totals, armed.bind_totals);
        assert_eq!(plain.events_fired, armed.events_fired);
        assert!(plain.metrics.is_some());
        assert_eq!(plain.metrics, armed.metrics, "metrics windows identical");
        let (pt, at) = (plain.trace.unwrap(), armed.trace.unwrap());
        assert_eq!(jsonl(&pt), jsonl(&at), "span logs byte-identical");
    }

    #[test]
    fn wan_partition_fails_remote_requests_only() {
        use crate::spec::TraceSettings;
        use crate::trace_report::jsonl;
        let mut input = small_input(52);
        let schedule = wan_partition(&input, 60, 100);
        input.spec = input
            .spec
            .with_trace(TraceSettings::full())
            .with_faults(FaultSettings {
                schedule,
                timeout: sec(2),
                policy: FaultPolicy::none(),
            });
        let report = run_experiment(input);
        let local = report.stats.outcome("local").unwrap();
        let remote = report.stats.outcome("remote1").unwrap();
        assert_eq!(local.availability(), 1.0, "{local:?}");
        assert!(remote.failed > 0, "{remote:?}");
        // 40 s of a 120 s window dark, give or take requests in flight at
        // the boundaries.
        assert!(
            (0.5..0.9).contains(&remote.availability()),
            "remote availability {}",
            remote.availability()
        );
        let log = jsonl(&report.trace.unwrap());
        assert!(log.contains("\"kind\":\"fault\""), "fault spans exported");
        assert!(log.contains("\"link\":\"edge1->router\""));
    }

    #[test]
    fn retry_policy_rides_out_a_short_outage() {
        // A 5 s blip against an 8 s-capped backoff: with retries every
        // affected request eventually lands; without them each one dies.
        let run = |policy: FaultPolicy| {
            let mut input = small_input(53);
            let schedule = wan_partition(&input, 60, 65);
            input.spec = input.spec.with_faults(FaultSettings {
                schedule,
                timeout: sec(2),
                policy,
            });
            run_experiment(input)
        };
        let none = run(FaultPolicy::none());
        let retry = run(FaultPolicy {
            failover: false,
            stale_serve: false,
            ..FaultPolicy::resilient()
        });
        let n = none.stats.outcome("remote1").unwrap();
        let r = retry.stats.outcome("remote1").unwrap();
        assert!(n.failed > 0, "{n:?}");
        assert!(r.retries > 0, "{r:?}");
        assert!(
            r.availability() > n.availability(),
            "retry {} vs none {}",
            r.availability(),
            n.availability()
        );
        assert_eq!(r.availability(), 1.0, "{r:?}");
    }

    /// A Pet Store variant whose remote group enters through the edge server
    /// (remote-façade style web tier), so an edge crash has somewhere to
    /// fail over *from*.
    fn edge_entry_input(seed: u64) -> ExperimentInput {
        let mut input = small_input(seed);
        let (app, registry, db) = App::petstore(true);
        let components = match &app {
            App::PetStore(ps) => ps.components,
            App::Rubis(_) => unreachable!(),
        };
        let main = input.topology.node_by_name("main").unwrap();
        let dbn = input.topology.node_by_name("db").unwrap();
        let edge = input.topology.node_by_name("edge1").unwrap();
        let mut b = DescriptorBuilder::new(&registry, "facade", dbn);
        b.central_node(main);
        for c in components.all() {
            b.place(c, main);
        }
        for c in components.edge_session_components() {
            b.place_replicated(c, main, [edge]);
        }
        input.descriptor = b.build().unwrap();
        for g in &mut input.spec.groups {
            if g.name != "local" {
                g.entry_node = edge;
            }
        }
        input.app = app;
        input.registry = registry;
        input.db = db;
        input
    }

    #[test]
    fn entry_crash_fails_over_to_central_when_policy_allows() {
        let run = |failover: bool| {
            let mut input = edge_entry_input(54);
            let edge = node_index(&input, "edge1");
            input.spec = input.spec.with_faults(FaultSettings {
                schedule: FaultSchedule::scripted(vec![
                    FaultEvent {
                        at: sec(50),
                        kind: FaultKind::NodeCrash { node: edge },
                    },
                    FaultEvent {
                        at: sec(110),
                        kind: FaultKind::NodeRestart { node: edge },
                    },
                ]),
                timeout: sec(2),
                policy: FaultPolicy {
                    failover,
                    stale_serve: false,
                    max_retries: 0,
                },
            });
            run_experiment(input)
        };
        let with = run(true);
        let without = run(false);
        let w = with.stats.outcome("remote1").unwrap();
        let wo = without.stats.outcome("remote1").unwrap();
        assert!(w.failovers > 0, "{w:?}");
        assert_eq!(wo.failovers, 0, "{wo:?}");
        // Failover keeps serving through the crash (the edge host still
        // forwards); without it the whole outage is dark.
        assert!(
            w.availability() > wo.availability() + 0.3,
            "with {} vs without {}",
            w.availability(),
            wo.availability()
        );
        assert_eq!(
            with.stats.outcome("local").unwrap().availability(),
            1.0,
            "local group never touches the edge"
        );
    }

    #[test]
    fn lossy_link_failures_are_recovered_by_retries() {
        let run = |policy: FaultPolicy| {
            let mut input = small_input(55);
            let out = link_index(&input, "edge1->router");
            input.spec = input.spec.with_faults(FaultSettings {
                schedule: FaultSchedule::scripted(vec![
                    FaultEvent {
                        at: sec(40),
                        kind: FaultKind::MsgLoss {
                            link: out,
                            probability: 0.02,
                        },
                    },
                    FaultEvent {
                        at: sec(120),
                        kind: FaultKind::MsgLoss {
                            link: out,
                            probability: 0.0,
                        },
                    },
                ]),
                timeout: sec(2),
                policy,
            });
            run_experiment(input)
        };
        let none = run(FaultPolicy::none());
        let retry = run(FaultPolicy {
            failover: false,
            stale_serve: false,
            ..FaultPolicy::resilient()
        });
        let n = none.stats.outcome("remote1").unwrap();
        let r = retry.stats.outcome("remote1").unwrap();
        assert!(n.failed > 0, "losses fail requests: {n:?}");
        assert!(r.retries > 0, "{r:?}");
        assert!(
            r.availability() > n.availability(),
            "retry {} vs none {}",
            r.availability(),
            n.availability()
        );
    }

    #[test]
    fn fault_runs_are_byte_identical_per_seed() {
        use crate::spec::TraceSettings;
        use crate::trace_report::jsonl;
        let run = || {
            let mut input = edge_entry_input(56);
            let edge = node_index(&input, "edge1");
            let schedule = FaultSchedule::scripted(vec![
                FaultEvent {
                    at: sec(45),
                    kind: FaultKind::NodeCrash { node: edge },
                },
                FaultEvent {
                    at: sec(80),
                    kind: FaultKind::NodeRestart { node: edge },
                },
            ]);
            input.spec = input
                .spec
                .with_trace(TraceSettings::full())
                .with_metrics(MetricsSettings::windowed(sec(5)))
                .with_faults(FaultSettings {
                    schedule,
                    timeout: sec(2),
                    policy: FaultPolicy::resilient(),
                });
            run_experiment(input)
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_fired, b.events_fired);
        assert_eq!(a.metrics, b.metrics);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(jsonl(&ta), jsonl(&tb));
    }

    // ---- windowed metrics --------------------------------------------------

    use crate::spec::MetricsSettings;

    #[test]
    fn metrics_do_not_perturb_the_simulation() {
        use crate::spec::TraceSettings;
        use crate::trace_report::jsonl;
        let run = |metrics: bool| {
            let mut input = small_input(58);
            input.spec = input.spec.with_trace(TraceSettings::full());
            if metrics {
                input.spec = input
                    .spec
                    .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
            }
            run_experiment(input)
        };
        let off = run(false);
        let on = run(true);
        assert!(off.metrics.is_none());
        assert!(on.metrics.is_some());
        assert_eq!(off.stats, on.stats);
        assert_eq!(off.completed, on.completed);
        assert_eq!(off.bind_totals, on.bind_totals);
        assert_eq!(off.staleness_ms, on.staleness_ms);
        let (to, tn) = (off.trace.unwrap(), on.trace.unwrap());
        assert_eq!(jsonl(&to), jsonl(&tn), "span logs byte-identical");
    }

    #[test]
    fn metrics_runs_are_identical_per_seed() {
        let run = || {
            let mut input = small_input(61);
            input.spec = input
                .spec
                .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
            run_experiment(input)
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics);
    }

    /// Session timers ride the event queue's timer lane: every window that
    /// closes before the horizon sees one pending issue per session slot
    /// there, so none drifted back into the heap.
    #[test]
    fn session_timers_wait_in_the_timer_lane() {
        let window = SimDuration::from_secs(5);
        let mut input = small_input(59);
        input.spec = input.spec.with_metrics(MetricsSettings::windowed(window));
        let horizon = input.spec.horizon();
        let mut sim = build_sim(input, None);
        let slots = sim.world().sessions.len();
        assert!(slots > 0);
        sim.run_until(horizon);
        let report = drain_report(sim);
        let rec = &report.metrics.expect("metrics armed").recorder;
        let far = rec.gauge_index("engine.queue.far_depth").unwrap();
        let closed: Vec<_> = rec
            .rows()
            .iter()
            .filter(|r| SimTime::ZERO + window.mul_f64((r.index + 1) as f64) < horizon)
            .collect();
        assert_eq!(closed.len(), 29, "150 s horizon at a 5 s window");
        for row in closed {
            assert_eq!(row.gauges[far], slots as f64, "window {}", row.index);
        }
    }

    #[test]
    fn metrics_windows_cover_the_run_and_count_every_request() {
        let mut input = small_input(59);
        input.spec = input
            .spec
            .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(5)));
        let report = run_experiment(input);
        let m = report.metrics.expect("metrics armed");
        let rec = &m.recorder;
        assert!(m.shard_profiles.is_empty(), "sequential run");
        // 150 s horizon at a 5 s window: 30 complete windows.
        assert_eq!(rec.rows().len(), 30);
        // Every completed measured request lands in requests.ok…
        let ok = rec.counter_index("requests.ok").unwrap();
        let total_ok: u64 = rec.rows().iter().map(|r| r.counters[ok]).sum();
        assert_eq!(total_ok, report.completed);
        // …and in exactly one page histogram.
        let hist_total: u64 = rec
            .rows()
            .iter()
            .flat_map(|r| r.hists.iter())
            .map(LogHistogram::total)
            .sum();
        assert_eq!(hist_total, report.completed);
        // The engine self-profile saw at least one Done per completion and
        // exactly one roll per window.
        let done = rec.counter_index("engine.ev.done").unwrap();
        let dones: u64 = rec.rows().iter().map(|r| r.counters[done]).sum();
        assert!(dones >= report.completed, "{dones}");
        let rolls = rec.counter_index("engine.ev.metrics_roll").unwrap();
        for row in rec.rows() {
            assert_eq!(row.counters[rolls], 1, "window {}", row.index);
        }
        // WAN series carried traffic, and the RTT gauge reads the leg's
        // round trip (100 ms each way, no degradation).
        let msgs = rec.counter_index("wan.edge1->router.msgs").unwrap();
        let wan_msgs: u64 = rec.rows().iter().map(|r| r.counters[msgs]).sum();
        assert!(wan_msgs > 0);
        let rtt = rec.gauge_index("wan.edge1->router.rtt_ms").unwrap();
        assert_eq!(rec.rows().last().unwrap().gauges[rtt], 200.0);
    }

    /// The tentpole end-to-end: a PR 5 fault episode drives the SLO burn
    /// rate over threshold, the engine stamps breach and recovery windows,
    /// and the final verdict reflects the outage.
    #[test]
    fn slo_burn_rate_flags_a_wan_partition_and_recovers() {
        use crate::slo::{evaluate, SloEventKind, SloSpec};
        let mut input = small_input(60);
        let schedule = wan_partition(&input, 60, 100);
        input.spec = input
            .spec
            .with_metrics(MetricsSettings::windowed(SimDuration::from_secs(10)))
            .with_faults(FaultSettings {
                schedule,
                timeout: sec(2),
                policy: FaultPolicy::none(),
            });
        let report = run_experiment(input);
        let m = report.metrics.unwrap();

        let slo = SloSpec::new().with_availability(0.999);
        let out = evaluate(&slo, &m.recorder);
        let v = &out.verdicts[0];
        assert!(!v.met, "a 40 s partition must blow 99.9% availability");
        assert!(v.max_burn > 1.0, "max burn {}", v.max_burn);
        let breach = out
            .events
            .iter()
            .find(|e| e.kind == SloEventKind::Breach)
            .expect("breach event");
        let recovery = out
            .events
            .iter()
            .find(|e| e.kind == SloEventKind::Recovery)
            .expect("recovery event");
        assert_eq!(breach.window, 6, "partition starts at 60 s");
        assert!(recovery.window > breach.window);
        assert!(recovery.window <= 12, "heals at 100 s: {}", recovery.window);

        // A latency objective the healthy pages meet easily stays clean.
        let generous = SloSpec::new().page("Item", 10_000.0, 0.5);
        let clean = evaluate(&generous, &m.recorder);
        assert!(clean.all_met());
        assert!(clean.events.is_empty());
    }

    // ---- adaptive placement ------------------------------------------------

    use crate::spec::AdaptiveSettings;

    /// [`edge_entry_input`] with the session tier centralized: only the web
    /// facade is replicated at the edge (the runtime requires the root
    /// component on every entry node, matching its Entry role's
    /// origin-pricing in the model). `ShoppingClientController` and
    /// `ShoppingCart` sit at main — the adaptation the controller can win
    /// by replicating them out when observed conditions drift.
    fn adaptive_input(seed: u64) -> ExperimentInput {
        let mut input = edge_entry_input(seed);
        let (app, registry, db) = App::petstore(true);
        let components = match &app {
            App::PetStore(ps) => ps.components,
            App::Rubis(_) => unreachable!(),
        };
        let main = input.topology.node_by_name("main").unwrap();
        let dbn = input.topology.node_by_name("db").unwrap();
        let edge = input.topology.node_by_name("edge1").unwrap();
        let mut b = DescriptorBuilder::new(&registry, "central-sessions", dbn);
        b.central_node(main);
        for c in components.all() {
            b.place(c, main);
        }
        b.place_replicated(components.web, main, [edge]);
        input.descriptor = b.build().unwrap();
        input.app = app;
        input.registry = registry;
        input.db = db;
        input
    }

    /// Degrades both directed legs of the edge WAN link by `factor` at 40 s.
    fn degrade_edge_link(input: &ExperimentInput, factor: f64) -> FaultSchedule {
        let out = link_index(input, "edge1->router");
        let back = link_index(input, "router->edge1");
        FaultSchedule::scripted(vec![
            FaultEvent {
                at: sec(40),
                kind: FaultKind::LinkDegraded { link: out, factor },
            },
            FaultEvent {
                at: sec(40),
                kind: FaultKind::LinkDegraded { link: back, factor },
            },
        ])
    }

    /// The PR's acceptance scenario at driver scale: a mid-run link
    /// degradation octuples the edge WAN latency; the controller observes
    /// the repriced link through telemetry, migrates work, and the remote
    /// group's response times land strictly better than the frozen
    /// deployment's.
    #[test]
    fn adaptive_controller_migrates_and_helps_under_link_degradation() {
        let run = |adaptive: bool| {
            let mut input = adaptive_input(62);
            let schedule = degrade_edge_link(&input, 8.0);
            input.spec = input
                .spec
                .with_metrics(MetricsSettings::windowed(sec(5)))
                .with_faults(FaultSettings {
                    schedule,
                    timeout: sec(30),
                    policy: FaultPolicy::none(),
                });
            if adaptive {
                input.spec = input.spec.with_adaptive(AdaptiveSettings::every(sec(10)));
            }
            run_experiment(input)
        };
        let on = run(true);
        let off = run(false);

        assert!(off.adaptive.is_none(), "controller-off leaves no log");
        let data = on.adaptive.as_ref().expect("controller-on logs decisions");
        assert!(
            !data.migrations.is_empty(),
            "an 8x degraded edge link must trigger migrations: {data:?}"
        );
        assert!(
            data.rounds
                .iter()
                .all(|r| r.cost_after <= r.cost_before + 1e-6),
            "rounds never commit cost regressions: {:?}",
            data.rounds
        );
        let first = data
            .migrations
            .first()
            .expect("at least one migration logged");
        assert!(first.decided_at >= SimTime::ZERO + sec(40), "{first:?}");
        assert!(first.modeled_gain > 0.0, "{first:?}");

        // The win shows at the session level (pages mix chatty
        // web->controller exchanges, which localize, with entity fetches,
        // which still cross the WAN).
        let on_remote = on
            .stats
            .session_mean_over_groups(&["remote1"], "Browser")
            .unwrap();
        let off_remote = off
            .stats
            .session_mean_over_groups(&["remote1"], "Browser")
            .unwrap();
        assert!(
            on_remote < off_remote,
            "migrating the session tier to the edge clients must beat the \
             frozen deployment: on {on_remote:.0}ms vs off {off_remote:.0}ms"
        );
        assert!(
            on.stats.outcome("remote1").unwrap().availability()
                >= off.stats.outcome("remote1").unwrap().availability(),
            "migration must not cost availability"
        );
    }

    /// Same-seed adaptive runs are byte-identical: span logs, metrics
    /// windows, and the controller's own decision log all replay exactly.
    #[test]
    fn adaptive_runs_are_identical_per_seed() {
        use crate::spec::TraceSettings;
        use crate::trace_report::jsonl;
        let run = || {
            let mut input = adaptive_input(64);
            let schedule = degrade_edge_link(&input, 8.0);
            input.spec = input
                .spec
                .with_trace(TraceSettings::full())
                .with_metrics(MetricsSettings::windowed(sec(5)))
                .with_faults(FaultSettings {
                    schedule,
                    timeout: sec(30),
                    policy: FaultPolicy::none(),
                })
                .with_adaptive(AdaptiveSettings::every(sec(10)));
            run_experiment(input)
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_fired, b.events_fired);
        assert_eq!(a.adaptive, b.adaptive);
        assert!(!a.adaptive.as_ref().unwrap().migrations.is_empty());
        assert_eq!(a.metrics, b.metrics);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(jsonl(&ta), jsonl(&tb));
    }

    /// Without observed drift the controller holds still: the drift floor
    /// separates "the static model disagrees with the deployed descriptor"
    /// (the offline search's business) from "the network changed under us",
    /// so a quiescent adaptive run is indistinguishable from a frozen one.
    #[test]
    fn adaptive_controller_stays_quiescent_without_observed_drift() {
        let run = |adaptive: bool| {
            let mut input = adaptive_input(63);
            input.spec = input.spec.with_metrics(MetricsSettings::windowed(sec(5)));
            if adaptive {
                input.spec = input.spec.with_adaptive(AdaptiveSettings::every(sec(10)));
            }
            run_experiment(input)
        };
        let on = run(true);
        let off = run(false);
        let data = on.adaptive.as_ref().expect("controller armed");
        assert!(
            data.migrations.is_empty(),
            "no observed drift, no migrations: {:?}",
            data.migrations
        );
        assert!(
            data.rounds.len() >= 10,
            "cost trajectory still recorded: {} rounds",
            data.rounds.len()
        );
        assert_eq!(on.stats, off.stats, "a silent controller is invisible");
        assert_eq!(on.completed, off.completed);
    }
}
