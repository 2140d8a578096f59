//! Deterministic request tracing: span trees over simulated time.
//!
//! A [`Tracer`] collects one span tree per traced page request. Spans carry
//! sim-clock timestamps only — no wall clock anywhere — and trace IDs are
//! derived from `(client, per-client sequence)`, so two runs with the same
//! seed and configuration produce bit-identical traces regardless of host,
//! thread count, or wall-clock jitter.
//!
//! The tracer sits in the `desim` layer because it is pure bookkeeping over
//! [`SimTime`]: higher layers (the network job engine, the workload driver)
//! decide *what* to record and feed timestamps in. Disabled tracing costs a
//! single branch at each instrumentation site: [`Tracer::start_request`]
//! returns `None` and every downstream site checks an `Option<SpanCtx>`
//! that is statically `None` for the whole run.
//!
//! ## Span model
//!
//! ```text
//! Request                    root, one per traced page request
//! └── Program                the bound step program executing the page
//!     ├── Cpu{node}          one CPU service slice (wait + service)
//!     ├── Hop{link}          one link traversal (queue + serialize + propagate)
//!     ├── Delay              a pure think/latency step
//!     ├── Note{name}         instant annotation (bind counters, cache hits)
//!     └── Branch             one arm of a Parallel step (recursive)
//! ```
//!
//! Detached `Fork` work (asynchronous cache pushes) is *not* traced: it can
//! outlive the request that spawned it, and the paper's response-time tables
//! exclude it by construction. A `Note` records that a fork was launched.
//!
//! ## Sampling
//!
//! Head sampling keeps 1-in-N requests (the period [`Tracer::new`] takes),
//! plus every request slower than the slowest committed so far. Every
//! request therefore starts a tentative trace; an unsampled one that does
//! not set a new maximum is discarded at completion and its buffer reused.

use crate::time::{SimDuration, SimTime};

/// Sentinel parent id for root spans.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span describes. Leaf payloads carry enough to attribute time
/// without consulting the simulation again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanKind {
    /// Root: one page request from issue to completion.
    Request,
    /// A step program executing on behalf of the request.
    Program,
    /// One arm of a `Parallel` step.
    Branch,
    /// A CPU service slice on `node`; span duration = queueing + service.
    Cpu {
        /// Node index the slice ran on.
        node: u32,
        /// Pure service time (demand scaled by node speed), microseconds.
        service_us: u64,
    },
    /// One traversal of a link; span duration = queueing + serialization
    /// + propagation.
    Hop {
        /// Link index traversed.
        link: u32,
        /// Payload bytes serialized onto the link.
        bytes: u64,
        /// One-way propagation delay, microseconds.
        propagation_us: u64,
        /// Serialization (transmission) time, microseconds.
        serialization_us: u64,
        /// Whether the link is a wide-area leg.
        wan: bool,
    },
    /// A pure delay step (think time, fixed latencies).
    Delay,
    /// Instant annotation: a named counter observed at one instant.
    Note {
        /// Annotation name (static so spans stay `Copy`).
        name: &'static str,
        /// Observed value.
        value: u64,
    },
    /// An injected-fault encounter: the request hit a downed link, lost
    /// message or crashed node and waited out the failure-detection timeout.
    /// Span duration covers the timeout wait.
    Fault {
        /// Directed-link index hit (`u32::MAX` when the fault was a node).
        link: u32,
        /// Node index hit (`u32::MAX` when the fault was a link).
        node: u32,
    },
    /// A retry wait: the policy layer backing off before re-issuing the
    /// request. Span duration is the backoff delay.
    Retry {
        /// 1-based retry attempt number.
        attempt: u32,
        /// Whether this attempt failed over to the central server.
        failover: bool,
    },
}

impl SpanKind {
    /// Short stable label used by exporters.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Program => "program",
            SpanKind::Branch => "branch",
            SpanKind::Cpu { .. } => "cpu",
            SpanKind::Hop { .. } => "hop",
            SpanKind::Delay => "delay",
            SpanKind::Note { .. } => "note",
            SpanKind::Fault { .. } => "fault",
            SpanKind::Retry { .. } => "retry",
        }
    }
}

/// One node in a span tree. Spans are stored in creation order and
/// `id` is the index into the owning trace's span vector.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of this span within its trace.
    pub id: u32,
    /// Parent span index, or [`NO_PARENT`] for the root.
    pub parent: u32,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed. Equal to `start` for instant spans; set by
    /// [`Tracer::close_span`] / [`Tracer::finish_request`] for containers.
    pub end: SimTime,
    /// Payload.
    pub kind: SpanKind,
}

impl Span {
    /// Span duration (zero for instants and unclosed spans).
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Handle to an open span inside an active trace. Held by in-flight work
/// (the driver's inflight slot, the job engine's job slots) and passed back
/// into [`Tracer`] calls. Copy, 8 bytes: cheap to thread through job state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    slot: u32,
    span: u32,
}

/// Request-level metadata attached to a trace at start and enriched as the
/// bind resolves. Kept index-based (`u32` node ids, group index) so the
/// desim layer stays ignorant of topology types; exporters resolve names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceMeta {
    /// Page label (interned static string from the application model).
    pub label: &'static str,
    /// Client-group index in the workload spec.
    pub group: u32,
    /// Client node index.
    pub client: u32,
    /// Entry (first middleware) node index.
    pub entry: u32,
    /// Whether the request started inside the measured window.
    pub measured: bool,
    /// Logical WAN round trips per the binder's crossing list (static
    /// accounting, excludes sampled protocol chatter). Filled in by
    /// [`Tracer::set_logical_wan`] once the bind resolves; `f64::NAN`
    /// until then.
    pub wan_rts_logical: f64,
}

/// A committed span tree.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// Deterministic id: `client << 32 | per-client sequence`.
    pub trace_id: u64,
    /// Request metadata.
    pub meta: TraceMeta,
    /// Spans in creation order; `spans[i].id == i`.
    pub spans: Vec<Span>,
    /// Root span duration.
    pub duration: SimDuration,
}

struct ActiveTrace {
    trace_id: u64,
    meta: TraceMeta,
    spans: Vec<Span>,
    start: SimTime,
    sampled: bool,
}

/// Collects span trees for sampled requests. See module docs.
#[derive(Debug)]
pub struct Tracer {
    /// Master switch. When false every instrumentation site is one branch.
    enabled: bool,
    /// Keep 1-in-N requests (head sampling). `1` keeps everything.
    sample_every: u64,
    /// Per-client trace sequence numbers (index = client node id).
    client_seq: Vec<u32>,
    /// Global request counter driving head sampling.
    requests_seen: u64,
    active: Vec<Option<ActiveTrace>>,
    free: Vec<u32>,
    /// Recycled span buffers from discarded tentative traces.
    pool: Vec<Vec<Span>>,
    committed: Vec<CompletedTrace>,
    slowest: SimDuration,
    dropped: u64,
}

impl std::fmt::Debug for ActiveTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTrace")
            .field("trace_id", &self.trace_id)
            .field("spans", &self.spans.len())
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer that head-samples 1-in-`sample_every` requests
    /// (`1` keeps everything) and always keeps the slowest so far.
    pub fn new(sample_every: u64) -> Self {
        Tracer {
            enabled: true,
            sample_every: sample_every.max(1),
            client_seq: Vec::new(),
            requests_seen: 0,
            active: Vec::new(),
            free: Vec::new(),
            pool: Vec::new(),
            committed: Vec::new(),
            slowest: SimDuration::ZERO,
            dropped: 0,
        }
    }

    /// A tracer that never records (the hot-path default).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(1)
        }
    }

    /// Whether tracing is on at all. The one branch on the hot path.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Begins a trace for one page request. Returns `None` only when
    /// tracing is disabled: an unsampled request still gets a tentative
    /// trace, committed only if it turns out slower than every trace so
    /// far. `meta.wan_rts_logical` should start as `f64::NAN` and be filled
    /// via [`Tracer::set_logical_wan`].
    pub fn start_request(&mut self, now: SimTime, meta: TraceMeta) -> Option<SpanCtx> {
        if !self.enabled {
            return None;
        }
        let seq_in_run = self.requests_seen;
        self.requests_seen += 1;
        let sampled = seq_in_run.is_multiple_of(self.sample_every);
        let client = meta.client as usize;
        if self.client_seq.len() <= client {
            self.client_seq.resize(client + 1, 0);
        }
        let seq = self.client_seq[client];
        self.client_seq[client] += 1;
        let trace_id = (u64::from(meta.client) << 32) | u64::from(seq);
        let mut spans = self.pool.pop().unwrap_or_default();
        spans.clear();
        spans.push(Span {
            id: 0,
            parent: NO_PARENT,
            start: now,
            end: now,
            kind: SpanKind::Request,
        });
        let trace = ActiveTrace {
            trace_id,
            meta,
            spans,
            start: now,
            sampled,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.active[slot as usize] = Some(trace);
                slot
            }
            None => {
                self.active.push(Some(trace));
                (self.active.len() - 1) as u32
            }
        };
        Some(SpanCtx { slot, span: 0 })
    }

    fn trace_mut(&mut self, ctx: SpanCtx) -> &mut ActiveTrace {
        self.active[ctx.slot as usize]
            .as_mut()
            .expect("span context references a finished trace")
    }

    /// Opens a container span under `ctx` and returns a context pointing at
    /// the new span. Close it with [`Tracer::close_span`].
    pub fn open_span(&mut self, ctx: SpanCtx, now: SimTime, kind: SpanKind) -> SpanCtx {
        let trace = self.trace_mut(ctx);
        let id = trace.spans.len() as u32;
        trace.spans.push(Span {
            id,
            parent: ctx.span,
            start: now,
            end: now,
            kind,
        });
        SpanCtx {
            slot: ctx.slot,
            span: id,
        }
    }

    /// Closes the span `ctx` points at.
    pub fn close_span(&mut self, ctx: SpanCtx, now: SimTime) {
        let span = ctx.span as usize;
        let trace = self.trace_mut(ctx);
        trace.spans[span].end = now;
    }

    /// Records an already-closed leaf span (CPU slice, link hop, delay)
    /// under `ctx`.
    pub fn leaf(&mut self, ctx: SpanCtx, start: SimTime, end: SimTime, kind: SpanKind) {
        let trace = self.trace_mut(ctx);
        let id = trace.spans.len() as u32;
        trace.spans.push(Span {
            id,
            parent: ctx.span,
            start,
            end,
            kind,
        });
    }

    /// Records an instant annotation under `ctx`.
    pub fn note(&mut self, ctx: SpanCtx, now: SimTime, name: &'static str, value: u64) {
        self.leaf(ctx, now, now, SpanKind::Note { name, value });
    }

    /// Fills the statically-derived WAN round-trip count for the request.
    pub fn set_logical_wan(&mut self, ctx: SpanCtx, round_trips: f64) {
        self.trace_mut(ctx).meta.wan_rts_logical = round_trips;
    }

    /// Completes the request: closes the root span, then either commits the
    /// trace (head-sampled, or slower than the slowest committed so far) or
    /// recycles its buffer. Returns whether the trace was committed.
    pub fn finish_request(&mut self, ctx: SpanCtx, now: SimTime) -> bool {
        let slot = ctx.slot as usize;
        let mut trace = self.active[slot]
            .take()
            .expect("finish_request on a finished trace");
        self.free.push(ctx.slot);
        trace.spans[0].end = now;
        let duration = now.saturating_since(trace.start);
        let keep = trace.sampled || duration > self.slowest;
        if keep {
            if duration > self.slowest {
                self.slowest = duration;
            }
            self.committed.push(CompletedTrace {
                trace_id: trace.trace_id,
                meta: trace.meta,
                spans: trace.spans,
                duration,
            });
        } else {
            self.dropped += 1;
            self.pool.push(trace.spans);
        }
        keep
    }

    /// Committed traces in completion order.
    pub fn finished(&self) -> &[CompletedTrace] {
        &self.committed
    }

    /// Takes ownership of the committed traces.
    pub fn take_finished(&mut self) -> Vec<CompletedTrace> {
        std::mem::take(&mut self.committed)
    }

    /// Requests observed while enabled (sampled or not).
    pub fn requests_seen(&self) -> u64 {
        self.requests_seen
    }

    /// Tentative traces discarded by sampling.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Traces currently in flight.
    pub fn in_flight(&self) -> usize {
        self.active.iter().filter(|t| t.is_some()).count()
    }
}

/// Response-time decomposition along the critical path of one trace.
///
/// The critical path follows the span tree from the root; at each
/// `Parallel` join it descends into the branch that finished last. Detached
/// forks never appear (they are not traced). All buckets are sums over
/// leaf spans on that path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathBreakdown {
    /// One-way propagation over wide-area links.
    pub wan_propagation: SimDuration,
    /// One-way propagation over local links.
    pub lan_propagation: SimDuration,
    /// Serialization (transmission) time on all links.
    pub serialization: SimDuration,
    /// Waiting for link capacity.
    pub link_queueing: SimDuration,
    /// Waiting for CPU capacity on non-database nodes.
    pub cpu_queueing: SimDuration,
    /// Pure CPU service on non-database nodes.
    pub service: SimDuration,
    /// Total time on database nodes (service plus queueing).
    pub db_time: SimDuration,
    /// Pure delay steps (fixed protocol latencies on the path).
    pub delay: SimDuration,
    /// WAN round trips on the critical path (0.5 per WAN hop traversed).
    pub wan_round_trips: f64,
    /// Root span duration (>= sum of buckets; slack is join overlap).
    pub total: SimDuration,
}

impl PathBreakdown {
    /// Merges another breakdown into this one (for averaging over traces).
    pub fn accumulate(&mut self, other: &PathBreakdown) {
        self.wan_propagation += other.wan_propagation;
        self.lan_propagation += other.lan_propagation;
        self.serialization += other.serialization;
        self.link_queueing += other.link_queueing;
        self.cpu_queueing += other.cpu_queueing;
        self.service += other.service;
        self.db_time += other.db_time;
        self.delay += other.delay;
        self.wan_round_trips += other.wan_round_trips;
        self.total += other.total;
    }
}

/// Decomposes one completed trace along its critical path.
///
/// `is_db_node` classifies node indices; time on database nodes lands in
/// [`PathBreakdown::db_time`] wholesale (the paper's tables fold DB
/// queueing into "database time").
pub fn critical_path(
    trace: &CompletedTrace,
    mut is_db_node: impl FnMut(u32) -> bool,
) -> PathBreakdown {
    // children[i] lists child span ids of span i, in creation order.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); trace.spans.len()];
    for span in &trace.spans[1..] {
        children[span.parent as usize].push(span.id);
    }
    let mut out = PathBreakdown {
        total: trace.duration,
        ..PathBreakdown::default()
    };
    walk(trace, &children, 0, &mut is_db_node, &mut out);
    out
}

fn walk(
    trace: &CompletedTrace,
    children: &[Vec<u32>],
    span_id: u32,
    is_db_node: &mut impl FnMut(u32) -> bool,
    out: &mut PathBreakdown,
) {
    let kids = &children[span_id as usize];
    let mut i = 0;
    while i < kids.len() {
        let span = &trace.spans[kids[i] as usize];
        match span.kind {
            SpanKind::Cpu { node, service_us } => {
                let service = SimDuration::from_micros(service_us);
                if is_db_node(node) {
                    out.db_time += span.duration();
                } else {
                    out.service += service;
                    out.cpu_queueing += span.duration().saturating_sub(service);
                }
                i += 1;
            }
            SpanKind::Hop {
                wan,
                propagation_us,
                serialization_us,
                ..
            } => {
                let prop = SimDuration::from_micros(propagation_us);
                let ser = SimDuration::from_micros(serialization_us);
                if wan {
                    out.wan_propagation += prop;
                    out.wan_round_trips += 0.5;
                } else {
                    out.lan_propagation += prop;
                }
                out.serialization += ser;
                out.link_queueing += span.duration().saturating_sub(prop + ser);
                i += 1;
            }
            SpanKind::Delay => {
                out.delay += span.duration();
                i += 1;
            }
            // Fault timeouts and retry backoffs are policy waits, not
            // network or CPU time: fold them into the delay bucket so the
            // decomposition still sums toward the root duration.
            SpanKind::Fault { .. } | SpanKind::Retry { .. } => {
                out.delay += span.duration();
                i += 1;
            }
            SpanKind::Note { .. } => {
                i += 1;
            }
            SpanKind::Program => {
                walk(trace, children, span.id, is_db_node, out);
                i += 1;
            }
            SpanKind::Branch => {
                // Consecutive Branch children are the arms of one Parallel
                // step (spawned together); the join waits for the slowest,
                // so the critical path descends into the latest-ending arm.
                let mut longest = span.id;
                let mut latest_end = span.end;
                let mut j = i + 1;
                while j < kids.len() {
                    let next = &trace.spans[kids[j] as usize];
                    if !matches!(next.kind, SpanKind::Branch) {
                        break;
                    }
                    if next.end > latest_end {
                        latest_end = next.end;
                        longest = next.id;
                    }
                    j += 1;
                }
                walk(trace, children, longest, is_db_node, out);
                i = j;
            }
            SpanKind::Request => {
                // Requests never nest; ignore defensively.
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn meta(client: u32) -> TraceMeta {
        TraceMeta {
            label: "Page",
            group: 0,
            client,
            entry: 1,
            measured: true,
            wan_rts_logical: f64::NAN,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(t.start_request(us(0), meta(3)).is_none());
        assert!(t.finished().is_empty());
        assert_eq!(t.requests_seen(), 0);
    }

    #[test]
    fn trace_ids_derive_from_client_and_sequence() {
        let mut t = Tracer::new(1);
        for i in 0..3 {
            let ctx = t.start_request(us(i), meta(7)).unwrap();
            t.finish_request(ctx, us(i + 1));
        }
        let ctx = t.start_request(us(9), meta(2)).unwrap();
        t.finish_request(ctx, us(10));
        let ids: Vec<u64> = t.finished().iter().map(|tr| tr.trace_id).collect();
        assert_eq!(
            ids,
            vec![7 << 32, (7 << 32) | 1, (7 << 32) | 2, 2 << 32],
            "ids are (client << 32) | per-client seq"
        );
    }

    #[test]
    fn head_sampling_keeps_one_in_n() {
        let mut t = Tracer::new(4);
        for i in 0..16 {
            let ctx = t.start_request(us(i), meta(0)).unwrap();
            t.finish_request(ctx, us(i + 1));
        }
        // Equal durations never set a new maximum, so only the head
        // samples commit.
        assert_eq!(t.finished().len(), 4);
        assert_eq!(t.dropped(), 12);
        assert_eq!(t.requests_seen(), 16);
    }

    #[test]
    fn slowest_so_far_commits_regressions_only() {
        let mut t = Tracer::new(u64::MAX);
        // First request is always sampled (seq 0); durations then ratchet.
        let durations = [10u64, 5, 20, 15, 30];
        let mut now = 0;
        for d in durations {
            let ctx = t.start_request(us(now), meta(0)).unwrap();
            t.finish_request(ctx, us(now + d));
            now += 100;
        }
        let kept: Vec<u64> = t
            .finished()
            .iter()
            .map(|tr| tr.duration.as_micros())
            .collect();
        assert_eq!(kept, vec![10, 20, 30], "only new maxima commit");
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn span_tree_shape_and_closure() {
        let mut t = Tracer::new(1);
        let root = t.start_request(us(0), meta(0)).unwrap();
        let prog = t.open_span(root, us(0), SpanKind::Program);
        t.leaf(
            prog,
            us(0),
            us(5),
            SpanKind::Cpu {
                node: 1,
                service_us: 4,
            },
        );
        t.note(prog, us(5), "bind.remote_invocations", 3);
        t.close_span(prog, us(5));
        t.set_logical_wan(root, 1.0);
        assert!(t.finish_request(root, us(6)));
        let tr = &t.finished()[0];
        assert_eq!(tr.spans.len(), 4);
        assert_eq!(tr.spans[0].parent, NO_PARENT);
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[2].parent, 1);
        assert_eq!(tr.spans[0].duration(), SimDuration::from_micros(6));
        assert_eq!(tr.meta.wan_rts_logical, 1.0);
    }

    /// Builds: request → program → [cpu 10us(6 service), wan hop, branch
    /// pair where the longer branch holds a db cpu slice, delay].
    fn sample_trace() -> CompletedTrace {
        let mut t = Tracer::new(1);
        let root = t.start_request(us(0), meta(0)).unwrap();
        let prog = t.open_span(root, us(0), SpanKind::Program);
        t.leaf(
            prog,
            us(0),
            us(10),
            SpanKind::Cpu {
                node: 1,
                service_us: 6,
            },
        );
        t.leaf(
            prog,
            us(10),
            us(130),
            SpanKind::Hop {
                link: 0,
                bytes: 2_000,
                propagation_us: 100,
                serialization_us: 15,
                wan: true,
            },
        );
        let short = t.open_span(prog, us(130), SpanKind::Branch);
        t.leaf(short, us(130), us(140), SpanKind::Delay);
        t.close_span(short, us(140));
        let long = t.open_span(prog, us(130), SpanKind::Branch);
        t.leaf(
            long,
            us(130),
            us(160),
            SpanKind::Cpu {
                node: 9,
                service_us: 20,
            },
        );
        t.close_span(long, us(160));
        t.leaf(prog, us(160), us(170), SpanKind::Delay);
        t.close_span(prog, us(170));
        t.finish_request(root, us(170));
        t.take_finished().pop().unwrap()
    }

    #[test]
    fn critical_path_attributes_buckets() {
        let tr = sample_trace();
        let bd = critical_path(&tr, |node| node == 9);
        assert_eq!(bd.service, SimDuration::from_micros(6));
        assert_eq!(bd.cpu_queueing, SimDuration::from_micros(4));
        assert_eq!(bd.wan_propagation, SimDuration::from_micros(100));
        assert_eq!(bd.serialization, SimDuration::from_micros(15));
        assert_eq!(bd.link_queueing, SimDuration::from_micros(5));
        assert_eq!(bd.wan_round_trips, 0.5);
        // The longer branch wins: db time 30us, the 10us delay arm is off
        // the critical path; only the trailing 10us delay counts.
        assert_eq!(bd.db_time, SimDuration::from_micros(30));
        assert_eq!(bd.delay, SimDuration::from_micros(10));
        assert_eq!(bd.total, SimDuration::from_micros(170));
    }

    #[test]
    fn slot_reuse_keeps_traces_separate() {
        let mut t = Tracer::new(1);
        let a = t.start_request(us(0), meta(0)).unwrap();
        t.finish_request(a, us(1));
        let b = t.start_request(us(2), meta(0)).unwrap();
        let prog = t.open_span(b, us(2), SpanKind::Program);
        t.close_span(prog, us(3));
        t.finish_request(b, us(3));
        assert_eq!(t.finished().len(), 2);
        assert_eq!(t.finished()[0].spans.len(), 1);
        assert_eq!(t.finished()[1].spans.len(), 2);
        assert_eq!(t.in_flight(), 0);
    }
}
