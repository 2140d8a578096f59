//! Request execution: compiled step programs and their event-driven executor.
//!
//! Higher layers compile a page request (or an update propagation) into a
//! small program of [`Step`]s. The executor drives the program through the
//! network's CPU and link queues, scheduling one event per step boundary so
//! that resource admissions happen at the correct simulated times.
//!
//! * [`Step::Parallel`] runs branches concurrently and **blocks** until all
//!   complete — the synchronous (zero-staleness) update push of the paper's
//!   §4.3 is a `Parallel` over per-edge-server pushes.
//! * [`Step::Fork`] detaches a branch — the asynchronous JMS propagation of
//!   §4.5. The fork consumes CPU and link resources but does not delay the
//!   response; its completion is reported to the world for staleness
//!   accounting.
//!
//! ## Execution model
//!
//! A program is one `Arc<[Step]>`, and so is every branch of a
//! [`Step::Parallel`] or [`Step::Fork`]: a cached plan replayed by many
//! requests, a one-shot bind and a spawned branch all share their steps
//! instead of copying them. In-flight requests live in a [`Jobs`] slab owned
//! by the world: each job holds its program, a step cursor and the
//! in-progress message phase. Step boundaries are driven by the plain-enum
//! [`NetEvent::Advance`] event, and a job's completion is a typed world event
//! fired when its program ends — so steady-state execution performs **zero**
//! per-event allocations and no per-continuation captures of step vectors or
//! routes. [`advance_job`] updates the cursor and phase in the job's slot;
//! a job moves out of its slot only to complete, and each message hop looks
//! its route up once.

use std::sync::Arc;

use mutsvc_desim::sim::{Context, Fire};
use mutsvc_desim::time::{SimDuration, SimTime};
use mutsvc_desim::trace::{SpanCtx, SpanKind, Tracer};

use crate::network::Network;
use crate::topology::NodeId;

/// One primitive operation in a request program.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Consume CPU time on a node.
    Cpu {
        /// Hosting node.
        node: NodeId,
        /// Service demand (at relative speed 1.0).
        demand: SimDuration,
    },
    /// One-way message.
    Transfer {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Payload size.
        bytes: u64,
    },
    /// A request/response round trip (`a → b → a`).
    Exchange {
        /// Initiator.
        a: NodeId,
        /// Responder.
        b: NodeId,
        /// Bytes sent `a → b`.
        req_bytes: u64,
        /// Bytes sent `b → a`.
        resp_bytes: u64,
    },
    /// Pure waiting (e.g. user think time inside a composite job).
    Delay(SimDuration),
    /// Run branches concurrently; continue when **all** have completed.
    Parallel(Vec<Arc<[Step]>>),
    /// Detach a branch: it consumes resources but the parent continues
    /// immediately. `tag` is reported to [`JobWorld::fork_completed`].
    Fork {
        /// The detached program.
        steps: Arc<[Step]>,
        /// Correlation tag for staleness accounting.
        tag: Option<u64>,
    },
}

impl Step {
    /// CPU work helper.
    pub fn cpu(node: NodeId, demand: SimDuration) -> Step {
        Step::Cpu { node, demand }
    }

    /// One-way transfer helper.
    pub fn transfer(from: NodeId, to: NodeId, bytes: u64) -> Step {
        Step::Transfer { from, to, bytes }
    }

    /// Round-trip helper.
    pub fn exchange(a: NodeId, b: NodeId, req_bytes: u64, resp_bytes: u64) -> Step {
        Step::Exchange {
            a,
            b,
            req_bytes,
            resp_bytes,
        }
    }

    /// Total CPU demand contained in this step (recursing into branches).
    pub fn total_cpu(&self) -> SimDuration {
        match self {
            Step::Cpu { demand, .. } => *demand,
            Step::Parallel(branches) => branches
                .iter()
                .flat_map(|branch| branch.iter())
                .map(Step::total_cpu)
                .sum(),
            Step::Fork { steps, .. } => steps.iter().map(Step::total_cpu).sum(),
            _ => SimDuration::ZERO,
        }
    }
}

/// Identifies an in-flight job in the world's [`Jobs`] slab.
pub type JobId = u32;

/// The executor's pooled event payload: a plain enum, stored by value in the
/// `mutsvc-desim` queue with no per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// Resume the job at its cursor / message phase.
    Advance {
        /// The job to resume.
        job: JobId,
    },
}

impl<W: JobWorld<Event = NetEvent>> Fire<W> for NetEvent {
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>) {
        match self {
            NetEvent::Advance { job } => advance_job(world, ctx, job),
        }
    }
}

/// What to do when a job's program (excluding forked branches) completes.
enum JobDone<W: JobWorld> {
    /// Fire a world event (synchronously, at the completion instant).
    Event(W::Event),
    /// This job is a `Parallel` branch of `parent`.
    Join { parent: JobId },
    /// This job is a detached `Fork` branch.
    Fork { tag: Option<u64> },
}

/// Progress of the message (if any) the job is currently transmitting.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Executing steps at the cursor.
    Steps,
    /// Mid-message: `hop` links of the `from → to` route already crossed.
    /// `respond` carries the pending return leg of an [`Step::Exchange`].
    Send {
        from: NodeId,
        to: NodeId,
        bytes: u64,
        hop: usize,
        respond: Option<(NodeId, NodeId, u64)>,
    },
}

struct Job<W: JobWorld> {
    steps: Arc<[Step]>,
    cursor: usize,
    phase: Phase,
    done: JobDone<W>,
    /// Outstanding `Parallel` branches (only while blocked on a join).
    join_remaining: usize,
    /// Open trace span for this job, when the spawning request is traced.
    /// `None` for untraced requests: every instrumentation site below is
    /// then a single predictable branch.
    trace: Option<SpanCtx>,
    /// The job hit an injected fault (downed link, lost message, crashed
    /// node). Set together with a timeout-delayed resume; on resume the job
    /// completes immediately, skipping its remaining steps, and the failure
    /// propagates to join parents and the completion hooks.
    failed: bool,
}

/// Slab of in-flight jobs. Slots are recycled through a free list, so a
/// steady-state workload reuses the same allocations run-long.
pub struct Jobs<W: JobWorld> {
    slots: Vec<Option<Job<W>>>,
    free: Vec<JobId>,
}

impl<W: JobWorld> Jobs<W> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Jobs {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of jobs currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn alloc(&mut self, job: Job<W>) -> JobId {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(job);
            id
        } else {
            self.slots.push(Some(job));
            (self.slots.len() - 1) as JobId
        }
    }

    fn get_mut(&mut self, id: JobId) -> &mut Job<W> {
        self.slots[id as usize].as_mut().expect("job not in flight")
    }

    /// Moves a finished job out of its slot and recycles the slot.
    fn release(&mut self, id: JobId) -> Job<W> {
        let job = self.slots[id as usize].take().expect("job not in flight");
        self.free.push(id);
        job
    }
}

impl<W: JobWorld> Default for Jobs<W> {
    fn default() -> Self {
        Jobs::new()
    }
}

/// The world-side contract required by the executor.
pub trait JobWorld: Sized + 'static {
    /// The simulation's event payload type. Worlds that only run jobs use
    /// [`NetEvent`] directly; richer drivers wrap it in their own enum and
    /// dispatch `Advance` back to [`advance_job`].
    type Event: Fire<Self> + From<NetEvent> + 'static;

    /// The live network carrying this world's traffic.
    fn network_mut(&mut self) -> &mut Network;

    /// The slab of in-flight jobs.
    fn jobs_mut(&mut self) -> &mut Jobs<Self>;

    /// Called when a tagged [`Step::Fork`] branch finishes (e.g. an
    /// asynchronous update push has been applied everywhere).
    fn fork_completed(&mut self, _tag: u64, _at: SimTime) {}

    /// Called when a tagged [`Step::Fork`] branch hits an injected fault and
    /// never delivers — a dropped asynchronous push. The world should leave
    /// the target replica stale (and detectably so), not silently fresh.
    fn fork_failed(&mut self, _tag: u64, _at: SimTime) {}

    /// Called just before a failed job's `done` event fires (forks report
    /// through [`Self::fork_failed`]). Drivers use this to mark the in-flight
    /// request as failed for their retry/availability accounting.
    fn job_failed(&mut self) {}

    /// How long a requester waits before treating a lost message or a call
    /// to a crashed node as failed (the RMI timeout of the fault model).
    fn fault_timeout(&self) -> SimDuration {
        SimDuration::from_secs(5)
    }

    /// The world's tracer, when it has one. The executor only consults this
    /// for jobs spawned with a span context, so worlds without tracing pay
    /// nothing beyond the `Option` check on `Job::trace`.
    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        None
    }
}

/// Starts executing `steps` now; the `done` event fires (synchronously, as
/// if scheduled at the completion instant) when the program (excluding forked
/// branches) completes. A shared plan plus an enum completion event touch the
/// heap zero times per request in steady state.
///
/// With a `parent` span the job's resource usage is attributed to an open
/// trace: a `Program` span is opened under `parent` and every CPU slice, link
/// hop and delay the job performs is recorded as a child leaf.
pub fn spawn_program<W: JobWorld>(
    world: &mut W,
    ctx: &mut Context<'_, W, W::Event>,
    steps: Arc<[Step]>,
    done: W::Event,
    parent: Option<SpanCtx>,
) {
    spawn(world, ctx, steps, JobDone::Event(done), parent);
}

fn spawn<W: JobWorld>(
    world: &mut W,
    ctx: &mut Context<'_, W, W::Event>,
    steps: Arc<[Step]>,
    done: JobDone<W>,
    parent: Option<SpanCtx>,
) {
    // Detached forks are never traced: they can outlive the request (whose
    // trace buffer is recycled at completion) and are off the response path
    // by construction.
    let kind = match done {
        JobDone::Join { .. } => Some(SpanKind::Branch),
        JobDone::Fork { .. } => None,
        JobDone::Event(_) => Some(SpanKind::Program),
    };
    let trace = match (parent, kind) {
        (Some(p), Some(kind)) => {
            let now = ctx.now();
            world.tracer_mut().map(|t| t.open_span(p, now, kind))
        }
        _ => None,
    };
    let id = world.jobs_mut().alloc(Job {
        steps,
        cursor: 0,
        phase: Phase::Steps,
        done,
        join_remaining: 0,
        trace,
        failed: false,
    });
    advance_job(world, ctx, id);
}

/// Resumes job `id`: crosses pending message hops, then executes steps from
/// the cursor until the job blocks on a resource, completes, or joins.
///
/// The job stays in its [`Jobs`] slot while it advances: each step updates
/// the cursor and phase in place, and the job moves out only to complete.
pub fn advance_job<W: JobWorld>(world: &mut W, ctx: &mut Context<'_, W, W::Event>, id: JobId) {
    // A failed job resumes exactly once — from the timeout scheduled at the
    // fault site (or a join whose failed branch already absorbed it) — and
    // completes immediately, skipping its remaining steps.
    if world.jobs_mut().get_mut(id).failed {
        complete(world, ctx, id);
        return;
    }
    loop {
        let job = world.jobs_mut().get_mut(id);
        let trace = job.trace;
        if let Phase::Send {
            from,
            to,
            bytes,
            hop,
            respond,
        } = job.phase
        {
            let next = if from == to {
                None
            } else {
                world.network_mut().route(from, to).get(hop).copied()
            };
            if let Some(link) = next {
                // Admit the next link at the time the message reaches it, so
                // link FIFO order matches causality across long-latency paths.
                {
                    // Fault checks, all single predictable branches when no
                    // faults are active. The destination process is checked
                    // once per leg; links are checked hop by hop (a message
                    // already past a failing hop is store-and-forwarded on).
                    let net = world.network_mut();
                    let dest_down = hop == 0 && !net.node_is_up(to);
                    let link_down = !dest_down && !net.link_is_up(link);
                    let lost = !dest_down && !link_down && net.message_dropped(link);
                    if dest_down || link_down || lost {
                        let (l, n) = if dest_down {
                            (u32::MAX, to.index() as u32)
                        } else {
                            (link.index() as u32, u32::MAX)
                        };
                        fail_job(world, ctx, id, l, n);
                        return;
                    }
                }
                let arrival = world.network_mut().link_send(ctx.now(), link, bytes);
                if let Some(tc) = trace {
                    let now = ctx.now();
                    let net = world.network_mut();
                    let prop = net.link_latency(link);
                    let ser = net.topology().link(link).serialization_time(bytes);
                    let wan = net.topology().is_wan(link);
                    if let Some(t) = world.tracer_mut() {
                        t.leaf(
                            tc,
                            now,
                            arrival,
                            SpanKind::Hop {
                                link: link.index() as u32,
                                bytes,
                                propagation_us: prop.as_micros(),
                                serialization_us: ser.as_micros(),
                                wan,
                            },
                        );
                    }
                }
                world.jobs_mut().get_mut(id).phase = Phase::Send {
                    from,
                    to,
                    bytes,
                    hop: hop + 1,
                    respond,
                };
                ctx.schedule_event_at(arrival, NetEvent::Advance { job: id }.into());
                return;
            }
            // Leg complete. The return leg of an exchange starts only when
            // the request arrives, so its admissions happen at true times.
            world.jobs_mut().get_mut(id).phase = match respond {
                Some((rf, rt, rb)) => Phase::Send {
                    from: rf,
                    to: rt,
                    bytes: rb,
                    hop: 0,
                    respond: None,
                },
                None => Phase::Steps,
            };
            continue;
        }

        let idx = job.cursor;
        job.cursor += 1;
        let Some(step) = job.steps.get(idx).cloned() else {
            complete(world, ctx, id);
            return;
        };
        match step {
            Step::Cpu { node, demand } => {
                if !world.network_mut().node_is_up(node) {
                    fail_job(world, ctx, id, u32::MAX, node.index() as u32);
                    return;
                }
                let completion = world.network_mut().cpu(ctx.now(), node, demand);
                if let Some(tc) = trace {
                    let now = ctx.now();
                    let speed = world.network_mut().topology().node(node).speed;
                    let service = demand.mul_f64(1.0 / speed);
                    if let Some(t) = world.tracer_mut() {
                        t.leaf(
                            tc,
                            now,
                            completion,
                            SpanKind::Cpu {
                                node: node.index() as u32,
                                service_us: service.as_micros(),
                            },
                        );
                    }
                }
                ctx.schedule_event_at(completion, NetEvent::Advance { job: id }.into());
                return;
            }
            Step::Transfer { from, to, bytes } => {
                job.phase = Phase::Send {
                    from,
                    to,
                    bytes,
                    hop: 0,
                    respond: None,
                };
            }
            Step::Exchange {
                a,
                b,
                req_bytes,
                resp_bytes,
            } => {
                job.phase = Phase::Send {
                    from: a,
                    to: b,
                    bytes: req_bytes,
                    hop: 0,
                    respond: Some((b, a, resp_bytes)),
                };
            }
            Step::Delay(d) => {
                if let Some(tc) = trace {
                    let now = ctx.now();
                    if let Some(t) = world.tracer_mut() {
                        t.leaf(tc, now, now + d, SpanKind::Delay);
                    }
                }
                ctx.schedule_event_in(d, NetEvent::Advance { job: id }.into());
                return;
            }
            Step::Parallel(branches) => {
                let live = branches.iter().filter(|b| !b.is_empty());
                let count = live.clone().count();
                if count == 0 {
                    continue;
                }
                // Arm the join *before* spawning: a branch may complete
                // synchronously, and the last one resumes the parent from
                // inside its own advance.
                job.join_remaining = count;
                for branch in live {
                    let branch = Arc::clone(branch);
                    spawn(world, ctx, branch, JobDone::Join { parent: id }, trace);
                }
                // The parent may already have resumed (or completed) via the
                // join path — do not touch it here.
                return;
            }
            Step::Fork { steps, tag } => {
                // Detached: consumes resources but the parent continues
                // immediately after spawning. Forks are not traced (they can
                // outlive the request), but leave an instant marker behind.
                if let Some(tc) = trace {
                    let now = ctx.now();
                    if let Some(t) = world.tracer_mut() {
                        t.note(tc, now, "fork", tag.unwrap_or(0));
                    }
                }
                spawn(world, ctx, steps, JobDone::Fork { tag }, None);
            }
        }
    }
}

/// Marks the job failed and parks it for [`JobWorld::fault_timeout`]: the
/// requester notices a lost message or crashed callee only when its RMI
/// timeout fires. A `Fault` leaf span covering the wait is emitted when
/// traced (`u32::MAX` marks whichever of link/node is not the cause).
fn fail_job<W: JobWorld>(
    world: &mut W,
    ctx: &mut Context<'_, W, W::Event>,
    id: JobId,
    link: u32,
    node: u32,
) {
    let timeout = world.fault_timeout();
    let job = world.jobs_mut().get_mut(id);
    job.failed = true;
    job.phase = Phase::Steps;
    if let Some(tc) = job.trace {
        let now = ctx.now();
        if let Some(t) = world.tracer_mut() {
            t.leaf(tc, now, now + timeout, SpanKind::Fault { link, node });
        }
    }
    ctx.schedule_event_in(timeout, NetEvent::Advance { job: id }.into());
}

/// Recycles the job's slot and fires its completion action.
fn complete<W: JobWorld>(world: &mut W, ctx: &mut Context<'_, W, W::Event>, id: JobId) {
    let job = world.jobs_mut().release(id);
    if let Some(tc) = job.trace {
        let now = ctx.now();
        if let Some(t) = world.tracer_mut() {
            t.close_span(tc, now);
        }
    }
    match job.done {
        JobDone::Event(e) => {
            if job.failed {
                world.job_failed();
            }
            e.fire(world, ctx);
        }
        JobDone::Fork { tag } => {
            if let Some(tag) = tag {
                let now = ctx.now();
                if job.failed {
                    world.fork_failed(tag, now);
                } else {
                    world.fork_completed(tag, now);
                }
            }
        }
        JobDone::Join { parent } => {
            // A failed branch fails the whole parallel step; the parent still
            // waits for its sibling branches, then completes as failed (its
            // own top-of-advance check) without running further steps.
            let p = world.jobs_mut().get_mut(parent);
            if job.failed {
                p.failed = true;
            }
            p.join_remaining -= 1;
            if p.join_remaining == 0 {
                advance_job(world, ctx, parent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use mutsvc_desim::Simulation;

    struct World {
        net: Network,
        jobs: Jobs<World>,
        finished: Vec<(SimTime, &'static str)>,
        forks: Vec<(u64, SimTime)>,
        failed_forks: Vec<(u64, SimTime)>,
        failures: usize,
    }

    /// Test events: the executor's own, a job start, a job completion.
    enum Ev {
        Net(NetEvent),
        /// Spawn the program; the label is logged when it completes.
        Start(Arc<[Step]>, &'static str),
        /// Log the label at the completion instant.
        Done(&'static str),
    }

    impl From<NetEvent> for Ev {
        fn from(e: NetEvent) -> Ev {
            Ev::Net(e)
        }
    }

    impl Fire<World> for Ev {
        fn fire(self, w: &mut World, c: &mut Context<'_, World, Ev>) {
            match self {
                Ev::Net(NetEvent::Advance { job }) => advance_job(w, c, job),
                Ev::Start(steps, label) => spawn_program(w, c, steps, Ev::Done(label), None),
                Ev::Done(label) => {
                    let now = c.now();
                    w.finished.push((now, label));
                }
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
        fn fork_completed(&mut self, tag: u64, at: SimTime) {
            self.forks.push((tag, at));
        }
        fn fork_failed(&mut self, tag: u64, at: SimTime) {
            self.failed_forks.push((tag, at));
        }
        fn job_failed(&mut self) {
            self.failures += 1;
        }
        fn fault_timeout(&self) -> SimDuration {
            SimDuration::from_millis(500)
        }
    }

    /// A `Parallel` step over `branches`.
    fn par(branches: Vec<Vec<Step>>) -> Step {
        Step::Parallel(branches.into_iter().map(Into::into).collect())
    }

    /// A `Fork` step detaching `steps`.
    fn fork(steps: Vec<Step>, tag: Option<u64>) -> Step {
        Step::Fork {
            steps: steps.into(),
            tag,
        }
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn world() -> (World, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let router = b.node("router", 8);
        let edge = b.node("edge", 2);
        b.duplex_link(main, router, ms(10), 1e9);
        b.duplex_link(router, edge, ms(90), 1e9);
        let net = Network::new(b.finalize());
        (
            World {
                net,
                jobs: Jobs::new(),
                finished: Vec::new(),
                forks: Vec::new(),
                failed_forks: Vec::new(),
                failures: 0,
            },
            main,
            router,
            edge,
        )
    }

    fn run(world: World, steps: Vec<Step>) -> World {
        let mut sim = Simulation::with_events(world);
        sim.schedule_event_at(SimTime::ZERO, Ev::Start(steps.into(), "job"));
        sim.run();
        sim.into_world()
    }

    #[test]
    fn sequential_steps_accumulate() {
        let (w, main, _, edge) = world();
        let steps = vec![
            Step::cpu(edge, ms(5)),
            Step::exchange(edge, main, 0, 0), // 200ms RTT
            Step::cpu(edge, ms(5)),
        ];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(210), "job")]);
    }

    #[test]
    fn empty_program_completes_immediately() {
        let (w, ..) = world();
        let w = run(w, Vec::new());
        assert_eq!(w.finished, vec![(at(0), "job")]);
    }

    #[test]
    fn delay_is_pure_waiting() {
        let (w, main, ..) = world();
        let w = run(w, vec![Step::Delay(ms(42)), Step::cpu(main, ms(8))]);
        assert_eq!(w.finished, vec![(at(50), "job")]);
        assert_eq!(w.net.cpu_jobs(main), 1);
    }

    #[test]
    fn parallel_blocks_on_slowest_branch() {
        let (w, main, _, edge) = world();
        let steps = vec![par(vec![
            vec![Step::cpu(main, ms(5))],
            vec![Step::exchange(main, edge, 0, 0)], // 200ms
            vec![Step::Delay(ms(50))],
        ])];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(200), "job")]);
    }

    #[test]
    fn parallel_with_empty_branches_is_noop() {
        let (w, main, ..) = world();
        let steps = vec![par(vec![vec![], vec![]]), Step::cpu(main, ms(3))];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(3), "job")]);
    }

    #[test]
    fn fork_does_not_delay_parent_but_reports() {
        let (w, main, _, edge) = world();
        let steps = vec![
            fork(vec![Step::exchange(main, edge, 0, 0)], Some(7)),
            Step::cpu(main, ms(5)),
        ];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(5), "job")]);
        assert_eq!(w.forks, vec![(7, at(200))]);
    }

    #[test]
    fn untagged_fork_completes_silently() {
        let (w, from, _, edge) = world();
        let steps = vec![
            fork(vec![Step::transfer(from, edge, 100)], None),
            Step::cpu(from, ms(1)),
        ];
        let w = run(w, steps);
        assert!(w.forks.is_empty());
        assert_eq!(w.finished.len(), 1);
    }

    #[test]
    fn nested_parallel_joins_correctly() {
        let (w, _main, _, edge) = world();
        let steps = vec![
            par(vec![
                vec![par(vec![
                    vec![Step::Delay(ms(10))],
                    vec![Step::Delay(ms(30))],
                ])],
                vec![Step::Delay(ms(20))],
            ]),
            Step::cpu(edge, ms(1)),
        ];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(31), "job")]);
    }

    #[test]
    fn exchange_admits_return_leg_on_arrival() {
        let (w, main, _, edge) = world();
        // Two concurrent exchanges: both complete at 200ms (links are fast,
        // no serialization contention at 1 Gbit/s with zero payload).
        let steps = vec![par(vec![
            vec![Step::exchange(edge, main, 0, 0)],
            vec![Step::exchange(edge, main, 0, 0)],
        ])];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(200), "job")]);
    }

    #[test]
    fn total_cpu_recurses() {
        let (_, main, _, edge) = world();
        let step = par(vec![
            vec![Step::cpu(main, ms(5)), Step::cpu(edge, ms(5))],
            vec![fork(vec![Step::cpu(main, ms(7))], None)],
        ]);
        assert_eq!(step.total_cpu(), ms(17));
    }

    #[test]
    fn many_jobs_deterministic() {
        fn once() -> Vec<(SimTime, &'static str)> {
            let (w, main, _, edge) = world();
            let mut sim = Simulation::with_events(w);
            for i in 0..50u64 {
                let steps = vec![
                    Step::cpu(edge, ms(3)),
                    Step::exchange(edge, main, 500, 2_000),
                    Step::cpu(edge, ms(2)),
                ];
                sim.schedule_event_at(SimTime::from_millis(i * 7), Ev::Start(steps.into(), "j"));
            }
            sim.run();
            sim.into_world().finished
        }
        assert_eq!(once(), once());
    }

    /// A downed hop fails the job after the RMI timeout (500ms in this test
    /// world); the message store-and-forwards up to the failing hop first.
    #[test]
    fn downed_link_fails_the_job_after_timeout() {
        let (mut w, main, router, edge) = world();
        let bad = w.net.route(router, main)[0];
        w.net.set_link_up(bad, false);
        let steps = vec![Step::cpu(edge, ms(5)), Step::exchange(edge, main, 0, 0)];
        let w = run(w, steps);
        // cpu done at 5ms, edge→router crossed at 95ms, router→main down:
        // fail at 95ms, complete after the 500ms timeout.
        assert_eq!(w.finished, vec![(at(595), "job")]);
        assert_eq!(w.failures, 1);
    }

    #[test]
    fn restored_link_carries_jobs_again() {
        let (mut w, main, router, edge) = world();
        let bad = w.net.route(router, main)[0];
        w.net.set_link_up(bad, false);
        w.net.set_link_up(bad, true);
        let w = run(w, vec![Step::exchange(edge, main, 0, 0)]);
        assert_eq!(w.finished, vec![(at(200), "job")]);
        assert_eq!(w.failures, 0);
    }

    /// A crashed destination process fails the call at leg start (the
    /// requester's timeout covers the whole unanswered RMI), but the host
    /// still forwards transit traffic: crashing the router does not cut the
    /// edge↔main path.
    #[test]
    fn crashed_destination_fails_but_transit_survives() {
        let (mut w, main, _, edge) = world();
        w.net.set_node_up(main, false);
        let w = run(w, vec![Step::exchange(edge, main, 0, 0)]);
        assert_eq!(w.finished, vec![(at(500), "job")]);
        assert_eq!(w.failures, 1);

        let (mut w, main, router, edge) = world();
        w.net.set_node_up(router, false);
        let w = run(w, vec![Step::exchange(edge, main, 0, 0)]);
        assert_eq!(w.finished, vec![(at(200), "job")]);
        assert_eq!(w.failures, 0);
    }

    #[test]
    fn cpu_on_crashed_node_fails() {
        let (mut w, main, ..) = world();
        w.net.set_node_up(main, false);
        let w = run(w, vec![Step::cpu(main, ms(5))]);
        assert_eq!(w.finished, vec![(at(500), "job")]);
        assert_eq!(w.failures, 1);
    }

    /// A failed branch fails the whole parallel step: the parent waits for
    /// its siblings, then completes as failed without running later steps.
    #[test]
    fn failed_branch_fails_the_parent_join() {
        let (mut w, main, _, edge) = world();
        w.net.set_node_up(main, false);
        let steps = vec![
            par(vec![
                vec![Step::exchange(edge, main, 0, 0)], // fails at 0, done 500
                vec![Step::Delay(ms(50))],
            ]),
            Step::cpu(edge, ms(30)), // skipped: the parent is failed
        ];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(500), "job")]);
        assert_eq!(w.failures, 1);
        assert_eq!(w.net.cpu_jobs(edge), 0);
    }

    /// Runs `steps` from `start`, returning the world once the queue drains.
    fn run_from(world: World, start: SimTime, steps: Vec<Step>) -> World {
        let mut sim = Simulation::with_events(world);
        sim.schedule_event_at(start, Ev::Start(steps.into(), "job"));
        sim.run();
        sim.into_world()
    }

    /// Zero-hop branches complete inside their own spawn, so the last one
    /// resumes the parent from within the spawn loop: the parent must
    /// resume exactly once, at the spawn instant, and every slot must be
    /// recycled.
    #[test]
    fn synchronous_parallel_branches_resume_the_parent_once() {
        let (w, main, _, edge) = world();
        let steps = vec![
            par(vec![
                vec![Step::transfer(main, main, 10)],
                vec![],
                vec![
                    Step::transfer(edge, edge, 0),
                    Step::exchange(main, main, 1, 1),
                ],
            ]),
            Step::cpu(main, ms(5)),
        ];
        let w = run_from(w, at(3), steps);
        assert_eq!(w.finished, vec![(at(8), "job")]);
        assert_eq!(w.net.cpu_jobs(main), 1, "the parent ran its next step once");
        assert_eq!(w.jobs.in_flight(), 0);
    }

    /// The same synchronous join inside a detached fork: the fork's parent
    /// resumes once and reports at the right time, and the request's own
    /// program is not delayed.
    #[test]
    fn synchronous_join_inside_a_fork() {
        let (w, main, _, edge) = world();
        let steps = vec![
            fork(
                vec![
                    par(vec![
                        vec![Step::transfer(edge, edge, 0)],
                        vec![Step::transfer(main, main, 0)],
                    ]),
                    Step::cpu(edge, ms(2)),
                ],
                Some(3),
            ),
            Step::cpu(main, ms(1)),
        ];
        let w = run_from(w, at(10), steps);
        assert_eq!(w.finished, vec![(at(11), "job")]);
        assert_eq!(w.forks, vec![(3, at(12))]);
        assert_eq!(w.net.cpu_jobs(edge), 1, "the fork resumed once");
        assert_eq!(w.jobs.in_flight(), 0);
    }

    /// A hop that fails mid-route inside one branch, next to a branch that
    /// completes synchronously: the parent resumes once, after the failed
    /// branch's timeout, and completes as failed without running on.
    #[test]
    fn failed_hop_inside_a_branch() {
        let (mut w, main, router, edge) = world();
        let bad = w.net.route(router, main)[0];
        w.net.set_link_up(bad, false);
        let steps = vec![
            par(vec![
                vec![Step::transfer(edge, edge, 0)],
                vec![Step::exchange(edge, main, 0, 0)], // fails at 90, done 590
                vec![Step::Delay(ms(50))],
            ]),
            Step::cpu(edge, ms(30)), // skipped: the parent is failed
        ];
        let w = run_from(w, at(0), steps);
        assert_eq!(w.finished, vec![(at(590), "job")]);
        assert_eq!(w.failures, 1);
        assert_eq!(w.net.cpu_jobs(edge), 0);
        assert_eq!(w.jobs.in_flight(), 0);

        // The same failed hop inside a forked branch reports `fork_failed`.
        let (mut w, main, router, edge) = world();
        let bad = w.net.route(router, main)[0];
        w.net.set_link_up(bad, false);
        let steps = vec![
            fork(
                vec![par(vec![
                    vec![Step::transfer(edge, main, 0)],
                    vec![Step::transfer(main, main, 0)],
                ])],
                Some(5),
            ),
            Step::cpu(edge, ms(1)),
        ];
        let w = run_from(w, at(0), steps);
        assert_eq!(w.finished, vec![(at(1), "job")]);
        assert!(w.forks.is_empty());
        assert_eq!(w.failed_forks, vec![(5, at(590))]);
        assert_eq!(w.failures, 0);
        assert_eq!(w.jobs.in_flight(), 0);
    }

    /// A failed detached fork reports through `fork_failed`, not
    /// `fork_completed` — the dropped async push never applies. The parent
    /// is unaffected.
    #[test]
    fn failed_fork_reports_fork_failed() {
        let (mut w, main, _, edge) = world();
        w.net.set_node_up(main, false);
        let steps = vec![
            fork(vec![Step::transfer(edge, main, 100)], Some(9)),
            Step::cpu(edge, ms(1)),
        ];
        let w = run(w, steps);
        assert_eq!(w.finished, vec![(at(1), "job")]);
        assert_eq!(w.failures, 0);
        assert!(w.forks.is_empty());
        assert_eq!(w.failed_forks, vec![(9, at(500))]);
    }

    /// Message loss is checked per send attempt with a deterministic
    /// counter hash: probability 1 drops everything, closing the window
    /// restores delivery without residual state.
    #[test]
    fn lossy_link_drops_then_heals() {
        let (mut w, main, _, edge) = world();
        let first = w.net.route(edge, main)[0];
        w.net.set_link_loss(first, 1.0);
        let w = run(w, vec![Step::exchange(edge, main, 0, 0)]);
        assert_eq!(w.finished, vec![(at(500), "job")]);
        assert_eq!(w.failures, 1);

        let (mut w, main, _, edge) = world();
        let first = w.net.route(edge, main)[0];
        w.net.set_link_loss(first, 1.0);
        w.net.set_link_loss(first, 0.0);
        let w = run(w, vec![Step::exchange(edge, main, 0, 0)]);
        assert_eq!(w.finished, vec![(at(200), "job")]);
        assert_eq!(w.failures, 0);
    }

    #[test]
    fn shared_program_replays_without_cloning_steps() {
        let (w, main, _, edge) = world();
        let plan: Arc<[Step]> = vec![
            Step::cpu(edge, ms(5)),
            Step::exchange(edge, main, 0, 0), // 200ms RTT
            Step::cpu(edge, ms(5)),
        ]
        .into();
        let mut sim = Simulation::with_events(w);
        for i in 0..3u64 {
            sim.schedule_event_at(
                SimTime::from_secs(i),
                Ev::Start(Arc::clone(&plan), "cached"),
            );
        }
        sim.run();
        let w = sim.into_world();
        assert_eq!(
            w.finished,
            vec![
                (SimTime::from_millis(210), "cached"),
                (SimTime::from_millis(1210), "cached"),
                (SimTime::from_millis(2210), "cached"),
            ]
        );
        // All slots recycled once the programs complete, each releasing
        // its share of the plan.
        assert_eq!(w.jobs.in_flight(), 0);
        assert_eq!(Arc::strong_count(&plan), 1);
    }

    #[test]
    fn traced_job_emits_span_tree() {
        use mutsvc_desim::trace::{critical_path, TraceMeta};

        struct TracedWorld {
            net: Network,
            jobs: Jobs<TracedWorld>,
            tracer: Tracer,
            edge: NodeId,
        }
        /// Start a traced request running the steps, or finish its trace.
        enum TracedEv {
            Net(NetEvent),
            Start(Vec<Step>),
            Finish(SpanCtx),
        }
        impl From<NetEvent> for TracedEv {
            fn from(e: NetEvent) -> TracedEv {
                TracedEv::Net(e)
            }
        }
        impl Fire<TracedWorld> for TracedEv {
            fn fire(self, w: &mut TracedWorld, c: &mut Context<'_, TracedWorld, TracedEv>) {
                let now = c.now();
                match self {
                    TracedEv::Net(NetEvent::Advance { job }) => advance_job(w, c, job),
                    TracedEv::Start(steps) => {
                        let meta = TraceMeta {
                            label: "Page",
                            group: 0,
                            client: w.edge.index() as u32,
                            entry: w.edge.index() as u32,
                            measured: true,
                            wan_rts_logical: f64::NAN,
                        };
                        let root = w.tracer.start_request(now, meta).unwrap();
                        let done = TracedEv::Finish(root);
                        spawn_program(w, c, steps.into(), done, Some(root));
                    }
                    TracedEv::Finish(root) => {
                        w.tracer.finish_request(root, now);
                    }
                }
            }
        }
        impl JobWorld for TracedWorld {
            type Event = TracedEv;
            fn network_mut(&mut self) -> &mut Network {
                &mut self.net
            }
            fn jobs_mut(&mut self) -> &mut Jobs<TracedWorld> {
                &mut self.jobs
            }
            fn tracer_mut(&mut self) -> Option<&mut Tracer> {
                Some(&mut self.tracer)
            }
        }

        let mut b = TopologyBuilder::new();
        let main = b.node("main", 2);
        let router = b.node("router", 8);
        let edge = b.node("edge", 2);
        b.duplex_link(main, router, ms(10), 1e9);
        b.duplex_link(router, edge, ms(90), 1e9);
        let w = TracedWorld {
            net: Network::new(b.finalize()),
            jobs: Jobs::new(),
            tracer: Tracer::new(1),
            edge,
        };
        let steps = vec![
            Step::cpu(edge, ms(5)),
            Step::exchange(edge, main, 1_000, 4_000),
            par(vec![vec![Step::Delay(ms(3))], vec![Step::cpu(edge, ms(8))]]),
            fork(vec![Step::transfer(edge, main, 64)], None),
        ];
        let mut sim = Simulation::with_events(w);
        sim.schedule_event_at(SimTime::ZERO, TracedEv::Start(steps));
        sim.run();
        let w = sim.into_world();
        let traces = w.tracer.finished();
        assert_eq!(traces.len(), 1);
        let tr = &traces[0];
        // request + program + cpu + 4 hops (2 each way) + 2 branches with a
        // leaf each + fork note = 11 spans.
        let hops = tr
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Hop { .. }))
            .count();
        assert_eq!(hops, 4, "exchange traverses 2 links each way");
        let wan_hops = tr
            .spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Hop { wan: true, .. }))
            .count();
        assert_eq!(wan_hops, 2, "only the 90ms leg counts as WAN");
        assert!(tr
            .spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::Note { name: "fork", .. })));
        // Fork traffic is excluded from the span tree beyond the note.
        let bd = critical_path(tr, |_| false);
        assert_eq!(bd.wan_round_trips, 1.0);
        // CPU: 5ms then the longer 8ms parallel arm; the 3ms delay arm is
        // off the critical path.
        assert_eq!(bd.service, SimDuration::from_millis(5 + 8));
        assert_eq!(bd.delay, SimDuration::ZERO);
        assert_eq!(bd.wan_propagation, SimDuration::from_millis(180));
        assert_eq!(bd.lan_propagation, SimDuration::from_millis(20));
        assert_eq!(bd.total, tr.duration);
        assert_eq!(w.tracer.in_flight(), 0);
    }
}
