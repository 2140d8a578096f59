//! Event scheduler and simulation driver.
//!
//! A [`Simulation`] owns an arbitrary *world* `W` (the mutable state of the
//! model) and a priority queue of events. Events are values of one
//! world-chosen type `E` implementing [`Fire`] — usually a small enum whose
//! variants name everything that can happen in the model (job advancement,
//! request issue timers, completion notifications, control events). The
//! queue stores them by value, so scheduling an event performs **no
//! per-event allocation**: that holds by type, not by convention.
//!
//! Pending events live in a slab-backed two-tier queue: the binary heap only
//! orders small `(time, seq, slot)` keys for the *near* future, payloads sit
//! in a recycled slab, and far-future timers (session think-time clocks, of
//! which an open workload keeps thousands) wait in an unsorted staging list
//! until the horizon reaches them. See [`SlabStore`] for the exactness
//! argument. Engine bookkeeping (metrics rolls, controller ticks) may ride a
//! separate internal side heap that shares the same ordering but stays out
//! of [`QueueDepths`].
//!
//! Determinism: events fire in `(time, insertion sequence)` order regardless
//! of which store holds them, so two runs with the same seed and the same
//! scheduling order are identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// A simulation event: a plain value fired by the scheduler.
///
/// Implementations are usually small enums; firing consumes the value.
pub trait Fire<W>: Sized + 'static {
    /// Applies the event to the world at its scheduled time.
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>);
}

/// An engine-internal event held in the side queue: telemetry rolls,
/// controller ticks — bookkeeping the engine schedules for itself, kept out
/// of the workload store so queue-depth telemetry never observes it (the
/// "observer effect": arming metrics used to shift every `queue.*` gauge by
/// the pending roll event). The `seq` is drawn from the queue's shared
/// counter, so the merged pop order across both stores is exactly the order
/// a single queue would produce.
struct Internal<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Internal<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Internal<E> {}
impl<E> PartialOrd for Internal<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Internal<E> {
    // Reversed so that the BinaryHeap (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A slab-queue heap key: ordering state only, 24 bytes. The payload lives
/// in the slab at `slot`, so sift operations never move event payloads.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    // Reversed so that the BinaryHeap (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The workload store: a near-future heap of small [`Key`]s over a recycled
/// payload slab, plus an unsorted far-future staging list.
///
/// Open workloads keep thousands of session timers pending several simulated
/// seconds out while network events resolve within milliseconds. A single
/// heap makes every hot push/pop sift through all of them; here the heap only
/// holds events below `horizon`, far timers wait unsorted in `far`, and the
/// horizon advances one `epoch` at a time, migrating due events in bulk.
///
/// Exactness: every `far` entry has `time >= horizon` and every `near` entry
/// has `time < horizon` (the horizon only grows), so whenever the near head
/// is below the horizon it is the global `(time, seq)` minimum. Firing order
/// is therefore identical to a single `(time, seq)` heap, event for event.
struct SlabStore<E> {
    near: BinaryHeap<Key>,
    far: Vec<Key>,
    /// Smallest time in `far` (`SimTime::MAX` when empty): lets `settle`
    /// jump the horizon across idle gaps instead of stepping epoch by epoch.
    far_min: SimTime,
    horizon: SimTime,
    epoch: SimDuration,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> SlabStore<E> {
    fn new() -> Self {
        SlabStore {
            near: BinaryHeap::new(),
            far: Vec::new(),
            far_min: SimTime::MAX,
            horizon: SimTime::ZERO,
            epoch: SimDuration::from_millis(500),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let key = Key { time, seq, slot };
        if time < self.horizon {
            self.near.push(key);
        } else {
            self.far_min = self.far_min.min(time);
            self.far.push(key);
        }
    }

    /// Advances the horizon until the near head (if any) is the global
    /// minimum, migrating due far events into the heap.
    fn settle(&mut self) {
        loop {
            match self.near.peek() {
                Some(head) if head.time < self.horizon => return,
                head => {
                    if self.far.is_empty() {
                        return;
                    }
                    let target = head.map_or(self.far_min, |k| k.time.min(self.far_min));
                    self.horizon = self.horizon.max(target) + self.epoch;
                    let horizon = self.horizon;
                    let mut far_min = SimTime::MAX;
                    let near = &mut self.near;
                    self.far.retain(|&key| {
                        if key.time < horizon {
                            near.push(key);
                            false
                        } else {
                            far_min = far_min.min(key.time);
                            true
                        }
                    });
                    self.far_min = far_min;
                }
            }
        }
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.settle();
        self.near.peek().map(|k| (k.time, k.seq))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let key = self.near.pop()?;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("slab slot empty");
        self.free.push(key.slot);
        Some((key.time, event))
    }
}

/// Observed occupancy of the pending-event store, for telemetry snapshots:
/// `near`/`far` are the two tiers of the time-split queue and
/// `slab_slots`/`slab_free` describe the payload slab.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Events inside the horizon (heap-ordered tier).
    pub near: usize,
    /// Events beyond the horizon (unsorted tier).
    pub far: usize,
    /// Allocated payload slots (high-water occupancy).
    pub slab_slots: usize,
    /// Recyclable payload slots.
    pub slab_free: usize,
}

/// The event queue shared between the driver and in-flight events.
struct EventQueue<E> {
    store: SlabStore<E>,
    /// Engine-internal events (metrics rolls, controller ticks) in a side
    /// heap: they fire in exact `(time, seq)` order with workload events but
    /// are invisible to [`EventQueue::depths`], so arming them cannot perturb
    /// `queue.*` telemetry.
    internal: BinaryHeap<Internal<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            store: SlabStore::new(),
            internal: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.store.len() + self.internal.len()
    }

    /// Occupancy of the *workload* store only: engine-internal side-queue
    /// events are bookkeeping, not model state, and reporting them would
    /// make the act of measuring shift the measurement.
    fn depths(&self) -> QueueDepths {
        QueueDepths {
            near: self.store.near.len(),
            far: self.store.far.len(),
            slab_slots: self.store.slots.len(),
            slab_free: self.store.free.len(),
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let main = self.store.peek_key();
        let side = self.internal.peek().map(|i| (i.time, i.seq));
        match (main, side) {
            (Some(a), Some(b)) => Some(a.min(b).0),
            (Some(a), None) => Some(a.0),
            (None, Some(b)) => Some(b.0),
            (None, None) => None,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        // Merge the workload store and the internal side heap by (time, seq):
        // seq values come from one shared counter, so the comparison is total
        // and the merged order is exactly the single-queue order.
        let main = self.store.peek_key();
        let side = self.internal.peek().map(|i| (i.time, i.seq));
        let take_side = match (main, side) {
            (Some(m), Some(s)) => s < m,
            (None, Some(_)) => true,
            _ => false,
        };
        if take_side {
            let i = self.internal.pop().expect("peeked internal event");
            return Some((i.time, i.event));
        }
        self.store.pop()
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.store.push(time, seq, event);
    }

    /// Schedules an engine-internal event on the side heap. Internal events
    /// share the global `(time, seq)` order but stay invisible to
    /// [`EventQueue::depths`].
    fn push_internal(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.internal.push(Internal { time, seq, event });
    }
}

/// Handle given to a firing event for scheduling follow-up events.
///
/// A `Context` exposes the current clock and the event queue, but not the
/// world itself — the world is passed to the event separately, which lets the
/// borrow checker verify that events cannot re-enter the scheduler recursively.
pub struct Context<'a, W, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    world: PhantomData<fn(&mut W)>,
}

impl<'a, W, E> Context<'a, W, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Occupancy of the pending-event store, excluding the event currently
    /// firing. Lets telemetry events observe queue depth mid-run.
    pub fn queue_depths(&self) -> QueueDepths {
        self.queue.depths()
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event at absolute time `at`.
    ///
    /// Events scheduled in the past fire "now" (at the current clock value);
    /// the kernel never moves time backwards.
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push(at, event);
    }

    /// Schedules an event after `delay`.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push(at, event);
    }

    /// Schedules an *engine-internal* event at absolute time `at` (clamped
    /// to now). Internal events fire in the same global `(time, seq)` order
    /// as everything else but are excluded from [`Context::queue_depths`],
    /// so telemetry that samples queue occupancy never observes the engine's
    /// own bookkeeping (metrics rolls, adaptive controller ticks).
    pub fn schedule_internal_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push_internal(at, event);
    }

    /// Schedules an engine-internal event after `delay`. See
    /// [`Context::schedule_internal_at`].
    pub fn schedule_internal_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push_internal(at, event);
    }
}

/// A discrete-event simulation over a world `W` with events `E`.
///
/// ```
/// use mutsvc_desim::{Context, Fire, SimDuration, Simulation};
///
/// /// Adds `n` to the counter; a `Bump(1)` also schedules a `Bump(10)`.
/// struct Bump(u32);
///
/// impl Fire<u32> for Bump {
///     fn fire(self, count: &mut u32, ctx: &mut Context<'_, u32, Bump>) {
///         *count += self.0;
///         if self.0 == 1 {
///             ctx.schedule_event_in(SimDuration::from_millis(5), Bump(10));
///         }
///     }
/// }
///
/// let mut sim = Simulation::with_events(0u32);
/// sim.schedule_event_in(SimDuration::from_millis(5), Bump(1));
/// sim.run();
/// assert_eq!(*sim.world(), 11);
/// assert_eq!(sim.now().as_millis_f64(), 10.0);
/// ```
pub struct Simulation<W, E> {
    world: W,
    clock: SimTime,
    queue: EventQueue<E>,
    events_fired: u64,
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Simulation<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("world", &self.world)
            .field("clock", &self.clock)
            .field("pending", &self.queue.len())
            .field("events_fired", &self.events_fired)
            .finish()
    }
}

impl<W, E: Fire<W>> Simulation<W, E> {
    /// Creates a simulation over `world` whose clock starts at
    /// [`SimTime::ZERO`] and whose events are of type `E`.
    pub fn with_events(world: W) -> Self {
        Simulation {
            world,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            events_fired: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Occupancy of the pending-event store (see [`QueueDepths`]).
    pub fn queue_depths(&self) -> QueueDepths {
        self.queue.depths()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event at absolute time `at` (clamped to the clock).
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.clock);
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` from now.
    pub fn schedule_event_in(&mut self, delay: SimDuration, event: E) {
        let at = self.clock + delay;
        self.queue.push(at, event);
    }

    /// Schedules an engine-internal event at absolute time `at` (clamped to
    /// the clock): same global firing order, invisible to
    /// [`Simulation::queue_depths`]. See [`Context::schedule_internal_at`].
    pub fn schedule_internal_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.clock);
        self.queue.push_internal(at, event);
    }

    /// Schedules an engine-internal event `delay` from now. See
    /// [`Context::schedule_internal_at`].
    pub fn schedule_internal_in(&mut self, delay: SimDuration, event: E) {
        let at = self.clock + delay;
        self.queue.push_internal(at, event);
    }

    /// Fires the single earliest pending event.
    ///
    /// Returns `false` when the queue is empty (the clock does not advance).
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            time >= self.clock,
            "event queue produced an event in the past"
        );
        self.clock = time;
        self.events_fired += 1;
        let mut ctx = Context {
            now: self.clock,
            queue: &mut self.queue,
            world: PhantomData,
        };
        event.fire(&mut self.world, &mut ctx);
        true
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event lies strictly after
    /// `deadline`. Events exactly at `deadline` fire. On return the clock is
    /// `max(clock, deadline)` if any events remain, so repeated calls advance.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(head) = self.queue.peek_time() {
            if head > deadline {
                self.clock = self.clock.max(deadline);
                return;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline);
    }

    /// Runs until the queue is empty or the next event lies at or after
    /// `deadline`: the half-open window `[clock, deadline)`. Events exactly
    /// at `deadline` do *not* fire — they belong to the next window. On
    /// return the clock is `max(clock, deadline)`, so repeated calls advance.
    ///
    /// Conservative parallel windows are built from this: a shard advancing
    /// through `[w·L, (w+1)·L)` must leave events at the window boundary to
    /// the next window, where freshly delivered cross-shard messages with
    /// the same timestamp can still be ordered ahead of them by `seq`.
    pub fn run_before(&mut self, deadline: SimTime) {
        while let Some(head) = self.queue.peek_time() {
            if head >= deadline {
                break;
            }
            self.step();
        }
        self.clock = self.clock.max(deadline);
    }

    /// Sets the far-horizon migration epoch of the two-tier slab store.
    ///
    /// The epoch only affects *when* far-future events migrate into the
    /// near heap, never their firing order (see [`SlabStore`]'s exactness
    /// invariant), so changing it is behaviour-neutral. Deriving it from the
    /// topology's minimum WAN link delay makes the far-queue horizon and the
    /// conservative-parallel lookahead share one source of truth.
    pub fn set_far_epoch(&mut self, epoch: SimDuration) {
        self.queue.store.epoch = epoch.max(SimDuration::from_micros(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    /// The test world: a log of `(fired at µs, tag)` pairs.
    type Log = Vec<(u64, u64)>;

    /// Test events over a [`Log`] world.
    #[derive(Debug)]
    enum Ev {
        /// Append `(now, tag)` to the log.
        Mark(u64),
        /// Log `tag`, then schedule `Mark(next)` `delay` later.
        Then {
            tag: u64,
            delay: SimDuration,
            next: u64,
        },
        /// Schedule `Mark(tag)` at absolute time `at` (possibly in the past).
        MarkAt { at: SimTime, tag: u64 },
    }

    impl Fire<Log> for Ev {
        fn fire(self, log: &mut Log, ctx: &mut Context<'_, Log, Self>) {
            match self {
                Ev::Mark(tag) => log.push((ctx.now().as_micros(), tag)),
                Ev::Then { tag, delay, next } => {
                    log.push((ctx.now().as_micros(), tag));
                    ctx.schedule_event_in(delay, Ev::Mark(next));
                }
                Ev::MarkAt { at, tag } => ctx.schedule_event_at(at, Ev::Mark(tag)),
            }
        }
    }

    fn log_sim() -> Simulation<Log, Ev> {
        Simulation::with_events(Vec::new())
    }

    fn tags(log: &Log) -> Vec<u64> {
        log.iter().map(|&(_, tag)| tag).collect()
    }

    /// Test event over a counter world.
    #[derive(Debug)]
    struct Tick;

    impl Fire<u32> for Tick {
        fn fire(self, count: &mut u32, _: &mut Context<'_, u32, Self>) {
            *count += 1;
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = log_sim();
        for &t in &[30u64, 10, 20] {
            sim.schedule_event_at(SimTime::from_millis(t), Ev::Mark(t));
        }
        sim.run();
        assert_eq!(tags(sim.world()), vec![10, 20, 30]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut sim = log_sim();
        for i in 0..5 {
            sim.schedule_event_at(SimTime::from_millis(7), Ev::Mark(i));
        }
        sim.run();
        assert_eq!(tags(sim.world()), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = log_sim();
        sim.schedule_event_at(
            SimTime::from_millis(1),
            Ev::Then {
                tag: 0,
                delay: SimDuration::from_millis(2),
                next: 1,
            },
        );
        sim.run();
        assert_eq!(sim.world(), &vec![(1_000, 0), (3_000, 1)]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn scheduling_in_the_past_fires_now() {
        let mut sim = log_sim();
        // Deliberately "in the past": fires at the current clock instead.
        sim.schedule_event_at(
            SimTime::from_millis(10),
            Ev::MarkAt {
                at: SimTime::from_millis(1),
                tag: 7,
            },
        );
        sim.run();
        assert_eq!(sim.world(), &vec![(10_000, 7)]);
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let mut sim = Simulation::with_events(0u32);
        for t in 1..=10u64 {
            sim.schedule_event_at(SimTime::from_secs(t), Tick);
        }
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(*sim.world(), 7);
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn run_before_excludes_the_deadline() {
        let mut sim = Simulation::with_events(0u32);
        for t in 1..=10u64 {
            sim.schedule_event_at(SimTime::from_secs(t), Tick);
        }
        sim.run_before(SimTime::from_secs(4));
        // Events strictly before 4 s fire; the 4 s event waits.
        assert_eq!(*sim.world(), 3);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_before(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 3, "repeat call at same deadline is a no-op");
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(*sim.world(), 4, "run_until picks up the boundary event");
        sim.run();
        assert_eq!(*sim.world(), 10);
    }

    /// Windowed execution (run_before at every boundary, run_until at the
    /// end) fires the exact same sequence as one run_until, for any epoch.
    #[test]
    fn windowed_execution_matches_run_until() {
        fn run(windows: Option<u64>, epoch_us: Option<u64>) -> Log {
            let mut sim = log_sim();
            if let Some(us) = epoch_us {
                sim.set_far_epoch(SimDuration::from_micros(us));
            }
            let mut x = 42u64;
            for i in 0..300u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let at = SimTime::ZERO + SimDuration::from_micros(x % 5_000_000);
                sim.schedule_event_at(at, Ev::Mark(i));
            }
            let horizon = SimTime::from_secs(5);
            match windows {
                Some(n) => {
                    for k in 1..n {
                        sim.run_before(SimTime::from_micros(5_000_000 * k / n));
                    }
                    sim.run_until(horizon);
                }
                None => sim.run_until(horizon),
            }
            sim.into_world()
        }
        let reference = run(None, None);
        assert_eq!(reference, run(Some(7), None));
        assert_eq!(reference, run(Some(50), Some(100_000)));
        assert_eq!(reference, run(Some(3), Some(4_000_000)));
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        let mut sim = Simulation::<u32, Tick>::with_events(0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn step_on_empty_queue_returns_false() {
        let mut sim = Simulation::<u32, Tick>::with_events(0);
        assert!(!sim.step());
    }

    #[test]
    fn deterministic_under_repetition() {
        fn run_once() -> Log {
            let mut sim = log_sim();
            for i in 0..100u64 {
                // Interleave identical timestamps to stress tie-breaking.
                sim.schedule_event_at(SimTime::from_micros(i % 7), Ev::Mark(i));
            }
            sim.run();
            sim.into_world()
        }
        assert_eq!(run_once(), run_once());
    }

    /// The two-tier slab store fires in exactly the order of a single
    /// `(time, seq)` heap, including events far beyond the horizon epoch,
    /// re-scheduling from inside events, and (time) ties broken by seq. The
    /// reference is a plain `BinaryHeap` that replays the same scheduling
    /// calls, so the store's exactness stays pinned without a second layout.
    #[test]
    fn slab_store_fires_in_single_heap_order() {
        /// Whether tag `tag` schedules follow-ups when it fires: both near
        /// (sub-epoch) and far (multi-epoch); the guard keeps follow-ups
        /// from cascading forever.
        fn follows(tag: u64) -> bool {
            tag < 400 && tag.is_multiple_of(5)
        }
        const NEAR: SimDuration = SimDuration::from_millis(3);
        const FAR: SimDuration = SimDuration::from_secs(7);

        #[derive(Debug)]
        struct Scramble(u64);
        impl Fire<Log> for Scramble {
            fn fire(self, log: &mut Log, ctx: &mut Context<'_, Log, Self>) {
                log.push((ctx.now().as_micros(), self.0));
                if follows(self.0) {
                    ctx.schedule_event_in(NEAR, Scramble(self.0 + 1_000));
                    ctx.schedule_event_in(FAR, Scramble(self.0 + 2_000));
                }
            }
        }

        // A deterministic scramble of times spanning many 500 ms epochs,
        // with deliberate exact-time collisions to stress seq ordering.
        let mut initial: Vec<(SimTime, u64)> = Vec::new();
        let mut x = 9_876_543_210u64;
        for i in 0..400u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let at = SimTime::ZERO + SimDuration::from_micros(x % 20_000_000);
            initial.push((at, i));
            if i % 7 == 0 {
                initial.push((at, i + 500));
            }
        }

        let mut sim = Simulation::with_events(Vec::new());
        for &(at, tag) in &initial {
            sim.schedule_event_at(at, Scramble(tag));
        }
        sim.run();
        let fired = sim.into_world();

        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<_>, at: SimTime, tag: u64| {
            heap.push(Reverse((at, seq, tag)));
            seq += 1;
        };
        for &(at, tag) in &initial {
            push(&mut heap, at, tag);
        }
        let mut reference: Log = Vec::new();
        while let Some(Reverse((at, _, tag))) = heap.pop() {
            reference.push((at.as_micros(), tag));
            if follows(tag) {
                push(&mut heap, at + NEAR, tag + 1_000);
                push(&mut heap, at + FAR, tag + 2_000);
            }
        }

        assert_eq!(fired.len(), 400 + 58 + 2 * 80);
        assert_eq!(fired, reference, "slab store must fire in heap order");
    }

    /// Internal side-queue events interleave with workload events in exact
    /// insertion order at equal times, but never appear in the telemetry
    /// depth snapshot — scheduling one cannot shift a `queue.*` gauge.
    #[test]
    fn internal_events_order_globally_but_hide_from_depths() {
        #[derive(Debug)]
        struct Push(u64);
        impl Fire<Vec<u64>> for Push {
            fn fire(self, world: &mut Vec<u64>, ctx: &mut Context<'_, Vec<u64>, Self>) {
                world.push(self.0);
                if self.0 == 10 {
                    // Internal events can re-arm themselves from a firing.
                    ctx.schedule_internal_in(SimDuration::from_millis(1), Push(11));
                }
            }
        }
        let mut sim = Simulation::<Vec<u64>, Push>::with_events(Vec::new());
        let t = SimTime::from_millis(5);
        sim.schedule_event_at(t, Push(0));
        sim.schedule_internal_at(t, Push(10));
        sim.schedule_event_at(t, Push(1));
        let bare = sim.queue_depths();
        assert_eq!(bare.near + bare.far, 2, "internal event hidden from depths");
        assert_eq!(sim.pending_events(), 3, "but counted as pending");
        sim.run();
        assert_eq!(sim.world(), &vec![0, 10, 1, 11]);
        assert_eq!(sim.events_fired(), 4);
    }

    /// Queue-depth telemetry reads identically whether or not an internal
    /// event is pending, before and during the run.
    #[test]
    fn arming_an_internal_event_does_not_perturb_depths() {
        let run = |armed: bool| {
            let mut sim = Simulation::<u32, Tick>::with_events(0);
            for t in 1..=20u64 {
                sim.schedule_event_at(SimTime::from_millis(t), Tick);
            }
            if armed {
                sim.schedule_internal_at(SimTime::from_millis(7), Tick);
            }
            let depths = sim.queue_depths();
            sim.run_until(SimTime::from_millis(3));
            (depths, sim.queue_depths())
        };
        let (d_off, m_off) = run(false);
        let (d_on, m_on) = run(true);
        assert_eq!(d_off, d_on, "pre-run depths must not see the arm");
        assert_eq!(m_off, m_on, "mid-run depths must not see the arm");
    }
}
