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
//! Pending events live inline in one 4-ary min-heap of `(time, seq, event)`
//! entries plus a FIFO *timer lane*. The lane holds timers scheduled through
//! [`Context::schedule_timer_in`] that come due in the order they were armed
//! — session think-time clocks, each re-armed a fixed delay after the last,
//! of which an open workload keeps thousands — so they never sift through
//! the heap. Each fired heap event costs one pop: its slot keeps its
//! ordering key while the event fires, and the first follow-up event
//! scheduled into the heap takes that slot over with a single sift-down. See
//! `Store` for the exactness argument. Engine bookkeeping (metrics rolls,
//! controller ticks) may ride a separate internal side heap that shares the
//! same ordering but stays out of [`QueueDepths`].
//!
//! Determinism: events fire in `(time, insertion sequence)` order regardless
//! of which store holds them, so two runs with the same seed and the same
//! scheduling order are identical.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::select_unpredictable;
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// A simulation event: a plain value fired by the scheduler.
///
/// Implementations are usually small enums; firing consumes the value.
pub trait Fire<W>: Sized + 'static {
    /// Applies the event to the world at its scheduled time.
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>);
}

/// The `(time, seq)` firing order packed into one integer, so comparing two
/// keys compiles to flag arithmetic and conditional moves, not branches.
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_micros()) << 64) | u128::from(seq)
}

/// A pending event with its ordering key, as the timer lane and the
/// internal side heap hold it. The `seq` is drawn from the queue's shared
/// counter, so the merged pop order across every store is exactly the order
/// a single queue would produce.
struct Timed<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Timed<E> {
    fn key(&self) -> u128 {
        key(self.time, self.seq)
    }
}

impl<E> PartialEq for Timed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Timed<E> {}
impl<E> PartialOrd for Timed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Timed<E> {
    // Reversed so that the BinaryHeap (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Children per heap node. A 4-ary heap is half as deep as a binary one,
/// and the four children a sift-down compares sit side by side.
const ARITY: usize = 4;

/// A pending heap event stored inline: its ordering key and payload.
/// `event` is `None` only in the heap's open slot (the firing head).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

impl<E> Entry<E> {
    fn key(&self) -> u128 {
        key(self.time, self.seq)
    }
}

/// Restores the heap order below `pos` after its entry grew (or was
/// replaced). Which of a full node's four children is smallest is noise to
/// a branch predictor, so a tournament of selects picks it; a partial last
/// node keeps the loop.
fn sift_down<E>(heap: &mut [Entry<E>], mut pos: usize) {
    let Some(entry) = heap.get(pos) else {
        return;
    };
    let key = entry.key();
    loop {
        let first = pos * ARITY + 1;
        let (best, best_key) = match heap.get(first..first + ARITY) {
            Some(c) => {
                let (k0, k1, k2, k3) = (c[0].key(), c[1].key(), c[2].key(), c[3].key());
                let low = select_unpredictable(k1 < k0, (1, k1), (0, k0));
                let high = select_unpredictable(k3 < k2, (3, k3), (2, k2));
                select_unpredictable(high.1 < low.1, high, low)
            }
            // A partial last node, or none below a leaf.
            None => {
                let children = heap.get(first..).unwrap_or_default();
                let keys = children.iter().map(Entry::key).enumerate();
                let Some(best) = keys.min_by_key(|&(_, key)| key) else {
                    return;
                };
                best
            }
        };
        if key < best_key {
            return;
        }
        heap.swap(pos, first + best);
        pos = first + best;
    }
}

/// Restores the heap order above `pos` after an entry was appended there.
fn sift_up<E>(heap: &mut [Entry<E>], mut pos: usize) {
    let key = heap[pos].key();
    while pos > 0 {
        let parent = (pos - 1) / ARITY;
        if heap[parent].key() < key {
            return;
        }
        heap.swap(pos, parent);
        pos = parent;
    }
}

/// The workload store: a d-ary heap of inline entries plus the timer lane.
///
/// Open workloads keep thousands of session timers pending several simulated
/// seconds out while network events resolve within milliseconds. Each timer
/// is re-armed a fixed delay after the event that fires it, so the timers
/// come due in the order they were armed: the lane keeps them in a FIFO, and
/// the heap holds the rest.
///
/// Exactness: a timer joins the lane only when the lane is empty or the
/// timer's time is at or after the lane's last entry. Its seq is fresh, so
/// the lane stays sorted by `(time, seq)` and its front is its minimum. Any
/// other timer goes into the heap. A pop takes the smaller of the heap's
/// head and the lane's front, so firing order is identical to a single
/// `(time, seq)` heap, event for event, whichever events the lane holds.
///
/// Fused pop/push: while a heap head fires, its slot keeps its key and gives
/// up only its payload (the *open* slot). Every event scheduled during the
/// fire has a larger key (its time is at least the head's and its seq is
/// fresh), so ordinary pushes never sift past the open slot, and the first
/// one that lands in the heap may take the slot over with one sift-down. If
/// none does, the slot is popped after the fire. A lane pop opens no slot.
/// Counts and depths exclude the open slot.
struct Store<E> {
    heap: Vec<Entry<E>>,
    /// `heap[0]` is the firing head, emptied of its payload.
    open: bool,
    /// Timers in `(time, seq)` order.
    lane: VecDeque<Timed<E>>,
    /// Most events ever pending at once (reported as `slab_slots`).
    high_water: usize,
}

impl<E> Store<E> {
    fn new() -> Self {
        Store {
            heap: Vec::new(),
            open: false,
            lane: VecDeque::new(),
            high_water: 0,
        }
    }

    fn heap_len(&self) -> usize {
        self.heap.len() - usize::from(self.open)
    }

    fn len(&self) -> usize {
        self.heap_len() + self.lane.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let entry = Entry {
            time,
            seq,
            event: Some(event),
        };
        if self.open {
            self.open = false;
            self.heap[0] = entry;
            sift_down(&mut self.heap, 0);
        } else {
            let pos = self.heap.len();
            self.heap.push(entry);
            sift_up(&mut self.heap, pos);
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Appends a timer to the lane when that keeps the lane sorted, and
    /// pushes it into the heap otherwise.
    fn push_timer(&mut self, time: SimTime, seq: u64, event: E) {
        if self.lane.back().is_some_and(|last| time < last.time) {
            return self.push(time, seq, event);
        }
        self.lane.push_back(Timed { time, seq, event });
        self.high_water = self.high_water.max(self.len());
    }

    /// The smallest pending key, and whether the lane holds it.
    fn head(&self) -> Option<(u128, bool)> {
        let heap = self.heap.first().map(|e| (e.key(), false));
        let lane = self.lane.front().map(|t| (t.key(), true));
        match (heap, lane) {
            (Some(heap), Some(lane)) => Some(select_unpredictable(lane.0 < heap.0, lane, heap)),
            (heap, lane) => heap.or(lane),
        }
    }

    /// Takes the head's payload: the lane's front, or the heap's head, whose
    /// slot then stays open until [`Store::close`].
    fn pop(&mut self, from_lane: bool) -> (SimTime, E) {
        if from_lane {
            let timer = self.lane.pop_front().expect("lane holds the head");
            return (timer.time, timer.event);
        }
        self.open = true;
        let head = &mut self.heap[0];
        (
            head.time,
            head.event.take().expect("head entry holds an event"),
        )
    }

    /// Pops the open slot unless an event scheduled by the fire took it.
    fn close(&mut self) {
        if self.open {
            self.open = false;
            self.heap.swap_remove(0);
            sift_down(&mut self.heap, 0);
        }
    }
}

/// Observed occupancy of the pending-event store, for the recorder's
/// `engine.queue.*` gauges: `near` is the heap and `far` the timer lane, and
/// `slab_slots`/`slab_free` are the pending high-water mark and its headroom
/// — the slot counts a free-list payload slab would report, which only grows
/// when every slot is full (`slab_slots` is `slab_free` plus `near` plus
/// `far`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Events in the heap, excluding the firing head's open slot.
    pub near: usize,
    /// Timers waiting in the FIFO timer lane.
    pub far: usize,
    /// High-water mark of pending workload events.
    pub slab_slots: usize,
    /// `slab_slots` minus the events pending now.
    pub slab_free: usize,
}

/// The event queue shared between the driver and in-flight events.
struct EventQueue<E> {
    store: Store<E>,
    /// Engine-internal events (metrics rolls, controller ticks) in a side
    /// heap: they fire in exact `(time, seq)` order with workload events but
    /// are invisible to [`EventQueue::depths`], so arming them cannot perturb
    /// `queue.*` telemetry.
    internal: BinaryHeap<Timed<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            store: Store::new(),
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
        let pending = self.store.len();
        QueueDepths {
            near: self.store.heap_len(),
            far: self.store.lane.len(),
            slab_slots: self.store.high_water,
            slab_free: self.store.high_water - pending,
        }
    }

    /// Removes the earliest pending event if `due` accepts its time. A heap
    /// event leaves its slot open until [`Store::close`].
    fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        // The smallest of three heads: the heap's, the lane's and the side
        // heap's. seq values come from one shared counter, so keys are unique
        // and the merged order is exactly the single-queue order.
        let side = self.internal.peek().map(Timed::key);
        match self.store.head() {
            Some((head, from_lane)) if side.is_none_or(|side| head < side) => {
                due(time_of(head)).then(|| self.store.pop(from_lane))
            }
            _ => {
                if !due(time_of(side?)) {
                    return None;
                }
                let i = self.internal.pop().expect("peeked internal event");
                Some((i.time, i.event))
            }
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.store.push(time, seq, event);
    }

    /// Schedules a timer: into the lane when it comes due at or after the
    /// lane's last timer, into the heap otherwise.
    fn push_timer(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.store.push_timer(time, seq, event);
    }

    /// Schedules an engine-internal event on the side heap. Internal events
    /// share the global `(time, seq)` order but stay invisible to
    /// [`EventQueue::depths`].
    fn push_internal(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.internal.push(Timed { time, seq, event });
    }
}

/// The time half of a [`key`].
fn time_of(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
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
    /// firing. Lets a metrics roll observe queue depth mid-run.
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

    /// Schedules a *timer* after `delay`: an event that fires exactly like
    /// one from [`Context::schedule_event_in`], but waits in the FIFO timer
    /// lane when it comes due no earlier than the lane's last timer. Timers
    /// re-armed a fixed delay after each fire (session think times) always
    /// do, and then never sift through the heap.
    pub fn schedule_timer_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push_timer(at, event);
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

    /// Schedules a timer at absolute time `at` (clamped to the clock): same
    /// firing order as [`Simulation::schedule_event_at`], held in the timer
    /// lane when it keeps the lane sorted. See [`Context::schedule_timer_in`].
    pub fn schedule_timer_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.clock);
        self.queue.push_timer(at, event);
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

    /// Fires the earliest pending event if `due` accepts its time: one pop
    /// per event.
    fn fire_next(&mut self, due: impl FnOnce(SimTime) -> bool) -> bool {
        let Some((time, event)) = self.queue.pop_if(due) else {
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
        self.queue.store.close();
        true
    }

    /// Fires the single earliest pending event.
    ///
    /// Returns `false` when the queue is empty (the clock does not advance).
    pub fn step(&mut self) -> bool {
        self.fire_next(|_| true)
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue is empty or the next event lies strictly after
    /// `deadline`. Events exactly at `deadline` fire. On return the clock is
    /// `max(clock, deadline)`, even when the queue drained, so repeated calls
    /// advance.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.fire_next(|time| time <= deadline) {}
        self.clock = self.clock.max(deadline);
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

    /// How a test probe schedules one follow-up.
    #[derive(Debug, Clone, Copy)]
    enum Sched {
        /// A workload event `delay` after now (zero: the fused pop/push).
        In(SimDuration),
        /// A workload event at `now - back`, which the queue fires now.
        Past(SimDuration),
        /// A timer `delay` after now: the lane when it keeps the lane
        /// sorted, the heap otherwise.
        Timer(SimDuration),
        /// An internal side-heap event `delay` after now.
        Internal(SimDuration),
    }

    /// A probe's follow-ups: a pure function of its tag, so the reference
    /// replays exactly what the simulation schedules. Generation 3 probes
    /// schedule nothing, which bounds the cascade.
    fn follow_ups(tag: u64) -> Vec<(Sched, u64)> {
        if tag >= 1_000_000 {
            return Vec::new();
        }
        let mut h = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd6e8_feb8_6659_fd93;
        let mut draw = |n: u64| {
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (h >> 16) % n
        };
        let us = SimDuration::from_micros;
        let mut out = Vec::new();
        for k in 1..=draw(4) {
            let sched = match draw(10) {
                0..=2 => Sched::In(SimDuration::ZERO),
                3 => Sched::In(us(draw(5_000))),
                // The fixed think time of a session clock: always in order.
                4 | 5 => Sched::Timer(SimDuration::from_secs(7)),
                // Timers out of order: most fall back to the heap, and the
                // rest run ahead of the lane's tail, turning the next fixed
                // ones away.
                6 => Sched::Timer(us(draw(7_500_000))),
                7 => Sched::Past(us(draw(50_000))),
                8 => Sched::Internal(SimDuration::ZERO),
                _ => Sched::Internal(us(draw(3_000))),
            };
            out.push((sched, tag * 10 + k));
        }
        out
    }

    /// One fire as the store saw it: `(µs, tag, near, far, slab_slots,
    /// slab_free)`.
    type Probe = (u64, u64, usize, usize, usize, usize);

    #[derive(Debug)]
    struct ProbeEv(u64);

    impl Fire<Vec<Probe>> for ProbeEv {
        fn fire(self, log: &mut Vec<Probe>, ctx: &mut Context<'_, Vec<Probe>, Self>) {
            let d = ctx.queue_depths();
            let now = ctx.now();
            log.push((
                now.as_micros(),
                self.0,
                d.near,
                d.far,
                d.slab_slots,
                d.slab_free,
            ));
            for (sched, tag) in follow_ups(self.0) {
                match sched {
                    Sched::In(delay) => ctx.schedule_event_in(delay, ProbeEv(tag)),
                    Sched::Past(back) => ctx.schedule_event_at(now - back, ProbeEv(tag)),
                    Sched::Timer(delay) => ctx.schedule_timer_in(delay, ProbeEv(tag)),
                    Sched::Internal(delay) => ctx.schedule_internal_in(delay, ProbeEv(tag)),
                }
            }
        }
    }

    /// Where the reference files a pending event.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Held {
        Heap,
        Lane,
        Internal,
    }

    /// What the reference saw: the log the store must reproduce, and how
    /// many timers the lane took and turned away.
    struct Reference {
        log: Vec<Probe>,
        laned: usize,
        turned_away: usize,
    }

    /// Replays the probes' scheduling calls on a plain `(time, seq)`
    /// `BinaryHeap`, filing each workload event under the lane rule (a timer
    /// joins the lane when the lane is empty or the timer is due at or
    /// after its last entry) and counting the heap, the lane and the running
    /// maximum of their sum.
    fn reference_log(initial: &[(SimTime, u64, Sched)]) -> Reference {
        struct Model {
            heap: BinaryHeap<Reverse<(SimTime, u64, u64, Held)>>,
            seq: u64,
            near: usize,
            far: usize,
            lane_tail: SimTime,
            most: usize,
            laned: usize,
            turned_away: usize,
        }
        impl Model {
            fn push(&mut self, at: SimTime, tag: u64, sched: Sched) {
                let held = match sched {
                    Sched::Internal(_) => Held::Internal,
                    Sched::Timer(_) if self.far == 0 || at >= self.lane_tail => {
                        self.lane_tail = at;
                        self.laned += 1;
                        Held::Lane
                    }
                    Sched::Timer(_) => {
                        self.turned_away += 1;
                        Held::Heap
                    }
                    Sched::In(_) | Sched::Past(_) => Held::Heap,
                };
                match held {
                    Held::Heap => self.near += 1,
                    Held::Lane => self.far += 1,
                    Held::Internal => {}
                }
                self.most = self.most.max(self.near + self.far);
                self.heap.push(Reverse((at, self.seq, tag, held)));
                self.seq += 1;
            }
        }
        let mut m = Model {
            heap: BinaryHeap::new(),
            seq: 0,
            near: 0,
            far: 0,
            lane_tail: SimTime::ZERO,
            most: 0,
            laned: 0,
            turned_away: 0,
        };
        for &(at, tag, sched) in initial {
            m.push(at, tag, sched);
        }
        let mut log = Vec::new();
        while let Some(Reverse((now, _, tag, held))) = m.heap.pop() {
            match held {
                Held::Heap => m.near -= 1,
                Held::Lane => m.far -= 1,
                Held::Internal => {}
            }
            let pending = m.near + m.far;
            log.push((
                now.as_micros(),
                tag,
                m.near,
                m.far,
                m.most,
                m.most - pending,
            ));
            for (sched, next) in follow_ups(tag) {
                let at = match sched {
                    Sched::In(delay) | Sched::Timer(delay) | Sched::Internal(delay) => now + delay,
                    Sched::Past(back) => (now - back).max(now),
                };
                m.push(at, next, sched);
            }
        }
        Reference {
            log,
            laned: m.laned,
            turned_away: m.turned_away,
        }
    }

    /// The heap plus timer lane fires in exactly the order of a single
    /// `(time, seq)` heap, and reports the depths a free-list payload slab
    /// would, across a seeded sweep: fixed-delay timers that keep the lane
    /// in order, out-of-order timers that fall back to the heap, follow-ups
    /// at the same instant (the fused pop/push) and in the past, internal
    /// events tied with workload events, and execution resumed by
    /// `run_until` at window boundaries. The reference is a plain `BinaryHeap`
    /// replaying the same scheduling calls under the lane rule, so every
    /// fire checks `near`, `far`, `slab_slots` and `slab_free` exactly.
    #[test]
    fn store_fires_in_single_heap_order() {
        for seed in [1u64, 42, 9_876_543_210] {
            // Scrambled times with exact-time collisions, some internal
            // events and some timers among them.
            let mut initial = Vec::new();
            let mut x = seed;
            for i in 0..300u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let scrambled = SimTime::from_micros((x >> 11) % 20_000_000);
                let (at, sched) = match i % 11 {
                    0 => (scrambled, Sched::Internal(SimDuration::ZERO)),
                    // A session ramp: timers armed in the order they come due.
                    1..=3 => (
                        SimTime::from_micros(i * 20_000),
                        Sched::Timer(SimDuration::ZERO),
                    ),
                    _ => (scrambled, Sched::In(SimDuration::ZERO)),
                };
                initial.push((at, i, sched));
                if i % 7 == 0 {
                    initial.push((at, i + 500, Sched::In(SimDuration::ZERO)));
                }
            }
            let reference = reference_log(&initial);
            assert!(
                reference.log.len() > 2 * initial.len(),
                "the probes cascade"
            );
            assert!(reference.laned > 500, "the lane holds timers");
            assert!(reference.turned_away > 500, "timers fall back to the heap");

            for windows in [1u64, 9] {
                let mut sim = Simulation::with_events(Vec::new());
                for &(at, tag, sched) in &initial {
                    match sched {
                        Sched::Internal(_) => sim.schedule_internal_at(at, ProbeEv(tag)),
                        Sched::Timer(_) => sim.schedule_timer_at(at, ProbeEv(tag)),
                        Sched::In(_) | Sched::Past(_) => sim.schedule_event_at(at, ProbeEv(tag)),
                    }
                }
                let end = SimTime::from_secs(30);
                for k in 1..windows {
                    sim.run_until(SimTime::from_micros(end.as_micros() * k / windows));
                }
                sim.run_until(end);
                sim.run();
                assert_eq!(
                    sim.into_world(),
                    reference.log,
                    "seed {seed}, {windows} windows"
                );
            }
        }
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
