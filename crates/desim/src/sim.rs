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
//! Pending events live inline in a two-tier store: a 4-ary min-heap of
//! `(time, seq, event)` entries for the *near* future, and epoch-wide
//! buckets for far-future timers (session think-time clocks, of which an
//! open workload keeps thousands) until the horizon reaches them. Each fired
//! event costs one pop: its heap slot keeps its ordering key while the event
//! fires, and the first follow-up event scheduled into the near tier takes
//! that slot over with a single sift-down. See `Store` for the exactness
//! argument. Engine bookkeeping (metrics rolls, controller ticks) may ride a
//! separate internal side heap that shares the same ordering but stays out
//! of [`QueueDepths`].
//!
//! Determinism: events fire in `(time, insertion sequence)` order regardless
//! of which store holds them, so two runs with the same seed and the same
//! scheduling order are identical.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::marker::PhantomData;

use crate::time::{SimDuration, SimTime};

/// A simulation event: a plain value fired by the scheduler.
///
/// Implementations are usually small enums; firing consumes the value.
pub trait Fire<W>: Sized + 'static {
    /// Applies the event to the world at its scheduled time.
    fn fire(self, world: &mut W, ctx: &mut Context<'_, W, Self>);
}

/// An engine-internal event held in the side queue: metrics rolls,
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

/// Children per node of the near-tier heap. A 4-ary heap is half as deep as
/// a binary one, and the four children a sift-down compares sit side by side.
const ARITY: usize = 4;

/// A pending workload event stored inline: its ordering key and payload.
/// `event` is `None` only in the store's open slot (the firing head).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Restores the heap order below `pos` after its entry grew (or was
/// replaced).
fn sift_down<E>(heap: &mut [Entry<E>], mut pos: usize) {
    let Some(entry) = heap.get(pos) else {
        return;
    };
    let key = entry.key();
    loop {
        let first = pos * ARITY + 1;
        if first >= heap.len() {
            return;
        }
        let children = &heap[first..(first + ARITY).min(heap.len())];
        let (mut best, mut best_key) = (0, children[0].key());
        for (i, child) in children.iter().enumerate().skip(1) {
            let child_key = child.key();
            if child_key < best_key {
                best = i;
                best_key = child_key;
            }
        }
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

/// A far-tier bucket: the events whose `time / epoch` is its map key,
/// unsorted, with their smallest time.
struct Bucket<E> {
    min: SimTime,
    events: Vec<Entry<E>>,
}

/// The workload store: a near-future d-ary heap of inline entries plus a
/// far-future tier of epoch-wide buckets.
///
/// Open workloads keep thousands of session timers pending several simulated
/// seconds out while network events resolve within milliseconds. A single
/// heap makes every hot push/pop sift through all of them; here the heap only
/// holds events below `horizon`, far timers wait in buckets of one `epoch`
/// each, and the horizon advances when the heap runs dry, migrating due
/// events in bulk.
///
/// Exactness: every far entry has `time >= horizon` and every near entry has
/// `time < horizon` (the horizon only grows), so the near head is the global
/// `(time, seq)` minimum whenever the heap is non-empty. The horizon advances
/// only when it is empty, to `max(horizon, min(near head, far_min)) + epoch`,
/// which with no near head is `far_min + epoch`. The rule depends on event
/// times alone, never on the bucket layout, so the same events are near or
/// far at every instant for any epoch and any re-bucketing. Firing order is
/// therefore identical to a single `(time, seq)` heap, event for event.
///
/// Fused pop/push: while the head fires, its slot keeps its key and gives up
/// only its payload (the *open* slot). Every event scheduled during the fire
/// has a larger key (its time is at least the head's and its seq is fresh),
/// so ordinary pushes never sift past the open slot, and the first one that
/// lands in the near tier may take the slot over with one sift-down. If none
/// does, the slot is popped after the fire. Counts and depths exclude the
/// open slot, and the horizon never moves while it is open.
struct Store<E> {
    near: Vec<Entry<E>>,
    /// `near[0]` is the firing head, emptied of its payload.
    open: bool,
    far: BTreeMap<u64, Bucket<E>>,
    far_len: usize,
    horizon: SimTime,
    epoch: SimDuration,
    /// Most events ever pending at once (reported as `slab_slots`).
    high_water: usize,
}

impl<E> Store<E> {
    fn new() -> Self {
        Store {
            near: Vec::new(),
            open: false,
            far: BTreeMap::new(),
            far_len: 0,
            horizon: SimTime::ZERO,
            epoch: SimDuration::from_millis(500),
            high_water: 0,
        }
    }

    fn near_len(&self) -> usize {
        self.near.len() - usize::from(self.open)
    }

    fn len(&self) -> usize {
        self.near_len() + self.far_len
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let entry = Entry {
            time,
            seq,
            event: Some(event),
        };
        if time >= self.horizon {
            self.stage(entry);
            self.far_len += 1;
        } else if self.open {
            self.open = false;
            self.near[0] = entry;
            sift_down(&mut self.near, 0);
        } else {
            let pos = self.near.len();
            self.near.push(entry);
            sift_up(&mut self.near, pos);
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Files a far entry into its epoch bucket (the caller counts it).
    fn stage(&mut self, entry: Entry<E>) {
        let bucket = self
            .far
            .entry(entry.time.as_micros() / self.epoch.as_micros())
            .or_insert_with(|| Bucket {
                min: SimTime::MAX,
                events: Vec::new(),
            });
        bucket.min = bucket.min.min(entry.time);
        bucket.events.push(entry);
    }

    /// Re-buckets the far tier for a new epoch.
    fn set_epoch(&mut self, epoch: SimDuration) {
        self.epoch = epoch.max(SimDuration::from_micros(1));
        for bucket in std::mem::take(&mut self.far).into_values() {
            for entry in bucket.events {
                self.stage(entry);
            }
        }
    }

    /// Advances the horizon when the near heap has run dry, migrating every
    /// far event below the new horizon: whole buckets below the cut, and the
    /// due part of the one bucket the horizon cuts.
    fn settle(&mut self) {
        debug_assert!(!self.open, "settle with the head slot open");
        if !self.near.is_empty() {
            return;
        }
        let Some((_, first)) = self.far.first_key_value() else {
            return;
        };
        self.horizon = self.horizon.max(first.min) + self.epoch;
        let horizon = self.horizon;
        let cut = horizon.as_micros() / self.epoch.as_micros();
        while let Some(mut slot) = self.far.first_entry() {
            if *slot.key() > cut {
                break;
            }
            if *slot.key() < cut {
                let bucket = slot.remove();
                self.far_len -= bucket.events.len();
                self.near.extend(bucket.events);
                continue;
            }
            let bucket = slot.get_mut();
            let staged = bucket.events.len();
            self.near
                .extend(bucket.events.extract_if(.., |e| e.time < horizon));
            self.far_len -= staged - bucket.events.len();
            match bucket.events.iter().map(|e| e.time).min() {
                Some(min) => bucket.min = min,
                None => {
                    slot.remove();
                }
            }
            break;
        }
        // Floyd's build: the heap was empty, and with unique keys the pop
        // order does not depend on the layout the build picks.
        if self.near.len() > 1 {
            for pos in (0..=(self.near.len() - 2) / ARITY).rev() {
                sift_down(&mut self.near, pos);
            }
        }
    }

    fn head(&self) -> Option<(SimTime, u64)> {
        self.near.first().map(Entry::key)
    }

    /// Takes the head's payload, leaving its slot open until [`Store::close`].
    fn open_head(&mut self) -> (SimTime, E) {
        self.open = true;
        let head = &mut self.near[0];
        (
            head.time,
            head.event.take().expect("head entry holds an event"),
        )
    }

    /// Pops the open slot unless an event scheduled by the fire took it.
    fn close(&mut self) {
        if self.open {
            self.open = false;
            self.near.swap_remove(0);
            sift_down(&mut self.near, 0);
        }
    }
}

/// Observed occupancy of the pending-event store, for the recorder's
/// `engine.queue.*` gauges: `near`/`far` are the two tiers of the time-split
/// queue, and `slab_slots`/`slab_free` are the pending high-water mark and
/// its headroom — the slot counts a free-list payload slab would report,
/// which only grows when every slot is full (`slab_slots` is `slab_free`
/// plus `near` plus `far`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepths {
    /// Events inside the horizon (heap-ordered tier).
    pub near: usize,
    /// Events beyond the horizon (bucketed tier).
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
    internal: BinaryHeap<Internal<E>>,
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
            near: self.store.near_len(),
            far: self.store.far_len,
            slab_slots: self.store.high_water,
            slab_free: self.store.high_water - pending,
        }
    }

    /// Removes the earliest pending event if `due` accepts its time. A
    /// workload event leaves its heap slot open until [`Store::close`].
    fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        // Merge the workload store and the internal side heap by (time, seq):
        // seq values come from one shared counter, so the comparison is total
        // and the merged order is exactly the single-queue order.
        self.store.settle();
        let side = self.internal.peek().map(|i| (i.time, i.seq));
        match self.store.head() {
            Some(main) if side.is_none_or(|side| main < side) => {
                due(main.0).then(|| self.store.open_head())
            }
            _ => {
                let (time, _) = side?;
                if !due(time) {
                    return None;
                }
                let i = self.internal.pop().expect("peeked internal event");
                Some((i.time, i.event))
            }
        }
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

    /// Fires the earliest pending event if `due` accepts its time: one
    /// settle and one pop per event.
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
    /// `max(clock, deadline)` if any events remain, so repeated calls advance.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.fire_next(|time| time <= deadline) {}
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
        while self.fire_next(|time| time < deadline) {}
        self.clock = self.clock.max(deadline);
    }

    /// Sets the far-tier epoch of the two-tier store, re-bucketing any
    /// pending far events.
    ///
    /// The epoch only affects *when* far-future events migrate into the
    /// near heap, never their firing order (see `Store`'s exactness
    /// invariant), so changing it is behaviour-neutral. Deriving it from the
    /// topology's minimum WAN link delay makes the far-queue horizon and the
    /// conservative-parallel lookahead share one source of truth.
    pub fn set_far_epoch(&mut self, epoch: SimDuration) {
        self.queue.store.set_epoch(epoch);
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

    /// How a test probe schedules one follow-up.
    #[derive(Debug, Clone, Copy)]
    enum Sched {
        /// A workload event `delay` after now (zero: the fused pop/push).
        In(SimDuration),
        /// A workload event at `now - back`, which the queue fires now.
        Past(SimDuration),
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
                3..=4 => Sched::In(us(draw(5_000))),
                5 => Sched::In(us(7_000_000 + draw(1_000_000))),
                6 => Sched::In(us(draw(40_000_000))),
                7 => Sched::Past(us(draw(50_000))),
                8 => Sched::Internal(SimDuration::ZERO),
                _ => Sched::Internal(us(draw(3_000))),
            };
            out.push((sched, tag * 10 + k));
        }
        out
    }

    /// One fire as the store saw it: `(µs, tag, near + far, slab_slots,
    /// slab_free)`.
    type Probe = (u64, u64, usize, usize, usize);

    #[derive(Debug)]
    struct ProbeEv(u64);

    impl Fire<Vec<Probe>> for ProbeEv {
        fn fire(self, log: &mut Vec<Probe>, ctx: &mut Context<'_, Vec<Probe>, Self>) {
            let d = ctx.queue_depths();
            let now = ctx.now();
            log.push((
                now.as_micros(),
                self.0,
                d.near + d.far,
                d.slab_slots,
                d.slab_free,
            ));
            for (sched, tag) in follow_ups(self.0) {
                match sched {
                    Sched::In(delay) => ctx.schedule_event_in(delay, ProbeEv(tag)),
                    Sched::Past(back) => ctx.schedule_event_at(now - back, ProbeEv(tag)),
                    Sched::Internal(delay) => ctx.schedule_internal_in(delay, ProbeEv(tag)),
                }
            }
        }
    }

    /// Replays the probes' scheduling calls on a plain `(time, seq)`
    /// `BinaryHeap`, counting pending workload events and their running
    /// maximum: the log the store must reproduce.
    fn reference_log(initial: &[(SimTime, u64, bool)]) -> Vec<Probe> {
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let (mut pending, mut most) = (0usize, 0usize);
        let mut push = |heap: &mut BinaryHeap<_>, at: SimTime, tag: u64, internal: bool| {
            heap.push(Reverse((at, seq, tag, internal)));
            seq += 1;
        };
        for &(at, tag, internal) in initial {
            push(&mut heap, at, tag, internal);
            if !internal {
                pending += 1;
                most = most.max(pending);
            }
        }
        let mut log = Vec::new();
        while let Some(Reverse((now, _, tag, internal))) = heap.pop() {
            pending -= usize::from(!internal);
            log.push((now.as_micros(), tag, pending, most, most - pending));
            for (sched, next) in follow_ups(tag) {
                let (at, internal) = match sched {
                    Sched::In(delay) => (now + delay, false),
                    Sched::Past(back) => ((now - back).max(now), false),
                    Sched::Internal(delay) => (now + delay, true),
                };
                push(&mut heap, at, next, internal);
                if !internal {
                    pending += 1;
                    most = most.max(pending);
                }
            }
        }
        log
    }

    /// The two-tier store fires in exactly the order of a single
    /// `(time, seq)` heap, and reports the depths a free-list payload slab
    /// would, across a seeded sweep: far epochs from 1 µs to 30 s, follow-ups
    /// at the same instant (the fused pop/push), in the past, near and far,
    /// internal events tied with workload events, windowed
    /// `run_before`/`run_until` execution, and `set_far_epoch` re-bucketing
    /// pending far events mid-run. The reference is a plain `BinaryHeap`
    /// replaying the same scheduling calls, so the store's exactness stays
    /// pinned without a second layout.
    #[test]
    fn store_fires_in_single_heap_order() {
        let epochs = [
            SimDuration::from_micros(1),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
            SimDuration::from_secs(30),
        ];
        for seed in [1u64, 42, 9_876_543_210] {
            // Scrambled times over many epochs, with exact-time collisions
            // and some internal events among them.
            let mut initial = Vec::new();
            let mut x = seed;
            for i in 0..300u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let at = SimTime::from_micros((x >> 11) % 20_000_000);
                initial.push((at, i, i % 11 == 0));
                if i % 7 == 0 {
                    initial.push((at, i + 500, false));
                }
            }
            let reference = reference_log(&initial);
            assert!(reference.len() > 2 * initial.len(), "the probes cascade");

            for (e, &epoch) in epochs.iter().enumerate() {
                for windows in [1u64, 9] {
                    let mut sim = Simulation::with_events(Vec::new());
                    sim.set_far_epoch(epoch);
                    for &(at, tag, internal) in &initial {
                        if internal {
                            sim.schedule_internal_at(at, ProbeEv(tag));
                        } else {
                            sim.schedule_event_at(at, ProbeEv(tag));
                        }
                    }
                    let end = SimTime::from_secs(30);
                    for k in 1..windows {
                        sim.run_before(SimTime::from_micros(end.as_micros() * k / windows));
                        if k == windows / 2 {
                            let d = sim.queue_depths();
                            assert!(d.far > 0, "re-bucketing with far events pending");
                            sim.set_far_epoch(epochs[(e + 1) % epochs.len()]);
                            assert_eq!(sim.queue_depths(), d, "re-bucketing keeps the depths");
                        }
                    }
                    sim.run_until(end);
                    sim.run();
                    assert_eq!(
                        sim.into_world(),
                        reference,
                        "seed {seed}, epoch {epoch:?}, {windows} windows"
                    );
                }
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
