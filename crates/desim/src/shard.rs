//! Conservative parallel execution of sharded simulations.
//!
//! The wide-area model has a built-in lookahead: hosts in different regions
//! only interact through WAN links costing ≥100 ms one-way, so a per-region
//! shard can safely simulate a full lookahead window `[k·L, (k+1)·L)` without
//! observing any other shard — every cross-shard message sent inside window
//! `k` arrives at or after the window's end. The engine here exploits that
//! with the textbook conservative (Chandy–Misra style) discipline, but
//! *null-message-free*: instead of per-link null messages, all shards
//! advance in lockstep windows separated by one barrier each.
//!
//! Per window, each shard:
//!
//! 1. drains its mailbox of envelopes routed by other shards,
//! 2. delivers the due ones (`recv_at` inside the window) in the canonical
//!    `(recv_at, src_shard, src_seq)` order,
//! 3. advances its local event queue through the half-open window
//!    ([`Simulation::run_before`]), accumulating outbound sends,
//! 4. stamps each send with its per-shard emission sequence and routes it
//!    into the destination shard's mailbox (asserting the conservative
//!    contract `recv_at >= window end`),
//!
//! then waits on the barrier. One barrier per window suffices: a message
//! routed while a peer is mid-window is not due before the *next* window,
//! and the barrier orders every window-`k` route before every window-`k+1`
//! drain, so the set of due envelopes at each drain — and therefore the
//! entire execution — is independent of thread count and scheduling. Runs
//! with 1, 2, 4 or 8 threads are byte-identical by construction.
//!
//! [`run_conservative`] is the engine's one entry point. Nothing but mailbox
//! routing happens at a window boundary, so shards only ever influence each
//! other through timestamped messages.
//!
//! [`Simulation::run_before`]: crate::sim::Simulation::run_before

use std::sync::{Barrier, Mutex};

use crate::time::{SimDuration, SimTime};

/// A simulation shard drivable by the conservative engine.
///
/// Implementations typically wrap a [`Simulation`](crate::sim::Simulation)
/// over a shard-local world; the engine never touches the world directly,
/// so only `Msg` and `Out` cross threads.
pub trait ShardWorld: Sized {
    /// A cross-shard message (timestamped at its receive time).
    type Msg: Send + 'static;
    /// The shard's mergeable result.
    type Out: Send + 'static;

    /// Delivers a cross-shard message timestamped `at`. Called before
    /// [`advance`](ShardWorld::advance) for the window containing `at`,
    /// in canonical `(at, from, emission seq)` order; `at` is never before
    /// the current window's start.
    fn deliver(&mut self, at: SimTime, from: usize, msg: Self::Msg);

    /// Advances the shard-local clock through `[now, upto)` — or through
    /// `[now, upto]` when `closing` marks the final window — pushing every
    /// cross-shard send emitted along the way into `outbox`, in emission
    /// order. Sends must respect the lookahead: `recv_at >= upto` (checked
    /// by the engine outside the closing window).
    fn advance(&mut self, upto: SimTime, closing: bool, outbox: &mut Outbox<Self::Msg>);

    /// Consumes the shard after the final window, producing its result.
    fn finish(self) -> Self::Out;
}

/// Cross-shard sends accumulated by one shard during one window.
#[derive(Debug)]
pub struct Outbox<M> {
    sends: Vec<(usize, SimTime, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Outbox { sends: Vec::new() }
    }

    /// Queues `msg` for delivery to shard `dest` at absolute time `recv_at`.
    pub fn send(&mut self, dest: usize, recv_at: SimTime, msg: M) {
        self.sends.push((dest, recv_at, msg));
    }
}

/// An in-flight cross-shard message with its deterministic ordering key.
#[derive(Debug)]
struct Envelope<M> {
    recv_at: SimTime,
    src_shard: u32,
    src_seq: u64,
    msg: M,
}

/// Runs `shard_count` shards to `horizon` on up to `threads` OS threads,
/// with conservative windows of width `lookahead`.
///
/// `factory(i)` builds shard `i` *inside* its worker thread — shard worlds
/// never cross a thread boundary, so neither they nor their events need be
/// `Send`. Shards are distributed round-robin (`i % threads`), and each
/// worker steps its shards in index order within
/// every window, so the execution — including every per-shard event-queue
/// sequence number — is a pure function of `(shard_count, lookahead,
/// horizon, factory)`: thread count only changes wall-clock time.
///
/// Returns the shard results in shard-index order.
///
/// # Panics
///
/// Panics if `lookahead` is zero, or when a shard violates the conservative
/// contract by emitting a send with `recv_at` before its window's end.
pub fn run_conservative<S, F>(
    shard_count: usize,
    threads: usize,
    lookahead: SimDuration,
    horizon: SimTime,
    factory: F,
) -> Vec<S::Out>
where
    S: ShardWorld,
    F: Fn(usize) -> S + Sync,
{
    assert!(!lookahead.is_zero(), "conservative lookahead must be > 0");
    if shard_count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, shard_count);
    let la = lookahead.as_micros();
    let span = horizon.as_micros();
    // Window k covers [k·L, (k+1)·L); the last window closes at `horizon`
    // inclusively, so boundary events fire exactly as one run_until would.
    let windows = (span / la + u64::from(!span.is_multiple_of(la))).max(1);

    let mailboxes: Vec<Mutex<Vec<Envelope<S::Msg>>>> =
        (0..shard_count).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(threads);
    let outs: Mutex<Vec<Option<S::Out>>> = Mutex::new((0..shard_count).map(|_| None).collect());

    // (index, shard, undelivered envelopes, emission counter)
    type LocalShard<S> = (usize, S, Vec<Envelope<<S as ShardWorld>::Msg>>, u64);
    let run_worker = |worker: usize| {
        let mut local: Vec<LocalShard<S>> = (worker..shard_count)
            .step_by(threads)
            .map(|i| (i, factory(i), Vec::new(), 0))
            .collect();
        let mut outbox = Outbox::new();
        for window in 0..windows {
            let closing = window + 1 == windows;
            let wend = if closing {
                horizon
            } else {
                SimTime::from_micros(la * (window + 1))
            };
            for (idx, shard, pending, emitted) in &mut local {
                {
                    let mut mailbox = mailboxes[*idx].lock().expect("shard mailbox poisoned");
                    pending.append(&mut mailbox);
                }
                // Split out the envelopes due this window. The closing
                // window is inclusive, matching run_until.
                let (mut due, rest): (Vec<_>, Vec<_>) = pending
                    .drain(..)
                    .partition(|e| e.recv_at < wend || (closing && e.recv_at == wend));
                *pending = rest;
                due.sort_by_key(|e| (e.recv_at, e.src_shard, e.src_seq));
                for e in due {
                    shard.deliver(e.recv_at, e.src_shard as usize, e.msg);
                }
                shard.advance(wend, closing, &mut outbox);
                for (dest, recv_at, msg) in outbox.sends.drain(..) {
                    *emitted += 1;
                    if closing {
                        // Past the horizon: unreceivable in every execution,
                        // dropped identically at any thread count.
                        continue;
                    }
                    assert!(
                        recv_at >= wend,
                        "conservative violation: shard {idx} sent a message \
                         due at {recv_at:?} inside window ending at {wend:?}",
                    );
                    mailboxes[dest]
                        .lock()
                        .expect("shard mailbox poisoned")
                        .push(Envelope {
                            recv_at,
                            src_shard: *idx as u32,
                            src_seq: *emitted,
                            msg,
                        });
                }
            }
            barrier.wait();
        }
        let mut outs = outs.lock().expect("shard outputs poisoned");
        for (idx, shard, pending, _) in local {
            // Envelopes due past the horizon are dropped, exactly like
            // sends emitted during the closing window.
            debug_assert!(
                pending.iter().all(|e| e.recv_at > horizon),
                "shard {idx} finished with deliverable envelopes"
            );
            outs[idx] = Some(shard.finish());
        }
    };

    if threads == 1 {
        // Degenerate case on the caller thread: no spawn cost, and contract
        // violations surface as ordinary panics instead of a poisoned scope.
        run_worker(0);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let run_worker = &run_worker;
                std::thread::Builder::new()
                    .name(format!("desim-shard-{worker}"))
                    .spawn_scoped(scope, move || run_worker(worker))
                    .expect("spawning shard worker");
            }
        });
    }

    outs.into_inner()
        .expect("shard outputs poisoned")
        .into_iter()
        .map(|out| out.expect("every shard produces an output"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Context, Fire, Simulation};

    /// One delay ≥ the 100 ms lookahead, one well past it: messages land in
    /// the very next window and several windows out, respectively.
    const DELAYS_US: [u64; 2] = [150_000, 470_000];
    const LOOKAHEAD: SimDuration = SimDuration::from_millis(100);
    const HORIZON: SimTime = SimTime::from_secs(10);

    struct RingState {
        idx: usize,
        n: usize,
        log: Vec<(u64, usize, u64)>,
        outgoing: Vec<(usize, SimTime, u64)>,
    }

    /// A ring event: a token with `ttl` hops left arrives.
    #[derive(Debug)]
    struct Token(u64);

    impl Fire<RingState> for Token {
        fn fire(self, s: &mut RingState, ctx: &mut Context<'_, RingState, Self>) {
            forward(s, ctx.now(), self.0);
        }
    }

    /// A shard wrapping a real `Simulation`: every delivered token is logged
    /// and forwarded around the ring with a WAN-scale delay until it expires.
    struct RingShard {
        sim: Simulation<RingState, Token>,
    }

    impl RingShard {
        fn new(idx: usize, n: usize) -> Self {
            let mut sim = Simulation::with_events(RingState {
                idx,
                n,
                log: Vec::new(),
                outgoing: Vec::new(),
            });
            // Each shard seeds a couple of tokens at staggered times.
            for k in 0..2u64 {
                let at = SimTime::from_micros(idx as u64 * 1_000 + k * 77_000);
                sim.schedule_event_at(at, Token(40 + k));
            }
            RingShard { sim }
        }
    }

    fn forward(s: &mut RingState, now: SimTime, ttl: u64) {
        s.log.push((now.as_micros(), s.idx, ttl));
        if ttl > 0 {
            let delay = DELAYS_US[(ttl as usize + s.idx) % DELAYS_US.len()];
            let dest = (s.idx + 1) % s.n;
            s.outgoing
                .push((dest, now + SimDuration::from_micros(delay), ttl - 1));
        }
    }

    impl ShardWorld for RingShard {
        type Msg = u64;
        type Out = (Vec<(u64, usize, u64)>, u64);

        fn deliver(&mut self, at: SimTime, _from: usize, ttl: u64) {
            self.sim.schedule_event_at(at, Token(ttl));
        }

        fn advance(&mut self, upto: SimTime, closing: bool, outbox: &mut Outbox<u64>) {
            if closing {
                self.sim.run_until(upto);
            } else {
                self.sim.run_before(upto);
            }
            let state = self.sim.world_mut();
            for (dest, recv_at, ttl) in state.outgoing.drain(..) {
                outbox.send(dest, recv_at, ttl);
            }
        }

        fn finish(self) -> Self::Out {
            let fired = self.sim.events_fired();
            (self.sim.into_world().log, fired)
        }
    }

    fn run_ring(shards: usize, threads: usize) -> Vec<<RingShard as ShardWorld>::Out> {
        run_conservative(shards, threads, LOOKAHEAD, HORIZON, |i| {
            RingShard::new(i, shards)
        })
    }

    #[test]
    fn thread_count_is_invisible() {
        let reference = run_ring(5, 1);
        for threads in [2, 4, 8, 16] {
            assert_eq!(reference, run_ring(5, threads), "threads={threads}");
        }
    }

    #[test]
    fn tokens_actually_cross_shards() {
        let outs = run_ring(3, 2);
        // 2 seeds per shard, ttl 40/41, ~5 s of ring hops in a 10 s horizon:
        // every shard both originates and receives traffic.
        for (idx, (log, fired)) in outs.iter().enumerate() {
            assert!(*fired > 10, "shard {idx} fired only {fired} events");
            assert!(
                log.iter().any(|&(_, i, ttl)| i == idx && ttl < 40),
                "shard {idx} never received a forwarded token"
            );
        }
        // ~10 s of 150/470 ms hops: each of the 6 tokens makes dozens.
        let total: usize = outs.iter().map(|(log, _)| log.len()).sum();
        assert!(total > 100, "only {total} hops logged");
    }

    #[test]
    fn single_shard_matches_plain_sequential_execution() {
        // With one shard the engine degenerates to windowed sequential
        // execution, which must equal a plain event-by-event replay that
        // delivers each self-send at its receive time.
        // Advance in strides no longer than the model's minimum send delay:
        // any event fired inside a stride emits sends due at or after the
        // stride's end, so absorbing `outgoing` at each boundary sees every
        // delivery before the clock could move past its receive time.
        let step = SimDuration::from_micros(*DELAYS_US.iter().min().unwrap());
        let mut plain = RingShard::new(0, 1);
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            // Absorb sends emitted so far (in emission order, like src_seq).
            let state = plain.sim.world_mut();
            pending.extend(state.outgoing.drain(..).map(|(_, at, ttl)| (at, ttl)));
            // Earliest reachable delivery; emission order breaks time ties.
            let next = (0..pending.len())
                .filter(|&i| pending[i].0 <= HORIZON && pending[i].0 <= now + step)
                .min_by_key(|&i| (pending[i].0, i));
            if let Some(i) = next {
                let (at, ttl) = pending.remove(i);
                // Local events up to the receive time fire first (they carry
                // earlier queue sequence numbers in the engine too), then
                // the delivery itself, so its sends surface immediately.
                plain.sim.run_until(at);
                plain.sim.schedule_event_at(at, Token(ttl));
                plain.sim.run_until(at);
                now = at;
            } else {
                if now == HORIZON {
                    break;
                }
                now = (now + step).min(HORIZON);
                plain.sim.run_until(now);
            }
        }
        let plain_out = plain.finish();
        let sharded = run_ring(1, 4);
        assert_eq!(sharded.len(), 1);
        assert_eq!(sharded[0], plain_out);
    }

    #[test]
    fn empty_shard_set_is_fine() {
        let outs: Vec<((), ())> = {
            struct Never;
            impl ShardWorld for Never {
                type Msg = ();
                type Out = ((), ());
                fn deliver(&mut self, _: SimTime, _: usize, (): ()) {}
                fn advance(&mut self, _: SimTime, _: bool, _: &mut Outbox<()>) {}
                fn finish(self) -> Self::Out {
                    ((), ())
                }
            }
            run_conservative(0, 4, LOOKAHEAD, HORIZON, |_| Never)
        };
        assert!(outs.is_empty());
    }

    #[test]
    #[should_panic(expected = "conservative violation")]
    fn lookahead_violations_are_caught() {
        struct Rogue;
        impl ShardWorld for Rogue {
            type Msg = ();
            type Out = ();
            fn deliver(&mut self, _: SimTime, _: usize, (): ()) {}
            fn advance(&mut self, upto: SimTime, closing: bool, outbox: &mut Outbox<()>) {
                if !closing {
                    // Due *inside* the window just simulated: too late.
                    outbox.send(1, upto - SimDuration::from_micros(1), ());
                }
            }
            fn finish(self) -> Self::Out {}
        }
        run_conservative(2, 1, LOOKAHEAD, HORIZON, |_| Rogue);
    }
}
