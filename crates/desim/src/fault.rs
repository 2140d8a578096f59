//! Deterministic fault schedules: scripted WAN failure episodes.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s — link
//! outages, latency degradations, node crashes/restarts and message-loss
//! windows — that a simulation world replays through typed events in its
//! event queue. The schedule itself carries no world knowledge: links and
//! nodes are dense `u32` indices (the same convention as
//! [`crate::trace::SpanKind`]), so the desim layer stays ignorant of
//! topology types. The network layer (`mutsvc_netsim::Network::apply_fault`)
//! is where an index becomes a checked id and an event takes effect, for the
//! simulator and the static analyzer alike.
//!
//! Two properties matter and are pinned by tests here and in the workload
//! driver:
//!
//! * **Determinism** — a scripted schedule is replayed verbatim and draws
//!   nothing from any RNG stream, so same-seed runs produce byte-identical
//!   timelines and the workload's own arrival and think-time streams are
//!   never touched.
//! * **Purity** — an empty schedule is a no-op: nothing is scheduled,
//!   nothing is drawn, and a fault-off run is bit-identical to a build
//!   without the subsystem.

use crate::time::SimDuration;

/// One kind of injected fault. Targets are dense indices into the owning
/// world's topology (directed links, nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A directed link stops delivering messages.
    LinkDown {
        /// Directed-link index.
        link: u32,
    },
    /// A downed link comes back.
    LinkRestore {
        /// Directed-link index.
        link: u32,
    },
    /// A directed link's propagation latency is scaled by `factor`
    /// (`1.0` restores the base latency).
    LinkDegraded {
        /// Directed-link index.
        link: u32,
        /// Latency multiplier applied to the base propagation delay.
        factor: f64,
    },
    /// The application process on a node crashes: CPU work and message
    /// delivery addressed to it fail, and its caches are lost (restart
    /// replays warm-up). The host keeps forwarding transit traffic — the
    /// model is a server-process crash, not a powered-off router.
    NodeCrash {
        /// Node index.
        node: u32,
    },
    /// A crashed node's process restarts with cold caches.
    NodeRestart {
        /// Node index.
        node: u32,
    },
    /// A directed link drops each message independently with the given
    /// probability (`0.0` clears the loss window). Draws are derived from a
    /// counter hash, not an RNG stream, so loss never perturbs other
    /// randomness.
    MsgLoss {
        /// Directed-link index.
        link: u32,
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
}

/// One scheduled fault: a kind applied at an offset from simulation start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, as an offset from simulation start.
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted fault timeline.
///
/// Construct schedules with [`FaultSchedule::scripted`] (events are sorted
/// for you, ties keep insertion order). The default schedule is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Events in non-decreasing `at` order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The empty (fault-off) schedule.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A scripted schedule; events are stably sorted by time.
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Deterministic per-message loss draw: a splitmix64-style hash of
/// `(salt, link, sequence)` compared against `probability`. Stateless apart
/// from the caller's per-link sequence counter, so loss decisions are
/// reproducible across sequential and parallel sweeps and independent of
/// every RNG stream.
pub fn message_lost(salt: u64, link: u32, seq: u64, probability: f64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    if probability >= 1.0 {
        return true;
    }
    let mut x = salt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(link).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // Map the hash onto [0, 1) with 53-bit precision, like a uniform draw.
    let u = (x >> 11) as f64 / (1u64 << 53) as f64;
    u < probability
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn scripted_schedules_sort_stably() {
        let s = FaultSchedule::scripted(vec![
            FaultEvent {
                at: sec(9),
                kind: FaultKind::LinkRestore { link: 1 },
            },
            FaultEvent {
                at: sec(3),
                kind: FaultKind::LinkDown { link: 1 },
            },
            FaultEvent {
                at: sec(3),
                kind: FaultKind::NodeCrash { node: 2 },
            },
        ]);
        assert_eq!(s.events[0].at, sec(3));
        assert!(matches!(s.events[0].kind, FaultKind::LinkDown { link: 1 }));
        assert!(matches!(s.events[1].kind, FaultKind::NodeCrash { node: 2 }));
        assert_eq!(s.events[2].at, sec(9));
    }

    #[test]
    fn empty_schedule_is_pure() {
        assert!(FaultSchedule::none().is_empty());
        assert!(FaultSchedule::default().is_empty());
        assert_eq!(FaultSchedule::none(), FaultSchedule::scripted(Vec::new()));
    }

    #[test]
    fn message_loss_is_deterministic_and_calibrated() {
        // Identical inputs, identical verdicts.
        for seq in 0..64 {
            assert_eq!(message_lost(42, 3, seq, 0.2), message_lost(42, 3, seq, 0.2));
        }
        assert!(!message_lost(1, 0, 0, 0.0));
        assert!(message_lost(1, 0, 0, 1.0));
        // Empirical rate tracks the probability.
        let hits = (0..100_000)
            .filter(|&seq| message_lost(7, 2, seq, 0.2))
            .count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.2).abs() < 0.01, "loss rate {rate}");
        // Distinct salts decorrelate the pattern.
        let agree = (0..1_000)
            .filter(|&seq| message_lost(1, 2, seq, 0.5) == message_lost(2, 2, seq, 0.5))
            .count();
        assert!((300..700).contains(&agree), "salted patterns differ");
    }
}
