//! Deterministic fault schedules: scripted or seeded-random WAN failure
//! episodes.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s — link
//! outages, latency degradations, node crashes/restarts and message-loss
//! windows — that a simulation world replays through typed events in its
//! event queue. The schedule itself carries no world knowledge: links and
//! nodes are dense `u32` indices (the same convention as
//! [`crate::trace::SpanKind`]), so the desim layer stays ignorant of
//! topology types and higher layers map indices onto their own ids.
//!
//! Two properties matter and are pinned by tests here and in the workload
//! driver:
//!
//! * **Determinism** — a scripted schedule is replayed verbatim;
//!   [`FaultSchedule::random`] draws only from the [`SimRng`] stream it is
//!   handed (by convention [`crate::rng::stream::FAULTS`]), so same-seed
//!   runs produce byte-identical timelines and the workload's own arrival
//!   and think-time streams are never touched.
//! * **Purity** — an empty schedule is a no-op: nothing is scheduled,
//!   nothing is drawn, and a fault-off run is bit-identical to a build
//!   without the subsystem.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::time::SimDuration;

/// One kind of injected fault. Targets are dense indices into the owning
/// world's topology (directed links, nodes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

impl FaultKind {
    /// Short stable label used by reports and span exporters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link-down",
            FaultKind::LinkRestore { .. } => "link-restore",
            FaultKind::LinkDegraded { .. } => "link-degraded",
            FaultKind::NodeCrash { .. } => "node-crash",
            FaultKind::NodeRestart { .. } => "node-restart",
            FaultKind::MsgLoss { .. } => "msg-loss",
        }
    }
}

/// One scheduled fault: a kind applied at an offset from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires, as an offset from simulation start.
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted fault timeline.
///
/// Construct scripted schedules with [`FaultSchedule::scripted`] (events are
/// sorted for you, ties keep insertion order) or random ones with
/// [`FaultSchedule::random`]. The default schedule is empty.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Events in non-decreasing `at` order.
    pub events: Vec<FaultEvent>,
}

/// Parameters for [`FaultSchedule::random`]: independent outage episodes on
/// a set of candidate links and nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomFaults {
    /// Number of episodes to draw.
    pub episodes: usize,
    /// Candidate directed links (an episode downs one and later restores it).
    pub links: Vec<u32>,
    /// Candidate nodes (an episode crashes one and later restarts it).
    pub nodes: Vec<u32>,
    /// Earliest episode start offset.
    pub earliest: SimDuration,
    /// Latest episode start offset.
    pub latest: SimDuration,
    /// Mean episode duration (exponentially distributed, floored at 1 ms).
    pub mean_outage: SimDuration,
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

    /// Draws a random schedule of paired outage/recovery episodes using only
    /// the supplied stream. Zero `episodes` (or no candidates) draws nothing
    /// and returns the empty schedule, preserving purity.
    pub fn random(rng: &mut SimRng, params: &RandomFaults) -> Self {
        let candidates = params.links.len() + params.nodes.len();
        if params.episodes == 0 || candidates == 0 {
            return FaultSchedule::none();
        }
        let lo = params.earliest.as_micros() as f64;
        let hi = params
            .latest
            .as_micros()
            .max(params.earliest.as_micros() + 1) as f64;
        let mut events = Vec::with_capacity(params.episodes * 2);
        for _ in 0..params.episodes {
            let start = SimDuration::from_micros(rng.uniform_range(lo, hi) as u64);
            let outage = rng
                .exponential(params.mean_outage)
                .max(SimDuration::from_millis(1));
            let pick = rng.index(candidates);
            let (down, up) = if pick < params.links.len() {
                let link = params.links[pick];
                (
                    FaultKind::LinkDown { link },
                    FaultKind::LinkRestore { link },
                )
            } else {
                let node = params.nodes[pick - params.links.len()];
                (
                    FaultKind::NodeCrash { node },
                    FaultKind::NodeRestart { node },
                )
            };
            events.push(FaultEvent {
                at: start,
                kind: down,
            });
            events.push(FaultEvent {
                at: start + outage,
                kind: up,
            });
        }
        FaultSchedule::scripted(events)
    }

    /// Renders the timeline as one line per event (`+12.500s link-down link=3`),
    /// byte-stable across runs — used by reports and replay-identity tests.
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(out, "+{:.6}s {}", e.at.as_secs_f64(), e.kind.label());
            match e.kind {
                FaultKind::LinkDown { link } | FaultKind::LinkRestore { link } => {
                    let _ = writeln!(out, " link={link}");
                }
                FaultKind::LinkDegraded { link, factor } => {
                    let _ = writeln!(out, " link={link} factor={factor:.3}");
                }
                FaultKind::NodeCrash { node } | FaultKind::NodeRestart { node } => {
                    let _ = writeln!(out, " node={node}");
                }
                FaultKind::MsgLoss { link, probability } => {
                    let _ = writeln!(out, " link={link} p={probability:.4}");
                }
            }
        }
        out
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
    use crate::rng::stream;

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
        assert_eq!(FaultSchedule::none().render_timeline(), "");
        // Zero episodes draw nothing from the stream.
        let root = SimRng::seed_from_u64(7);
        let mut faults = root.derive(stream::FAULTS);
        let before = faults.clone().uniform().to_bits();
        let s = FaultSchedule::random(
            &mut faults,
            &RandomFaults {
                episodes: 0,
                links: vec![0, 1],
                nodes: vec![2],
                earliest: sec(1),
                latest: sec(10),
                mean_outage: sec(5),
            },
        );
        assert!(s.is_empty());
        assert_eq!(faults.uniform().to_bits(), before, "no draws consumed");
    }

    #[test]
    fn random_schedules_replay_byte_identical_per_seed() {
        let params = RandomFaults {
            episodes: 5,
            links: vec![3, 4],
            nodes: vec![1],
            earliest: sec(10),
            latest: sec(100),
            mean_outage: sec(20),
        };
        let a = FaultSchedule::random(
            &mut SimRng::seed_from_u64(42).derive(stream::FAULTS),
            &params,
        );
        let b = FaultSchedule::random(
            &mut SimRng::seed_from_u64(42).derive(stream::FAULTS),
            &params,
        );
        assert_eq!(a, b);
        assert_eq!(a.render_timeline(), b.render_timeline());
        assert_eq!(a.events.len(), 10, "paired down/restore events");
        let c = FaultSchedule::random(
            &mut SimRng::seed_from_u64(43).derive(stream::FAULTS),
            &params,
        );
        assert_ne!(a, c, "different seeds draw different timelines");
    }

    #[test]
    fn random_outages_pair_down_with_restore() {
        let params = RandomFaults {
            episodes: 3,
            links: vec![7],
            nodes: vec![],
            earliest: sec(1),
            latest: sec(50),
            mean_outage: sec(10),
        };
        let s = FaultSchedule::random(
            &mut SimRng::seed_from_u64(9).derive(stream::FAULTS),
            &params,
        );
        let downs = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkDown { link: 7 }))
            .count();
        let ups = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkRestore { link: 7 }))
            .count();
        assert_eq!(downs, 3);
        assert_eq!(ups, 3);
        for w in s.events.windows(2) {
            assert!(w[0].at <= w[1].at, "sorted timeline");
        }
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
