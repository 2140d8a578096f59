//! The standard WAN fault suite.
//!
//! Three canonical failure episodes against the Figure 2 testbed, each
//! scripted into the measured window of a [`crate::Scenario`]:
//!
//! * **main-link partition** — both directions of the edge-1 WAN leg go
//!   down for the middle half of the window. The centralized configuration
//!   goes dark for edge-1 clients; configurations with edge caches keep
//!   answering reads locally (with recorded staleness when the policy's
//!   stale-serve knob is on).
//! * **edge crash** — the edge-1 application process crashes for the middle
//!   half of the window, losing its caches; the host keeps forwarding, so
//!   failover to the main server is physically possible and a restart
//!   replays cache warm-up cold.
//! * **lossy link** — the edge-1 uplink drops 5 % of messages for the
//!   middle half of the window; retry policies recover most requests.
//!
//! Schedules are scripted (not random), so a suite run is a deterministic
//! function of the scenario seed and timing alone.
//!
//! A second, *adaptation* suite ([`AdaptiveEpisode`]) scripts environmental
//! drift rather than outages — flash crowds, degraded (not dead) WAN legs,
//! diurnal demand shifts, plus a quiescent control — as the canonical
//! exercises for the closed-loop placement controller (DESIGN.md §6.8).

use mutsvc_desim::fault::{FaultEvent, FaultKind, FaultSchedule};
use mutsvc_desim::time::SimDuration;
use mutsvc_netsim::{LinkId, Network, NodeId, Topology};
use mutsvc_workload::Surge;

use crate::topology::PaperNodes;

/// Message-drop probability of the lossy-link episode.
pub const LOSSY_LINK_PROBABILITY: f64 = 0.05;

/// One canonical failure episode of the standard suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCase {
    /// The edge-1 WAN leg partitions in both directions.
    MainLinkPartition,
    /// The edge-1 application process crashes and later restarts.
    EdgeCrash,
    /// The edge-1 uplink drops messages.
    LossyLink,
}

impl FaultCase {
    /// All cases, in report order.
    pub fn all() -> [FaultCase; 3] {
        [
            FaultCase::MainLinkPartition,
            FaultCase::EdgeCrash,
            FaultCase::LossyLink,
        ]
    }

    /// Stable name used in reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            FaultCase::MainLinkPartition => "main-link-partition",
            FaultCase::EdgeCrash => "edge-crash",
            FaultCase::LossyLink => "lossy-link",
        }
    }

    /// Scripts the episode against a built paper topology: onset at one
    /// quarter into the measured window, recovery at three quarters.
    ///
    /// # Panics
    ///
    /// Panics if the topology lacks the paper's edge-1 links (it was not
    /// built by [`crate::topology::paper_topology`]).
    pub fn schedule(
        self,
        topology: &Topology,
        nodes: &PaperNodes,
        warmup: SimDuration,
        duration: SimDuration,
    ) -> FaultSchedule {
        let down = warmup + duration / 4;
        let up = warmup + (duration / 4) * 3;
        let uplink = directed_link(topology, nodes, true);
        let downlink = directed_link(topology, nodes, false);
        let events = match self {
            FaultCase::MainLinkPartition => vec![
                FaultEvent {
                    at: down,
                    kind: FaultKind::LinkDown { link: uplink },
                },
                FaultEvent {
                    at: down,
                    kind: FaultKind::LinkDown { link: downlink },
                },
                FaultEvent {
                    at: up,
                    kind: FaultKind::LinkRestore { link: uplink },
                },
                FaultEvent {
                    at: up,
                    kind: FaultKind::LinkRestore { link: downlink },
                },
            ],
            FaultCase::EdgeCrash => {
                let node = nodes.edge1.index() as u32;
                vec![
                    FaultEvent {
                        at: down,
                        kind: FaultKind::NodeCrash { node },
                    },
                    FaultEvent {
                        at: up,
                        kind: FaultKind::NodeRestart { node },
                    },
                ]
            }
            FaultCase::LossyLink => vec![
                FaultEvent {
                    at: down,
                    kind: FaultKind::MsgLoss {
                        link: uplink,
                        probability: LOSSY_LINK_PROBABILITY,
                    },
                },
                FaultEvent {
                    at: up,
                    kind: FaultKind::MsgLoss {
                        link: uplink,
                        probability: 0.0,
                    },
                },
            ],
        };
        FaultSchedule::scripted(events)
    }
}

/// One episode as the deployment verifier sees it: its name, its active
/// window, and the network as it stands while the episode is active.
///
/// The network is built by passing every event strictly before the final
/// (heal) timestamp through [`Network::apply_fault`], the call the workload
/// driver makes as each event fires, so restores at the heal tick leave the
/// fault state standing. For the standard suite the state is constant
/// between onset and heal, so the view is exact; a schedule whose state
/// varies mid-episode is seen as it stands just before heal.
#[derive(Debug, Clone)]
pub struct EpisodeView {
    /// Stable episode name ([`FaultCase::name`] for the standard suite).
    pub name: String,
    /// Absolute time the fault set takes effect.
    pub onset: SimDuration,
    /// Absolute time the fault set is fully restored.
    pub heal: SimDuration,
    /// The network while the episode is active.
    pub network: Network,
}

impl EpisodeView {
    /// Replays a scripted schedule onto a fresh network over `topology`.
    /// Onset is the first event's time and heal the last's; a one-event
    /// schedule applies its event.
    ///
    /// # Panics
    ///
    /// Panics if an event targets a link or node outside `topology`.
    pub fn from_schedule(name: &str, schedule: &FaultSchedule, topology: &Topology) -> EpisodeView {
        let onset = schedule.events.first().map(|e| e.at).unwrap_or_default();
        let heal = schedule.events.last().map(|e| e.at).unwrap_or_default();
        let mut network = Network::new(topology.clone());
        for event in &schedule.events {
            if event.at >= heal && schedule.events.len() > 1 {
                break;
            }
            network.apply_fault(event.kind);
        }
        EpisodeView {
            name: name.to_string(),
            onset,
            heal,
            network,
        }
    }

    /// How long the fault set is active.
    pub fn active(&self) -> SimDuration {
        self.heal.saturating_sub(self.onset)
    }
}

impl FaultCase {
    /// The episode's static fault set against a built paper topology, with
    /// the same onset/heal timing [`FaultCase::schedule`] scripts.
    pub fn view(
        self,
        topology: &Topology,
        nodes: &PaperNodes,
        warmup: SimDuration,
        duration: SimDuration,
    ) -> EpisodeView {
        EpisodeView::from_schedule(
            self.name(),
            &self.schedule(topology, nodes, warmup, duration),
            topology,
        )
    }
}

/// Latency multiplier of the [`AdaptiveEpisode::LinkDegradation`] episode.
pub const LINK_DEGRADATION_FACTOR: f64 = 8.0;

/// Latency multiplier each half of [`AdaptiveEpisode::DiurnalShift`]
/// applies to the off-peak region's WAN leg.
pub const DIURNAL_SHIFT_FACTOR: f64 = 6.0;

/// Rate multiplier of the [`AdaptiveEpisode::FlashCrowd`] surge.
pub const FLASH_CROWD_FACTOR: f64 = 4.0;

/// One canonical adaptation episode of the closed-loop suite (DESIGN.md
/// §6.8): a scripted environmental shift the live-migration controller is
/// expected to react to — or, for the quiescent control, expected to leave
/// strictly alone.
///
/// Episodes script *drift*, not destruction: links slow down or demand
/// moves, but nothing partitions, so controller-off runs stay comparable
/// and any availability delta is attributable to adaptation alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptiveEpisode {
    /// Nothing changes. The controller must commit zero migrations and
    /// leave the run byte-identical to a controller-off run's statistics.
    Quiescent,
    /// The stressed region's client group surges to
    /// [`FLASH_CROWD_FACTOR`]× its steady rate for the middle half of the
    /// measured window, shifting the observed demand shares toward it.
    FlashCrowd,
    /// Every WAN link on the corridor between the stressed region's edge
    /// and the core runs at [`LINK_DEGRADATION_FACTOR`]× latency (both
    /// directions) for the middle half of the window — the classic
    /// route-flap/bufferbloat drift case.
    LinkDegradation,
    /// Demand follows the sun: the *counterpart* region's leg degrades
    /// during the first half of the episode and recovers while the
    /// stressed region's leg degrades for the second half.
    DiurnalShift,
}

/// Which nodes and client group an [`AdaptiveEpisode`] stresses. Built by
/// the scenario assembler from whichever topology is in play (the paper
/// star or a generated multi-tier network).
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeTargets {
    /// The core site the degraded corridors are measured against (the main
    /// application server).
    pub core: NodeId,
    /// The stressed edge PoP: its corridor degrades, its clients surge.
    pub edge1: NodeId,
    /// The counterpart PoP the diurnal shift swings away from.
    pub edge2: NodeId,
    /// Name of the client group entering at `edge1`.
    pub group1: String,
}

impl AdaptiveEpisode {
    /// All episodes, in report order.
    pub fn all() -> [AdaptiveEpisode; 4] {
        [
            AdaptiveEpisode::Quiescent,
            AdaptiveEpisode::FlashCrowd,
            AdaptiveEpisode::LinkDegradation,
            AdaptiveEpisode::DiurnalShift,
        ]
    }

    /// Stable name used in reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            AdaptiveEpisode::Quiescent => "quiescent",
            AdaptiveEpisode::FlashCrowd => "flash-crowd",
            AdaptiveEpisode::LinkDegradation => "link-degradation",
            AdaptiveEpisode::DiurnalShift => "diurnal-shift",
        }
    }

    /// Scripts the episode: onset at one quarter into the measured window,
    /// full recovery at three quarters (the diurnal shift hands over at the
    /// midpoint). Returns the fault timeline plus any load surges.
    ///
    /// # Panics
    ///
    /// Panics if a target edge has no route to the core, or the corridor
    /// between them crosses no WAN link.
    pub fn schedule(
        self,
        topology: &Topology,
        targets: &EpisodeTargets,
        warmup: SimDuration,
        duration: SimDuration,
    ) -> (FaultSchedule, Vec<Surge>) {
        let onset = warmup + duration / 4;
        let midpoint = warmup + duration / 2;
        let heal = warmup + (duration / 4) * 3;
        let leg1 = corridor(topology, targets.edge1, targets.core);
        let degrade = |at, links: &[u32], factor| {
            links
                .iter()
                .map(|&link| FaultEvent {
                    at,
                    kind: FaultKind::LinkDegraded { link, factor },
                })
                .collect::<Vec<_>>()
        };
        let (events, surges) = match self {
            AdaptiveEpisode::Quiescent => (vec![], vec![]),
            AdaptiveEpisode::FlashCrowd => (
                vec![],
                vec![Surge {
                    group: targets.group1.clone(),
                    from: onset,
                    to: heal,
                    factor: FLASH_CROWD_FACTOR,
                }],
            ),
            AdaptiveEpisode::LinkDegradation => {
                let mut events = Vec::new();
                events.extend(degrade(onset, &leg1, LINK_DEGRADATION_FACTOR));
                events.extend(degrade(heal, &leg1, 1.0));
                (events, vec![])
            }
            AdaptiveEpisode::DiurnalShift => {
                let leg2 = corridor(topology, targets.edge2, targets.core);
                let mut events = Vec::new();
                events.extend(degrade(onset, &leg2, DIURNAL_SHIFT_FACTOR));
                events.extend(degrade(midpoint, &leg2, 1.0));
                events.extend(degrade(midpoint, &leg1, DIURNAL_SHIFT_FACTOR));
                events.extend(degrade(heal, &leg1, 1.0));
                (events, vec![])
            }
        };
        (FaultSchedule::scripted(events), surges)
    }
}

/// The dense indices of every WAN link on the corridor between an edge PoP
/// and the core, both directions. On the paper star this is the edge's
/// shaped leg; on a multi-tier network it is the whole regional path
/// (PoP → hub → core), so degrading a corridor bites however many WAN
/// hops the topology stacks. Sub-threshold (LAN/metro) hops are left alone.
fn corridor(topology: &Topology, edge: NodeId, core: NodeId) -> Vec<u32> {
    let mut links = Vec::new();
    for (a, b) in [(edge, core), (core, edge)] {
        let route = topology
            .route(a, b)
            .unwrap_or_else(|| panic!("no route between edge and core"));
        for &l in route {
            if topology.is_wan(l) {
                links.push(l.index() as u32);
            }
        }
    }
    assert!(!links.is_empty(), "corridor crosses no WAN link");
    links
}

/// The dense index of the edge-1 WAN leg (`true`: edge1 → router).
fn directed_link(topology: &Topology, nodes: &PaperNodes, uplink: bool) -> u32 {
    let (from, to) = if uplink {
        (nodes.edge1, nodes.router)
    } else {
        (nodes.router, nodes.edge1)
    };
    let link: LinkId = topology
        .link_ids()
        .find(|&l| topology.link(l).from == from && topology.link(l).to == to)
        .expect("paper topology has the edge-1 WAN leg");
    link.index() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::paper_topology;

    #[test]
    fn schedules_target_the_edge1_leg_and_midwindow() {
        let (t, n) = paper_topology(false);
        let warmup = SimDuration::from_secs(100);
        let duration = SimDuration::from_secs(400);
        for case in FaultCase::all() {
            let s = case.schedule(&t, &n, warmup, duration);
            assert!(!s.is_empty(), "{}", case.name());
            assert_eq!(s.events.first().unwrap().at, SimDuration::from_secs(200));
            assert_eq!(s.events.last().unwrap().at, SimDuration::from_secs(400));
        }
        let partition = FaultCase::MainLinkPartition.schedule(&t, &n, warmup, duration);
        let downs = partition
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
            .count();
        assert_eq!(downs, 2, "both directions cut");
        let crash = FaultCase::EdgeCrash.schedule(&t, &n, warmup, duration);
        assert!(matches!(
            crash.events[0].kind,
            FaultKind::NodeCrash { node } if node == n.edge1.index() as u32
        ));
    }

    #[test]
    fn views_expose_the_static_fault_set() {
        let (t, n) = paper_topology(false);
        let warmup = SimDuration::from_secs(100);
        let duration = SimDuration::from_secs(400);
        let on_leg = |l: LinkId| {
            let l = t.link(l);
            (l.from == n.edge1 && l.to == n.router) || (l.from == n.router && l.to == n.edge1)
        };

        let partition = FaultCase::MainLinkPartition.view(&t, &n, warmup, duration);
        for l in t.link_ids() {
            assert_eq!(
                partition.network.link_is_up(l),
                !on_leg(l),
                "partition cuts both directions of the edge-1 leg only"
            );
            assert_eq!(partition.network.link_loss(l), 0.0);
        }
        assert_eq!(partition.network.nodes_down(), 0);
        assert_eq!(partition.onset, SimDuration::from_secs(200));
        assert_eq!(partition.heal, SimDuration::from_secs(400));
        assert_eq!(partition.active(), duration / 2);

        let crash = FaultCase::EdgeCrash.view(&t, &n, warmup, duration);
        for node in t.node_ids() {
            assert_eq!(crash.network.node_is_up(node), node != n.edge1);
        }
        assert_eq!(crash.network.links_down(), 0);

        let lossy = FaultCase::LossyLink.view(&t, &n, warmup, duration);
        for l in t.link_ids() {
            let uplink = t.link(l).from == n.edge1 && t.link(l).to == n.router;
            let expected = if uplink { LOSSY_LINK_PROBABILITY } else { 0.0 };
            assert_eq!(lossy.network.link_loss(l), expected, "uplink only");
        }
        assert_eq!(
            (lossy.network.links_down(), lossy.network.nodes_down()),
            (0, 0)
        );
    }

    #[test]
    fn view_fold_honors_restores() {
        let (t, n) = paper_topology(false);
        let link = directed_link(&t, &n, true);
        let id = t.link_at(link);
        let at = SimDuration::from_secs;
        let schedule = FaultSchedule::scripted(vec![
            FaultEvent {
                at: at(1),
                kind: FaultKind::LinkDown { link },
            },
            FaultEvent {
                at: at(2),
                kind: FaultKind::LinkRestore { link },
            },
            FaultEvent {
                at: at(3),
                kind: FaultKind::MsgLoss {
                    link,
                    probability: 0.2,
                },
            },
            FaultEvent {
                at: at(4),
                kind: FaultKind::MsgLoss {
                    link,
                    probability: 0.0,
                },
            },
        ]);
        let view = EpisodeView::from_schedule("custom", &schedule, &t);
        assert!(view.network.link_is_up(id), "restored link is not dead");
        assert_eq!(
            view.network.link_loss(id),
            0.2,
            "loss zeroed only at the heal tick stays in the active set"
        );
        assert_eq!(view.onset, at(1));
        assert_eq!(view.heal, at(4));

        // Down, degraded, then restored at the heal tick: the degradation
        // slows the link and leaves it down.
        let schedule = FaultSchedule::scripted(vec![
            FaultEvent {
                at: at(1),
                kind: FaultKind::LinkDown { link },
            },
            FaultEvent {
                at: at(2),
                kind: FaultKind::LinkDegraded { link, factor: 2.0 },
            },
            FaultEvent {
                at: at(3),
                kind: FaultKind::LinkRestore { link },
            },
        ]);
        let view = EpisodeView::from_schedule("degraded", &schedule, &t);
        assert!(!view.network.link_is_up(id), "degradation revived the link");
        assert_eq!(
            view.network.link_latency(id),
            t.link(id).latency.mul_f64(2.0)
        );
    }

    #[test]
    fn adaptive_episodes_script_drift_not_outages() {
        let (t, n) = paper_topology(false);
        let warmup = SimDuration::from_secs(90);
        let duration = SimDuration::from_secs(300);
        let targets = EpisodeTargets {
            core: n.main,
            edge1: n.edge1,
            edge2: n.edge2,
            group1: "remote1".to_string(),
        };
        for episode in AdaptiveEpisode::all() {
            let (schedule, surges) = episode.schedule(&t, &targets, warmup, duration);
            // Drift only: no partitions, crashes or message loss.
            for e in &schedule.events {
                assert!(
                    matches!(e.kind, FaultKind::LinkDegraded { .. }),
                    "{}: {:?}",
                    episode.name(),
                    e.kind
                );
            }
            match episode {
                AdaptiveEpisode::Quiescent => {
                    assert!(schedule.is_empty() && surges.is_empty());
                }
                AdaptiveEpisode::FlashCrowd => {
                    assert!(schedule.is_empty());
                    assert_eq!(surges.len(), 1);
                    assert_eq!(surges[0].group, "remote1");
                    assert_eq!(surges[0].factor, FLASH_CROWD_FACTOR);
                    assert_eq!(surges[0].from, SimDuration::from_secs(165));
                    assert_eq!(surges[0].to, SimDuration::from_secs(315));
                }
                AdaptiveEpisode::LinkDegradation => {
                    assert_eq!(schedule.events.len(), 4, "two legs, degrade + heal");
                    assert!(surges.is_empty());
                    assert_eq!(schedule.events[0].at, SimDuration::from_secs(165));
                    assert_eq!(schedule.events[3].at, SimDuration::from_secs(315));
                    // Both directions of the edge-1 WAN leg, nothing else.
                    let (up, down) = (directed_link(&t, &n, true), directed_link(&t, &n, false));
                    for e in &schedule.events {
                        let FaultKind::LinkDegraded { link, .. } = e.kind else {
                            unreachable!()
                        };
                        assert!(link == up || link == down, "targets the edge-1 leg");
                    }
                }
                AdaptiveEpisode::DiurnalShift => {
                    assert_eq!(schedule.events.len(), 8, "handover at the midpoint");
                    assert!(surges.is_empty());
                    assert_eq!(schedule.events[0].at, SimDuration::from_secs(165));
                    assert_eq!(schedule.events[2].at, SimDuration::from_secs(240));
                    assert_eq!(schedule.events[7].at, SimDuration::from_secs(315));
                }
            }
        }
    }

    #[test]
    fn corridor_picks_the_shaped_legs_not_the_lans() {
        let (t, n) = paper_topology(false);
        let links = corridor(&t, n.edge1, n.main);
        assert_eq!(links.len(), 2, "one shaped leg, both directions");
        for idx in links {
            let l = t.link(t.link_ids().nth(idx as usize).unwrap());
            assert!(
                (l.from == n.edge1 && l.to == n.router) || (l.from == n.router && l.to == n.edge1),
                "only the edge-1 WAN leg degrades"
            );
        }
    }

    #[test]
    fn schedules_are_identical_across_builds() {
        let (ta, na) = paper_topology(false);
        let (tb, nb) = paper_topology(false);
        let w = SimDuration::from_secs(90);
        let d = SimDuration::from_secs(300);
        for case in FaultCase::all() {
            assert_eq!(case.schedule(&ta, &na, w, d), case.schedule(&tb, &nb, w, d));
        }
    }
}
