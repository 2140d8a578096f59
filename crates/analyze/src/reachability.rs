//! Static fault availability: per-page reachability under fault episodes.
//!
//! Each [`EpisodeView`] carries the episode's [`Network`]: its schedule
//! replayed through [`Network::apply_fault`], the call the workload driver
//! makes as each event fires. The analysis keeps no fault model of its own;
//! it asks that network the questions the simulator asks. It applies the
//! [`FaultPolicy`]'s failover edge (new requests to a crashed edge entry
//! re-target the central server, and the page is re-walked from there), and
//! classifies every page a remote edge-1 client can issue:
//!
//! * **hard-failed** — the HTTP leg or some call-tree crossing is
//!   [`severed`]: its request or response path crosses a downed link or is
//!   addressed to a crashed node, the step executor's per-hop check.
//!   Requests fail after the retry ladder; only requests issued within the
//!   ladder's span of the heal instant are recovered by a post-heal retry.
//! * **stale-gated** — the page completes at an entry whose path to the
//!   central server is down (`path_is_up(entry, central)`, the driver's
//!   refresh test), served from cached state (the descriptor's caches serve
//!   reads, bind replayable). The policy's `stale_serve` knob decides
//!   whether these count as stale successes or strict-consistency failures.
//! * **lossy** — every message over a link with a `link_loss` is dropped
//!   independently; an attempt fails if any of its messages is lost and the
//!   request fails when all `1 + max_retries` attempts do.
//!
//! Folding the per-page failure probabilities over the service-usage-mix
//! page weights yields a predicted availability per episode — the static
//! counterpart of the simulated availability table in `BENCH_faults.json`,
//! cross-checked the same way W108 cross-checks traced WAN round trips.

use mutsvc_apps::SessionFlow;
use mutsvc_core::EpisodeView;
use mutsvc_desim::time::SimDuration;
use mutsvc_middleware::CrossingKind;
use mutsvc_netsim::{Network, NodeId, Topology};
use mutsvc_workload::FaultPolicy;

use crate::walker::{walk_page, PageWalk};
use crate::AnalyzeInput;

/// Fraction of a group's requests issued by browser sessions (the paper's
/// §3.3 load: 8 of 10 requests/second per group; see
/// `mutsvc_workload::paper_groups`).
pub const BROWSER_REQUEST_SHARE: f64 = 0.8;

/// The fault model the analyzer verifies a deployment against: the policy
/// arm, the RMI timeout, the episodes, and the measured window the
/// availability denominator spans.
#[derive(Debug, Clone)]
pub struct FaultContext {
    /// Retry/failover/stale-serve policy.
    pub policy: FaultPolicy,
    /// RMI timeout before a lost attempt is noticed.
    pub timeout: SimDuration,
    /// The episodes to verify against.
    pub episodes: Vec<EpisodeView>,
    /// Measured window the availability fraction is taken over.
    pub window: SimDuration,
}

impl FaultContext {
    /// The standard verification context: the resilient policy arm against
    /// the full `core::faultsuite`, scheduled exactly as
    /// [`mutsvc_core::FaultCase::schedule`] scripts it for these windows.
    pub fn standard(
        topology: &Topology,
        nodes: &mutsvc_core::PaperNodes,
        warmup: SimDuration,
        duration: SimDuration,
    ) -> FaultContext {
        FaultContext {
            policy: FaultPolicy::resilient(),
            timeout: mutsvc_workload::FaultSettings::off().timeout,
            episodes: mutsvc_core::FaultCase::all()
                .into_iter()
                .map(|case| case.view(topology, nodes, warmup, duration))
                .collect(),
            window: duration,
        }
    }

    /// The same context under a different policy arm.
    pub fn with_policy(mut self, policy: FaultPolicy) -> FaultContext {
        self.policy = policy;
        self
    }

    /// The retry ladder's span: how long after issue the last retry starts.
    /// A hard-failed request recovers iff that instant lands after heal.
    pub fn ladder(&self) -> SimDuration {
        let mut span = SimDuration::default();
        for attempt in 1..=self.policy.max_retries {
            span += self.timeout + self.policy.backoff(attempt);
        }
        span
    }
}

/// How one page fares during one episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PageFate {
    /// Unaffected (or saved by failover / stale serving).
    Ok,
    /// Completes from cached state with a recorded staleness bound.
    OkStale,
    /// Crosses a dead link or node: fails after the retry ladder.
    HardFailed,
    /// Completes but the strict policy rejects the stale response.
    StaleRejected,
    /// Subject to message loss with this per-request failure probability.
    Lossy(f64),
}

/// One page's predicted behaviour during one episode.
#[derive(Debug, Clone)]
pub struct PagePrediction {
    /// Page name.
    pub page: String,
    /// Entry node actually used (after any failover).
    pub entry: NodeId,
    /// Whether failover re-targeted the page to the central server.
    pub failover: bool,
    /// The fate.
    pub fate: PageFate,
    /// Stationary weight of the page in the request mix.
    pub weight: f64,
}

/// The predicted availability of the remote edge-1 group over one episode.
#[derive(Debug, Clone)]
pub struct EpisodePrediction {
    /// Episode name.
    pub episode: String,
    /// Predicted fraction of measured requests that succeed.
    pub availability: f64,
    /// Per-page classification.
    pub pages: Vec<PagePrediction>,
}

impl EpisodePrediction {
    /// The prediction for one page, if the page exists.
    pub fn page(&self, page: &str) -> Option<&PagePrediction> {
        self.pages.iter().find(|p| p.page == page)
    }
}

/// A failover policy edge that cannot work: the declared target is itself
/// unreachable during an episode the policy is meant to survive (W111).
#[derive(Debug, Clone)]
pub struct BrokenFailover {
    /// The episode.
    pub episode: String,
    /// The dead entry node failover abandons.
    pub dead_entry: NodeId,
    /// The unreachable target.
    pub target: NodeId,
}

/// Everything the reachability analysis concluded.
#[derive(Debug)]
pub struct AvailabilityAnalysis {
    /// One prediction per episode, in context order.
    pub episodes: Vec<EpisodePrediction>,
    /// Failover edges declared but statically unreachable (W111).
    pub broken_failovers: Vec<BrokenFailover>,
}

/// Whether an episode's network fails a leg between two nodes: the request
/// `from -> to` or the response `to -> from` crosses a downed link or is
/// addressed to a crashed node. This is the step executor's per-hop check,
/// applied to both directions (routes are fixed; nothing re-routes around a
/// dead link).
pub fn severed(network: &Network, from: NodeId, to: NodeId) -> bool {
    !(network.path_is_up(from, to) && network.path_is_up(to, from))
}

/// Runs the reachability analysis for every episode in the context.
///
/// `walks` must be the steady-state walks of `input.pages`, in the same
/// order (failover re-walks pages from the central server as the driver's
/// re-targeting does).
pub fn predict_availability(
    input: &AnalyzeInput<'_>,
    ctx: &FaultContext,
    walks: &[PageWalk],
) -> AvailabilityAnalysis {
    let nodes = input.nodes;
    let descriptor = input.descriptor;
    let client = nodes.client_edge1;
    let central = descriptor.central_node;
    let caches_serve = descriptor.caches_serve_reads();
    let ladder = ctx.ladder();

    let mut episodes = Vec::new();
    let mut broken_failovers = Vec::new();
    for view in &ctx.episodes {
        let net = &view.network;
        let active = view.active();
        let active_s = active.as_secs_f64();
        let window_s = ctx.window.as_secs_f64().max(f64::MIN_POSITIVE);
        let hard_fail_p = (active.saturating_sub(ladder)).as_secs_f64().min(active_s) / window_s;
        let full_fail_p = active_s / window_s;

        // W111: the policy promises failover off a dead entry, but the
        // target itself is dead or unreachable from the clients while the
        // episode is active.
        if ctx.policy.failover && severed(net, client, central) {
            let dead_entries = input
                .topology
                .node_ids()
                .filter(|&n| !net.node_is_up(n) && walks.iter().any(|w| w.entry == n));
            for dead in dead_entries {
                broken_failovers.push(BrokenFailover {
                    episode: view.name.clone(),
                    dead_entry: dead,
                    target: central,
                });
            }
        }

        let mut pages = Vec::new();
        let mut availability = 1.0;
        for (walk, page) in walks.iter().zip(input.pages) {
            let weight = page_weight(input.flows, &walk.page);

            // Failover: new requests to a crashed entry re-target the
            // central server and the binder walks the page from there.
            let mut entry = walk.entry;
            let mut failover = false;
            let rewalked;
            let mut effective: &PageWalk = walk;
            if !net.node_is_up(entry) && ctx.policy.failover {
                entry = central;
                failover = true;
                rewalked = walk_page(
                    input.registry,
                    descriptor,
                    input.db,
                    input.topology,
                    central,
                    page,
                );
                effective = &rewalked;
            }

            let fate = classify_page(
                net,
                effective,
                client,
                entry,
                central,
                caches_serve,
                &ctx.policy,
            );
            let fail_p = match fate {
                PageFate::Ok | PageFate::OkStale => 0.0,
                PageFate::HardFailed => hard_fail_p,
                PageFate::StaleRejected => full_fail_p,
                PageFate::Lossy(q) => q * full_fail_p,
            };
            availability -= weight * fail_p;
            pages.push(PagePrediction {
                page: walk.page.clone(),
                entry,
                failover,
                fate,
                weight,
            });
        }
        episodes.push(EpisodePrediction {
            episode: view.name.clone(),
            availability,
            pages,
        });
    }
    AvailabilityAnalysis {
        episodes,
        broken_failovers,
    }
}

/// The request-mix weight of a page: browser and transactional session
/// flows weighted by the §3.3 request shares.
pub fn page_weight(flows: &[SessionFlow], page: &str) -> f64 {
    flows
        .iter()
        .map(|flow| {
            let share = match flow.kind {
                mutsvc_apps::SessionKind::Browser => BROWSER_REQUEST_SHARE,
                mutsvc_apps::SessionKind::Transactional => 1.0 - BROWSER_REQUEST_SHARE,
            };
            share * flow.weight_of(page)
        })
        .sum()
}

/// Whether the binder certifies this walk's bind replayable: reads only,
/// and no crossing beyond direct JDBC (RMI/JNDI/fetch draw protocol
/// samples from the RNG stream). Mirrors `check_plan_cacheability`.
pub fn replayable(walk: &PageWalk) -> bool {
    walk.written_tables.is_empty()
        && walk
            .crossings
            .iter()
            .all(|c| matches!(c.kind, CrossingKind::Jdbc { .. }))
}

fn classify_page(
    net: &Network,
    walk: &PageWalk,
    client: NodeId,
    entry: NodeId,
    central: NodeId,
    caches_serve: bool,
    policy: &FaultPolicy,
) -> PageFate {
    // The HTTP leg plus every call-tree crossing, as (from, to, trips).
    let legs = std::iter::once((client, entry, 1)).chain(
        walk.crossings
            .iter()
            .map(|c| (c.from, c.to, c.round_trips())),
    );

    // Each leg sends `trips` messages each way; a lossy link drops each one
    // independently (lossless links multiply by exactly 1).
    let mut lossy_ok = 1.0f64;
    for (from, to, trips) in legs {
        if severed(net, from, to) {
            return PageFate::HardFailed;
        }
        for (a, b) in [(from, to), (to, from)] {
            for &link in net.route(a, b) {
                lossy_ok *= (1.0 - net.link_loss(link)).powi(trips as i32);
            }
        }
    }

    // Completed at an entry cut off from the central server: the driver's
    // staleness gate fires for cache-served replayable reads.
    if !net.path_is_up(entry, central) && caches_serve && replayable(walk) {
        if policy.stale_serve {
            return PageFate::OkStale;
        }
        return PageFate::StaleRejected;
    }

    let q_attempt = 1.0 - lossy_ok;
    if q_attempt > 0.0 {
        let q_request = q_attempt.powi(policy.max_retries as i32 + 1);
        return PageFate::Lossy(q_request);
    }
    PageFate::Ok
}
