//! Region-coarsened placement search for planet-scale host sets.
//!
//! The flat algorithms scan every component × every host per round; at
//! hundreds of hosts that scan dominates. But a multi-tier WAN topology is
//! not a flat host set: hosts cluster into network *regions* (a hub and its
//! metro edge PoPs, the main site's LAN) whose intra-region round trips are
//! bounded by [`region_rtt_threshold_ms`], while inter-region paths cost a
//! WAN round trip or more. Within a region, host choice barely moves the
//! wide-area objective; *between* regions it dominates. The coarsened
//! search exploits exactly that separation:
//!
//! 1. **Coarsen** — partition hosts into regions (union-find over the
//!    round-trip matrix, agreeing with `Topology::regions()` on derived
//!    problems) and pick one *medoid* host per region (minimum total
//!    intra-region round trip).
//! 2. **Coarse solve** — run the greedy search over the medoid-only
//!    problem (entry shares and capacities summed per region), which is
//!    `regions²` work instead of `hosts²`.
//! 3. **Refine** — lift the coarse placement back to real hosts and run
//!    the shared best-improvement [`climb`](greedy::climb) over a
//!    *neighborhood-restricted* candidate set
//!    ([`restricted_neighborhood`]): a component may move within its
//!    current region or jump to another region's medoid (the tier hubs of
//!    the search), never to an arbitrary remote host directly. Two rounds —
//!    region hop, then local settle — reach any (region, host)
//!    combination. The climb re-probes only the components a committed
//!    move can change, re-prices only the replica toggles it can change
//!    (after an edge-replica toggle at `h`, those at `h`), and stops at
//!    `max_rounds`: on the 256-host ladder rung the refinement commits
//!    1,000 edge-replica moves and is capped there, not converged.
//!
//! Small instances bypass the machinery entirely (they delegate to the
//! flat greedy search), so on graphs small enough to run both, coarsened
//! and uncoarsened search agree exactly — the property suite pins that to
//! 1e-9.

use petgraph::graph::NodeIndex;

use crate::algorithms::greedy::{self, GreedyOptions};
use crate::cost::incremental::{CostEvaluator, Move};
use crate::graph::{Host, HostId, Placement, PlacementProblem};
use crate::wan::region_rtt_threshold_ms;

/// Options for [`solve_regional`].
#[derive(Debug, Clone)]
pub struct RegionalOptions {
    /// Maximum refinement rounds after lifting the coarse placement.
    pub max_rounds: usize,
    /// Consider replica add/drop moves during refinement.
    pub with_replication: bool,
    /// Instances with at most this many hosts skip coarsening and run the
    /// flat greedy search — the coarsening machinery only pays for itself
    /// once the all-hosts scan dominates, and delegation makes the
    /// small-graph equivalence exact.
    pub small_flat: usize,
}

impl Default for RegionalOptions {
    fn default() -> Self {
        RegionalOptions {
            max_rounds: 1_000,
            with_replication: true,
            small_flat: 12,
        }
    }
}

/// Partitions hosts into network regions: union-find over the round-trip
/// matrix merging every pair within [`region_rtt_threshold_ms`], then
/// dense region ids numbered by lowest member host (mirroring
/// `Topology::regions()` — on problems derived from a topology the two
/// partitions coincide, which the cross-crate property suite pins).
pub fn host_regions(rtt_ms: &[Vec<f64>]) -> Vec<usize> {
    let h = rtt_ms.len();
    let threshold = region_rtt_threshold_ms();
    let mut parent: Vec<usize> = (0..h).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, row) in rtt_ms.iter().enumerate() {
        for (b, &rtt) in row.iter().enumerate().skip(a + 1) {
            if rtt <= threshold {
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                if ra != rb {
                    // Lower root wins so ids are stable under enumeration
                    // order.
                    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    parent[hi] = lo;
                }
            }
        }
    }
    let mut dense = vec![usize::MAX; h];
    let mut next = 0;
    let mut out = vec![0; h];
    for (x, slot) in out.iter_mut().enumerate() {
        let root = find(&mut parent, x);
        if dense[root] == usize::MAX {
            dense[root] = next;
            next += 1;
        }
        *slot = dense[root];
    }
    out
}

/// Picks one representative host per region: the *medoid*, minimizing the
/// total round trip to the region's other members (ties broken toward the
/// lowest host index). Returns medoid host indices in region-id order.
pub fn region_medoids(rtt_ms: &[Vec<f64>], regions: &[usize]) -> Vec<usize> {
    let region_count = regions.iter().copied().max().map_or(0, |m| m + 1);
    let mut medoids = vec![usize::MAX; region_count];
    let mut best = vec![f64::INFINITY; region_count];
    for (a, &r) in regions.iter().enumerate() {
        let total: f64 = regions
            .iter()
            .enumerate()
            .filter(|&(_, &rb)| rb == r)
            .map(|(b, _)| rtt_ms[a][b])
            .sum();
        if total < best[r] {
            best[r] = total;
            medoids[r] = a;
        }
    }
    medoids
}

/// Builds the region-coarsened problem: one host per region (named after
/// its medoid) carrying the region's summed entry share and CPU capacity,
/// priced by medoid-to-medoid round trips, with pins remapped to the
/// pinned host's region.
fn coarse_problem(
    problem: &PlacementProblem,
    regions: &[usize],
    medoids: &[usize],
) -> PlacementProblem {
    let region_count = medoids.len();
    let mut hosts = Vec::with_capacity(region_count);
    for (r, &m) in medoids.iter().enumerate() {
        let mut share = 0.0;
        let mut capacity = 0.0f64;
        for (h, &rh) in regions.iter().enumerate() {
            if rh == r {
                share += problem.hosts[h].entry_share;
                capacity += problem.hosts[h].cpu_capacity;
            }
        }
        hosts.push(Host {
            name: problem.hosts[m].name.clone(),
            entry_share: share,
            cpu_capacity: capacity,
        });
    }
    let rtt_ms: Vec<Vec<f64>> = medoids
        .iter()
        .map(|&a| medoids.iter().map(|&b| problem.rtt_ms[a][b]).collect())
        .collect();
    let mut graph = problem.graph.clone();
    for node in graph.graph.node_indices() {
        if let Some(HostId(h)) = graph.graph[node].pinned {
            graph.graph[node].pinned = Some(HostId(regions[h]));
        }
    }
    PlacementProblem {
        hosts,
        rtt_ms,
        graph,
        params: problem.params.clone(),
    }
}

/// Lifts a coarse (per-region) placement back to real hosts: every
/// assignment lands on its region's medoid. Pins are repaired to the true
/// pinned hosts afterwards.
fn lift(problem: &PlacementProblem, coarse: &Placement, medoids: &[usize]) -> Placement {
    let mut placement = Placement {
        primary: coarse
            .primary
            .iter()
            .map(|&r| HostId(medoids[r.0]))
            .collect(),
        replicas: coarse
            .replicas
            .iter()
            .zip(&coarse.primary)
            .map(|(set, &p)| {
                set.iter()
                    .map(|&r| HostId(medoids[r.0]))
                    .filter(|&host| host != HostId(medoids[p.0]))
                    .collect()
            })
            .collect(),
    };
    placement.repair_pins(problem);
    placement
}

/// The refinement's restricted neighbourhood over the host partition
/// `regions` with one medoid per region. Per component:
///
/// * **primary moves** — the expensive probes, one pass over the
///   component's replica set plus `O(degree)` each, and a walk over a
///   neighbour's replica hosts the component lacks — are offered only the
///   component's current region members plus every
///   region medoid (the tier hubs): a region hop then a local settle reach
///   any (region, host) pair in two accepted moves. That cuts the primary
///   scan from `O(hosts)` to `O(region + regions)` candidates.
/// * **replica moves** — `O(degree)` fast-path probes — scan every entry
///   host (plus existing replica hosts, so lifted coarse replicas can be
///   dropped). A replica only ever re-routes traffic *originating at its
///   own host*, so non-entry hosts can never profit from one and entry
///   hosts cannot be skipped without losing the paper's edge-replication
///   pattern. Keeping the full entry scan is cheap because the replica
///   delta never loops over origins, and because [`greedy::climb`] keeps
///   each toggle's price until a committed move can change it: after a
///   replica toggle at `h` a re-probed component re-prices only its toggle
///   at `h`, and reads its other entry hosts' prices back.
///
/// Candidates come in ascending host order, primary moves first.
pub fn restricted_neighborhood<'a>(
    problem: &'a PlacementProblem,
    regions: &[usize],
    medoids: &[usize],
    with_replication: bool,
) -> impl Fn(&CostEvaluator, NodeIndex, &mut Vec<Move>) + 'a {
    // Per region: the primary targets, its members plus every medoid.
    let medoid_hosts: Vec<HostId> = medoids.iter().copied().map(HostId).collect();
    let mut region_targets = vec![medoid_hosts; medoids.len()];
    for (h, &r) in regions.iter().enumerate() {
        region_targets[r].push(HostId(h));
    }
    for targets in &mut region_targets {
        targets.sort_unstable();
        targets.dedup();
    }
    let host_region = regions.to_vec();
    let entry: Vec<bool> = problem.hosts.iter().map(|h| h.entry_share > 0.0).collect();
    move |eval, node, out| {
        let spec = &problem.graph.graph[node];
        let primary = eval.primary_of(node);
        if spec.pinned.is_none() {
            out.extend(
                region_targets[host_region[primary.0]]
                    .iter()
                    .filter(|&&to| to != primary)
                    .map(|&to| Move::MovePrimary { node, to }),
            );
        }
        if with_replication && spec.role.replicable() {
            out.extend(
                (0..entry.len())
                    .map(HostId)
                    .filter(|&h| h != primary && (entry[h.0] || eval.has_replica(node, h)))
                    .map(|host| eval.toggle_replica(node, host)),
            );
        }
    }
}

/// Region-coarsened placement search (see the module docs for the
/// three-stage structure). Deterministic: union-find, medoid selection,
/// the coarse greedy solve and the restricted refinement all break ties by
/// lowest index.
pub fn solve_regional(problem: &PlacementProblem, options: &RegionalOptions) -> (Placement, f64) {
    let flat = GreedyOptions {
        max_rounds: options.max_rounds,
        with_replication: options.with_replication,
    };
    if problem.hosts.len() <= options.small_flat {
        return greedy::solve(problem, &flat);
    }

    let regions = host_regions(&problem.rtt_ms);
    let medoids = region_medoids(&problem.rtt_ms, &regions);
    if medoids.len() == problem.hosts.len() {
        // Every region is a singleton: the coarse problem *is* the flat
        // problem and restricted refinement would scan all hosts anyway.
        return greedy::solve(problem, &flat);
    }

    let coarse = coarse_problem(problem, &regions, &medoids);
    let (coarse_placement, _) = greedy::solve(&coarse, &flat);
    let mut eval = CostEvaluator::new(problem, lift(problem, &coarse_placement, &medoids));
    greedy::climb(
        &mut eval,
        options.max_rounds,
        restricted_neighborhood(problem, &regions, &medoids, options.with_replication),
    );
    (eval.placement(), eval.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Component, ComponentGraph, CostParams, Role};

    /// Two metro regions (hub + 2 edges each) behind a WAN, plus a main
    /// LAN: 7 hosts, 3 regions.
    fn two_region_problem() -> PlacementProblem {
        let mut g = ComponentGraph::new();
        let web = g.add(Component {
            name: "web".into(),
            role: Role::Entry,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        let svc = g.add(Component {
            name: "svc".into(),
            role: Role::Stateless,
            pinned: None,
            cpu_ms_per_call: 2.0,
            write_rate: 0.0,
        });
        let entity = g.add(Component {
            name: "entity".into(),
            role: Role::Entity,
            pinned: None,
            cpu_ms_per_call: 1.0,
            write_rate: 0.2,
        });
        let db = g.add(Component {
            name: "db".into(),
            role: Role::Database,
            pinned: Some(HostId(0)),
            cpu_ms_per_call: 1.0,
            write_rate: 0.0,
        });
        g.interact(web, svc, 12.0, 400.0);
        g.interact(svc, entity, 9.0, 300.0);
        g.interact_write(entity, db, 1.0, 400.0);

        // Host layout: 0 = main; 1 = hub-a, 2/3 = its edges; 4 = hub-b,
        // 5/6 = its edges. Tree links (one-way ms): main↔hubs 70/110 WAN,
        // hub↔edge 9 metro. Round trips = 2 × shortest one-way path.
        let h = 7;
        let links = [
            (0, 1, 70.0),
            (0, 4, 110.0),
            (1, 2, 9.0),
            (1, 3, 9.0),
            (4, 5, 9.0),
            (4, 6, 9.0),
        ];
        let mut oneway = vec![vec![f64::INFINITY; h]; h];
        for (i, row) in oneway.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for &(a, b, ms) in &links {
            oneway[a][b] = ms;
            oneway[b][a] = ms;
        }
        for k in 0..h {
            for a in 0..h {
                for b in 0..h {
                    let through = oneway[a][k] + oneway[k][b];
                    if through < oneway[a][b] {
                        oneway[a][b] = through;
                    }
                }
            }
        }
        let rtt: Vec<Vec<f64>> = oneway
            .iter()
            .map(|row| row.iter().map(|&d| 2.0 * d).collect())
            .collect();
        let shares = [0.2, 0.0, 0.2, 0.2, 0.0, 0.2, 0.2];
        PlacementProblem {
            hosts: (0..h)
                .map(|i| Host {
                    name: format!("h{i}"),
                    entry_share: shares[i],
                    cpu_capacity: f64::INFINITY,
                })
                .collect(),
            rtt_ms: rtt,
            graph: g,
            params: CostParams::default(),
        }
    }

    #[test]
    fn regions_and_medoids_follow_the_rtt_threshold() {
        let p = two_region_problem();
        let regions = host_regions(&p.rtt_ms);
        assert_eq!(regions, vec![0, 1, 1, 1, 2, 2, 2]);
        let medoids = region_medoids(&p.rtt_ms, &regions);
        // Hubs sit 18 ms rtt from each edge; edges sit 36 ms from each
        // other — the hub minimizes the intra-region total.
        assert_eq!(medoids, vec![0, 1, 4]);
    }

    #[test]
    fn coarse_problem_sums_shares_and_remaps_pins() {
        let p = two_region_problem();
        let regions = host_regions(&p.rtt_ms);
        let medoids = region_medoids(&p.rtt_ms, &regions);
        let c = coarse_problem(&p, &regions, &medoids);
        assert_eq!(c.hosts.len(), 3);
        assert!((c.hosts[0].entry_share - 0.2).abs() < 1e-12);
        assert!((c.hosts[1].entry_share - 0.4).abs() < 1e-12);
        assert!((c.hosts[2].entry_share - 0.4).abs() < 1e-12);
        assert!(c.validate().is_ok());
        let db = c.graph.by_name("db").unwrap();
        assert_eq!(c.graph.graph[db].pinned, Some(HostId(0)));
    }

    /// On a problem small enough for both, the coarsened solver must land
    /// within 1e-9 of the flat greedy solver (here: by delegation).
    #[test]
    fn small_graphs_match_flat_greedy_exactly() {
        let p = two_region_problem();
        let (_, flat) = greedy::solve(&p, &GreedyOptions::default());
        let (placement, coarse) = solve_regional(&p, &RegionalOptions::default());
        assert!(placement.respects_pins(&p));
        assert!(
            (coarse - flat).abs() <= 1e-9 * flat.abs().max(1.0),
            "coarse {coarse} flat {flat}"
        );
    }

    /// Force the coarsened path (small_flat = 0) on the same instance: the
    /// restricted search must still respect pins and never lose to the
    /// flat search by more than the intra-region slack it trades away.
    #[test]
    fn forced_coarsening_stays_close_to_flat() {
        let p = two_region_problem();
        let (_, flat) = greedy::solve(&p, &GreedyOptions::default());
        let options = RegionalOptions {
            small_flat: 0,
            ..Default::default()
        };
        let (placement, coarse) = solve_regional(&p, &options);
        assert!(placement.respects_pins(&p));
        assert!(
            coarse >= flat - 1e-9,
            "coarse search beat the superset scan"
        );
        assert!(
            coarse <= flat * 1.05 + 1e-9,
            "coarse {coarse} too far from flat {flat}"
        );
    }

    /// All-singleton regions short-circuit to the flat solver.
    #[test]
    fn singleton_regions_delegate_to_flat() {
        let mut p = two_region_problem();
        for row in &mut p.rtt_ms {
            for v in row.iter_mut() {
                if *v != 0.0 {
                    *v = v.max(100.0);
                }
            }
        }
        let options = RegionalOptions {
            small_flat: 0,
            ..Default::default()
        };
        let (_, flat) = greedy::solve(&p, &GreedyOptions::default());
        let (_, coarse) = solve_regional(&p, &options);
        assert!((coarse - flat).abs() <= 1e-9 * flat.abs().max(1.0));
    }
}
