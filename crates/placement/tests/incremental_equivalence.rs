//! Equivalence property test: the incremental [`CostEvaluator`] must agree
//! with the from-scratch [`cost_breakdown`] sweep — termwise, within a
//! relative 1e-9 — at *every* step of long randomized walks that apply
//! moves and revert them with their inverse moves, on both the
//! paper-derived applications and random synthetic graphs.
//!
//! This is the safety net under the whole perf optimisation: every search
//! algorithm now trusts incremental deltas instead of re-sweeping the
//! graph, so any drift here would silently corrupt placement decisions.
//! The searches price candidates with `CostEvaluator::delta`, which writes
//! no state; the price walks below pin it to the delta `apply` returns, bit
//! for bit, after any history of applied and reverted moves. The climb
//! keeps prices between committed moves until `CostEvaluator::mark_stale`
//! marks them; the stale-mark walk pins every price it keeps to a
//! re-probe, bit for bit.
//!
//! Run it in release in CI (`cargo test -p mutsvc-placement --release
//! --test incremental_equivalence`); the debug build covers a reduced
//! number of steps so `cargo test -q` stays fast.

mod common;

use common::random_problem;
use mutsvc_bench::placement_report::ladder_problem;
use mutsvc_desim::rng::SimRng;
use mutsvc_placement::derive::rubis_problem;
use mutsvc_placement::graph::{Host, HostId, Placement, PlacementProblem};
use mutsvc_placement::wan::rehost;
use mutsvc_placement::{cost_breakdown, CostBreakdown, CostEvaluator, Move};
use petgraph::graph::NodeIndex;

#[cfg(debug_assertions)]
const STEPS: usize = 120;
#[cfg(not(debug_assertions))]
const STEPS: usize = 600;

/// Relative tolerance: the evaluator's Kahan accumulators keep drift at the
/// last-bit level, but summation *order* still differs from the sweep.
fn assert_close(term: &str, incremental: f64, full: f64, step: usize) {
    let tolerance = 1e-9 * full.abs().max(1.0);
    assert!(
        (incremental - full).abs() <= tolerance,
        "step {step}: {term} diverged: incremental {incremental:.15e} vs full {full:.15e}"
    );
}

fn assert_breakdown_close(incremental: &CostBreakdown, full: &CostBreakdown, step: usize) {
    assert_close(
        "communication",
        incremental.communication,
        full.communication,
        step,
    );
    assert_close(
        "consistency",
        incremental.consistency,
        full.consistency,
        step,
    );
    assert_close("overload", incremental.overload, full.overload, step);
    assert_close("total", incremental.total(), full.total(), step);
}

/// A random starting placement: scattered primaries plus a replica at each
/// other host with probability `replica_chance`.
fn random_placement(
    rng: &mut SimRng,
    problem: &PlacementProblem,
    replica_chance: f64,
) -> Placement {
    let hosts = problem.hosts.len();
    let mut placement = Placement::all_on(problem, HostId(0));
    for node in problem.graph.graph.node_indices() {
        let idx = node.index();
        placement.primary[idx] = HostId(rng.index(hosts));
        for h in 0..hosts {
            if HostId(h) != placement.primary[idx] && rng.chance(replica_chance) {
                placement.replicas[idx].insert(HostId(h));
            }
        }
    }
    placement.repair_pins(problem);
    placement
}

/// Draws a move that is valid against the evaluator's *current* state.
fn random_move(rng: &mut SimRng, eval: &CostEvaluator, problem: &PlacementProblem) -> Move {
    let components = problem.graph.len();
    let hosts = problem.hosts.len();
    loop {
        let node = NodeIndex::new(rng.index(components));
        let host = HostId(rng.index(hosts));
        match rng.index(3) {
            0 => return Move::MovePrimary { node, to: host },
            1 if eval.primary_of(node) != host && !eval.has_replica(node, host) => {
                return Move::AddReplica { node, host };
            }
            2 if eval.has_replica(node, host) => {
                return Move::DropReplica { node, host };
            }
            _ => continue,
        }
    }
}

/// The moves that revert `mv` from the evaluator's current state, in
/// order: a primary move back, plus the replica it absorbs.
fn inverse(eval: &CostEvaluator, mv: Move) -> Vec<Move> {
    match mv {
        Move::MovePrimary { node, to } => {
            let mut back = vec![Move::MovePrimary {
                node,
                to: eval.primary_of(node),
            }];
            if eval.has_replica(node, to) {
                back.push(Move::AddReplica { node, host: to });
            }
            back
        }
        Move::AddReplica { node, host } => vec![Move::DropReplica { node, host }],
        Move::DropReplica { node, host } => vec![Move::AddReplica { node, host }],
    }
}

/// Drives a walk that applies random moves and reverts earlier ones with
/// their inverse moves, and checks the evaluator against the full sweep at
/// every step; at the end, reverts everything and checks the starting
/// placement is restored exactly.
fn walk(problem: &PlacementProblem, start: Placement, rng: &mut SimRng, steps: usize) {
    let initial_breakdown = cost_breakdown(problem, &start);
    let mut eval = CostEvaluator::new(problem, start.clone());
    assert_breakdown_close(&eval.breakdown(), &initial_breakdown, 0);

    let mut applied: Vec<Vec<Move>> = Vec::new();
    let mut running_total = eval.total();
    for step in 1..=steps {
        let delta = if !applied.is_empty() && rng.chance(0.3) {
            let back = applied.pop().expect("a move to revert");
            back.into_iter().map(|mv| eval.apply(mv)).sum()
        } else {
            let mv = random_move(rng, &eval, problem);
            applied.push(inverse(&eval, mv));
            eval.apply(mv)
        };
        running_total += delta;
        let full = cost_breakdown(problem, &eval.placement());
        assert_breakdown_close(&eval.breakdown(), &full, step);
        // The *sum of reported deltas* must track the state too — the
        // algorithms accumulate these deltas without re-reading totals.
        assert_close("running-delta total", running_total, full.total(), step);
    }

    for back in applied.into_iter().rev() {
        for mv in back {
            eval.apply(mv);
        }
    }
    assert_eq!(
        eval.placement(),
        start,
        "reverting every move must restore the starting placement exactly"
    );
    assert_breakdown_close(&eval.breakdown(), &initial_breakdown, steps + 1);
}

#[test]
fn paper_applications_match_full_recompute() {
    let (petstore, _) = mutsvc_placement::derive::petstore_problem();
    let (rubis, _) = rubis_problem();
    for (name, problem) in [("petstore", petstore), ("rubis", rubis)] {
        let mut rng = SimRng::seed_from_u64(0xC0FFEE ^ name.len() as u64);
        let start = random_placement(&mut rng, &problem, 0.2);
        walk(&problem, start, &mut rng, STEPS);
    }
}

#[test]
fn random_graphs_match_full_recompute() {
    for seed in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0x5EED_0000 + seed);
        let problem = random_problem(&mut rng);
        let start = random_placement(&mut rng, &problem, 0.2);
        walk(&problem, start, &mut rng, STEPS);
    }
}

#[test]
fn all_on_single_host_walks_match() {
    // Degenerate starts (everything co-located, near-zero communication)
    // are where absolute tolerances would hide bugs; walk from each.
    let (problem, _) = mutsvc_placement::derive::petstore_problem();
    for host in 0..problem.hosts.len() {
        let mut rng = SimRng::seed_from_u64(0xA11_0000 + host as u64);
        let start = Placement::all_on(&problem, HostId(host));
        walk(&problem, start, &mut rng, STEPS / 2);
    }
}

/// Moves replayed on each 256-host deployment.
const DENSE_REPLAY: usize = 2_000;

/// Moves between two comparisons against the full sweep during a replay.
const REPLAY_CHECK_EVERY: usize = 100;

/// `total().to_bits()` after the dense replay, recorded when the evaluator
/// started keeping each component's replica sums at its primary: a primary
/// move reads the old primary's sums from that running state, which replica
/// toggles update one term at a time, instead of re-summing them, so the
/// replay's total moved 2 ulps.
const DENSE_REPLAY_TOTAL_BITS: u64 = 4_680_424_194_676_330_054;

/// The RUBiS graph on 256 hosts that all originate client traffic, over a
/// seeded random round-trip matrix.
fn dense_problem(rng: &mut SimRng) -> PlacementProblem {
    let h = 256;
    let hosts = (0..h)
        .map(|i| Host {
            name: format!("h{i}"),
            entry_share: 1.0 / h as f64,
            cpu_capacity: f64::INFINITY,
        })
        .collect();
    let mut rtt_ms = vec![vec![0.0; h]; h];
    // Symmetric fill writes both the (i, j) and (j, i) slots.
    #[allow(clippy::needless_range_loop)]
    for i in 0..h {
        for j in (i + 1)..h {
            let rtt = rng.uniform_range(5.0, 300.0);
            rtt_ms[i][j] = rtt;
            rtt_ms[j][i] = rtt;
        }
    }
    rehost(&rubis_problem().0, hosts, rtt_ms)
}

/// Replays [`DENSE_REPLAY`] seeded moves from a random placement with
/// replicas at about half the hosts, checking the evaluator against the
/// full sweep every [`REPLAY_CHECK_EVERY`] moves. Returns the evaluator.
fn replay_checked(problem: &PlacementProblem, rng: &mut SimRng) -> CostEvaluator {
    let start = random_placement(rng, problem, 0.5);
    let mut eval = CostEvaluator::new(problem, start);
    for step in 1..=DENSE_REPLAY {
        let mv = random_move(rng, &eval, problem);
        eval.apply(mv);
        if step % REPLAY_CHECK_EVERY == 0 {
            let full = cost_breakdown(problem, &eval.placement());
            assert_breakdown_close(&eval.breakdown(), &full, step);
        }
    }
    eval
}

/// Pins the arithmetic of primary moves on wide, dense replica sets: every
/// component starts with replicas at about half of 256 hosts, so a primary
/// move's replica pass and its far-side walks run over four-word masks.
/// The replay stays within 1e-9 of the full sweep throughout, and its
/// final total must be bit-identical to the recorded value: a change that
/// reassociates the sums re-records it deliberately.
#[test]
fn dense_replica_replay_total_is_pinned() {
    let mut rng = SimRng::seed_from_u64(0xDE45_E256);
    let problem = dense_problem(&mut rng);
    let eval = replay_checked(&problem, &mut rng);
    assert_eq!(
        eval.total().to_bits(),
        DENSE_REPLAY_TOTAL_BITS,
        "dense replay total {:.15e} moved",
        eval.total()
    );
}

/// The 256-host multi-tier rung: the 15 regional hubs originate no
/// traffic, so replica passes and far-side walks skip zero-share hosts, and
/// every third host has finite CPU capacity, so primary moves shift load
/// across capacity limits on multi-word masks.
#[test]
fn ladder_replica_replay_matches_full_recompute() {
    let mut problem = ladder_problem(256);
    for (i, host) in problem.hosts.iter_mut().enumerate() {
        if i % 3 == 0 {
            // Around one Entry share's load (2.5 ms/s) plus a primary
            // bucket, so moves cross the limits in both directions.
            host.cpu_capacity = 2.0 + (i % 7) as f64;
        }
    }
    let mut rng = SimRng::seed_from_u64(0x1ADD_E256);
    let eval = replay_checked(&problem, &mut rng);
    assert!(eval.breakdown().overload > 0.0);
}

#[cfg(debug_assertions)]
const PRICE_STEPS: usize = 1_000;
#[cfg(not(debug_assertions))]
const PRICE_STEPS: usize = 3_000;

#[cfg(debug_assertions)]
const RUNG_PRICE_STEPS: usize = 2_000;
#[cfg(not(debug_assertions))]
const RUNG_PRICE_STEPS: usize = 20_000;

/// Walks `steps` random moves from `start`, pricing each with
/// [`CostEvaluator::delta`] before applying it, and reverts half of them
/// with their inverse moves, priced and applied the same way, so later
/// prices read totals, loads and replica sums that carry the rounding of
/// earlier reverted moves. Every price must equal the applied delta bit for
/// bit. Returns how many applied moves changed the overload term.
fn price_walk(
    problem: &PlacementProblem,
    start: Placement,
    rng: &mut SimRng,
    steps: usize,
) -> usize {
    let mut eval = CostEvaluator::new(problem, start);
    let mut overload_moves = 0;
    for step in 1..=steps {
        let mv = random_move(rng, &eval, problem);
        let mut moves = vec![mv];
        if rng.chance(0.5) {
            moves.extend(inverse(&eval, mv));
        }
        for mv in moves {
            let overload = eval.breakdown().overload;
            let priced = eval.delta(mv);
            let applied = eval.apply(mv);
            assert_eq!(
                priced.to_bits(),
                applied.to_bits(),
                "step {step}: {mv:?} priced {priced:e} but applied {applied:e}"
            );
            if eval.breakdown().overload != overload {
                overload_moves += 1;
            }
        }
    }
    overload_moves
}

/// Random problems, where about 40 % of hosts have finite CPU capacity, so
/// moves shift load across capacity limits and the price includes the
/// overload term.
#[test]
fn pure_price_matches_apply_on_random_problems() {
    let mut overload_moves = 0;
    for seed in 0..40u64 {
        let mut rng = SimRng::seed_from_u64(0x9A1C_E000 + seed);
        let problem = random_problem(&mut rng);
        let start = random_placement(&mut rng, &problem, 0.2);
        overload_moves += price_walk(&problem, start, &mut rng, PRICE_STEPS);
    }
    assert!(overload_moves > 0, "no move changed the overload term");
}

/// The multi-tier ladder rungs the planner searches, from a placement with
/// replicas at about half the hosts: as built (every host unbounded) and
/// with every third host capped, so primary moves shift load across the
/// limits on multi-word masks. Debug builds skip the 256-host rung.
#[test]
fn pure_price_matches_apply_on_ladder_rungs() {
    let rungs: &[usize] = if cfg!(debug_assertions) {
        &[4, 16, 64]
    } else {
        &[4, 16, 64, 256]
    };
    for &hosts in rungs {
        let mut problem = ladder_problem(hosts);
        for capped in [false, true] {
            if capped {
                for (i, host) in problem.hosts.iter_mut().enumerate() {
                    if i % 3 == 0 {
                        host.cpu_capacity = 2.0 + (i % 7) as f64;
                    }
                }
            }
            let mut rng = SimRng::seed_from_u64(0x9A1C_E100 + hosts as u64);
            let start = random_placement(&mut rng, &problem, 0.5);
            let overload_moves = price_walk(&problem, start, &mut rng, RUNG_PRICE_STEPS);
            assert_eq!(
                overload_moves > 0,
                capped,
                "{hosts} hosts, capped {capped}: {overload_moves} moves changed the overload term"
            );
        }
    }
}

/// Every replica toggle's and every primary move's price at the
/// evaluator's state, each in slot `component · hosts + host`. At a
/// component's primary host there is no toggle and the primary move
/// changes nothing, so both slots hold NaN.
fn all_prices(eval: &CostEvaluator) -> (Vec<f64>, Vec<f64>) {
    let hosts = eval.hosts();
    let mut toggles = vec![f64::NAN; eval.components() * hosts];
    let mut primaries = toggles.clone();
    for m in 0..eval.components() {
        let node = NodeIndex::new(m);
        for host in (0..hosts).map(HostId) {
            if host == eval.primary_of(node) {
                continue;
            }
            let toggle = if eval.has_replica(node, host) {
                Move::DropReplica { node, host }
            } else {
                Move::AddReplica { node, host }
            };
            toggles[m * hosts + host.0] = eval.delta(toggle);
            primaries[m * hosts + host.0] = eval.delta(Move::MovePrimary { node, to: host });
        }
    }
    (toggles, primaries)
}

/// Walks `steps` random committed moves from `start` on a problem without
/// finite-capacity hosts. After each move, every price
/// `CostEvaluator::mark_stale` keeps must equal the price at the new state
/// bit for bit: each replica toggle whose slot it leaves set, and each
/// primary move of a component it leaves unmarked. Returns how many toggle
/// prices it kept after replica toggles and after primary moves.
fn stale_mark_walk(
    problem: &PlacementProblem,
    start: Placement,
    rng: &mut SimRng,
    steps: usize,
) -> (usize, usize) {
    let mut eval = CostEvaluator::new(problem, start);
    let hosts = eval.hosts();
    let (mut toggles, mut primaries) = all_prices(&eval);
    let (mut kept_after_toggle, mut kept_after_move) = (0, 0);
    for step in 1..=steps {
        let mv = random_move(rng, &eval, problem);
        eval.apply(mv);
        let mut stale = vec![false; eval.components()];
        eval.mark_stale(mv, &mut stale, &mut toggles);
        let (next_toggles, next_primaries) = all_prices(&eval);
        let mut kept = 0;
        for (slot, (&cached, &now)) in toggles.iter().zip(&next_toggles).enumerate() {
            if cached.is_nan() {
                continue;
            }
            kept += 1;
            assert_eq!(
                cached.to_bits(),
                now.to_bits(),
                "step {step}, after {mv:?}: kept toggle of c{} at h{} was {cached:e}, is {now:e}",
                slot / hosts,
                slot % hosts
            );
        }
        match mv {
            Move::MovePrimary { .. } => kept_after_move += kept,
            _ => kept_after_toggle += kept,
        }
        for m in (0..eval.components()).filter(|&m| !stale[m]) {
            let slots = m * hosts..(m + 1) * hosts;
            for (h, (cached, now)) in primaries[slots.clone()]
                .iter()
                .zip(&next_primaries[slots])
                .enumerate()
            {
                assert_eq!(
                    cached.to_bits(),
                    now.to_bits(),
                    "step {step}, after {mv:?}: unmarked c{m}'s move to h{h} was {cached:e}, is {now:e}"
                );
            }
        }
        (toggles, primaries) = (next_toggles, next_primaries);
    }
    (kept_after_toggle, kept_after_move)
}

#[cfg(debug_assertions)]
const STALE_MARK_STEPS: usize = 400;
#[cfg(not(debug_assertions))]
const STALE_MARK_STEPS: usize = 2_000;

/// The climb keeps a replica toggle's price until `mark_stale` resets its
/// slot. On random graphs with every host unbounded, and on the 16- and
/// 64-host ladder rungs as built, each kept price is exact after both move
/// kinds, and each kind keeps some.
#[test]
fn stale_marks_keep_only_exact_prices() {
    let mut problems = Vec::new();
    for seed in 0..12u64 {
        let mut rng = SimRng::seed_from_u64(0x57A1_E000 + seed);
        let mut problem = random_problem(&mut rng);
        for host in &mut problem.hosts {
            host.cpu_capacity = f64::INFINITY;
        }
        problems.push((format!("seed {seed}"), problem, 0.2));
    }
    for hosts in [16, 64] {
        problems.push((format!("rubis-mt{hosts}"), ladder_problem(hosts), 0.5));
    }
    for (i, (label, problem, replica_chance)) in problems.into_iter().enumerate() {
        let mut rng = SimRng::seed_from_u64(0x57A1_E100 + i as u64);
        let start = random_placement(&mut rng, &problem, replica_chance);
        let (after_toggle, after_move) =
            stale_mark_walk(&problem, start, &mut rng, STALE_MARK_STEPS);
        assert!(
            after_toggle > 0 && after_move > 0,
            "{label}: kept {after_toggle} prices after toggles, {after_move} after primary moves"
        );
    }
}
