//! The `plan-mt` workload: offline deployment planning with no simulation.
//! Regional search on the 256-host multi-tier rung, flat greedy search on
//! the 16-host rung, a seeded move replay through the incremental cost
//! evaluator, and the static analyzer over all ten paper cells.

use std::collections::BTreeMap;
use std::time::Instant;

use mutsvc_analyze::analyze_target;
use mutsvc_core::{multi_tier_topology, AppKind, Config, MultiTierSpec};
use mutsvc_desim::SimRng;
use mutsvc_placement::algorithms::{greedy_solve, solve_regional, GreedyOptions, RegionalOptions};
use mutsvc_placement::derive::rubis_problem;
use mutsvc_placement::graph::{HostId, Placement, PlacementProblem};
use mutsvc_placement::wan::{hosts_from_topology, rehost, ServerSpec};
use mutsvc_placement::{cost, CostEvaluator, Move, NodeIndex};

use crate::metrics::{median, peak_rss_mib, Clock, Fnv, RunResult, PER_LAYER};
use crate::spans::Spans;

/// Host count of the regional-search and move-replay rung.
const LARGE: usize = 256;
/// Host count of the flat greedy rung.
const SMALL: usize = 16;
/// Moves replayed per batch.
const MOVES: usize = 200_000;
/// Moves checked against full recomputation.
const CHECKED_MOVES: usize = 1_000;
/// Set-ups the traced run times; `core.build_ms` and `placement.build_ms`
/// are the medians.
const SETUP_REPS: usize = 15;
/// Fewest timed batches per run, whatever `--seconds` says.
const MIN_BATCHES: usize = 3;

/// The analyzer's committed transcript of all ten cells.
const GOLDEN: &str = include_str!("../../crates/analyze/golden/all_cells.txt");

/// The RUBiS graph re-targeted onto the multi-tier rung with `hosts`
/// application servers: client traffic splits evenly over the main site and
/// every edge PoP; regional hubs carry none. It and the move helpers below
/// mirror `repro-report --placement`'s, which live in the report crate the
/// benchmark does not build against.
pub fn ladder_problem(hosts: usize) -> PlacementProblem {
    let (topology, nodes) = multi_tier_topology(&MultiTierSpec::ladder_rung(hosts));
    let share = 1.0 / (nodes.edges.len() as f64 + 1.0);
    let servers: Vec<ServerSpec> = nodes
        .servers()
        .into_iter()
        .enumerate()
        .map(|(i, node)| ServerSpec {
            node,
            // servers() lists main, then hubs, then edge PoPs.
            entry_share: if i == 0 || i > nodes.hubs.len() {
                share
            } else {
                0.0
            },
            cpu_capacity: f64::INFINITY,
        })
        .collect();
    let (host_list, rtt) = hosts_from_topology(&topology, &servers);
    rehost(&rubis_problem().0, host_list, rtt)
}

/// A seeded sequence of `count` valid moves from the all-on-host-0
/// placement: primaries move anywhere, replicas are added only where absent
/// and dropped only where present.
pub fn move_sequence(problem: &PlacementProblem, count: usize, seed: u64) -> Vec<Move> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut eval = CostEvaluator::new(problem, Placement::all_on(problem, HostId(0)));
    let (components, hosts) = (problem.graph.len(), problem.hosts.len());
    let mut moves = Vec::with_capacity(count);
    while moves.len() < count {
        let node = NodeIndex::new(rng.index(components));
        let host = HostId(rng.index(hosts));
        let mv = match rng.index(3) {
            0 => Move::MovePrimary { node, to: host },
            1 if eval.primary_of(node) != host && !eval.has_replica(node, host) => {
                Move::AddReplica { node, host }
            }
            2 if eval.has_replica(node, host) => Move::DropReplica { node, host },
            _ => continue,
        };
        eval.apply(mv);
        eval.commit();
        moves.push(mv);
    }
    moves
}

fn replay_incremental(problem: &PlacementProblem, moves: &[Move]) -> f64 {
    let mut eval = CostEvaluator::new(problem, Placement::all_on(problem, HostId(0)));
    for &mv in moves {
        eval.apply(mv);
        eval.commit();
    }
    eval.total()
}

fn replay_full(problem: &PlacementProblem, moves: &[Move]) -> f64 {
    let mut placement = Placement::all_on(problem, HostId(0));
    for &mv in moves {
        match mv {
            Move::MovePrimary { node, to } => {
                placement.primary[node.index()] = to;
                placement.replicas[node.index()].remove(&to);
            }
            Move::AddReplica { node, host } => {
                placement.replicas[node.index()].insert(host);
            }
            Move::DropReplica { node, host } => {
                placement.replicas[node.index()].remove(&host);
            }
        }
    }
    cost(problem, &placement)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One planning batch's answers and host times.
#[derive(Debug, Clone)]
struct Batch {
    regional_cost: f64,
    regional_recomputed: f64,
    greedy_cost: f64,
    replay_cost: f64,
    transcript: String,
    diagnostics: usize,
    regional_s: f64,
    greedy_s: f64,
    moves_s: f64,
    analyze_s: f64,
}

impl Batch {
    /// Calibrated host seconds of the whole batch.
    fn wall_s(&self) -> f64 {
        self.regional_s + self.greedy_s + self.moves_s + self.analyze_s
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for v in [self.regional_cost, self.greedy_cost, self.replay_cost] {
            h.u64(v.to_bits());
        }
        h.bytes(self.transcript.as_bytes());
        h.finish()
    }
}

/// The workload's inputs: both rungs and the seeded move sequence.
struct Inputs {
    large: PlacementProblem,
    small: PlacementProblem,
    moves: Vec<Move>,
}

/// Operations of one batch: two searches, every replayed move and every
/// analyzed cell.
const OPS_PER_BATCH: u64 = 2 + MOVES as u64 + 10;

fn batch(inputs: &Inputs, clock: &mut Clock, spans: &mut Spans) -> Batch {
    let ((placement, regional_cost), regional_s) = clock.time(|| {
        spans.span("placement.solve_regional", |_| {
            solve_regional(&inputs.large, &RegionalOptions::default())
        })
    });
    let regional_recomputed = cost(&inputs.large, &placement);
    let ((_, greedy_cost), greedy_s) = clock.time(|| {
        spans.span("placement.greedy_solve", |_| {
            greedy_solve(&inputs.small, &GreedyOptions::default())
        })
    });
    let (replay_cost, moves_s) = clock.time(|| {
        spans.span("placement.cost_evaluator", |_| {
            replay_incremental(&inputs.large, &inputs.moves)
        })
    });
    let ((transcript, diagnostics), analyze_s) = clock.time(|| {
        spans.span("analyze.analyze_target", |_| {
            let mut text = String::new();
            let mut diagnostics = 0;
            for app in AppKind::all() {
                for config in Config::all() {
                    let report = analyze_target(app, config);
                    diagnostics += report.diagnostics.len();
                    text.push_str(&report.render_text());
                }
            }
            (text, diagnostics)
        })
    });
    Batch {
        regional_cost,
        regional_recomputed,
        greedy_cost,
        replay_cost,
        transcript,
        diagnostics,
        regional_s,
        greedy_s,
        moves_s,
        analyze_s,
    }
}

fn check(result: &mut RunResult, b: &Batch, first: Option<&Batch>) {
    result.check(close(b.regional_cost, b.regional_recomputed), || {
        format!(
            "solve_regional returned {} but its placement costs {}",
            b.regional_cost, b.regional_recomputed
        )
    });
    result.check(b.transcript == GOLDEN, || {
        "analyzer output differs from crates/analyze/golden/all_cells.txt".to_string()
    });
    if let Some(f) = first {
        result.check(b.digest() == f.digest(), || {
            "a batch planned a different answer".to_string()
        });
    }
}

/// The set-up the `setup_s` metric times: the large rung, then its cost
/// evaluator. Returns the rung, the evaluator's table bytes and the
/// calibrated seconds each step took.
fn build_large(clock: &mut Clock, spans: &mut Spans) -> (PlacementProblem, usize, f64, f64) {
    let (problem, rung_s) = clock.time(|| spans.span("core.build", |_| ladder_problem(LARGE)));
    let (eval, eval_s) = clock.time(|| {
        spans.span("placement.build", |_| {
            CostEvaluator::new(&problem, Placement::all_on(&problem, HostId(0)))
        })
    });
    (problem, eval.table_bytes(), rung_s, eval_s)
}

/// The rest of the workload's input: the small rung and the seeded moves.
fn inputs(large: PlacementProblem, seed: u64) -> Inputs {
    Inputs {
        moves: move_sequence(&large, MOVES, seed),
        small: ladder_problem(SMALL),
        large,
    }
}

/// Checks the incremental evaluator against full recomputation on a
/// prefix of the move sequence.
fn check_prefix(result: &mut RunResult, inputs: &Inputs) {
    let prefix = &inputs.moves[..CHECKED_MOVES];
    let incremental = replay_incremental(&inputs.large, prefix);
    let full = replay_full(&inputs.large, prefix);
    result.check(close(incremental, full), || {
        format!("incremental cost {incremental} vs full recompute {full}")
    });
}

fn counters(b: &Batch) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    out.insert(
        "placement.regional_cost_bits".into(),
        b.regional_cost.to_bits(),
    );
    out.insert("placement.greedy_cost_bits".into(), b.greedy_cost.to_bits());
    out.insert("placement.replay_cost_bits".into(), b.replay_cost.to_bits());
    out.insert("analyze.diagnostics".into(), b.diagnostics as u64);
    out
}

/// The timed run: planning batches until `seconds` have passed, each
/// preceded by a timed set-up.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let (mut clock, mut off) = (Clock::new(), Spans::new(false));
    let inputs = inputs(build_large(&mut clock, &mut off).0, seed);
    check_prefix(&mut result, &inputs);
    let (mut batches, mut setups): (Vec<Batch>, Vec<f64>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while batches.len() < MIN_BATCHES || started.elapsed().as_secs_f64() < seconds {
        let (_, _, rung_s, eval_s) = build_large(&mut clock, &mut off);
        setups.push(rung_s + eval_s);
        let b = batch(&inputs, &mut clock, &mut off);
        check(&mut result, &b, batches.first());
        result.attempted += OPS_PER_BATCH;
        batches.push(b);
    }
    let wall_s = median(&batches.iter().map(Batch::wall_s).collect::<Vec<_>>());
    let first = &batches[0];
    result.digest = first.digest();
    result.counters = counters(first);
    result.set("ops_per_s", OPS_PER_BATCH as f64 / wall_s);
    result.set("wall_s", wall_s);
    result.set("setup_s", median(&setups));
    result.set("peak_rss_mib", peak_rss_mib());
    println!(
        "{} batches, median {wall_s:.4} s, regional cost {:.6}, greedy cost {:.6}",
        batches.len(),
        first.regional_cost,
        first.greedy_cost
    );
    result
}

/// The traced run: rounds of one untraced and one traced batch until
/// `seconds` have passed. Step times are the medians of the traced
/// batches.
pub fn trace(seed: u64, seconds: f64, spans: &mut Spans) -> RunResult {
    let mut result = RunResult::zeroed(PER_LAYER);
    let mut clock = Clock::new();
    let (mut rungs, mut evals) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (problem, table_bytes, rung_s, eval_s) = build_large(&mut clock, spans);
        rungs.push(rung_s);
        evals.push(eval_s);
        built = Some((problem, table_bytes));
    }
    let (large, table_bytes) = built.expect("at least one build");
    let inputs = inputs(large, seed);
    check_prefix(&mut result, &inputs);
    let (mut plains, mut traces): (Vec<Batch>, Vec<Batch>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plains.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let plain = batch(&inputs, &mut clock, &mut Spans::new(false));
        check(&mut result, &plain, plains.first());
        let traced = spans.span("plan-mt.batch", |s| batch(&inputs, &mut clock, s));
        check(&mut result, &traced, plains.first().or(Some(&plain)));
        plains.push(plain);
        traces.push(traced);
        result.attempted += 2 * OPS_PER_BATCH;
    }
    let step = |f: fn(&Batch) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let plain_wall = median(&plains.iter().map(Batch::wall_s).collect::<Vec<_>>());
    let (regional, greedy) = (step(|b| b.regional_s), step(|b| b.greedy_s));
    let (moves, analyze) = (step(|b| b.moves_s), step(|b| b.analyze_s));
    let wall = regional + greedy + moves + analyze;
    let plain = &plains[0];
    result.set("core.build_ms", median(&rungs) * 1e3);
    result.set("placement.build_ms", median(&evals) * 1e3);
    result.set("placement.moves_per_s", MOVES as f64 / moves);
    result.set("placement.regional_s", regional);
    result.set("placement.greedy_s", greedy);
    result.set("placement.table_bytes", table_bytes as f64);
    result.set("placement.regional_cost", plain.regional_cost);
    result.set("analyze.ms_per_cell", analyze * 1e3 / 10.0);
    result.set("analyze.diagnostics", plain.diagnostics as f64);
    // Every call of the batch is timed directly, so nothing is left
    // unexplained.
    result.set("share.placement", (regional + greedy + moves) / wall);
    result.set("share.analyze", analyze / wall);
    result.set("trace.wall_s", wall);
    result.set("trace.overhead_s", wall - plain_wall);
    result.digest = plain.digest();
    result.counters = counters(plain);
    println!(
        "{} rounds, untraced {plain_wall:.4} s, traced {wall:.4} s: regional {regional:.4} s, greedy {greedy:.4} s, {MOVES} moves {moves:.4} s, analyzer {analyze:.4} s",
        traces.len()
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_sequences_repeat_for_a_seed() {
        let problem = ladder_problem(SMALL);
        assert_eq!(
            move_sequence(&problem, 64, 3),
            move_sequence(&problem, 64, 3)
        );
        assert_ne!(
            move_sequence(&problem, 64, 3),
            move_sequence(&problem, 64, 4)
        );
    }

    #[test]
    fn incremental_and_full_costs_agree_on_the_small_rung() {
        let problem = ladder_problem(SMALL);
        let moves = move_sequence(&problem, 300, 9);
        assert!(close(
            replay_incremental(&problem, &moves),
            replay_full(&problem, &moves)
        ));
    }

    fn sample_batch() -> Batch {
        Batch {
            regional_cost: 10.0,
            regional_recomputed: 10.0,
            greedy_cost: 5.0,
            replay_cost: 7.0,
            transcript: GOLDEN.to_string(),
            diagnostics: 2,
            regional_s: 0.1,
            greedy_s: 0.1,
            moves_s: 0.1,
            analyze_s: 0.1,
        }
    }

    #[test]
    fn checks_reject_corrupted_answers() {
        let good = sample_batch();
        let mut r = RunResult::default();
        check(&mut r, &good, Some(&good));
        assert!(r.problems.is_empty(), "{:?}", r.problems);

        let mut cost_drift = sample_batch();
        cost_drift.regional_recomputed = 10.1;
        let mut transcript = sample_batch();
        transcript.transcript.push(' ');
        let mut answer = sample_batch();
        answer.greedy_cost = 5.5;
        for bad in [cost_drift, transcript, answer] {
            let mut r = RunResult::default();
            check(&mut r, &bad, Some(&good));
            assert!(!r.problems.is_empty(), "{bad:?}");
        }
    }
}
