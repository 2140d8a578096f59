//! Layer replays: each calls one layer's public entry point in a tight
//! loop, shaped by counts a traced workload run reported, and returns the
//! host cost of one call. Replayed cost × the run's exact count estimates
//! the layer's share of the run's wall time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mutsvc_analyze::entry_node;
use mutsvc_desim::sim::{Context, Fire, Simulation};
use mutsvc_desim::time::{SimDuration, SimTime};
use mutsvc_desim::SimRng;
use mutsvc_middleware::{Action, Binder, Call, ContainerState, PageRequest};
use mutsvc_netsim::{Network, NodeId};
use mutsvc_relstore::Query;
use mutsvc_workload::ExperimentInput;

/// A small deterministic generator for replay inputs (xorshift64*).
#[derive(Debug, Clone, Copy)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Hold-model world: every fired event schedules its successor until the
/// event budget is spent, so the pending depth stays constant.
struct Hold {
    rng: XorShift,
    remaining: u64,
    max_delay_us: u64,
}

struct Tick;

impl Fire<Hold> for Tick {
    fn fire(self, world: &mut Hold, ctx: &mut Context<'_, Hold, Tick>) {
        if world.remaining > 0 {
            world.remaining -= 1;
            let delay = 1 + world.rng.below(world.max_delay_us);
            ctx.schedule_event_at(ctx.now() + SimDuration::from_micros(delay), Tick);
        }
    }
}

/// Host ns per event of the desim queue at `events` events and `depth`
/// pending events spread over a `horizon` of simulated time, as the
/// workload's queue held them.
pub fn queue_ns_per_event(events: u64, depth: usize, horizon: SimDuration, seed: u64) -> f64 {
    let depth = depth.max(1) as u64;
    // Mean delay D·T/N keeps `events` firings inside the horizon.
    let mean_us = (horizon.as_micros() as f64 * depth as f64 / events.max(1) as f64).max(1.0);
    let mut sim = Simulation::with_events(Hold {
        rng: XorShift::new(seed),
        remaining: events.saturating_sub(depth),
        max_delay_us: (2.0 * mean_us) as u64,
    });
    let mut rng = XorShift::new(seed ^ 0x5bd1);
    for _ in 0..depth {
        let at = SimTime::from_micros(1 + rng.below((2.0 * mean_us) as u64));
        sim.schedule_event_at(at, Tick);
    }
    let started = Instant::now();
    sim.run_until(SimTime::MAX);
    let wall = started.elapsed().as_secs_f64();
    wall * 1e9 / sim.events_fired().max(1) as f64
}

/// Host ns per `Network::transfer` of `bytes` over the workload's
/// message pairs: every client ↔ entry leg, entry ↔ central server leg and
/// central ↔ database leg of `input`.
pub fn transfer_ns(input: &ExperimentInput, bytes: u64, count: u64, seed: u64) -> f64 {
    let central = input.descriptor.central_node;
    let db = input.descriptor.db_node;
    let mut pairs: Vec<(NodeId, NodeId)> = vec![(central, db), (db, central)];
    for g in &input.spec.groups {
        pairs.extend([
            (g.client_node, g.entry_node),
            (g.entry_node, g.client_node),
            (g.entry_node, central),
            (central, g.entry_node),
        ]);
    }
    pairs.retain(|(a, b)| a != b);
    let mut net = Network::new(input.topology.clone());
    let mut rng = XorShift::new(seed);
    let count = count.max(1);
    let step = SimDuration::from_micros(1 + input.spec.horizon().as_micros() / count);
    let mut now = SimTime::ZERO;
    let started = Instant::now();
    for _ in 0..count {
        let (a, b) = pairs[rng.below(pairs.len() as u64) as usize];
        now += step;
        black_box(net.transfer(now, a, b, bytes));
    }
    started.elapsed().as_secs_f64() * 1e9 / count as f64
}

/// Replays weighted page work: `weights` maps a page label to how many
/// requests of it the run completed, and `budget` is the total number of
/// replayed calls. Pages the run never served are skipped; every served
/// page replays at least once.
fn page_reps(pages: &[PageRequest], weights: &BTreeMap<String, u64>, budget: u64) -> Vec<u64> {
    let total: u64 = pages
        .iter()
        .map(|p| weights.get(&p.page).copied().unwrap_or(0))
        .sum();
    pages
        .iter()
        .map(|p| match weights.get(&p.page).copied().unwrap_or(0) {
            0 => 0,
            w => ((budget as f64 * w as f64 / total.max(1) as f64).round() as u64).max(1),
        })
        .collect()
}

/// Host µs per `Binder::bind_page` over the application's pages weighted
/// by the run's per-page counts, bound from the first remote client group,
/// the database statements one such bind executes, and the binds replayed.
pub fn bind_page_us(
    input: &ExperimentInput,
    weights: &BTreeMap<String, u64>,
    budget: u64,
    seed: u64,
) -> (f64, f64, u64) {
    let pages = input.app.all_pages();
    let reps = page_reps(&pages, weights, budget);
    let group = input.spec.groups.last().expect("a client group");
    let central = input.descriptor.central_node;
    let mut db = input.db.clone();
    let mut state = ContainerState::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut tag = 0u64;
    let (mut binds, mut statements) = (0u64, 0u64);
    let started = Instant::now();
    for (page, &n) in pages.iter().zip(&reps) {
        let entry = entry_node(&input.descriptor, group.entry_node, central, page);
        for _ in 0..n {
            let bound = Binder::new(
                &input.registry,
                &input.descriptor,
                &input.protocols,
                &input.container_costs,
                &mut db,
                &mut state,
                &mut rng,
                &mut tag,
            )
            .bind_page(group.client_node, entry, page);
            statements += u64::from(bound.stats.db_statements);
            binds += 1;
            black_box(bound);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let n = binds.max(1) as f64;
    (wall * 1e6 / n, statements as f64 / n, binds)
}

fn collect_queries(call: &Call, out: &mut Vec<Query>) {
    for action in &call.actions {
        match action {
            Action::Query(q) => out.push(q.query.clone()),
            Action::Invoke(inv) => collect_queries(&inv.call, out),
            Action::Mutate(_) => {}
        }
    }
}

/// Host ns per `Database::execute` over the read queries in the pages'
/// call trees, weighted by the run's per-page counts.
pub fn execute_ns(input: &ExperimentInput, weights: &BTreeMap<String, u64>, budget: u64) -> f64 {
    let pages = input.app.all_pages();
    let reps = page_reps(&pages, weights, budget);
    let mut work: Vec<(Vec<Query>, u64)> = Vec::new();
    for (page, &n) in pages.iter().zip(&reps) {
        let mut queries = Vec::new();
        collect_queries(&page.root, &mut queries);
        if n > 0 && !queries.is_empty() {
            let per_query = (n / queries.len() as u64).max(1);
            work.push((queries, per_query));
        }
    }
    let mut executed = 0u64;
    let started = Instant::now();
    for (queries, n) in &work {
        for _ in 0..*n {
            for q in queries {
                black_box(input.db.execute(black_box(q)));
                executed += 1;
            }
        }
    }
    started.elapsed().as_secs_f64() * 1e9 / executed.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_replay_fires_the_requested_events() {
        let ns = queue_ns_per_event(10_000, 64, SimDuration::from_secs(10), 3);
        assert!(ns.is_finite() && ns > 0.0);
    }

    #[test]
    fn page_weights_follow_counts_and_skip_unserved_pages() {
        let (input, _) = mutsvc_core::Scenario::quick(
            mutsvc_core::AppKind::Rubis,
            mutsvc_core::Config::AsyncUpdates,
        )
        .build();
        let pages = input.app.all_pages();
        let mut weights = BTreeMap::new();
        weights.insert(pages[0].page.clone(), 3);
        weights.insert(pages[1].page.clone(), 1);
        let reps = page_reps(&pages, &weights, 400);
        assert_eq!(reps[0], 300);
        assert_eq!(reps[1], 100);
        assert!(reps[2..].iter().all(|&r| r == 0));
    }
}
