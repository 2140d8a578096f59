//! Simulation-engine microbenchmarks: event scheduling throughput, queueing
//! resource admission, network transfers and a single end-to-end scenario.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mutsvc_core::{AppKind, Config, Scenario};
use mutsvc_desim::{Context, FifoResource, Fire, SimDuration, SimTime, Simulation};
use mutsvc_netsim::{Network, TopologyBuilder};

/// The benchmark's event: bumps a counter world.
struct Tick;

impl Fire<u64> for Tick {
    fn fire(self, count: &mut u64, _: &mut Context<'_, u64, Tick>) {
        *count += 1;
    }
}

fn event_scheduling(c: &mut Criterion) {
    c.bench_function("engine/schedule_and_fire_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::with_events(0u64);
            for i in 0..100_000u64 {
                sim.schedule_event_at(SimTime::from_micros(i % 977), Tick);
            }
            sim.run();
            assert_eq!(*sim.world(), 100_000);
        });
    });
}

fn resource_admission(c: &mut Criterion) {
    c.bench_function("engine/fifo_admit_100k", |b| {
        b.iter_batched(
            || FifoResource::new("cpu", 2),
            |mut r| {
                for i in 0..100_000u64 {
                    let t = SimTime::from_micros(i * 3);
                    let _ = r.admit(t, SimDuration::from_micros(5));
                }
                r
            },
            BatchSize::SmallInput,
        );
    });
}

fn network_transfers(c: &mut Criterion) {
    let mut tb = TopologyBuilder::new();
    let a = tb.node("a", 2);
    let r = tb.node("r", 8);
    let z = tb.node("z", 2);
    tb.duplex_link(a, r, SimDuration::from_millis(10), 100e6);
    tb.duplex_link(r, z, SimDuration::from_millis(90), 100e6);
    let topology = tb.finalize();
    c.bench_function("engine/transfer_10k_messages", |b| {
        b.iter_batched(
            || Network::new(topology.clone()),
            |mut net| {
                for i in 0..10_000u64 {
                    let _ = net.transfer(SimTime::from_micros(i * 50), a, z, 1_500);
                }
                net
            },
            BatchSize::SmallInput,
        );
    });
}

fn full_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/scenario");
    group.sample_size(10);
    group.bench_function("petstore_query_caching_quick", |b| {
        b.iter(|| Scenario::quick(AppKind::PetStore, Config::QueryCaching).run());
    });
    group.finish();
}

criterion_group!(
    benches,
    event_scheduling,
    resource_admission,
    network_transfers,
    full_scenario
);
criterion_main!(benches);
