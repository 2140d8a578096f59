//! Failure injection: what happens to each configuration when the WAN
//! degrades mid-run (latency triples for the middle third of the window)?
//!
//! The paper's project context ("Mutable Services") motivates exactly this:
//! adapting deployments to *unfriendly system conditions — network
//! congestion, bandwidth mismatches and high latency*. The distributed
//! configurations insulate remote clients from the degradation because most
//! of their pages never touch the WAN.
//!
//! ```sh
//! cargo run --release --example link_degradation
//! ```

use mutable_services::core::{AppKind, Config, Scenario};
use mutable_services::desim::{FaultEvent, FaultKind, FaultSchedule, SimDuration, SimTime};
use mutable_services::workload::{run_experiment, FaultSettings};

const REMOTE: [&str; 2] = ["remote1", "remote2"];

fn main() {
    println!("WAN degradation (one-way latency x3 for the middle third of the run)\n");
    println!(
        "{:<18} {:>16} {:>16} {:>10}",
        "configuration", "healthy remote", "degraded remote", "impact"
    );
    for config in [
        Config::Centralized,
        Config::RemoteFacade,
        Config::QueryCaching,
    ] {
        let scenario = Scenario::quick(AppKind::PetStore, config);
        let healthy = scenario.run();

        let (mut input, _) = scenario.build();
        let horizon = input.spec.horizon() - SimTime::ZERO;
        // Every directed WAN leg (base latency >= 50 ms) slows down at one
        // third of the run and recovers at two thirds.
        let mut events = Vec::new();
        for l in input.topology.link_ids() {
            if input.topology.link(l).latency < SimDuration::from_millis(50) {
                continue;
            }
            let link = l.index() as u32;
            for (share, factor) in [(1.0 / 3.0, 3.0), (2.0 / 3.0, 1.0)] {
                let kind = FaultKind::LinkDegraded { link, factor };
                let at = horizon.mul_f64(share);
                events.push(FaultEvent { at, kind });
            }
        }
        input.spec = input.spec.with_faults(FaultSettings {
            schedule: FaultSchedule::scripted(events),
            ..FaultSettings::off()
        });
        let degraded = run_experiment(input);

        let h = healthy
            .stats
            .session_mean_over_groups(&REMOTE, "Browser")
            .unwrap();
        let d = degraded
            .stats
            .session_mean_over_groups(&REMOTE, "Browser")
            .unwrap();
        println!(
            "{:<18} {:>14.0}ms {:>14.0}ms {:>9.0}%",
            config.name(),
            h,
            d,
            (d - h) / h * 100.0
        );
    }
    println!("\nEdge caching absorbs the degradation: pages that never cross the WAN");
    println!("cannot be hurt by it — the paper's insulation argument, quantified.");
}
