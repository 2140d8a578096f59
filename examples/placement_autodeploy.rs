//! Automatic deployment: derive the component interaction graphs from the
//! applications and let the placement search rediscover the paper's
//! hand-crafted configurations.
//!
//! The quality table prices each app's placement under every search: the
//! exhaustive primaries-only optimum, greedy without and with read
//! replicas, and the region-coarsened search. Without replicas greedy
//! finds the optimum; replicating read-mostly state is what takes the cost
//! below it.
//!
//! ```sh
//! cargo run --release --example placement_autodeploy
//! ```

use mutable_services::placement::algorithms::greedy::{solve as greedy, GreedyOptions};
use mutable_services::placement::algorithms::{exhaustive, solve_regional, RegionalOptions};
use mutable_services::placement::derive::{petstore_problem, rubis_problem};
use mutable_services::placement::{cost, cost_breakdown, HostId, Placement, PlacementProblem};

fn print_deployment(name: &str, problem: &PlacementProblem, placement: &Placement) {
    let b = cost_breakdown(problem, placement);
    println!(
        "== {name}: {} components, greedy + read replicas {:.1} ms/s \
         (comm {:.1} + consistency {:.1}) ==",
        problem.graph.len(),
        b.total(),
        b.communication,
        b.consistency
    );
    for node in problem.graph.graph.node_indices() {
        let comp = &problem.graph.graph[node];
        let idx = node.index();
        let primary = &problem.hosts[placement.primary[idx].0].name;
        let replicas: Vec<&str> = placement.replicas[idx]
            .iter()
            .map(|h| problem.hosts[h.0].name.as_str())
            .collect();
        if replicas.is_empty() {
            println!("    {:<26} @ {primary}", comp.name);
        } else {
            println!(
                "    {:<26} @ {primary} + read-only on {}",
                comp.name,
                replicas.join(", ")
            );
        }
    }
    println!();
}

fn main() {
    let problems = [
        ("Java Pet Store", petstore_problem().0),
        ("RUBiS", rubis_problem().0),
    ];

    println!("== placement quality: cost (ms/s) per search ==");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "problem", "centralized", "exhaustive", "greedy", "greedy+repl", "regional"
    );
    let mut deployments = Vec::new();
    for (name, problem) in &problems {
        let centralized = cost(problem, &Placement::all_on(problem, HostId(0)));
        let (_, optimum) = exhaustive::solve(problem);
        let (_, primaries) = greedy(
            problem,
            &GreedyOptions {
                with_replication: false,
                ..Default::default()
            },
        );
        let (placement, replicated) = greedy(problem, &GreedyOptions::default());
        let (_, regional) = solve_regional(problem, &RegionalOptions::default());
        println!(
            "{name:<16} {centralized:>12.1} {optimum:>12.1} {primaries:>12.1} \
             {replicated:>12.1} {regional:>12.1}"
        );
        deployments.push((name, problem, placement));
    }
    println!("(exhaustive and greedy place primaries only; greedy+repl and regional");
    println!(" also add read-only replicas)\n");

    for (name, problem, placement) in &deployments {
        print_deployment(name, problem, placement);
    }
    println!("The greedy optimizer independently arrives at the paper's design rules:");
    println!("session tier + catalog caches at the edges, authoritative state at main.");
}
