//! Input generators shared by the placement integration tests.

use mutsvc_desim::rng::SimRng;
use mutsvc_placement::graph::{
    Component, ComponentGraph, CostParams, Host, HostId, PlacementProblem, Role,
};

/// A synthetic wide-area problem: 3–6 hosts (some with finite CPU capacity
/// so the overload term is exercised), one entry tier, a pinned database,
/// replicable entities with write traffic, and random read/write edges.
pub fn random_problem(rng: &mut SimRng) -> PlacementProblem {
    let host_count = 3 + rng.index(4);
    let mut hosts = Vec::new();
    let mut shares = Vec::new();
    for i in 0..host_count {
        // Roughly half the hosts take client traffic; host 0 always does so
        // shares never end up all-zero.
        let share = if i == 0 || rng.chance(0.5) {
            rng.uniform_range(0.2, 1.0)
        } else {
            0.0
        };
        shares.push(share);
        hosts.push(Host {
            name: format!("h{i}"),
            entry_share: 0.0,
            // Finite capacities on some hosts so moves cross the overload
            // threshold during the walk.
            cpu_capacity: if rng.chance(0.4) {
                rng.uniform_range(20.0, 120.0)
            } else {
                f64::INFINITY
            },
        });
    }
    let total_share: f64 = shares.iter().sum();
    for (host, share) in hosts.iter_mut().zip(&shares) {
        host.entry_share = share / total_share;
    }
    let mut rtt_ms = vec![vec![0.0; host_count]; host_count];
    // Symmetric fill writes both the (i, j) and (j, i) slots.
    #[allow(clippy::needless_range_loop)]
    for i in 0..host_count {
        for j in (i + 1)..host_count {
            let rtt = rng.uniform_range(10.0, 300.0);
            rtt_ms[i][j] = rtt;
            rtt_ms[j][i] = rtt;
        }
    }

    let mut graph = ComponentGraph::new();
    let component_count = 6 + rng.index(7);
    let mut nodes = Vec::new();
    for i in 0..component_count {
        let role = match i {
            0 => Role::Entry,
            1 => Role::Database,
            _ => match rng.index(4) {
                0 => Role::Session,
                1 => Role::Stateless,
                2 => Role::Entity,
                _ => Role::Stateless,
            },
        };
        let write_rate = if matches!(role, Role::Entity | Role::Database) {
            rng.uniform_range(0.0, 8.0)
        } else {
            0.0
        };
        nodes.push(graph.add(Component {
            name: format!("c{i}"),
            role,
            pinned: (role == Role::Database).then(|| HostId(rng.index(host_count))),
            cpu_ms_per_call: rng.uniform_range(0.1, 6.0),
            write_rate,
        }));
    }
    // Entry fans out; internal components call "later" components so the
    // graph looks like a tiered application rather than random soup.
    for i in 1..component_count {
        graph.interact(
            nodes[0],
            nodes[i],
            rng.uniform_range(0.5, 30.0),
            rng.uniform_range(100.0, 4000.0),
        );
    }
    for _ in 0..component_count * 2 {
        let a = rng.index(component_count);
        let b = rng.index(component_count);
        if a == b {
            continue;
        }
        let rate = rng.uniform_range(0.1, 20.0);
        let bytes = rng.uniform_range(50.0, 2000.0);
        if rng.chance(0.3) {
            graph.interact_write(nodes[a], nodes[b], rate, bytes);
        } else {
            graph.interact(nodes[a], nodes[b], rate, bytes);
        }
    }

    let problem = PlacementProblem {
        hosts,
        rtt_ms,
        graph,
        params: CostParams {
            overload_penalty: 5_000.0,
            ..CostParams::default()
        },
    };
    problem.validate().expect("random problem is well-formed");
    problem
}
