//! The cross-layer deadlock of Fig. 3: abstract MI on a 2×2 mesh.
//!
//! With all queues of size 2 the combination of a deadlock-free protocol
//! and a deadlock-free fabric still deadlocks; with size 3 it is proven
//! deadlock-free.  The SMT-level candidate at size 2 is confirmed to be a
//! *reachable* deadlock by the explicit-state explorer.
//!
//! Run with: `cargo run --release --example mesh_deadlock`

use advocat::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Cross-layer deadlock on a 2×2 mesh (Fig. 3) ==\n");
    for queue_size in [2usize, 3] {
        let config = FabricConfig::new(Topology::mesh(2, 2)?, queue_size)
            .with_directory(3)
            .with_protocol(ProtocolKind::AbstractMi);
        let system = build_fabric(&config)?;
        let report = QueryEngine::structural(system.clone()).check(&Query::new());
        println!("queue size {queue_size}: {}", report.summary());
        if let Some(cex) = report.counterexample() {
            println!("{cex}");
        }

        // Confirm the verdict with the explorer (UPPAAL's role in the
        // paper): at size 2 a reachable deadlock exists, at size 3 the
        // exhaustive search finds none.
        let exploration = explore(
            &system,
            &ExplorerConfig {
                max_states: 2_000_000,
                ..ExplorerConfig::default()
            },
        );
        println!(
            "  explorer: {} states, {} reachable deadlock state(s)\n",
            exploration.states_explored,
            exploration.deadlocks.len()
        );
    }

    // A long random walk is an independent, cheaper witness of the size-2
    // deadlock: it gets stuck after a while.
    let config = FabricConfig::new(Topology::mesh(2, 2)?, 2).with_directory(3);
    let system = build_fabric(&config)?;
    let walk = random_walk(&system, 100_000, 2016);
    println!(
        "random walk at queue size 2: {} steps, deadlocked: {}",
        walk.steps_taken,
        walk.deadlocked()
    );
    Ok(())
}
