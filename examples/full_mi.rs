//! The GEM5-inspired full MI protocol on a 2×2 mesh (Section 5, "MI
//! Protocol").
//!
//! The full protocol adds data transfer, cache-to-cache forwarding, nacks,
//! replacement acknowledgments and DMA.  This example derives its
//! cross-layer invariants (the paper reports 14 for the 2×2 mesh, among
//! them `Σ c.MI − d.MI = |acks| − |invs|`), prints them, and verifies
//! deadlock freedom for a generous queue size.
//!
//! Run with: `cargo run --release --example full_mi`

use advocat::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Full MI protocol (GEM5-inspired) on a 2×2 mesh ==\n");
    let config = FabricConfig::new(Topology::mesh(2, 2)?, 4)
        .with_directory(3)
        .with_protocol(ProtocolKind::FullMi);
    let system = build_fabric(&config)?;
    let stats = system.stats();
    println!(
        "model: {} primitives, {} automata, {} queues, {} colors",
        stats.primitives, stats.automata, stats.queues, stats.colors
    );

    let mut engine = QueryEngine::structural(system.clone());
    let report = engine.check(&Query::new());
    let invariants = engine.invariants();
    println!(
        "\n{} cross-layer invariants derived, for example:",
        invariants.len()
    );
    for invariant in invariants.iter().take(12) {
        println!("  {}", format_invariant(engine.system(), invariant));
    }
    if invariants.len() > 12 {
        println!("  … and {} more", invariants.len() - 12);
    }

    println!("\nverdict: {}", report.summary());
    if let Some(cex) = report.counterexample() {
        println!("{cex}");
    }

    // The protocol automata themselves match the paper's size figures.
    let protocol = FullMi::new(4, 3);
    let mut scratch = Network::new();
    let cache = protocol.cache_agent(&mut scratch, 0);
    let dir = protocol.directory_agent(&mut scratch);
    println!(
        "\nprotocol shape: cache has {} states, directory has {} states, {} message kinds",
        cache.automaton.state_count(),
        dir.automaton.state_count(),
        FullMi::message_kinds().len()
    );
    Ok(())
}
