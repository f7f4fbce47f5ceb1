//! The Query API: one engine, every question.
//!
//! ADVOCAT's pitch is that one SMT encoding of a fabric answers many
//! questions.  This example builds a single `QueryEngine` over the 2×2
//! directory mesh and sweeps all three query dimensions — queue capacity,
//! deadlock target, invariant strengthening — from the same persistent
//! session, then shows the session statistics proving nothing was
//! re-encoded along the way.
//!
//! Run with: `cargo run --release --example query`

use advocat::prelude::*;

fn flag(free: bool) -> &'static str {
    if free {
        "free"
    } else {
        "deadlock"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== The Query API: capacity x target x invariants from one session ==\n");

    let config = FabricConfig::new(Topology::mesh(2, 2)?, 1)
        .with_directory(3)
        .with_protocol(ProtocolKind::AbstractMi);
    let system = build_fabric_for_sweep(&config, 4)?;
    let mut engine = QueryEngine::on(system, 1..=4);

    // Dimension 1+2: the capacity sweep, under each deadlock target.
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9}",
        "target", "cap 1", "cap 2", "cap 3", "cap 4"
    );
    for target in [
        DeadlockTarget::StuckPacket,
        DeadlockTarget::DeadAutomaton,
        DeadlockTarget::Any,
    ] {
        let verdicts: Vec<&str> = (1..=4)
            .map(|capacity| {
                flag(
                    engine
                        .check(&Query::new().capacity(capacity).target(target))
                        .is_deadlock_free(),
                )
            })
            .collect();
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9}",
            target.to_string(),
            verdicts[0],
            verdicts[1],
            verdicts[2],
            verdicts[3]
        );
    }

    // Dimension 3: the Section-3 invariant ablation, same session.
    let ablated = engine.check(&Query::new().capacity(3).invariants(false));
    println!(
        "\ninvariants off at capacity 3: {} (the Section-3 false candidates return)",
        flag(ablated.is_deadlock_free())
    );
    if let Some(cex) = ablated.counterexample() {
        let witnessed: Vec<String> = cex.witnessed.iter().map(|t| t.to_string()).collect();
        println!("  candidate witnesses: {}", witnessed.join(", "));
    }

    // The sizing search is one more query pattern over the same engine.
    let sizing = engine.minimal_capacity(&Query::new().target(DeadlockTarget::StuckPacket));
    println!(
        "\nminimal stuck-packet-free capacity: {:?} (probes: {:?})",
        sizing.minimal_queue_size, sizing.evaluations
    );

    // The statistics prove the whole study shared one encoding.
    let stats = engine.stats();
    println!(
        "\nsession: {} queries, {} template(s) built, {} conflicts, {} propagations",
        stats.queries, stats.templates_built, stats.sat_conflicts, stats.sat_propagations
    );
    Ok(())
}
