//! The MESI protocol family end to end: shared states on the paper's 2×2
//! mesh, the invariant ablation, message-class virtual channels, and an
//! MI-vs-MESI comparison from one study.
//!
//! Run with `cargo run --release --example mesi`.

use advocat::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The MESI threshold on the 2×2 mesh. ----------------------
    let config = FabricConfig::new(Topology::mesh(2, 2)?, 1)
        .with_directory(3)
        .with_protocol(ProtocolKind::Mesi);
    let system = build_fabric_for_sweep(&config, 4)?;
    let mut engine = QueryEngine::on(system, 1..=4);
    println!("== MESI on the 2×2 mesh (directory at (1,1)) ==");
    println!(
        "cache: 9 states; directory: {} states (3 caches); {} message kinds",
        Mesi::directory_states(3),
        Mesi::message_kinds().len(),
    );
    for capacity in 1..=4usize {
        let report = engine.check(&Query::new().capacity(capacity));
        println!(
            "  capacity {capacity}: {}",
            if report.is_deadlock_free() {
                "deadlock-free".to_owned()
            } else {
                let cex = report.counterexample().expect("candidate");
                format!(
                    "possible deadlock ({} packets en route, dead: {})",
                    cex.total_packets(),
                    cex.dead_automata.join(", ")
                )
            }
        );
    }

    // --- 2. The ablation: shared-state invariants carry the proof. ----
    let ablated = engine.check(&Query::new().capacity(3).invariants(false));
    println!(
        "  capacity 3 without invariants: {}",
        if ablated.is_deadlock_free() {
            "deadlock-free"
        } else {
            "possible deadlock (unreachable candidates admitted)"
        }
    );
    println!(
        "  {} invariants derived; templates built: {}",
        engine.invariants().len(),
        engine.stats().templates_built
    );

    // --- 3. Message-class planes shrink the minimal capacity. ---------
    let vc = QueryEngine::on(
        build_fabric_for_sweep(&config.with_message_class_vcs(true), 2)?,
        1..=2,
    )
    .minimal_capacity(&Query::new());
    println!(
        "  with request/response planes the threshold drops to {:?}",
        vc.minimal_queue_size
    );

    // --- 4. MI vs MESI on the same fabric, one engine per family. -----
    println!("\n== MI vs MESI, same 2×2 mesh, same sweep ==");
    let fabric = FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3);
    println!(
        "{:<12} {:<8} {:<10} {:>10} {:>12}",
        "protocol", "kinds", "min free", "queries", "SAT effort"
    );
    let mut templates = 0;
    for family in [ProtocolKind::AbstractMi, ProtocolKind::Mesi] {
        let mut engine = QueryEngine::for_fabric(&fabric.clone().with_protocol(family), 1..=4)?;
        let sizing = engine.minimal_capacity(&Query::new());
        let stats = engine.stats();
        templates += stats.templates_built;
        println!(
            "{:<12} {:<8} {:<10} {:>10} {:>12}",
            family.name(),
            family.message_kind_count(),
            sizing
                .minimal_queue_size
                .map(|c| c.to_string())
                .unwrap_or("> 4".to_owned()),
            stats.queries,
            stats.sat_effort(),
        );
    }
    println!("templates built across the study: {templates} (one per family, never per probe)");

    // --- 5. The same protocol rides other topology families. ----------
    println!("\n== MESI across topologies ==");
    for (name, fabric) in [
        (
            "ring(4)",
            FabricConfig::new(Topology::ring(4)?, 1).with_directory(1),
        ),
        (
            "torus(2,2)",
            FabricConfig::new(Topology::torus(2, 2)?, 1).with_directory(3),
        ),
    ] {
        let mut engine = QueryEngine::for_fabric(&fabric.with_protocol(ProtocolKind::Mesi), 1..=4)?;
        let result = engine.minimal_capacity(&Query::new());
        println!(
            "  {name}: minimal deadlock-free capacity {:?}",
            result.minimal_queue_size
        );
    }
    Ok(())
}
