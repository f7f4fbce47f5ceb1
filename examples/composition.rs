//! Compositional verification: certified tiles plus a boundary check.
//!
//! A 4×4 mesh is already past the comfortable size for one flat SMT
//! encoding, and an 8×8 is effectively unreachable.  The composed flow
//! never builds the flat instance: it cuts the fabric along a
//! `Partition`, certifies each structural tile class once on an engine of
//! its own (every tile of the class takes that verdict), projects each
//! tile's invariants onto its cut queues as an `InterfaceContract`, and
//! asks the global deadlock question over those contract variables only.
//! This example:
//!
//! 1. composes a 4×4 mesh cut into per-node tiles and checks it,
//!    printing the verdict with its tile/interface attribution,
//! 2. shows the class sharing in the numbers: 16 tiles certify through
//!    one engine per class; every other tile of a class is a warm
//!    certification,
//! 3. prints the projected contract of one tile: the occupancy bounds the
//!    boundary check asserts over that tile's cut queues.
//!
//! Run with: `cargo run --release --example composition`

use std::sync::Arc;

use advocat::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Compositional verification: tiles + contracts + boundary ==\n");

    // 1. A 4×4 mesh with a directory node, cut into one tile per node.
    //    (Past the flat-fallback bound of `ComposeOptions`, so this runs
    //    the composed path proper.)
    let config = FabricConfig::new(Topology::mesh(4, 4)?, 2).with_directory(5);
    let partition = Arc::new(Partition::per_node(&config.topology));
    let mut composition = QueryEngine::compose(config, partition, ComposeOptions::new(2..=2))?;

    let report = composition.check(&Query::new().capacity(2));
    println!("{}\n", report.summary());
    if let Some(attribution) = report.attribution() {
        println!("candidate attributed to: {attribution}\n");
    }

    // 2. The class sharing: 16 tiles, but only one engine per structural
    //    class (corner / edge / interior / directory-hosting).
    let stats = composition.stats();
    println!(
        "tiles: {}  structural classes: {}  boundary ports: {}",
        stats.tiles, stats.distinct_classes, stats.boundary_ports
    );
    println!(
        "engines built cold: {}  warm tile certifications: {}",
        stats.engines_built, stats.warm_hits
    );
    assert!(
        stats.distinct_classes <= 4,
        "a per-node mesh cut has at most 4 classes"
    );
    assert_eq!(stats.engines_built as usize, stats.distinct_classes);

    // 3. One tile's exported contract: occupancy bounds over its cut
    //    queues plus per-class flow summaries.
    let contracts = composition.contracts(2);
    let contract = &contracts[0];
    println!(
        "\ncontract of tile {}: {} occupancy rows, {} flow summaries",
        contract.tile,
        contract.rows.len(),
        contract.flows.len()
    );
    for flow in contract.flows.iter().take(4) {
        println!(
            "  class {}: {} ingress / {} egress ports",
            flow.class, flow.inbound, flow.outbound
        );
    }
    Ok(())
}
