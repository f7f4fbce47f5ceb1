//! Shared helpers for the ADVOCAT benchmark harness.
//!
//! Each Criterion bench target under `benches/` regenerates one table or
//! figure of the paper's evaluation: it first prints the regenerated
//! rows/series (computed once), then measures representative
//! configurations with Criterion.  End-to-end and per-layer figures of
//! record come from the repository benchmark, `perfbench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use advocat::prelude::*;

/// The `width × height` mesh with the directory at position `dir`
/// (terminal `y * width + x`), hosting `protocol`.
fn mesh(
    width: u32,
    height: u32,
    queue_size: usize,
    dir: (u32, u32),
    protocol: ProtocolKind,
) -> FabricConfig {
    let topology = Topology::mesh(width, height).expect("mesh dimensions are valid");
    FabricConfig::new(topology, queue_size)
        .with_directory((dir.1 * width + dir.0) as usize)
        .with_protocol(protocol)
}

/// Builds the abstract-MI mesh used throughout the evaluation section.
pub fn abstract_mesh(width: u32, height: u32, queue_size: usize, dir: (u32, u32)) -> System {
    build_fabric(&mesh(
        width,
        height,
        queue_size,
        dir,
        ProtocolKind::AbstractMi,
    ))
    .expect("mesh configuration is valid")
}

/// Builds the full-MI mesh of the "MI Protocol" paragraph.
pub fn full_mi_mesh(width: u32, height: u32, queue_size: usize, dir: (u32, u32)) -> System {
    build_fabric(&mesh(width, height, queue_size, dir, ProtocolKind::FullMi))
        .expect("mesh configuration is valid")
}

/// Runs the minimal-queue-size search used by the Fig. 4 and VC-ablation
/// benches.
pub fn minimal_size(
    width: u32,
    height: u32,
    dir: (u32, u32),
    vcs: bool,
    max: usize,
) -> Option<usize> {
    let config = mesh(width, height, 1, dir, ProtocolKind::AbstractMi).with_message_class_vcs(vcs);
    let system = build_fabric_for_sweep(&config, max).expect("valid mesh configuration");
    QueryEngine::on(system, 2..=max)
        .minimal_capacity(&Query::new())
        .minimal_queue_size
}

/// Formats a verdict for the printed tables.
pub fn verdict_label(report: &Report) -> &'static str {
    if report.is_deadlock_free() {
        "deadlock-free"
    } else {
        "deadlock candidate"
    }
}
