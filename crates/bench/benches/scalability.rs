//! E6 — scalability and model-size statistics (Section 5).
//!
//! The paper reports, for a 6×6 mesh with VCs and queue size 30, a total
//! verification effort of 67 s on a 2 GHz i7, a model of 2844 primitives /
//! 36 automata / 432 queues, and that verification time does not depend on
//! the queue size.  The harness regenerates (a) the model-size row for the
//! 6×6 fabric built by this reproduction, (b) a verification-time series
//! over growing meshes, and (c) a queue-size series showing how *this*
//! implementation's time varies with queue depth.

use std::time::Instant;

use advocat::prelude::*;
use advocat_bench::abstract_mesh;
use criterion::{criterion_group, Criterion};

fn print_table() {
    advocat_telemetry::info!("== E6: model sizes and verification-time scaling ==");

    // (a) Model size of the 6×6 fabric with VCs (building is cheap).
    let big = build_fabric(
        &FabricConfig::new(Topology::mesh(6, 6).unwrap(), 30)
            .with_directory(21)
            .with_message_class_vcs(true),
    )
    .expect("6x6 mesh builds");
    let stats = big.stats();
    advocat_telemetry::info!(
        "  6x6 mesh with VCs: {} primitives, {} automata, {} queues, {} channels \
         (paper: 2844 primitives, 36 automata, 432 queues)",
        stats.primitives,
        stats.automata,
        stats.queues,
        stats.channels
    );

    // (b) Verification time vs mesh size (fixed queue size).
    advocat_telemetry::info!("  verification time vs mesh size (queue size 3):");
    for (w, h) in [(2u32, 2u32), (3, 2), (2, 3)] {
        let system = abstract_mesh(w, h, 3, (w - 1, h - 1));
        let start = Instant::now();
        let report = QueryEngine::structural(system.clone()).check(&Query::new());
        advocat_telemetry::info!(
            "    {w}x{h}: {:?} ({}, {} refinements)",
            start.elapsed(),
            if report.is_deadlock_free() {
                "free"
            } else {
                "deadlock"
            },
            report.analysis().stats.refinements
        );
    }

    // (c) Verification time vs queue size (fixed 2×2 mesh).
    advocat_telemetry::info!("  verification time vs queue size (2x2 mesh):");
    for queue_size in [3usize, 6, 12] {
        let system = abstract_mesh(2, 2, queue_size, (1, 1));
        let start = Instant::now();
        let report = QueryEngine::structural(system.clone()).check(&Query::new());
        advocat_telemetry::info!(
            "    queue size {queue_size}: {:?} ({} int vars, {} bool vars)",
            start.elapsed(),
            report.analysis().stats.int_vars,
            report.analysis().stats.bool_vars
        );
    }
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalability");
    group.sample_size(10);
    for (w, h) in [(2u32, 2u32), (3, 2)] {
        let system = abstract_mesh(w, h, 3, (w - 1, h - 1));
        group.bench_function(format!("verify_{w}x{h}_qs3"), |b| {
            b.iter(|| {
                QueryEngine::structural(system.clone())
                    .check(&Query::new())
                    .is_deadlock_free()
            })
        });
    }
    let big = FabricConfig::new(Topology::mesh(6, 6).unwrap(), 30)
        .with_directory(21)
        .with_message_class_vcs(true);
    group.bench_function("build_6x6_mesh_with_vcs", |b| {
        b.iter(|| build_fabric(&big).unwrap().stats().primitives)
    });
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
