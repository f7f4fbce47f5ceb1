//! E5 — the virtual-channel ablation (Section 5).
//!
//! The paper shows that virtual channels do not remove the cross-layer
//! deadlock but do reduce the minimal deadlock-free queue size (6×6 mesh:
//! 58 without VCs vs > 29 with VCs).  The harness reproduces the shape on
//! meshes small enough for the bundled solver: for each mesh, the deadlock
//! still exists at the smallest queue size even with VCs, and the minimal
//! deadlock-free size with VCs is at most the size without them.

use advocat::prelude::*;
use advocat_bench::minimal_size;
use criterion::{criterion_group, Criterion};

fn print_table() {
    advocat_telemetry::info!("== E5: virtual-channel ablation ==");
    advocat_telemetry::info!(
        "{:<8} {:<12} {:<16} {:<16}",
        "mesh",
        "directory",
        "min size (no VC)",
        "min size (VCs)"
    );
    let cases = [(2u32, 2u32, (1u32, 1u32)), (2, 2, (0, 0)), (3, 2, (1, 0))];
    for (w, h, dir) in cases {
        let without = minimal_size(w, h, dir, false, 10);
        let with = minimal_size(w, h, dir, true, 10);
        advocat_telemetry::info!(
            "{:<8} {:<12} {:<16} {:<16}",
            format!("{w}x{h}"),
            format!("({},{})", dir.0, dir.1),
            without
                .map(|s| s.to_string())
                .unwrap_or_else(|| "> 10".into()),
            with.map(|s| s.to_string()).unwrap_or_else(|| "> 10".into()),
        );
    }

    // VCs do not remove the deadlock itself at minimal queue capacity.
    let vc_small = build_fabric(
        &FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1)
            .with_directory(3)
            .with_message_class_vcs(true),
    )
    .expect("valid mesh");
    let report = QueryEngine::structural(vc_small.clone()).check(&Query::new());
    advocat_telemetry::info!(
        "  2x2 with VCs at queue size 1: {}",
        if report.is_deadlock_free() {
            "deadlock-free"
        } else {
            "still deadlocks (VCs alone do not help)"
        }
    );
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let plain =
        build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3))
            .unwrap();
    let vcs = build_fabric(
        &FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3)
            .with_directory(3)
            .with_message_class_vcs(true),
    )
    .unwrap();
    let mut group = c.benchmark_group("vc_ablation");
    group.sample_size(10);
    group.bench_function("verify_2x2_qs3_no_vc", |b| {
        b.iter(|| {
            QueryEngine::structural(plain.clone())
                .check(&Query::new())
                .is_deadlock_free()
        })
    });
    group.bench_function("verify_2x2_qs3_with_vc", |b| {
        b.iter(|| {
            QueryEngine::structural(vcs.clone())
                .check(&Query::new())
                .is_deadlock_free()
        })
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
