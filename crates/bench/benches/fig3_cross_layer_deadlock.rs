//! E2 — the cross-layer deadlock of Fig. 3.
//!
//! Regenerates the verdict table "queue size 2 → deadlock, queue size 3 →
//! deadlock-free" for the abstract MI protocol on a 2×2 mesh with the
//! directory at the lower-right node, and measures the verification run.

use advocat::prelude::*;
use advocat_bench::{abstract_mesh, verdict_label};
use criterion::{criterion_group, Criterion};

fn print_table() {
    advocat_telemetry::info!("== E2: cross-layer deadlock on the 2×2 mesh (Fig. 3) ==");
    advocat_telemetry::info!("{:<12} {:<22} details", "queue size", "verdict");
    for queue_size in [2usize, 3, 4] {
        let system = abstract_mesh(2, 2, queue_size, (1, 1));
        let report = QueryEngine::structural(system.clone()).check(&Query::new());
        let detail = report
            .counterexample()
            .map(|cex| {
                format!(
                    "{} en-route packets, {} invs, dead: {}",
                    cex.total_packets(),
                    cex.packets_of_kind("inv"),
                    cex.dead_automata.join("+")
                )
            })
            .unwrap_or_else(|| format!("{} invariants", report.analysis().stats.invariants));
        advocat_telemetry::info!("{:<12} {:<22} {detail}", queue_size, verdict_label(&report));
    }
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let deadlocking = abstract_mesh(2, 2, 2, (1, 1));
    let free = abstract_mesh(2, 2, 3, (1, 1));
    c.bench_function("fig3/verify_2x2_qs2_deadlock", |b| {
        b.iter(|| {
            QueryEngine::structural(deadlocking.clone())
                .check(&Query::new())
                .is_deadlock_free()
        })
    });
    c.bench_function("fig3/verify_2x2_qs3_free", |b| {
        b.iter(|| {
            QueryEngine::structural(free.clone())
                .check(&Query::new())
                .is_deadlock_free()
        })
    });
    c.bench_function("fig3/build_2x2_mesh", |b| {
        b.iter(|| abstract_mesh(2, 2, 2, (1, 1)).stats().primitives)
    });
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
