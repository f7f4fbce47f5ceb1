//! E7 — the GEM5-inspired full MI protocol (Section 5, "MI Protocol").
//!
//! Regenerates the invariant count and the shape statistics of the full MI
//! protocol on the 2×2 mesh (the paper reports 14 invariants, a five-state
//! L2 cache, a 4+n-state directory and eight message kinds), and measures
//! the pipeline on that model.

use advocat::prelude::*;
use advocat_bench::full_mi_mesh;
use criterion::{criterion_group, Criterion};

fn print_table() {
    advocat_telemetry::info!("== E7: full MI protocol on the 2×2 mesh ==");
    let protocol = FullMi::new(4, 3);
    let mut scratch = Network::new();
    let cache = protocol.cache_agent(&mut scratch, 0);
    let directory = protocol.directory_agent(&mut scratch);
    advocat_telemetry::info!(
        "  protocol: cache {} states, directory {} states, {} message kinds",
        cache.automaton.state_count(),
        directory.automaton.state_count(),
        FullMi::message_kinds().len()
    );

    let system = full_mi_mesh(2, 2, 4, (1, 1));
    let mut engine = QueryEngine::structural(system.clone());
    let report = engine.check(&Query::new());
    advocat_telemetry::info!(
        "  2x2 model: {} primitives, {} queues, {} colors",
        report.system_stats().primitives,
        report.system_stats().queues,
        report.system_stats().colors
    );
    advocat_telemetry::info!(
        "  invariants derived: {} (paper: 14); verdict: {}",
        engine.invariants().len(),
        advocat_bench::verdict_label(&report)
    );
    for invariant in engine.invariants().iter().take(8) {
        let line = format_invariant(engine.system(), invariant);
        advocat_telemetry::info!("    {line}");
    }
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let system = full_mi_mesh(2, 2, 4, (1, 1));
    let colors = derive_colors(&system);
    let mut group = c.benchmark_group("full_mi");
    group.sample_size(10);
    group.bench_function("invariant_derivation_2x2", |b| {
        b.iter(|| derive_invariants(&system, &colors).len())
    });
    group.bench_function("full_pipeline_2x2", |b| {
        b.iter(|| {
            QueryEngine::structural(system.clone())
                .check(&Query::new())
                .analysis()
                .stats
                .invariants
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
