//! E4 — the invariants of Section 5, "Experimental Results".
//!
//! Regenerates the cross-layer invariants derived for the 2×2 mesh with
//! the directory at the lower-right node (the paper prints invariants (3)
//! and (4) for cache (0,0) and reports 6 protocol invariants for the three
//! caches), and measures the invariant-derivation step in isolation.

use advocat::prelude::*;
use advocat_bench::abstract_mesh;
use criterion::{criterion_group, Criterion};

fn print_table() {
    advocat_telemetry::info!(
        "== E4: derived cross-layer invariants, 2×2 mesh, directory at (1,1) =="
    );
    let system = abstract_mesh(2, 2, 2, (1, 1));
    let engine = QueryEngine::structural(system.clone());
    let invariants = engine.invariants();
    for invariant in invariants.iter() {
        let line = format_invariant(engine.system(), invariant);
        advocat_telemetry::info!("  {line}");
    }
    advocat_telemetry::info!(
        "  total: {} invariants ({} mention both queues and automaton states)",
        invariants.len(),
        invariants
            .iter()
            .filter(|inv| {
                let q = inv.terms.iter().any(|(v, _)| {
                    matches!(v, advocat::invariants::InvariantVar::QueueCount { .. })
                });
                let s = inv.terms.iter().any(|(v, _)| {
                    matches!(v, advocat::invariants::InvariantVar::AutomatonState { .. })
                });
                q && s
            })
            .count()
    );
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let system = abstract_mesh(2, 2, 2, (1, 1));
    let colors = derive_colors(&system);
    c.bench_function("invariants_2x2/t_derivation", |b| {
        b.iter(|| derive_colors(&system).total_pairs())
    });
    c.bench_function("invariants_2x2/derivation", |b| {
        b.iter(|| derive_invariants(&system, &colors).len())
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
