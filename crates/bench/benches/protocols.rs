//! Cross-protocol verification sweeps: the same fabric, the same
//! session-backed sizing study, different coherence protocols.
//!
//! The protocol family is the third scenario axis next to topology and
//! capacity.  This bench prints, per (fabric, protocol family) pair, the
//! minimal deadlock-free queue size and the cost of the one engine that
//! answered the family's whole sweep — the MI protocols' pointer-machine
//! directories against the MESI counting directory, whose state count
//! grows quadratically with the cache count — then measures the 2×2-mesh
//! comparison with Criterion.

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};

const SIZES: std::ops::RangeInclusive<usize> = 1..=4;

fn fabrics() -> Vec<(&'static str, FabricConfig)> {
    vec![
        (
            "mesh2x2",
            FabricConfig::new(Topology::mesh(2, 2).expect("mesh"), 1).with_directory(3),
        ),
        (
            "mesh2x2+vc",
            FabricConfig::new(Topology::mesh(2, 2).expect("mesh"), 1)
                .with_directory(3)
                .with_message_class_vcs(true),
        ),
        (
            "ring4",
            FabricConfig::new(Topology::ring(4).expect("ring"), 1).with_directory(1),
        ),
        (
            "torus2x2",
            FabricConfig::new(Topology::torus(2, 2).expect("torus"), 1).with_directory(3),
        ),
    ]
}

fn print_comparison() {
    advocat_telemetry::info!(
        "== one sizing study per (fabric, protocol family), sizes {SIZES:?} =="
    );
    advocat_telemetry::info!(
        "{:<12} {:<12} {:<7} {:<9} {:>9} {:>12}",
        "fabric",
        "protocol",
        "kinds",
        "min free",
        "queries",
        "SAT effort"
    );
    for (name, fabric) in fabrics() {
        for family in ProtocolKind::ALL {
            let mut engine = QueryEngine::for_fabric(&fabric.clone().with_protocol(family), SIZES)
                .expect("fabric builds for every family");
            let sizing = engine.minimal_capacity(&Query::new());
            let stats = engine.stats();
            advocat_telemetry::info!(
                "{:<12} {:<12} {:<7} {:<9} {:>9} {:>12}",
                name,
                family.name(),
                family.message_kind_count(),
                sizing
                    .minimal_queue_size
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| format!("> {}", SIZES.end())),
                stats.queries,
                stats.sat_effort(),
            );
            assert_eq!(
                stats.templates_built, 1,
                "one template per family, never per probe"
            );
        }
    }
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocols");
    group.sample_size(10);
    let fabric = FabricConfig::new(Topology::mesh(2, 2).expect("mesh"), 1).with_directory(3);
    for family in ProtocolKind::ALL {
        let name = format!("sizing_study_{}", family.name());
        let config = fabric.clone().with_protocol(family);
        group.bench_function(&name, |b| {
            b.iter(|| {
                let mut engine = QueryEngine::for_fabric(&config, SIZES).expect("fabric builds");
                engine.minimal_capacity(&Query::new())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_comparison();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
