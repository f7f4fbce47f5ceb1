//! Incremental sessions vs. cold starts on the queue-sizing sweep.
//!
//! The sweep behind Figure 4 asks the same deadlock question at many queue
//! capacities.  The cold path rebuilds the mesh, re-derives colors and
//! invariants, re-encodes the deadlock equations and cold-starts the SAT
//! solver for every capacity; a [`QueryEngine`] does all of that
//! once and answers every capacity from one persistent solver.  This bench
//! prints the accumulated SAT effort (conflicts + propagations) of both
//! paths and measures their wall-clock time.

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};

const SIZES: std::ops::RangeInclusive<usize> = 1..=16;

fn mesh_config() -> FabricConfig {
    FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3)
}

/// Sixteen independent cold verifications (the seed's behaviour).
fn cold_sweep() -> (Vec<bool>, u64) {
    let config = mesh_config();
    let mut verdicts = Vec::new();
    let mut effort = 0u64;
    for size in SIZES {
        let system = build_fabric(&config.clone().with_queue_size(size)).expect("valid mesh");
        let report = QueryEngine::structural(system).check(&Query::new());
        let stats = report.analysis().stats;
        effort += stats.sat_conflicts + stats.sat_propagations;
        verdicts.push(report.is_deadlock_free());
    }
    (verdicts, effort)
}

/// The same sweep through one incremental session.
fn session_sweep() -> (Vec<bool>, u64) {
    let config = mesh_config();
    let system = build_fabric_for_sweep(&config, *SIZES.end()).expect("valid mesh");
    let mut engine = QueryEngine::on(system, SIZES);
    let verdicts: Vec<bool> = SIZES
        .map(|size| {
            engine
                .check(&Query::new().capacity(size))
                .is_deadlock_free()
        })
        .collect();
    (verdicts, engine.stats().sat_effort())
}

fn print_comparison() {
    advocat_telemetry::info!(
        "== incremental sessions vs. cold starts (2x2 directory mesh, sizes 1..=16) =="
    );
    let (cold_verdicts, cold_effort) = cold_sweep();
    let (session_verdicts, session_effort) = session_sweep();
    assert_eq!(cold_verdicts, session_verdicts, "paths must agree");
    advocat_telemetry::info!("cold starts:   {cold_effort:>9} SAT conflicts+propagations");
    advocat_telemetry::info!("session:       {session_effort:>9} SAT conflicts+propagations");
    advocat_telemetry::info!(
        "effort ratio:  {:.2}x less work with the session",
        cold_effort as f64 / session_effort.max(1) as f64
    );

    // The production entry point bisects instead of sweeping linearly.
    let system = build_fabric_for_sweep(&mesh_config(), *SIZES.end()).expect("valid mesh");
    let result = QueryEngine::on(system, SIZES).minimal_capacity(&Query::new());
    advocat_telemetry::info!(
        "binary search: minimal size {:?} found with {} probes: {:?}",
        result.minimal_queue_size,
        result.evaluations.len(),
        result.evaluations
    );
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_sizing");
    group.sample_size(10);
    group.bench_function("cold_sweep_sizes_1_to_16", |b| b.iter(cold_sweep));
    group.bench_function("session_sweep_sizes_1_to_16", |b| b.iter(session_sweep));
    group.bench_function("session_binary_search", |b| {
        b.iter(|| {
            let system = build_fabric_for_sweep(&mesh_config(), *SIZES.end()).expect("valid mesh");
            QueryEngine::on(system, SIZES)
                .minimal_capacity(&Query::new())
                .minimal_queue_size
        })
    });
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
