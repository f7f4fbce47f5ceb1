//! Long verification sessions: bounded vs. unbounded learnt databases.
//!
//! Sessions are long-lived; this bench measures what that does to the
//! solver over a long queue-size sweep (sizes 1..=32 on the 2×2
//! directory mesh).  Each query assumes its capacity pins over interned
//! atoms, so the encoding stops growing once every size has been asked;
//! the learnt database does not.  Without clause-database reduction the
//! solver keeps every learnt clause forever, and every later propagation
//! scans them.  With reduction enabled the database — and with it the
//! per-query cost — stays bounded.  The bench prints the
//! per-query conflict+propagation trend of both configurations and times
//! the two sweeps.

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};

const SIZES: std::ops::RangeInclusive<usize> = 1..=32;

fn mesh_config() -> FabricConfig {
    FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3)
}

/// Forces reductions early enough that the (small) bench workload
/// exercises them; production defaults only reduce after
/// `SolverConfig::default().first_reduce` conflicts.
fn bounded_solver() -> SolverConfig {
    SolverConfig {
        first_reduce: 20,
        reduce_interval: 20,
        keep_lbd: 1,
        ..SolverConfig::default()
    }
}

fn unbounded_solver() -> SolverConfig {
    SolverConfig {
        clause_reduction: false,
        ..SolverConfig::default()
    }
}

/// Runs the sweep and returns the verdicts, per-query SAT efforts
/// (conflicts + propagations) and the session totals.
fn sweep(solver: SolverConfig) -> (Vec<bool>, Vec<u64>, SessionStats) {
    let system = build_fabric_for_sweep(&mesh_config(), *SIZES.end()).expect("valid mesh");
    let config = CheckConfig {
        solver,
        ..CheckConfig::default()
    };
    let mut engine = QueryEngine::with_config(system, config, SIZES);
    let mut verdicts = Vec::new();
    let mut efforts = Vec::new();
    for size in SIZES {
        let report = engine.check(&Query::new().capacity(size));
        verdicts.push(report.is_deadlock_free());
        efforts.push(report.analysis().stats.sat_effort());
    }
    (verdicts, efforts, engine.stats())
}

fn avg(slice: &[u64]) -> u64 {
    slice.iter().sum::<u64>() / slice.len() as u64
}

fn print_comparison() {
    advocat_telemetry::info!("== long sessions: bounded vs. unbounded learnt database ==");
    advocat_telemetry::info!("   (2x2 directory mesh, queue sizes 1..=32 through one session)");
    let (bounded_verdicts, bounded, bounded_stats) = sweep(bounded_solver());
    let (unbounded_verdicts, unbounded, unbounded_stats) = sweep(unbounded_solver());
    assert_eq!(bounded_verdicts, unbounded_verdicts, "verdicts must agree");

    // The first two sizes deadlock and dominate absolute cost; the trend
    // of the satisfiable tail is where unbounded growth shows.
    let quarters: Vec<(usize, usize)> = vec![(2, 8), (8, 16), (16, 24), (24, 32)];
    advocat_telemetry::info!(
        "per-query SAT effort (conflicts+propagations), averaged per quarter:"
    );
    for &(lo, hi) in &quarters {
        advocat_telemetry::info!(
            "  sizes {:>2}..={:>2}:  bounded {:>8}   unbounded {:>8}",
            lo + 1,
            hi,
            avg(&bounded[lo..hi]),
            avg(&unbounded[lo..hi]),
        );
    }
    let growth = |efforts: &[u64]| avg(&efforts[16..]) as f64 / avg(&efforts[2..16]) as f64;
    advocat_telemetry::info!(
        "late/early cost ratio:  bounded {:.2}x   unbounded {:.2}x",
        growth(&bounded),
        growth(&unbounded)
    );
    advocat_telemetry::info!(
        "bounded:   {:>8} total props, learnt DB {} live / {} total, \
         {} reductions, {} clauses deleted",
        bounded_stats.sat_propagations,
        bounded_stats.live_learnts,
        bounded_stats.total_learnt,
        bounded_stats.reduced_dbs,
        bounded_stats.deleted_clauses,
    );
    advocat_telemetry::info!(
        "unbounded: {:>8} total props, learnt DB {} live / {} total",
        unbounded_stats.sat_propagations,
        unbounded_stats.live_learnts,
        unbounded_stats.total_learnt,
    );
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("long_session");
    group.sample_size(10);
    group.bench_function("bounded_sweep_sizes_1_to_32", |b| {
        b.iter(|| sweep(bounded_solver()))
    });
    group.bench_function("unbounded_sweep_sizes_1_to_32", |b| {
        b.iter(|| sweep(unbounded_solver()))
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
