//! E11 — compositional verification: a certified 8×8 mesh vs the flat
//! encoding.
//!
//! This harness composes the 8×8 directory mesh (one tile per node, 64
//! tiles), certifies it with one engine per structural tile class and
//! *asserts* the headline numbers of the composition layer:
//!
//! - at most 4 structural classes (corner / edge / interior /
//!   directory-hosting) cover all 64 tiles, one engine each,
//! - more than 80% of the tile certifications are warm (answered by a
//!   class engine the tile did not build),
//! - the composed check's peak resident memory stays under 256 MiB (each
//!   class encoding stays linear in its colors).
//!
//! It then runs the flat encoding of the same fabric to completion and
//! pins both verdicts at capacity 2: each reports a potential deadlock.
//! That makes the composition's sound direction a check: a composed
//! "deadlock-free" must never face a flat candidate.  Both end-to-end
//! times are printed and neither is gated: which one wins depends on the
//! fabric's size (the flat check answers this 8×8 faster, the composed
//! one is faster from 10×10 on).

use std::sync::Arc;
use std::time::{Duration, Instant};

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};

fn fabric_8x8() -> FabricConfig {
    // Directory at (1,1): an interior node, so the mesh keeps the plain
    // interior class and the cut has exactly four structural classes.
    FabricConfig::new(Topology::mesh(8, 8).expect("8x8 mesh"), 2).with_directory(9)
}

/// Composes and checks the 8×8, returning (end-to-end wall clock, stats).
fn composed_check() -> (Duration, ComposeStats, Report) {
    let config = fabric_8x8();
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=2).with_flat_fallback(0);
    let start = Instant::now();
    let mut composition = QueryEngine::compose(config, partition, options).expect("tiles build");
    let report = composition.check(&Query::new().capacity(2));
    (start.elapsed(), composition.stats(), report)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn print_comparison() {
    advocat_telemetry::info!("== E11: composed 8x8 certification vs the flat encoding ==");

    let (composed_elapsed, stats, report) = composed_check();
    let total = stats.engines_built + stats.warm_hits;
    let warm_rate = stats.warm_hits as f64 / total as f64;
    advocat_telemetry::info!(
        "composed: {} tiles via {} classes, {}/{} warm ({:.0}%), \
         {} boundary ports, end-to-end {:.2?}",
        stats.tiles,
        stats.distinct_classes,
        stats.warm_hits,
        total,
        warm_rate * 100.0,
        stats.boundary_ports,
        composed_elapsed,
    );
    advocat_telemetry::info!("composed verdict: {}", report.summary());
    assert_eq!(stats.tiles, 64);
    assert!(
        stats.distinct_classes <= 4,
        "an 8x8 per-node cut must certify via at most 4 structural \
         classes, got {}",
        stats.distinct_classes
    );
    assert_eq!(stats.engines_built as usize, stats.distinct_classes);
    assert!(
        warm_rate > 0.8,
        "warm tile-certification rate must exceed 80%, got {:.0}%",
        warm_rate * 100.0
    );
    // Read before the flat encoding below starts to allocate.
    match peak_rss_mib() {
        Some(peak) => {
            advocat_telemetry::info!("composed: peak RSS {peak} MiB");
            assert!(
                peak < 256,
                "the composed check must stay under 256 MiB, peaked at {peak} MiB"
            );
        }
        None => advocat_telemetry::info!("composed: no /proc/self/status, peak RSS not checked"),
    }

    // The flat encoding of the same fabric, run to completion.
    let start = Instant::now();
    let mut flat_engine = QueryEngine::for_fabric(&fabric_8x8(), 2..=2).expect("flat 8x8 builds");
    let flat = flat_engine.check(&Query::new().capacity(2));
    let flat_elapsed = start.elapsed();
    advocat_telemetry::info!(
        "flat:     end-to-end {flat_elapsed:.2?} (composed {composed_elapsed:.2?})"
    );
    advocat_telemetry::info!("flat verdict: {}", flat.summary());
    assert!(
        !report.is_deadlock_free() || flat.is_deadlock_free(),
        "the composed check proved the 8x8 deadlock-free, but the flat \
         encoding finds a candidate"
    );
    assert!(
        report.counterexample().is_some() && flat.counterexample().is_some(),
        "both checks must report a potential deadlock at capacity 2: \
         composed {}; flat {}",
        report.summary(),
        flat.summary()
    );
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    // Steady-state re-checks: the session keeps its class engines warm,
    // so a repeated query asks each class once more and re-runs the
    // boundary check.
    let config = fabric_8x8();
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=2).with_flat_fallback(0);
    let mut composition = QueryEngine::compose(config, partition, options).expect("tiles build");
    composition.check(&Query::new().capacity(2));
    let mut group = c.benchmark_group("composition");
    group.sample_size(5);
    group.bench_function("recheck_8x8_warm", |b| {
        b.iter(|| {
            composition
                .check(&Query::new().capacity(2))
                .is_deadlock_free()
        })
    });
}

criterion_group!(benches, bench);

fn main() {
    print_comparison();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
