//! Telemetry overhead: the disabled handle must be (near-)free.
//!
//! PR 8 threads telemetry probes through the CDCL hot loop, the engine
//! and the service.  Their cost budget is ≤2% on the `long_session`
//! workload with tracing off — every disabled probe is one branch on an
//! `Option` discriminant, no clock read, no formatting.  This bench runs
//! the bounded long-session sweep three ways and reports each layer's
//! price:
//!
//! * **disabled** — the default `Telemetry::disabled()` handle (what the
//!   overhead claim is about),
//! * **profiled** — `Telemetry::null()`: solver profiles and metrics on,
//!   trace records discarded before formatting,
//! * **traced** — a ring sink: full JSON-lines records, the most
//!   expensive configuration.

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};
use std::time::{Duration, Instant};

const SIZES: std::ops::RangeInclusive<usize> = 1..=32;

fn sweep(telemetry: Telemetry) -> (Vec<bool>, SessionStats) {
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let system = build_fabric_for_sweep(&mesh, *SIZES.end()).expect("valid mesh");
    let config = CheckConfig {
        solver: SolverConfig {
            telemetry,
            ..SolverConfig::default()
        },
        ..CheckConfig::default()
    };
    let mut engine = QueryEngine::with_config(system, config, SIZES);
    let verdicts = SIZES
        .map(|size| {
            engine
                .check(&Query::new().capacity(size))
                .is_deadlock_free()
        })
        .collect();
    (verdicts, engine.stats())
}

/// Median wall time of `runs` sweeps under `make`'s handle.
fn median(runs: usize, make: impl Fn() -> Telemetry) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let _ = sweep(make());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn print_comparison() {
    advocat_telemetry::info!("== telemetry overhead on the long-session sweep ==");
    advocat_telemetry::info!("   (2x2 directory mesh, queue sizes 1..=32 through one session)");

    // Verdicts must not depend on observability.
    let (disabled_verdicts, _) = sweep(Telemetry::disabled());
    let (profiled_verdicts, _) = sweep(Telemetry::null());
    let (traced_verdicts, _) = sweep(Telemetry::ring(1 << 20).0);
    assert_eq!(disabled_verdicts, profiled_verdicts);
    assert_eq!(disabled_verdicts, traced_verdicts);

    let runs = 5;
    let disabled = median(runs, Telemetry::disabled);
    let profiled = median(runs, Telemetry::null);
    let traced = median(runs, || Telemetry::ring(1 << 20).0);
    let pct = |t: Duration| (t.as_secs_f64() / disabled.as_secs_f64() - 1.0) * 100.0;
    advocat_telemetry::info!("median of {runs} sweeps:");
    advocat_telemetry::info!(
        "  disabled  {disabled:>10.2?}   (baseline; budget: <= 2% over untelemetered code)"
    );
    advocat_telemetry::info!(
        "  profiled  {profiled:>10.2?}   ({:+.1}% — solver profiles + metrics, no trace)",
        pct(profiled)
    );
    advocat_telemetry::info!(
        "  traced    {traced:>10.2?}   ({:+.1}% — full JSON-lines ring trace)",
        pct(traced)
    );
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    group.bench_function("long_session_telemetry_disabled", |b| {
        b.iter(|| sweep(Telemetry::disabled()))
    });
    group.bench_function("long_session_with_profiles", |b| {
        b.iter(|| sweep(Telemetry::null()))
    });
    group.bench_function("long_session_with_ring_trace", |b| {
        b.iter(|| sweep(Telemetry::ring(1 << 20).0))
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
