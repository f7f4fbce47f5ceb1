//! E10 — the verification service: warm-engine pool vs cold per-job
//! engines.
//!
//! A mixed mesh/ring/torus/MESI workload is submitted by 1, 8 and 64
//! concurrent client threads to one shared [`Service`].  The comparison
//! runs the identical jobs twice — once against the warm-engine pool and
//! once cold, each job on a fresh engine built for it alone, spread over
//! as many threads as the service has workers — and reports throughput
//! plus the pool's warm-hit rate.  The pooled configuration must beat the
//! cold one outright at 8 and 64 clients: that is the whole point of the
//! service layer, so the harness *asserts* it rather than just printing
//! it.

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One client's slice of the mixed workload: two mesh capacities (the
/// Fig. 3 pair, sharing a pooled engine), a datelined ring, a datelined
/// torus and a MESI mesh.
fn client_jobs(client: usize) -> Vec<VerifyJob> {
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let mesi = mesh.with_protocol(ProtocolKind::Mesi);
    let ring = FabricConfig::new(Topology::ring(4).unwrap(), 2).with_directory(1);
    let torus = FabricConfig::new(Topology::torus(2, 2).unwrap(), 3).with_directory(3);
    vec![
        VerifyJob::mesh(format!("c{client} mesh qs2"), mesh)
            .at_capacity(2)
            .with_engine_range(2..=3),
        VerifyJob::mesh(format!("c{client} mesh qs3"), mesh)
            .at_capacity(3)
            .with_engine_range(2..=3),
        VerifyJob::fabric(format!("c{client} ring"), ring).at_capacity(2),
        VerifyJob::fabric(format!("c{client} torus"), torus).at_capacity(3),
        VerifyJob::mesh(format!("c{client} mesi"), mesi)
            .at_capacity(2)
            .with_engine_range(2..=3),
    ]
}

/// Every workload verdict is pinned except MESI's.
fn check_verdict(name: &str, report: &Report) {
    if !name.ends_with("mesi") {
        assert_eq!(
            report.is_deadlock_free(),
            !name.ends_with("mesh qs2"),
            "verdict drift in {name}"
        );
    }
}

/// Answers one job on a fresh engine built for it alone — the cold
/// baseline the warm pool is measured against.
fn cold_check(job: &VerifyJob) -> Report {
    let capacity = job.capacity.expect("workload jobs pin their capacity");
    let range = job.engine_range.clone().unwrap_or(capacity..=capacity);
    let system = match &job.fabric {
        ScenarioFabric::Mesh(mesh) => build_mesh_for_sweep(mesh, *range.end()).expect("mesh"),
        ScenarioFabric::Fabric(fabric) => {
            build_fabric_for_sweep(fabric, *range.end()).expect("fabric")
        }
        ScenarioFabric::Tile { .. } => unreachable!("the workload has no tiles"),
    };
    QueryEngine::on(system, range).check(&Query::new().capacity(capacity).target(job.target))
}

/// Runs the workload's jobs cold, spread over as many threads as a
/// default service has workers; returns (wall-clock, jobs completed).
fn run_cold(clients: usize) -> (Duration, usize) {
    let jobs: Vec<VerifyJob> = (0..clients).flat_map(client_jobs).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    check_verdict(&job.name, &cold_check(job));
                }
            });
        }
    });
    (start.elapsed(), jobs.len())
}

/// Runs the workload for `clients` concurrent submitters against one warm
/// service and returns (wall-clock, jobs completed, pool stats).
fn run_warm(clients: usize) -> (Duration, usize, PoolStats) {
    let service = Service::new(ServiceConfig::default().with_queue_capacity(clients * 8));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let service = &service;
            scope.spawn(move || {
                for job in client_jobs(client) {
                    service.submit(job);
                }
            });
        }
    });
    let outcomes = service.drain();
    let elapsed = start.elapsed();
    for outcome in &outcomes {
        let report = outcome.result.as_ref().expect("workload fabrics build");
        check_verdict(&outcome.name, report);
    }
    (elapsed, outcomes.len(), service.pool_stats())
}

fn print_comparison() {
    advocat_telemetry::info!("== E10: service throughput, warm pool vs cold per-job engines ==");
    advocat_telemetry::info!(
        "{:<9} {:<7} {:>10} {:>14} {:>10}",
        "clients",
        "pool",
        "jobs",
        "jobs/s",
        "warm rate"
    );
    for clients in [1usize, 8, 64] {
        let (cold_elapsed, cold_jobs) = run_cold(clients);
        let (warm_elapsed, warm_jobs, stats) = run_warm(clients);
        assert_eq!(cold_jobs, warm_jobs);
        for (label, elapsed, rate) in [
            ("cold", cold_elapsed, None),
            ("warm", warm_elapsed, Some(stats.warm_hit_rate())),
        ] {
            advocat_telemetry::info!(
                "{:<9} {:<7} {:>10} {:>14.1} {:>10}",
                clients,
                label,
                warm_jobs,
                warm_jobs as f64 / elapsed.as_secs_f64(),
                rate.map(|r| format!("{:.0}%", r * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        // The contract of the service layer: with clients piling onto the
        // same fabrics, warm engines must win outright.
        if clients >= 8 {
            assert!(
                warm_elapsed < cold_elapsed,
                "warm pool ({warm_elapsed:.2?}) must beat cold engines \
                 ({cold_elapsed:.2?}) at {clients} clients"
            );
        }
    }
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let warm = Service::new(ServiceConfig::default());
    // Prime the pool so the measured loop is the steady state.
    for job in client_jobs(0) {
        warm.submit(job);
    }
    warm.drain();
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    c.bench_function("service/warm_submit_drain", |b| {
        b.iter(|| {
            warm.submit(
                VerifyJob::mesh("warm", mesh)
                    .at_capacity(2)
                    .with_engine_range(2..=3),
            );
            warm.drain().len()
        })
    });
    let cold = VerifyJob::mesh("cold", mesh)
        .at_capacity(2)
        .with_engine_range(2..=3);
    c.bench_function("service/cold_fresh_engine", |b| {
        b.iter(|| cold_check(&cold).is_deadlock_free())
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
