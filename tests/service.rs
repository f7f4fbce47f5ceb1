//! The verification service: warm-engine pooling, scheduling determinism,
//! admission control, eviction and the JSON wire format.

use advocat::deadlock::Counterexample;
use advocat::prelude::*;
use advocat::telemetry::TraceSink;
use std::sync::mpsc;
use std::time::Duration;

/// A mixed workload touching several topology families, with sweeps that
/// share engines and a scenario that deadlocks (so counterexample
/// witnesses are part of the comparison).
fn mixed_workload(service: &Service) {
    service.submit_sweep(
        &BatchScenario::new("mesh sweep", MeshConfig::new(2, 2, 2).with_directory(1, 1))
            .with_sweep(1..=3),
    );
    service.submit_sweep(
        &BatchScenario::for_fabric(
            "ring sweep",
            FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1),
        )
        .with_sweep(1..=2),
    );
    service.submit(VerifyJob::mesh(
        "mesh qs3",
        MeshConfig::new(2, 2, 3).with_directory(1, 1),
    ));
    service.submit(VerifyJob::fabric(
        "fat-tree qs1",
        FabricConfig::new(Topology::fat_tree(2, 2).unwrap(), 1).with_directory(3),
    ));
}

/// What determinism must preserve: verdict and witness per job, in
/// submission order.
fn transcript(outcomes: &[JobOutcome]) -> Vec<(u64, String, usize, bool, Option<Counterexample>)> {
    outcomes
        .iter()
        .map(|o| {
            let report = o.result.as_ref().expect("workload fabrics build");
            (
                o.id.0,
                o.name.clone(),
                o.capacity,
                report.is_deadlock_free(),
                report.counterexample().cloned(),
            )
        })
        .collect()
}

/// Satellite (c): the same workload yields identical verdicts, sweeps and
/// counterexample witnesses at 1, 4 and 64 workers — the ticket turnstile
/// feeds every engine the same query sequence regardless of scheduling.
#[test]
fn outcomes_are_identical_at_any_worker_count() {
    let mut transcripts = Vec::new();
    for workers in [1, 4, 64] {
        let service = Service::new(ServiceConfig::default().with_workers(workers));
        mixed_workload(&service);
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 7);
        transcripts.push(transcript(&outcomes));
    }
    assert_eq!(transcripts[0], transcripts[1], "1 vs 4 workers");
    assert_eq!(transcripts[0], transcripts[2], "1 vs 64 workers");
    // Sanity: the transcript is not trivially equal — it contains both
    // verdicts and at least one real witness.
    let free: Vec<bool> = transcripts[0].iter().map(|t| t.3).collect();
    assert!(free.contains(&true) && free.contains(&false));
    assert!(transcripts[0].iter().any(|t| t.4.is_some()));
}

/// `run_batch` rides the same machinery, so its outcomes (and the
/// `workers == 0` machine-sized mode of satellite (a)) must agree across
/// worker counts too.
#[test]
fn run_batch_agrees_across_worker_counts_including_machine_sized() {
    let scenarios = vec![
        BatchScenario::new("sweep", MeshConfig::new(2, 2, 2).with_directory(1, 1))
            .with_sweep(2..=3),
        BatchScenario::new("invalid", MeshConfig::new(1, 1, 1)),
    ];
    let verdicts = |outcomes: &[BatchOutcome]| -> Vec<(String, bool, Vec<bool>)> {
        outcomes
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    o.is_deadlock_free(),
                    o.sweep.iter().map(|(_, r)| r.is_deadlock_free()).collect(),
                )
            })
            .collect()
    };
    let one = run_batch(&scenarios, 1);
    let machine = run_batch(&scenarios, 0);
    let many = run_batch(&scenarios, 64);
    assert_eq!(verdicts(&one), verdicts(&machine));
    assert_eq!(verdicts(&one), verdicts(&many));
    assert!(one[1].result.is_err(), "1x1 mesh cannot build");
}

/// Satellite (d): identical fingerprints share one engine — the pool
/// builds a single template — while a differing solver configuration
/// forces a second engine.
#[test]
fn identical_fingerprints_share_one_engine() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    for capacity in [2, 3, 2, 3] {
        service.submit(
            VerifyJob::mesh(format!("qs {capacity}"), mesh)
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
    }
    let outcomes = service.drain();
    let stats = service.pool_stats();
    assert_eq!(stats.engines_built, 1, "one engine for one fingerprint");
    assert_eq!(stats.warm_hits, 3);
    let built: u64 = outcomes
        .iter()
        .map(|o| o.session_delta.expect("engine ran").templates_built)
        .sum();
    assert_eq!(built, 1, "exactly one job paid for the template");
    assert_eq!(outcomes.iter().filter(|o| o.warm_hit).count(), 3);

    // A different CheckConfig is a different engine.
    let tighter = CheckConfig {
        max_refinements: 7,
        ..CheckConfig::default()
    };
    service.submit(
        VerifyJob::mesh("tighter", mesh)
            .at_capacity(2)
            .with_engine_range(2..=3)
            .with_config(tighter),
    );
    service.drain();
    assert_eq!(service.pool_stats().engines_built, 2);
}

/// The deadlock target is picked per query by assumption, so jobs that
/// differ only in target share one warm engine — and each answers as a
/// separate engine asked the same question would.
#[test]
fn jobs_differing_only_in_target_share_one_engine() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let targets = [DeadlockTarget::Any, DeadlockTarget::StuckPacket];
    for target in targets {
        service.submit(
            VerifyJob::mesh(target.to_string(), mesh)
                .with_target(target)
                .at_capacity(2)
                .with_engine_range(2..=3),
        );
    }
    let outcomes = service.drain();
    let stats = service.pool_stats();
    assert_eq!(stats.engines_built, 1, "the target does not split the pool");
    assert_eq!(stats.warm_hits, 1);
    for (outcome, target) in outcomes.iter().zip(targets) {
        let pooled = outcome.result.as_ref().expect("mesh builds");
        let system = build_mesh_for_sweep(&mesh, 3).unwrap();
        let separate =
            QueryEngine::on(system, 2..=3).check(&Query::new().capacity(2).target(target));
        assert_eq!(
            pooled.is_deadlock_free(),
            separate.is_deadlock_free(),
            "{target}"
        );
        for report in [pooled, &separate] {
            let cex = report.counterexample().expect("capacity 2 deadlocks");
            assert!(cex.witnesses(target), "{target}");
        }
    }
}

/// Admission control: with a one-slot queue and a busy worker,
/// `try_submit` refuses instead of blocking, and everything admitted still
/// completes correctly.
#[test]
fn try_submit_refuses_when_the_queue_is_full() {
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
    );
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let mut admitted = 0;
    let mut refused = 0;
    for i in 0..16 {
        match service.try_submit(VerifyJob::mesh(format!("job {i}"), mesh)) {
            Ok(_) => admitted += 1,
            Err(SubmitError::QueueFull) => refused += 1,
        }
    }
    assert!(refused > 0, "a 1-slot queue must refuse a 16-job burst");
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), admitted);
    assert!(outcomes.iter().all(|o| !o.is_deadlock_free()));
}

/// Per-job timeouts surface in the outcome: a hopeless budget is refused
/// in the queue (or, if the job had already started, flagged as a blown
/// deadline); a generous budget changes nothing.
#[test]
fn timeouts_are_surfaced_in_the_outcome() {
    let service = Service::new(ServiceConfig::default().with_workers(1));
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    service.submit(VerifyJob::mesh("rushed", mesh).with_timeout(Duration::from_nanos(1)));
    service.submit(VerifyJob::mesh("relaxed", mesh).with_timeout(Duration::from_secs(3600)));
    let outcomes = service.drain();
    let rushed = &outcomes[0];
    let queued_out = matches!(rushed.result, Err(JobError::TimedOut { .. }));
    assert!(
        queued_out || rushed.deadline_exceeded,
        "a 1ns budget is refused or flagged"
    );
    let relaxed = &outcomes[1];
    assert!(relaxed.result.is_ok() && !relaxed.deadline_exceeded);
    assert!(!relaxed.is_deadlock_free());
}

/// LRU eviction under the engine cap: a second fingerprint evicts the
/// idle first engine, and returning to the first costs a rebuild — with
/// correct verdicts throughout.
#[test]
fn cold_engines_are_evicted_lru_under_the_cap() {
    let service = Service::new(ServiceConfig::default().with_workers(1).with_max_engines(1));
    let deadlocking = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let free = MeshConfig::new(2, 2, 3).with_directory(1, 1);
    service.submit(VerifyJob::mesh("a", deadlocking));
    service.drain();
    service.submit(VerifyJob::mesh("b", free));
    service.drain();
    let stats = service.pool_stats();
    assert_eq!(stats.engines_built, 2);
    assert_eq!(stats.evictions, 1, "engine `a` was evicted for `b`");
    assert_eq!(stats.live_engines, 1);
    // Returning to the evicted fingerprint rebuilds, and still answers
    // correctly.
    service.submit(VerifyJob::mesh("a again", deadlocking));
    let outcomes = service.drain();
    assert!(!outcomes[0].is_deadlock_free());
    assert_eq!(service.pool_stats().engines_built, 3);
}

/// Eviction accounting: warm-hit statistics must reflect that an evicted
/// fingerprint *rebuilds* — the post-eviction return is a cold build, not
/// a warm hit, and only the jobs after the rebuild count warm again.
#[test]
fn warm_hit_accounting_survives_eviction_and_rebuild() {
    let service = Service::new(ServiceConfig::default().with_workers(1).with_max_engines(1));
    let a = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let b = MeshConfig::new(2, 2, 3).with_directory(1, 1);

    service.submit(VerifyJob::mesh("a cold", a));
    service.submit(VerifyJob::mesh("a warm", a));
    service.drain();
    let stats = service.pool_stats();
    assert_eq!((stats.engines_built, stats.warm_hits), (1, 1));

    // `b` evicts `a`; returning to `a` must be a cold rebuild, and only
    // the job after it is warm again.
    service.submit(VerifyJob::mesh("b evicts a", b));
    service.drain();
    assert_eq!(service.pool_stats().evictions, 1);
    service.submit(VerifyJob::mesh("a rebuilds", a));
    service.submit(VerifyJob::mesh("a warm again", a));
    let outcomes = service.drain();
    assert!(!outcomes[0].warm_hit, "the rebuild is not a warm hit");
    assert!(outcomes[1].warm_hit, "the rebuilt engine serves warm");

    let stats = service.pool_stats();
    assert_eq!(stats.engines_built, 3, "a, b, and the rebuild of a");
    assert_eq!(stats.warm_hits, 2);
    assert_eq!(stats.evictions, 2, "the rebuild of a evicted b in turn");
    assert_eq!(stats.live_engines, 1);
    // Every job is accounted exactly once, as a build or a warm hit.
    assert_eq!(stats.engines_built + stats.warm_hits, 5);
    assert_eq!(stats.checkouts, 5);
    assert_eq!(stats.rebuilds, 1, "only a was built twice");
}

/// `BatchOutcome` separates queueing (`queued_for`) from work
/// (`elapsed`).  For single-job scenarios the two partition the job's
/// admission-to-completion span, so their sum is bounded by the whole
/// batch's wall-clock time; and on one worker the jobs serialise, so the
/// batch as a whole visibly waits.
#[test]
fn batch_outcomes_split_queueing_from_work() {
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let scenarios: Vec<BatchScenario> = (0..3)
        .map(|i| BatchScenario::new(format!("job {i}"), mesh))
        .collect();
    let wall = std::time::Instant::now();
    let outcomes = run_batch(&scenarios, 1);
    let wall = wall.elapsed();
    for outcome in &outcomes {
        assert!(
            outcome.elapsed > Duration::ZERO,
            "{} did work",
            outcome.name
        );
        assert!(
            outcome.queued_for + outcome.elapsed <= wall,
            "{}: wait {:?} + work {:?} exceed the batch wall time {:?}",
            outcome.name,
            outcome.queued_for,
            outcome.elapsed,
            wall
        );
    }
    let waited: Duration = outcomes.iter().map(|o| o.queued_for).sum();
    assert!(
        waited > Duration::ZERO,
        "serialised jobs wait for the one worker"
    );
}

/// Pool accounting balances across every path — warm hits, cold builds,
/// rebuilds after eviction, cached build failures and queue-refused
/// timeouts: `checkouts == warm_hits + engines_built` and
/// `engines_built == first_time_builds() + rebuilds`.
#[test]
fn pool_accounting_balances_across_all_paths() {
    let service = Service::new(ServiceConfig::default().with_workers(1).with_max_engines(1));
    let a = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let b = MeshConfig::new(2, 2, 3).with_directory(1, 1);
    let invalid = MeshConfig::new(1, 1, 1);

    service.submit(VerifyJob::mesh("a cold", a));
    service.submit(VerifyJob::mesh("a warm", a));
    service.drain();
    service.submit(VerifyJob::mesh("b evicts a", b));
    service.drain();
    service.submit(VerifyJob::mesh("a rebuilds", a));
    service.submit(VerifyJob::mesh("bad", invalid));
    service.submit(VerifyJob::mesh("bad cached", invalid));
    service.submit(VerifyJob::mesh("rushed", b).with_timeout(Duration::from_nanos(1)));
    let outcomes = service.drain();
    assert!(matches!(outcomes[1].result, Err(JobError::Fabric(_))));
    assert!(matches!(outcomes[2].result, Err(JobError::Fabric(_))));
    assert!(
        matches!(outcomes[3].result, Err(JobError::TimedOut { .. })),
        "a 1ns budget is always out-waited in the queue"
    );

    let stats = service.pool_stats();
    assert_eq!(
        stats.checkouts,
        stats.warm_hits + stats.engines_built,
        "every checkout is a warm hit or a build: {stats:?}"
    );
    assert_eq!(
        stats.engines_built,
        stats.first_time_builds() + stats.rebuilds,
        "{stats:?}"
    );
    assert_eq!(stats.rebuilds, 1, "a's second build is a rebuild");
    assert_eq!(stats.first_time_builds(), 2, "a and b");
    assert_eq!(stats.checkouts, 4, "a cold, a warm, b, a rebuilt");
    assert_eq!(
        stats.build_failures, 2,
        "both bad jobs count, the second from the cache"
    );
}

/// Unbuildable fabrics fail fast: the first job caches the build failure
/// and later same-fingerprint jobs share it without re-attempting.
#[test]
fn build_failures_are_cached_per_fingerprint() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let invalid = MeshConfig::new(1, 1, 1);
    for i in 0..3 {
        service.submit(VerifyJob::mesh(format!("bad {i}"), invalid));
    }
    let outcomes = service.drain();
    assert!(outcomes
        .iter()
        .all(|o| matches!(o.result, Err(JobError::Fabric(_)))));
    let stats = service.pool_stats();
    assert_eq!(stats.build_failures, 3);
    assert_eq!(stats.engines_built, 0);
}

/// The JSON wire format: requests parse, expand to sweeps, and outcomes
/// serialise with verdicts and warm-hit evidence.
#[test]
fn json_jobs_round_trip_through_the_service() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let ids = service
        .submit_json(
            r#"{
                "name": "figure 3",
                "topology": {"kind": "mesh", "width": 2, "height": 2},
                "queue_size": 2,
                "directory": 3,
                "capacities": [2, 3]
            }"#,
        )
        .expect("valid job JSON");
    assert_eq!(ids.len(), 2);
    let outcomes = service.drain();
    assert!(!outcomes[0].is_deadlock_free(), "qs 2 deadlocks");
    assert!(outcomes[1].is_deadlock_free(), "qs 3 is free");
    let json = advocat::service::outcome_to_json(&outcomes[1]);
    assert!(json.contains("\"status\":\"deadlock-free\""));
    assert!(json.contains("\"warm_hit\":true"));
    assert!(json.contains("\"capacity\":3"));

    assert!(service.submit_json("{\"nope\": 1").is_err());
    assert!(service
        .submit_json(r#"{"name": "x", "topology": {"kind": "escher"}}"#)
        .is_err());
}

/// Streaming consumption: `next_outcome` hands outcomes out as they
/// complete and signals exhaustion with `None`.
#[test]
fn next_outcome_streams_and_then_reports_exhaustion() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let mesh = MeshConfig::new(2, 2, 3).with_directory(1, 1);
    for i in 0..4 {
        service.submit(VerifyJob::mesh(format!("job {i}"), mesh));
    }
    let mut seen = Vec::new();
    while let Some(outcome) = service.next_outcome() {
        assert!(outcome.is_deadlock_free());
        seen.push(outcome.id.0);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3]);
    assert_eq!(service.stats().pending, 0);
}

/// Drops `service` on a helper thread; a drop that does not finish
/// within a minute fails the test instead of hanging it.
fn drop_within_a_minute(service: Service, case: &str) {
    let (done, dropped) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(service);
        let _ = done.send(());
    });
    dropped
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("dropping a service with {case} hung"));
    dropper.join().expect("the dropping thread");
}

/// A trace sink that stops the thread writing its first record until
/// every sender of `open` is gone, announcing the stop on `entered`.  A
/// job's own first record comes from its engine build, which a worker
/// runs outside the service's lock.
struct Gate {
    entered: mpsc::Sender<()>,
    open: Option<mpsc::Receiver<()>>,
}

impl TraceSink for Gate {
    fn record(&mut self, _line: &str) {
        if let Some(open) = self.open.take() {
            let _ = self.entered.send(());
            // Errs, and so returns, once every sender is dropped.
            let _ = open.recv();
        }
    }
}

/// A trace sink owning the senders that keep gates shut: dropping the
/// job that carries it opens them.  A queued job is dropped when the
/// service shuts down, so its gates open only after shutdown began.
struct Key {
    _gates: Vec<mpsc::Sender<()>>,
}

impl TraceSink for Key {
    fn record(&mut self, _line: &str) {}
}

/// `job` with its solver's telemetry writing to `sink`; a job that brings
/// an enabled handle keeps it, and the handle never reaches the
/// fingerprint.
fn traced(job: VerifyJob, sink: impl TraceSink + 'static) -> VerifyJob {
    let mut config = CheckConfig::default();
    config.solver.telemetry = Telemetry::with_sink(Box::new(sink));
    job.with_config(config)
}

/// Dropping a service stops every worker — idle ones asleep on the empty
/// queue, a busy one with jobs queued behind it, and one whose finished
/// job releases a successor parked behind it — without running the
/// discarded jobs.  Workers wait without a timeout, so a lost shutdown
/// wakeup would hang here; gates hold the workers where each case needs
/// them, and open only once the drop has begun.
#[test]
fn dropping_the_service_stops_every_worker() {
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let ring = FabricConfig::new(Topology::ring(3).unwrap(), 1).with_directory(1);
    drop_within_a_minute(
        Service::new(ServiceConfig::default().with_workers(2)),
        "idle workers",
    );

    // One worker stopped inside its first job, two jobs queued behind it.
    let busy = Service::new(ServiceConfig::default().with_workers(1));
    let (entered, stopped) = mpsc::channel();
    let (key, open) = mpsc::channel();
    let gate = Gate {
        entered,
        open: Some(open),
    };
    busy.submit(traced(VerifyJob::mesh("gated", mesh), gate));
    busy.submit(traced(
        VerifyJob::fabric("key", ring.clone()),
        Key { _gates: vec![key] },
    ));
    busy.submit(VerifyJob::mesh("queued", mesh));
    stopped
        .recv_timeout(Duration::from_secs(60))
        .expect("the worker reaches the gate");
    assert_eq!(busy.stats().queued, 2, "two jobs wait behind the worker");
    drop_within_a_minute(busy, "a busy worker and queued jobs");

    // Two workers.  Jobs leave the queue in order: one worker stops
    // building the engine of `first`, so the other parks `second` (same
    // fingerprint) and then stops in `other`; the key stays queued.
    let (telemetry, trace) = Telemetry::ring(256);
    let parked = Service::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_telemetry(telemetry),
    );
    let (entered, stopped) = mpsc::channel();
    let (first_key, first_open) = mpsc::channel();
    let (other_key, other_open) = mpsc::channel();
    let first = Gate {
        entered: entered.clone(),
        open: Some(first_open),
    };
    let other = Gate {
        entered,
        open: Some(other_open),
    };
    let sweep = |capacity| {
        VerifyJob::mesh(format!("qs {capacity}"), mesh)
            .at_capacity(capacity)
            .with_engine_range(2..=3)
    };
    parked.submit(traced(sweep(2), first));
    parked.submit(sweep(3));
    parked.submit(traced(VerifyJob::fabric("other", ring.clone()), other));
    parked.submit(traced(
        VerifyJob::mesh("key", mesh),
        Key {
            _gates: vec![first_key, other_key],
        },
    ));
    for _ in 0..2 {
        stopped
            .recv_timeout(Duration::from_secs(60))
            .expect("both workers reach a gate");
    }
    assert_eq!(parked.stats().queued, 1, "only the key is still queued");
    let parks = trace
        .lines()
        .iter()
        .filter(|line| line.contains("\"name\":\"job.park\""))
        .count();
    assert_eq!(parks, 1, "the second sweep job is parked");
    drop_within_a_minute(parked, "a parked job");
}

/// The 1000-job stress test (CI runs it with `-- --ignored`): a mixed
/// mesh/ring/torus/MESI workload at high concurrency, checking outcome
/// accounting, warm-hit bookkeeping and verdict stability end to end.
#[test]
#[ignore = "stress test: ~1000 solver jobs; run explicitly or in CI"]
fn thousand_job_stress_run_stays_consistent() {
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(8)
            .with_queue_capacity(64)
            .with_max_engines(4),
    );
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    let mesi = MeshConfig::new(2, 2, 2)
        .with_directory(1, 1)
        .with_protocol(ProtocolKind::Mesi);
    let ring = FabricConfig::new(Topology::ring(4).unwrap(), 2).with_directory(1);
    // Thresholds from `tests/topologies.rs`: ring(4) is free at qs 2,
    // torus(2,2) at qs 3.
    let torus = FabricConfig::new(Topology::torus(2, 2).unwrap(), 3).with_directory(3);
    let mut expected_free = Vec::new();
    for i in 0..250 {
        let capacity = 2 + (i % 2);
        service.submit(
            VerifyJob::mesh(format!("mesh {i}"), mesh)
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
        expected_free.push(capacity == 3);
        service.submit(
            VerifyJob::mesh(format!("mesi {i}"), mesi)
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
        service.submit(VerifyJob::fabric(format!("ring {i}"), ring.clone()));
        expected_free.push(true);
        service.submit(VerifyJob::fabric(format!("torus {i}"), torus.clone()));
        expected_free.push(true);
    }
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 1000);
    let mut ids: Vec<u64> = outcomes.iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 1000, "every job has a unique outcome");
    let mut expected = expected_free.into_iter();
    for outcome in &outcomes {
        let report = outcome.result.as_ref().expect("stress fabrics build");
        if !outcome.name.starts_with("mesi") {
            assert_eq!(
                report.is_deadlock_free(),
                expected.next().unwrap(),
                "{} capacity {}",
                outcome.name,
                outcome.capacity
            );
        }
    }
    let stats = service.pool_stats();
    assert_eq!(stats.warm_hits + stats.engines_built, 1000);
    assert_eq!(stats.checkouts, 1000);
    assert_eq!(
        stats.engines_built,
        stats.first_time_builds() + stats.rebuilds
    );
    assert!(
        stats.warm_hit_rate() > 0.9,
        "4 fingerprints over 1000 jobs must be overwhelmingly warm (rate {})",
        stats.warm_hit_rate()
    );
    assert!(stats.live_engines <= 4 + 8, "cap plus bounded overshoot");
}

/// Satellite: racing submitters against a small admission queue.  Every
/// attempt must resolve to acceptance or an immediate `QueueFull` —
/// never a hang, never a lost job — and the books must balance exactly:
/// admitted + refused == attempts, with one unique outcome per admitted
/// id and not one more.
#[test]
fn racing_submitters_never_hang_or_lose_jobs() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Mutex};

    const THREADS: usize = 8;
    const ATTEMPTS: usize = 25;

    let service = Arc::new(Service::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(3),
    ));
    let barrier = Arc::new(Barrier::new(THREADS));
    let refused = Arc::new(AtomicUsize::new(0));
    let admitted: Arc<Mutex<Vec<JobId>>> = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            let refused = Arc::clone(&refused);
            let admitted = Arc::clone(&admitted);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..ATTEMPTS {
                    let job = VerifyJob::fabric(
                        format!("race {t}-{i}"),
                        FabricConfig::new(Topology::ring(3).unwrap(), 1).with_directory(1),
                    );
                    match service.try_submit(job) {
                        Ok(id) => admitted.lock().unwrap().push(id),
                        Err(SubmitError::QueueFull) => {
                            refused.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("submitter thread");
    }

    let admitted = Arc::try_unwrap(admitted)
        .expect("threads joined")
        .into_inner()
        .unwrap();
    let refused = refused.load(Ordering::Relaxed);
    assert_eq!(
        admitted.len() + refused,
        THREADS * ATTEMPTS,
        "every attempt resolved exactly once"
    );

    // Ids are unique — no attempt was double-admitted.
    let mut ids: Vec<u64> = admitted.iter().map(|id| id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), admitted.len(), "admitted ids are unique");

    // Exactly the admitted jobs produce outcomes, every one a verdict.
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), admitted.len(), "no admitted job is lost");
    for outcome in &outcomes {
        assert!(
            outcome.result.is_ok(),
            "{}: {:?}",
            outcome.name,
            outcome.result
        );
    }

    let stats = service.stats();
    assert_eq!(stats.submitted, admitted.len() as u64);
    assert_eq!(stats.completed, admitted.len() as u64);
    assert_eq!(stats.pending, 0);
}

/// Satellite: the `stats()` snapshot agrees with the live sources it
/// summarises — the pool's own accounting, the scheduler's queue bound
/// and the metrics registry's gauges — and `to_json` round-trips as
/// well-formed JSON carrying the same numbers.
#[test]
fn stats_snapshot_pins_pool_queue_and_registry() {
    let (telemetry, _trace) = Telemetry::ring(1024);
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(17)
            .with_telemetry(telemetry.clone()),
    );
    service.submit_sweep(
        &BatchScenario::for_fabric(
            "stats ring",
            FabricConfig::new(Topology::ring(3).unwrap(), 1).with_directory(1),
        )
        .with_sweep(1..=2),
    );
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 2);

    let stats = service.stats();
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queue_capacity, 17);
    assert_eq!(stats.queued, 0, "drained service has an empty queue");
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.pending, 0);
    assert_eq!(stats.pool, service.pool_stats(), "one pool, one truth");

    let json = stats.to_json();
    advocat::service::validate_json(&json).expect("snapshot JSON is well-formed");
    for needle in [
        "\"workers\":2",
        "\"queue_capacity\":17",
        "\"submitted\":2",
        "\"completed\":2",
        "\"pending\":0",
    ] {
        assert!(json.contains(needle), "{json} missing {needle}");
    }

    // The registry's live gauge tells the same story as the snapshot.
    let exposition = telemetry
        .metrics()
        .expect("ring enables metrics")
        .render_prometheus();
    assert!(
        exposition.contains("service_queue_depth 0"),
        "queue gauge agrees with stats().queued:\n{exposition}"
    );
}
