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
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    for capacity in 1..=3 {
        service.submit(
            VerifyJob::new("mesh sweep", mesh.clone())
                .at_capacity(capacity)
                .with_engine_range(1..=3),
        );
    }
    let ring = FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1);
    for capacity in 1..=2 {
        service.submit(
            VerifyJob::new("ring sweep", ring.clone())
                .at_capacity(capacity)
                .with_engine_range(1..=2),
        );
    }
    service.submit(VerifyJob::new(
        "mesh qs3",
        FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3),
    ));
    service.submit(VerifyJob::new(
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

/// Satellite (d): identical fingerprints share one engine — the pool
/// builds a single template — while a differing solver configuration
/// forces a second engine.
#[test]
fn identical_fingerprints_share_one_engine() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    for capacity in [2, 3, 2, 3] {
        service.submit(
            VerifyJob::new(format!("qs {capacity}"), mesh.clone())
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
    }
    let outcomes = service.drain();
    let stats = service.stats().pool;
    assert_eq!(stats.engines_built, 1, "one engine for one fingerprint");
    assert_eq!(stats.warm_hits, 3);
    let built: u64 = outcomes
        .iter()
        .map(|o| {
            let json = advocat::service::outcome_to_json(o);
            let delta = json.split(",\"delta\":{\"templates_built\":").nth(1);
            let built = delta.and_then(|rest| rest.split(',').next());
            built.expect("engine ran").parse::<u64>().unwrap()
        })
        .sum();
    assert_eq!(built, 1, "exactly one job paid for the template");
    assert_eq!(outcomes.iter().filter(|o| o.warm_hit).count(), 3);

    // A different CheckConfig is a different engine.
    let tighter = CheckConfig {
        max_refinements: 7,
        ..CheckConfig::default()
    };
    service.submit(
        VerifyJob::new("tighter", mesh)
            .at_capacity(2)
            .with_engine_range(2..=3)
            .with_config(tighter),
    );
    service.drain();
    assert_eq!(service.stats().pool.engines_built, 2);
}

/// The deadlock target is picked per query by assumption, so jobs that
/// differ only in target share one warm engine — and each answers as a
/// separate engine asked the same question would.
#[test]
fn jobs_differing_only_in_target_share_one_engine() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    let targets = [DeadlockTarget::Any, DeadlockTarget::StuckPacket];
    for target in targets {
        service.submit(
            VerifyJob::new(target.to_string(), mesh.clone())
                .with_target(target)
                .at_capacity(2)
                .with_engine_range(2..=3),
        );
    }
    let outcomes = service.drain();
    let stats = service.stats().pool;
    assert_eq!(stats.engines_built, 1, "the target does not split the pool");
    assert_eq!(stats.warm_hits, 1);
    for (outcome, target) in outcomes.iter().zip(targets) {
        let pooled = outcome.result.as_ref().expect("mesh builds");
        let system = build_fabric_for_sweep(&mesh, 3).unwrap();
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
/// `try_submit_json` refuses instead of blocking, and everything admitted
/// still completes correctly.
#[test]
fn try_submit_refuses_when_the_queue_is_full() {
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
    );
    let mut admitted = 0;
    let mut refused = 0;
    for i in 0..16 {
        let job = format!(
            r#"{{"name": "job {i}", "topology": {{"kind": "mesh", "width": 2, "height": 2}},
                 "directory": 3}}"#
        );
        match service.try_submit_json(&job) {
            Ok(_) => admitted += 1,
            Err(JsonSubmitError::QueueFull {
                jobs: 1,
                capacity: 1,
            }) => refused += 1,
            Err(error) => panic!("{error}"),
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
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    service.submit(VerifyJob::new("rushed", mesh.clone()).with_timeout(Duration::from_nanos(1)));
    service.submit(VerifyJob::new("relaxed", mesh).with_timeout(Duration::from_secs(3600)));
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
    let deadlocking = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    let free = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3);
    service.submit(VerifyJob::new("a", deadlocking.clone()));
    service.drain();
    service.submit(VerifyJob::new("b", free));
    service.drain();
    let stats = service.stats().pool;
    assert_eq!(stats.engines_built, 2);
    assert_eq!(stats.evictions, 1, "engine `a` was evicted for `b`");
    assert_eq!(stats.live_engines, 1);
    // Returning to the evicted fingerprint rebuilds, and still answers
    // correctly.
    service.submit(VerifyJob::new("a again", deadlocking));
    let outcomes = service.drain();
    assert!(!outcomes[0].is_deadlock_free());
    assert_eq!(service.stats().pool.engines_built, 3);
}

/// Eviction accounting: warm-hit statistics must reflect that an evicted
/// fingerprint *rebuilds* — the post-eviction return is a cold build, not
/// a warm hit, and only the jobs after the rebuild count warm again.
#[test]
fn warm_hit_accounting_survives_eviction_and_rebuild() {
    let service = Service::new(ServiceConfig::default().with_workers(1).with_max_engines(1));
    let a = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    let b = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3);

    service.submit(VerifyJob::new("a cold", a.clone()));
    service.submit(VerifyJob::new("a warm", a.clone()));
    service.drain();
    let stats = service.stats().pool;
    assert_eq!((stats.engines_built, stats.warm_hits), (1, 1));

    // `b` evicts `a`; returning to `a` must be a cold rebuild, and only
    // the job after it is warm again.
    service.submit(VerifyJob::new("b evicts a", b));
    service.drain();
    assert_eq!(service.stats().pool.evictions, 1);
    service.submit(VerifyJob::new("a rebuilds", a.clone()));
    service.submit(VerifyJob::new("a warm again", a));
    let outcomes = service.drain();
    assert!(!outcomes[0].warm_hit, "the rebuild is not a warm hit");
    assert!(outcomes[1].warm_hit, "the rebuilt engine serves warm");

    let stats = service.stats().pool;
    assert_eq!(stats.engines_built, 3, "a, b, and the rebuild of a");
    assert_eq!(stats.warm_hits, 2);
    assert_eq!(stats.evictions, 2, "the rebuild of a evicted b in turn");
    assert_eq!(stats.live_engines, 1);
    // Every job is accounted exactly once, as a build or a warm hit.
    assert_eq!(stats.engines_built + stats.warm_hits, 5);
    assert_eq!(stats.checkouts, 5);
    assert_eq!(stats.rebuilds, 1, "only a was built twice");
}

/// Pool accounting balances across every path — warm hits, cold builds,
/// rebuilds after eviction, cached build failures and queue-refused
/// timeouts: `checkouts == warm_hits + engines_built` and
/// `engines_built == first_time_builds() + rebuilds`.
#[test]
fn pool_accounting_balances_across_all_paths() {
    let service = Service::new(ServiceConfig::default().with_workers(1).with_max_engines(1));
    let a = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    let b = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3);
    // A 2×2 mesh has no terminal 4: the fabric never builds.
    let invalid = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(4);

    service.submit(VerifyJob::new("a cold", a.clone()));
    service.submit(VerifyJob::new("a warm", a.clone()));
    service.drain();
    service.submit(VerifyJob::new("b evicts a", b.clone()));
    service.drain();
    service.submit(VerifyJob::new("a rebuilds", a));
    service.submit(VerifyJob::new("bad", invalid.clone()));
    service.submit(VerifyJob::new("bad cached", invalid));
    service.submit(VerifyJob::new("rushed", b).with_timeout(Duration::from_nanos(1)));
    let outcomes = service.drain();
    assert!(matches!(outcomes[1].result, Err(JobError::Fabric(_))));
    assert!(matches!(outcomes[2].result, Err(JobError::Fabric(_))));
    assert!(
        matches!(outcomes[3].result, Err(JobError::TimedOut { .. })),
        "a 1ns budget is always out-waited in the queue"
    );

    let stats = service.stats().pool;
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
    // A 2×2 mesh has no terminal 4: the fabric never builds.
    let invalid = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(4);
    for i in 0..3 {
        service.submit(VerifyJob::new(format!("bad {i}"), invalid.clone()));
    }
    let outcomes = service.drain();
    assert!(outcomes
        .iter()
        .all(|o| matches!(o.result, Err(JobError::Fabric(_)))));
    let stats = service.stats().pool;
    assert_eq!(stats.build_failures, 3);
    assert_eq!(stats.engines_built, 0);
}

/// The JSON wire format: requests parse, expand to sweeps, and outcomes
/// serialise with verdicts and warm-hit evidence.
#[test]
fn json_jobs_round_trip_through_the_service() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let ids = service
        .try_submit_json(
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
    // Each job's `delta` is its own query: the cold job built the template,
    // and the SAT effort is its report's.
    for (outcome, cold) in outcomes.iter().zip([true, false]) {
        assert_eq!(outcome.warm_hit, !cold);
        let stats = outcome.result.as_ref().expect("a report").analysis().stats;
        assert!(stats.sat_propagations > 0);
        let delta = format!(
            ",\"delta\":{{\"templates_built\":{},\"queries\":1,\"sat_conflicts\":{},\"sat_propagations\":{}}}}}",
            u8::from(cold),
            stats.sat_conflicts,
            stats.sat_propagations
        );
        let json = advocat::service::outcome_to_json(outcome);
        assert!(json.ends_with(&delta), "{json} does not end with {delta}");
    }

    assert!(service.try_submit_json("{\"nope\": 1").is_err());
    assert!(service
        .try_submit_json(r#"{"name": "x", "topology": {"kind": "escher"}}"#)
        .is_err());
}

/// An exhausted refinement budget is reported as such on the wire: every
/// job of a `"max_refinements":0` request answers `"status":"unknown"`,
/// never a verdict.
#[test]
fn an_exhausted_budget_is_unknown_in_the_job_json() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let ids = service
        .try_submit_json(
            r#"{
                "name": "no budget",
                "topology": {"kind": "mesh", "width": 2, "height": 2},
                "queue_size": 2,
                "directory": 3,
                "capacities": [2, 3],
                "max_refinements": 0
            }"#,
        )
        .expect("valid job JSON");
    assert_eq!(ids.len(), 2);
    for outcome in service.drain() {
        let report = outcome.result.as_ref().expect("the mesh builds");
        assert_eq!(report.analysis().verdict, Verdict::Unknown);
        let json = advocat::service::outcome_to_json(&outcome);
        assert!(json.contains("\"status\":\"unknown\""), "{json}");
    }
}

/// A theory check that runs out of search nodes is reported the same way:
/// a `"theory_node_budget":0` request answers `"status":"unknown"`.
#[test]
fn a_spent_theory_budget_is_unknown_in_the_job_json() {
    let service = Service::new(ServiceConfig::default().with_workers(2));
    let ids = service
        .try_submit_json(
            r#"{
                "name": "no theory nodes",
                "topology": {"kind": "mesh", "width": 2, "height": 2},
                "queue_size": 2,
                "directory": 3,
                "capacities": [2, 3],
                "theory_node_budget": 0
            }"#,
        )
        .expect("valid job JSON");
    assert_eq!(ids.len(), 2);
    for outcome in service.drain() {
        let report = outcome.result.as_ref().expect("the mesh builds");
        assert_eq!(report.analysis().verdict, Verdict::Unknown);
        let json = advocat::service::outcome_to_json(&outcome);
        assert!(json.contains("\"status\":\"unknown\""), "{json}");
    }
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
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
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
    busy.submit(traced(VerifyJob::new("gated", mesh.clone()), gate));
    busy.submit(traced(
        VerifyJob::new("key", ring.clone()),
        Key { _gates: vec![key] },
    ));
    busy.submit(VerifyJob::new("queued", mesh.clone()));
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
        VerifyJob::new(format!("qs {capacity}"), mesh.clone())
            .at_capacity(capacity)
            .with_engine_range(2..=3)
    };
    parked.submit(traced(sweep(2), first));
    parked.submit(sweep(3));
    parked.submit(traced(VerifyJob::new("other", ring.clone()), other));
    parked.submit(traced(
        VerifyJob::new("key", mesh),
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
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    let mesi = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2)
        .with_directory(3)
        .with_protocol(ProtocolKind::Mesi);
    let ring = FabricConfig::new(Topology::ring(4).unwrap(), 2).with_directory(1);
    // Thresholds from `tests/topologies.rs`: ring(4) is free at qs 2,
    // torus(2,2) at qs 3.
    let torus = FabricConfig::new(Topology::torus(2, 2).unwrap(), 3).with_directory(3);
    let mut expected_free = Vec::new();
    for i in 0..250 {
        let capacity = 2 + (i % 2);
        service.submit(
            VerifyJob::new(format!("mesh {i}"), mesh.clone())
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
        expected_free.push(capacity == 3);
        service.submit(
            VerifyJob::new(format!("mesi {i}"), mesi.clone())
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
        service.submit(VerifyJob::new(format!("ring {i}"), ring.clone()));
        expected_free.push(true);
        service.submit(VerifyJob::new(format!("torus {i}"), torus.clone()));
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
    let stats = service.stats().pool;
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
                    let job = format!(
                        r#"{{"name": "race {t}-{i}", "topology": {{"kind": "ring", "nodes": 3}},
                             "queue_size": 1, "directory": 1}}"#
                    );
                    match service.try_submit_json(&job) {
                        Ok(ids) => admitted.lock().unwrap().extend(ids),
                        Err(JsonSubmitError::QueueFull {
                            jobs: 1,
                            capacity: 3,
                        }) => {
                            refused.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(error) => panic!("{error}"),
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
/// summarises — the scheduler's queue bound and the metrics registry's
/// gauges — and `to_json` round-trips as well-formed JSON carrying the
/// same numbers.
#[test]
fn stats_snapshot_pins_pool_queue_and_registry() {
    let (telemetry, _trace) = Telemetry::ring(1024);
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_queue_capacity(17)
            .with_telemetry(telemetry.clone()),
    );
    let ring = FabricConfig::new(Topology::ring(3).unwrap(), 1).with_directory(1);
    for capacity in 1..=2 {
        service.submit(
            VerifyJob::new("stats ring", ring.clone())
                .at_capacity(capacity)
                .with_engine_range(1..=2),
        );
    }
    let outcomes = service.drain();
    assert_eq!(outcomes.len(), 2);

    let stats = service.stats();
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.queue_capacity, 17);
    assert_eq!(stats.queued, 0, "drained service has an empty queue");
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.pending, 0);

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
