//! The telemetry layer end to end: JSON-lines trace schema stability,
//! span taxonomy, metrics exposition and solver profiles.
//!
//! The trace format is a wire format — downstream tooling greps and
//! parses it — so the field names and the span/metric taxonomy are
//! **pinned** here: renaming any of them must fail this suite.

use advocat::prelude::*;
use std::time::Duration;

/// Top-level JSON keys of one trace line, excluding everything nested
/// inside the `fields` object.  Values never contain commas outside
/// `fields` (names are dotted identifiers, the rest are numbers), so a
/// split-based scan is exact.
fn top_level_keys(line: &str) -> Vec<&str> {
    let body = match line.find(",\"fields\":{") {
        Some(at) => &line[1..at],
        None => &line[1..line.len() - 1],
    };
    let mut keys: Vec<&str> = body
        .split(',')
        .filter_map(|pair| pair.split(':').next())
        .map(|key| key.trim_matches(|c| c == '"' || c == '}'))
        .collect();
    if line.contains(",\"fields\":{") {
        keys.push("fields");
    }
    keys
}

fn traced_check() -> (Report, Vec<String>) {
    let (telemetry, trace) = Telemetry::ring(65536);
    let config = CheckConfig {
        solver: SolverConfig {
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        },
        ..CheckConfig::default()
    };
    let system =
        build_mesh_for_sweep(&MeshConfig::new(2, 2, 2).with_directory(1, 1), 3).expect("mesh");
    let mut engine = QueryEngine::with_config(system, config, 2..=3);
    let report = engine.check(&Query::new().capacity(2));
    telemetry.flush();
    assert_eq!(trace.dropped(), 0, "ring must be large enough for a check");
    (report, trace.lines())
}

/// Schema stability: every record is one JSON object whose top-level keys
/// come from the pinned vocabulary, with the per-type required keys
/// present.  This is the contract `ARCHITECTURE.md` documents.
#[test]
fn trace_lines_use_only_the_pinned_schema() {
    let (_, lines) = traced_check();
    assert!(!lines.is_empty());
    const ALLOWED: [&str; 7] = ["type", "span", "parent", "name", "t_us", "dur_us", "fields"];
    for line in &lines {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "{line}"
        );
        for key in top_level_keys(line) {
            assert!(ALLOWED.contains(&key), "unknown key {key:?} in {line}");
        }
        let required: &[&str] = if line.starts_with("{\"type\":\"enter\"") {
            &["\"span\":", "\"name\":", "\"t_us\":"]
        } else if line.starts_with("{\"type\":\"exit\"") {
            &["\"span\":", "\"name\":", "\"t_us\":", "\"dur_us\":"]
        } else if line.starts_with("{\"type\":\"event\"") {
            &["\"name\":", "\"t_us\":"]
        } else {
            panic!("unknown record type: {line}");
        };
        for needle in required {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
    }
}

/// Span taxonomy: one engine check emits the documented spans in the
/// documented nesting — `template.build` at the root, `query.check`
/// parenting the solver's `sat.*` events — and timestamps are monotone.
#[test]
fn one_check_reconstructs_the_documented_timeline() {
    let (report, lines) = traced_check();
    assert!(!report.is_deadlock_free(), "queue size 2 deadlocks");

    let enters: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"enter\""))
        .collect();
    assert!(enters
        .iter()
        .any(|l| l.contains("\"name\":\"template.build\"")));
    assert!(enters
        .iter()
        .any(|l| l.contains("\"name\":\"query.check\"")));
    // Every enter has a matching exit (the trace is a complete timeline).
    let exits = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"exit\""))
        .count();
    assert_eq!(enters.len(), exits);

    // The deadlocking check pushes and pops one solver scope.
    assert!(lines.iter().any(|l| l.contains("\"name\":\"smt.push\"")));
    assert!(lines.iter().any(|l| l.contains("\"name\":\"smt.pop\"")));

    // Timestamps never run backwards on the shared epoch.
    let mut last = 0u64;
    for line in &lines {
        let t_us: u64 = line
            .split("\"t_us\":")
            .nth(1)
            .and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .expect("every record carries t_us");
        assert!(t_us >= last, "time went backwards in {line}");
        last = t_us;
    }
}

/// Solver profiles ride the report: phase attribution is populated and
/// `Report::summary()` renders it.
#[test]
fn reports_carry_a_solver_profile_when_telemetry_is_on() {
    let (report, _) = traced_check();
    let profile = report.solver_profile().expect("telemetry was enabled");
    assert!(profile.propagate.count > 0);
    assert!(report.summary().contains("solver profile: propagate"));
}

/// The service registers the documented metric names, and both exposition
/// formats render them.  The names are pinned: dashboards scrape them.
#[test]
fn service_metrics_use_the_pinned_names() {
    let telemetry = Telemetry::null();
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_telemetry(telemetry.clone()),
    );
    let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
    for capacity in [2, 3, 2] {
        service.submit(
            VerifyJob::mesh(format!("qs {capacity}"), mesh)
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
    }
    let outcomes = service.drain();
    assert!(
        outcomes[0].solver_profile().is_some(),
        "jobs inherit the handle"
    );

    let metrics = telemetry.metrics().expect("enabled handle has a registry");
    let prometheus = metrics.render_prometheus();
    for name in [
        "service_queue_depth",
        "service_job_queue_wait_seconds",
        "service_job_work_seconds",
        "service_warm_hits_total",
        "service_cold_builds_total",
        "service_rebuilds_total",
        "sat_live_learnt_clauses",
        "sat_total_learnt_clauses",
    ] {
        assert!(prometheus.contains(name), "{name} missing:\n{prometheus}");
        assert!(
            metrics.render_json().contains(name),
            "{name} missing in JSON"
        );
    }
    // One cold build, two warm hits — mirrored from the pool stats.
    assert!(prometheus.contains("service_cold_builds_total 1"));
    assert!(prometheus.contains("service_warm_hits_total 2"));
}

/// The overhead contract of the disabled handle: a disabled-config check
/// must carry no profile, render no profile line, and a job submitted to
/// an untelemetered service stays untelemetered.
#[test]
fn disabled_telemetry_leaves_no_trace() {
    let system =
        build_mesh_for_sweep(&MeshConfig::new(2, 2, 3).with_directory(1, 1), 3).expect("mesh");
    let mut engine = QueryEngine::on(system, 3..=3);
    let report = engine.check(&Query::new().capacity(3));
    assert!(report.solver_profile().is_none());
    assert!(!report.summary().contains("solver profile"));

    let service = Service::new(ServiceConfig::default().with_workers(1));
    service.submit(
        VerifyJob::mesh("plain", MeshConfig::new(2, 2, 3).with_directory(1, 1))
            .with_timeout(Duration::from_secs(3600)),
    );
    let outcomes = service.drain();
    assert!(outcomes[0].solver_profile().is_none());
}
