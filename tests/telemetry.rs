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
    let fabric = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    let mut engine = QueryEngine::for_fabric_with(&fabric, config, 2..=3).expect("mesh");
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
    // Engine construction builds the fabric, derives colors, then
    // invariants, then builds the template, one span each.
    let opened = |name: &str| {
        enters
            .iter()
            .position(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .unwrap_or_else(|| panic!("{name} span missing"))
    };
    let (fabric, colors) = (opened("fabric.build"), opened("colors.derive"));
    let invariants = opened("invariants.derive");
    assert!(fabric < colors && colors < invariants && invariants < opened("template.build"));
    assert!(
        enters[fabric].contains("\"fields\":{\"nodes\":\"4\"}"),
        "{}",
        enters[fabric]
    );
    for at in [colors, invariants] {
        assert!(
            enters[at].contains("\"fields\":{\"primitives\":"),
            "{}",
            enters[at]
        );
    }
    // Every enter has a matching exit (the trace is a complete timeline).
    let exits = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"exit\""))
        .count();
    assert_eq!(enters.len(), exits);

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
    // Opening decision levels (assumptions and branching) is timed too.
    assert!(profile.decide.count > 0, "{profile:?}");
    assert!(report.summary().contains("solver profile: propagate"));
    assert!(report.summary().contains("decide"));
}

/// A 3×3 composition (corner, edge and the directory-hosting centre: 3
/// classes, 9 tiles) whose checks report to `telemetry`, with no flat
/// fallback.
fn traced_composition_3x3(telemetry: &Telemetry) -> Composition {
    let check = CheckConfig {
        solver: SolverConfig {
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        },
        ..CheckConfig::default()
    };
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 2).with_directory(4);
    let partition = std::sync::Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=2)
        .with_check(check)
        .with_flat_fallback(0);
    QueryEngine::compose(config, partition, options).unwrap()
}

/// A composed report carries the profiles its class engines recorded,
/// merged, as it carries their summed statistics.
#[test]
fn a_traced_composed_check_carries_a_solver_profile() {
    let (telemetry, _trace) = Telemetry::ring(1 << 20);
    let report = traced_composition_3x3(&telemetry).check(&Query::new().capacity(2));
    let profile = report
        .solver_profile()
        .expect("the class engines were traced");
    assert!(!profile.is_empty());
    assert!(report.summary().contains("solver profile: propagate"));
}

/// A composed check asks each structural tile class once, on an engine of
/// its own: the first check builds one template per class from the tile
/// compose already built and derived, the second reuses the engines, and
/// neither builds a fabric, derives colors or invariants, or runs a
/// service job.
#[test]
fn a_composed_check_asks_each_tile_class_once() {
    let (telemetry, trace) = Telemetry::ring(1 << 20);
    let mut composition = traced_composition_3x3(&telemetry);
    assert_eq!(composition.stats().distinct_classes, 3);
    trace.drain();
    for (round, templates) in [(1, 3), (2, 0)] {
        composition.check(&Query::new().capacity(2));
        telemetry.flush();
        let lines = trace.drain();
        let opened = |name: &str| {
            let needle = format!("\"name\":\"{name}\"");
            lines
                .iter()
                .filter(|l| l.starts_with("{\"type\":\"enter\"") && l.contains(&needle))
                .count()
        };
        assert_eq!(opened("fabric.build"), 0, "check {round}");
        assert_eq!(opened("colors.derive"), 0, "check {round}");
        assert_eq!(opened("invariants.derive"), 0, "check {round}");
        assert_eq!(opened("template.build"), templates, "check {round}");
        assert_eq!(opened("query.check"), 3, "check {round}");
        assert_eq!(opened("job.execute"), 0, "check {round}");
    }
    assert_eq!(trace.dropped(), 0, "the ring held both checks");
}

/// The service registers the documented metric names, and the Prometheus
/// exposition renders them.  The names are pinned: dashboards scrape them.
#[test]
fn service_metrics_use_the_pinned_names() {
    let telemetry = Telemetry::null();
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_telemetry(telemetry.clone()),
    );
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    for capacity in [2, 3, 2] {
        service.submit(
            VerifyJob::new(format!("qs {capacity}"), mesh.clone())
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
    let system = build_fabric_for_sweep(
        &FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3),
        3,
    )
    .expect("mesh");
    let mut engine = QueryEngine::on(system, 3..=3);
    let report = engine.check(&Query::new().capacity(3));
    assert!(report.solver_profile().is_none());
    assert!(!report.summary().contains("solver profile"));

    let service = Service::new(ServiceConfig::default().with_workers(1));
    service.submit(
        VerifyJob::new(
            "plain",
            FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3),
        )
        .with_timeout(Duration::from_secs(3600)),
    );
    let outcomes = service.drain();
    assert!(outcomes[0].solver_profile().is_none());
}
