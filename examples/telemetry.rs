//! Observability end to end: trace an 8×8 composed verification and
//! reconstruct its timeline from the JSON-lines records.
//!
//! One `Telemetry` handle flows through the whole stack — attached to the
//! `SolverConfig`, it reaches the composition driver, the engine of every
//! tile class and the CDCL core below them.  This example:
//!
//! 1. checks a small mesh flat with telemetry on and prints the report
//!    summary with its phase-attributed solver profile,
//! 2. runs the 8×8 composed check under an in-memory ring trace and
//!    rebuilds the span timeline from the raw JSON lines — certification
//!    and boundary phases, per-span-name counts and totals,
//! 3. fills the metrics registry behind the same handle from a small
//!    verification-service batch (composition registers no metrics) and
//!    prints its Prometheus text exposition.
//!
//! Run with: `cargo run --release --example telemetry`

use std::collections::HashMap;

use advocat::prelude::*;

/// Pulls one `"key":value` number out of a raw trace line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Pulls the `"name":"..."` out of a raw trace line.
fn name_field(line: &str) -> Option<String> {
    let rest = line.split("\"name\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_owned())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Telemetry: spans, metrics and solver profiles ==\n");

    // 1. A flat check with telemetry on: the report carries the solver's
    //    phase attribution and `summary()` renders it.
    let (telemetry, _trace) = Telemetry::ring(65536);
    let config = CheckConfig {
        solver: SolverConfig {
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        },
        ..CheckConfig::default()
    };
    let mesh = FabricConfig::new(Topology::mesh(2, 2)?, 2).with_directory(3);
    let system = build_fabric_for_sweep(&mesh, 3)?;
    let mut engine = QueryEngine::with_config(system, config, 2..=3);
    let report = engine.check(&Query::new().capacity(2));
    println!("{}\n", report.summary());
    assert!(report.solver_profile().is_some(), "telemetry was enabled");

    // 2. The 8×8 composed check, traced end to end into one ring buffer.
    let (telemetry, trace) = Telemetry::ring(1 << 20);
    let check = CheckConfig {
        solver: SolverConfig {
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        },
        ..CheckConfig::default()
    };
    let fabric = FabricConfig::new(Topology::mesh(8, 8)?, 2).with_directory(9);
    let partition = std::sync::Arc::new(Partition::per_node(&fabric.topology));
    let options = ComposeOptions::new(2..=2)
        .with_check(check)
        .with_flat_fallback(0);
    let mut composition = QueryEngine::compose(fabric, partition, options)?;
    let report = composition.check(&Query::new().capacity(2));
    telemetry.flush();
    let stats = composition.stats();
    println!("8x8 composed: {}", report.summary());
    println!(
        "tiles: {}  classes: {}  engines built: {}  warm certifications: {}\n",
        stats.tiles, stats.distinct_classes, stats.engines_built, stats.warm_hits
    );

    // Reconstruct the timeline: every record is one JSON line; `enter`
    // and `exit` pair up by span id.
    let lines = trace.lines();
    assert_eq!(trace.dropped(), 0, "the ring held the whole run");
    let mut open: HashMap<u64, String> = HashMap::new();
    let mut totals: HashMap<String, (usize, u64)> = HashMap::new();
    let mut events: HashMap<String, usize> = HashMap::new();
    for line in &lines {
        let name = name_field(line).expect("every record is named");
        if line.starts_with("{\"type\":\"enter\"") {
            open.insert(num_field(line, "span").unwrap(), name);
        } else if line.starts_with("{\"type\":\"exit\"") {
            let id = num_field(line, "span").unwrap();
            assert_eq!(open.remove(&id).as_ref(), Some(&name), "spans pair up");
            let slot = totals.entry(name).or_default();
            slot.0 += 1;
            slot.1 += num_field(line, "dur_us").unwrap();
        } else {
            *events.entry(name).or_default() += 1;
        }
    }
    assert!(open.is_empty(), "every span closed: {open:?}");

    println!("trace: {} records, all spans paired", lines.len());
    let mut spans: Vec<(&String, &(usize, u64))> = totals.iter().collect();
    spans.sort_by_key(|(_, (_, total))| std::cmp::Reverse(*total));
    println!("span name            count   total");
    for (name, (count, total_us)) in &spans {
        println!(
            "  {name:<18} {count:>5}   {:>8.1} ms",
            *total_us as f64 / 1000.0
        );
    }
    let mut event_names: Vec<(&String, &usize)> = events.iter().collect();
    event_names.sort();
    println!("events:");
    for (name, count) in &event_names {
        println!("  {name:<18} {count:>5}");
    }
    println!();

    // The documented taxonomy is all present in one run.
    for required in [
        "fabric.build",
        "colors.derive",
        "invariants.derive",
        "compose.certify",
        "compose.boundary",
        "template.build",
        "query.check",
    ] {
        assert!(totals.contains_key(required), "{required} span missing");
    }
    // Every tile is built and derived once, at compose time: each class
    // engine reuses its first tile and builds only its template.
    assert_eq!(totals["fabric.build"].0, stats.tiles);
    assert_eq!(totals["invariants.derive"].0, stats.tiles);
    // Each tile class is built once and asked once: no per-tile work.
    assert_eq!(totals["template.build"].0 as u64, stats.engines_built);
    assert_eq!(totals["query.check"].0, stats.distinct_classes);

    // 3. The metrics registry behind the same handle.  Composition
    //    registers none; the verification service does, so run two jobs
    //    through one (the second reuses the first's warm engine).
    let metrics = telemetry.metrics().expect("enabled handle");
    assert!(!metrics.render_prometheus().contains("service_"));
    let service = Service::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_telemetry(telemetry.clone()),
    );
    for capacity in [2, 3] {
        service.submit(
            VerifyJob::new(format!("qs {capacity}"), mesh.clone())
                .at_capacity(capacity)
                .with_engine_range(2..=3),
        );
    }
    service.drain();
    let prometheus = metrics.render_prometheus();
    assert!(prometheus.contains("service_warm_hits_total"));
    println!("-- Prometheus exposition --\n{prometheus}");

    Ok(())
}
