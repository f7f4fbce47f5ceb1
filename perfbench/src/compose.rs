//! `compose-8x8`: `QueryEngine::compose` on an 8×8 mesh cut into per-node
//! tiles, then `check` at every pinned capacity.  One round opens a fresh
//! composition; rounds repeat while the time budget allows.  The input
//! has no random part, so the seed changes nothing here.

use std::sync::Arc;
use std::time::Instant;

use advocat::prelude::{
    audit_routing, build_tile_fabric, CheckConfig, ComposeOptions, FabricConfig, Partition, Query,
    QueryEngine, Topology,
};

use crate::expect::{COMPOSE_CAPACITIES, COMPOSE_DIRECTORY, COMPOSE_INTERFACE, COMPOSE_QUEUE_SIZE};
use crate::stats::{ms, Trace};
use crate::{run_rounds, Args, Gate, Layers, Outcome, Round};

fn fabric() -> FabricConfig {
    FabricConfig::new(Topology::mesh(8, 8).expect("8×8 mesh"), COMPOSE_QUEUE_SIZE)
        .with_directory(COMPOSE_DIRECTORY)
}

fn round(traced: bool, gate: &mut Gate) -> Round {
    let mut out = Round::default();
    let config = fabric();
    let partition = Arc::new(Partition::per_node(&config.topology));
    let (telemetry, mut trace) = Trace::new(traced);
    if traced {
        time_tiles(&config, &partition, &mut out.layers);
    }
    let mut check = CheckConfig::default();
    check.solver.telemetry = telemetry;
    let capacities = COMPOSE_CAPACITIES[0]..=COMPOSE_CAPACITIES[COMPOSE_CAPACITIES.len() - 1];
    let options = ComposeOptions::new(capacities)
        .with_check(check)
        .with_flat_fallback(0);

    let start = Instant::now();
    let mut composition =
        QueryEngine::compose(config, partition, options).expect("the 8×8 mesh composes");
    out.setup = start.elapsed();

    trace.drain();
    for capacity in COMPOSE_CAPACITIES {
        let start = Instant::now();
        let report = composition.check(&Query::new().capacity(capacity));
        let wall = start.elapsed();
        trace.drain();
        out.study += wall;
        out.latencies_ms.push(ms(wall));
        let stats = &report.analysis().stats;
        out.layers.refinements += stats.refinements;
        out.layers.conflicts += stats.sat_conflicts;
        out.layers.propagations += stats.sat_propagations;
        out.layers.reduced_dbs += stats.sat_reduced_dbs;
        out.layers.atoms += stats.linear_atoms as u64;
        out.layers.invariants += stats.invariants as u64;
        out.layers.report_ms += ms(wall.saturating_sub(stats.elapsed));
        let attribution = report.attribution().unwrap_or("");
        gate.check(
            !report.is_deadlock_free()
                && report.counterexample().is_some()
                && attribution.contains(COMPOSE_INTERFACE),
            || {
                format!(
                    "compose-8x8 capacity {capacity}: expected a candidate at interface \
                     {COMPOSE_INTERFACE}, got {:?} attributed to {attribution:?}",
                    report.verdict()
                )
            },
        );
    }
    let stats = composition.stats();
    let jobs = (stats.engines_built + stats.warm_hits).max(1) as f64;
    let l = &mut out.layers;
    l.compose_engines_built = stats.engines_built;
    l.compose_warm_ratio = stats.warm_hits as f64 / jobs;
    l.service_engines_built = stats.engines_built;
    l.service_warm_ratio = l.compose_warm_ratio;
    // Tile solving runs inside the composition's service, so per-query
    // times come from its `query.check` spans; no `SolverProfile` reaches
    // the caller, so the CDCL/theory split stays unobserved here.
    l.template_ms = trace.total_ms("template.build");
    l.check_ms = trace.total_ms("query.check");
    l.check_max_ms = trace.max_ms("query.check");
    l.certify_ms = trace.total_ms("compose.certify");
    l.boundary_ms = trace.total_ms("compose.boundary");
    l.work_warm_p50_ms = trace.job_p50_ms(true);
    l.work_cold_p50_ms = trace.job_p50_ms(false);
    out
}

/// Times what `QueryEngine::compose` does per tile: the routing audit of
/// the whole fabric once, then every tile's build, colors and invariants.
fn time_tiles(config: &FabricConfig, partition: &Partition, layers: &mut Layers) {
    let start = Instant::now();
    audit_routing(&config.topology, config.routing.as_ref()).expect("pinned routing audits");
    layers.audit_ms += ms(start.elapsed());
    for tile in 0..partition.num_tiles() {
        let start = Instant::now();
        let system = build_tile_fabric(config, partition, tile).expect("tiles build");
        layers.build_ms += ms(start.elapsed());
        layers.time_derive(&system);
    }
}

pub fn run(args: &Args) -> Outcome {
    run_rounds(args, round)
}
