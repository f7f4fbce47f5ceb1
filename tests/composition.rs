//! Compositional verification: flat-vs-composed agreement and candidate
//! attribution (the PR-7 tentpole evidence).
//!
//! A [`Composition`] must answer exactly like a flat [`QueryEngine`] on
//! the paper's small study fabrics — same verdict at every probed
//! capacity, same minimal deadlock-free capacity.  On fabrics of at most
//! [`ComposeOptions::flat_fallback_max_nodes`] topology nodes that
//! agreement is engineered: the session transparently answers from a flat
//! engine, because flat is exact and cheap at this scale (the
//! `*_agrees_with_flat` tests below pin both the verdicts and the
//! mechanism).  The composed path proper — tile certification through
//! class-shared warm engines plus the contract-level boundary check — is
//! over-approximate: it may report a spurious candidate where flat proves
//! freedom, but it must never claim freedom where flat finds a deadlock.
//! The remaining tests pin that soundness direction, the per-class engine
//! sharing, and the candidate attribution surfaced in [`Report::summary`].

use std::sync::Arc;

use advocat::prelude::*;
use advocat_invariants::{project_interface, ContractPort, InterfaceContract};
use advocat_noc::PortDirection;

/// Asserts flat/composed agreement around a pinned minimal deadlock-free
/// capacity: both paths must find a deadlock at `threshold - 1` and prove
/// freedom at `threshold`.
fn assert_agreement(config: FabricConfig, partition: Partition, threshold: usize) {
    let range = (threshold - 1)..=threshold;
    let mut flat = QueryEngine::for_fabric(&config, range.clone()).expect("flat fabric builds");
    let mut composed = QueryEngine::compose(
        config,
        Arc::new(partition),
        ComposeOptions::new(range.clone()),
    )
    .expect("tiles build");
    for capacity in range {
        let flat_report = flat.check(&Query::new().capacity(capacity));
        let composed_report = composed.check(&Query::new().capacity(capacity));
        assert_eq!(
            flat_report.is_deadlock_free(),
            composed_report.is_deadlock_free(),
            "flat and composed disagree at capacity {capacity}"
        );
        assert_eq!(
            flat_report.is_deadlock_free(),
            capacity == threshold,
            "pinned threshold moved at capacity {capacity}"
        );
    }
    // These study fabrics sit inside the flat-fallback bound, so the
    // agreement is by construction: the session answered flat both times
    // and never spun up a tile engine.
    let stats = composed.stats();
    assert_eq!(stats.flat_fallbacks, 2);
    assert_eq!(stats.engines_built, 0);
}

#[test]
fn mesh_2x2_composed_agrees_with_flat() {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let partition = Partition::per_node(&config.topology);
    assert_agreement(config, partition, 3);
}

#[test]
fn mesh_3x3_composed_agrees_with_flat() {
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 1).with_directory(4);
    let partition = Partition::per_node(&config.topology);
    assert_agreement(config, partition, 5);
}

#[test]
fn ring_4_composed_agrees_with_flat() {
    let config = FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1);
    let partition = Partition::ring_segments(&config.topology, 2).unwrap();
    assert_agreement(config, partition, 2);
}

#[test]
fn ring_8_composed_agrees_with_flat() {
    let config = FabricConfig::new(Topology::ring(8).unwrap(), 1).with_directory(1);
    let partition = Partition::ring_segments(&config.topology, 2).unwrap();
    assert_agreement(config, partition, 6);
}

/// The composed path proper (fallback disabled) on a fabric the flat
/// encoding proves to deadlock: composition must not claim freedom, and
/// it must certify tiles through class-shared engines, not one per tile.
#[test]
fn the_composed_path_is_sound_where_flat_finds_a_deadlock() {
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 1).with_directory(4);
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=2).with_flat_fallback(0);
    let mut composed = QueryEngine::compose(config.clone(), partition, options).unwrap();
    let report = composed.check(&Query::new().capacity(2));
    // Flat finds a deadlock at capacity 2 (the threshold is 5), so a
    // composed deadlock-free verdict here would be unsound.
    assert!(!report.is_deadlock_free());
    assert!(report.attribution().is_some(), "candidates are attributed");

    let stats = composed.stats();
    assert_eq!(stats.flat_fallbacks, 0);
    assert_eq!(stats.tiles, 9);
    // Corner, edge and directory-hosting structural classes (the centre
    // node hosts the directory, so there is no plain interior class).
    assert_eq!(stats.distinct_classes, 3);
    assert_eq!(
        stats.engines_built as usize, stats.distinct_classes,
        "one cold engine per structural class"
    );
    assert_eq!(
        stats.warm_hits,
        stats.tiles as u64 - stats.engines_built,
        "every same-class tile certifies warm"
    );
}

/// Satellite: a composed run whose *boundary check* finds the candidate
/// (every tile certifies free on its own) names the boundary interface
/// and its two tiles in `Report::summary`.
#[test]
fn a_boundary_candidate_names_its_interface_in_the_summary() {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(3..=3).with_flat_fallback(0);
    let mut composed = QueryEngine::compose(config, partition, options).unwrap();
    // At capacity 3 the flat 2×2 mesh is deadlock-free and every closed
    // tile certifies free, so the only possible candidate source is the
    // over-approximate boundary check — which fires, attributed.
    let report = composed.check(&Query::new().capacity(3));
    assert!(
        !report.is_deadlock_free(),
        "boundary check over-approximates"
    );

    let attribution = report.attribution().expect("candidate is attributed");
    assert!(
        attribution.contains("interface"),
        "boundary candidates name their interface: {attribution}"
    );
    assert!(
        attribution.contains("tile"),
        "boundary candidates name the tiles they join: {attribution}"
    );
    let summary = report.summary();
    assert!(
        summary.contains(attribution),
        "the summary carries the attribution: {summary}"
    );
    // The synthesized counterexample describes the full, waiting ports.
    let cex = report.counterexample().expect("candidate present");
    assert!(!cex.queue_contents.is_empty());
}

/// A tile that fails certification (here: a ring segment that wedges even
/// under a fully liberal environment) short-circuits the composed run
/// and is named in the attribution.
#[test]
fn a_failing_tile_is_named_in_the_attribution() {
    let config = FabricConfig::new(Topology::ring(8).unwrap(), 1).with_directory(1);
    let partition = Arc::new(Partition::ring_segments(&config.topology, 2).unwrap());
    let options = ComposeOptions::new(2..=2).with_flat_fallback(0);
    let mut composed = QueryEngine::compose(config, partition, options).unwrap();
    let report = composed.check(&Query::new().capacity(2));
    assert!(!report.is_deadlock_free());
    let attribution = report.attribution().expect("tile failure is attributed");
    assert!(
        attribution.contains("tile seg("),
        "the failing segment is named: {attribution}"
    );
    assert!(report.summary().contains(attribution));
}

/// A capacity outside the composed range panics on the composed path
/// exactly as on the flat one, instead of widening the tile engines.
#[test]
#[should_panic(expected = "capacity 5 outside the template range 2..=3")]
fn a_capacity_outside_the_range_panics_on_the_composed_path() {
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 2).with_directory(4);
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=3).with_flat_fallback(0);
    let mut composed = QueryEngine::compose(config, partition, options).unwrap();
    composed.check(&Query::new().capacity(5));
}

/// A tile whose check runs out of refinements is not certified: the
/// composed verdict is `Unknown`, attributed to the first such tile, and
/// the summary says so.
#[test]
fn a_resource_limit_on_a_tile_reaches_the_composed_report() {
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 2).with_directory(4);
    let partition = Arc::new(Partition::per_node(&config.topology));
    let check = CheckConfig {
        max_refinements: 0,
        ..CheckConfig::default()
    };
    let options = ComposeOptions::new(2..=2)
        .with_check(check)
        .with_flat_fallback(0);
    let mut composed = QueryEngine::compose(config, partition, options).unwrap();
    let report = composed.check(&Query::new().capacity(2));
    assert!(matches!(report.verdict(), Verdict::Unknown), "{report:?}");
    assert_eq!(report.attribution(), Some("tile (0,0)"));
    assert!(report.summary().contains("unknown (resource limit)"));
}

/// The contracts a composition projects are per tile and non-trivial:
/// every tile exports flow summaries, and boundary occupancy rows speak
/// only about that tile's cut queues.
#[test]
fn projected_contracts_cover_every_tile() {
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 1).with_directory(4);
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=2).with_flat_fallback(0);
    let composed = QueryEngine::compose(config, partition, options).unwrap();
    let contracts = composed.contracts(2);
    assert_eq!(contracts.len(), 9);
    assert!(contracts.iter().all(|c| !c.flows.is_empty()));
    let names: Vec<&str> = contracts.iter().map(|c| c.tile.as_str()).collect();
    assert!(names.contains(&"(0,0)") && names.contains(&"(1,1)"));
}

/// Opens a composed session over a per-node cut of `config`, with the flat
/// fallback off.
fn compose_per_node(config: FabricConfig) -> Result<Composition, FabricError> {
    let partition = Arc::new(Partition::per_node(&config.topology));
    let options = ComposeOptions::new(2..=2).with_flat_fallback(0);
    QueryEngine::compose(config, partition, options)
}

/// Tiles are built on several threads; an unbuildable fabric still fails
/// to compose with the error of its first tile.
#[test]
fn an_unbuildable_fabric_does_not_compose() {
    let mesh = || FabricConfig::new(Topology::mesh(4, 4).unwrap(), 2).with_directory(5);
    let zero = compose_per_node(mesh().with_queue_size(0)).map(|_| ());
    assert!(matches!(zero, Err(FabricError::ZeroQueueSize)), "{zero:?}");
    let outside = compose_per_node(mesh().with_directory(16)).map(|_| ());
    assert!(
        matches!(outside, Err(FabricError::DirectoryOutOfBounds)),
        "{outside:?}"
    );
}

/// The contracts of a session whose tiles were built in parallel are
/// those of a serial loop over the tiles — build, colors, invariants,
/// projection — in tile order.
#[test]
fn parallel_tile_builds_project_the_serial_contracts() {
    let config = FabricConfig::new(Topology::mesh(4, 4).unwrap(), 2).with_directory(5);
    let partition = Partition::per_node(&config.topology);
    let reference: Vec<InterfaceContract> = (0..partition.num_tiles())
        .map(|tile| {
            let system = build_tile_fabric(&config, &partition, tile).unwrap();
            let colors = derive_colors(&system);
            let invariants = derive_invariants(&system, &colors);
            let ports: Vec<ContractPort> = partition
                .boundary_ports(&config, tile)
                .into_iter()
                .map(|p| ContractPort {
                    queue: p.name,
                    class: p.class,
                    ingress: p.direction == PortDirection::Ingress,
                })
                .collect();
            let name = &partition.tile(tile).name;
            project_interface(&system, &colors, &invariants, name, &ports, 2)
        })
        .collect();
    let composed = compose_per_node(config).unwrap();
    assert_eq!(composed.contracts(2), reference);
}
