//! Cross-topology verification: the tentpole scenario of the topology
//! engine.
//!
//! One `QueryEngine` sweep — build the fabric once at the largest
//! capacity, probe every capacity incrementally — runs *unchanged* on a
//! mesh, a torus, a ring and a fat tree.  The torus and ring are
//! deadlock-free only because their routing uses dateline virtual
//! channels; with the dateline disabled the channel-dependency-graph audit
//! reports the cycle before anything is encoded.
//!
//! These are the threshold regressions (mesh 3 / torus 3 / ring 2 /
//! fat-tree 2) that must not move.

use std::sync::Arc;

use advocat::noc::{
    audit_routing, DimensionOrdered, FabricError, RoutingFunction, TableRouting, UpDownRouting,
};
use advocat::prelude::*;

/// The identical sweep, parameterised only by the fabric configuration.
fn minimal_free_capacity(config: &FabricConfig, max: usize) -> Option<usize> {
    let mut engine = QueryEngine::for_fabric(config, 1..=max).expect("fabric builds");
    (1..=max).find(|cap| {
        engine
            .check(&Query::new().capacity(*cap))
            .is_deadlock_free()
    })
}

#[test]
fn one_session_sweep_runs_unchanged_on_mesh_torus_ring_and_fat_tree() {
    let fabrics = [
        (
            FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3),
            Some(3),
        ),
        (
            FabricConfig::new(Topology::torus(2, 2).unwrap(), 1).with_directory(3),
            Some(3),
        ),
        (
            FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1),
            Some(2),
        ),
        (
            FabricConfig::new(Topology::fat_tree(2, 2).unwrap(), 1).with_directory(3),
            Some(2),
        ),
    ];
    for (config, expected) in fabrics {
        let name = config.topology.name().to_owned();
        assert_eq!(
            minimal_free_capacity(&config, 4),
            expected,
            "minimal deadlock-free capacity of {name}"
        );
    }
}

#[test]
fn torus_and_ring_verify_deadlock_free_only_with_dateline_vcs() {
    for topo in [Topology::ring(4).unwrap(), Topology::torus(4, 2).unwrap()] {
        // With datelines (the default routing) the CDG is acyclic …
        let datelined = DimensionOrdered::new();
        let audit = audit_routing(&topo, &datelined).unwrap();
        assert!(audit.is_deadlock_free(), "{} datelined", topo.name());

        // … without them the audit pinpoints the cyclic dependency and the
        // builder refuses the fabric.
        let undatelined: Arc<dyn RoutingFunction> = Arc::new(DimensionOrdered::without_dateline());
        let audit = audit_routing(&topo, undatelined.as_ref()).unwrap();
        let cycle = audit.cycle.as_ref().expect("undatelined wrap ring cycles");
        assert!(cycle.len() >= 3);
        let config = FabricConfig::new(topo.clone(), 2).with_routing(undatelined);
        match build_fabric(&config) {
            Err(FabricError::CyclicChannelDependencies { cycle, .. }) => {
                assert!(cycle.contains("@vc0"), "cycle names channels: {cycle}");
            }
            other => panic!(
                "expected a CDG rejection for {}, got {other:?}",
                topo.name()
            ),
        }
    }

    // The datelined ring is then actually *proven* deadlock-free by the
    // full pipeline at a small capacity.
    let ring = FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1);
    assert_eq!(minimal_free_capacity(&ring, 3), Some(2));
}

#[test]
fn irregular_fabrics_route_by_table_and_updown_repairs_cycles() {
    // A 5-cycle with a pendant node: shortest-path tables route around the
    // cycle (cyclic CDG, rejected), up*/down* over the same graph passes
    // the audit and verifies.
    let edges: Vec<(u32, u32)> = (0..5u32)
        .flat_map(|i| {
            let j = (i + 1) % 5;
            [(i, j), (j, i)]
        })
        .chain([(0, 5), (5, 0)])
        .collect();
    let topo = Topology::irregular("c5+tail", 6, &[0, 1, 2, 3, 4, 5], &edges).unwrap();

    let table = FabricConfig::new(topo.clone(), 2)
        .with_routing(Arc::new(TableRouting::shortest_paths(&topo)));
    assert!(matches!(
        build_fabric(&table),
        Err(FabricError::CyclicChannelDependencies { .. })
    ));

    let updown = FabricConfig::new(topo.clone(), 1)
        .with_routing(Arc::new(UpDownRouting::new(
            &topo,
            advocat::noc::NodeId::from_index(0),
        )))
        .with_directory(0);
    let free_at = minimal_free_capacity(&updown, 4);
    assert!(free_at.is_some(), "up*/down* irregular fabric verifies");
}

#[test]
fn message_class_vcs_compose_with_dateline_vcs() {
    // Ring with both request/response planes and dateline escape VCs:
    // 4 planes per link, still deadlock-free, and the minimal capacity
    // does not grow.
    let config = FabricConfig::new(Topology::ring(4).unwrap(), 1)
        .with_directory(1)
        .with_message_class_vcs(true);
    assert_eq!(config.planes(), 4);
    let free_at = minimal_free_capacity(&config, 3).expect("still verifies");
    assert!(free_at <= 2);
}
