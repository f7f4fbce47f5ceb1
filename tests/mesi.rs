//! MESI protocol family: the tentpole scenario of the shared-state
//! protocols.
//!
//! Shared states change the verification problem qualitatively: the
//! directory tracks a bounded sharer set with counting states, exclusive
//! requests fan out into invalidation broadcasts whose acknowledgments
//! funnel back through the same fabric, and upgrade/downgrade/writeback
//! races overlap operations.  These tests pin the exact minimal-capacity
//! thresholds on the paper's 2×2 mesh and on the wraparound topologies,
//! assert that the derived shared-state invariants are what carries the
//! proof (the ablation flips the verdict), and run the MI-vs-MESI
//! comparison as one study with one encoding template per family.

use advocat::prelude::*;

fn mesi_mesh() -> FabricConfig {
    FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1)
        .with_directory(3)
        .with_protocol(ProtocolKind::Mesi)
}

/// The headline result: MESI on the 2×2 mesh deadlocks with queues of
/// size 2 and is proven free with 3 — the same threshold as the abstract
/// MI protocol, reached through a much larger directory automaton and a
/// strictly richer message vocabulary.
#[test]
fn mesi_threshold_on_the_2x2_mesh_is_three() {
    let system = build_fabric_for_sweep(&mesi_mesh(), 4).expect("valid mesh");
    let mut engine = QueryEngine::on(system, 1..=4);

    let deadlocked = engine.check(&Query::new().capacity(2));
    assert!(!deadlocked.is_deadlock_free(), "capacity 2 must deadlock");
    let cex = deadlocked.counterexample().expect("candidate reported");
    assert!(cex.witnesses(DeadlockTarget::Any));

    assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());

    let sizing = engine.minimal_capacity(&Query::new());
    assert_eq!(sizing.minimal_queue_size, Some(3));
    // The whole study — point queries plus the bisection — reused one
    // encoding template and one persistent solver.
    assert_eq!(engine.stats().templates_built, 1);
}

/// The invariant ablation flips the verdict: without the derived
/// shared-state invariants the block/idle unfolding admits unreachable
/// candidates (e.g. a directory collecting acknowledgments nobody owes)
/// at *every* capacity; re-enabling the strengthening restores the proof
/// in the same session.
#[test]
fn invariant_ablation_flips_the_mesi_verdict() {
    let system = build_fabric_for_sweep(&mesi_mesh(), 3).expect("valid mesh");
    let mut engine = QueryEngine::on(system, 3..=3);
    assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());

    let ablated = engine.check(&Query::new().capacity(3).invariants(false));
    assert!(
        !ablated.is_deadlock_free(),
        "without invariants the shared-state candidates must survive"
    );
    assert_eq!(ablated.analysis().stats.invariants, 0);

    assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
    assert_eq!(engine.stats().templates_built, 1);
}

/// One study answers the MI-vs-MESI comparison on the same fabric: one
/// engine (and therefore one encoding template) per protocol family, each
/// answering its whole sizing search.
#[test]
fn one_study_compares_mi_and_mesi_minimal_capacities() {
    let fabric = FabricConfig::new(Topology::mesh(2, 2).expect("mesh"), 1).with_directory(3);
    for family in [ProtocolKind::AbstractMi, ProtocolKind::Mesi] {
        let mut engine = QueryEngine::for_fabric(&fabric.clone().with_protocol(family), 1..=4)
            .expect("both fabrics build");
        let sizing = engine.minimal_capacity(&Query::new());
        assert_eq!(sizing.minimal_queue_size, Some(3), "{family}");
        // The family answered several probes from its one session.
        let stats = engine.stats();
        assert_eq!(stats.templates_built, 1, "{family}");
        assert!(stats.queries >= 2, "{family}");
        assert!(sizing.is_free_at(3), "{family}");
    }
}

/// Request/response message-class planes remove the cross-class coupling
/// that causes the mesh deadlock: with them MESI is deadlock-free even at
/// capacity 1.
#[test]
fn message_class_planes_drop_the_mesi_threshold_to_one() {
    let config = mesi_mesh().with_message_class_vcs(true);
    let system = build_fabric_for_sweep(&config, 2).expect("valid mesh");
    let mut engine = QueryEngine::on(system, 1..=2);
    let sizing = engine.minimal_capacity(&Query::new());
    assert_eq!(sizing.minimal_queue_size, Some(1));
}

/// The MESI agents ride the other topology families through the same
/// `AgentSpec` contract: the identical sweep proves the ring free at 2
/// and the torus at 3 (dateline escape VCs keep the wraparound links
/// deadlock-free underneath the protocol).
#[test]
fn mesi_rides_ring_and_torus_with_exact_thresholds() {
    let cases = [
        (
            FabricConfig::new(Topology::ring(4).expect("ring"), 1)
                .with_directory(1)
                .with_protocol(ProtocolKind::Mesi),
            Some(2),
        ),
        (
            FabricConfig::new(Topology::torus(2, 2).expect("torus"), 1)
                .with_directory(3)
                .with_protocol(ProtocolKind::Mesi),
            Some(3),
        ),
    ];
    for (config, expected) in cases {
        let name = config.topology.name().to_owned();
        let mut engine = QueryEngine::for_fabric(&config, 1..=4).expect("fabric builds");
        let result = engine.minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, expected, "threshold on {name}");
    }
}

/// Soundness of the derived shared-state invariants: every equality and
/// every harvested bound holds along random trajectories of the MESI
/// mesh, for several directory placements and queue sizes.
#[test]
fn mesi_invariants_hold_on_random_walks() {
    let mut seed = 0xC0FFEEu64;
    for dir in [(0, 0), (1, 1)] {
        for queue_size in [2usize, 3] {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), queue_size)
                .with_directory(dir.1 * 2 + dir.0)
                .with_protocol(ProtocolKind::Mesi);
            let system = build_fabric(&config).unwrap();
            let colors = derive_colors(&system);
            let invariants = derive_invariants(&system, &colors);
            assert!(!invariants.is_empty());
            let report = random_walk(&system, 4_000, seed);
            let state = &report.final_state;
            for invariant in invariants.iter() {
                assert!(
                    invariant.holds(
                        |queue, color| state.queue_count(queue, color) as i128,
                        |node, automaton_state| state.is_in_state(node, automaton_state),
                    ),
                    "violated at dir {dir:?} queue_size {queue_size}"
                );
            }
        }
    }
}

/// The directory automaton's size is what makes MESI the stress test the
/// roadmap asked for: quadratic in the cache count where the MI
/// directories are linear, yet invariant derivation stays well under a
/// second even on a 3×3 mesh.
#[test]
fn mesi_directory_scales_quadratically_and_derives_invariants() {
    let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 1)
        .with_directory(4)
        .with_protocol(ProtocolKind::Mesi);
    let system = build_fabric(&config).expect("3x3 mesh builds");
    let network = system.network();
    let dir_node = network
        .primitive_ids()
        .find(|id| network.name(*id) == "dir(1,1)")
        .expect("directory agent");
    let dir = system.automaton(dir_node).expect("automaton attached");
    assert_eq!(dir.state_count(), Mesi::directory_states(8));
    assert!(dir.state_count() > 200, "shared states multiply the count");

    let colors = derive_colors(&system);
    let invariants = derive_invariants(&system, &colors);
    assert!(
        invariants.num_equalities() >= 30,
        "per-cache conservation families must be derived ({} found)",
        invariants.num_equalities()
    );
}
