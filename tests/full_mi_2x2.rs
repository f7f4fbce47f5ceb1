//! Experiment E7: the GEM5-inspired full MI protocol (Section 5,
//! "MI Protocol") on a 2×2 mesh.
//!
//! The paper reports 14 invariants of varying complexity for the 2×2
//! setting, among them `Σ_c c.MI − d.MI = |acks| − |invs|`, a five-state L2
//! cache, a `4 + n`-state directory and eight message kinds.

use advocat::prelude::*;

fn full_mi_2x2(queue_size: usize) -> System {
    build_fabric(
        &FabricConfig::new(Topology::mesh(2, 2).unwrap(), queue_size)
            .with_directory(3)
            .with_protocol(ProtocolKind::FullMi),
    )
    .expect("full MI 2x2 mesh builds")
}

#[test]
fn protocol_shape_matches_the_paper() {
    let protocol = FullMi::new(4, 3);
    let mut net = Network::new();
    let cache = protocol.cache_agent(&mut net, 0);
    let directory = protocol.directory_agent(&mut net);
    assert_eq!(cache.automaton.state_count(), 5, "five-state L2 cache");
    assert_eq!(
        directory.automaton.state_count(),
        4 + 3,
        "4 + n directory states"
    );
    assert_eq!(FullMi::message_kinds().len(), 8, "eight message kinds");
}

#[test]
fn a_rich_set_of_cross_layer_invariants_is_derived() {
    let system = full_mi_2x2(3);
    let colors = derive_colors(&system);
    let invariants = derive_invariants(&system, &colors);
    // The paper reports 14 invariants for its 2×2 model.  Our automaton
    // equations deliberately skip production equations for transitions that
    // only sometimes emit (see `advocat-invariants`), so the derived basis
    // is smaller; it must still contain several genuine cross-layer
    // equalities (`examples/full_mi` prints the measured count; the
    // benchmark's figures of record are in `perfbench/README.md`).
    assert!(
        invariants.len() >= 6,
        "only {} invariants derived",
        invariants.len()
    );
    let cross_layer = invariants.iter().filter(|inv| {
        let q = inv
            .terms
            .iter()
            .any(|(v, _)| matches!(v, advocat_invariants::InvariantVar::QueueCount { .. }));
        let s = inv
            .terms
            .iter()
            .any(|(v, _)| matches!(v, advocat_invariants::InvariantVar::AutomatonState { .. }));
        q && s
    });
    assert!(cross_layer.count() >= 2);
}

#[test]
fn invariants_hold_on_a_long_random_walk() {
    // The full-MI state space is too large for exhaustive search in a test,
    // so validate the invariants along random trajectories instead.
    let system = full_mi_2x2(3);
    let colors = derive_colors(&system);
    let invariants = derive_invariants(&system, &colors);
    for seed in 0..4u64 {
        let report = random_walk(&system, 3_000, seed);
        let state = &report.final_state;
        for invariant in invariants.iter() {
            assert!(
                invariant.holds(
                    |queue, color| state.queue_count(queue, color) as i128,
                    |node, automaton_state| state.is_in_state(node, automaton_state),
                ),
                "invariant violated after a random walk with seed {seed}"
            );
        }
    }
}

#[test]
fn verification_produces_a_verdict_with_statistics() {
    let system = full_mi_2x2(4);
    let mut engine = QueryEngine::structural(system);
    let report = engine.check(&Query::new());
    let stats = report.analysis().stats;
    assert!(stats.int_vars > 20);
    assert!(stats.bool_vars > 50);
    assert!(engine.invariants().len() >= 6);
    // The verdict itself depends on the exact protocol variant; what matters
    // here is that the pipeline completes and reports either freedom or a
    // concrete candidate (never `Unknown` at this size).
    assert!(!matches!(report.verdict(), Verdict::Unknown));
}
