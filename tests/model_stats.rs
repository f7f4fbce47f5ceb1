//! Experiment E6: model-size statistics and scalability shape.
//!
//! The paper reports, for a 6×6 mesh with virtual channels, 2844 xMAS
//! primitives, 36 automata and 432 queues, and that verification time does
//! not depend on the queue size.  Building a 6×6 fabric is cheap (only
//! verification is expensive), so we check the growth of the generated
//! model directly and the queue-size independence of the *encoding* size.

use advocat::prelude::*;

#[test]
fn six_by_six_mesh_with_vcs_has_thousands_of_primitives() {
    let config = FabricConfig::new(Topology::mesh(6, 6).unwrap(), 30)
        .with_directory(21)
        .with_protocol(ProtocolKind::AbstractMi)
        .with_message_class_vcs(true);
    let system = build_fabric(&config).expect("6x6 mesh builds");
    system.validate().expect("6x6 mesh validates");
    let stats = system.stats();
    assert_eq!(stats.automata, 36);
    // 60 bidirectional mesh links → 120 directed link queues per plane,
    // twice for the two virtual-channel planes.
    assert_eq!(stats.queues, 120 * 2);
    assert!(
        stats.primitives > 1_000,
        "expected a fabric of the paper's order of magnitude, got {}",
        stats.primitives
    );
}

#[test]
fn model_size_grows_with_the_mesh_but_not_with_queue_size() {
    let base = |w, h, qs| {
        let config = FabricConfig::new(Topology::mesh(w, h).unwrap(), qs).with_directory(0);
        build_fabric(&config).unwrap().stats()
    };
    let small = base(2, 2, 4);
    let medium = base(3, 3, 4);
    let large = base(4, 4, 4);
    assert!(small.primitives < medium.primitives);
    assert!(medium.primitives < large.primitives);

    // Queue size affects capacities, not the structure.
    let shallow = base(3, 3, 2);
    let deep = base(3, 3, 40);
    assert_eq!(shallow.primitives, deep.primitives);
    assert_eq!(shallow.queues, deep.queues);
    assert_eq!(shallow.channels, deep.channels);
}

#[test]
fn encoding_size_is_independent_of_queue_size() {
    // The number of SMT variables depends on the structure and the colors,
    // not on the queue capacity (capacities only change variable bounds) —
    // this is the structural core of the paper's observation that its
    // verification time does not depend on the queue size.
    let analyze = |qs| {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), qs).with_directory(3);
        let system = build_fabric(&config).unwrap();
        let mut engine = QueryEngine::structural(system);
        let stats = engine.check(&Query::new()).analysis().stats;
        (
            stats.int_vars,
            stats.bool_vars,
            stats.sat_variables,
            engine.invariants().len(),
        )
    };
    assert_eq!(analyze(3), analyze(12));
}

#[test]
fn verification_cost_grows_with_the_mesh() {
    // Shape only: a 3×3 mesh takes more SAT propagations and more atoms
    // implied by the theory than a 2×2 mesh at the same queue size.  The
    // counts are the solver's work: refinements count only the lemmas the
    // theory could not imply ahead of time, and the one-column step to a
    // 3×2 mesh can take fewer of them (and fewer propagations) than 2×2.
    let effort = |w, h| {
        let config = FabricConfig::new(Topology::mesh(w, h).unwrap(), 3).with_directory(0);
        let system = build_fabric(&config).unwrap();
        let report = QueryEngine::structural(system).check(&Query::new());
        let stats = &report.analysis().stats;
        (stats.sat_propagations, stats.theory_propagations)
    };
    let small = effort(2, 2);
    let larger = effort(3, 3);
    assert!(
        larger.0 > small.0 && larger.1 > small.1,
        "expected more propagations and implied atoms for the larger mesh \
         ({larger:?} vs {small:?})"
    );
}
