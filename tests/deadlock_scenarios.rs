//! Additional deadlock-analysis scenarios beyond the paper's case study:
//! hand-built xMAS fabrics exercising forks, functions, merges, dead sinks
//! and directory placement, used to probe the soundness boundary of the
//! analysis (deadlock-free verdicts must agree with exhaustive
//! exploration).

use advocat::prelude::*;
use std::collections::BTreeMap;

/// A fork that duplicates credits into two queues drained by fair sinks is
/// live; replacing one sink with a dead sink wedges the fork and therefore
/// the whole pipeline.
#[test]
fn fork_with_one_dead_branch_deadlocks() {
    let build = |second_sink_fair: bool| {
        let mut net = Network::new();
        let c = net.intern(Packet::kind("credit"));
        let src = net.add_source("src", vec![c]);
        let fork = net.add_fork("fork");
        let qa = net.add_queue("qa", 2);
        let qb = net.add_queue("qb", 2);
        let sa = net.add_sink("sink_a");
        let sb = if second_sink_fair {
            net.add_sink("sink_b")
        } else {
            net.add_dead_sink("sink_b")
        };
        net.connect(src, 0, fork, 0);
        net.connect(fork, 0, qa, 0);
        net.connect(fork, 1, qb, 0);
        net.connect(qa, 0, sa, 0);
        net.connect(qb, 0, sb, 0);
        System::new(net)
    };

    let live = QueryEngine::structural(build(true)).check(&Query::new());
    assert!(live.is_deadlock_free());

    let wedged = QueryEngine::structural(build(false)).check(&Query::new());
    assert!(!wedged.is_deadlock_free());
    // The explorer agrees: the dead branch's queue fills and everything
    // behind the fork stops.
    let exploration = explore(&build(false), &ExplorerConfig::default());
    assert!(!exploration.deadlocks.is_empty());
}

/// A function primitive that rewrites requests into responses keeps the
/// pipeline live; routing the rewritten color into a dead branch of a
/// switch does not.
#[test]
fn switch_routes_decide_liveness() {
    let build = |to_dead: bool| {
        let mut net = Network::new();
        let req = net.intern(Packet::kind("req"));
        let rsp = net.intern(Packet::kind("rsp"));
        let src = net.add_source("src", vec![req]);
        let mut map = BTreeMap::new();
        map.insert(req, rsp);
        let f = net.add_function("rewrite", map);
        let mut routes = BTreeMap::new();
        routes.insert(rsp, usize::from(to_dead));
        let sw = net.add_switch("route", routes, 2, 0);
        let q_live = net.add_queue("q_live", 2);
        let q_dead = net.add_queue("q_dead", 2);
        let live_sink = net.add_sink("live");
        let dead_sink = net.add_dead_sink("dead");
        net.connect(src, 0, f, 0);
        net.connect(f, 0, sw, 0);
        net.connect(sw, 0, q_live, 0);
        net.connect(sw, 1, q_dead, 0);
        net.connect(q_live, 0, live_sink, 0);
        net.connect(q_dead, 0, dead_sink, 0);
        System::new(net)
    };
    assert!(QueryEngine::structural(build(false))
        .check(&Query::new())
        .is_deadlock_free());
    assert!(!QueryEngine::structural(build(true))
        .check(&Query::new())
        .is_deadlock_free());
}

/// Every directory position of the 2×2 mesh behaves identically by
/// symmetry: deadlock at queue size 2, freedom at 3.
#[test]
fn directory_position_symmetry_on_the_2x2_mesh() {
    for (x, y) in [(0usize, 0usize), (1, 0), (0, 1), (1, 1)] {
        let at = |qs| {
            let system = build_fabric(
                &FabricConfig::new(Topology::mesh(2, 2).unwrap(), qs)
                    .with_directory(y * 2 + x)
                    .with_protocol(ProtocolKind::AbstractMi),
            )
            .expect("valid mesh");
            QueryEngine::structural(system)
                .check(&Query::new())
                .is_deadlock_free()
        };
        assert!(!at(2), "directory at ({x},{y}) must deadlock at size 2");
        assert!(at(3), "directory at ({x},{y}) must be free at size 3");
    }
}

/// The virtual-channel fabric of the 2×2 mesh is also proven deadlock-free
/// at the same queue size, and its verdict agrees with the explorer.
#[test]
fn virtual_channel_fabric_is_deadlock_free_at_size_three() {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3)
        .with_directory(3)
        .with_message_class_vcs(true);
    let system = build_fabric(&config).expect("valid mesh");
    let report = QueryEngine::structural(system.clone()).check(&Query::new());
    assert!(report.is_deadlock_free());
    // Spot-check with random walks (the VC state space is larger, so no
    // exhaustive search here): no walk may get stuck.
    for seed in 0..3u64 {
        assert!(!random_walk(&system, 5_000, seed).deadlocked());
    }
}

/// Disabling the dead-automaton target still finds the Fig. 3 deadlock via
/// the stuck-packet target, and vice versa — the two formulations overlap
/// on this case study.
#[test]
fn both_deadlock_targets_catch_the_fig3_deadlock() {
    let system =
        build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3))
            .expect("valid mesh");
    // One engine, both spec ablations: each target finds the deadlock on
    // its own, and each counterexample is attributed to its own target.
    let mut engine = QueryEngine::structural(system);
    let stuck = engine.check(&Query::new().target(DeadlockTarget::StuckPacket));
    let cex = stuck.counterexample().expect("stuck-packet candidate");
    assert!(cex.witnesses(DeadlockTarget::StuckPacket));
    let dead = engine.check(&Query::new().target(DeadlockTarget::DeadAutomaton));
    let cex = dead.counterexample().expect("dead-automaton candidate");
    assert!(cex.witnesses(DeadlockTarget::DeadAutomaton));
    assert_eq!(engine.stats().templates_built, 1);
}

/// The counterexample of the Fig. 3 deadlock is internally consistent: the
/// reported queue contents respect every queue's capacity and only mention
/// packets that the color analysis allows in those queues.
#[test]
fn counterexamples_respect_structural_bounds() {
    let system =
        build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3))
            .expect("valid mesh");
    let report = QueryEngine::structural(system.clone()).check(&Query::new());
    let cex = report.counterexample().expect("size 2 deadlocks");
    let net = system.network();
    for (queue_name, _packet, count) in &cex.queue_contents {
        assert!(*count >= 1);
        let queue = net
            .primitive_ids()
            .find(|id| net.name(*id) == queue_name)
            .expect("counterexample names an existing queue");
        let total: i64 = cex
            .queue_contents
            .iter()
            .filter(|(name, _, _)| name == queue_name)
            .map(|(_, _, n)| *n)
            .sum();
        match net.primitive(queue) {
            advocat::xmas::Primitive::Queue { size, .. } => {
                assert!(total <= *size as i64, "queue {queue_name} over capacity");
            }
            _ => panic!("{queue_name} is not a queue"),
        }
    }
}

/// The invariant ablation of the 3×3 AbstractMi mesh, asked as the
/// sizing study asks it: after every capacity below the threshold, the
/// threshold without invariants.  Interval conflicts are cut off at
/// partial assignments, so a complete assignment the search reaches is
/// interval-consistent and only branch & bound can refute it: a lemma
/// that blocked such an assignment whole, instead of by the constraints
/// that refuted it, would rule out one assignment per refinement.
#[test]
fn the_3x3_invariant_ablation_finds_its_candidate_in_few_refinements() {
    let fabric = FabricConfig::new(Topology::mesh(3, 3).expect("valid mesh"), 5)
        .with_protocol(ProtocolKind::AbstractMi)
        .with_directory(4);
    let mut engine =
        QueryEngine::for_fabric_with(&fabric, CheckConfig::default(), 1..=6).expect("valid fabric");
    for capacity in 1..5 {
        let report = engine.check(&Query::new().capacity(capacity));
        assert!(!report.is_deadlock_free(), "capacity {capacity}");
    }
    let ablation = engine.check(&Query::new().capacity(5).invariants(false));
    assert!(
        ablation.counterexample().is_some(),
        "{:?}",
        ablation.verdict()
    );
    let refinements = ablation.analysis().stats.refinements;
    assert!(refinements <= 50, "{refinements} refinements");
}
