//! Spec ablation through one `QueryEngine` session: the acceptance tests
//! of the unified Query API.
//!
//! The deadlock *target* (stuck packet vs. dead automaton) used to be
//! frozen at session construction, so a spec-ablation study paid a full
//! re-encode per spec.  With the Query API the target is an assumption
//! literal in the same persistent session: one engine answers a capacity
//! sweep under *both* targets with no re-encode between target flips, and
//! the second target's sweep rides on everything the solver learnt during
//! the first.

use advocat::prelude::*;

const SWEEP: std::ops::RangeInclusive<usize> = 1..=4;

fn mesh_config() -> FabricConfig {
    FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1)
        .with_directory(3)
        .with_protocol(ProtocolKind::AbstractMi)
}

fn sweep_engine() -> QueryEngine {
    let system = build_fabric_for_sweep(&mesh_config(), *SWEEP.end()).expect("valid mesh");
    QueryEngine::on(system, SWEEP)
}

/// Sweeps every capacity under one target, returning the verdicts.
fn sweep(engine: &mut QueryEngine, target: DeadlockTarget) -> Vec<bool> {
    SWEEP
        .map(|capacity| {
            engine
                .check(&Query::new().capacity(capacity).target(target))
                .is_deadlock_free()
        })
        .collect()
}

/// One session answers the capacity sweep under both deadlock targets:
/// the template is built once (no re-encode on the target flip), and the
/// second target's sweep costs strictly fewer SAT conflicts than a cold
/// session asking only that target — the learnt state carries across the
/// flip.
#[test]
fn one_session_answers_both_targets_cheaper_than_two_cold_sessions() {
    let mut shared = sweep_engine();
    let stuck_verdicts = sweep(&mut shared, DeadlockTarget::StuckPacket);
    let after_first = shared.stats();
    let dead_verdicts = sweep(&mut shared, DeadlockTarget::DeadAutomaton);
    let total = shared.stats();

    // No re-encode anywhere: one template served both targets.
    assert_eq!(total.templates_built, 1);
    assert_eq!(total.queries, 2 * (SWEEP.end() - SWEEP.start() + 1) as u64);

    // Cold baselines: a fresh session per target.
    let mut cold_stuck_engine = sweep_engine();
    let cold_stuck_verdicts = sweep(&mut cold_stuck_engine, DeadlockTarget::StuckPacket);
    let mut cold_dead_engine = sweep_engine();
    let cold_dead_verdicts = sweep(&mut cold_dead_engine, DeadlockTarget::DeadAutomaton);

    // Verdicts agree with the cold sessions at every capacity.
    assert_eq!(stuck_verdicts, cold_stuck_verdicts);
    assert_eq!(dead_verdicts, cold_dead_verdicts);

    // The second target's sweep reuses the first's learnt state: its
    // conflicts stay strictly below the cold session answering only it.
    let second_sweep_conflicts = total.sat_conflicts - after_first.sat_conflicts;
    let cold_dead_conflicts = cold_dead_engine.stats().sat_conflicts;
    assert!(
        second_sweep_conflicts < cold_dead_conflicts,
        "target flip re-learnt from scratch: {second_sweep_conflicts} conflicts vs \
         {cold_dead_conflicts} cold"
    );

    // And the whole two-target study costs strictly fewer conflicts than
    // the two cold sessions together.
    let cold_total_conflicts = cold_stuck_engine.stats().sat_conflicts + cold_dead_conflicts;
    assert!(
        total.sat_conflicts < cold_total_conflicts,
        "shared session spent {} conflicts, two cold sessions {}",
        total.sat_conflicts,
        cold_total_conflicts
    );
}

/// Flipping the target flips only the expected verdicts: on the 2×2 MI
/// mesh both formulations find the small-capacity deadlock and both prove
/// freedom at capacity 3 — and each counterexample is attributed to the
/// target that asked for it.
#[test]
fn flipping_the_target_flips_only_the_expected_verdicts() {
    let mut engine = sweep_engine();
    for capacity in SWEEP {
        let any = engine.check(&Query::new().capacity(capacity));
        let stuck = engine.check(
            &Query::new()
                .capacity(capacity)
                .target(DeadlockTarget::StuckPacket),
        );
        let dead = engine.check(
            &Query::new()
                .capacity(capacity)
                .target(DeadlockTarget::DeadAutomaton),
        );
        // `Any` is the disjunction: it deadlocks iff either symptom does.
        assert_eq!(
            any.is_deadlock_free(),
            stuck.is_deadlock_free() && dead.is_deadlock_free(),
            "capacity {capacity}: Any must be the union of the two targets"
        );
        // On this case study the two formulations coincide: the threshold
        // is 3 under either target (sizes 1 and 2 deadlock both ways).
        let expect_free = capacity >= 3;
        assert_eq!(stuck.is_deadlock_free(), expect_free, "stuck @ {capacity}");
        assert_eq!(dead.is_deadlock_free(), expect_free, "dead @ {capacity}");

        // Attribution: each target's counterexample witnesses that target.
        if let Some(cex) = stuck.counterexample() {
            assert!(cex.witnesses(DeadlockTarget::StuckPacket));
        }
        if let Some(cex) = dead.counterexample() {
            assert!(cex.witnesses(DeadlockTarget::DeadAutomaton));
            assert!(!cex.dead_automata.is_empty());
        }
    }
    assert_eq!(engine.stats().templates_built, 1);
}

/// The invariant ablation is the third query dimension of the same
/// session: retracting the strengthening surfaces the Section-3 false
/// candidates, re-enabling it restores the proof — no re-encode either
/// way.
#[test]
fn invariant_ablation_round_trips_in_one_session() {
    let mut engine = sweep_engine();
    assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
    let ablated = engine.check(&Query::new().capacity(3).invariants(false));
    assert!(
        !ablated.is_deadlock_free(),
        "without invariants the block/idle unfolding must admit candidates"
    );
    assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
    assert_eq!(engine.stats().templates_built, 1);
}
