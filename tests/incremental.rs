//! End-to-end coverage of the incremental verification path: the
//! assumption-based SAT solver, the engine/template pipeline, and the
//! headline claim — one engine's queue-size sweep spends strictly less
//! SAT effort than independent cold verifications.
//!
//! Verdicts are cross-checked against `verify_system`, the cold
//! fixed-capacity path that shares no solver state with the engine; the
//! last two tests pin what one warm `QueryEngine` may and may not carry
//! from one answer into the next.

use advocat::deadlock::Counterexample;
use advocat::explorer::XorShift64;
use advocat::logic::sat::{Lit, SatSolver, Var};
use advocat::prelude::*;

/// `solve_with_assumptions` agrees with a cold solve (assumptions added as
/// unit clauses to a fresh solver) on random 3-SAT instances, and its
/// models satisfy every clause and assumption.
#[test]
fn assumption_solving_agrees_with_cold_solving_on_random_3sat() {
    let mut gen = XorShift64::new(0x3547);
    for instance in 0..150 {
        let num_vars = 8usize;
        let num_clauses = 24 + (instance % 12) as usize;
        let clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = gen.below(num_vars as u64) as Var;
                        Lit::new(v, gen.below(2) == 0)
                    })
                    .collect()
            })
            .collect();
        let num_assumptions = gen.below(4) as usize;
        let assumptions: Vec<Lit> = (0..num_assumptions)
            .map(|_| {
                let v = gen.below(num_vars as u64) as Var;
                Lit::new(v, gen.below(2) == 0)
            })
            .collect();

        // Incremental: one solver, clauses once, assumptions per query.
        let mut incremental = SatSolver::new();
        for _ in 0..num_vars {
            incremental.new_var();
        }
        for clause in &clauses {
            incremental.add_clause(clause);
        }
        let incremental_result = incremental.solve_with_assumptions(&assumptions);

        // Cold: fresh solver with the assumptions baked in as unit clauses.
        let mut cold = SatSolver::new();
        for _ in 0..num_vars {
            cold.new_var();
        }
        for clause in &clauses {
            cold.add_clause(clause);
        }
        for &lit in &assumptions {
            cold.add_clause(&[lit]);
        }
        let cold_result = cold.solve();

        assert_eq!(
            incremental_result.is_ok(),
            cold_result.is_ok(),
            "instance {instance}: incremental and cold solves disagree"
        );
        if let Ok(model) = incremental_result {
            for clause in &clauses {
                assert!(
                    clause.iter().any(|l| model[l.var()] == l.is_positive()),
                    "instance {instance}: model violates clause {clause:?}"
                );
            }
            for lit in &assumptions {
                assert_eq!(
                    model[lit.var()],
                    lit.is_positive(),
                    "instance {instance}: model violates assumption {lit:?}"
                );
            }
        }
        // The incremental solver remains usable after the query.
        let unconstrained = incremental.solve_with_assumptions(&[]);
        assert_eq!(unconstrained.is_ok(), {
            let mut fresh = SatSolver::new();
            for _ in 0..num_vars {
                fresh.new_var();
            }
            for clause in &clauses {
                fresh.add_clause(clause);
            }
            fresh.solve().is_ok()
        });
    }
}

/// The independent per-size cold path, for comparison: rebuild the mesh
/// and run the fixed-capacity pipeline at one queue size.
fn cold_verdict(config: &FabricConfig, queue_size: usize) -> bool {
    let system = build_fabric(&config.clone().with_queue_size(queue_size)).unwrap();
    verify_system(&system, DeadlockTarget::Any)
        .verdict
        .is_deadlock_free()
}

/// Regression: the engine's `minimal_capacity` returns the same
/// `(size, free)` verdict for every probed size as the cold per-size path,
/// and the same minimal size as a cold linear scan.
#[test]
fn session_sizing_matches_the_cold_per_size_path_on_the_2x2_mesh() {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let sizes = 1..=6usize;
    let system = build_fabric_for_sweep(&config, *sizes.end()).unwrap();
    let result = QueryEngine::with_config(system, CheckConfig::default(), sizes.clone())
        .minimal_capacity(&Query::new());

    assert!(!result.evaluations.is_empty());
    for &(size, free) in &result.evaluations {
        assert_eq!(
            free,
            cold_verdict(&config, size),
            "session and cold verdicts disagree at queue size {size}"
        );
    }

    let cold_minimal = sizes.clone().find(|&size| cold_verdict(&config, size));
    assert_eq!(result.minimal_queue_size, cold_minimal);
}

/// The acceptance criterion of the incremental refactor: sweeping sizes
/// 1..=16 on the 2×2 directory mesh through one `QueryEngine` costs
/// strictly fewer SAT conflicts + propagations than sixteen independent
/// cold engines, each answering one structural query.
#[test]
fn session_sweep_beats_sixteen_cold_analyzes_on_sat_effort() {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);

    let mut cold_effort = 0u64;
    let mut cold_verdicts = Vec::new();
    for size in 1..=16usize {
        let system = build_fabric(&config.clone().with_queue_size(size)).unwrap();
        let report = QueryEngine::structural(system).check(&Query::new());
        let stats = report.analysis().stats;
        cold_effort += stats.sat_conflicts + stats.sat_propagations;
        cold_verdicts.push(report.is_deadlock_free());
    }

    let system = build_fabric_for_sweep(&config, 16).unwrap();
    let mut session = QueryEngine::on(system, 1..=16);
    let mut session_verdicts = Vec::new();
    for size in 1..=16usize {
        session_verdicts.push(
            session
                .check(&Query::new().capacity(size))
                .is_deadlock_free(),
        );
    }

    assert_eq!(session_verdicts, cold_verdicts, "verdicts must not change");
    let session_effort = session.stats().sat_effort();
    assert!(
        session_effort < cold_effort,
        "session effort {session_effort} is not below cold effort {cold_effort}"
    );
}

/// Clause deletion keeps a long sweep's per-query SAT cost bounded.  Sizes
/// 1..=32 on the 2×2 directory mesh, checked with clause deletion enabled
/// (reductions forced early so the small workload exercises them) and with
/// the learnt database unbounded:
///
/// * both configurations agree on every verdict;
/// * the bounded session performs reductions and its live learnt-clause
///   count stays strictly below the monotone total;
/// * the bounded session's late queries (sizes 17..=32) cost on average no
///   more than its early ones (sizes 3..=16, past the two deadlocking
///   sizes) times a small slack.  With the theory checked at every
///   propagation fixpoint the unbounded solver's late queries do not climb
///   either (late/early SAT effort 0.99×, against 0.84× bounded), so this
///   bound alone does not separate the two configurations;
/// * the bounded tail is strictly cheaper than the unbounded tail.
#[test]
fn long_sweep_keeps_per_query_cost_bounded_with_clause_deletion() {
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let sweep = |solver: SolverConfig| {
        let system = build_fabric_for_sweep(&mesh, 32).unwrap();
        let config = CheckConfig {
            solver,
            ..CheckConfig::default()
        };
        let mut session = QueryEngine::with_config(system, config, 1..=32);
        let mut verdicts = Vec::new();
        let mut efforts = Vec::new();
        for size in 1..=32usize {
            let report = session.check(&Query::new().capacity(size));
            verdicts.push(report.is_deadlock_free());
            efforts.push(report.analysis().stats.sat_effort());
        }
        (verdicts, efforts, session.stats())
    };

    let bounded_cfg = SolverConfig {
        first_reduce: 20,
        reduce_interval: 20,
        keep_lbd: 1,
        ..SolverConfig::default()
    };
    let unbounded_cfg = SolverConfig {
        clause_reduction: false,
        ..SolverConfig::default()
    };
    let (bounded_verdicts, bounded_efforts, bounded_stats) = sweep(bounded_cfg);
    let (unbounded_verdicts, unbounded_efforts, unbounded_stats) = sweep(unbounded_cfg);

    assert_eq!(bounded_verdicts, unbounded_verdicts, "verdicts must agree");
    assert!(!bounded_verdicts[1], "size 2 must deadlock");
    assert!(bounded_verdicts[2], "size 3 must be free");

    assert!(
        bounded_stats.reduced_dbs > 0,
        "no reduction fired: {bounded_stats:?}"
    );
    assert!(
        bounded_stats.live_learnts < bounded_stats.total_learnt,
        "nothing was ever deleted from the learnt database: {bounded_stats:?}"
    );
    assert_eq!(unbounded_stats.deleted_clauses, 0);

    let avg = |slice: &[u64]| slice.iter().sum::<u64>() / slice.len() as u64;
    let bounded_early = avg(&bounded_efforts[2..16]);
    let bounded_late = avg(&bounded_efforts[16..]);
    assert!(
        bounded_late <= bounded_early.saturating_mul(3) / 2,
        "per-query cost still grows with the session: early avg {bounded_early}, \
         late avg {bounded_late}"
    );
    let unbounded_late = avg(&unbounded_efforts[16..]);
    assert!(
        bounded_late < unbounded_late,
        "bounded tail {bounded_late} is not cheaper than unbounded tail {unbounded_late}"
    );
}

/// Lemmas keep to the current query's capacity pins.  Sizes 1..=32 on the
/// 2×2 directory mesh through one engine: every late query (sizes
/// 17..=32) takes a handful of refinements (3–5 with any explanation
/// order measured so far; 1 today, since the bounds imply the atoms those
/// lemmas used to refute).  Lemmas that pin the capacity atoms of
/// earlier queries are permanent and no later query can use them; when
/// only complete assignments were checked, reasons taken oldest first
/// did that, and the late queries climbed to about 35 refinements each.
#[test]
fn stale_capacity_pins_stay_out_of_lemmas() {
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let system = build_fabric_for_sweep(&mesh, 32).unwrap();
    let mut session = QueryEngine::on(system, 1..=32);
    let refinements: Vec<u64> = (1..=32usize)
        .map(|size| {
            let report = session.check(&Query::new().capacity(size));
            report.analysis().stats.refinements
        })
        .collect();
    assert!(
        refinements[16..].iter().all(|&r| r <= 10),
        "late queries take too many refinements: {refinements:?}"
    );
}

/// The session statistics the sweep assertion relies on are actually
/// populated per query.
#[test]
fn session_accumulates_per_query_stats() {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    let system = build_fabric_for_sweep(&config, 3).unwrap();
    let mut session = QueryEngine::on(system, 2..=3);
    let report = session.check(&Query::new().capacity(2));
    assert!(report.analysis().stats.sat_propagations > 0);
    let after_one = session.stats();
    assert_eq!(after_one.queries, 1);
    assert!(after_one.sat_effort() > 0);
    let _ = session.check(&Query::new().capacity(3));
    let after_two = session.stats();
    assert_eq!(after_two.queries, 2);
    assert!(after_two.sat_effort() >= after_one.sat_effort());
    assert!(after_two.query_elapsed >= after_one.query_elapsed);
}

/// The 2×2 mesh with the directory at node 3 on a warm engine spanning
/// capacities 1..=4; its pinned minimal capacity is 3.
fn warm_mesh_engine() -> QueryEngine {
    let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
    QueryEngine::for_fabric(&config, 1..=4).expect("fabric builds")
}

/// A satisfiable answer leaves nothing behind in the warm engine's
/// encoding: asking the same deadlocking question three times reports the
/// same number of linear atoms every time.
#[test]
fn repeated_candidate_answers_leave_the_encoding_unchanged() {
    let mut engine = warm_mesh_engine();
    let atoms: Vec<usize> = (0..3)
        .map(|_| {
            let report = engine.check(&Query::new().capacity(1));
            assert!(report.counterexample().is_some(), "capacity 1 deadlocks");
            report.analysis().stats.linear_atoms
        })
        .collect();
    assert!(
        atoms.iter().all(|&n| n == atoms[0]),
        "linear atoms per answer: {atoms:?}"
    );
}

/// Re-asking a warm engine every capacity out of order after a sweep
/// changes no verdict and builds no second template.  Witness bytes are
/// not compared: a warm engine may return a different valid model the
/// second time.  Every candidate must still witness the target it answers.
#[test]
fn re_asking_a_warm_engine_out_of_order_keeps_every_verdict() {
    let mut engine = warm_mesh_engine();
    let mut ask = |cap: usize| {
        let query = Query::new().capacity(cap);
        let report = engine.check(&query);
        if let Some(cex) = report.counterexample() {
            assert!(
                cex.witnesses(query.deadlock_target()),
                "capacity {cap}: candidate witnesses {:?}",
                cex.witnessed
            );
        }
        std::mem::discriminant(report.verdict())
    };
    let sweep: Vec<_> = (1..=4).map(&mut ask).collect();
    let free = std::mem::discriminant(&Verdict::DeadlockFree);
    let candidate = std::mem::discriminant(&Verdict::PotentialDeadlock(Counterexample::default()));
    assert_eq!(
        sweep,
        [candidate, candidate, free, free],
        "pinned threshold 3"
    );
    for cap in [3, 1, 4, 2, 2, 4, 1, 3] {
        assert_eq!(ask(cap), sweep[cap - 1], "capacity {cap} re-asked");
    }
    assert_eq!(engine.stats().templates_built, 1);
}

/// Asking a warm engine again leaves nothing behind: every query
/// dimension is an assumption over interned atoms, so a question asked
/// 200 times keeps the SAT variable and linear atom counts it had after
/// its first answer, and a round-robin over the range's capacities keeps
/// those it had after its first round.  Per-query solver scopes grew the
/// 2×2 directory mesh by 9 SAT variables per query (one activation
/// literal and one `cap(q) = k` definition per pinned queue).
#[test]
fn a_warm_engine_stops_growing_once_every_capacity_was_asked() {
    let mut engine = warm_mesh_engine();
    let mut ask = |cap: usize| {
        let report = engine.check(&Query::new().capacity(cap));
        assert_eq!(report.is_deadlock_free(), cap >= 3, "capacity {cap}");
        let stats = report.analysis().stats;
        (stats.sat_variables, stats.linear_atoms)
    };
    let first = ask(3);
    for i in 1..200 {
        assert_eq!(ask(3), first, "re-ask {i}");
    }
    let sizes: Vec<(usize, usize)> = (0..10).flat_map(|_| 1..=4).map(&mut ask).collect();
    let (first_round, later_rounds) = sizes.split_at(4);
    assert!(
        later_rounds.iter().all(|&later| later == first_round[3]),
        "(SAT variables, linear atoms) per query: {sizes:?}"
    );
}
