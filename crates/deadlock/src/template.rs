//! Reusable, query-parameterised deadlock encodings.
//!
//! ADVOCAT's central claim is that one SMT encoding of a fabric answers
//! many questions.  The one-shot path ([`crate::verify_with`]) builds the
//! full instance for one question and checks a fresh solver once; an
//! [`EncodingTemplate`] instead builds the structure-dependent part of the
//! encoding **once** — automata, channels, block/idle definitions, the
//! derived invariants and the goal definitions, none of which pin a
//! concrete question — and poses every dimension of a [`Query`] as an
//! assumption to one long-lived solver, so a query asserts nothing:
//!
//! * every queue gets a bounded *capacity variable* `cap(q)`; a query pins
//!   the capacities (uniformly or to the structural sizes) by assuming
//!   `cap(q) ≤ k` and `cap(q) ≥ k`, exactly as a sizing sweep needs.  The
//!   solver interns those atoms, so asking a capacity again allocates
//!   nothing and a warm template stops growing once every capacity of its
//!   range has been asked;
//! * the stuck-packet and dead-automaton goals are **defined** by
//!   indicator variables (`goal(...) ⟺ ...`) but never asserted; a query
//!   selects its [`DeadlockTarget`] by *assuming* the matching indicator,
//!   so flipping the target between queries re-encodes nothing;
//! * the invariant-strengthening equations are guarded by a
//!   `sel(invariants)` selector assumed true or false per query, making
//!   the Section-3 ablation one more dimension of the same session.
//!
//! Because the solver lives as long as the template, learnt clauses,
//! variable activities and theory lemmas accumulate across queries: a
//! capacity sweep under one target makes the same sweep under the *other*
//! target markedly cheaper than a fresh template.

use std::ops::RangeInclusive;
use std::time::Instant;

use advocat_automata::System;
use advocat_invariants::InvariantSet;
use advocat_logic::sat::SatStats;
use advocat_logic::{CheckConfig, Formula, IntVar, LinExpr, SmtSolver};
use advocat_xmas::{ColorMap, Primitive};

use crate::encode::{build_encoding_symbolic, Encoding, EncodingVars};
use crate::query::{CapacitySelection, Query};
use crate::verify::{analysis_from_result, Analysis, CexLabels};

/// The structural size of one queue (0 for non-queue primitives).
fn structural_queue_size(
    network: &advocat_xmas::Network,
    queue: advocat_xmas::PrimitiveId,
) -> usize {
    match network.primitive(queue) {
        Primitive::Queue { size, .. } => *size,
        _ => 0,
    }
}

/// The inclusive range covering every queue's structural size, or `None`
/// for a queue-less system.  This is the capacity range a template must
/// span to answer [`CapacitySelection::Structural`] queries about the
/// system as built.
pub fn structural_capacity_range(system: &System) -> Option<RangeInclusive<usize>> {
    let network = system.network();
    network
        .queue_ids()
        .map(|q| structural_queue_size(network, q))
        .fold(None, |acc: Option<(usize, usize)>, size| {
            Some(match acc {
                None => (size, size),
                Some((lo, hi)) => (lo.min(size), hi.max(size)),
            })
        })
        .map(|(lo, hi)| lo..=hi)
}

/// A query-parameterised deadlock encoding bound to one long-lived solver,
/// answering any [`Query`] — capacity × target × invariants — whose
/// capacities lie in its range.
///
/// # Examples
///
/// ```
/// use advocat_automata::derive_colors;
/// use advocat_deadlock::{DeadlockTarget, EncodingTemplate, Query};
/// use advocat_invariants::derive_invariants;
/// use advocat_noc::{build_fabric, FabricConfig, Topology};
///
/// let system = build_fabric(&FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3))?;
/// let colors = derive_colors(&system);
/// let invariants = derive_invariants(&system, &colors);
/// let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=4);
/// let config = Default::default();
/// // One session, many questions: capacities, targets, ablations.
/// assert!(!template.check(&Query::new().capacity(2), &config).verdict.is_deadlock_free());
/// assert!(template.check(&Query::new().capacity(3), &config).verdict.is_deadlock_free());
/// let stuck = Query::new().capacity(3).target(DeadlockTarget::StuckPacket);
/// assert!(template.check(&stuck, &config).verdict.is_deadlock_free());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EncodingTemplate {
    smt: SmtSolver,
    vars: EncodingVars,
    labels: CexLabels,
    invariants: usize,
    capacities: RangeInclusive<usize>,
    /// `(capacity var, structural queue size)` pairs, sorted by variable,
    /// for answering [`CapacitySelection::Structural`] queries.
    structural: Vec<(IntVar, i64)>,
}

impl EncodingTemplate {
    /// Builds the structure-dependent encoding once for every capacity in
    /// `capacities`, with no question baked in: the deadlock target and
    /// the invariant strengthening are selected per [`Query`].
    ///
    /// `colors` must be the `T`-derivation of `system` and `invariants`
    /// derived for the same color map; neither depends on queue capacities
    /// or on the deadlock target, which is what makes the template sound
    /// for every query.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty.
    pub fn build(
        system: &System,
        colors: &ColorMap,
        invariants: &InvariantSet,
        capacities: RangeInclusive<usize>,
    ) -> Self {
        assert!(
            capacities.start() <= capacities.end(),
            "capacity range must be non-empty"
        );
        let Encoding { smt, vars } = build_encoding_symbolic(
            system,
            colors,
            invariants,
            *capacities.start() as i64,
            *capacities.end() as i64,
        );
        let labels = CexLabels::new(system, &vars);
        let network = system.network();
        let mut structural: Vec<(IntVar, i64)> = vars
            .capacity
            .iter()
            .map(|(queue, var)| (*var, structural_queue_size(network, *queue) as i64))
            .collect();
        structural.sort();
        EncodingTemplate {
            smt,
            vars,
            labels,
            invariants: invariants.len(),
            capacities,
            structural,
        }
    }

    /// The capacity range the template was built for.
    pub fn capacity_range(&self) -> RangeInclusive<usize> {
        self.capacities.clone()
    }

    /// Decides one [`Query`], reusing everything the solver learnt in
    /// earlier queries regardless of which capacities, targets or
    /// invariant settings those asked about.
    ///
    /// Every dimension is an assumption: the capacity pins `cap(q) ≤ k` and
    /// `cap(q) ≥ k` in structural order, then the goal indicator, then
    /// `sel(invariants)` or its negation.  Nothing is asserted or
    /// re-encoded when they change between queries.
    ///
    /// # Panics
    ///
    /// Panics when the query pins a capacity (uniform or structural)
    /// outside [`EncodingTemplate::capacity_range`].
    pub fn check(&mut self, query: &Query, config: &CheckConfig) -> Analysis {
        match query.capacity_selection() {
            CapacitySelection::Uniform(capacity) => assert!(
                self.capacities.contains(&capacity),
                "capacity {capacity} outside the template range {:?}",
                self.capacities
            ),
            CapacitySelection::Structural => {
                for (_, size) in &self.structural {
                    assert!(
                        self.capacities.contains(&(*size as usize)),
                        "structural capacity {size} outside the template range {:?}",
                        self.capacities
                    );
                }
            }
        }
        let start = Instant::now();
        let telemetry = &config.solver.telemetry;
        let _span = telemetry.span_with("query.check", || {
            vec![
                ("capacity", format!("{:?}", query.capacity_selection())),
                ("target", format!("{:?}", query.deadlock_target())),
                ("invariants", query.invariants_enabled().to_string()),
            ]
        });
        // `self.structural` is sorted by capacity variable, giving a
        // deterministic assumption order (the capacity map iterates in hash
        // order, which would make solver effort vary from run to run).
        let mut assumptions = Vec::with_capacity(2 * self.structural.len() + 2);
        for (var, size) in &self.structural {
            let pinned = match query.capacity_selection() {
                CapacitySelection::Uniform(capacity) => capacity as i64,
                CapacitySelection::Structural => *size,
            };
            assumptions.push(Formula::le(LinExpr::var(*var), LinExpr::constant(pinned)));
            assumptions.push(Formula::ge(LinExpr::var(*var), LinExpr::constant(pinned)));
        }
        assumptions.push(Formula::bool_var(
            self.vars.goal_var(query.deadlock_target()),
        ));
        if let Some(sel) = self.vars.sel_invariants {
            let sel = Formula::bool_var(sel);
            assumptions.push(if query.invariants_enabled() {
                sel
            } else {
                Formula::not(sel)
            });
        }
        let result = self.smt.check_assuming(&assumptions, config);
        let solver_stats = self.smt.stats();
        let profile = self.smt.take_profile();
        // An ablated query used no invariants, whatever the template holds.
        let invariants = if query.invariants_enabled() {
            self.invariants
        } else {
            0
        };
        analysis_from_result(
            &self.vars,
            invariants,
            result,
            solver_stats,
            profile,
            start.elapsed(),
            &self.labels,
        )
    }

    /// Cumulative statistics of the underlying SAT solver over the life of
    /// the template (all queries so far).
    pub fn sat_stats(&self) -> SatStats {
        self.smt.sat_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_automata::derive_colors;
    use advocat_invariants::derive_invariants;
    use advocat_logic::CheckConfig;
    use advocat_noc::{build_fabric, FabricConfig, Topology};

    use crate::query::DeadlockTarget;
    use crate::{verify_system, verify_with};

    fn mesh_parts(config: &FabricConfig) -> (System, ColorMap, InvariantSet) {
        let system = build_fabric(config).unwrap();
        let colors = derive_colors(&system);
        let invariants = derive_invariants(&system, &colors);
        (system, colors, invariants)
    }

    #[test]
    fn template_agrees_with_cold_verification_across_capacities() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 1..=5);
        for capacity in 1..=5usize {
            let session = template
                .check(&Query::new().capacity(capacity), &CheckConfig::default())
                .verdict
                .is_deadlock_free();
            let cold_system = build_fabric(&config.clone().with_queue_size(capacity)).unwrap();
            let cold = verify_system(&cold_system, DeadlockTarget::Any)
                .verdict
                .is_deadlock_free();
            assert_eq!(session, cold, "capacity {capacity}");
        }
    }

    #[test]
    fn every_target_agrees_with_its_cold_specification() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=3);
        for capacity in 2..=3usize {
            for target in [
                DeadlockTarget::StuckPacket,
                DeadlockTarget::DeadAutomaton,
                DeadlockTarget::Any,
            ] {
                let session = template
                    .check(
                        &Query::new().capacity(capacity).target(target),
                        &CheckConfig::default(),
                    )
                    .verdict
                    .is_deadlock_free();
                let cold_system = build_fabric(&config.clone().with_queue_size(capacity)).unwrap();
                let cold = verify_system(&cold_system, target)
                    .verdict
                    .is_deadlock_free();
                assert_eq!(session, cold, "capacity {capacity}, target {target}");
            }
        }
    }

    #[test]
    fn invariant_ablation_is_a_query_dimension() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        assert!(!invariants.is_empty());
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 3..=3);
        let with = template.check(&Query::new().capacity(3), &CheckConfig::default());
        assert!(with.verdict.is_deadlock_free());
        // Without the invariants the same session reports the Section-3
        // false candidates — and the cold ablation agrees.
        let without = template.check(
            &Query::new().capacity(3).invariants(false),
            &CheckConfig::default(),
        );
        assert!(!without.verdict.is_deadlock_free());
        let cold = verify_with(
            &system,
            &colors,
            &InvariantSet::default(),
            DeadlockTarget::Any,
            &CheckConfig::default(),
        );
        assert!(!cold.verdict.is_deadlock_free());
        // The ablation is retractable: invariants back on, free again.
        let again = template.check(&Query::new().capacity(3), &CheckConfig::default());
        assert!(again.verdict.is_deadlock_free());
    }

    #[test]
    fn structural_capacity_queries_match_the_as_built_system() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=4);
        let structural = template.check(&Query::new(), &CheckConfig::default());
        let cold = verify_system(&system, DeadlockTarget::Any);
        assert_eq!(
            structural.verdict.is_deadlock_free(),
            cold.verdict.is_deadlock_free()
        );
    }

    #[test]
    fn counterexamples_attribute_their_witnessed_targets() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=2);
        let stuck = template.check(
            &Query::new().capacity(2).target(DeadlockTarget::StuckPacket),
            &CheckConfig::default(),
        );
        let cex = stuck.verdict.counterexample().expect("deadlocks at 2");
        assert!(cex.witnesses(DeadlockTarget::StuckPacket));
        let dead = template.check(
            &Query::new()
                .capacity(2)
                .target(DeadlockTarget::DeadAutomaton),
            &CheckConfig::default(),
        );
        let cex = dead.verdict.counterexample().expect("deadlocks at 2");
        assert!(cex.witnesses(DeadlockTarget::DeadAutomaton));
        assert!(!cex.dead_automata.is_empty());
    }

    #[test]
    fn repeated_queries_reuse_learnt_state() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=2);
        let query = Query::new().capacity(2);
        let first = template.check(&query, &CheckConfig::default());
        let second = template.check(&query, &CheckConfig::default());
        assert_eq!(
            first.verdict.is_deadlock_free(),
            second.verdict.is_deadlock_free()
        );
        // Asking the identical question again must be cheaper: the solver
        // already holds the relevant learnt clauses and theory lemmas.
        assert!(
            second.stats.sat_effort() <= first.stats.sat_effort(),
            "second query regressed: {:?} vs {:?}",
            second.stats,
            first.stats
        );
    }

    #[test]
    #[should_panic(expected = "outside the template range")]
    fn out_of_range_capacity_is_rejected() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=4);
        let _ = template.check(&Query::new().capacity(7), &CheckConfig::default());
    }

    #[test]
    #[should_panic(expected = "outside the template range")]
    fn out_of_range_structural_sizes_are_rejected() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 5).with_directory(3);
        let (system, colors, invariants) = mesh_parts(&config);
        // Structural size 5 lies outside the template's 2..=4.
        let mut template = EncodingTemplate::build(&system, &colors, &invariants, 2..=4);
        let _ = template.check(&Query::new(), &CheckConfig::default());
    }
}
