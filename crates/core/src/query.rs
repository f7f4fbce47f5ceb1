//! The unified query surface: one engine, many questions.
//!
//! A [`QueryEngine`] runs the expensive, question-independent part of the
//! ADVOCAT pipeline — color derivation, invariant generation and the
//! structural deadlock encoding — exactly once, and then answers any
//! number of [`Query`]s from one persistent solver.  Every dimension of a
//! query is an assumption to that solver: the queue capacity (uniform or
//! structural), the [`advocat_deadlock::DeadlockTarget`], and whether
//! invariant strengthening applies.  Learnt clauses and theory
//! lemmas accumulate across *all* of them, so a capacity sweep under one
//! deadlock target makes the same sweep under the other target markedly
//! cheaper than a cold session — the spec-ablation analogue of the classic
//! sizing-sweep reuse.

use std::ops::RangeInclusive;
use std::time::Duration;

use advocat_automata::{derive_colors, System};
use advocat_deadlock::{CapacitySelection, EncodingTemplate, Query};
use advocat_invariants::{derive_invariants, InvariantSet};
use advocat_logic::CheckConfig;
use advocat_telemetry::Telemetry;
use advocat_xmas::ColorMap;

use crate::report::Report;

/// Cumulative statistics over every query an engine has answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Encoding templates built over the engine's life.  An engine builds
    /// exactly one by construction, so this certifies that a whole study —
    /// capacity sweeps, target flips, invariant ablations — ran inside one
    /// engine rather than across several; the *per-query* no-re-encode
    /// evidence is the conflict/propagation deltas (see
    /// `tests/spec_ablation.rs`, which asserts a second target's sweep
    /// stays below a cold session's conflicts).
    pub templates_built: u64,
    /// Number of queries answered.
    pub queries: u64,
    /// Total SAT conflicts across all queries.
    pub sat_conflicts: u64,
    /// Total SAT unit propagations across all queries.
    pub sat_propagations: u64,
    /// Learnt-database reductions across all queries.  Reduction is what
    /// keeps a long session's per-query cost from growing with its length.
    pub reduced_dbs: u64,
    /// Clauses the solver deleted across all queries (worst-half learnt
    /// clauses plus clauses a level-zero fact permanently satisfied).
    pub deleted_clauses: u64,
    /// Learnt clauses alive in the shared solver after the latest query.
    pub live_learnts: u64,
    /// Learnt clauses ever stored by the shared solver (monotone; the gap
    /// to [`SessionStats::live_learnts`] is what reduction reclaimed).
    pub total_learnt: u64,
    /// Total wall-clock time spent answering queries (excluding engine
    /// construction).
    pub query_elapsed: Duration,
}

impl SessionStats {
    /// Total SAT effort — conflicts plus propagations — of the session.
    pub fn sat_effort(&self) -> u64 {
        self.sat_conflicts + self.sat_propagations
    }
}

/// An incremental verification engine: one system, one derived encoding
/// template, one persistent solver, many [`Query`]s.
///
/// # Examples
///
/// The Figure-3 result of the paper plus its spec ablation, answered by a
/// single engine: the 2×2 directory mesh deadlocks with queues of size 2
/// but is free with 3 — under either deadlock formulation.
///
/// ```
/// use advocat::prelude::*;
///
/// let mesh = FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3);
/// let system = build_fabric_for_sweep(&mesh, 4)?;
/// let mut engine = QueryEngine::on(system, 2..=4);
/// assert!(!engine.check(&Query::new().capacity(2)).is_deadlock_free());
/// assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
/// let stuck = Query::new().capacity(3).target(DeadlockTarget::StuckPacket);
/// assert!(engine.check(&stuck).is_deadlock_free());
/// assert_eq!(engine.stats().queries, 3);
/// assert_eq!(engine.stats().templates_built, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    system: System,
    invariants: InvariantSet,
    template: EncodingTemplate,
    config: CheckConfig,
    stats: SessionStats,
    /// For engines that sized their own fabric for the sweep
    /// ([`QueryEngine::for_fabric`]): the fabric's *configured* queue
    /// size, which is what a [`CapacitySelection::Structural`] query must
    /// mean there — the built system's queues were widened to the sweep
    /// maximum, so the as-built sizes would be misleading.
    structural_capacity: Option<usize>,
}

/// The capacity range covering every queue's structural size, so an engine
/// built over it can answer the structural-capacity query for a (possibly
/// heterogeneous) system.  Queue-less systems get the degenerate `1..=1`
/// (the encoding requires a non-empty range).
fn structural_range(system: &System) -> RangeInclusive<usize> {
    advocat_deadlock::structural_capacity_range(system).unwrap_or(1..=1)
}

/// Runs a fabric build under the `fabric.build` span (the routing audit
/// included), with the number of topology nodes it builds as a field.
pub(crate) fn build_traced<T>(telemetry: &Telemetry, nodes: usize, build: impl FnOnce() -> T) -> T {
    let _span = telemetry.span_with("fabric.build", || vec![("nodes", nodes.to_string())]);
    build()
}

/// Derives a system's colors and then its invariants, under the
/// `colors.derive` and `invariants.derive` spans.
pub(crate) fn derive_traced(system: &System, telemetry: &Telemetry) -> (ColorMap, InvariantSet) {
    let primitives = || vec![("primitives", system.network().primitive_count().to_string())];
    let span = telemetry.span_with("colors.derive", primitives);
    let colors = derive_colors(system);
    drop(span);
    let _span = telemetry.span_with("invariants.derive", primitives);
    let invariants = derive_invariants(system, &colors);
    (colors, invariants)
}

impl QueryEngine {
    /// Builds an engine for `system` with default solver limits, deriving
    /// colors and invariants once and building the query-parameterised
    /// encoding for every capacity in `capacities`.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty.
    pub fn on(system: System, capacities: RangeInclusive<usize>) -> Self {
        QueryEngine::with_config(system, CheckConfig::default(), capacities)
    }

    /// Builds an engine whose capacity range covers exactly the system's
    /// structural queue sizes — the drop-in replacement for a one-shot
    /// verification of the system as built:
    /// `QueryEngine::structural(system).check(&Query::new())`.
    ///
    /// Queue-less systems get the degenerate range `1..=1` (the encoding
    /// requires a non-empty range; with no queues nothing is pinned).
    pub fn structural(system: System) -> Self {
        let range = structural_range(&system);
        QueryEngine::on(system, range)
    }

    /// Builds an engine with explicit SMT resource limits per query.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty.
    pub fn with_config(
        system: System,
        config: CheckConfig,
        capacities: RangeInclusive<usize>,
    ) -> Self {
        let (colors, invariants) = derive_traced(&system, &config.solver.telemetry);
        QueryEngine::from_derived(system, &colors, invariants, config, capacities)
    }

    /// Builds an engine for `system` from colors and invariants already
    /// derived for it: only the template is built, under the
    /// `template.build` span.
    pub(crate) fn from_derived(
        system: System,
        colors: &ColorMap,
        invariants: InvariantSet,
        config: CheckConfig,
        capacities: RangeInclusive<usize>,
    ) -> Self {
        let _span = config.solver.telemetry.span_with("template.build", || {
            vec![
                ("primitives", system.network().primitive_count().to_string()),
                ("invariants", invariants.len().to_string()),
                ("capacities", format!("{capacities:?}")),
            ]
        });
        let template = EncodingTemplate::build(&system, colors, &invariants, capacities);
        QueryEngine {
            system,
            invariants,
            template,
            config,
            stats: SessionStats {
                templates_built: 1,
                ..SessionStats::default()
            },
            structural_capacity: None,
        }
    }

    /// Builds an engine for an arbitrary topology fabric: the fabric is
    /// built once at the largest capacity of the range
    /// ([`advocat_noc::build_fabric_for_sweep`]) and every query reuses
    /// the one persistent solver.  This is what lets the *same* sweep run
    /// unchanged on a mesh, torus, ring or fat tree.
    ///
    /// A [`CapacitySelection::Structural`] query on such an engine means
    /// the fabric's **configured** `queue_size` (which must then lie in
    /// `capacities`), not the sweep-widened sizes the system was built
    /// with.
    ///
    /// # Errors
    ///
    /// Returns a [`advocat_noc::FabricError`] when the fabric
    /// configuration is invalid or its routing function fails the
    /// channel-dependency audit.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use advocat::prelude::*;
    ///
    /// let config = FabricConfig::new(Topology::ring(4)?, 1).with_directory(1);
    /// let mut engine = QueryEngine::for_fabric(&config, 1..=3)?;
    /// assert!(!engine.check(&Query::new().capacity(1)).is_deadlock_free());
    /// assert!(engine.check(&Query::new().capacity(2)).is_deadlock_free());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn for_fabric(
        config: &advocat_noc::FabricConfig,
        capacities: RangeInclusive<usize>,
    ) -> Result<Self, advocat_noc::FabricError> {
        QueryEngine::for_fabric_with(config, CheckConfig::default(), capacities)
    }

    /// [`QueryEngine::for_fabric`] with explicit SMT resource limits.
    ///
    /// # Errors
    ///
    /// Returns a [`advocat_noc::FabricError`] when the fabric
    /// configuration is invalid or its routing function fails the
    /// channel-dependency audit.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty.
    pub fn for_fabric_with(
        config: &advocat_noc::FabricConfig,
        check_config: CheckConfig,
        capacities: RangeInclusive<usize>,
    ) -> Result<Self, advocat_noc::FabricError> {
        let system = build_traced(
            &check_config.solver.telemetry,
            config.topology.num_nodes(),
            || advocat_noc::build_fabric_for_sweep(config, *capacities.end()),
        )?;
        let mut engine = QueryEngine::with_config(system, check_config, capacities);
        // The sweep build widened every queue to the range maximum, so
        // "structural" must keep meaning the fabric as configured.
        engine.structural_capacity = Some(config.queue_size);
        Ok(engine)
    }

    /// Answers one [`Query`], reusing all solver state from earlier
    /// queries regardless of which capacities, targets or invariant
    /// settings those asked about.
    ///
    /// # Examples
    ///
    /// The README's Query-API tour: every dimension — capacity, deadlock
    /// target, invariant strengthening — flips freely between queries,
    /// and nothing is ever re-encoded:
    ///
    /// ```
    /// use advocat::prelude::*;
    ///
    /// let config = FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3);
    /// let mut engine = QueryEngine::on(build_fabric_for_sweep(&config, 3)?, 2..=3);
    /// for target in [DeadlockTarget::StuckPacket, DeadlockTarget::DeadAutomaton] {
    ///     for capacity in 2..=3 {
    ///         let report = engine.check(&Query::new().capacity(capacity).target(target));
    ///         assert_eq!(report.is_deadlock_free(), capacity >= 3);
    ///     }
    /// }
    /// // The Section-3 ablation is one more query, not a new pipeline.
    /// assert!(!engine.check(&Query::new().capacity(3).invariants(false)).is_deadlock_free());
    /// assert_eq!(engine.stats().templates_built, 1); // nothing was re-encoded
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the query pins a capacity outside the engine's range.
    pub fn check(&mut self, query: &Query) -> Report {
        // On a self-sized fabric engine, a structural query means the
        // fabric's configured queue size (see `structural_capacity`).
        let query = match (query.capacity_selection(), self.structural_capacity) {
            (CapacitySelection::Structural, Some(configured)) => query.capacity(configured),
            _ => *query,
        };
        let query = &query;
        let analysis = self.template.check(query, &self.config);
        self.stats.queries += 1;
        self.stats.sat_conflicts += analysis.stats.sat_conflicts;
        self.stats.sat_propagations += analysis.stats.sat_propagations;
        self.stats.reduced_dbs += analysis.stats.sat_reduced_dbs;
        self.stats.deleted_clauses += analysis.stats.sat_deleted_clauses;
        self.stats.live_learnts = analysis.stats.sat_live_learnts;
        self.stats.total_learnt = analysis.stats.sat_total_learnt;
        self.stats.query_elapsed += analysis.stats.elapsed;
        Report::new(&self.system, analysis)
    }

    /// Cumulative statistics of the engine's shared SAT solver (all
    /// queries so far), including the live and total learnt-clause counts
    /// the database-reduction pass maintains.
    pub fn sat_stats(&self) -> advocat_logic::SatStats {
        self.template.sat_stats()
    }

    /// The capacity range the engine accepts.
    pub fn capacity_range(&self) -> RangeInclusive<usize> {
        self.template.capacity_range()
    }

    /// The verified system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The cross-layer invariants the engine derived (shared by every
    /// query; retractable per query via [`Query::invariants`]).
    pub fn invariants(&self) -> &InvariantSet {
        &self.invariants
    }

    /// The per-query SMT resource limits.
    pub fn config(&self) -> &CheckConfig {
        &self.config
    }

    /// Cumulative statistics over all queries answered so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_deadlock::{DeadlockTarget, Verdict};
    use advocat_noc::{build_fabric, build_fabric_for_sweep, FabricConfig, Topology};

    #[test]
    fn engine_matches_cold_verification_on_the_2x2_mesh() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let system = build_fabric_for_sweep(&config, 4).unwrap();
        let mut engine = QueryEngine::on(system, 1..=4);
        for capacity in 1..=4usize {
            let engine_free = engine
                .check(&Query::new().capacity(capacity))
                .is_deadlock_free();
            let cold_system = build_fabric(&config.clone().with_queue_size(capacity)).unwrap();
            let cold_free = advocat_deadlock::verify_system(&cold_system, DeadlockTarget::Any)
                .verdict
                .is_deadlock_free();
            assert_eq!(engine_free, cold_free, "capacity {capacity}");
        }
        assert_eq!(engine.stats().queries, 4);
        assert_eq!(engine.stats().templates_built, 1);
    }

    #[test]
    fn one_engine_answers_capacities_targets_and_ablations() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let system = build_fabric_for_sweep(&config, 3).unwrap();
        let mut engine = QueryEngine::on(system, 2..=3);
        assert!(!engine.check(&Query::new().capacity(2)).is_deadlock_free());
        assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
        let stuck = engine.check(&Query::new().capacity(2).target(DeadlockTarget::StuckPacket));
        let cex = stuck.counterexample().expect("stuck-packet candidate");
        assert!(cex.witnesses(DeadlockTarget::StuckPacket));
        assert!(!engine
            .check(&Query::new().capacity(3).invariants(false))
            .is_deadlock_free());
        assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
        assert_eq!(engine.stats().queries, 5);
        assert_eq!(engine.stats().templates_built, 1);
    }

    #[test]
    fn a_spent_theory_budget_is_unknown_in_the_report() {
        // Capacity 2 deadlocks and 3 is free: each search needs a theory
        // node, to decide a complete assignment or to explain a refuted
        // one, and has none to spend.
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
        let starved = CheckConfig {
            theory_node_budget: 0,
            ..CheckConfig::default()
        };
        let mut engine = QueryEngine::for_fabric_with(&config, starved, 2..=3).unwrap();
        for capacity in [2, 3] {
            let report = engine.check(&Query::new().capacity(capacity));
            assert!(
                matches!(report.verdict(), Verdict::Unknown),
                "capacity {capacity}: {report:?}"
            );
            assert!(!report.is_deadlock_free());
            assert!(
                report.summary().contains("unknown (resource limit)"),
                "{}",
                report.summary()
            );
        }
    }

    #[test]
    fn fabric_engines_answer_structural_queries_at_the_configured_size() {
        // queue_size 1 deadlocks on the ring; the sweep builds the system
        // at capacity 3.  A structural query must answer for the fabric as
        // configured (1), not as sweep-widened (3).
        let config = FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1);
        let mut engine = QueryEngine::for_fabric(&config, 1..=3).unwrap();
        assert!(!engine.check(&Query::new()).is_deadlock_free());
        assert_eq!(
            engine.check(&Query::new()).is_deadlock_free(),
            engine.check(&Query::new().capacity(1)).is_deadlock_free()
        );
        assert!(engine.check(&Query::new().capacity(2)).is_deadlock_free());
    }

    #[test]
    fn ablated_reports_count_no_invariants() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let system = build_fabric_for_sweep(&config, 3).unwrap();
        let mut engine = QueryEngine::on(system, 3..=3);
        let ablated = engine.check(&Query::new().capacity(3).invariants(false));
        assert!(!ablated.is_deadlock_free());
        assert_eq!(ablated.analysis().stats.invariants, 0);
        // The engine still holds the derived set for strengthened queries.
        let strengthened = engine.check(&Query::new().capacity(3));
        assert_eq!(
            strengthened.analysis().stats.invariants,
            engine.invariants().len()
        );
        assert!(!engine.invariants().is_empty());
    }

    #[test]
    fn structural_ranges_cover_heterogeneous_queues() {
        let system =
            build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3))
                .unwrap();
        assert_eq!(structural_range(&system), 3..=3);
        let empty = System::new(advocat_xmas::Network::new());
        assert_eq!(structural_range(&empty), 1..=1);
    }

    #[test]
    fn structural_engines_ablate_invariants_on_the_2x2_mesh() {
        let system =
            build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3))
                .unwrap();
        let mut engine = QueryEngine::structural(system);
        assert!(engine.check(&Query::new()).is_deadlock_free());
        let without = engine.check(&Query::new().invariants(false));
        assert!(!without.is_deadlock_free());
        assert_eq!(without.analysis().stats.invariants, 0);
    }

    #[test]
    fn engine_reports_count_the_derived_invariants() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let system = build_fabric_for_sweep(&config, 3).unwrap();
        let mut engine = QueryEngine::on(system, 2..=3);
        let report = engine.check(&Query::new().capacity(3));
        assert!(report.is_deadlock_free());
        assert_eq!(
            report.analysis().stats.invariants,
            engine.invariants().len()
        );
        assert!(!engine.invariants().is_empty());
    }
}
