//! Parallel verification of independent scenarios.
//!
//! Design-space exploration rarely asks one question: it sweeps
//! topologies, directory placements, protocols, deadlock targets and
//! queue capacities.  The scenarios are independent, so [`run_batch`]
//! fans them out across worker threads — wall-clock time scales with the
//! slowest scenario rather than the sum — and *within* each scenario
//! every query is answered by one persistent
//! [`QueryEngine`](crate::QueryEngine) session, so a scenario's capacity
//! sweep reuses its encoding and everything its solver learnt instead of
//! re-analyzing cold per capacity.
//!
//! `run_batch` is a thin wrapper over a private [`Service`]: each
//! scenario expands to `(fabric, capacity)` jobs via
//! [`Service::submit_sweep`], the service's workers take them from its
//! queue, and the warm-engine pool's ticket discipline runs each
//! scenario's jobs on one engine in capacity order (same verdicts, same
//! witnesses, same per-scenario stats as one session per scenario).

use std::ops::RangeInclusive;
use std::time::Duration;

use advocat_automata::System;
use advocat_deadlock::DeadlockTarget;
use advocat_logic::CheckConfig;
use advocat_noc::{build_fabric_for_sweep, FabricConfig, FabricError, MeshConfig};

use crate::query::SessionStats;
use crate::report::Report;
use crate::service::{JobError, Service, ServiceConfig};

/// What a [`BatchScenario`] builds and verifies: a classic mesh
/// description or a topology-generic fabric.
#[derive(Clone, Debug)]
pub enum ScenarioFabric {
    /// A 2D mesh with XY routing (the paper's configuration).
    Mesh(MeshConfig),
    /// Any topology × routing-function fabric (boxed: a full fabric
    /// description is much larger than a mesh one).
    Fabric(Box<FabricConfig>),
}

impl ScenarioFabric {
    /// The queue capacity the scenario description itself pins.
    pub(crate) fn queue_size(&self) -> usize {
        match self {
            ScenarioFabric::Mesh(config) => config.queue_size,
            ScenarioFabric::Fabric(config) => config.queue_size,
        }
    }

    /// Builds the fabric with queues sized for a sweep up to
    /// `max_capacity`.
    pub(crate) fn build_for_sweep(&self, max_capacity: usize) -> Result<System, FabricError> {
        let fabric = match self {
            ScenarioFabric::Mesh(config) => config.to_fabric()?,
            ScenarioFabric::Fabric(config) => (**config).clone(),
        };
        build_fabric_for_sweep(&fabric, max_capacity)
    }
}

/// One independent verification scenario of a batch.
#[derive(Clone, Debug)]
pub struct BatchScenario {
    /// A human-readable label carried into the outcome.
    pub name: String,
    /// The fabric to build and verify.
    pub fabric: ScenarioFabric,
    /// Which deadlock symptom to look for.
    pub target: DeadlockTarget,
    /// SMT resource limits for this scenario.
    pub config: CheckConfig,
    /// Optional capacity sweep: when set, the scenario's one session
    /// answers every capacity in the range (ascending) instead of only the
    /// fabric's own queue size.
    pub sweep: Option<RangeInclusive<usize>>,
}

impl BatchScenario {
    /// Creates a mesh scenario with the default deadlock target and
    /// solver limits.
    pub fn new(name: impl Into<String>, mesh: MeshConfig) -> Self {
        BatchScenario {
            name: name.into(),
            fabric: ScenarioFabric::Mesh(mesh),
            target: DeadlockTarget::default(),
            config: CheckConfig::default(),
            sweep: None,
        }
    }

    /// Creates a scenario for an arbitrary topology fabric.
    pub fn for_fabric(name: impl Into<String>, fabric: FabricConfig) -> Self {
        BatchScenario {
            name: name.into(),
            fabric: ScenarioFabric::Fabric(Box::new(fabric)),
            target: DeadlockTarget::default(),
            config: CheckConfig::default(),
            sweep: None,
        }
    }

    /// Replaces the deadlock target.
    pub fn with_target(mut self, target: DeadlockTarget) -> Self {
        self.target = target;
        self
    }

    /// Replaces the SMT resource limits.
    pub fn with_config(mut self, config: CheckConfig) -> Self {
        self.config = config;
        self
    }

    /// Sweeps every capacity in `capacities` through the scenario's one
    /// session (the fabric is built once, at the top of the range).
    ///
    /// # Panics
    ///
    /// [`run_batch`] panics when the range is empty.
    pub fn with_sweep(mut self, capacities: RangeInclusive<usize>) -> Self {
        self.sweep = Some(capacities);
        self
    }
}

/// The per-scenario result of a [`run_batch`] run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The scenario's label.
    pub name: String,
    /// The verification report at the scenario's own queue size (or, when
    /// a sweep excludes that size, at the sweep's largest capacity) — or
    /// the fabric-construction error.
    pub result: Result<Report, FabricError>,
    /// Every `(capacity, report)` the scenario's session answered, in
    /// ascending capacity order.  One entry without a sweep; one per
    /// capacity with one.
    pub sweep: Vec<(usize, Report)>,
    /// Cumulative statistics of the scenario's one verification session —
    /// the evidence that a sweep reused its encoding (`templates_built`
    /// stays 1) rather than re-analyzing cold.  `None` when the fabric
    /// failed to build.
    pub stats: Option<SessionStats>,
    /// Wall-clock time spent *working* on this scenario: fabric
    /// construction plus every query, summed over its jobs.  Time the
    /// jobs waited for a worker is **not** included (the service reports
    /// queue wait separately, per job, as
    /// [`JobOutcome::queue_wait`](crate::JobOutcome::queue_wait)).
    pub elapsed: Duration,
    /// Wall-clock time this scenario's jobs spent *waiting* — for a
    /// worker, or for their turn on the scenario's shared engine — summed
    /// over its jobs.  `queued_for + elapsed` is the scenario's total
    /// occupancy of the service; keeping the two separate is what lets a
    /// saturated batch distinguish slow solving from a congested queue.
    pub queued_for: Duration,
}

impl BatchOutcome {
    /// Returns `true` when the scenario was verified deadlock-free (at its
    /// primary capacity; see [`BatchOutcome::result`]).
    pub fn is_deadlock_free(&self) -> bool {
        matches!(&self.result, Ok(report) if report.is_deadlock_free())
    }
}

/// Verifies every scenario, fanning the work across at most `workers`
/// operating-system threads, and returns the outcomes in scenario order.
///
/// Each scenario expands into one job per swept capacity on a private
/// [`Service`]; the service's warm-engine pool guarantees the whole sweep
/// runs on one persistent [`QueryEngine`](crate::QueryEngine) session, in
/// ascending capacity order, exactly as if the scenario ran alone on one
/// thread — while the service's workers run other scenarios' jobs beside
/// it.  **`workers == 0` means machine-sized**: the pool
/// uses [`std::thread::available_parallelism`].  Any other value is
/// clamped to the number of jobs.
///
/// # Examples
///
/// ```
/// use advocat::prelude::*;
///
/// let scenarios = vec![
///     BatchScenario::new("2x2 sweep", MeshConfig::new(2, 2, 2).with_directory(1, 1))
///         .with_sweep(2..=3),
///     BatchScenario::for_fabric(
///         "ring of 4, qs 2",
///         FabricConfig::new(Topology::ring(4)?, 2),
///     ),
/// ];
/// let outcomes = run_batch(&scenarios, 2);
/// assert_eq!(outcomes.len(), 2);
/// assert_eq!(outcomes[0].sweep.len(), 2);
/// assert_eq!(outcomes[0].stats.unwrap().templates_built, 1);
/// assert!(outcomes.iter().all(|o| o.result.is_ok()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_batch(scenarios: &[BatchScenario], workers: usize) -> Vec<BatchOutcome> {
    if scenarios.is_empty() {
        return Vec::new();
    }
    let total_jobs: usize = scenarios
        .iter()
        .map(|s| s.sweep.clone().map_or(1, Iterator::count))
        .sum();
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
    .clamp(1, total_jobs.max(1));

    let service = Service::new(
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(total_jobs.max(1))
            .with_max_engines(scenarios.len()),
    );
    let ids: Vec<usize> = scenarios
        .iter()
        .map(|scenario| service.submit_sweep(scenario).len())
        .collect();
    let mut outcomes = service.drain().into_iter();

    scenarios
        .iter()
        .zip(ids)
        .map(|(scenario, jobs)| {
            let own_size = scenario.fabric.queue_size();
            let mut sweep = Vec::with_capacity(jobs);
            let mut stats = SessionStats::default();
            let mut elapsed = Duration::ZERO;
            let mut queued_for = Duration::ZERO;
            let mut fabric_error = None;
            for outcome in outcomes.by_ref().take(jobs) {
                elapsed += outcome.work_elapsed;
                queued_for += outcome.queue_wait;
                match outcome.result {
                    Ok(report) => sweep.push((outcome.capacity, report)),
                    Err(JobError::Fabric(error)) => fabric_error = Some(error),
                    Err(other) => {
                        unreachable!("batch jobs run without timeouts: {other}")
                    }
                }
                if let Some(delta) = &outcome.session_delta {
                    stats.absorb(delta);
                }
            }
            let (result, sweep, stats) = match fabric_error {
                Some(error) => (Err(error), Vec::new(), None),
                None => {
                    let primary = sweep
                        .iter()
                        .find(|(capacity, _)| *capacity == own_size)
                        .or_else(|| sweep.last())
                        .map(|(_, report)| report.clone())
                        .expect("non-empty capacity range");
                    (Ok(primary), sweep, Some(stats))
                }
            };
            BatchOutcome {
                name: scenario.name.clone(),
                result,
                sweep,
                stats,
                elapsed,
                queued_for,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryEngine;
    use advocat_deadlock::Query;
    use advocat_noc::Topology;

    #[test]
    fn batch_results_come_back_in_scenario_order() {
        let scenarios = vec![
            BatchScenario::new("deadlocking", MeshConfig::new(2, 2, 2).with_directory(1, 1)),
            BatchScenario::new("free", MeshConfig::new(2, 2, 3).with_directory(1, 1)),
            BatchScenario::new("invalid", MeshConfig::new(1, 1, 1)),
        ];
        let outcomes = run_batch(&scenarios, 4);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].name, "deadlocking");
        assert!(!outcomes[0].is_deadlock_free());
        assert!(outcomes[1].is_deadlock_free());
        assert!(outcomes[2].result.is_err());
        assert!(outcomes[2].stats.is_none());
    }

    #[test]
    fn batch_agrees_with_sequential_verification() {
        let configs = [
            MeshConfig::new(2, 2, 2).with_directory(0, 0),
            MeshConfig::new(2, 2, 3).with_directory(0, 0),
            MeshConfig::new(2, 2, 3).with_directory(1, 1),
        ];
        let scenarios: Vec<BatchScenario> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| BatchScenario::new(format!("scenario {i}"), *c))
            .collect();
        let outcomes = run_batch(&scenarios, 2);
        for (config, outcome) in configs.iter().zip(&outcomes) {
            let system = advocat_noc::build_mesh(config).unwrap();
            let sequential = QueryEngine::on(system, config.queue_size..=config.queue_size)
                .check(&Query::new().capacity(config.queue_size))
                .is_deadlock_free();
            assert_eq!(outcome.is_deadlock_free(), sequential);
        }
    }

    #[test]
    fn one_batch_spans_topology_families() {
        let scenarios = vec![
            BatchScenario::for_fabric(
                "ring4 qs2",
                FabricConfig::new(Topology::ring(4).unwrap(), 2).with_directory(1),
            ),
            BatchScenario::for_fabric(
                "fat-tree qs1",
                FabricConfig::new(Topology::fat_tree(2, 2).unwrap(), 1).with_directory(3),
            ),
            BatchScenario::new("mesh qs3", MeshConfig::new(2, 2, 3).with_directory(1, 1)),
        ];
        let outcomes = run_batch(&scenarios, 3);
        assert!(outcomes[0].is_deadlock_free(), "datelined ring at qs 2");
        assert!(
            !outcomes[1].is_deadlock_free(),
            "fat tree deadlocks at qs 1"
        );
        assert!(outcomes[2].is_deadlock_free());
    }

    #[test]
    fn capacity_sweeps_reuse_one_session_per_scenario() {
        let scenarios = vec![
            BatchScenario::new("mesh sweep", MeshConfig::new(2, 2, 2).with_directory(1, 1))
                .with_sweep(1..=4),
            BatchScenario::for_fabric(
                "ring sweep",
                FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1),
            )
            .with_sweep(1..=3),
        ];
        let outcomes = run_batch(&scenarios, 2);

        let mesh = &outcomes[0];
        let free: Vec<bool> = mesh
            .sweep
            .iter()
            .map(|(_, report)| report.is_deadlock_free())
            .collect();
        assert_eq!(free, vec![false, false, true, true], "mesh threshold is 3");
        // The primary report sits at the scenario's own queue size (2).
        assert!(!mesh.is_deadlock_free());
        let stats = mesh.stats.expect("session stats per scenario");
        assert_eq!(stats.templates_built, 1, "one encoding for the sweep");
        assert_eq!(stats.queries, 4);

        let ring = &outcomes[1];
        let free: Vec<bool> = ring
            .sweep
            .iter()
            .map(|(_, report)| report.is_deadlock_free())
            .collect();
        assert_eq!(free, vec![false, true, true], "ring threshold is 2");
        assert_eq!(ring.stats.expect("stats").queries, 3);
    }

    #[test]
    fn sweeping_scenarios_cost_less_than_cold_per_capacity_batches() {
        let config = MeshConfig::new(2, 2, 1).with_directory(1, 1);
        let sweep = BatchScenario::new("sweep", config).with_sweep(1..=6);
        let outcomes = run_batch(&[sweep], 1);
        let session_effort = outcomes[0].stats.expect("stats").sat_effort();

        let cold: Vec<BatchScenario> = (1..=6)
            .map(|qs| BatchScenario::new(format!("qs {qs}"), config.with_queue_size(qs)))
            .collect();
        let cold_outcomes = run_batch(&cold, 1);
        let cold_effort: u64 = cold_outcomes
            .iter()
            .map(|o| o.stats.expect("stats").sat_effort())
            .sum();
        // Same verdicts, shared session: the sweep is strictly cheaper.
        for (i, outcome) in cold_outcomes.iter().enumerate() {
            assert_eq!(
                outcomes[0].sweep[i].1.is_deadlock_free(),
                outcome.is_deadlock_free(),
                "capacity {}",
                i + 1
            );
        }
        assert!(
            session_effort < cold_effort,
            "sweep effort {session_effort} is not below per-capacity effort {cold_effort}"
        );
    }

    #[test]
    fn batch_scenarios_honour_the_deadlock_target() {
        let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
        let targets = [DeadlockTarget::StuckPacket, DeadlockTarget::DeadAutomaton];
        let scenarios: Vec<BatchScenario> = targets
            .iter()
            .map(|&target| BatchScenario::new(target.to_string(), mesh).with_target(target))
            .collect();
        let outcomes = run_batch(&scenarios, 2);
        for (outcome, target) in outcomes.iter().zip(targets) {
            let cex = outcome
                .result
                .as_ref()
                .unwrap()
                .counterexample()
                .expect("size 2 deadlocks");
            assert!(cex.witnesses(target), "{target}");
        }
    }

    #[test]
    fn empty_batch_and_oversized_worker_counts_are_fine() {
        assert!(run_batch(&[], 8).is_empty());
        let scenarios = vec![BatchScenario::new("one", MeshConfig::new(2, 2, 3))];
        let outcomes = run_batch(&scenarios, 64);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].sweep.len(), 1);
    }
}
