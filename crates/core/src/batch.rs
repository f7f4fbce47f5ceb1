//! Parallel verification of independent scenarios.
//!
//! Design-space exploration rarely asks one question: it sweeps
//! topologies, directory placements, protocols, deadlock targets and
//! queue capacities.  The scenarios are independent, so [`run_batch`]
//! fans them out across worker threads — wall-clock time scales with the
//! slowest scenario rather than the sum — and *within* each scenario
//! every query is answered by one [`QueryEngine`] session of its own,
//! built at the top of the scenario's sweep and asked its capacities in
//! ascending order, so a capacity sweep reuses its encoding and
//! everything its solver learnt instead of re-analyzing cold per
//! capacity.  Scenarios share no engine, even over one fabric: each
//! reports exactly what it reports when run alone.

use std::ops::RangeInclusive;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use advocat_deadlock::{DeadlockTarget, Query};
use advocat_logic::CheckConfig;
use advocat_noc::{build_fabric_for_sweep, FabricConfig, FabricError};

use crate::query::{build_traced, QueryEngine, SessionStats};
use crate::report::Report;

/// One independent verification scenario of a batch.
#[derive(Clone, Debug)]
pub struct BatchScenario {
    /// A human-readable label carried into the outcome.
    pub name: String,
    /// The fabric to build and verify.
    pub fabric: FabricConfig,
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
    /// Creates a scenario over `fabric` with the default deadlock target
    /// and solver limits.
    pub fn new(name: impl Into<String>, fabric: FabricConfig) -> Self {
        BatchScenario {
            name: name.into(),
            fabric,
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
    /// Wall-clock time spent on this scenario: fabric construction, the
    /// engine build and every query.  Time the scenario waited for a
    /// worker thread is not included.
    pub elapsed: Duration,
}

impl BatchOutcome {
    /// Returns `true` when the scenario was verified deadlock-free (at its
    /// primary capacity; see [`BatchOutcome::result`]).
    pub fn is_deadlock_free(&self) -> bool {
        matches!(&self.result, Ok(report) if report.is_deadlock_free())
    }
}

/// Verifies every scenario, fanning the scenarios across at most
/// `workers` operating-system threads, and returns the outcomes in
/// scenario order.
///
/// Each scenario runs on a [`QueryEngine`] of its own, built over the
/// scenario's sweep and asked its capacities in ascending order, exactly
/// as if the scenario ran alone on one thread.  **`workers == 0` means
/// machine-sized**: the batch uses
/// [`std::thread::available_parallelism`].  Any other value is clamped to
/// the number of scenarios.  A panic while verifying a scenario
/// propagates to the caller.
///
/// # Examples
///
/// ```
/// use advocat::prelude::*;
///
/// let scenarios = vec![
///     BatchScenario::new(
///         "2x2 sweep",
///         FabricConfig::new(Topology::mesh(2, 2)?, 2).with_directory(3),
///     )
///     .with_sweep(2..=3),
///     BatchScenario::new("ring of 4, qs 2", FabricConfig::new(Topology::ring(4)?, 2)),
/// ];
/// let outcomes = run_batch(&scenarios, 2);
/// assert_eq!(outcomes.len(), 2);
/// assert_eq!(outcomes[0].sweep.len(), 2);
/// assert_eq!(outcomes[0].stats.unwrap().templates_built, 1);
/// assert!(outcomes.iter().all(|o| o.result.is_ok()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_batch(scenarios: &[BatchScenario], workers: usize) -> Vec<BatchOutcome> {
    fan_out(scenarios, workers, run_scenario)
}

/// Verifies one scenario on an engine of its own: the fabric is built at
/// the top of the sweep and every capacity is asked in ascending order.
fn run_scenario(scenario: &BatchScenario) -> BatchOutcome {
    let start = Instant::now();
    let own_size = scenario.fabric.queue_size;
    let range = scenario.sweep.clone().unwrap_or(own_size..=own_size);
    assert!(!range.is_empty(), "empty capacity sweep {range:?}");
    let built = build_traced(
        &scenario.config.solver.telemetry,
        scenario.fabric.topology.num_nodes(),
        || build_fabric_for_sweep(&scenario.fabric, *range.end()),
    );
    let (result, sweep, stats) = match built {
        Err(error) => (Err(error), Vec::new(), None),
        Ok(system) => {
            let mut engine =
                QueryEngine::with_config(system, scenario.config.clone(), range.clone());
            let sweep: Vec<(usize, Report)> = range
                .map(|capacity| {
                    let query = Query::new().capacity(capacity).target(scenario.target);
                    (capacity, engine.check(&query))
                })
                .collect();
            let primary = sweep
                .iter()
                .find(|(capacity, _)| *capacity == own_size)
                .or_else(|| sweep.last())
                .map(|(_, report)| report.clone())
                .expect("non-empty capacity range");
            (Ok(primary), sweep, Some(engine.stats()))
        }
    };
    BatchOutcome {
        name: scenario.name.clone(),
        result,
        sweep,
        stats,
        elapsed: start.elapsed(),
    }
}

/// Applies `work` to every item on at most `workers` scoped threads
/// (`0` means [`std::thread::available_parallelism`]; the count is
/// clamped to the number of items) that pull items one at a time, and
/// returns the results in item order.  A panic on any thread is resumed
/// on the caller's.
pub(crate) fn fan_out<I, R>(items: I, workers: usize, work: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    let items = items.into_iter();
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    }
    .clamp(1, items.len().max(1));
    let pending = Mutex::new(items.enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = pending.lock().expect("work queue").next();
                        let Some((index, item)) = next else {
                            return done;
                        };
                        done.push((index, work(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_noc::Topology;

    /// The paper's 2×2 mesh with the directory at (1,1), terminal 3.
    fn mesh_2x2(queue_size: usize) -> FabricConfig {
        FabricConfig::new(Topology::mesh(2, 2).unwrap(), queue_size).with_directory(3)
    }

    #[test]
    fn batch_results_come_back_in_scenario_order() {
        let scenarios = vec![
            BatchScenario::new("deadlocking", mesh_2x2(2)),
            BatchScenario::new("free", mesh_2x2(3)),
            // A 2×2 mesh has no terminal 4: unbuildable.
            BatchScenario::new("invalid", mesh_2x2(1).with_directory(4)),
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
            mesh_2x2(2).with_directory(0),
            mesh_2x2(3).with_directory(0),
            mesh_2x2(3),
        ];
        let scenarios: Vec<BatchScenario> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| BatchScenario::new(format!("scenario {i}"), c.clone()))
            .collect();
        let outcomes = run_batch(&scenarios, 2);
        for (config, outcome) in configs.iter().zip(&outcomes) {
            let system = advocat_noc::build_fabric(config).unwrap();
            let sequential = QueryEngine::on(system, config.queue_size..=config.queue_size)
                .check(&Query::new().capacity(config.queue_size))
                .is_deadlock_free();
            assert_eq!(outcome.is_deadlock_free(), sequential);
        }
    }

    #[test]
    fn one_batch_spans_topology_families() {
        let scenarios = vec![
            BatchScenario::new(
                "ring4 qs2",
                FabricConfig::new(Topology::ring(4).unwrap(), 2).with_directory(1),
            ),
            BatchScenario::new(
                "fat-tree qs1",
                FabricConfig::new(Topology::fat_tree(2, 2).unwrap(), 1).with_directory(3),
            ),
            BatchScenario::new("mesh qs3", mesh_2x2(3)),
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
            BatchScenario::new("mesh sweep", mesh_2x2(2)).with_sweep(1..=4),
            BatchScenario::new(
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
        let config = mesh_2x2(1);
        let sweep = BatchScenario::new("sweep", config.clone()).with_sweep(1..=6);
        let outcomes = run_batch(&[sweep], 1);
        let session_effort = outcomes[0].stats.expect("stats").sat_effort();

        let cold: Vec<BatchScenario> = (1..=6)
            .map(|qs| BatchScenario::new(format!("qs {qs}"), config.clone().with_queue_size(qs)))
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
        let targets = [DeadlockTarget::StuckPacket, DeadlockTarget::DeadAutomaton];
        let scenarios: Vec<BatchScenario> = targets
            .iter()
            .map(|&target| BatchScenario::new(target.to_string(), mesh_2x2(2)).with_target(target))
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
    fn scenarios_over_one_fabric_get_an_engine_each() {
        let scenarios = [DeadlockTarget::StuckPacket, DeadlockTarget::DeadAutomaton]
            .map(|target| BatchScenario::new(target.to_string(), mesh_2x2(2)).with_target(target));
        let together = run_batch(&scenarios, 1);
        for (scenario, outcome) in scenarios.iter().zip(&together) {
            let stats = outcome.stats.expect("the mesh builds");
            assert_eq!(stats.templates_built, 1, "{}", scenario.name);
            let alone = run_batch(std::slice::from_ref(scenario), 1);
            assert_eq!(
                outcome.result.as_ref().unwrap().counterexample(),
                alone[0].result.as_ref().unwrap().counterexample(),
                "{}: the batch witness is the solo witness",
                scenario.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty capacity sweep")]
    fn a_panic_on_a_worker_thread_reaches_the_caller() {
        let scenarios = vec![
            BatchScenario::new("fine", mesh_2x2(3).with_directory(0)),
            BatchScenario::new("empty", mesh_2x2(3).with_directory(0))
                .with_sweep(RangeInclusive::new(3, 2)),
        ];
        run_batch(&scenarios, 2);
    }

    #[test]
    fn empty_batch_and_oversized_worker_counts_are_fine() {
        assert!(run_batch(&[], 8).is_empty());
        let scenarios = vec![BatchScenario::new("one", mesh_2x2(3).with_directory(0))];
        let outcomes = run_batch(&scenarios, 64);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].sweep.len(), 1);
    }
}
