//! The long-running verification service: many clients, one warm fleet.
//!
//! [`run_batch`](crate::run_batch) verifies *one* caller's scenarios;
//! a [`Service`] is the production shape of the same idea — a persistent,
//! concurrent front door that amortises engine construction **across**
//! submissions.  Three layers:
//!
//! * a **warm-engine pool** ([`PoolStats`]): engines are keyed by a
//!   [`Fingerprint`] of the canonical fabric structure, capacity range
//!   and solver limits, so a job whose fabric the service has already
//!   seen checks out a warm [`crate::QueryEngine`] — template, invariants
//!   and every learnt clause included — instead of cold-building its own.
//!   The deadlock target is not part of the key: every engine encodes all
//!   three goals and each job picks one by assumption;
//! * a **bounded FIFO job queue** served by a fixed set of worker
//!   threads — the admission-control point: [`Service::submit`] blocks
//!   while it is full, [`Service::try_submit`] refuses;
//! * a **ticket turnstile** per pool entry: same-fingerprint jobs run in
//!   submission order, which keeps verdicts and counterexample witnesses
//!   identical at any worker count.  A worker that dequeues a job out of
//!   turn parks it at the entry; the worker that retires the preceding
//!   ticket runs it next.
//!
//! One mutex guards the queue and the whole pool (engine slots, tickets,
//! parked jobs, LRU stamps and counters); a worker releases it while an
//! engine builds or solves.  Idle workers sleep on a condition variable
//! until a job is admitted or the service shuts down.
//!
//! Jobs are `(fabric, capacity)`-granular ([`VerifyJob`]), so a giant
//! sweep becomes many schedulable units; [`Service::submit_sweep`] splits
//! a [`BatchScenario`] accordingly, and
//! [`run_batch`](crate::run_batch) is nowadays a thin wrapper over
//! `submit_sweep` + [`Service::drain`].
//!
//! # Examples
//!
//! ```
//! use advocat::prelude::*;
//!
//! let service = Service::new(ServiceConfig::default().with_workers(2));
//! // Two jobs, one fabric: the second hits the warm engine.
//! let mesh = MeshConfig::new(2, 2, 2).with_directory(1, 1);
//! service.submit(VerifyJob::mesh("cap 2", mesh).at_capacity(2).with_engine_range(2..=3));
//! service.submit(VerifyJob::mesh("cap 3", mesh).at_capacity(3).with_engine_range(2..=3));
//! let outcomes = service.drain();
//! assert!(!outcomes[0].is_deadlock_free());
//! assert!(outcomes[1].is_deadlock_free());
//! assert!(outcomes[1].warm_hit);
//! assert_eq!(service.pool_stats().engines_built, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod fingerprint;
mod json;
mod pool;

pub use fingerprint::Fingerprint;
pub use json::{
    outcome_to_json, requests_from_json, validate_json, JobRequest, JsonError, TopologySpec,
};
pub use pool::PoolStats;

use std::collections::VecDeque;
use std::fmt;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use advocat_deadlock::{DeadlockTarget, Query};
use advocat_logic::CheckConfig;
use advocat_noc::{FabricConfig, FabricError, MeshConfig};
use advocat_telemetry::{Counter, Gauge, Histogram, Telemetry};

use crate::batch::{BatchScenario, ScenarioFabric};
use crate::query::{QueryEngine, SessionStats};
use crate::report::Report;

use json::jobs_from_json;
use pool::{Checkout, EnginePool};

/// Configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads; `0` means
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Bound of the pending-job queue — the admission-control knob.
    /// [`Service::submit`] blocks while the queue is full;
    /// [`Service::try_submit`] refuses instead.
    pub queue_capacity: usize,
    /// Cap on warm engines held by the pool; least-recently-used idle
    /// engines are evicted beyond it.
    pub max_engines: usize,
    /// Default per-job wall-clock budget (a job may override it).  A job
    /// that exceeds its budget *while queued* is refused without running;
    /// one that exceeds it mid-work finishes and is flagged
    /// ([`JobOutcome::deadline_exceeded`]) — queries are never interrupted
    /// mid-solve.
    pub default_timeout: Option<Duration>,
    /// Observability handle (disabled by default).  When enabled the
    /// service traces job execution, engine checkouts and evictions,
    /// keeps queue/pool/latency metrics in the handle's registry, and
    /// passes the handle down into every job's solver configuration
    /// (jobs that bring their own enabled handle keep it).
    pub telemetry: Telemetry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 1024,
            max_engines: 64,
            default_timeout: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ServiceConfig {
    /// Sets the worker-thread count (`0` = machine-sized).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the pending-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the warm-engine cap.
    pub fn with_max_engines(mut self, max_engines: usize) -> Self {
        self.max_engines = max_engines;
        self
    }

    /// Sets the default per-job timeout.
    pub fn with_default_timeout(mut self, timeout: Duration) -> Self {
        self.default_timeout = Some(timeout);
        self
    }

    /// Attaches a telemetry handle: traces, metrics and solver profiles
    /// for everything the service runs.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// One `(fabric, capacity)`-granular verification job.
///
/// The unit of scheduling: a sweep over many capacities is many jobs
/// sharing an [`Fingerprint`] (set [`VerifyJob::with_engine_range`] to the
/// sweep range on each), so they reuse one pooled engine — in submission
/// order — while unrelated jobs run beside them on other workers.
#[derive(Clone, Debug)]
pub struct VerifyJob {
    /// Human-readable label carried into the outcome.
    pub name: String,
    /// The fabric to verify.
    pub fabric: ScenarioFabric,
    /// Which deadlock symptom to look for.
    pub target: DeadlockTarget,
    /// SMT resource limits.
    pub config: CheckConfig,
    /// The queue capacity to ask about; `None` means the fabric's own
    /// configured queue size.
    pub capacity: Option<usize>,
    /// The capacity range the pooled engine is built over.  Jobs agreeing
    /// on fabric, solver limits *and* this range share an engine;
    /// defaults to `capacity..=capacity`.  Widened if it does not contain
    /// the queried capacity.
    pub engine_range: Option<RangeInclusive<usize>>,
    /// Whether derived invariants strengthen the encoding (the Section-3
    /// ablation flips this off).
    pub invariants: bool,
    /// Per-job wall-clock budget overriding the service default.
    pub timeout: Option<Duration>,
}

impl VerifyJob {
    /// A job over a 2D-mesh configuration, at its configured queue size.
    pub fn mesh(name: impl Into<String>, config: MeshConfig) -> Self {
        VerifyJob::over(name, ScenarioFabric::Mesh(config))
    }

    /// A job over an arbitrary topology fabric.
    pub fn fabric(name: impl Into<String>, config: FabricConfig) -> Self {
        VerifyJob::over(name, ScenarioFabric::Fabric(Box::new(config)))
    }

    /// A job over an already-wrapped scenario fabric.
    pub fn over(name: impl Into<String>, fabric: ScenarioFabric) -> Self {
        VerifyJob {
            name: name.into(),
            fabric,
            target: DeadlockTarget::default(),
            config: CheckConfig::default(),
            capacity: None,
            engine_range: None,
            invariants: true,
            timeout: None,
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

    /// Pins the queried capacity.
    pub fn at_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the engine's capacity range (the warm-sharing key for sweeps).
    pub fn with_engine_range(mut self, range: RangeInclusive<usize>) -> Self {
        self.engine_range = Some(range);
        self
    }

    /// Enables or disables invariant strengthening.
    pub fn with_invariants(mut self, enabled: bool) -> Self {
        self.invariants = enabled;
        self
    }

    /// Sets this job's wall-clock budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

/// Identifier of a submitted job: its submission index, which is also the
/// order [`Service::drain`] returns outcomes in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why a job produced no report.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The fabric could not be built (shared by every job of the
    /// fingerprint: the first failure is cached).
    Fabric(FabricError),
    /// The job's wall-clock budget expired while it was still queued; it
    /// was refused without touching an engine.
    TimedOut {
        /// How long the job had waited when it was refused.
        waited: Duration,
    },
    /// The worker running the job panicked; the engine it held was
    /// discarded (the next same-fingerprint job rebuilds cold).
    EngineLost {
        /// The panic message, when one was recoverable.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Fabric(e) => write!(f, "fabric build failed: {e}"),
            JobError::TimedOut { waited } => {
                write!(f, "timed out after waiting {waited:.2?} in the queue")
            }
            JobError::EngineLost { message } => {
                write!(f, "worker panicked while running the job: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Everything the service reports about one finished job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's submission identifier.
    pub id: JobId,
    /// The label given at submission.
    pub name: String,
    /// The capacity the job asked about.
    pub capacity: usize,
    /// The pool key the job ran under.
    pub fingerprint: Fingerprint,
    /// The verification report, or why there is none.
    pub result: Result<Report, JobError>,
    /// Time between admission and the moment a worker started the job —
    /// scheduling plus turnstile wait, kept *separate* from the work
    /// (`run_batch`'s old `elapsed` conflated the two).
    pub queue_wait: Duration,
    /// Time spent working: engine build (for the cold job of a
    /// fingerprint) plus the query itself.
    pub work_elapsed: Duration,
    /// Whether the job checked out an already-warm engine.
    pub warm_hit: bool,
    /// The job ran to completion but blew through its wall-clock budget
    /// doing so (queries are never interrupted mid-solve).
    pub deadline_exceeded: bool,
    /// This job's share of its engine's [`SessionStats`]: the stats delta
    /// its queries caused.  `templates_built` is `1` exactly for the job
    /// that cold-built the engine.  `None` when no engine ran.
    pub session_delta: Option<SessionStats>,
}

impl JobOutcome {
    /// Returns `true` when the job produced a deadlock-free report.
    pub fn is_deadlock_free(&self) -> bool {
        matches!(&self.result, Ok(report) if report.is_deadlock_free())
    }

    /// The phase-attributed solver profile of this job's query — present
    /// when the job ran under an enabled telemetry handle and produced a
    /// report.
    pub fn solver_profile(&self) -> Option<&advocat_logic::SolverProfile> {
        self.result
            .as_ref()
            .ok()
            .and_then(|report| report.solver_profile())
    }
}

/// One job's outcome slot: distinguishing "not finished yet" from
/// "already handed out" is what lets [`Service::wait_outcome`] answer
/// by-id queries (the front-end's `GET /v1/jobs/{id}`) truthfully.
enum Slot {
    /// The job has been admitted but no outcome has landed.
    Pending,
    /// The outcome landed and nobody has consumed it.
    Ready(Box<JobOutcome>),
    /// The outcome was consumed (by [`Service::next_outcome`],
    /// [`Service::drain`] or a by-id wait); it will not be seen again.
    Taken,
}

struct ResultStore {
    slots: Vec<Slot>,
    ready: VecDeque<u64>,
    submitted: u64,
    completed: u64,
    consumed: u64,
}

/// Why a by-id outcome query ([`Service::take_outcome`],
/// [`Service::wait_outcome`]) returned no outcome and never will.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeError {
    /// No job with this id was ever admitted.
    Unknown(JobId),
    /// The job finished but its outcome was already consumed — outcomes
    /// are delivered at most once.
    Taken(JobId),
}

impl fmt::Display for OutcomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutcomeError::Unknown(id) => write!(f, "job {id} was never admitted"),
            OutcomeError::Taken(id) => write!(f, "job {id}'s outcome was already consumed"),
        }
    }
}

impl std::error::Error for OutcomeError {}

/// Point-in-time snapshot of a [`Service`]'s health: the warm pool,
/// the admission queue and the job ledger in one struct.  This is the
/// payload of the front-end's `GET /healthz`; every field is also
/// available through the metrics registry when telemetry is enabled,
/// but the snapshot needs no telemetry and is always coherent (one
/// lock acquisition for the ledger numbers, one for the queue and pool).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cumulative warm-engine pool statistics.
    pub pool: PoolStats,
    /// Jobs waiting in the bounded admission queue right now.
    pub queued: usize,
    /// The admission queue's bound (the backpressure knob).
    pub queue_capacity: usize,
    /// Jobs admitted since the service started.
    pub submitted: u64,
    /// Jobs that have produced an outcome.
    pub completed: u64,
    /// Jobs admitted but not yet finished (`submitted - completed`).
    pub pending: u64,
    /// Worker threads serving the queue.
    pub workers: usize,
}

impl ServiceStats {
    /// Renders the snapshot as one JSON object, in the house wire style
    /// (hand-rolled, serde-free) — the `GET /healthz` response body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"queued\":{},\"queue_capacity\":{},\"submitted\":{},\
             \"completed\":{},\"pending\":{},\"pool\":{{\
             \"engines_built\":{},\"warm_hits\":{},\"build_failures\":{},\
             \"evictions\":{},\"live_engines\":{},\"checkouts\":{},\"rebuilds\":{},\
             \"warm_hit_rate\":{:.4}}}}}",
            self.workers,
            self.queued,
            self.queue_capacity,
            self.submitted,
            self.completed,
            self.pending,
            self.pool.engines_built,
            self.pool.warm_hits,
            self.pool.build_failures,
            self.pool.evictions,
            self.pool.live_engines,
            self.pool.checkouts,
            self.pool.rebuilds,
            self.pool.warm_hit_rate(),
        )
    }
}

/// Refusals from [`Service::try_submit_json`]: either the text was not a
/// valid job request, or the whole request set could not be admitted
/// atomically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonSubmitError {
    /// The text failed to parse or described an unbuildable topology; no
    /// jobs were admitted.
    Json(JsonError),
    /// The bounded queue lacks room for the request's full job set; no
    /// jobs were admitted (admission is all-or-nothing, so a partial
    /// sweep never dangles).
    QueueFull {
        /// How many jobs the request would have admitted.
        jobs: usize,
        /// The queue bound that refused them.
        capacity: usize,
    },
}

impl fmt::Display for JsonSubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonSubmitError::Json(e) => write!(f, "{e}"),
            JsonSubmitError::QueueFull { jobs, capacity } => write!(
                f,
                "the bounded job queue (capacity {capacity}) cannot admit {jobs} more jobs"
            ),
        }
    }
}

impl std::error::Error for JsonSubmitError {}

/// Refusals from [`Service::try_submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded job queue is at capacity; retry later or use the
    /// blocking submit.
    QueueFull,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "the service's bounded job queue is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The service's pre-registered instruments (one registry lookup each at
/// construction, plain atomic updates afterwards).  Present only when the
/// service was configured with an enabled telemetry handle.
struct ServiceMetrics {
    queue_depth: Gauge,
    queue_wait: Histogram,
    work: Histogram,
    warm_hits: Counter,
    cold_builds: Counter,
    rebuilds: Counter,
    live_learnts: Gauge,
    total_learnts: Gauge,
}

impl ServiceMetrics {
    fn register(telemetry: &Telemetry) -> Option<ServiceMetrics> {
        let metrics = telemetry.metrics()?;
        Some(ServiceMetrics {
            queue_depth: metrics.gauge(
                "service_queue_depth",
                "Jobs waiting in the bounded admission queue",
            ),
            queue_wait: metrics.histogram(
                "service_job_queue_wait_seconds",
                "Admission-to-start wait of each job (scheduling plus turnstile)",
            ),
            work: metrics.histogram(
                "service_job_work_seconds",
                "Work time of each job: engine build (cold jobs) plus the query",
            ),
            warm_hits: metrics.counter(
                "service_warm_hits_total",
                "Jobs that checked out an already-warm engine",
            ),
            cold_builds: metrics.counter(
                "service_cold_builds_total",
                "Jobs that cold-built their fingerprint's engine for the first time",
            ),
            rebuilds: metrics.counter(
                "service_rebuilds_total",
                "Cold builds for fingerprints whose engine was evicted or lost",
            ),
            live_learnts: metrics.gauge(
                "sat_live_learnt_clauses",
                "Learnt clauses alive in the most recently reported engine",
            ),
            total_learnts: metrics.gauge(
                "sat_total_learnt_clauses",
                "Learnt clauses ever stored by the most recently reported engine",
            ),
        })
    }
}

/// A submitted job, resolved for execution: the concrete capacity, the
/// engine range and the pool key.  Its id, ticket and admission
/// timestamp are assigned at admission ([`Shared::admit`]).
pub(crate) struct ScheduledJob {
    /// Submission index — doubles as the outcome slot.
    id: u64,
    /// The pool key the job was filed under (reported in the outcome).
    fingerprint: Fingerprint,
    /// The job description as submitted.
    job: VerifyJob,
    /// The capacity this job queries (resolved from the job/fabric).
    capacity: usize,
    /// The capacity range of the engine the job runs on.
    range: RangeInclusive<usize>,
    /// The job's ticket on its pool entry: same-fingerprint jobs execute
    /// in ticket order, which makes warm-engine results independent of the
    /// worker count.
    turn: u64,
    /// When the job was admitted (queue wait is measured from here).
    submitted_at: Instant,
    /// Wall-clock budget for the job, if any.
    timeout: Option<Duration>,
}

/// Everything the service's one lock guards.
struct State {
    /// The bounded FIFO admission queue.
    queue: VecDeque<ScheduledJob>,
    pool: EnginePool,
    shutdown: bool,
}

/// Lock order: `state` before `results`, never the reverse.
struct Shared {
    state: Mutex<State>,
    /// Signalled when queue space frees up (blocked submitters wait).
    space: Condvar,
    /// Signalled when a job is admitted or the service shuts down (idle
    /// workers wait).
    work: Condvar,
    queue_capacity: usize,
    default_timeout: Option<Duration>,
    results: Mutex<ResultStore>,
    results_cv: Condvar,
    telemetry: Telemetry,
    metrics: Option<ServiceMetrics>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("service lock")
    }

    fn note_depth(&self, depth: usize) {
        if let Some(metrics) = &self.metrics {
            metrics.queue_depth.set(depth as i64);
        }
    }

    /// Resolves a submitted job into its scheduled form: capacity, engine
    /// range and fingerprint.  Runs outside the lock (fingerprinting a
    /// fabric digests its whole routing table).
    fn resolve(&self, mut job: VerifyJob) -> ScheduledJob {
        // Jobs inherit the service's telemetry handle unless they brought
        // their own enabled one.  The handle never reaches the
        // fingerprint, so warm-pool keying is telemetry-blind.
        if !job.config.solver.telemetry.is_enabled() {
            job.config.solver.telemetry = self.telemetry.clone();
        }
        let capacity = job.capacity.unwrap_or_else(|| job.fabric.queue_size());
        let range = match job.engine_range.clone() {
            None => capacity..=capacity,
            Some(range) => *range.start().min(&capacity)..=*range.end().max(&capacity),
        };
        let fingerprint = Fingerprint::of_job(&job.fabric, &range, &job.config);
        let timeout = job.timeout.or(self.default_timeout);
        ScheduledJob {
            id: 0,
            fingerprint,
            job,
            capacity,
            range,
            turn: 0,
            submitted_at: Instant::now(),
            timeout,
        }
    }

    /// Admits a resolved job: allocates its outcome slot and pool ticket
    /// (only once admission is certain, so ticket order is admission
    /// order) and enqueues it.  The caller notifies a worker after
    /// releasing the lock.
    fn admit(&self, state: &mut State, mut job: ScheduledJob) -> JobId {
        job.turn = state.pool.ticket(job.fingerprint);
        job.id = {
            let mut results = self.results.lock().expect("result store lock");
            let id = results.submitted;
            results.submitted += 1;
            results.slots.push(Slot::Pending);
            id
        };
        job.submitted_at = Instant::now();
        let id = JobId(job.id);
        state.queue.push_back(job);
        self.note_depth(state.queue.len());
        id
    }
}

/// A long-running, concurrent verification service.  See the
/// [module documentation](self) for the architecture and an example.
///
/// Dropping the service shuts it down: workers stop after their current
/// job and any still-queued or parked jobs are discarded, so call
/// [`Service::drain`] (or consume every outcome) first.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.workers.len())
            .field("pool", &self.pool_stats())
            .finish()
    }
}

impl Service {
    /// Starts the service: spawns the worker threads and the (initially
    /// empty) engine pool.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pool: EnginePool::new(config.max_engines, config.telemetry.clone()),
                shutdown: false,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            default_timeout: config.default_timeout,
            results: Mutex::new(ResultStore {
                slots: Vec::new(),
                ready: VecDeque::new(),
                submitted: 0,
                completed: 0,
                consumed: 0,
            }),
            results_cv: Condvar::new(),
            metrics: ServiceMetrics::register(&config.telemetry),
            telemetry: config.telemetry,
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("advocat-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a service worker")
            })
            .collect();
        Service {
            shared,
            workers: handles,
        }
    }

    /// Submits one job, blocking while the bounded queue is full.
    /// Returns its [`JobId`] (also its position in [`Service::drain`]).
    pub fn submit(&self, job: VerifyJob) -> JobId {
        let shared = &self.shared;
        let job = shared.resolve(job);
        let mut state = shared.lock();
        while state.queue.len() >= shared.queue_capacity {
            state = shared.space.wait(state).expect("service lock");
        }
        let id = shared.admit(&mut state, job);
        drop(state);
        shared.work.notify_one();
        id
    }

    /// Submits one job unless the bounded queue is full — the
    /// non-blocking admission-control path.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] (with the job untouched
    /// service-side) when admission would have to wait.
    pub fn try_submit(&self, job: VerifyJob) -> Result<JobId, SubmitError> {
        self.try_submit_all(vec![job]).map(|ids| ids[0])
    }

    /// All-or-nothing non-blocking admission: either the queue has room
    /// for every job (they are admitted contiguously, so their ticket
    /// order is their slot order) or none is admitted.
    fn try_submit_all(&self, jobs: Vec<VerifyJob>) -> Result<Vec<JobId>, SubmitError> {
        let shared = &self.shared;
        let jobs: Vec<ScheduledJob> = jobs.into_iter().map(|job| shared.resolve(job)).collect();
        let mut state = shared.lock();
        if state.queue.len() + jobs.len() > shared.queue_capacity {
            return Err(SubmitError::QueueFull);
        }
        let ids: Vec<JobId> = jobs
            .into_iter()
            .map(|job| shared.admit(&mut state, job))
            .collect();
        drop(state);
        for _ in &ids {
            shared.work.notify_one();
        }
        Ok(ids)
    }

    /// Splits a [`BatchScenario`] into per-capacity jobs sharing one
    /// pooled engine (the scenario's sweep range is the engine range) and
    /// submits them all, blocking on backpressure.  Returns the job ids in
    /// ascending capacity order.
    pub fn submit_sweep(&self, scenario: &BatchScenario) -> Vec<JobId> {
        let own = scenario.fabric.queue_size();
        let range = scenario.sweep.clone().unwrap_or(own..=own);
        range
            .clone()
            .map(|capacity| {
                self.submit(
                    VerifyJob::over(scenario.name.clone(), scenario.fabric.clone())
                        .with_target(scenario.target)
                        .with_config(scenario.config.clone())
                        .at_capacity(capacity)
                        .with_engine_range(range.clone()),
                )
            })
            .collect()
    }

    /// Parses [`JobRequest`]s from JSON (a single object or an array) and
    /// submits each as a sweep of per-capacity jobs.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the text is not valid job JSON; no
    /// jobs are submitted in that case.
    pub fn submit_json(&self, text: &str) -> Result<Vec<JobId>, JsonError> {
        Ok(jobs_from_json(text)?
            .into_iter()
            .map(|job| self.submit(job))
            .collect())
    }

    /// Like [`Service::submit_json`], but admission is **non-blocking and
    /// all-or-nothing**: either every job of the request set fits in the
    /// bounded queue and all are admitted, or none is.  This is the
    /// admission path of the HTTP front-end, where a full queue must turn
    /// into `429 Too Many Requests` instead of a stalled connection.
    ///
    /// # Errors
    ///
    /// [`JsonSubmitError::Json`] when the text is not valid job JSON;
    /// [`JsonSubmitError::QueueFull`] when the queue lacks room for the
    /// whole set.  No jobs are admitted in either case.
    pub fn try_submit_json(&self, text: &str) -> Result<Vec<JobId>, JsonSubmitError> {
        let jobs = jobs_from_json(text).map_err(JsonSubmitError::Json)?;
        let count = jobs.len();
        self.try_submit_all(jobs)
            .map_err(|SubmitError::QueueFull| JsonSubmitError::QueueFull {
                jobs: count,
                capacity: self.shared.queue_capacity,
            })
    }

    /// Blocks until the next unconsumed outcome is available and returns
    /// it, in **completion** order (streaming consumers want results as
    /// they land).  Returns `None` once every submitted job's outcome has
    /// been consumed.
    pub fn next_outcome(&self) -> Option<JobOutcome> {
        let shared = &self.shared;
        let mut results = shared.results.lock().expect("result store lock");
        loop {
            while let Some(id) = results.ready.pop_front() {
                if let Some(outcome) = take_slot(&mut results, id) {
                    return Some(outcome);
                }
            }
            if results.consumed >= results.submitted {
                return None;
            }
            results = shared.results_cv.wait(results).expect("result store lock");
        }
    }

    /// Takes job `id`'s outcome if it has landed, without blocking.
    /// `Ok(None)` means the job is still queued or running.
    ///
    /// # Errors
    ///
    /// [`OutcomeError::Unknown`] for an id never admitted;
    /// [`OutcomeError::Taken`] when the outcome was already consumed
    /// (delivery is at most once).
    pub fn take_outcome(&self, id: JobId) -> Result<Option<JobOutcome>, OutcomeError> {
        let mut results = self.shared.results.lock().expect("result store lock");
        poll_slot(&mut results, id)
    }

    /// Blocks until job `id`'s outcome lands (or `timeout` expires, when
    /// one is given) and takes it.  `Ok(None)` means the wait timed out
    /// with the job still in flight — the front-end's long-poll path
    /// (`GET /v1/jobs/{id}?wait_ms=…`).
    ///
    /// # Errors
    ///
    /// As [`Service::take_outcome`].
    pub fn wait_outcome(
        &self,
        id: JobId,
        timeout: Option<Duration>,
    ) -> Result<Option<JobOutcome>, OutcomeError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let shared = &self.shared;
        let mut results = shared.results.lock().expect("result store lock");
        loop {
            match poll_slot(&mut results, id)? {
                Some(outcome) => return Ok(Some(outcome)),
                None => match deadline {
                    None => {
                        results = shared.results_cv.wait(results).expect("result store lock");
                    }
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Ok(None);
                        }
                        results = shared
                            .results_cv
                            .wait_timeout(results, deadline - now)
                            .expect("result store lock")
                            .0;
                    }
                },
            }
        }
    }

    /// Waits for every submitted job to finish and returns all outcomes
    /// not yet consumed by [`Service::next_outcome`], in **submission**
    /// order.
    pub fn drain(&self) -> Vec<JobOutcome> {
        let shared = &self.shared;
        let mut results = shared.results.lock().expect("result store lock");
        while results.completed < results.submitted {
            results = shared.results_cv.wait(results).expect("result store lock");
        }
        let mut outcomes = Vec::new();
        for slot in results.slots.iter_mut() {
            if matches!(slot, Slot::Ready(_)) {
                if let Slot::Ready(outcome) = std::mem::replace(slot, Slot::Taken) {
                    outcomes.push(*outcome);
                }
            }
        }
        results.consumed += outcomes.len() as u64;
        results.ready.clear();
        outcomes
    }

    /// Waits until every admitted job has finished (without consuming any
    /// outcome), or until `timeout` expires.  Returns `true` when the
    /// service went idle — the graceful-drain hook: a front-end that has
    /// stopped admitting calls this, then flushes sinks, then exits.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let shared = &self.shared;
        let mut results = shared.results.lock().expect("result store lock");
        while results.completed < results.submitted {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            results = shared
                .results_cv
                .wait_timeout(results, deadline - now)
                .expect("result store lock")
                .0;
        }
        true
    }

    /// Cumulative statistics of the warm-engine pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.lock().pool.stats()
    }

    /// A coherent point-in-time snapshot of the service: pool, queue and
    /// job-ledger statistics in one struct (the `/healthz` payload).
    pub fn stats(&self) -> ServiceStats {
        let (submitted, completed) = {
            let results = self.shared.results.lock().expect("result store lock");
            (results.submitted, results.completed)
        };
        let state = self.shared.lock();
        ServiceStats {
            pool: state.pool.stats(),
            queued: state.queue.len(),
            queue_capacity: self.shared.queue_capacity,
            submitted,
            completed,
            pending: submitted - completed,
            workers: self.workers.len(),
        }
    }
}

/// Takes the outcome in slot `id` if it is ready, updating the consumed
/// count.  (Free function because it borrows only the store, not the
/// service.)
fn take_slot(results: &mut ResultStore, id: u64) -> Option<JobOutcome> {
    match results.slots.get_mut(id as usize) {
        Some(slot @ Slot::Ready(_)) => {
            let Slot::Ready(outcome) = std::mem::replace(slot, Slot::Taken) else {
                unreachable!("matched Ready above");
            };
            results.consumed += 1;
            Some(*outcome)
        }
        _ => None,
    }
}

/// By-id poll against the store: distinguishes ready, pending, consumed
/// and never-admitted.
fn poll_slot(results: &mut ResultStore, id: JobId) -> Result<Option<JobOutcome>, OutcomeError> {
    match results.slots.get(id.0 as usize) {
        None => Err(OutcomeError::Unknown(id)),
        Some(Slot::Taken) => Err(OutcomeError::Taken(id)),
        Some(Slot::Pending) => Ok(None),
        Some(Slot::Ready(_)) => Ok(take_slot(results, id.0)),
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.shutdown = true;
        state.queue.clear();
        drop(state);
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker: dequeues jobs in admission order, parks those whose turn
/// has not come, and runs the rest — each followed by whatever parked
/// successor its retired ticket releases.  Sleeps on `work` while the
/// queue is empty.
fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        let Some(job) = state.queue.pop_front() else {
            if state.shutdown {
                return;
            }
            state = shared.work.wait(state).expect("service lock");
            continue;
        };
        shared.note_depth(state.queue.len());
        shared.space.notify_one();
        if !state.pool.is_serving(&job) {
            shared.telemetry.event_with("job.park", || {
                let mut fields = job_fields(&job);
                fields.push(("turn", job.turn.to_string()));
                fields
            });
            state.pool.park(job);
            continue;
        }
        let mut next = Some(job);
        while let Some(job) = next.take() {
            // Parked successors are discarded with the queue on shutdown.
            if state.shutdown {
                break;
            }
            (state, next) = run_turn(shared, state, job);
        }
    }
}

/// The trace fields identifying one scheduled job.
fn job_fields(sj: &ScheduledJob) -> Vec<(&'static str, String)> {
    vec![
        ("job", sj.id.to_string()),
        ("name", sj.job.name.clone()),
        ("capacity", sj.capacity.to_string()),
    ]
}

/// Runs `sj`, whose turn on its pool entry has come, records its outcome
/// and retires its ticket.  Takes and returns the service lock, releasing
/// it while the engine builds or solves; also returns the parked
/// successor the retired ticket releases, for the caller to run next.
fn run_turn<'a>(
    shared: &'a Shared,
    mut state: MutexGuard<'a, State>,
    sj: ScheduledJob,
) -> (MutexGuard<'a, State>, Option<ScheduledJob>) {
    let _span = shared
        .telemetry
        .span_with("job.execute", || job_fields(&sj));
    let fingerprint = sj.fingerprint;
    let mut built = false;

    // Admission-control timeout: refuse jobs that out-waited their budget
    // before spending any engine time on them.
    let queue_wait = sj.submitted_at.elapsed();
    let outcome = if sj.timeout.is_some_and(|limit| queue_wait > limit) {
        outcome_without_work(&sj, JobError::TimedOut { waited: queue_wait }, queue_wait)
    } else {
        match state.pool.checkout(fingerprint) {
            Checkout::Failed(error) => {
                outcome_without_work(&sj, JobError::Fabric(error), queue_wait)
            }
            Checkout::Warm(engine) => {
                drop(state);
                note_checkout(shared, &sj, "warm");
                let (engine, outcome) =
                    run_on_engine(&sj, engine, true, queue_wait, Duration::ZERO);
                state = shared.lock();
                state.pool.check_in(fingerprint, engine);
                outcome
            }
            Checkout::Cold => {
                drop(state);
                let build_start = Instant::now();
                match build_engine(&sj) {
                    Err(error) => {
                        let mut outcome =
                            outcome_without_work(&sj, JobError::Fabric(error.clone()), queue_wait);
                        outcome.work_elapsed = build_start.elapsed();
                        state = shared.lock();
                        state.pool.note_build_failure(fingerprint, error);
                        outcome
                    }
                    Ok(engine) => {
                        let rebuild = shared.lock().pool.note_build(fingerprint);
                        note_checkout(shared, &sj, if rebuild { "rebuild" } else { "cold" });
                        let (engine, outcome) =
                            run_on_engine(&sj, engine, false, queue_wait, build_start.elapsed());
                        state = shared.lock();
                        state.pool.check_in(fingerprint, engine);
                        built = true;
                        outcome
                    }
                }
            }
        }
    };
    let next = state.pool.retire(fingerprint);
    if built {
        // Enforce the cap before publishing the outcome, so a drained
        // caller observes the pool already within (or knowingly over) its
        // bound.
        state.pool.enforce_cap();
    }
    record(shared, outcome);
    (state, next)
}

/// Counts and traces one engine checkout; `slot` is `warm`, `cold` or
/// `rebuild`.
fn note_checkout(shared: &Shared, sj: &ScheduledJob, slot: &'static str) {
    if let Some(metrics) = &shared.metrics {
        match slot {
            "warm" => &metrics.warm_hits,
            "cold" => &metrics.cold_builds,
            _ => &metrics.rebuilds,
        }
        .inc();
    }
    shared.telemetry.event_with("engine.checkout", || {
        let mut fields = job_fields(sj);
        fields.push(("slot", slot.to_owned()));
        fields
    });
}

/// Builds the engine a job's fingerprint calls for: the fabric at the
/// range maximum, one template over the whole range.
fn build_engine(sj: &ScheduledJob) -> Result<Box<QueryEngine>, FabricError> {
    let system = sj.job.fabric.build_for_sweep(*sj.range.end())?;
    Ok(Box::new(QueryEngine::with_config(
        system,
        sj.job.config.clone(),
        sj.range.clone(),
    )))
}

/// Answers the job's query on a checked-out engine, panic-safely.  Returns
/// the engine (`None` when the query panicked and poisoned it) and the
/// outcome.
fn run_on_engine(
    sj: &ScheduledJob,
    mut engine: Box<QueryEngine>,
    warm: bool,
    queue_wait: Duration,
    build_elapsed: Duration,
) -> (Option<Box<QueryEngine>>, JobOutcome) {
    let started = Instant::now();
    let capacity = sj.capacity;
    let query = Query::new()
        .capacity(capacity)
        .target(sj.job.target)
        .invariants(sj.job.invariants);
    let attempt = catch_unwind(AssertUnwindSafe(move || {
        // A warm engine's cumulative stats belong to earlier jobs; the
        // delta below isolates this job's share.  The cold baseline is
        // zero so the builder job's delta keeps `templates_built == 1`.
        let baseline = if warm {
            engine.stats()
        } else {
            SessionStats::default()
        };
        let report = engine.check(&query);
        let delta = engine.stats().delta_since(&baseline);
        (engine, report, delta)
    }));
    let work_elapsed = build_elapsed + started.elapsed();
    let total = queue_wait + work_elapsed;
    let deadline_exceeded = sj.timeout.is_some_and(|limit| total > limit);
    match attempt {
        Ok((engine, report, delta)) => (
            Some(engine),
            JobOutcome {
                id: JobId(sj.id),
                name: sj.job.name.clone(),
                capacity,
                fingerprint: sj.fingerprint,
                result: Ok(report),
                queue_wait,
                work_elapsed,
                warm_hit: warm,
                deadline_exceeded,
                session_delta: Some(delta),
            },
        ),
        Err(panic) => (
            None,
            JobOutcome {
                id: JobId(sj.id),
                name: sj.job.name.clone(),
                capacity,
                fingerprint: sj.fingerprint,
                result: Err(JobError::EngineLost {
                    message: panic_message(&panic),
                }),
                queue_wait,
                work_elapsed,
                warm_hit: warm,
                deadline_exceeded,
                session_delta: None,
            },
        ),
    }
}

fn outcome_without_work(sj: &ScheduledJob, error: JobError, queue_wait: Duration) -> JobOutcome {
    JobOutcome {
        id: JobId(sj.id),
        name: sj.job.name.clone(),
        capacity: sj.capacity,
        fingerprint: sj.fingerprint,
        result: Err(error),
        queue_wait,
        work_elapsed: Duration::ZERO,
        warm_hit: false,
        deadline_exceeded: false,
        session_delta: None,
    }
}

fn record(shared: &Shared, outcome: JobOutcome) {
    if let Some(metrics) = &shared.metrics {
        metrics.queue_wait.observe(outcome.queue_wait);
        // The work histogram only counts jobs that actually ran (timed-out
        // and refused jobs never touched an engine).
        if outcome.session_delta.is_some() {
            metrics.work.observe(outcome.work_elapsed);
        }
        if let Some(delta) = &outcome.session_delta {
            metrics.live_learnts.set(delta.live_learnts as i64);
            metrics.total_learnts.set(delta.total_learnt as i64);
        }
    }
    let mut results = shared.results.lock().expect("result store lock");
    let id = outcome.id.0;
    results.slots[id as usize] = Slot::Ready(Box::new(outcome));
    results.ready.push_back(id);
    results.completed += 1;
    drop(results);
    shared.results_cv.notify_all();
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
