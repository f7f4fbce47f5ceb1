//! `service-http`: `advocatd` as a child process, driven over HTTP by
//! this process with at most two threads and two keep-alive clients.
//!
//! * set-up: spawn `advocatd --ring 0` until the first `200` from
//!   `/healthz`, several times; each of the last few instances serves one
//!   closed loop;
//! * phase A, closed loop: two connections send `POST /v1/batch` over a
//!   fixed job list until it is done (`study_s`, `jobs_per_s`: the loops'
//!   median, stretch by stretch between batch completions);
//! * traced run only: the last untraced instance also serves phase B, the
//!   open loop: one connection sends `POST /v1/jobs` on a fixed schedule,
//!   the other collects each outcome with `GET /v1/jobs/{id}?wait_ms=`;
//!   latency counts from each job's due time.  Then an `advocatd` with its
//!   default trace ring serves one more closed loop, the traced side of
//!   `trace.overhead_frac`.
//!
//! Every job is a single-capacity sweep of one pinned catalogue entry, with
//! Zipf-skewed counts per entry, and every outcome is checked against the
//! entry's pinned status.  The job mix is an assumption: no observed
//! traffic exists to take it from.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use advocat::prelude::{CheckConfig, Query, QueryEngine};
use advocat_frontend::{Client, ClientConfig};

use crate::expect::{catalogue, CatalogueEntry};
use crate::stats::{json_num, json_str, median, ms, peak_rss_mib, quantile, Rng, Trace};
use crate::{Args, Gate, Layers, Outcome, Summary};

/// Engines `advocatd` may keep warm: half the catalogue.
const MAX_ENGINES: usize = 16;
const WORKERS: usize = 2;
/// `advocatd` start-ups per run; `setup_s` is their median.  Each of the
/// last `LOOPS` serves one closed loop.  A start-up takes about 2 ms or
/// 12 ms, as the first `/healthz` beats the accept loop's first 10 ms nap
/// or not; many samples keep the median on the usual mode.
const SPAWNS: usize = 16;
const LOOPS: usize = 3;
/// Phase A: jobs in the closed loop, sent as batches of this size.
const CLOSED_JOBS: usize = 320;
const BATCH: usize = 8;
/// Phase B: jobs in the open loop, sent at a fixed rate of about a quarter
/// of the closed loop's throughput.  At half of it, cold builds queue up
/// warm jobs often enough that the median flips between the warm path and
/// the queue.  With 200 samples, p95 has 10 beyond it.
const OPEN_JOBS: usize = 200;
const OPEN_RATE_PER_S: f64 = 10.0;
/// Zipf exponent of the catalogue draw, assumed rather than observed.
const SKEW: f64 = 0.8;
const WAIT_MS: u64 = 30_000;

/// A running `advocatd` child; killed and reaped if dropped early.
struct Daemon {
    child: Child,
    // Held open so the daemon's final log line has a reader.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `advocatd` and waits for its first healthy `/healthz`;
    /// returns the daemon and how long that took.
    fn spawn(path: &Path, traced: bool) -> (Daemon, Duration) {
        let start = Instant::now();
        let mut command = Command::new(path);
        command.args(["--addr", "127.0.0.1:0"]);
        command.args(["--workers", &WORKERS.to_string()]);
        command.args(["--max-engines", &MAX_ENGINES.to_string()]);
        if !traced {
            command.args(["--ring", "0"]);
        }
        let mut child = command
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", path.display()));
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("advocatd prints its address");
        let addr = line
            .trim()
            .strip_prefix("advocatd listening on ")
            .unwrap_or_else(|| panic!("unexpected advocatd greeting {line:?}"))
            .to_owned();
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let mut client = daemon.client();
        while client.health().map(|e| e.status).ok() != Some(200) {
            std::thread::sleep(Duration::from_millis(1));
        }
        (daemon, start.elapsed())
    }

    fn client(&self) -> Client {
        Client::connect(self.addr.clone(), ClientConfig::default()).expect("advocatd accepts")
    }

    fn health(&self) -> String {
        self.client().health().expect("healthz answers").body
    }

    /// Drains the daemon and reaps it.
    fn stop(mut self) {
        let _ = self.client().shutdown();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One job's outcome as the client saw it.
struct Answer {
    latency_ms: f64,
    wire_ms: f64,
    queue_wait_ms: f64,
    work_ms: f64,
    warm: bool,
}

/// Checks each outcome object of a response against the catalogue;
/// returns queue wait, work time and warm flag of each.
fn check_outcomes(
    status: u16,
    body: &str,
    expected: usize,
    entries: &[CatalogueEntry],
    gate: &Mutex<Gate>,
) -> Vec<(f64, f64, bool)> {
    let mut gate = gate.lock().expect("gate lock");
    if status != 200 {
        for _ in 0..expected {
            gate.check(false, || format!("HTTP {status}: {body}"));
        }
        return Vec::new();
    }
    let objects: Vec<&str> = body.split("{\"id\":").skip(1).collect();
    if objects.len() != expected {
        gate.check(false, || {
            format!("expected {expected} outcomes, got {}", objects.len())
        });
    }
    objects
        .into_iter()
        .map(|object| {
            let name = json_str(object, "name").unwrap_or("");
            let status = json_str(object, "status").unwrap_or("");
            let want = name
                .strip_prefix('c')
                .and_then(|i| i.parse::<usize>().ok())
                .and_then(|i| entries.get(i))
                .map_or("(unknown job)", CatalogueEntry::status);
            gate.check(status == want, || {
                format!("job {name}: expected {want}, got {status}")
            });
            (
                json_num(object, "queue_wait_ms").unwrap_or(0.0),
                json_num(object, "work_elapsed_ms").unwrap_or(0.0),
                object.contains("\"warm_hit\":true"),
            )
        })
        .collect()
}

/// `n` catalogue indices with Zipf-skewed counts, ranked in catalogue
/// order.  The counts are fixed; the seed only orders the jobs, so every
/// seed asks the same mix.
fn draw(rng: &mut Rng, n: usize, entries: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..entries)
        .map(|r| 1.0 / ((r + 1) as f64).powf(SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut jobs = Vec::with_capacity(n);
    let mut owed = 0.0;
    for (rank, weight) in weights.iter().enumerate() {
        owed += n as f64 * weight / total;
        while (jobs.len() as f64) < owed.round() {
            jobs.push(rank);
        }
    }
    jobs.truncate(n);
    rng.shuffle(&mut jobs);
    jobs
}

/// Phase A: two connections work through the batches; returns the time
/// from the first request to each batch's verdicts, in completion order.
/// The last is the loop's wall time.
fn closed_loop(
    daemon: &Daemon,
    requests: &[String],
    entries: &[CatalogueEntry],
    gate: &Mutex<Gate>,
) -> Vec<f64> {
    let batches: Vec<(String, usize)> = requests
        .chunks(BATCH)
        .map(|chunk| (format!("[{}]", chunk.join(",")), chunk.len()))
        .collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(batches.len()));
    let start = Instant::now();
    let connection = || {
        let mut client = daemon.client();
        while let Some((body, len)) = batches.get(next.fetch_add(1, Ordering::Relaxed)) {
            let exchange = client.batch(body, WAIT_MS).expect("batch exchange");
            check_outcomes(exchange.status, &exchange.body, *len, entries, gate);
            let elapsed = start.elapsed().as_secs_f64();
            done.lock().expect("completion lock").push(elapsed);
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(connection);
        connection();
    });
    let mut done = done.into_inner().expect("completion lock");
    done.sort_by(f64::total_cmp);
    done
}

/// The closed loops' wall time, steadied against the host's slow spells:
/// each stretch between the k-th and (k+1)-th batch completion takes its
/// median over the loops, and the stretches are summed.
fn median_loop_s(loops: &[Vec<f64>]) -> f64 {
    (0..loops[0].len())
        .map(|k| {
            let stretches: Vec<f64> = loops
                .iter()
                .map(|done| done[k] - if k == 0 { 0.0 } else { done[k - 1] })
                .collect();
            median(&stretches)
        })
        .sum()
}

/// Phase B: a submitter on a fixed schedule and a collector.  Returns the
/// answers and the submitter's lateness per job, in ms.
///
/// Latency runs from a job's due time until the collector holds its
/// result, less any head-of-line wait: how long after the result was ready
/// the in-order collector asked for it.  A result is taken to be ready at
/// the submission's acknowledgement plus the outcome's `queue_wait_ms` and
/// `work_elapsed_ms`.  A job whose result the collector was already waiting
/// for is so timed end to end, result delivery included.
fn open_loop(
    daemon: &Daemon,
    requests: &[String],
    entries: &[CatalogueEntry],
    gate: &Mutex<Gate>,
) -> (Vec<Answer>, Vec<f64>) {
    let (tx, rx) = mpsc::channel::<(Option<u64>, Instant, Instant, Instant)>();
    let start = Instant::now() + Duration::from_millis(20);
    let mut lags = Vec::new();
    let mut answers = Vec::new();
    std::thread::scope(|scope| {
        let lags = &mut lags;
        scope.spawn(move || {
            let mut client = daemon.client();
            for (i, request) in requests.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE_PER_S);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                lags.push(ms(sent - due));
                let id = match client.submit(request).expect("submit exchange") {
                    Ok(ids) => ids.first().copied(),
                    Err(refused) => {
                        let mut gate = gate.lock().expect("gate lock");
                        gate.check(false, || {
                            format!("submit refused: HTTP {} {}", refused.status, refused.body)
                        });
                        None
                    }
                };
                tx.send((id, due, sent, Instant::now()))
                    .expect("collector alive");
            }
        });
        let mut client = daemon.client();
        for (id, due, sent, acked) in rx {
            let Some(id) = id else { continue };
            let asked = Instant::now();
            let exchange = loop {
                let exchange = client.wait(id, WAIT_MS).expect("wait exchange");
                if exchange.status != 202 {
                    break exchange;
                }
            };
            let received = Instant::now();
            let outcomes = check_outcomes(exchange.status, &exchange.body, 1, entries, gate);
            for (queue_wait_ms, work_ms, warm) in outcomes {
                let ready = acked + Duration::from_secs_f64((queue_wait_ms + work_ms) / 1e3);
                let head_of_line = asked.saturating_duration_since(ready);
                let latency_ms = ms((received - due).saturating_sub(head_of_line));
                answers.push(Answer {
                    latency_ms,
                    wire_ms: latency_ms - ms(sent - due) - queue_wait_ms - work_ms,
                    queue_wait_ms,
                    work_ms,
                    warm,
                });
            }
        }
    });
    (answers, lags)
}

/// The healthz pool counter `key`.
fn pool_count(health: &str, key: &str) -> u64 {
    json_num(health, key).unwrap_or(0.0) as u64
}

pub fn run(args: &Args) -> Outcome {
    let entries = catalogue();
    let requests = |rng: &mut Rng, n| -> Vec<String> {
        draw(rng, n, entries.len())
            .into_iter()
            .map(|i| entries[i].request_json(&format!("c{i}")))
            .collect()
    };
    // The closed loop is one fixed input, so `study_s` compares like with
    // like across seeds: its order decides how many engines LRU evicts and
    // rebuilds.  The seed orders the open loop.
    let closed = requests(&mut Rng::new(0), CLOSED_JOBS);
    let open = requests(&mut Rng::new(args.seed), OPEN_JOBS);

    // Every user-facing figure comes from untraced daemons.
    let gate = Mutex::new(Gate::default());
    let mut setups = Vec::new();
    let mut studies = Vec::new();
    let mut peak_rss = Vec::new();
    let mut healths = Vec::new();
    let (mut answers, mut lags) = (Vec::new(), Vec::new());
    for spawn in 0..SPAWNS {
        let (daemon, setup) = Daemon::spawn(&args.advocatd, false);
        setups.push(setup.as_secs_f64());
        if spawn + LOOPS >= SPAWNS {
            studies.push(closed_loop(&daemon, &closed, &entries, &gate));
            healths.push(daemon.health());
            peak_rss.push(peak_rss_mib(&daemon.child.id().to_string()));
            if args.trace && spawn + 1 == SPAWNS {
                (answers, lags) = open_loop(&daemon, &open, &entries, &gate);
            }
        }
        daemon.stop();
    }
    let traced_study = args.trace.then(|| {
        let (daemon, _) = Daemon::spawn(&args.advocatd, true);
        let done = closed_loop(&daemon, &closed, &entries, &gate);
        daemon.stop();
        done[done.len() - 1]
    });
    let mut gate = gate.into_inner().expect("gate lock");
    println!("advocatd start-ups (s): {setups:.5?}");
    for (i, (done, health)) in studies.iter().zip(&healths).enumerate() {
        println!(
            "closed loop {}: {CLOSED_JOBS} jobs in {:.4} s; healthz after it: {health}",
            i + 1,
            done[done.len() - 1]
        );
    }
    if let Some(traced) = traced_study {
        println!(
            "closed loop on a traced advocatd: {traced:.4} s; open loop: {} answers at \
             {OPEN_RATE_PER_S}/s",
            answers.len()
        );
    }

    let study = median_loop_s(&studies);
    let summary = Summary {
        setup_s: median(&setups),
        study_s: study,
        jobs_per_s: CLOSED_JOBS as f64 / study,
        latencies_ms: answers.iter().map(|a| a.latency_ms).collect(),
        peak_rss_mb: median(&peak_rss),
    };
    let counts = healths
        .iter()
        .map(|h| vec![("service.engines_built", pool_count(h, "engines_built"))])
        .collect();
    let metrics = summary.into_metrics(traced_study.map(|traced| {
        // Pool figures after the closed loop of the daemon that then
        // served the open loop.
        let health = &healths[LOOPS - 1];
        let mut layers = catalogue_layers(&entries, &mut gate);
        let pick = |f: fn(&Answer) -> f64, warm: Option<bool>| {
            let values: Vec<f64> = answers
                .iter()
                .filter(|a| warm.is_none_or(|w| a.warm == w))
                .map(f)
                .collect();
            if values.is_empty() {
                0.0
            } else {
                median(&values)
            }
        };
        layers.service_engines_built = pool_count(health, "engines_built");
        layers.service_evictions = pool_count(health, "evictions");
        layers.service_warm_ratio = json_num(health, "warm_hit_rate").unwrap_or(0.0);
        layers.queue_wait_p50_ms = pick(|a| a.queue_wait_ms, None);
        layers.work_warm_p50_ms = pick(|a| a.work_ms, Some(true));
        layers.work_cold_p50_ms = pick(|a| a.work_ms, Some(false));
        layers.wire_p50_ms = pick(|a| a.wire_ms, None);
        layers.lag_p95_ms = quantile(&lags, 0.95);
        layers.overhead_frac = traced / study - 1.0;
        layers
    }));
    Outcome {
        gate,
        metrics,
        counts,
    }
}

/// The layers below the service, taken in-process: every catalogue
/// fingerprint built and answered cold, as a pool miss would, traced.
fn catalogue_layers(entries: &[CatalogueEntry], gate: &mut Gate) -> Layers {
    let mut layers = Layers::default();
    let (telemetry, mut trace) = Trace::new(true);
    let mut config = CheckConfig::default();
    config.solver.telemetry = telemetry;
    for entry in entries {
        let fabric = entry.config();
        layers.time_fabric(&fabric, entry.capacity);
        let mut engine =
            QueryEngine::for_fabric_with(&fabric, config.clone(), entry.capacity..=entry.capacity)
                .expect("catalogue fabrics build");
        layers.invariants += engine.invariants().len() as u64;
        let start = Instant::now();
        let report = engine.check(&Query::new().capacity(entry.capacity));
        let wall = start.elapsed();
        trace.drain();
        layers.atoms += report.analysis().stats.linear_atoms as u64;
        layers.absorb_report(&report, wall);
        gate.check(report.is_deadlock_free() == entry.free, || {
            format!("in-process {entry:?}: got {:?}", report.verdict())
        });
    }
    layers.template_ms = trace.total_ms("template.build");
    layers
}
