//! `advocatd`'s serving core: a bounded-accept HTTP front over one
//! [`Service`].
//!
//! The shape is deliberately boring: one accept thread hands sockets to
//! a **bounded** connection queue (full queue → immediate `503`, the
//! same no-hidden-buffering stance as the service's admission queue),
//! and a small pool of connection workers runs keep-alive loops with
//! per-connection read/write deadlines.  Service semantics map onto
//! status codes without translation loss:
//!
//! | Condition | Status |
//! |---|---|
//! | admission queue full | `429` + `Retry-After` |
//! | connection queue full | `503` + `Retry-After` |
//! | malformed JSON | `400` (body carries the byte offset) |
//! | job budget blown ([`JobError::TimedOut`]) | `504` |
//! | worker panic ([`JobError::EngineLost`]) | `500` |
//! | unbuildable fabric | `200` (a domain *result*, not a transport failure) |
//! | outcome not ready | `202` |
//! | outcome already consumed | `410` |
//! | unknown job id | `404` |
//!
//! Graceful drain (SIGTERM when opted in, or `POST /v1/shutdown`):
//! stop accepting, finish the request each connection is on, wait for
//! every accepted job to produce its outcome, flush telemetry sinks.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use advocat::service::{
    outcome_to_json, JobError, JobId, JobOutcome, JsonSubmitError, OutcomeError, Service,
};
use advocat_telemetry::{escape_into, Telemetry, TraceBuffer};

use crate::http::{read_request, ChunkedWriter, HttpError, Request, Response};
use crate::signal;

/// Tuning for a [`Server`].
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Connection-worker threads (concurrent HTTP exchanges).
    pub conn_workers: usize,
    /// Bound on sockets accepted but not yet picked up by a worker;
    /// beyond it new connections get an immediate `503`.
    pub accept_backlog: usize,
    /// Per-connection read deadline (also the keep-alive idle timeout).
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// How long [`Server::join`] waits for accepted jobs to finish.
    pub drain_timeout: Duration,
    /// Whether this server honors the process-global SIGTERM flag.
    /// Off by default: tests run many servers in one process, and one
    /// server's signal must not drain the others.
    pub on_sigterm: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            addr: "127.0.0.1:0".to_owned(),
            conn_workers: 4,
            accept_backlog: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(120),
            on_sigterm: false,
        }
    }
}

/// How often the accept loop re-checks the shutdown flags between
/// non-blocking accept attempts.
const ACCEPT_NAP: Duration = Duration::from_millis(10);
/// Chunk cadence of the trace stream: how long one `wait_drain` parks.
const TRACE_SLICE: Duration = Duration::from_millis(100);
/// Default and maximum client-requested wait budgets.
const DEFAULT_JOB_WAIT: Duration = Duration::ZERO;
const DEFAULT_BATCH_WAIT: Duration = Duration::from_secs(300);
const DEFAULT_TRACE_WAIT: Duration = Duration::from_millis(500);
const MAX_WAIT: Duration = Duration::from_secs(600);

struct AcceptQueue {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

struct Shared {
    service: Arc<Service>,
    telemetry: Telemetry,
    trace: Option<TraceBuffer>,
    queue: Mutex<AcceptQueue>,
    available: Condvar,
    /// Raised by `shutdown()`, `POST /v1/shutdown` or SIGTERM: the
    /// accept loop exits and keep-alive connections close after their
    /// current exchange.
    draining: AtomicBool,
    config: FrontendConfig,
}

impl Shared {
    fn drain_requested(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
            || (self.config.on_sigterm && signal::sigterm_pending())
    }
}

/// A running HTTP front-end over one verification service.
///
/// Dropping the server triggers a drain and waits for it; call
/// [`Server::join`] to do the same explicitly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `service`.
    ///
    /// `telemetry` should be the same handle the service was configured
    /// with: `/metrics` renders its registry, drain flushes its sinks,
    /// and `trace` (from [`Telemetry::ring`]) feeds `/v1/trace`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed bind.
    pub fn start(
        service: Arc<Service>,
        telemetry: Telemetry,
        trace: Option<TraceBuffer>,
        config: FrontendConfig,
    ) -> std::io::Result<Server> {
        if config.on_sigterm {
            signal::sigterm_flag();
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            service,
            telemetry,
            trace,
            queue: Mutex::new(AcceptQueue {
                conns: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            config: config.clone(),
        });

        let workers = (0..config.conn_workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || connection_worker(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the resolved port when `addr` asked for
    /// an ephemeral one).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain without waiting for it.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.available.notify_all();
    }

    /// Serves until a drain is requested — by [`Server::shutdown`],
    /// `POST /v1/shutdown`, or SIGTERM (when opted in) — then finishes
    /// it: accept loop down, connections closed after their current
    /// exchange, every accepted job completed (up to the drain
    /// timeout), sinks flushed.  Returns `false` when jobs were still
    /// running at the timeout.
    pub fn join(mut self) -> bool {
        self.drain()
    }

    /// The drain sequence; blocks until a drain has been requested
    /// (the accept loop only exits on one).
    fn drain(&mut self) -> bool {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let idle = self
            .shared
            .service
            .await_idle(self.shared.config.drain_timeout);
        self.shared.telemetry.flush();
        idle
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            // An implicit drop must not serve forever: request the
            // drain before waiting for it.
            self.shutdown();
            self.drain();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.drain_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                let mut queue = shared.queue.lock().expect("accept queue lock");
                if queue.conns.len() >= shared.config.accept_backlog {
                    drop(queue);
                    refuse_connection(stream, shared);
                } else {
                    queue.conns.push_back(stream);
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_NAP);
            }
            // Transient accept failures (per-connection resets and the
            // like); back off and keep serving.
            Err(_) => std::thread::sleep(ACCEPT_NAP),
        }
    }
    let mut queue = shared.queue.lock().expect("accept queue lock");
    queue.closed = true;
    drop(queue);
    shared.available.notify_all();
}

/// The accept queue is full: tell the client so before hanging up,
/// best-effort under a short deadline.
fn refuse_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = Response::json(503, "{\"error\":\"connection queue full\"}")
        .header("Retry-After", "1")
        .header("Connection", "close")
        .write_to(&mut stream);
}

fn connection_worker(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("accept queue lock");
            loop {
                if let Some(stream) = queue.conns.pop_front() {
                    break Some(stream);
                }
                if queue.closed {
                    break None;
                }
                queue = shared
                    .available
                    .wait_timeout(queue, ACCEPT_NAP)
                    .expect("accept queue lock")
                    .0;
            }
        };
        match stream {
            Some(stream) => handle_connection(stream, shared),
            None => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // NODELAY matters here: requests and responses are single small
    // writes, and Nagle vs delayed-ACK turns each exchange into a
    // ~40 ms round trip otherwise.
    if stream
        .set_read_timeout(Some(shared.config.read_timeout))
        .and(stream.set_write_timeout(Some(shared.config.write_timeout)))
        .and(stream.set_nodelay(true))
        .is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);

    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            // Clean EOF: the peer is done with the connection.
            Ok(None) => return,
            Err(HttpError::Io(_)) => return,
            Err(error @ (HttpError::Malformed(_) | HttpError::TooLarge(_))) => {
                let _ = Response::json(400, error_body(&error.to_string(), ""))
                    .header("Connection", "close")
                    .write_to(&mut writer);
                return;
            }
        };
        let close = request.wants_close() || shared.drain_requested();

        // The trace route streams chunks itself; everything else
        // produces one fixed-length response.
        if request.method == "GET" && request.path == "/v1/trace" {
            if stream_trace(&request, &mut writer, shared, close).is_err() {
                return;
            }
        } else {
            let mut response = route(&request, shared);
            if close {
                response = response.header("Connection", "close");
            }
            if response.write_to(&mut writer).is_err() {
                return;
            }
        }
        if close {
            return;
        }
    }
}

fn route(request: &Request, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => submit_jobs(request, shared),
        ("POST", "/v1/batch") => run_batch(request, shared),
        ("GET", path) if path.strip_prefix("/v1/jobs/").is_some() => {
            let id = path.strip_prefix("/v1/jobs/").expect("guard matched");
            poll_job(id, request, shared)
        }
        ("GET", "/metrics") => render_metrics(shared),
        ("GET", "/healthz") => Response::json(200, shared.service.stats().to_json()),
        ("POST", "/v1/shutdown") => {
            shared.draining.store(true, Ordering::Relaxed);
            shared.available.notify_all();
            Response::json(200, "{\"draining\":true}")
        }
        ("GET" | "POST", _) => Response::json(404, "{\"error\":\"no such route\"}"),
        _ => Response::json(405, "{\"error\":\"method not allowed\"}"),
    }
}

/// All-or-nothing admission of a request body's jobs (`POST /v1/jobs`
/// and `POST /v1/batch`), or the response refusing them: `400` for a
/// body that is not UTF-8 or not valid job JSON, `429` when the queue
/// lacks room for the whole set.
fn admit(request: &Request, shared: &Shared) -> Result<Vec<JobId>, Response> {
    let Some(body) = request.body_utf8() else {
        return Err(Response::json(
            400,
            "{\"error\":\"request body is not UTF-8\"}",
        ));
    };
    shared
        .service
        .try_submit_json(body)
        .map_err(|error| match error {
            JsonSubmitError::Json(error) => Response::json(
                400,
                error_body(&error.message, &format!(",\"offset\":{}", error.offset)),
            ),
            JsonSubmitError::QueueFull { jobs, capacity } => Response::json(
                429,
                format!("{{\"error\":\"queue full\",\"jobs\":{jobs},\"capacity\":{capacity}}}"),
            )
            .header("Retry-After", "1"),
        })
}

/// `POST /v1/jobs` — all-or-nothing admission of one request (or array
/// of requests); the response carries every admitted job id.
fn submit_jobs(request: &Request, shared: &Shared) -> Response {
    match admit(request, shared) {
        Ok(ids) => Response::json(200, ids_json(&ids)),
        Err(refusal) => refusal,
    }
}

/// `GET /v1/jobs/{id}` — polls for one outcome; `?wait_ms=` blocks.
fn poll_job(id: &str, request: &Request, shared: &Shared) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::json(400, "{\"error\":\"job id must be an integer\"}");
    };
    let wait = wait_param(request, DEFAULT_JOB_WAIT);
    let taken = if wait.is_zero() {
        shared.service.take_outcome(JobId(id))
    } else {
        shared.service.wait_outcome(JobId(id), Some(wait))
    };
    match taken {
        Err(OutcomeError::Unknown(_)) => {
            Response::json(404, format!("{{\"error\":\"unknown job id\",\"id\":{id}}}"))
        }
        Err(OutcomeError::Taken(_)) => Response::json(
            410,
            format!("{{\"error\":\"outcome already consumed\",\"id\":{id}}}"),
        ),
        Ok(None) => Response::json(202, format!("{{\"status\":\"pending\",\"id\":{id}}}")),
        Ok(Some(outcome)) => outcome_response(&outcome),
    }
}

/// `POST /v1/batch` — submit an array and wait for all of its outcomes,
/// reported in submission order.
fn run_batch(request: &Request, shared: &Shared) -> Response {
    let ids = match admit(request, shared) {
        Ok(ids) => ids,
        Err(refusal) => return refusal,
    };

    let deadline = Instant::now() + wait_param(request, DEFAULT_BATCH_WAIT);
    let mut outcomes = Vec::with_capacity(ids.len());
    for id in &ids {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match shared.service.wait_outcome(*id, Some(remaining)) {
            Ok(Some(outcome)) => outcomes.push(outcome_to_json(&outcome)),
            // Ran out of budget; the jobs keep running — hand back the
            // ids so the client can poll `/v1/jobs/{id}` individually.
            Ok(None) => {
                return Response::json(
                    504,
                    format!(
                        "{{\"error\":\"batch timed out\",\"ids\":{}}}",
                        ids_array(&ids)
                    ),
                )
            }
            Err(_) => {
                return Response::json(
                    500,
                    format!("{{\"error\":\"batch outcome lost\",\"id\":{}}}", id.0),
                )
            }
        }
    }
    Response::json(200, format!("[{}]", outcomes.join(",")))
}

/// `GET /metrics` — Prometheus text exposition.
fn render_metrics(shared: &Shared) -> Response {
    match shared.telemetry.metrics() {
        Some(registry) => Response::text(200, registry.render_prometheus()),
        None => Response::json(404, "{\"error\":\"telemetry is disabled on this server\"}"),
    }
}

/// `GET /v1/trace` — streams the telemetry ring as chunked JSON-lines
/// for the client's requested window (`?wait_ms=`, default 500 ms).
fn stream_trace(
    request: &Request,
    writer: &mut TcpStream,
    shared: &Shared,
    close: bool,
) -> std::io::Result<()> {
    let Some(trace) = &shared.trace else {
        let response = Response::json(404, "{\"error\":\"no trace ring on this server\"}");
        return if close {
            response.header("Connection", "close").write_to(writer)
        } else {
            response.write_to(writer)
        };
    };
    let deadline = Instant::now() + wait_param(request, DEFAULT_TRACE_WAIT);
    let extra: &[(&str, &str)] = if close {
        &[("Connection", "close")]
    } else {
        &[]
    };
    let mut chunked = ChunkedWriter::begin(writer, 200, "application/x-ndjson", extra)?;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let lines = trace.wait_drain(remaining.min(TRACE_SLICE));
        if !lines.is_empty() {
            let mut chunk = String::new();
            for line in &lines {
                chunk.push_str(line);
                chunk.push('\n');
            }
            chunked.chunk(chunk.as_bytes())?;
        }
        if shared.drain_requested() {
            break;
        }
    }
    chunked.finish()
}

/// Maps a finished job onto its transport status: transport-level
/// failures (budget blown, worker lost) get transport codes; a domain
/// verdict — including "this fabric cannot be built" — is a `200`.
fn outcome_response(outcome: &JobOutcome) -> Response {
    let status = match &outcome.result {
        Ok(_) | Err(JobError::Fabric(_)) => 200,
        Err(JobError::TimedOut { .. }) => 504,
        Err(JobError::EngineLost { .. }) => 500,
    };
    Response::json(status, outcome_to_json(outcome))
}

fn wait_param(request: &Request, default: Duration) -> Duration {
    request
        .query_param("wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(default, Duration::from_millis)
        .min(MAX_WAIT)
}

fn ids_json(ids: &[JobId]) -> String {
    format!("{{\"ids\":{}}}", ids_array(ids))
}

fn ids_array(ids: &[JobId]) -> String {
    let mut out = String::from("[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.0.to_string());
    }
    out.push(']');
    out
}

/// An error response body, `{"error":"<message>"<fields>}`, with the
/// message escaped; `fields` is either empty or starts with a comma.
fn error_body(message: &str, fields: &str) -> String {
    let mut body = String::from("{\"error\":\"");
    escape_into(&mut body, message);
    body.push('"');
    body.push_str(fields);
    body.push('}');
    body
}
