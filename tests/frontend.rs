//! The HTTP front-end, exercised over real sockets: concurrency against
//! the in-process reference, admission refusals, graceful drain,
//! Prometheus validity and the trace stream.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use advocat::prelude::*;
use advocat::service::validate_json;
use advocat_frontend::{Client, ClientConfig, FrontendConfig, Server};

/// One front-end over one service, with a telemetry ring.
struct Harness {
    service: Arc<Service>,
    telemetry: Telemetry,
    server: Server,
}

fn start(service_config: ServiceConfig, frontend: FrontendConfig) -> Harness {
    let (telemetry, trace) = Telemetry::ring(8192);
    let service = Arc::new(Service::new(
        service_config.with_telemetry(telemetry.clone()),
    ));
    let server = Server::start(
        Arc::clone(&service),
        telemetry.clone(),
        Some(trace),
        frontend,
    )
    .expect("ephemeral bind");
    Harness {
        service,
        telemetry,
        server,
    }
}

fn client_for(server: &Server) -> Client {
    Client::connect(server.addr().to_string(), ClientConfig::default()).expect("server is up")
}

/// Extracts `"key":"value"` from one of our JSON bodies, unescaping the
/// value (enough of JSON string syntax for our own wire format).
fn str_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = body[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            ch => out.push(ch),
        }
    }
}

/// 16 concurrent TCP clients, each with its own fingerprint (a distinct
/// non-binding `theory_node_budget`, so every client cold-builds exactly
/// like the reference), produce the same verdicts and byte-identical
/// counterexample witnesses as one in-process engine per client over the
/// same fabric, range and budget, asked the same capacities in order.
#[test]
fn sixteen_concurrent_clients_match_one_in_process_engine_each() {
    const CLIENTS: usize = 16;
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);

    // In-process reference: one engine per client, same budgets.
    let expected: Vec<Vec<(usize, bool, Option<String>)>> = (0..CLIENTS)
        .map(|k| {
            let config = CheckConfig {
                theory_node_budget: 1_000_000 + k as u64,
                ..CheckConfig::default()
            };
            let mut engine = QueryEngine::for_fabric_with(&mesh, config, 2..=3).unwrap();
            (2..=3)
                .map(|capacity| {
                    let report = engine.check(&Query::new().capacity(capacity));
                    (
                        capacity,
                        report.is_deadlock_free(),
                        report.counterexample().map(ToString::to_string),
                    )
                })
                .collect()
        })
        .collect();

    let harness = start(
        ServiceConfig::default().with_workers(4),
        FrontendConfig::default(),
    );
    let addr = harness.server.addr().to_string();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Vec<(usize, bool, Option<String>)> {
                let mut client =
                    Client::connect(addr, ClientConfig::default()).expect("server is up");
                let request = format!(
                    "{{\"name\":\"client-{k}\",\
                      \"topology\":{{\"kind\":\"mesh\",\"width\":2,\"height\":2}},\
                      \"queue_size\":2,\"directory\":3,\"capacities\":[2,3],\
                      \"theory_node_budget\":{}}}",
                    1_000_000 + k
                );
                let ids = client
                    .submit(&request)
                    .expect("transport")
                    .expect("admission");
                assert_eq!(ids.len(), 2, "one job per capacity");
                ids.iter()
                    .map(|id| {
                        let exchange = client.wait(*id, 120_000).expect("transport");
                        assert_eq!(exchange.status, 200, "{}", exchange.body);
                        let capacity: usize = exchange
                            .body
                            .split("\"capacity\":")
                            .nth(1)
                            .and_then(|rest| rest.split(',').next().and_then(|n| n.parse().ok()))
                            .expect("capacity field");
                        let status = str_field(&exchange.body, "status").expect("status field");
                        let witness = str_field(&exchange.body, "witness");
                        assert!(
                            status == "deadlock-free" || status == "potential-deadlock",
                            "unexpected status {status}"
                        );
                        (capacity, status == "deadlock-free", witness)
                    })
                    .collect()
            })
        })
        .collect();

    for (k, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("client thread");
        assert_eq!(
            got, expected[k],
            "client {k}: live verdicts/witnesses must match the in-process engine"
        );
    }

    harness.server.shutdown();
    assert!(harness.server.join(), "drain completes");
}

/// Satellite acceptance: a submit that exceeds the admission queue is a
/// `429` with a `Retry-After`, and is all-or-nothing — no partial sweep
/// is left behind.
#[test]
fn overflowing_the_admission_queue_answers_429_with_retry_after() {
    let harness = start(
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(4),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);

    // Eight jobs against a four-slot queue: refused atomically, no
    // matter how idle the service is.
    let request = "{\"name\":\"too-wide\",\
                    \"topology\":{\"kind\":\"ring\",\"nodes\":3},\
                    \"queue_size\":1,\"capacities\":[1,8]}";
    let exchange = client
        .submit(request)
        .expect("transport")
        .expect_err("refused");
    assert_eq!(exchange.status, 429, "{}", exchange.body);
    assert_eq!(exchange.header("retry-after"), Some("1"));
    assert!(
        exchange.body.contains("\"capacity\":4"),
        "{}",
        exchange.body
    );
    assert_eq!(
        harness.service.stats().submitted,
        0,
        "all-or-nothing: a refused sweep admits nothing"
    );

    // The same shape within the bound is accepted.
    let ok = client
        .submit(
            "{\"name\":\"fits\",\"topology\":{\"kind\":\"ring\",\"nodes\":3},\
              \"queue_size\":1,\"capacities\":[1,2]}",
        )
        .expect("transport")
        .expect("admitted");
    assert_eq!(ok.len(), 2);

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// A sweep of four billion capacities is counted from its range, not
/// expanded: the daemon answers `429` with the full job count, admits
/// nothing, and keeps serving.
#[test]
fn a_four_billion_capacity_sweep_answers_429_without_expanding() {
    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);

    let exchange = client
        .submit(
            "{\"name\":\"wide\",\"topology\":{\"kind\":\"mesh\",\"width\":2,\"height\":2},\
              \"capacities\":[1,4000000000]}",
        )
        .expect("transport")
        .expect_err("refused");
    assert_eq!(exchange.status, 429, "{}", exchange.body);
    assert_eq!(exchange.header("retry-after"), Some("1"));
    assert!(
        exchange.body.contains("\"jobs\":4000000000")
            && exchange.body.contains("\"capacity\":1024"),
        "{}",
        exchange.body
    );
    assert_eq!(harness.service.stats().submitted, 0);

    let health = client.health().expect("transport");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"pending\":0"), "{}", health.body);

    // The daemon still admits a sweep that fits.
    let ids = client
        .submit(
            "{\"name\":\"fits\",\"topology\":{\"kind\":\"ring\",\"nodes\":3},\
              \"queue_size\":1,\"capacities\":[1,2]}",
        )
        .expect("transport")
        .expect("admitted");
    assert_eq!(ids.len(), 2);

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// Satellite acceptance: SIGTERM starts a graceful drain — the server
/// stops accepting, but every job accepted before the signal still
/// produces its outcome.
#[test]
fn sigterm_drains_without_losing_accepted_jobs() {
    let harness = start(
        ServiceConfig::default().with_workers(2),
        FrontendConfig {
            on_sigterm: true,
            ..FrontendConfig::default()
        },
    );
    let mut client = client_for(&harness.server);

    let ids = client
        .submit(
            "{\"name\":\"pre-sigterm\",\
              \"topology\":{\"kind\":\"mesh\",\"width\":2,\"height\":2},\
              \"queue_size\":2,\"directory\":3,\"capacities\":[1,3]}",
        )
        .expect("transport")
        .expect("admitted");
    assert_eq!(ids.len(), 3);

    // Deliver a real SIGTERM to ourselves; the handler only sets the
    // flag, and only servers with `on_sigterm` honor it.
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());

    let addr = harness.server.addr();
    assert!(
        harness.server.join(),
        "drain finishes every accepted job within the timeout"
    );
    for id in ids {
        let outcome = harness
            .service
            .wait_outcome(JobId(id), Some(Duration::ZERO))
            .expect("id stays known")
            .expect("job completed during the drain");
        assert!(outcome.result.is_ok(), "job ran to a verdict");
    }
    // The listener is down: a fresh connection cannot be established.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "drained server no longer accepts"
    );
}

/// The accept thread blocks in `accept`, so a drain has to wake it: a
/// server no client ever connected to still returns from `shutdown()`
/// and `join()`.
#[test]
fn an_idle_server_drains_without_any_connection() {
    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig::default(),
    );
    let (done, drained) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        harness.server.shutdown();
        let _ = done.send(harness.server.join());
    });
    let idle = drained
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown and join of a server nobody connected to hung");
    assert!(idle, "no job was ever accepted");
    joiner.join().expect("the joining thread");
}

/// A request line that never ends is refused once it outgrows the 16 KiB
/// head budget: one byte past it gets a `400` at once, instead of a
/// buffer that grows for as long as the client keeps sending.
#[test]
fn an_unterminated_request_line_is_refused_at_the_head_limit() {
    use std::io::{Read, Write};

    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig::default(),
    );
    let mut stream = std::net::TcpStream::connect(harness.server.addr()).expect("server is up");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read deadline");
    stream
        .write_all(&vec![b'A'; 16 * 1024 + 1])
        .expect("the line is sent");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("the server answers and closes within the deadline");
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(
        response.contains("request head exceeds the front-end's limit"),
        "{response}"
    );

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// A request must arrive whole within `read_timeout` of its first byte.
/// Four clients, one per connection worker, each send a head that never
/// ends at one byte per 100 ms: the server closes each of them at its
/// 500 ms deadline, and `/healthz` is answered meanwhile.  With the
/// deadline applied to each read instead, the four would hold every
/// worker for as long as they kept sending.
#[test]
fn slow_requests_lose_their_connection_at_the_read_deadline() {
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    const GIVE_UP: Duration = Duration::from_secs(5);
    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig {
            read_timeout: Duration::from_millis(500),
            ..FrontendConfig::default()
        },
    );
    assert_eq!(FrontendConfig::default().conn_workers, 4);
    let slow: Vec<_> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(harness.server.addr()).expect("server is up");
            std::thread::spawn(move || {
                stream
                    .set_read_timeout(Some(Duration::from_millis(100)))
                    .expect("read deadline");
                let started = Instant::now();
                let head = b"GET /healthz HTTP/1.1\r\nX-Slow: ".iter();
                for &byte in head.chain(std::iter::repeat(&b'a')) {
                    if started.elapsed() > GIVE_UP {
                        return None;
                    }
                    if stream.write_all(&[byte]).is_err() {
                        return Some(started.elapsed());
                    }
                    match stream.read(&mut [0; 512]) {
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                        Ok(0) | Err(_) => return Some(started.elapsed()),
                        Ok(_) => panic!("an unfinished request was answered"),
                    }
                }
                unreachable!("the head never ends")
            })
        })
        .collect();

    // Let every worker pick up a slow connection first.
    std::thread::sleep(Duration::from_millis(200));
    let asked = Instant::now();
    let health = client_for(&harness.server).health().expect("transport");
    let answered = asked.elapsed();
    assert_eq!(health.status, 200);
    assert!(
        answered < Duration::from_secs(2),
        "/healthz took {answered:?} behind four slow clients"
    );
    for client in slow {
        let closed = client.join().expect("slow client");
        assert!(
            closed.is_some_and(|after| after < Duration::from_secs(2)),
            "a slow connection stayed open: {closed:?}"
        );
    }

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// Satellite acceptance: `/metrics` is valid Prometheus text exposition
/// — HELP/TYPE lines per family, parseable sample values, and
/// cumulative (nondecreasing) histogram buckets.
#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let harness = start(
        ServiceConfig::default().with_workers(2),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);
    let batch = client
        .batch(
            "[{\"name\":\"warm\",\"topology\":{\"kind\":\"ring\",\"nodes\":3},\
               \"queue_size\":1,\"capacities\":[1,2]}]",
            120_000,
        )
        .expect("transport");
    assert_eq!(batch.status, 200, "{}", batch.body);

    let exchange = client.metrics().expect("transport");
    assert_eq!(exchange.status, 200);
    assert!(exchange
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));

    let mut typed = std::collections::HashMap::new();
    let mut last_bucket: Option<(String, f64, f64)> = None;
    for line in exchange.body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("metric name").to_owned();
            let kind = parts.next().expect("metric kind").to_owned();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown TYPE {kind}"
            );
            typed.insert(name, kind);
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "bad comment line `{line}`");
            continue;
        }
        // Sample line: name{labels} value
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable sample value in `{line}`");
        });
        let name = series.split('{').next().expect("series name");
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            typed.contains_key(family) || typed.contains_key(name),
            "sample `{name}` has no TYPE line"
        );
        if name.ends_with("_bucket") {
            let le = series
                .split("le=\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .expect("bucket has le");
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("numeric le")
            };
            if let Some((prev_family, prev_bound, prev_count)) = &last_bucket {
                if prev_family == family {
                    assert!(*prev_bound < bound, "buckets ascend in `{line}`");
                    assert!(*prev_count <= value, "buckets are cumulative in `{line}`");
                }
            }
            last_bucket = Some((family.to_owned(), bound, value));
        } else {
            last_bucket = None;
        }
    }
    assert!(
        typed.contains_key("service_job_work_seconds"),
        "service histograms are exported"
    );

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// `/v1/trace` streams the telemetry ring as chunked JSON lines, every
/// one of them well-formed.
#[test]
fn trace_endpoint_streams_wellformed_json_lines() {
    let harness = start(
        ServiceConfig::default().with_workers(2),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);
    let batch = client
        .batch(
            "{\"name\":\"traced\",\"topology\":{\"kind\":\"ring\",\"nodes\":3},\
              \"queue_size\":1,\"capacities\":[1,1]}",
            120_000,
        )
        .expect("transport");
    assert_eq!(batch.status, 200, "{}", batch.body);

    let exchange = client.trace(400).expect("transport");
    assert_eq!(exchange.status, 200);
    let lines: Vec<&str> = exchange.body.lines().collect();
    assert!(!lines.is_empty(), "a verified job leaves trace records");
    for line in &lines {
        validate_json(line).unwrap_or_else(|error| {
            panic!("trace line is not valid JSON: {error}\n{line}");
        });
        assert!(line.contains("\"type\":\""), "schema field missing: {line}");
    }

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// `/healthz` serves the service's own stats snapshot, and the error
/// mapping holds: 400 with a byte offset for malformed JSON, 404 for
/// unknown ids, 202 for pending, 410 for consumed outcomes.
#[test]
fn healthz_and_error_mapping_cover_the_service_semantics() {
    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);

    // Malformed payload: a position-carrying 400.
    let refused = client
        .submit("{\"name\": \"unterminated")
        .expect("transport")
        .expect_err("malformed");
    assert_eq!(refused.status, 400);
    assert!(refused.body.contains("\"offset\":"), "{}", refused.body);

    // Unknown id.
    let unknown = client.wait(999, 0).expect("transport");
    assert_eq!(unknown.status, 404);

    // A real job: an instant poll answers 202 while the job is still
    // running (or 200 if it already finished — scheduling is not ours
    // to pin), a blocking wait hands the outcome over exactly once,
    // and re-fetching is 410.
    let ids = client
        .submit(
            "{\"name\":\"health\",\"topology\":{\"kind\":\"ring\",\"nodes\":3},\
              \"queue_size\":1,\"capacities\":[1,1]}",
        )
        .expect("transport")
        .expect("admitted");
    let poll = client.wait(ids[0], 0).expect("transport");
    assert!(
        poll.status == 202 || poll.status == 200,
        "instant poll is pending or done, got {}: {}",
        poll.status,
        poll.body
    );
    if poll.status == 202 {
        let done = client.wait(ids[0], 120_000).expect("transport");
        assert_eq!(done.status, 200, "{}", done.body);
    }
    let gone = client.wait(ids[0], 0).expect("transport");
    assert_eq!(gone.status, 410, "{}", gone.body);

    // The snapshot over the wire equals the in-process one.
    let health = client.health().expect("transport");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, harness.service.stats().to_json());
    assert!(health.body.contains("\"completed\":1"), "{}", health.body);

    // And the registry agrees with the snapshot it summarises.
    let registry = harness.telemetry.metrics().expect("ring enables metrics");
    assert!(
        registry
            .render_prometheus()
            .contains("service_queue_depth 0"),
        "drained queue gauge reads zero"
    );

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// An exhausted refinement budget crosses the wire as an explicit status:
/// `GET /v1/jobs/{id}` answers 200 with `"status":"unknown"` for every
/// job of a `"max_refinements":0` request, never a verdict.
#[test]
fn an_exhausted_budget_is_unknown_over_http() {
    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);
    let ids = client
        .submit(
            "{\"name\":\"no budget\",\"topology\":{\"kind\":\"mesh\",\"width\":2,\"height\":2},\
              \"queue_size\":2,\"directory\":3,\"capacities\":[2,3],\"max_refinements\":0}",
        )
        .expect("transport")
        .expect("admitted");
    assert_eq!(ids.len(), 2, "one job per capacity");
    for id in ids {
        let done = client.wait(id, 120_000).expect("transport");
        assert_eq!(done.status, 200, "{}", done.body);
        assert_eq!(
            str_field(&done.body, "status").as_deref(),
            Some("unknown"),
            "{}",
            done.body
        );
    }

    harness.server.shutdown();
    assert!(harness.server.join());
}

/// A spent theory node budget crosses the wire the same way: with
/// `"theory_node_budget":0` the theory check that would decide a model or
/// explain a refutation has no node to spend, and every job of the request
/// answers `"status":"unknown"`.
#[test]
fn a_spent_theory_budget_is_unknown_over_http() {
    let harness = start(
        ServiceConfig::default().with_workers(1),
        FrontendConfig::default(),
    );
    let mut client = client_for(&harness.server);
    let ids = client
        .submit(
            "{\"name\":\"no theory budget\",\"topology\":{\"kind\":\"mesh\",\"width\":2,\"height\":2},\
              \"queue_size\":2,\"directory\":3,\"capacities\":[2,3],\"theory_node_budget\":0}",
        )
        .expect("transport")
        .expect("admitted");
    assert_eq!(ids.len(), 2, "one job per capacity");
    for id in ids {
        let done = client.wait(id, 120_000).expect("transport");
        assert_eq!(done.status, 200, "{}", done.body);
        assert_eq!(
            str_field(&done.body, "status").as_deref(),
            Some("unknown"),
            "{}",
            done.body
        );
    }

    harness.server.shutdown();
    assert!(harness.server.join());
}
