//! E11 — the HTTP front-end's overhead over the in-process service.
//!
//! The same warm single-job round trip is measured three ways: straight
//! against [`Service`] (`submit` + `drain`), over a live socket through
//! the blocking [`Client`] (`POST /v1/jobs` + `GET /v1/jobs/{id}`), and
//! as a one-request batch (`POST /v1/batch`).  The spread between the
//! first two is the whole cost of the wire: HTTP framing, one TCP round
//! trip per call, and the outcome registry instead of the drain path.

use std::sync::Arc;
use std::time::Instant;

use advocat::prelude::*;
use advocat_frontend::{Client, ClientConfig, FrontendConfig, Server};
use criterion::{criterion_group, Criterion};

const WARM_REQUEST: &str = "{\"name\":\"warm\",\
    \"topology\":{\"kind\":\"mesh\",\"width\":2,\"height\":2},\
    \"queue_size\":2,\"directory\":3,\"capacities\":[2,2]}";

fn print_comparison() {
    // One shared warm service behind a live server.
    let service = Arc::new(Service::new(ServiceConfig::default().with_workers(2)));
    let server = Server::start(
        Arc::clone(&service),
        Telemetry::disabled(),
        None,
        FrontendConfig::default(),
    )
    .expect("ephemeral bind");
    let mut client =
        Client::connect(server.addr().to_string(), ClientConfig::default()).expect("connect");

    // Prime the pool so every measured trip is warm.
    service.try_submit_json(WARM_REQUEST).expect("prime");
    service.drain();

    const TRIPS: usize = 40;
    let start = Instant::now();
    for _ in 0..TRIPS {
        let ids = service.try_submit_json(WARM_REQUEST).expect("submit");
        for id in ids {
            service
                .wait_outcome(id, None)
                .expect("known id")
                .expect("completed");
        }
    }
    let in_process = start.elapsed();

    let start = Instant::now();
    for _ in 0..TRIPS {
        let ids = client
            .submit(WARM_REQUEST)
            .expect("transport")
            .expect("admitted");
        for id in ids {
            let exchange = client.wait(id, 120_000).expect("transport");
            assert_eq!(exchange.status, 200);
        }
    }
    let over_http = start.elapsed();

    let start = Instant::now();
    for _ in 0..TRIPS {
        let exchange = client.batch(WARM_REQUEST, 120_000).expect("transport");
        assert_eq!(exchange.status, 200);
    }
    let batched = start.elapsed();

    println!("== E11: front-end overhead ({TRIPS} warm round trips) ==");
    println!(
        "  in-process submit+wait : {:>8.2?}  ({:.2?}/trip)",
        in_process,
        in_process / TRIPS as u32
    );
    println!(
        "  HTTP submit+wait       : {:>8.2?}  ({:.2?}/trip)",
        over_http,
        over_http / TRIPS as u32
    );
    println!(
        "  HTTP one-call batch    : {:>8.2?}  ({:.2?}/trip)",
        batched,
        batched / TRIPS as u32
    );

    server.shutdown();
    assert!(server.join(), "clean drain after the measurement");
}

fn bench(c: &mut Criterion) {
    let service = Arc::new(Service::new(ServiceConfig::default().with_workers(2)));
    let server = Server::start(
        Arc::clone(&service),
        Telemetry::disabled(),
        None,
        FrontendConfig::default(),
    )
    .expect("ephemeral bind");
    let mut client =
        Client::connect(server.addr().to_string(), ClientConfig::default()).expect("connect");
    service.try_submit_json(WARM_REQUEST).expect("prime");
    service.drain();

    c.bench_function("frontend/http_submit_wait", |b| {
        b.iter(|| {
            let ids = client
                .submit(WARM_REQUEST)
                .expect("transport")
                .expect("admitted");
            let mut statuses = 0u32;
            for id in ids {
                statuses += u32::from(client.wait(id, 120_000).expect("transport").status);
            }
            statuses
        })
    });
    c.bench_function("frontend/http_batch", |b| {
        b.iter(|| {
            client
                .batch(WARM_REQUEST, 120_000)
                .expect("transport")
                .status
        })
    });

    server.shutdown();
    assert!(server.join());
}

criterion_group!(benches, bench);

fn main() {
    print_comparison();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
