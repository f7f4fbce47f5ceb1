//! The verification service: submit JSON jobs, wait for each, drain.
//!
//! A long-running deployment of ADVOCAT does not answer one caller on one
//! `QueryEngine` — it answers a stream of requests from many clients, most
//! of which describe fabrics the service has seen before.  This example
//! drives the `Service` the way such a deployment would:
//!
//! 1. **submit** a JSON request file (two requests, one a capacity sweep),
//! 2. **wait** for each job's outcome by id with `wait_outcome`, printing
//!    each as JSON,
//! 3. submit a second wave of jobs over the *same* fabrics and **drain**,
//!    showing the warm-engine pool served them without rebuilding.
//!
//! Run with: `cargo run --release --example service`

use advocat::prelude::*;
use advocat::service::outcome_to_json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== The verification service: submit -> wait -> drain ==\n");

    let service = Service::new(ServiceConfig::default().with_max_engines(8));

    // 1. Submit a JSON request file: the Fig. 3 mesh swept over
    //    capacities 2..=3, plus a datelined ring.
    let request_file = r#"[
        {
            "name": "figure 3 mesh",
            "topology": {"kind": "mesh", "width": 2, "height": 2},
            "queue_size": 2,
            "directory": 3,
            "capacities": [2, 3]
        },
        {
            "name": "ring of 4",
            "topology": {"kind": "ring", "nodes": 4},
            "queue_size": 2,
            "directory": 1
        }
    ]"#;
    let ids = service.try_submit_json(request_file)?;
    println!("submitted {} jobs from the JSON request file\n", ids.len());

    // 2. Wait for each outcome by id, printing them as JSON lines.
    println!("-- outcomes (id order) --");
    for id in ids {
        let outcome = service.wait_outcome(id, None)?.expect("no timeout");
        println!("{}", outcome_to_json(&outcome));
    }

    // 3. A second wave over the same fabrics: every job should check out
    //    a warm engine (warm_hit: true in the JSON).
    let ids = service.try_submit_json(request_file)?;
    println!(
        "\n-- second wave over the same fabrics ({} jobs) --",
        ids.len()
    );
    let outcomes = service.drain();
    for outcome in &outcomes {
        println!("{}", outcome_to_json(outcome));
    }

    let stats = service.stats().pool;
    println!(
        "\npool: {} engines built, {} warm hits ({:.0}% warm), {} live",
        stats.engines_built,
        stats.warm_hits,
        stats.warm_hit_rate() * 100.0,
        stats.live_engines
    );
    assert_eq!(
        stats.engines_built, 2,
        "two fingerprints, two engines, six jobs"
    );
    assert!(outcomes.iter().all(|o| o.warm_hit));
    Ok(())
}
