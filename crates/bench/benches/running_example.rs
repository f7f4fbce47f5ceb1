//! E1 — the running example (Fig. 1 / Sections 1–3).
//!
//! Regenerates the invariant of Section 1 and the "candidates without
//! invariants / free with invariants" contrast of Section 3, then measures
//! the full pipeline on the example.

use advocat::prelude::*;
use criterion::{criterion_group, Criterion};

fn running_example(queue_size: usize) -> System {
    let mut net = Network::new();
    let req = net.intern(Packet::kind("req"));
    let ack = net.intern(Packet::kind("ack"));
    let s_node = net.add_automaton_node("S", 1, 1);
    let t_node = net.add_automaton_node("T", 1, 1);
    let q0 = net.add_queue("q0", queue_size);
    let q1 = net.add_queue("q1", queue_size);
    net.connect(s_node, 0, q0, 0);
    net.connect(q0, 0, t_node, 0);
    net.connect(t_node, 0, q1, 0);
    net.connect(q1, 0, s_node, 0);
    let mut sb = AutomatonBuilder::new("S", 1, 1);
    let s0 = sb.state("s0");
    let s1 = sb.state("s1");
    sb.set_initial(s0);
    sb.spontaneous_emit(s0, s1, 0, req);
    sb.on_packet(s1, s0, 0, ack, None);
    let mut tb = AutomatonBuilder::new("T", 1, 1);
    let t0 = tb.state("t0");
    let t1 = tb.state("t1");
    tb.set_initial(t0);
    tb.on_packet(t0, t1, 0, req, None);
    tb.spontaneous_emit(t1, t0, 0, ack);
    let mut system = System::new(net);
    system.attach(s_node, sb.build().unwrap()).unwrap();
    system.attach(t_node, tb.build().unwrap()).unwrap();
    system
}

fn print_table() {
    advocat_telemetry::info!("== E1: running example (Fig. 1) ==");
    let system = running_example(2);
    let mut engine = QueryEngine::structural(system.clone());
    let report = engine.check(&Query::new());
    for invariant in engine.invariants().iter() {
        let line = format_invariant(engine.system(), invariant);
        advocat_telemetry::info!("  invariant: {line}");
    }
    advocat_telemetry::info!("  with invariants:    {}", report.summary());
    let naive = QueryEngine::structural(system.clone()).check(&Query::new().invariants(false));
    advocat_telemetry::info!("  without invariants: {}", naive.summary());
    advocat_telemetry::info!("");
}

fn bench(c: &mut Criterion) {
    let system = running_example(2);
    c.bench_function("running_example/full_pipeline", |b| {
        b.iter(|| {
            QueryEngine::structural(system.clone())
                .check(&Query::new())
                .is_deadlock_free()
        })
    });
    c.bench_function("running_example/invariant_derivation", |b| {
        b.iter(|| {
            let colors = derive_colors(&system);
            derive_invariants(&system, &colors).len()
        })
    });
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
