//! Quickstart: the running example of the ADVOCAT paper (Fig. 1).
//!
//! Two automata `S` and `T` are connected by two queues.  `S` injects
//! requests and consumes acknowledgments; `T` does the opposite.  The
//! example shows the full pipeline: building a system, deriving the
//! cross-layer invariant `#q0 + #q1 = S.s1 + T.t0 − 1`, and proving
//! deadlock freedom — which fails without the invariant.
//!
//! Run with: `cargo run --release --example quickstart`

use advocat::prelude::*;

fn running_example(queue_size: usize) -> Result<System, Box<dyn std::error::Error>> {
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

    // S: s0 --req!--> s1 --ack?--> s0
    let mut sb = AutomatonBuilder::new("S", 1, 1);
    let s0 = sb.state("s0");
    let s1 = sb.state("s1");
    sb.set_initial(s0);
    sb.spontaneous_emit(s0, s1, 0, req);
    sb.on_packet(s1, s0, 0, ack, None);

    // T: t0 --req?--> t1 --ack!--> t0
    let mut tb = AutomatonBuilder::new("T", 1, 1);
    let t0 = tb.state("t0");
    let t1 = tb.state("t1");
    tb.set_initial(t0);
    tb.on_packet(t0, t1, 0, req, None);
    tb.spontaneous_emit(t1, t0, 0, ack);

    let mut system = System::new(net);
    system.attach(s_node, sb.build()?)?;
    system.attach(t_node, tb.build()?)?;
    system.validate()?;
    Ok(system)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = running_example(2)?;
    println!("== ADVOCAT quickstart: the paper's running example (Fig. 1) ==\n");

    // With the automatically derived cross-layer invariants the system is
    // proven deadlock-free.  One engine answers both the strengthened and
    // the ablated question.
    let mut engine = QueryEngine::structural(system.clone());
    let report = engine.check(&Query::new());
    println!("derived invariants:");
    for invariant in engine.invariants().iter() {
        println!("  {}", format_invariant(engine.system(), invariant));
    }
    println!("\nwith invariants:    {}", report.summary());

    // Without them, unfolding the block/idle equations yields unreachable
    // deadlock candidates (Section 3 of the paper).
    let naive = engine.check(&Query::new().invariants(false));
    println!("without invariants: {}", naive.summary());
    if let Some(cex) = naive.counterexample() {
        println!("\nunreachable candidate reported without invariants:\n{cex}");
    }

    // Cross-check with the explicit-state explorer (the UPPAAL substitute):
    // the reachable state space is tiny and contains no deadlock.
    let exploration = explore(&system, &ExplorerConfig::default());
    println!(
        "explorer: {} reachable states, {} deadlocks (exhaustive: {})",
        exploration.states_explored,
        exploration.deadlocks.len(),
        exploration.proves_deadlock_freedom()
    );
    Ok(())
}
