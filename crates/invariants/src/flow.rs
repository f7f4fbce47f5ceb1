//! Flow-conservation equations for the basic xMAS primitives
//! (Chatterjee & Kishinevsky).
//!
//! For every primitive, the number of transfers of each color through its
//! input channels is related to the number of transfers through its output
//! channels (and, for queues, to the current occupancy).  All equations are
//! stated as `Σ aᵢ·xᵢ + c = 0` rows over the [`crate::vars::VarRegistry`].

use advocat_num::LinearRow;
use advocat_num::Rational;
use advocat_xmas::{ColorMap, Network, Primitive, PrimitiveId};

use crate::vars::VarRegistry;

/// Emits the flow equations of one basic primitive into `rows`.
pub(crate) fn primitive_flow_rows(
    network: &Network,
    colors: &ColorMap,
    id: PrimitiveId,
    registry: &mut VarRegistry,
    rows: &mut Vec<LinearRow>,
) {
    let one = Rational::ONE;
    let minus_one = Rational::from_integer(-1);
    match network.primitive(id) {
        Primitive::Queue { init, .. } => {
            let (Some(inp), Some(out)) = (network.in_channel(id, 0), network.out_channel(id, 0))
            else {
                return;
            };
            // λ_in.d + init_count(d) = λ_out.d + #q.d   for every d that can
            // ever be in the queue (incoming colors plus initial content).
            let mut all_colors: Vec<_> = colors.colors(out).iter().copied().collect();
            for c in colors.colors(inp).iter() {
                if !colors.contains(out, *c) {
                    all_colors.push(*c);
                }
            }
            for d in all_colors {
                let mut row = LinearRow::new();
                if colors.contains(inp, d) {
                    row.add_term(registry.lambda(inp, d), one);
                }
                let init_count = init.iter().filter(|c| **c == d).count() as i128;
                row.add_constant(Rational::from_integer(init_count));
                row.add_term(registry.lambda(out, d), minus_one);
                row.add_term(registry.queue_count(id, d), minus_one);
                rows.push(row);
            }
        }
        Primitive::Function { .. } => {
            let (Some(inp), Some(out)) = (network.in_channel(id, 0), network.out_channel(id, 0))
            else {
                return;
            };
            // λ_out.d' = Σ_{d: f(d) = d'} λ_in.d
            let prim = network.primitive(id);
            for d_out in colors.colors(out).iter() {
                let mut row = LinearRow::new();
                row.add_term(registry.lambda(out, *d_out), one);
                for d_in in colors.colors(inp).iter() {
                    if prim.function_apply(*d_in) == Some(*d_out) {
                        row.add_term(registry.lambda(inp, *d_in), minus_one);
                    }
                }
                rows.push(row);
            }
        }
        Primitive::Fork => {
            let Some(inp) = network.in_channel(id, 0) else {
                return;
            };
            for port in 0..2 {
                let Some(out) = network.out_channel(id, port) else {
                    continue;
                };
                for d in colors.colors(inp).iter() {
                    let mut row = LinearRow::new();
                    row.add_term(registry.lambda(inp, *d), one);
                    row.add_term(registry.lambda(out, *d), minus_one);
                    rows.push(row);
                }
            }
        }
        Primitive::Join => {
            let (Some(a), Some(b), Some(out)) = (
                network.in_channel(id, 0),
                network.in_channel(id, 1),
                network.out_channel(id, 0),
            ) else {
                return;
            };
            // Output data comes from input 0: per-color conservation there.
            for d in colors.colors(a).iter() {
                let mut row = LinearRow::new();
                row.add_term(registry.lambda(a, *d), one);
                row.add_term(registry.lambda(out, *d), minus_one);
                rows.push(row);
            }
            // Both inputs fire together: total flows are equal.
            let mut row = LinearRow::new();
            for d in colors.colors(a).iter() {
                row.add_term(registry.lambda(a, *d), one);
            }
            for d in colors.colors(b).iter() {
                row.add_term(registry.lambda(b, *d), minus_one);
            }
            rows.push(row);
        }
        Primitive::Switch { .. } => {
            let Some(inp) = network.in_channel(id, 0) else {
                return;
            };
            let prim = network.primitive(id);
            for d in colors.colors(inp).iter() {
                let port = prim.switch_route(*d).expect("switch primitive");
                let Some(out) = network.out_channel(id, port) else {
                    continue;
                };
                let mut row = LinearRow::new();
                row.add_term(registry.lambda(inp, *d), one);
                row.add_term(registry.lambda(out, *d), minus_one);
                rows.push(row);
            }
        }
        Primitive::Merge { num_inputs } => {
            let Some(out) = network.out_channel(id, 0) else {
                return;
            };
            for d in colors.colors(out).iter() {
                let mut row = LinearRow::new();
                row.add_term(registry.lambda(out, *d), one);
                for port in 0..*num_inputs {
                    if let Some(inp) = network.in_channel(id, port) {
                        if colors.contains(inp, *d) {
                            row.add_term(registry.lambda(inp, *d), minus_one);
                        }
                    }
                }
                rows.push(row);
            }
        }
        // Sources and sinks impose no conservation law; automaton nodes are
        // handled by `automaton_eqs`.
        Primitive::Source { .. } | Primitive::Sink { .. } | Primitive::Automaton { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_num::eliminate;
    use advocat_xmas::{propagate_basic_fixpoint, Network, Packet};

    #[test]
    fn queue_equation_relates_flows_and_occupancy() {
        let mut net = Network::new();
        let c = net.intern(Packet::kind("c"));
        let src = net.add_source("src", vec![c]);
        let q = net.add_queue("q", 2);
        let snk = net.add_sink("snk");
        net.connect(src, 0, q, 0);
        net.connect(q, 0, snk, 0);
        let mut colors = ColorMap::empty(&net);
        propagate_basic_fixpoint(&net, &mut colors);

        let mut registry = VarRegistry::new();
        let mut rows = Vec::new();
        for id in net.primitive_ids() {
            primitive_flow_rows(&net, &colors, id, &mut registry, &mut rows);
        }
        // One queue equation: λ_in - λ_out - #q = 0.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    fn fork_merge_pipeline_yields_queue_balance_invariant() {
        // src -> fork -> (q_a, q_b) -> merge -> sink gives, after
        // eliminating λ, the invariant #q_a = #q_b.
        let mut net = Network::new();
        let c = net.intern(Packet::kind("c"));
        let src = net.add_source("src", vec![c]);
        let fork = net.add_fork("fork");
        let qa = net.add_queue("qa", 4);
        let qb = net.add_queue("qb", 4);
        let ja = net.add_sink("sink_a");
        let jb = net.add_sink("sink_b");
        net.connect(src, 0, fork, 0);
        net.connect(fork, 0, qa, 0);
        net.connect(fork, 1, qb, 0);
        net.connect(qa, 0, ja, 0);
        net.connect(qb, 0, jb, 0);
        let mut colors = ColorMap::empty(&net);
        propagate_basic_fixpoint(&net, &mut colors);

        let mut registry = VarRegistry::new();
        let mut rows = Vec::new();
        for id in net.primitive_ids() {
            primitive_flow_rows(&net, &colors, id, &mut registry, &mut rows);
        }
        let kept = eliminate(rows, |v| registry.is_eliminated(v));
        // There is no invariant purely over the queue occupancies here: the
        // sinks let packets drain independently, so occupancies are related
        // to the (eliminated) sink-side flows and nothing survives.
        assert!(kept.is_empty());
    }

    #[test]
    fn fork_with_sealed_outputs_forces_equal_occupancy() {
        // When both fork branches end in dead sinks the only transfers are
        // into the queues, so eliminating λ yields #qa - #qb = 0.
        let mut net = Network::new();
        let c = net.intern(Packet::kind("c"));
        let src = net.add_source("src", vec![c]);
        let fork = net.add_fork("fork");
        let qa = net.add_queue("qa", 4);
        let qb = net.add_queue("qb", 4);
        let da = net.add_dead_sink("dead_a");
        let db = net.add_dead_sink("dead_b");
        net.connect(src, 0, fork, 0);
        net.connect(fork, 0, qa, 0);
        net.connect(fork, 1, qb, 0);
        net.connect(qa, 0, da, 0);
        net.connect(qb, 0, db, 0);
        let mut colors = ColorMap::empty(&net);
        propagate_basic_fixpoint(&net, &mut colors);

        let mut registry = VarRegistry::new();
        let mut rows = Vec::new();
        for id in net.primitive_ids() {
            primitive_flow_rows(&net, &colors, id, &mut registry, &mut rows);
        }
        // A dead sink never transfers, so its λ is zero.
        for qid in [qa, qb] {
            let out = net.out_channel(qid, 0).unwrap();
            let mut row = LinearRow::new();
            row.add_term(registry.lambda(out, c), Rational::ONE);
            rows.push(row);
        }
        let kept = eliminate(rows, |v| registry.is_eliminated(v));
        assert_eq!(kept.len(), 1);
        let inv = &kept[0];
        assert_eq!(inv.len(), 2);
        assert!(inv.constant().is_zero());
    }
}
