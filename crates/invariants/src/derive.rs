//! The invariant-derivation driver.

use advocat_automata::System;
use advocat_num::{eliminate_with_bounds, LinearRow};
use advocat_xmas::{ColorMap, Primitive};

use crate::automaton_eqs::automaton_rows;
use crate::display::format_invariant;
use crate::flow::primitive_flow_rows;
use crate::vars::{Invariant, InvariantRelation, InvariantVar, VarRegistry};

/// The set of cross-layer invariants derived for a system.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvariantSet {
    invariants: Vec<Invariant>,
}

impl InvariantSet {
    /// Wraps an explicit list of invariants (hand-written sets for tests
    /// and contract tooling; derived sets come from [`derive_invariants`]).
    pub fn from_invariants(invariants: Vec<Invariant>) -> Self {
        InvariantSet { invariants }
    }

    /// Returns the invariants.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Returns the number of invariants.
    pub fn len(&self) -> usize {
        self.invariants.len()
    }

    /// Returns the number of conservation equalities in the set.
    pub fn num_equalities(&self) -> usize {
        self.invariants.iter().filter(|i| i.is_equality()).count()
    }

    /// Returns the number of `≤` bounds in the set (see
    /// [`InvariantRelation::Le`]).
    pub fn num_bounds(&self) -> usize {
        self.len() - self.num_equalities()
    }

    /// Returns `true` when no invariants were derived.
    pub fn is_empty(&self) -> bool {
        self.invariants.is_empty()
    }

    /// Iterates over the invariants.
    pub fn iter(&self) -> impl Iterator<Item = &Invariant> + '_ {
        self.invariants.iter()
    }
}

impl IntoIterator for InvariantSet {
    type Item = Invariant;
    type IntoIter = std::vec::IntoIter<Invariant>;

    fn into_iter(self) -> Self::IntoIter {
        self.invariants.into_iter()
    }
}

/// Derives the cross-layer invariants of a system.
///
/// Collects the flow equations of every basic primitive and the four
/// automaton equation families, then eliminates all `λ` (channel flow) and
/// `κ` (transition firing) variables by Gaussian elimination.  The rows
/// that survive relate only queue occupancies `#q.d` and automaton state
/// indicators `A.s` — the invariants of Section 4 of the paper.
///
/// Because the eliminated variables are *counters* (transfers through a
/// channel, firings of a transition — never negative), every pivot
/// definition the equality elimination discards also implies an upper
/// bound over the kept variables: `e = −(K + c)` with `e ≥ 0` gives
/// `K + c ≤ 0`.  These survive as `≤` invariants
/// ([`InvariantRelation::Le`]) next to the equalities — the strengthening
/// that matters once shared-state protocol automata (MESI-style counting
/// directories) make parts of the flow system underdetermined.  Bounds
/// that nonnegativity of the kept variables already implies are dropped.
///
/// `colors` must be the `T`-derivation of the same system (see
/// [`advocat_automata::derive_colors`]).
///
/// # Panics
///
/// Panics, naming the invariant, when a derived invariant fails at the
/// system's initial configuration: that is an arithmetic slip in the
/// derivation, never a property of the system.
///
/// # Examples
///
/// See the crate-level documentation and the `running_example` integration
/// test; for the paper's Fig. 1 system this derives
/// `#q0 + #q1 = S.s1 + T.t0 − 1`.
pub fn derive_invariants(system: &System, colors: &ColorMap) -> InvariantSet {
    let network = system.network();
    let mut registry = VarRegistry::new();
    let mut rows: Vec<LinearRow> = Vec::new();

    for id in network.primitive_ids() {
        if network.primitive(id).is_automaton() {
            automaton_rows(system, colors, id, &mut registry, &mut rows);
        } else {
            primitive_flow_rows(network, colors, id, &mut registry, &mut rows);
        }
    }

    // Every eliminated variable is a λ or κ counter, hence nonnegative.
    let result = eliminate_with_bounds(
        rows,
        |v| registry.is_eliminated(v),
        |v| registry.is_eliminated(v),
    );

    let mut invariants = Vec::new();
    for row in result.equalities {
        if let Some(invariant) = row_to_invariant(&row, &registry, InvariantRelation::Eq) {
            invariants.push(invariant);
        }
    }
    for row in result.bounds {
        let Some(invariant) = row_to_invariant(&row, &registry, InvariantRelation::Le) else {
            continue;
        };
        // Kept variables are nonnegative too (occupancies and 0/1 state
        // indicators): a bound whose coefficients are all ≤ 0 with a
        // nonpositive constant is vacuous.
        if invariant.terms.iter().all(|(_, c)| *c <= 0) && invariant.constant <= 0 {
            continue;
        }
        invariants.push(invariant);
    }
    if let Some(invariant) = fails_initially(system, &invariants) {
        panic!(
            "derived invariant fails at the initial configuration: {}",
            format_invariant(system, invariant)
        );
    }
    InvariantSet { invariants }
}

/// Returns the first invariant that does not hold at the system's initial
/// configuration, where queues hold their `init` content and automata sit
/// in their initial states.  Zero flow and firing counters satisfy every
/// generated row there, so every equality and every harvested bound must
/// hold: a failure here would otherwise surface as a wrong verdict.
pub(crate) fn fails_initially<'a>(
    system: &System,
    invariants: &'a [Invariant],
) -> Option<&'a Invariant> {
    let network = system.network();
    invariants.iter().find(|invariant| {
        !invariant.holds(
            |queue, color| match network.primitive(queue) {
                Primitive::Queue { init, .. } => {
                    init.iter().filter(|c| **c == color).count() as i128
                }
                _ => 0,
            },
            |node, state| system.automaton(node).is_some_and(|a| a.initial() == state),
        )
    })
}

fn row_to_invariant(
    row: &LinearRow,
    registry: &VarRegistry,
    relation: InvariantRelation,
) -> Option<Invariant> {
    let mut terms: Vec<(InvariantVar, i128)> = Vec::with_capacity(row.len());
    for (var, coef) in row.iter() {
        let kept = registry.kept(var)?;
        let coef = coef.to_integer()?;
        terms.push((kept, coef));
    }
    let constant = row.constant().to_integer()?;
    Some(Invariant {
        terms,
        constant,
        relation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_automata::{derive_colors, AutomatonBuilder};
    use advocat_xmas::{Network, Packet, PrimitiveId};

    /// Builds the running example of the paper (Fig. 1).
    fn running_example() -> (System, PrimitiveId, PrimitiveId, PrimitiveId, PrimitiveId) {
        let mut net = Network::new();
        let req = net.intern(Packet::kind("req"));
        let ack = net.intern(Packet::kind("ack"));
        let s_node = net.add_automaton_node("S", 1, 1);
        let t_node = net.add_automaton_node("T", 1, 1);
        let q0 = net.add_queue("q0", 2);
        let q1 = net.add_queue("q1", 2);
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
        (system, s_node, t_node, q0, q1)
    }

    #[test]
    fn running_example_reproduces_the_paper_invariant() {
        let (system, s_node, t_node, q0, q1) = running_example();
        let colors = derive_colors(&system);
        let set = derive_invariants(&system, &colors);
        assert!(!set.is_empty());

        let s = system.automaton(s_node).unwrap();
        let t = system.automaton(t_node).unwrap();
        let s1 = s.state_by_name("s1").unwrap();
        let t0 = t.state_by_name("t0").unwrap();

        // The paper's invariant:  S.s1 + T.t0 - 1 = #q0 + #q1.
        // Check it semantically: every derived invariant must hold both in
        // the initial state (s0, t0, queues empty) and in the state
        // (s1, t0, one request in q0); and at least one derived invariant
        // must *fail* in the unreachable configuration (s0, t1, empty).
        let eval = |set: &InvariantSet,
                    in_s1: bool,
                    in_t0: bool,
                    q0_req: i128,
                    q1_ack: i128|
         -> Vec<bool> {
            set.iter()
                .map(|inv| {
                    inv.holds(
                        |queue, _color| {
                            if queue == q0 {
                                q0_req
                            } else if queue == q1 {
                                q1_ack
                            } else {
                                0
                            }
                        },
                        |node, state| {
                            if node == s_node {
                                (state == s1) == in_s1
                            } else if node == t_node {
                                (state == t0) == in_t0
                            } else {
                                false
                            }
                        },
                    )
                })
                .collect()
        };

        // Initial configuration (s0, t0), queues empty: all invariants hold.
        assert!(eval(&set, false, true, 0, 0).iter().all(|b| *b));
        // Reachable configuration (s1, t0) with one request en route.
        assert!(eval(&set, true, true, 1, 0).iter().all(|b| *b));
        // Reachable configuration (s1, t1) with empty queues (request
        // consumed, acknowledgment not yet emitted).
        assert!(eval(&set, true, false, 0, 0).iter().all(|b| *b));
        // Reachable configuration (s1, t0) with the acknowledgment en route.
        assert!(eval(&set, true, true, 0, 1).iter().all(|b| *b));
        // Unreachable configuration (s0, t1) with empty queues violates at
        // least one invariant (the paper's: LHS would be -1).
        assert!(eval(&set, false, false, 0, 0).iter().any(|b| !*b));
        // Unreachable configuration with both queues full violates too.
        assert!(eval(&set, true, true, 2, 2).iter().any(|b| !*b));
    }

    /// A credit loop with *lossy* token return: a worker consumes a credit
    /// and sends a request; the responder either returns the credit or
    /// consumes it silently.  No conservation **equality** over the two
    /// queues exists (the lost credits are counted by an eliminated,
    /// underdetermined firing counter), but its relaxation survives as the
    /// bound `#credits + #flight ≤ initial credits` — the invariant class
    /// [`derive_invariants`] now harvests from counter nonnegativity.
    fn lossy_credit_loop() -> (System, PrimitiveId, PrimitiveId) {
        let mut net = Network::new();
        let tok = net.intern(Packet::kind("tok"));
        let req = net.intern(Packet::kind("req"));
        let worker = net.add_automaton_node("worker", 1, 1);
        let responder = net.add_automaton_node("responder", 1, 1);
        let credits = net.add_queue_with_init("credits", 2, vec![tok, tok]);
        let flight = net.add_queue("flight", 2);
        net.connect(credits, 0, worker, 0);
        net.connect(worker, 0, flight, 0);
        net.connect(flight, 0, responder, 0);
        net.connect(responder, 0, credits, 0);

        let mut wb = AutomatonBuilder::new("worker", 1, 1);
        let w = wb.state("w");
        wb.on_packet(w, w, 0, tok, Some((0, req)));

        let mut rb = AutomatonBuilder::new("responder", 1, 1);
        let r = rb.state("r");
        // Return the credit … or lose it.
        rb.on_packet(r, r, 0, req, Some((0, tok)));
        rb.on_packet(r, r, 0, req, None);

        let mut system = System::new(net);
        system.attach(worker, wb.build().unwrap()).unwrap();
        system.attach(responder, rb.build().unwrap()).unwrap();
        system.validate().unwrap();
        (system, credits, flight)
    }

    #[test]
    fn lossy_credit_loops_yield_bound_invariants() {
        let (system, credits, flight) = lossy_credit_loop();
        let colors = derive_colors(&system);
        let set = derive_invariants(&system, &colors);
        assert!(set.num_bounds() >= 1, "a credit bound must be harvested");
        // The bound #credits.tok + #flight.req ≤ 2 (or an equivalent form
        // mentioning both queues) holds with ≤, not =: find a bound over
        // the two queues and check it semantically.
        let bound = set
            .iter()
            .find(|inv| {
                !inv.is_equality() && inv.mentions_queue(credits) && inv.mentions_queue(flight)
            })
            .expect("bound over both queues");
        // Full credits, empty flight: holds (with equality).
        assert!(bound.holds(|q, _| if q == credits { 2 } else { 0 }, |_, _| true));
        // One credit lost forever: strict inequality, still holds.
        assert!(bound.holds(|q, _| if q == credits { 1 } else { 0 }, |_, _| true));
        // Credits conjured out of thin air: violated.
        assert!(!bound.holds(|q, _| if q == credits { 2 } else { 1 }, |_, _| true));
    }

    #[test]
    fn lossless_credit_loops_keep_the_conservation_equality() {
        // The same loop with a *lossless* return still derives the exact
        // equality (and the bounds pass must not weaken or duplicate it).
        let mut net = Network::new();
        let tok = net.intern(Packet::kind("tok"));
        let req = net.intern(Packet::kind("req"));
        let worker = net.add_automaton_node("worker", 1, 1);
        let responder = net.add_automaton_node("responder", 1, 1);
        let credits = net.add_queue_with_init("credits", 2, vec![tok, tok]);
        let flight = net.add_queue("flight", 2);
        net.connect(credits, 0, worker, 0);
        net.connect(worker, 0, flight, 0);
        net.connect(flight, 0, responder, 0);
        net.connect(responder, 0, credits, 0);
        let mut wb = AutomatonBuilder::new("worker", 1, 1);
        let w = wb.state("w");
        wb.on_packet(w, w, 0, tok, Some((0, req)));
        let mut rb = AutomatonBuilder::new("responder", 1, 1);
        let r = rb.state("r");
        rb.on_packet(r, r, 0, req, Some((0, tok)));
        let mut system = System::new(net);
        system.attach(worker, wb.build().unwrap()).unwrap();
        system.attach(responder, rb.build().unwrap()).unwrap();
        let colors = derive_colors(&system);
        let set = derive_invariants(&system, &colors);
        let equality = set
            .iter()
            .find(|inv| {
                inv.is_equality() && inv.mentions_queue(credits) && inv.mentions_queue(flight)
            })
            .expect("credit conservation equality");
        assert!(!equality.holds(|q, _| if q == credits { 1 } else { 0 }, |_, _| true));
        assert!(equality.holds(|q, _| if q == credits { 2 } else { 0 }, |_, _| true));
    }

    #[test]
    fn the_initial_configuration_check_rejects_a_false_invariant() {
        let (system, _, _, q0, _) = running_example();
        let colors = derive_colors(&system);
        let set = derive_invariants(&system, &colors);
        assert_eq!(fails_initially(&system, set.invariants()), None);

        // #q0.req = 1, but q0 starts empty.
        let req = system.network().colors().lookup(&Packet::kind("req"));
        let color = req.expect("req is interned");
        let wrong = Invariant {
            terms: vec![(InvariantVar::QueueCount { queue: q0, color }, 1)],
            constant: -1,
            relation: InvariantRelation::Eq,
        };
        let mut invariants = set.invariants().to_vec();
        invariants.push(wrong.clone());
        assert_eq!(fails_initially(&system, &invariants), Some(&wrong));
    }

    #[test]
    fn invariant_set_iteration_and_len_agree() {
        let (system, ..) = running_example();
        let colors = derive_colors(&system);
        let set = derive_invariants(&system, &colors);
        assert_eq!(set.iter().count(), set.len());
        let collected: Vec<_> = set.clone().into_iter().collect();
        assert_eq!(collected.len(), set.len());
    }
}
