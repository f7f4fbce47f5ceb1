//! Variable bookkeeping for invariant derivation.

use advocat_automata::StateId;
use advocat_xmas::{ChannelId, ColorId, PrimitiveId};

/// A variable that may appear in a derived invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantVar {
    /// `#q.d` — the number of packets of color `color` in queue `queue`.
    QueueCount {
        /// The queue primitive.
        queue: PrimitiveId,
        /// The packet color.
        color: ColorId,
    },
    /// `A.s` — 1 when automaton node `node` is in state `state`, else 0.
    AutomatonState {
        /// The automaton node.
        node: PrimitiveId,
        /// The state.
        state: StateId,
    },
}

/// The relation a derived invariant asserts between its linear form and
/// zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InvariantRelation {
    /// `Σ coefᵢ · varᵢ + constant = 0` — a conservation equality.
    #[default]
    Eq,
    /// `Σ coefᵢ · varᵢ + constant ≤ 0` — an upper bound harvested from the
    /// nonnegativity of an eliminated flow or firing counter.
    Le,
}

/// A derived cross-layer invariant: the linear relation
/// `Σ coefᵢ · varᵢ + constant {=, ≤} 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invariant {
    /// Terms of the linear form.
    pub terms: Vec<(InvariantVar, i128)>,
    /// Constant offset.
    pub constant: i128,
    /// Whether the form is asserted equal to zero or at most zero.
    pub relation: InvariantRelation,
}

impl Invariant {
    /// Evaluates the invariant under an assignment of queue occupancies and
    /// automaton states, returning `true` when the relation holds.
    ///
    /// Used by the explorer-backed tests: every derived invariant must hold
    /// in every reachable state of the system.
    pub fn holds<FQ, FA>(&self, mut queue_count: FQ, mut in_state: FA) -> bool
    where
        FQ: FnMut(PrimitiveId, ColorId) -> i128,
        FA: FnMut(PrimitiveId, StateId) -> bool,
    {
        let mut acc = self.constant;
        for (var, coef) in &self.terms {
            let value = match var {
                InvariantVar::QueueCount { queue, color } => queue_count(*queue, *color),
                InvariantVar::AutomatonState { node, state } => {
                    if in_state(*node, *state) {
                        1
                    } else {
                        0
                    }
                }
            };
            acc += coef * value;
        }
        match self.relation {
            InvariantRelation::Eq => acc == 0,
            InvariantRelation::Le => acc <= 0,
        }
    }

    /// Returns `true` for conservation equalities.
    pub fn is_equality(&self) -> bool {
        self.relation == InvariantRelation::Eq
    }

    /// Returns `true` when the invariant mentions the given queue.
    pub fn mentions_queue(&self, queue: PrimitiveId) -> bool {
        self.terms
            .iter()
            .any(|(v, _)| matches!(v, InvariantVar::QueueCount { queue: q, .. } if *q == queue))
    }

    /// Returns `true` when the invariant mentions the given automaton node.
    pub fn mentions_automaton(&self, node: PrimitiveId) -> bool {
        self.terms
            .iter()
            .any(|(v, _)| matches!(v, InvariantVar::AutomatonState { node: n, .. } if *n == node))
    }
}

/// Internal classification of the raw variables of the equation system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RawVar {
    /// `λ_c.d` — number of transfers of color `d` through channel `c`.
    Lambda(ChannelId, ColorId),
    /// `κ_t` — number of firings of transition `t` of automaton node `n`.
    Kappa(PrimitiveId, u32),
    /// A variable kept in the final invariants.
    Kept(InvariantVar),
}

/// Dense numbering of [`RawVar`]s used by the sparse linear rows, in order
/// of first interning.
///
/// Every key is a pair of indices the network and its automata assigned
/// (channel × color, node × transition, queue × color, node × state), so
/// each kind of variable has its own table indexed by both ids: a lookup
/// per term is two vector indexings, with no hashing.
#[derive(Debug, Default)]
pub(crate) struct VarRegistry {
    vars: Vec<RawVar>,
    lambda: PairTable,
    kappa: PairTable,
    queue_count: PairTable,
    automaton_state: PairTable,
}

/// Interned indices keyed by an `(outer, inner)` pair of dense ids, grown
/// on demand; [`PairTable::ABSENT`] marks a pair not interned yet.
#[derive(Debug, Default)]
struct PairTable(Vec<Vec<usize>>);

impl PairTable {
    const ABSENT: usize = usize::MAX;

    fn slot(&mut self, outer: usize, inner: usize) -> &mut usize {
        if self.0.len() <= outer {
            self.0.resize_with(outer + 1, Vec::new);
        }
        let row = &mut self.0[outer];
        if row.len() <= inner {
            row.resize(inner + 1, PairTable::ABSENT);
        }
        &mut row[inner]
    }
}

impl VarRegistry {
    pub(crate) fn new() -> Self {
        VarRegistry::default()
    }

    /// The index of `var`, whose slot is `slot`, interning it on first use.
    fn intern(vars: &mut Vec<RawVar>, slot: &mut usize, var: RawVar) -> usize {
        if *slot == PairTable::ABSENT {
            *slot = vars.len();
            vars.push(var);
        }
        *slot
    }

    pub(crate) fn lambda(&mut self, channel: ChannelId, color: ColorId) -> usize {
        let slot = self.lambda.slot(channel.index(), color.index());
        VarRegistry::intern(&mut self.vars, slot, RawVar::Lambda(channel, color))
    }

    pub(crate) fn kappa(&mut self, node: PrimitiveId, transition: u32) -> usize {
        let slot = self.kappa.slot(node.index(), transition as usize);
        VarRegistry::intern(&mut self.vars, slot, RawVar::Kappa(node, transition))
    }

    pub(crate) fn queue_count(&mut self, queue: PrimitiveId, color: ColorId) -> usize {
        let slot = self.queue_count.slot(queue.index(), color.index());
        let var = RawVar::Kept(InvariantVar::QueueCount { queue, color });
        VarRegistry::intern(&mut self.vars, slot, var)
    }

    pub(crate) fn automaton_state(&mut self, node: PrimitiveId, state: StateId) -> usize {
        let slot = self.automaton_state.slot(node.index(), state.index());
        let var = RawVar::Kept(InvariantVar::AutomatonState { node, state });
        VarRegistry::intern(&mut self.vars, slot, var)
    }

    pub(crate) fn is_eliminated(&self, idx: usize) -> bool {
        !matches!(self.vars[idx], RawVar::Kept(_))
    }

    pub(crate) fn kept(&self, idx: usize) -> Option<InvariantVar> {
        match self.vars[idx] {
            RawVar::Kept(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ids() -> (PrimitiveId, ChannelId, ColorId, StateId) {
        // Fabricate ids through public constructors of the owning crates.
        use advocat_automata::AutomatonBuilder;
        use advocat_xmas::{Network, Packet};
        let mut net = Network::new();
        let color = net.intern(Packet::kind("c"));
        let q = net.add_queue("q", 1);
        let src = net.add_source("s", vec![color]);
        let ch = net.connect(src, 0, q, 0);
        let mut b = AutomatonBuilder::new("a", 0, 0);
        let st = b.state("only");
        let _ = b.build().unwrap();
        (q, ch, color, st)
    }

    #[test]
    fn registry_interning_is_stable() {
        let (q, ch, color, st) = sample_ids();
        let mut reg = VarRegistry::new();
        let l1 = reg.lambda(ch, color);
        let l2 = reg.lambda(ch, color);
        let k = reg.kappa(q, 0);
        let qc = reg.queue_count(q, color);
        let a = reg.automaton_state(q, st);
        assert_eq!(l1, l2);
        assert!(reg.is_eliminated(l1));
        assert!(reg.is_eliminated(k));
        assert!(!reg.is_eliminated(qc));
        assert_eq!(
            reg.kept(a),
            Some(InvariantVar::AutomatonState { node: q, state: st })
        );
        assert_eq!(reg.kept(l1), None);
    }

    #[test]
    fn invariant_holds_checks_the_equality() {
        let (q, _ch, color, st) = sample_ids();
        // #q.c - A.s = 0  (queue holds a packet exactly when in state st)
        let inv = Invariant {
            terms: vec![
                (InvariantVar::QueueCount { queue: q, color }, 1),
                (InvariantVar::AutomatonState { node: q, state: st }, -1),
            ],
            constant: 0,
            relation: InvariantRelation::Eq,
        };
        assert!(inv.holds(|_, _| 1, |_, _| true));
        assert!(inv.holds(|_, _| 0, |_, _| false));
        assert!(!inv.holds(|_, _| 1, |_, _| false));
        assert!(inv.mentions_queue(q));
        assert!(inv.mentions_automaton(q));
    }

    #[test]
    fn bound_invariants_hold_at_or_below_zero() {
        let (q, _ch, color, st) = sample_ids();
        // #q.c ≤ A.s  (the queue can only be occupied in state st).
        let inv = Invariant {
            terms: vec![
                (InvariantVar::QueueCount { queue: q, color }, 1),
                (InvariantVar::AutomatonState { node: q, state: st }, -1),
            ],
            constant: 0,
            relation: InvariantRelation::Le,
        };
        assert!(!inv.is_equality());
        assert!(inv.holds(|_, _| 0, |_, _| false));
        assert!(inv.holds(|_, _| 0, |_, _| true));
        assert!(inv.holds(|_, _| 1, |_, _| true));
        assert!(!inv.holds(|_, _| 1, |_, _| false));
        assert!(!inv.holds(|_, _| 2, |_, _| true));
    }
}
