//! The query vocabulary of the unified verification surface.
//!
//! ADVOCAT's pitch is that *one* SMT encoding of a fabric answers many
//! questions.  A [`Query`] names one such question as a point in a small
//! configuration space — which [`DeadlockTarget`] to look for, at which
//! queue capacity ([`CapacitySelection`]), with or without invariant
//! strengthening — and every dimension maps onto an assumption to one
//! persistent solver (see [`crate::EncodingTemplate`]), so sweeping any of
//! them re-encodes nothing.

/// Which deadlock formulation a query asks about.
///
/// The block/idle equations admit two observable symptoms of a cross-layer
/// deadlock; a query targets either one or their disjunction.  Both goals
/// are encoded once per session and selected per query by an assumption
/// literal, so flipping the target between queries costs no re-encode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeadlockTarget {
    /// Some queue holds a packet whose head channel is permanently blocked.
    StuckPacket,
    /// Some automaton occupies a state all of whose transitions are dead.
    DeadAutomaton,
    /// Either symptom (the paper's specification, and the default).
    #[default]
    Any,
}

impl std::fmt::Display for DeadlockTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeadlockTarget::StuckPacket => "stuck-packet",
            DeadlockTarget::DeadAutomaton => "dead-automaton",
            DeadlockTarget::Any => "any",
        })
    }
}

/// How a query pins the queue capacities of the encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CapacitySelection {
    /// Every queue at its own structural size — what a one-shot
    /// verification of the system as built would check (the default).
    #[default]
    Structural,
    /// Every queue pinned to the same capacity, as in a sizing sweep.
    Uniform(usize),
}

/// One deadlock question: a target, a capacity selection, and whether the
/// derived cross-layer invariants strengthen the encoding.
///
/// `Query` is plain data — build it once, reuse it, tweak one dimension at
/// a time.  Answer it with `QueryEngine::check` in `advocat` (which wraps a
/// whole system) or [`crate::EncodingTemplate::check`] (the encoding
/// layer).
///
/// # Examples
///
/// ```
/// use advocat_deadlock::{DeadlockTarget, Query};
///
/// let q = Query::new()
///     .capacity(3)
///     .target(DeadlockTarget::StuckPacket)
///     .invariants(false);
/// assert_eq!(q.deadlock_target(), DeadlockTarget::StuckPacket);
/// assert!(!q.invariants_enabled());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Query {
    capacity: CapacitySelection,
    target: DeadlockTarget,
    no_invariants: bool,
}

impl Query {
    /// A query for the paper's default question: any deadlock symptom, at
    /// the structural queue capacities, with invariants enabled.
    pub fn new() -> Self {
        Query::default()
    }

    /// Pins every queue to the given uniform capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = CapacitySelection::Uniform(capacity);
        self
    }

    /// Uses every queue's structural size (the default).
    pub fn structural_capacity(mut self) -> Self {
        self.capacity = CapacitySelection::Structural;
        self
    }

    /// Selects the deadlock target.
    pub fn target(mut self, target: DeadlockTarget) -> Self {
        self.target = target;
        self
    }

    /// Enables or disables the derived invariant strengthening.  Disabling
    /// it reproduces the "deadlock candidates without invariants" ablation
    /// of Section 3 of the paper.
    pub fn invariants(mut self, enabled: bool) -> Self {
        self.no_invariants = !enabled;
        self
    }

    /// The capacity selection of this query.
    pub fn capacity_selection(&self) -> CapacitySelection {
        self.capacity
    }

    /// The deadlock target of this query.
    pub fn deadlock_target(&self) -> DeadlockTarget {
        self.target
    }

    /// Whether the derived invariants strengthen this query's encoding.
    pub fn invariants_enabled(&self) -> bool {
        !self.no_invariants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dimensions_are_independent() {
        let q = Query::new();
        assert_eq!(q.capacity_selection(), CapacitySelection::Structural);
        assert_eq!(q.deadlock_target(), DeadlockTarget::Any);
        assert!(q.invariants_enabled());

        let q = q.capacity(4).target(DeadlockTarget::DeadAutomaton);
        assert_eq!(q.capacity_selection(), CapacitySelection::Uniform(4));
        assert!(q.invariants_enabled(), "untouched dimensions keep defaults");

        let q = q.invariants(false).structural_capacity();
        assert_eq!(q.capacity_selection(), CapacitySelection::Structural);
        assert_eq!(q.deadlock_target(), DeadlockTarget::DeadAutomaton);
        assert!(!q.invariants_enabled());
    }

    #[test]
    fn targets_display_for_reports() {
        assert_eq!(DeadlockTarget::StuckPacket.to_string(), "stuck-packet");
        assert_eq!(DeadlockTarget::DeadAutomaton.to_string(), "dead-automaton");
        assert_eq!(DeadlockTarget::Any.to_string(), "any");
    }
}
