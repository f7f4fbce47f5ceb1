//! Cross-layer deadlock detection (Section 3 of the ADVOCAT paper).
//!
//! Deadlock detection follows Gotmanov, Chatterjee & Kishinevsky's
//! block/idle technique and extends it to XMAS automata:
//!
//! * a channel is **blocked** for a packet when its target can permanently
//!   not accept that packet,
//! * a channel is **idle** for a packet when its initiator will permanently
//!   not offer that packet,
//! * an automaton is **dead** when it occupies a state all of whose
//!   outgoing transitions can permanently not fire (their input is idle or
//!   their emission is blocked).
//!
//! The defining equations of these predicates, the structural constraints
//! (queue capacities, one-state-per-automaton), the automatically derived
//! cross-layer invariants (from `advocat-invariants`) and a
//! [`DeadlockTarget`] (some queue holds a permanently blocked packet, some
//! automaton is dead, or either) are conjoined into one SMT instance.  If
//! the instance is unsatisfiable the system is **deadlock-free**; if it is
//! satisfiable the model is returned as a deadlock *candidate* (the method
//! is sound but may produce false negatives — candidates may be
//! unreachable).
//!
//! A [`Query`] names one question: a target, a capacity and whether the
//! invariants apply.  [`EncodingTemplate`] answers any number of queries
//! from one long-lived solver; [`verify_system`] checks a fresh solver
//! once at fixed capacities and serves as an independent oracle for it.
//!
//! # Examples
//!
//! ```
//! use advocat_automata::{AutomatonBuilder, System};
//! use advocat_deadlock::{verify_system, DeadlockTarget, Verdict};
//! use advocat_xmas::{Network, Packet};
//!
//! // A producer feeding a dead sink through a tiny queue: every packet
//! // that enters the queue is stuck for ever — a (trivial) deadlock.
//! let mut net = Network::new();
//! let pkt = net.intern(Packet::kind("pkt"));
//! let src = net.add_source("src", vec![pkt]);
//! let q = net.add_queue("q", 1);
//! let dead = net.add_dead_sink("dead");
//! net.connect(src, 0, q, 0);
//! net.connect(q, 0, dead, 0);
//! let system = System::new(net);
//!
//! let analysis = verify_system(&system, DeadlockTarget::Any);
//! assert!(matches!(analysis.verdict, Verdict::PotentialDeadlock(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod counterexample;
mod encode;
mod query;
mod template;
mod verify;

pub use boundary::{
    check_composition, BoundaryAnalysis, BoundaryOutcome, CompositionModel, InterfacePort,
};
pub use counterexample::Counterexample;
pub use query::{CapacitySelection, DeadlockTarget, Query};
pub use template::{structural_capacity_range, EncodingTemplate};
pub use verify::{verify_system, verify_with, Analysis, AnalysisStats, Verdict};
