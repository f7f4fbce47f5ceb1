//! Explicit-state exploration of xMAS + XMAS-automata systems.
//!
//! ADVOCAT's deadlock verdicts are sound but may report unreachable
//! candidates; the paper confirms candidates with UPPAAL on small networks.
//! This crate plays that role: it gives the combined model an executable
//! semantics and explores its reachable state space.
//!
//! * [`GlobalState`] — queue contents plus automaton states,
//! * [`explore`] — bounded breadth-first reachability with deadlock-state
//!   detection and a visitor hook (used, e.g., to check that every derived
//!   invariant holds in every reachable state),
//! * [`random_walk`] — long random simulations for larger systems where
//!   exhaustive exploration is not feasible.
//!
//! The step semantics is an interleaving abstraction of the synchronous
//! xMAS semantics: one transfer (a packet moving from a sequential producer
//! through the combinational primitives into a sequential consumer) or one
//! spontaneous automaton transition per step.  Queues can optionally be
//! treated as *stalling* (a packet that cannot be consumed lets later
//! packets overtake it), which matches the paper's treatment of packets
//! that are "stalled and moved to the end of the queue".
//!
//! # Examples
//!
//! ```
//! use advocat_explorer::{explore, ExplorerConfig};
//! use advocat_xmas::{Network, Packet};
//! use advocat_automata::System;
//!
//! // A source feeding a dead sink through a size-1 queue deadlocks as soon
//! // as the queue fills.
//! let mut net = Network::new();
//! let p = net.intern(Packet::kind("p"));
//! let src = net.add_source("src", vec![p]);
//! let q = net.add_queue("q", 1);
//! let sink = net.add_dead_sink("dead");
//! net.connect(src, 0, q, 0);
//! net.connect(q, 0, sink, 0);
//! let system = System::new(net);
//! let result = explore(&system, &ExplorerConfig::default());
//! assert!(!result.deadlocks.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod reach;
mod simulate;
mod state;
mod transfer;

pub use reach::{explore, explore_with_visitor, Exploration, ExplorerConfig, Outcome};
pub use simulate::{random_walk, SimulationReport, XorShift64};
pub use state::GlobalState;
pub use transfer::enabled_events;
