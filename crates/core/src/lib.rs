//! ADVOCAT — Automated Deadlock Verification for On-chip Cache coherence
//! and inTerconnects.
//!
//! This crate is the public facade of the ADVOCAT reproduction (Verbeek,
//! Yaghini, Eghbal, Bagherzadeh — DATE 2016).  It ties together the
//! substrate crates into the paper's fully automatic pipeline:
//!
//! 1. model the communication fabric in xMAS (`advocat-xmas`,
//!    `advocat-noc`) and the protocol agents as XMAS automata
//!    (`advocat-automata`, `advocat-protocols`),
//! 2. derive the per-channel color over-approximation `T`
//!    ([`advocat_automata::derive_colors`]),
//! 3. derive cross-layer invariants relating automaton states to en-route
//!    packets (`advocat-invariants`),
//! 4. encode the block/idle deadlock equations plus the invariants as an
//!    SMT instance and solve it (`advocat-deadlock`, `advocat-logic`),
//! 5. optionally confirm candidates by explicit-state exploration
//!    (`advocat-explorer`).
//!
//! The public surface is the **Query API**: a [`QueryEngine`] holds one
//! system, one derived encoding and one persistent solver, and answers any
//! number of [`Query`]s — each a point in the capacity × [`DeadlockTarget`]
//! × invariant-strengthening space, every dimension an assumption to the
//! same session.  [`QueryEngine::minimal_capacity`] runs the
//! queue-sizing search behind Figure 4 of the paper on one engine.  Two
//! shapes sit beside the engine: a [`Composition`]
//! ([`QueryEngine::compose`]) certifies a large fabric tile class by tile
//! class and checks the boundary between the tiles, and a [`Service`]
//! answers many clients' jobs from one warm engine pool.  A `Query` is
//! the only way to name the deadlock question: every layer — the engine,
//! the service, composition and the JSON wire form — carries one
//! [`DeadlockTarget`], and every "deadlock-free" verdict comes from a
//! solver run.  [`verify_system`](advocat_deadlock::verify_system) checks
//! a fresh solver once at fixed capacities, kept as an independent oracle.
//!
//! # Examples
//!
//! The Fig. 3 result of the paper — the 2×2 directory mesh deadlocks with
//! queues of size 2 but not 3 — and its spec ablation, answered by one
//! engine:
//!
//! ```
//! use advocat::prelude::*;
//!
//! // The directory sits at (1, 1): terminal 1 * 2 + 1 of the row-major mesh.
//! let mesh = FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3);
//! let system = build_fabric_for_sweep(&mesh, 3)?;
//! let mut engine = QueryEngine::on(system, 2..=3);
//! assert!(!engine.check(&Query::new().capacity(2)).is_deadlock_free());
//! assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
//! // Same session, different question: only the stuck-packet symptom.
//! let stuck = Query::new().capacity(2).target(DeadlockTarget::StuckPacket);
//! assert!(!engine.check(&stuck).is_deadlock_free());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
pub mod prelude;
mod query;
mod report;
pub mod service;
mod sizing;

pub use compose::{ComposeOptions, ComposeStats, Composition};
pub use query::{QueryEngine, SessionStats};
pub use report::Report;
pub use service::{
    Fingerprint, JobError, JobId, JobOutcome, JsonSubmitError, OutcomeError, PoolStats, Service,
    ServiceConfig, ServiceStats, VerifyJob,
};
pub use sizing::SizingResult;

// The query vocabulary lives next to the encoding in `advocat-deadlock`;
// re-export it here so engine users need only this crate.
pub use advocat_deadlock::{CapacitySelection, DeadlockTarget, Query};

// Re-export the building blocks so downstream users only need one
// dependency for common workflows.
pub use advocat_automata as automata;
pub use advocat_deadlock as deadlock;
pub use advocat_explorer as explorer;
pub use advocat_invariants as invariants;
pub use advocat_logic as logic;
pub use advocat_noc as noc;
pub use advocat_num as num;
pub use advocat_protocols as protocols;
pub use advocat_telemetry as telemetry;
pub use advocat_xmas as xmas;
