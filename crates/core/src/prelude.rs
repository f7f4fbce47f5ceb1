//! Convenience re-exports for the common ADVOCAT workflows.
//!
//! ```
//! use advocat::prelude::*;
//!
//! let system = build_fabric(&FabricConfig::new(Topology::mesh(2, 2)?, 3).with_directory(3))?;
//! let mut engine = QueryEngine::on(system, 3..=3);
//! assert!(engine.check(&Query::new().capacity(3)).is_deadlock_free());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use crate::{
    ComposeOptions, ComposeStats, Composition, QueryEngine, Report, SessionStats, SizingResult,
};

pub use crate::service::{
    Fingerprint, JobError, JobId, JobOutcome, JsonSubmitError, OutcomeError, PoolStats, Service,
    ServiceConfig, ServiceStats, VerifyJob,
};

pub use advocat_automata::{derive_colors, AutomatonBuilder, System};
pub use advocat_deadlock::{
    verify_system, CapacitySelection, DeadlockTarget, EncodingTemplate, Query, Verdict,
};
pub use advocat_explorer::{explore, random_walk, ExplorerConfig};
pub use advocat_invariants::{derive_invariants, format_invariant};
pub use advocat_logic::{CheckConfig, SolverConfig};
pub use advocat_noc::{
    audit_routing, boundary_graph, build_fabric, build_fabric_for_sweep, build_tile_fabric,
    default_routing, fabric_dot, BoundaryPort, DimensionOrdered, FabricConfig, FabricError,
    FatTreeRouting, Partition, ProtocolKind, RoutingFunction, TableRouting, Topology,
    UpDownRouting,
};
pub use advocat_protocols::{AbstractMi, FullMi, Mesi};
pub use advocat_telemetry::{MetricsRegistry, SolverProfile, Telemetry, TraceBuffer};
pub use advocat_xmas::{Network, Packet};
