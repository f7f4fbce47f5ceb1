//! Network-on-chip fabric generation for arbitrary topologies.
//!
//! The ADVOCAT case study places its coherence protocols on a 2D mesh with
//! dimension-ordered (XY) routing and store-and-forward switching.  This
//! crate generalises that construction into a **topology engine**:
//!
//! * [`Topology`] — typed generators for meshes, tori, bidirectional
//!   rings, k-ary n-trees (fat trees) and irregular edge-list fabrics.
//!   Nodes hosting protocol agents are *terminals*; fat-tree switch stages
//!   are pure routers.
//! * [`RoutingFunction`] — deterministic, oblivious routing as a trait:
//!   [`DimensionOrdered`] (XY on meshes, dateline escape VCs on rings and
//!   tori), [`FatTreeRouting`] (d-mod-k up*/down*), [`TableRouting`]
//!   (shortest-path tables for irregular graphs) and [`UpDownRouting`]
//!   (spanning-tree up*/down*, the classic fix for irregular fabrics).
//! * [`audit_routing`] — a pre-encoding sanity check that walks every
//!   terminal pair, proves connectivity and builds the exact
//!   Dally–Seitz channel-dependency graph, reporting any cycle (e.g. a
//!   torus ring without dateline VCs).
//! * [`build_fabric`] — instantiates the xMAS network and protocol agents
//!   on *any* audited topology, the paper's XY-routed mesh included
//!   ([`Topology::mesh`] under its default [`DimensionOrdered`] routing).
//!
//! Every router input is a switch selecting the routing function's output
//! link (and virtual channel) per destination, every router output a fair
//! merge over the inputs that can feed it, every link a queue per
//! virtual-channel plane.  Planes compose the paper's request/response
//! message classes with the routing function's own escape VCs.
//!
//! # Examples
//!
//! ```
//! use advocat_noc::{build_fabric, FabricConfig, Topology};
//!
//! // The same protocol rides a ring instead of a mesh; dateline VCs keep
//! // the wraparound links deadlock-free.
//! let config = FabricConfig::new(Topology::ring(4)?, 3).with_directory(1);
//! let system = build_fabric(&config)?;
//! assert_eq!(system.stats().automata, 4);
//! system.validate()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdg;
mod digest;
mod fabric;
mod partition;
mod protocol;
mod routefn;
mod topology;

pub use cdg::{audit_routing, CdgChannel, RoutingAudit, RoutingError};
pub use digest::{ConfigDigest, StructHasher};
pub use fabric::{build_fabric, build_fabric_for_sweep, fabric_dot, FabricConfig, FabricError};
pub use partition::{
    boundary_graph, build_tile_fabric, BoundaryGraph, BoundaryPort, CutPort, Partition,
    PartitionError, PortDirection, Tile,
};
pub use protocol::ProtocolKind;
pub use routefn::{
    default_routing, DimensionOrdered, FatTreeRouting, RouteStep, RoutingFunction, TableRouting,
    UpDownRouting,
};
pub use topology::{EdgeId, NodeId, TopoEdge, TopoNode, Topology, TopologyError, TopologyKind};
