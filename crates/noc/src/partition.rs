//! Partitions: cutting a [`Topology`] into tiles with named boundary
//! interfaces.
//!
//! Compositional verification works on *subfabrics*: a [`Partition`] cuts
//! the topology into disjoint [`Tile`]s (single nodes, mesh blocks, ring
//! segments or arbitrary node sets), and every topology link crossing a
//! cut becomes a typed [`BoundaryPort`] — the link's store-and-forward
//! queue, named exactly as the flat builder names it, tagged with its
//! message class, escape VC and direction relative to the tile.  A cut
//! queue belongs to its *downstream* tile: the tile that consumes from it
//! hosts the queue, the upstream tile sees the same port as egress.
//!
//! [`build_tile_fabric`] closes one tile into a standalone verifiable
//! system: ingress ports are fed by free environment sources, egress
//! merges drain into always-ready sinks.  [`Partition::tile_class_digests`]
//! buckets tiles that are *symmetric by construction* (same port shape,
//! same roles) so a warm-engine pool certifies each class once; the digest
//! is deliberately coarse — it asserts the symmetry rather than proving
//! it, which is why composed runs fall back to flat verification on small
//! fabrics (see the crate-level docs of `advocat`'s compose module).
//! [`boundary_graph`] abstracts the whole fabric into cut ports plus
//! waiting dependencies — the search space of the contract-level deadlock
//! check.

use std::collections::BTreeMap;
use std::fmt;

use advocat_automata::System;

use crate::digest::{ConfigDigest, StructHasher};
use crate::fabric::{build_fabric_scoped, class_planes, plane_suffix, FabricConfig, FabricError};
use crate::routefn::RouteStep;
use crate::topology::{EdgeId, NodeId, Topology, TopologyKind};

/// Which way packets flow through a boundary port, relative to a tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortDirection {
    /// Packets enter the tile here (the tile owns the cut queue).
    Ingress,
    /// Packets leave the tile here (the neighbouring tile owns the queue).
    Egress,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDirection::Ingress => write!(f, "ingress"),
            PortDirection::Egress => write!(f, "egress"),
        }
    }
}

/// One cut channel of a tile: a typed, named boundary interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundaryPort {
    /// The cut queue's name, exactly as the flat builder names it
    /// (`q{from}→{to}` plus the plane suffix) — the shared vocabulary
    /// between tile encodings, contracts and the composition check.
    pub name: String,
    /// The cut topology edge.
    pub edge: EdgeId,
    /// Message class of the port's plane.
    pub class: usize,
    /// Routing escape VC of the port's plane.
    pub vc: usize,
    /// The flat plane index (`class × num_vcs + vc`).
    pub plane: usize,
    /// Flow direction relative to the tile.
    pub direction: PortDirection,
}

/// A named set of topology nodes forming one subfabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Display name (node label, `block(x,y)`, `seg(i)`, …).
    pub name: String,
    nodes: Vec<NodeId>,
}

impl Tile {
    /// The tile's nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// Errors raised for ill-formed partitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A partition needs at least one tile, and every tile a node.
    EmptyTile,
    /// A tile references a node outside the topology.
    UnknownNode {
        /// The offending node index.
        index: usize,
    },
    /// Two tiles claim the same node.
    Overlap {
        /// The doubly-claimed node's label.
        node: String,
    },
    /// A node belongs to no tile (partitions must cover the topology).
    Uncovered {
        /// The orphaned node's label.
        node: String,
    },
    /// The constructor only applies to a specific topology family.
    UnsupportedTopology {
        /// What the constructor needed.
        expected: &'static str,
    },
    /// Block or segment extents must be at least one node.
    ZeroExtent,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::EmptyTile => write!(f, "partition tiles must be non-empty"),
            PartitionError::UnknownNode { index } => {
                write!(f, "tile references node {index} outside the topology")
            }
            PartitionError::Overlap { node } => {
                write!(f, "node {node} is claimed by two tiles")
            }
            PartitionError::Uncovered { node } => {
                write!(f, "node {node} belongs to no tile")
            }
            PartitionError::UnsupportedTopology { expected } => {
                write!(
                    f,
                    "this partition constructor requires a {expected} topology"
                )
            }
            PartitionError::ZeroExtent => write!(f, "tile extents must be at least one"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A disjoint, covering cut of a topology into named [`Tile`]s.
#[derive(Clone, Debug)]
pub struct Partition {
    tiles: Vec<Tile>,
    /// Node index → owning tile index.
    owner: Vec<usize>,
}

impl Partition {
    /// Builds a partition from explicit `(name, node indices)` sets,
    /// validating that the sets disjointly cover the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] when the sets are not a partition.
    pub fn from_node_sets(
        topo: &Topology,
        sets: Vec<(String, Vec<usize>)>,
    ) -> Result<Self, PartitionError> {
        if sets.is_empty() {
            return Err(PartitionError::EmptyTile);
        }
        let mut owner = vec![usize::MAX; topo.num_nodes()];
        let mut tiles = Vec::with_capacity(sets.len());
        for (t, (name, indices)) in sets.into_iter().enumerate() {
            if indices.is_empty() {
                return Err(PartitionError::EmptyTile);
            }
            let mut nodes = Vec::with_capacity(indices.len());
            for index in indices {
                if index >= topo.num_nodes() {
                    return Err(PartitionError::UnknownNode { index });
                }
                if owner[index] != usize::MAX {
                    return Err(PartitionError::Overlap {
                        node: topo.node(NodeId::from_index(index)).label.clone(),
                    });
                }
                owner[index] = t;
                nodes.push(NodeId::from_index(index));
            }
            tiles.push(Tile { name, nodes });
        }
        if let Some(index) = owner.iter().position(|&t| t == usize::MAX) {
            return Err(PartitionError::Uncovered {
                node: topo.node(NodeId::from_index(index)).label.clone(),
            });
        }
        Ok(Partition { tiles, owner })
    }

    /// The finest partition: one tile per node, named after the node's
    /// label.  Works on every topology and is the default cut used by
    /// compositional verification.
    pub fn per_node(topo: &Topology) -> Self {
        let sets = topo
            .node_ids()
            .map(|n| (topo.node(n).label.clone(), vec![n.index()]))
            .collect();
        Partition::from_node_sets(topo, sets).expect("per-node sets are a partition")
    }

    /// Cuts a mesh or torus into `block_width × block_height` blocks
    /// (ragged at the far edges when the extents do not divide evenly),
    /// named `block(bx,by)`.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] on non-mesh topologies or zero
    /// extents.
    pub fn mesh_blocks(
        topo: &Topology,
        block_width: usize,
        block_height: usize,
    ) -> Result<Self, PartitionError> {
        if !matches!(
            topo.kind(),
            TopologyKind::Mesh { .. } | TopologyKind::Torus { .. }
        ) {
            return Err(PartitionError::UnsupportedTopology {
                expected: "mesh or torus",
            });
        }
        if block_width == 0 || block_height == 0 {
            return Err(PartitionError::ZeroExtent);
        }
        let mut blocks: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        for node in topo.node_ids() {
            let coords = &topo.node(node).coords;
            let (x, y) = (coords[0], coords[1]);
            blocks
                .entry((x / block_width as i64, y / block_height as i64))
                .or_default()
                .push(node.index());
        }
        let sets = blocks
            .into_iter()
            .map(|((bx, by), nodes)| (format!("block({bx},{by})"), nodes))
            .collect();
        Partition::from_node_sets(topo, sets)
    }

    /// Cuts a ring into contiguous segments of `length` nodes (the last
    /// segment ragged), named `seg(i)`.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] on non-ring topologies or a zero
    /// length.
    pub fn ring_segments(topo: &Topology, length: usize) -> Result<Self, PartitionError> {
        if !matches!(topo.kind(), TopologyKind::Ring { .. }) {
            return Err(PartitionError::UnsupportedTopology { expected: "ring" });
        }
        if length == 0 {
            return Err(PartitionError::ZeroExtent);
        }
        let mut segments: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for node in topo.node_ids() {
            let position = topo.node(node).coords[0];
            segments
                .entry(position / length as i64)
                .or_default()
                .push(node.index());
        }
        let sets = segments
            .into_iter()
            .map(|(s, nodes)| (format!("seg({s})"), nodes))
            .collect();
        Partition::from_node_sets(topo, sets)
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The tiles, in index order.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// One tile by index.
    pub fn tile(&self, index: usize) -> &Tile {
        &self.tiles[index]
    }

    /// The index of the tile owning `node`.
    pub fn tile_of(&self, node: NodeId) -> usize {
        self.owner[node.index()]
    }

    /// The boundary interface of one tile under `config`: every cut
    /// channel, typed by direction, message class and VC plane, ordered
    /// by edge then plane.
    pub fn boundary_ports(&self, config: &FabricConfig, tile: usize) -> Vec<BoundaryPort> {
        let topo = &config.topology;
        let route_vcs = config.routing.num_vcs(topo).max(1);
        let planes = config.planes();
        let mut ports = Vec::new();
        for edge in topo.edge_ids() {
            let e = topo.edge(edge);
            let (from_tile, to_tile) = (self.tile_of(e.from), self.tile_of(e.to));
            let direction = if to_tile == tile && from_tile != tile {
                PortDirection::Ingress
            } else if from_tile == tile && to_tile != tile {
                PortDirection::Egress
            } else {
                continue;
            };
            for plane in 0..planes {
                ports.push(BoundaryPort {
                    name: format!("q{}{}", topo.edge_label(edge), plane_suffix(planes, plane)),
                    edge,
                    class: plane / route_vcs,
                    vc: plane % route_vcs,
                    plane,
                    direction,
                });
            }
        }
        ports
    }

    /// One digest per tile, in tile order, bucketing tiles whose closed
    /// systems are symmetric by construction: same fabric, same boundary
    /// port shape (direction × class × VC multiset), same node/terminal
    /// counts and the same directory role.  The fabric's
    /// [`FabricConfig::structure_digest`] is computed once and shared by
    /// every tile.  **Deliberately coarse**: it identifies tiles that
    /// are congruent up to relabelling destinations (e.g. every interior
    /// node of a mesh) without proving the congruence — callers relying on
    /// it for verdicts must pair it with a flat fallback or accept the
    /// symmetry assumption.
    pub fn tile_class_digests(&self, config: &FabricConfig) -> Vec<ConfigDigest> {
        let fabric = config.structure_digest();
        (0..self.tiles.len())
            .map(|tile| self.tile_class_digest(config, fabric, tile))
            .collect()
    }

    /// One tile's class digest over the precomputed fabric digest.
    fn tile_class_digest(
        &self,
        config: &FabricConfig,
        fabric: ConfigDigest,
        tile: usize,
    ) -> ConfigDigest {
        let topo = &config.topology;
        let mut h = StructHasher::default();
        h.u64(fabric.0);
        h.u64(fabric.1);
        let t = &self.tiles[tile];
        h.usize(t.nodes.len());
        let mut terminals = 0usize;
        let mut directory = false;
        for &node in &t.nodes {
            if let Some(terminal) = topo.terminal_of(node) {
                terminals += 1;
                if terminal == config.directory {
                    directory = true;
                }
            }
        }
        h.usize(terminals);
        h.bool(directory);
        // Internal edge count plus the sorted port-type multiset.
        let internal = topo
            .edge_ids()
            .filter(|&e| {
                let edge = topo.edge(e);
                self.tile_of(edge.from) == tile && self.tile_of(edge.to) == tile
            })
            .count();
        h.usize(internal);
        let mut shape: Vec<(u8, usize, usize)> = self
            .boundary_ports(config, tile)
            .into_iter()
            .map(|p| {
                (
                    u8::from(p.direction == PortDirection::Egress),
                    p.class,
                    p.vc,
                )
            })
            .collect();
        shape.sort_unstable();
        h.usize(shape.len());
        for (direction, class, vc) in shape {
            h.bytes(&[direction]);
            h.usize(class);
            h.usize(vc);
        }
        h.finish()
    }

    /// Maps a primitive name from a counterexample — a link queue
    /// (`q{from}→{to}…`) or a protocol agent (`cache{label}`,
    /// `dir{label}`) — to the name of the tile owning it.  Cut queues
    /// attribute to their downstream (owning) tile.
    pub fn attribute(&self, topo: &Topology, name: &str) -> Option<String> {
        let tile_of_label = |label: &str| -> Option<String> {
            topo.node_ids()
                .find(|&n| topo.node(n).label == label)
                .map(|n| self.tiles[self.tile_of(n)].name.clone())
        };
        if let Some(rest) = name
            .strip_prefix("cache")
            .or_else(|| name.strip_prefix("dir"))
        {
            return tile_of_label(rest);
        }
        if let Some(rest) = name.strip_prefix('q') {
            let (_, to) = rest.split_once('→')?;
            // Node labels always end with ')'; anything after is the
            // plane suffix.
            let end = to.find(')')?;
            return tile_of_label(&to[..=end]);
        }
        None
    }
}

/// The whole fabric abstracted to its cut channels: one [`CutPort`] per
/// (cut edge, VC plane), with the waiting dependencies the composition
/// check searches over.
#[derive(Clone, Debug)]
pub struct BoundaryGraph {
    /// Cut ports, ordered by edge then plane.
    pub ports: Vec<CutPort>,
}

/// One cut channel in the global boundary view (ingress of `to_tile`,
/// egress of `from_tile` — the same queue seen from both sides).
#[derive(Clone, Debug)]
pub struct CutPort {
    /// The cut queue's name (shared with tile encodings and contracts).
    pub name: String,
    /// The cut topology edge.
    pub edge: EdgeId,
    /// Message class of the plane.
    pub class: usize,
    /// Routing escape VC of the plane.
    pub vc: usize,
    /// The tile the link leaves.
    pub from_tile: usize,
    /// The tile the link enters (owner of the queue).
    pub to_tile: usize,
    /// Ports a packet at the head of this queue may be waiting on:
    /// indices into [`BoundaryGraph::ports`].
    pub deps: Vec<usize>,
}

/// Builds the boundary waiting graph of `partition` under `config`.
///
/// For every cut port, the routing function is walked *through* the
/// destination tile: a packet that exits the tile again depends on the
/// egress port it exits through; a packet delivered inside the tile
/// depends (conservatively) on every egress port of a strictly higher
/// message class — protocol agents answer requests with responses — or,
/// without class planes, on every egress port of the tile.  Destinations
/// are over-approximated by all terminals, which only adds dependencies
/// and therefore keeps the abstraction sound for deadlock-freedom.
pub fn boundary_graph(config: &FabricConfig, partition: &Partition) -> BoundaryGraph {
    let topo = &config.topology;
    let routing = config.routing.as_ref();
    let route_vcs = routing.num_vcs(topo).max(1);
    let classes = class_planes(config.message_class_vcs);
    let planes = classes * route_vcs;

    let mut ports: Vec<CutPort> = Vec::new();
    let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for edge in topo.edge_ids() {
        let e = topo.edge(edge);
        let (from_tile, to_tile) = (partition.tile_of(e.from), partition.tile_of(e.to));
        if from_tile == to_tile {
            continue;
        }
        for plane in 0..planes {
            index.insert((edge.index(), plane), ports.len());
            ports.push(CutPort {
                name: format!("q{}{}", topo.edge_label(edge), plane_suffix(planes, plane)),
                edge,
                class: plane / route_vcs,
                vc: plane % route_vcs,
                from_tile,
                to_tile,
                deps: Vec::new(),
            });
        }
    }

    // Egress ports per (tile, class), for the delivery rule.
    let mut egress: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, port) in ports.iter().enumerate() {
        egress
            .entry((port.from_tile, port.class))
            .or_default()
            .push(i);
    }

    for port in &mut ports {
        let (edge, class, vc, tile) = (port.edge, port.class, port.vc, port.to_tile);
        let mut deps: Vec<usize> = Vec::new();
        for dst in topo.terminals() {
            let mut node = topo.edge(edge).to;
            let mut arrived = Some(edge);
            let mut cur_vc = vc;
            // The walk is bounded by the tile diameter; the guard only
            // protects against a (rejected-by-audit) routing cycle.
            for _ in 0..=topo.num_nodes() {
                match routing.route(topo, node, arrived, cur_vc, *dst) {
                    None => break,
                    Some(RouteStep::Deliver) => {
                        let waits_on_classes = if classes == 1 {
                            vec![0]
                        } else {
                            ((class + 1)..classes).collect()
                        };
                        for c in waits_on_classes {
                            if let Some(outs) = egress.get(&(tile, c)) {
                                deps.extend(outs.iter().copied());
                            }
                        }
                        break;
                    }
                    Some(RouteStep::Forward {
                        edge: next,
                        vc: out_vc,
                    }) => {
                        let to = topo.edge(next).to;
                        if partition.tile_of(to) != tile {
                            if let Some(&dep) =
                                index.get(&(next.index(), class * route_vcs + out_vc))
                            {
                                deps.push(dep);
                            }
                            break;
                        }
                        node = to;
                        arrived = Some(next);
                        cur_vc = out_vc;
                    }
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        port.deps = deps;
    }

    BoundaryGraph { ports }
}

/// Builds one tile of a partition as a standalone, verifiable [`System`]:
/// the tile's own queues, routing logic and protocol agents, closed at
/// its boundary with free environment sources (ingress) and always-ready
/// sinks (egress).  All primitive names match the flat build of the same
/// configuration, so invariants projected from the tile speak the same
/// vocabulary as the composition check.
///
/// # Errors
///
/// Returns a [`FabricError`] when the underlying configuration is
/// invalid.
///
/// # Panics
///
/// Panics when `tile` is out of range for `partition`.
///
/// # Examples
///
/// ```
/// use advocat_noc::{build_tile_fabric, FabricConfig, Partition, Topology};
///
/// let config = FabricConfig::new(Topology::mesh(2, 2)?, 2).with_directory(3);
/// let partition = Partition::per_node(&config.topology);
/// let tile = build_tile_fabric(&config, &partition, 0)?;
/// tile.validate()?;
/// assert_eq!(tile.stats().automata, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_tile_fabric(
    config: &FabricConfig,
    partition: &Partition,
    tile: usize,
) -> Result<System, FabricError> {
    assert!(
        tile < partition.num_tiles(),
        "tile {tile} out of range for a {}-tile partition",
        partition.num_tiles()
    );
    build_fabric_scoped(config, Some((partition, tile)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh_config() -> FabricConfig {
        FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3)
    }

    #[test]
    fn per_node_partition_covers_every_node() {
        let config = mesh_config();
        let partition = Partition::per_node(&config.topology);
        assert_eq!(partition.num_tiles(), 4);
        for node in config.topology.node_ids() {
            let tile = partition.tile(partition.tile_of(node));
            assert!(tile.nodes().contains(&node));
        }
    }

    #[test]
    fn explicit_sets_must_disjointly_cover() {
        let topo = Topology::mesh(2, 2).unwrap();
        let overlap = Partition::from_node_sets(
            &topo,
            vec![("a".into(), vec![0, 1]), ("b".into(), vec![1, 2, 3])],
        );
        assert!(matches!(overlap, Err(PartitionError::Overlap { .. })));
        let uncovered = Partition::from_node_sets(&topo, vec![("a".into(), vec![0, 1, 2])]);
        assert!(matches!(uncovered, Err(PartitionError::Uncovered { .. })));
        let unknown = Partition::from_node_sets(&topo, vec![("a".into(), vec![0, 9])]);
        assert!(matches!(
            unknown,
            Err(PartitionError::UnknownNode { index: 9 })
        ));
    }

    #[test]
    fn mesh_blocks_and_ring_segments_respect_topology_families() {
        let mesh = Topology::mesh(4, 4).unwrap();
        let blocks = Partition::mesh_blocks(&mesh, 2, 2).unwrap();
        assert_eq!(blocks.num_tiles(), 4);
        assert!(blocks.tiles().iter().all(|t| t.nodes().len() == 4));
        let ring = Topology::ring(6).unwrap();
        let segments = Partition::ring_segments(&ring, 2).unwrap();
        assert_eq!(segments.num_tiles(), 3);
        assert!(matches!(
            Partition::mesh_blocks(&ring, 2, 2),
            Err(PartitionError::UnsupportedTopology { .. })
        ));
        assert!(matches!(
            Partition::ring_segments(&mesh, 2),
            Err(PartitionError::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn boundary_ports_type_each_cut_channel() {
        let config = mesh_config();
        let partition = Partition::per_node(&config.topology);
        // Corner node (0,0): degree 2, one plane → 2 ingress + 2 egress.
        let corner = partition.tile_of(config.topology.node_ids().next().unwrap());
        let ports = partition.boundary_ports(&config, corner);
        assert_eq!(ports.len(), 4);
        assert_eq!(
            ports
                .iter()
                .filter(|p| p.direction == PortDirection::Ingress)
                .count(),
            2
        );
        assert!(ports.iter().all(|p| p.name.starts_with('q')));
        // With message-class planes every cut doubles.
        let vc_config = mesh_config().with_message_class_vcs(true);
        let vc_ports = partition.boundary_ports(&vc_config, corner);
        assert_eq!(vc_ports.len(), 8);
        assert!(vc_ports.iter().any(|p| p.class == 1));
    }

    #[test]
    fn tile_class_digest_buckets_symmetric_tiles() {
        let topo = Topology::mesh(4, 4).unwrap();
        let config = FabricConfig::new(topo, 2).with_directory(5); // (1,1): interior
        let partition = Partition::per_node(&config.topology);
        let digests = partition.tile_class_digests(&config);
        let mut distinct = digests.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // Corner, edge, interior, directory — exactly four classes.
        assert_eq!(distinct.len(), 4);
        // Corners (degree 2) all agree.
        assert_eq!(digests[0], digests[3]);
        assert_eq!(digests[0], digests[12]);
        assert_eq!(digests[0], digests[15]);
        // The directory tile stands apart from other interior tiles.
        assert_ne!(digests[5], digests[6]);
    }

    #[test]
    fn tile_fabric_closes_the_cut_with_environment() {
        let config = mesh_config();
        let partition = Partition::per_node(&config.topology);
        let tile = build_tile_fabric(&config, &partition, 0).unwrap();
        tile.validate().unwrap();
        assert_eq!(tile.stats().automata, 1);
        // 2 in-edges → 2 cut queues, each fed by an env source; 2 egress
        // sinks; plus the cache's core source.
        assert_eq!(tile.stats().queues, 2);
        let hist = tile.network().kind_histogram();
        assert_eq!(hist.get("sink"), Some(&2));
        assert_eq!(hist.get("source"), Some(&3));
        let names: Vec<&str> = tile
            .network()
            .primitive_ids()
            .map(|id| tile.network().name(id))
            .collect();
        assert!(names.iter().filter(|n| n.starts_with("env.q")).count() == 4);
    }

    #[test]
    fn boundary_graph_walks_dependencies_through_tiles() {
        let config = mesh_config();
        let partition = Partition::per_node(&config.topology);
        let graph = boundary_graph(&config, &partition);
        // Every mesh edge is a cut under the per-node partition.
        assert_eq!(graph.ports.len(), config.topology.num_edges());
        // Single class: a delivered packet waits on every egress of its
        // tile, so every port has at least one dependency.
        assert!(graph.ports.iter().all(|p| !p.deps.is_empty()));
        for port in &graph.ports {
            for &dep in &port.deps {
                // A dependency leaves the tile the packet entered.
                assert_eq!(graph.ports[dep].from_tile, port.to_tile);
            }
        }
    }

    #[test]
    fn attribution_maps_queues_and_agents_to_tiles() {
        let config = mesh_config();
        let partition = Partition::per_node(&config.topology);
        let topo = &config.topology;
        assert_eq!(
            partition.attribute(topo, "q(0,0)→(1,0)").as_deref(),
            Some("(1,0)")
        );
        assert_eq!(
            partition.attribute(topo, "q(1,0)→(1,1).vc1").as_deref(),
            Some("(1,1)")
        );
        assert_eq!(
            partition.attribute(topo, "cache(0,1)").as_deref(),
            Some("(0,1)")
        );
        assert_eq!(
            partition.attribute(topo, "dir(1,1)").as_deref(),
            Some("(1,1)")
        );
        assert_eq!(partition.attribute(topo, "core(0,0)"), None);
    }
}
