//! Interconnect topologies: typed generators and an edge-list core.
//!
//! A [`Topology`] is a directed multigraph over *fabric nodes*.  Nodes that
//! host a protocol agent (a cache or the directory) are **terminals**;
//! non-terminal nodes are pure routers, as in the switch stages of a fat
//! tree.  Every directed edge becomes one link queue per virtual-channel
//! plane when the fabric is instantiated ([`crate::build_fabric`]).
//!
//! Generators exist for the common regular families — [`Topology::mesh`],
//! [`Topology::torus`], [`Topology::ring`], [`Topology::fat_tree`] — and
//! for irregular fabrics given as an explicit edge list
//! ([`Topology::irregular`]).  Edges carry the metadata routing functions
//! need: the dimension they travel (for dimension-ordered routing), their
//! direction along it, and whether they are wraparound (dateline) links.

use std::fmt;

/// A compact handle for a node of a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node with the given raw index.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }

    /// Returns the raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compact handle for a directed edge of a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl EdgeId {
    /// Returns the raw index of the edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fabric node.
#[derive(Clone, Debug)]
pub struct TopoNode {
    /// Parenthesised label used in generated primitive names, e.g. `(1,0)`.
    pub label: String,
    /// Whether the node hosts a protocol agent.
    pub terminal: bool,
    /// Integer coordinates (one entry per dimension) for dimension-ordered
    /// routing and layout; empty for nodes outside a coordinate grid.
    pub coords: Vec<i64>,
    /// Tree depth (0 = root stage) for up*/down* routing; 0 elsewhere.
    pub level: usize,
}

/// A directed link between two fabric nodes.
#[derive(Clone, Debug)]
pub struct TopoEdge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// The dimension this edge travels, for orthogonal topologies.
    pub dim: Option<usize>,
    /// Direction along [`TopoEdge::dim`]: `true` = increasing coordinate.
    pub positive: bool,
    /// Whether this is a wraparound (dateline) link of a ring dimension.
    pub wrap: bool,
}

/// Which generator produced a topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// 2D mesh of `width × height` terminals.
    Mesh {
        /// Number of columns.
        width: u32,
        /// Number of rows.
        height: u32,
    },
    /// 2D torus (mesh plus wraparound links in both dimensions).
    Torus {
        /// Number of columns.
        width: u32,
        /// Number of rows.
        height: u32,
    },
    /// Bidirectional ring of `nodes` terminals.
    Ring {
        /// Number of terminals.
        nodes: u32,
    },
    /// k-ary n-tree: `arity`ⁿ terminals under `levels` switch stages.
    FatTree {
        /// Switch radix towards each side (k).
        arity: u32,
        /// Number of switch stages (n).
        levels: u32,
    },
    /// Custom topology from an explicit edge list.
    Irregular,
}

/// Errors raised for nonsensical topology parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has fewer than two terminals.
    TooFewTerminals,
    /// A torus needs at least two nodes per dimension.
    DimensionTooSmall,
    /// A ring needs at least three nodes (smaller rings are meshes).
    RingTooSmall,
    /// A fat tree needs arity ≥ 2 and at least one switch stage.
    FatTreeTooSmall,
    /// The generated topology would exceed the supported size.
    TooLarge,
    /// An irregular edge references a node outside the node list.
    EdgeOutOfBounds,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooFewTerminals => {
                write!(f, "topology must have at least two terminal nodes")
            }
            TopologyError::DimensionTooSmall => {
                write!(f, "torus dimensions must be at least two nodes long")
            }
            TopologyError::RingTooSmall => write!(f, "ring must have at least three nodes"),
            TopologyError::FatTreeTooSmall => {
                write!(f, "fat tree needs arity >= 2 and at least one level")
            }
            TopologyError::TooLarge => write!(f, "topology exceeds the supported size"),
            TopologyError::EdgeOutOfBounds => {
                write!(f, "edge references a node outside the topology")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Upper bound on generated node counts; far above anything the solver can
/// chew through, but it keeps `fat_tree(8, 8)`-style typos from allocating.
const MAX_NODES: usize = 1 << 14;

/// Refuses a node count (`None` when computing it overflowed) above
/// [`MAX_NODES`].  Generators call it *before* building any node, so an
/// oversized request costs nothing.
fn within_cap(count: Option<usize>) -> Result<usize, TopologyError> {
    count
        .filter(|n| *n <= MAX_NODES)
        .ok_or(TopologyError::TooLarge)
}

/// A directed multigraph describing an interconnect.
///
/// # Examples
///
/// ```
/// use advocat_noc::Topology;
///
/// let ring = Topology::ring(5)?;
/// assert_eq!(ring.num_nodes(), 5);
/// assert_eq!(ring.num_terminals(), 5);
/// assert_eq!(ring.num_edges(), 10); // clockwise + counter-clockwise
/// let tree = Topology::fat_tree(2, 2)?;
/// assert_eq!(tree.num_terminals(), 4); // 2² leaves
/// assert_eq!(tree.num_nodes(), 8); // + 2·2 switches
/// # Ok::<(), advocat_noc::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    name: String,
    kind: TopologyKind,
    nodes: Vec<TopoNode>,
    edges: Vec<TopoEdge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    terminals: Vec<NodeId>,
    terminal_index: Vec<Option<u32>>,
    dim_wraps: Vec<bool>,
    dim_lens: Vec<i64>,
}

impl Topology {
    fn assemble(
        name: String,
        kind: TopologyKind,
        nodes: Vec<TopoNode>,
        edges: Vec<TopoEdge>,
    ) -> Result<Topology, TopologyError> {
        if nodes.len() > MAX_NODES {
            return Err(TopologyError::TooLarge);
        }
        let mut out_edges = vec![Vec::new(); nodes.len()];
        let mut in_edges = vec![Vec::new(); nodes.len()];
        let mut dim_wraps = Vec::new();
        for (i, edge) in edges.iter().enumerate() {
            if edge.from.index() >= nodes.len() || edge.to.index() >= nodes.len() {
                return Err(TopologyError::EdgeOutOfBounds);
            }
            out_edges[edge.from.index()].push(EdgeId(i as u32));
            in_edges[edge.to.index()].push(EdgeId(i as u32));
            if let Some(dim) = edge.dim {
                if dim_wraps.len() <= dim {
                    dim_wraps.resize(dim + 1, false);
                }
                dim_wraps[dim] |= edge.wrap;
            }
        }
        let mut terminals = Vec::new();
        let mut terminal_index = vec![None; nodes.len()];
        let mut dim_lens = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.terminal {
                terminal_index[i] = Some(terminals.len() as u32);
                terminals.push(NodeId(i as u32));
            }
            for (dim, coord) in node.coords.iter().enumerate() {
                if dim_lens.len() <= dim {
                    dim_lens.resize(dim + 1, 0);
                }
                dim_lens[dim] = dim_lens[dim].max(coord + 1);
            }
        }
        if terminals.len() < 2 {
            return Err(TopologyError::TooFewTerminals);
        }
        Ok(Topology {
            name,
            kind,
            nodes,
            edges,
            out_edges,
            in_edges,
            terminals,
            terminal_index,
            dim_wraps,
            dim_lens,
        })
    }

    fn grid(width: u32, height: u32, wrap: bool) -> Result<Topology, TopologyError> {
        let (w, h) = (width as i64, height as i64);
        if wrap && (width < 2 || height < 2) {
            return Err(TopologyError::DimensionTooSmall);
        }
        within_cap((width as usize).checked_mul(height as usize))?;
        let mut nodes = Vec::new();
        for y in 0..h {
            for x in 0..w {
                nodes.push(TopoNode {
                    label: format!("({x},{y})"),
                    terminal: true,
                    coords: vec![x, y],
                    level: 0,
                });
            }
        }
        let id = |x: i64, y: i64| NodeId((y * w + x) as u32);
        let mut edges = Vec::new();
        let mut link = |from: NodeId, to: NodeId, dim: usize, positive: bool, wrap: bool| {
            edges.push(TopoEdge {
                from,
                to,
                dim: Some(dim),
                positive,
                wrap,
            });
        };
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    link(id(x, y), id(x + 1, y), 0, true, false);
                    link(id(x + 1, y), id(x, y), 0, false, false);
                }
                if y + 1 < h {
                    link(id(x, y), id(x, y + 1), 1, true, false);
                    link(id(x, y + 1), id(x, y), 1, false, false);
                }
            }
            if wrap {
                link(id(w - 1, y), id(0, y), 0, true, true);
                link(id(0, y), id(w - 1, y), 0, false, true);
            }
        }
        if wrap {
            for x in 0..w {
                link(id(x, h - 1), id(x, 0), 1, true, true);
                link(id(x, 0), id(x, h - 1), 1, false, true);
            }
        }
        let kind = if wrap {
            TopologyKind::Torus { width, height }
        } else {
            TopologyKind::Mesh { width, height }
        };
        let name = format!(
            "{}{}x{}",
            if wrap { "torus" } else { "mesh" },
            width,
            height
        );
        Topology::assemble(name, kind, nodes, edges)
    }

    /// A `width × height` 2D mesh; every node is a terminal.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] when the mesh has fewer than two nodes
    /// or more than the supported size.
    pub fn mesh(width: u32, height: u32) -> Result<Topology, TopologyError> {
        Topology::grid(width, height, false)
    }

    /// A `width × height` 2D torus: the mesh plus wraparound links in both
    /// dimensions (marked [`TopoEdge::wrap`], where datelines live).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] when a dimension is shorter than two
    /// nodes or the torus exceeds the supported size.
    pub fn torus(width: u32, height: u32) -> Result<Topology, TopologyError> {
        Topology::grid(width, height, true)
    }

    /// A bidirectional ring of `n` terminals (dimension 0; the links
    /// `n−1 → 0` and `0 → n−1` are the wraparound links).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] when `n < 3` or `n` exceeds the
    /// supported size.
    pub fn ring(n: u32) -> Result<Topology, TopologyError> {
        if n < 3 {
            return Err(TopologyError::RingTooSmall);
        }
        within_cap(usize::try_from(n).ok())?;
        let nodes = (0..n)
            .map(|i| TopoNode {
                label: format!("({i})"),
                terminal: true,
                coords: vec![i as i64],
                level: 0,
            })
            .collect();
        let mut edges = Vec::new();
        for i in 0..n {
            let next = (i + 1) % n;
            edges.push(TopoEdge {
                from: NodeId(i),
                to: NodeId(next),
                dim: Some(0),
                positive: true,
                wrap: next == 0,
            });
            edges.push(TopoEdge {
                from: NodeId(next),
                to: NodeId(i),
                dim: Some(0),
                positive: false,
                wrap: next == 0,
            });
        }
        Topology::assemble(
            format!("ring{n}"),
            TopologyKind::Ring { nodes: n },
            nodes,
            edges,
        )
    }

    /// A k-ary n-tree (the standard fat-tree construction): `arity`ⁿ leaf
    /// terminals, `levels · arityⁿ⁻¹` switches, every switch with `arity`
    /// down-links and (below the root stage) `arity` up-links.
    ///
    /// Leaves come first in the node order, so terminal index `i` is leaf
    /// `i`; its base-`arity` digits select the up-path under d-mod-k
    /// routing ([`crate::FatTreeRouting`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] for `arity < 2`, `levels < 1` or
    /// oversized trees.
    pub fn fat_tree(arity: u32, levels: u32) -> Result<Topology, TopologyError> {
        if arity < 2 || levels < 1 {
            return Err(TopologyError::FatTreeTooSmall);
        }
        let k = arity as usize;
        let n = levels as usize;
        let num_leaves = within_cap(k.checked_pow(levels))?;
        let switches_per_level = num_leaves / k;
        within_cap(
            switches_per_level
                .checked_mul(n)
                .and_then(|switches| switches.checked_add(num_leaves)),
        )?;
        let mut nodes = Vec::new();
        for p in 0..num_leaves {
            nodes.push(TopoNode {
                label: format!("({p})"),
                terminal: true,
                coords: vec![p as i64],
                level: n, // leaves sit below the deepest switch stage
            });
        }
        for l in 0..n {
            for w in 0..switches_per_level {
                nodes.push(TopoNode {
                    label: format!("(sw{l}:{w})"),
                    terminal: false,
                    coords: vec![w as i64, l as i64],
                    level: n - 1 - l,
                });
            }
        }
        let switch_id =
            |l: usize, w: usize| NodeId((num_leaves + l * switches_per_level + w) as u32);
        let mut edges = Vec::new();
        let mut link = |a: NodeId, b: NodeId| {
            // Up then down; `dim` is unused in trees.
            edges.push(TopoEdge {
                from: a,
                to: b,
                dim: None,
                positive: true,
                wrap: false,
            });
            edges.push(TopoEdge {
                from: b,
                to: a,
                dim: None,
                positive: false,
                wrap: false,
            });
        };
        // Leaf p attaches to the level-0 switch whose digits are p's upper
        // digits (w = p / k).
        for p in 0..num_leaves {
            link(NodeId(p as u32), switch_id(0, p / k));
        }
        // Switch ⟨w, l⟩ attaches upward to the level-(l+1) switches that
        // agree with w on every digit except digit l.
        let digit_stride = |digit: usize| k.pow(digit as u32);
        for l in 0..n.saturating_sub(1) {
            let stride = digit_stride(l);
            for w in 0..switches_per_level {
                let digit = (w / stride) % k;
                for v in 0..k {
                    let parent = w - digit * stride + v * stride;
                    link(switch_id(l, w), switch_id(l + 1, parent));
                }
            }
        }
        Topology::assemble(
            format!("fat-tree{arity}^{levels}"),
            TopologyKind::FatTree { arity, levels },
            nodes,
            edges,
        )
    }

    /// An irregular topology from an explicit node and edge list.
    ///
    /// `terminals` lists the node indices that host protocol agents (in
    /// terminal order); `edges` are directed `(from, to)` pairs — list both
    /// directions for bidirectional links.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] when fewer than two terminals are given,
    /// an edge endpoint is out of bounds or `num_nodes` exceeds the
    /// supported size.
    pub fn irregular(
        name: impl Into<String>,
        num_nodes: u32,
        terminals: &[u32],
        edges: &[(u32, u32)],
    ) -> Result<Topology, TopologyError> {
        within_cap(usize::try_from(num_nodes).ok())?;
        let nodes = (0..num_nodes)
            .map(|i| TopoNode {
                label: format!("({i})"),
                terminal: terminals.contains(&i),
                coords: vec![i as i64],
                level: 0,
            })
            .collect();
        let edges = edges
            .iter()
            .map(|(a, b)| TopoEdge {
                from: NodeId(*a),
                to: NodeId(*b),
                dim: None,
                positive: true,
                wrap: false,
            })
            .collect();
        Topology::assemble(name.into(), TopologyKind::Irregular, nodes, edges)
    }

    /// A short human-readable name, e.g. `torus3x3`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generator family this topology came from.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Total number of fabric nodes (terminals plus pure routers).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of terminal nodes (protocol agents).
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// The node hosting terminal (agent) index `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn terminal_node(&self, t: usize) -> NodeId {
        self.terminals[t]
    }

    /// The terminal (agent) index of a node, if it hosts one.
    pub fn terminal_of(&self, node: NodeId) -> Option<usize> {
        self.terminal_index[node.index()].map(|t| t as usize)
    }

    /// All terminal nodes in terminal order.
    pub fn terminals(&self) -> &[NodeId] {
        &self.terminals
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Returns a node.
    pub fn node(&self, id: NodeId) -> &TopoNode {
        &self.nodes[id.index()]
    }

    /// Returns an edge.
    pub fn edge(&self, id: EdgeId) -> &TopoEdge {
        &self.edges[id.index()]
    }

    /// The outgoing edges of a node.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// The incoming edges of a node.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// Whether the given dimension contains wraparound links.
    pub fn dim_wraps(&self, dim: usize) -> bool {
        self.dim_wraps.get(dim).copied().unwrap_or(false)
    }

    /// Number of coordinate positions along the given dimension (the
    /// largest coordinate plus one; 0 for unknown dimensions).
    pub fn dim_length(&self, dim: usize) -> i64 {
        self.dim_lens.get(dim).copied().unwrap_or(0)
    }

    /// Whether any edge is a wraparound link.
    pub fn has_wrap_links(&self) -> bool {
        self.dim_wraps.iter().any(|w| *w)
    }

    /// The outgoing edge of `node` travelling dimension `dim` in the given
    /// direction, preferring the wrap/non-wrap variant as requested (this
    /// disambiguates the parallel links of 2-node torus dimensions).
    pub fn out_edge_in_dim(
        &self,
        node: NodeId,
        dim: usize,
        positive: bool,
        wrap: bool,
    ) -> Option<EdgeId> {
        self.out_edges(node)
            .iter()
            .copied()
            .find(|e| {
                let edge = self.edge(*e);
                edge.dim == Some(dim) && edge.positive == positive && edge.wrap == wrap
            })
            .or_else(|| {
                self.out_edges(node).iter().copied().find(|e| {
                    let edge = self.edge(*e);
                    edge.dim == Some(dim) && edge.positive == positive
                })
            })
    }

    /// The first edge from `from` to `to`, if any.
    pub fn edge_between(&self, from: NodeId, to: NodeId) -> Option<EdgeId> {
        self.out_edges(from)
            .iter()
            .copied()
            .find(|e| self.edge(*e).to == to)
    }

    /// A short name for an edge, e.g. `(0,1)→(1,1)`.
    pub fn edge_label(&self, id: EdgeId) -> String {
        let edge = self.edge(id);
        format!(
            "{}→{}",
            self.node(edge.from).label,
            self.node(edge.to).label
        )
    }

    /// A 2D layout position for diagrams: grid coordinates for meshes and
    /// tori, a circle for rings, levels for trees, a row for irregular
    /// nodes.
    pub fn layout(&self, id: NodeId) -> (f64, f64) {
        let node = self.node(id);
        match self.kind {
            TopologyKind::Mesh { .. } | TopologyKind::Torus { .. } => {
                (node.coords[0] as f64 * 2.0, node.coords[1] as f64 * 2.0)
            }
            TopologyKind::Ring { nodes } => {
                let angle = std::f64::consts::TAU * node.coords[0] as f64 / nodes as f64;
                let r = nodes as f64 / 2.0;
                (r * angle.cos(), r * angle.sin())
            }
            TopologyKind::FatTree { .. } => {
                let spread = if node.terminal { 2.0 } else { 2.0 * 1.5 };
                (node.coords[0] as f64 * spread, node.level as f64 * 2.0)
            }
            TopologyKind::Irregular => (node.coords[0] as f64 * 2.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_counts_match_the_grid() {
        let t = Topology::mesh(3, 2).unwrap();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_terminals(), 6);
        // Directed edges: horizontal 2·2·2, vertical 3·1·2.
        assert_eq!(t.num_edges(), 14);
        assert!(!t.has_wrap_links());
        assert_eq!(
            t.kind(),
            TopologyKind::Mesh {
                width: 3,
                height: 2
            }
        );
    }

    #[test]
    fn torus_adds_wrap_links_in_both_dimensions() {
        let t = Topology::torus(3, 3).unwrap();
        assert_eq!(t.num_nodes(), 9);
        // 2 dims · 9 nodes · 2 directions.
        assert_eq!(t.num_edges(), 36);
        assert!(t.dim_wraps(0) && t.dim_wraps(1));
        let wraps = t.edge_ids().filter(|e| t.edge(*e).wrap).count();
        assert_eq!(wraps, 12); // 3 rows · 2 + 3 columns · 2
    }

    #[test]
    fn two_wide_torus_has_parallel_links_that_metadata_disambiguates() {
        let t = Topology::torus(2, 2).unwrap();
        let origin = NodeId(0);
        let plain = t.out_edge_in_dim(origin, 0, true, false).unwrap();
        let wrapped = t.out_edge_in_dim(origin, 0, false, true).unwrap();
        assert_ne!(plain, wrapped);
        assert_eq!(t.edge(plain).to, t.edge(wrapped).to);
        assert!(!t.edge(plain).wrap && t.edge(wrapped).wrap);
    }

    #[test]
    fn ring_is_a_bidirectional_cycle() {
        let t = Topology::ring(5).unwrap();
        assert_eq!(t.num_edges(), 10);
        for node in t.node_ids() {
            assert_eq!(t.out_edges(node).len(), 2);
            assert_eq!(t.in_edges(node).len(), 2);
        }
        assert_eq!(t.edge_ids().filter(|e| t.edge(*e).wrap).count(), 2);
        assert!(Topology::ring(2).is_err());
    }

    #[test]
    fn fat_tree_has_the_k_ary_n_tree_shape() {
        let t = Topology::fat_tree(2, 2).unwrap();
        // 4 leaves + 2 stages of 2 switches.
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_terminals(), 4);
        // Leaf links 4·2 + inter-stage links 2·2·2.
        assert_eq!(t.num_edges(), 16);
        // Every level-0 switch reaches both roots.
        let sw00 = NodeId(4);
        let ups: Vec<usize> = t
            .out_edges(sw00)
            .iter()
            .filter(|e| !t.node(t.edge(**e).to).terminal)
            .map(|e| t.edge(*e).to.index())
            .collect();
        assert_eq!(ups, vec![6, 7]);
        // Leaves are terminals 0..4 in order.
        for i in 0..4 {
            assert_eq!(t.terminal_node(i), NodeId(i as u32));
            assert_eq!(t.terminal_of(NodeId(i as u32)), Some(i));
        }
        assert_eq!(t.terminal_of(sw00), None);
    }

    #[test]
    fn irregular_topologies_validate_their_edges() {
        let t = Topology::irregular("y", 3, &[0, 1, 2], &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        assert_eq!(t.num_terminals(), 3);
        assert_eq!(t.out_edges(NodeId(1)).len(), 2);
        assert!(Topology::irregular("bad", 2, &[0, 1], &[(0, 5)]).is_err());
        assert!(Topology::irregular("lonely", 3, &[0], &[(0, 1)]).is_err());
    }

    #[test]
    fn generators_reject_degenerate_parameters() {
        assert!(Topology::mesh(1, 1).is_err());
        assert!(Topology::torus(1, 4).is_err());
        assert!(Topology::fat_tree(1, 2).is_err());
        assert!(Topology::fat_tree(2, 0).is_err());
        assert!(Topology::fat_tree(8, 8).is_err());
    }

    #[test]
    fn oversized_topologies_are_refused_before_allocating() {
        // Each of these is refused before its first node exists; checked
        // only once the nodes were built, the first four would allocate
        // gigabytes.
        for oversized in [
            Topology::mesh(100_000, 100_000),
            Topology::torus(100_000, 100_000),
            Topology::ring(4_000_000_000),
            Topology::irregular("huge", 4_000_000_000, &[0, 1], &[]),
            // 2^14 leaves fit, but 14 stages of 2^13 switches do not.
            Topology::fat_tree(2, 14),
        ] {
            assert_eq!(oversized.unwrap_err(), TopologyError::TooLarge);
        }
        // Just past the cap: 128 × 129 = 16,512 > 16,384 nodes.
        assert_eq!(
            Topology::mesh(128, 129).unwrap_err(),
            TopologyError::TooLarge
        );
        assert_eq!(Topology::mesh(128, 128).unwrap().num_nodes(), MAX_NODES);
    }

    #[test]
    fn labels_and_layout_are_usable() {
        let t = Topology::mesh(2, 2).unwrap();
        assert_eq!(t.node(NodeId(3)).label, "(1,1)");
        assert_eq!(t.edge_label(t.out_edges(NodeId(0))[0]), "(0,0)→(1,0)");
        assert_eq!(t.layout(NodeId(3)), (2.0, 2.0));
        let ring = Topology::ring(4).unwrap();
        let (x, y) = ring.layout(NodeId(1));
        assert!(x.abs() < 1e-9 && y > 0.0);
    }
}
