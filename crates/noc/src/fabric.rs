//! Generic fabric builder: any [`Topology`] × any [`RoutingFunction`] ×
//! any protocol → a complete xMAS [`System`].
//!
//! The builder instantiates the store-and-forward fabric of the paper on
//! an arbitrary topology: every directed topology link becomes one queue
//! per virtual-channel plane, every router input is a switch asking the
//! routing function for the output link (and VC) per destination, and
//! every router output is a fair merge over the inputs that can feed it.
//! Terminal nodes additionally host a protocol agent with its ejection
//! merge, injection logic, core-side trigger source and auxiliary sink;
//! non-terminal nodes (the switch stages of a fat tree) carry routing
//! logic only.
//!
//! Virtual-channel planes compose two orthogonal axes: the paper's
//! request/response **message classes** (enabled by
//! [`FabricConfig::with_message_class_vcs`]) and the routing function's
//! own **escape VCs** (e.g. the two dateline VCs of a torus ring).  A
//! fabric with both has `2 × num_vcs` planes per link.
//!
//! The builder first runs [`crate::audit_routing`] and refuses to
//! instantiate a fabric whose routing function cannot deliver every pair
//! or admits a cyclic channel dependency.  A tile of a partition
//! ([`crate::build_tile_fabric`]) is not audited on its own: the whole
//! fabric it was cut from is.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use advocat_automata::System;
use advocat_protocols::{AbstractMi, AgentSpec, FullMi, Mesi, MessageClass};
use advocat_xmas::{ColorId, DotOptions, Network, PrimitiveId};

use crate::cdg::{audit_routing, RoutingError};
use crate::protocol::ProtocolKind;
use crate::routefn::{default_routing, RouteStep, RoutingFunction};
use crate::topology::{Topology, TopologyError};

/// Configuration of a fabric: a topology, a routing function, the hosted
/// protocol, and the queue/VC parameters.
///
/// # Examples
///
/// ```
/// use advocat_noc::{build_fabric, FabricConfig, Topology};
///
/// let config = FabricConfig::new(Topology::ring(4)?, 3).with_directory(2);
/// let system = build_fabric(&config)?;
/// assert_eq!(system.stats().automata, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// The interconnect topology.
    pub topology: Topology,
    /// The routing function (defaults to [`default_routing`]).
    pub routing: Arc<dyn RoutingFunction>,
    /// Capacity of every link queue (store-and-forward).
    pub queue_size: usize,
    /// Terminal (agent) index hosting the directory.
    pub directory: usize,
    /// Hosted protocol.
    pub protocol: ProtocolKind,
    /// Whether to split traffic into request/response message-class planes.
    pub message_class_vcs: bool,
}

/// Errors raised when a fabric cannot be built.
#[derive(Clone, Debug)]
pub enum FabricError {
    /// The topology itself is invalid.
    Topology(TopologyError),
    /// The directory index is not a terminal index.
    DirectoryOutOfBounds,
    /// Queues must be able to hold at least one packet.
    ZeroQueueSize,
    /// A non-terminal node has incoming links but no outgoing ones;
    /// packets reaching it could never leave.
    DeadEndNode {
        /// The offending node's label.
        node: String,
    },
    /// The routing function cannot deliver every terminal pair.
    Routing(RoutingError),
    /// The routing function admits a cyclic channel dependency — the
    /// fabric could deadlock regardless of the protocol.
    CyclicChannelDependencies {
        /// The routing function's name.
        routing: String,
        /// The cycle, rendered with topology link names.
        cycle: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Topology(e) => write!(f, "invalid topology: {e}"),
            FabricError::DirectoryOutOfBounds => {
                write!(f, "directory index outside the terminal range")
            }
            FabricError::ZeroQueueSize => write!(f, "queue size must be at least one"),
            FabricError::DeadEndNode { node } => {
                write!(f, "non-terminal node {node} has no outgoing links")
            }
            FabricError::Routing(e) => write!(f, "routing audit failed: {e}"),
            FabricError::CyclicChannelDependencies { routing, cycle } => {
                write!(
                    f,
                    "routing `{routing}` has a cyclic channel dependency: {cycle}"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<TopologyError> for FabricError {
    fn from(e: TopologyError) -> Self {
        FabricError::Topology(e)
    }
}

impl From<RoutingError> for FabricError {
    fn from(e: RoutingError) -> Self {
        FabricError::Routing(e)
    }
}

/// Number of message-class planes a fabric multiplies its routing escape
/// VCs by: [`MessageClass::PLANES`] with request/response planes enabled,
/// 1 otherwise.  The single source of truth for every plane computation —
/// [`FabricConfig::planes`], the flat builder and the tile builder all go
/// through it.
pub(crate) fn class_planes(message_class_vcs: bool) -> usize {
    if message_class_vcs {
        MessageClass::PLANES
    } else {
        1
    }
}

/// The name suffix distinguishing a link queue's virtual-channel plane
/// (empty for single-plane fabrics, matching the historical names).
pub(crate) fn plane_suffix(planes: usize, plane: usize) -> String {
    if planes == 1 {
        String::new()
    } else {
        format!(".vc{plane}")
    }
}

impl FabricConfig {
    /// A fabric over `topology` with the family's default routing, the
    /// abstract MI protocol, the directory at terminal 0 and no
    /// message-class planes.
    pub fn new(topology: Topology, queue_size: usize) -> Self {
        let routing = default_routing(&topology);
        FabricConfig {
            topology,
            routing,
            queue_size,
            directory: 0,
            protocol: ProtocolKind::AbstractMi,
            message_class_vcs: false,
        }
    }

    /// Sets the directory's terminal (agent) index.
    pub fn with_directory(mut self, terminal: usize) -> Self {
        self.directory = terminal;
        self
    }

    /// Sets the hosted protocol.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replaces the routing function.
    pub fn with_routing(mut self, routing: Arc<dyn RoutingFunction>) -> Self {
        self.routing = routing;
        self
    }

    /// Enables or disables request/response message-class planes.
    pub fn with_message_class_vcs(mut self, enabled: bool) -> Self {
        self.message_class_vcs = enabled;
        self
    }

    /// Sets the queue size, keeping everything else.
    pub fn with_queue_size(mut self, queue_size: usize) -> Self {
        self.queue_size = queue_size;
        self
    }

    /// Number of virtual-channel planes per link this configuration
    /// produces (message classes × routing escape VCs).
    pub fn planes(&self) -> usize {
        class_planes(self.message_class_vcs) * self.routing.num_vcs(&self.topology).max(1)
    }

    /// Validates the configuration (without running the routing audit).
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] describing the first problem found.
    pub fn check(&self) -> Result<(), FabricError> {
        if self.directory >= self.topology.num_terminals() {
            return Err(FabricError::DirectoryOutOfBounds);
        }
        if self.queue_size == 0 {
            return Err(FabricError::ZeroQueueSize);
        }
        for node in self.topology.node_ids() {
            let n = self.topology.node(node);
            if !n.terminal
                && !self.topology.in_edges(node).is_empty()
                && self.topology.out_edges(node).is_empty()
            {
                return Err(FabricError::DeadEndNode {
                    node: n.label.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Builds the complete system for a fabric configuration: the
/// store-and-forward fabric under the configured routing function, one
/// protocol agent per terminal, core-side trigger sources and auxiliary
/// sinks.
///
/// # Errors
///
/// Returns a [`FabricError`] when the configuration is invalid or the
/// routing function fails its audit: some pair cannot be delivered, or
/// the channel dependencies are cyclic.
///
/// # Panics
///
/// Panics only on internal invariant violations (the generated network
/// always validates).
pub fn build_fabric(config: &FabricConfig) -> Result<System, FabricError> {
    build_fabric_scoped(config, None)
}

/// The internal, scope-aware fabric builder behind both [`build_fabric`]
/// (`scope: None` — the whole topology) and
/// [`crate::build_tile_fabric`] (`scope: Some((partition, tile))` — one
/// tile of a partition, closed off with an explicit environment).
///
/// In tile scope the builder instantiates only the primitives owned by the
/// tile: link queues of edges *ending* inside it (a cut queue belongs to
/// its downstream tile), routing logic and agents of its nodes.  Each cut
/// is closed with environment primitives named after the cut queue:
/// an ingress queue is fed by an `env.q…` source injecting every color the
/// routing function could deliver over that link, and an egress merge
/// drains into an always-ready `env.q…` sink (the "free environment" — the
/// neighbouring tile never refuses; the composition-level boundary check
/// is what accounts for neighbours that do).  Protocol agent specs are
/// still built for *every* terminal so the interned color space — and with
/// it every queue, switch and invariant name — matches the flat build.
pub(crate) fn build_fabric_scoped(
    config: &FabricConfig,
    scope: Option<(&crate::Partition, usize)>,
) -> Result<System, FabricError> {
    config.check()?;
    let topo = &config.topology;
    let routing = config.routing.as_ref();
    // The audit is a whole-fabric property; a lone tile is audited by the
    // flat configuration it was cut from, not in isolation (where the cut
    // would sever routes and fail connectivity vacuously).
    if scope.is_none() {
        let audit = audit_routing(topo, routing)?;
        if let Some(cycle) = audit.describe_cycle(topo) {
            return Err(FabricError::CyclicChannelDependencies {
                routing: routing.name(),
                cycle,
            });
        }
    }
    let in_tile = |node: crate::topology::NodeId| -> bool {
        scope.is_none_or(|(partition, tile)| partition.tile_of(node) == tile)
    };

    let route_vcs = routing.num_vcs(topo).max(1);
    let classes = class_planes(config.message_class_vcs);
    let planes = classes * route_vcs;
    let num_agents = topo.num_terminals() as u32;
    let dir_agent = config.directory as u32;

    let mut net = Network::new();

    // Protocol agents (interning every protocol color as a side effect).
    let specs: Vec<AgentSpec> = match config.protocol {
        ProtocolKind::AbstractMi => {
            let protocol = AbstractMi::new(num_agents, dir_agent);
            (0..num_agents)
                .map(|n| protocol.agent(&mut net, n))
                .collect()
        }
        ProtocolKind::FullMi => {
            let protocol = FullMi::new(num_agents, dir_agent);
            (0..num_agents)
                .map(|n| protocol.agent(&mut net, n))
                .collect()
        }
        ProtocolKind::Mesi => {
            let protocol = Mesi::new(num_agents, dir_agent);
            (0..num_agents)
                .map(|n| protocol.agent(&mut net, n))
                .collect()
        }
    };

    // Colors that travel through the fabric: everything with an in-fabric
    // destination.  (Core triggers have no destination; DMA completions
    // are addressed to the pseudo-agent `num_agents` and leave via aux
    // ports.)  Destinations are *terminal* indices; resolve them to
    // topology nodes once.
    let routable: Vec<(ColorId, usize, crate::topology::NodeId)> = net
        .colors()
        .iter()
        .filter_map(|(id, packet)| {
            packet.dst.filter(|dst| *dst < num_agents).map(|dst| {
                let class = if classes == 1 {
                    0
                } else {
                    MessageClass::of_kind(&packet.kind).plane()
                };
                (id, class, topo.terminal_node(dst as usize))
            })
        })
        .collect();

    let plane_of = |class: usize, vc: usize| class * route_vcs + vc;
    let plane_suffix = |p: usize| -> String { crate::fabric::plane_suffix(planes, p) };

    // Link queues: one per directed topology edge per plane.  A cut queue
    // belongs to its *downstream* tile, so in tile scope only edges ending
    // inside the tile get queues; ingress cuts (upstream node outside) are
    // fed by environment sources instead of the absent upstream merge.
    let link_queue: Vec<Option<Vec<PrimitiveId>>> = topo
        .edge_ids()
        .map(|e| {
            let edge = topo.edge(e);
            if !in_tile(edge.to) {
                return None;
            }
            let queues: Vec<PrimitiveId> = (0..planes)
                .map(|p| {
                    let name = format!("q{}{}", topo.edge_label(e), plane_suffix(p));
                    net.add_queue(name, config.queue_size)
                })
                .collect();
            if !in_tile(edge.from) {
                for (p, queue) in queues.iter().enumerate() {
                    let (class, vc) = (p / route_vcs, p % route_vcs);
                    // Everything of the plane's class that the routing
                    // function could carry over this link: a (sound)
                    // over-approximation of the real arrivals.
                    let colors: Vec<ColorId> = routable
                        .iter()
                        .filter(|(_, c, _)| *c == class)
                        .filter(|(_, _, dst)| {
                            routing.route(topo, edge.to, Some(e), vc, *dst).is_some()
                        })
                        .map(|(color, _, _)| *color)
                        .collect();
                    let src = net.add_source(
                        format!("env.q{}{}", topo.edge_label(e), plane_suffix(p)),
                        colors,
                    );
                    net.connect(src, 0, *queue, 0);
                }
            }
            Some(queues)
        })
        .collect();

    // Agent nodes at the terminals (in tile scope, only the tile's own).
    let agent_node: Vec<Option<PrimitiveId>> = (0..num_agents as usize)
        .map(|t| {
            if !in_tile(topo.terminal_node(t)) {
                return None;
            }
            let label = &topo.node(topo.terminal_node(t)).label;
            let spec = &specs[t];
            let name = if t as u32 == dir_agent {
                format!("dir{label}")
            } else {
                format!("cache{label}")
            };
            Some(net.add_automaton_node(
                name,
                spec.automaton.input_count(),
                spec.automaton.output_count(),
            ))
        })
        .collect();

    // Per-node routing logic.
    for node in topo.node_ids() {
        if !in_tile(node) {
            continue;
        }
        let label = &topo.node(node).label;
        let in_edges = topo.in_edges(node);
        let out_edges = topo.out_edges(node);
        let agent = topo.terminal_of(node);
        if agent.is_none() && in_edges.is_empty() && out_edges.is_empty() {
            continue; // an isolated router would be pure noise
        }

        // Switch output layout: (outgoing edge × escape VC) pairs, with
        // Local last at terminals.
        let out_count = out_edges.len() * route_vcs + usize::from(agent.is_some());
        let local_index = out_count - 1;
        let out_index = |edge: crate::topology::EdgeId, vc: usize| -> usize {
            let pos = out_edges
                .iter()
                .position(|e| *e == edge)
                .expect("routing stays on this node's outgoing links");
            pos * route_vcs + vc
        };

        // Injection: the agent's output directly, or a class switch
        // splitting by message class first.
        let injection_source: Vec<(PrimitiveId, usize)> = match agent {
            None => Vec::new(),
            Some(t) => {
                let spec = &specs[t];
                let agent_prim = agent_node[t].expect("in-tile terminal has an agent node");
                if classes == 1 {
                    vec![(agent_prim, spec.net_out)]
                } else {
                    let routes: BTreeMap<ColorId, usize> =
                        routable.iter().map(|(c, class, _)| (*c, *class)).collect();
                    let cs = net.add_switch(format!("vc_split{label}"), routes, classes, 0);
                    net.connect(agent_prim, spec.net_out, cs, 0);
                    (0..classes).map(|c| (cs, c)).collect()
                }
            }
        };

        // The routing decision depends only on (input, VC, destination
        // node), never on the color itself; resolve it once per
        // destination and map each color through the result.
        let steps_from = |arrived: Option<crate::topology::EdgeId>,
                          vc: usize|
         -> BTreeMap<crate::topology::NodeId, Option<usize>> {
            topo.terminals()
                .iter()
                .map(|dst| {
                    let out = match routing.route(topo, node, arrived, vc, *dst) {
                        Some(RouteStep::Deliver) => Some(local_index),
                        Some(RouteStep::Forward { edge, vc: out_vc }) => {
                            Some(out_index(edge, out_vc))
                        }
                        None => None,
                    };
                    (*dst, out)
                })
                .collect()
        };
        let routes_for = |steps: &BTreeMap<crate::topology::NodeId, Option<usize>>,
                          class: usize|
         -> BTreeMap<ColorId, usize> {
            routable
                .iter()
                .filter(|(_, c, _)| *c == class)
                .filter_map(|(color, _, dst)| steps[dst].map(|out| (*color, out)))
                .collect()
        };

        // One routing switch per router input: every incoming link queue
        // (per plane) and, at terminals, the injection point per class.
        // Keyed by (class, escape VC the packet arrives on, input).  Link
        // merges arbitrate per *class* (a dateline switch may change the
        // escape VC), ejection arbitrates per *plane* first.
        let mut switches: Vec<Vec<PrimitiveId>> = vec![Vec::new(); classes];
        let mut plane_switches: Vec<Vec<PrimitiveId>> = vec![Vec::new(); planes];
        for vc in 0..route_vcs {
            for in_edge in in_edges {
                let from_label = &topo.node(topo.edge(*in_edge).from).label;
                let steps = steps_from(Some(*in_edge), vc);
                for (class, members) in switches.iter_mut().enumerate() {
                    let sw = net.add_switch(
                        format!(
                            "route{label}.from{from_label}{}",
                            plane_suffix(plane_of(class, vc))
                        ),
                        routes_for(&steps, class),
                        out_count,
                        if agent.is_some() { local_index } else { 0 },
                    );
                    let queues = link_queue[in_edge.index()]
                        .as_ref()
                        .expect("edges into an in-scope node carry queues");
                    net.connect(queues[plane_of(class, vc)], 0, sw, 0);
                    members.push(sw);
                    plane_switches[plane_of(class, vc)].push(sw);
                }
            }
        }
        if !injection_source.is_empty() {
            let steps = steps_from(None, 0);
            for (class, members) in switches.iter_mut().enumerate() {
                let (inj_prim, inj_port) = injection_source[class];
                let class_suffix = if classes == 1 {
                    String::new()
                } else {
                    format!(".c{class}")
                };
                let sw = net.add_switch(
                    format!("route{label}.inject{class_suffix}"),
                    routes_for(&steps, class),
                    out_count,
                    local_index,
                );
                net.connect(inj_prim, inj_port, sw, 0);
                members.push(sw);
                // Injected packets start on the class's escape VC 0.
                plane_switches[plane_of(class, 0)].push(sw);
            }
        }

        // One merge per (outgoing link, plane), fed by every switch of the
        // plane's class.  An egress cut (downstream node outside the tile)
        // has no queue on this side: the merge drains into an always-ready
        // environment sink instead.
        for (pos, out_edge) in out_edges.iter().enumerate() {
            let to_label = &topo.node(topo.edge(*out_edge).to).label;
            for (class, class_switches) in switches.iter().enumerate() {
                for vc in 0..route_vcs {
                    let plane = plane_of(class, vc);
                    let merge = net.add_merge(
                        format!("arb{label}.to{to_label}{}", plane_suffix(plane)),
                        class_switches.len(),
                    );
                    for (i, sw) in class_switches.iter().enumerate() {
                        net.connect(*sw, pos * route_vcs + vc, merge, i);
                    }
                    match &link_queue[out_edge.index()] {
                        Some(queues) => {
                            net.connect(merge, 0, queues[plane], 0);
                        }
                        None => {
                            let sink = net.add_sink(format!(
                                "env.q{}{}",
                                topo.edge_label(*out_edge),
                                plane_suffix(plane)
                            ));
                            net.connect(merge, 0, sink, 0);
                        }
                    }
                }
            }
        }

        // Ejection: per-plane local arbitration first (as in the mesh of
        // the paper), then — with multiple planes — a final fair merge
        // over the planes feeds the agent.
        if let Some(t) = agent {
            let spec = &specs[t];
            let agent_prim = agent_node[t].expect("in-tile terminal has an agent node");
            let mut plane_locals: Vec<PrimitiveId> = Vec::new();
            for (p, members) in plane_switches.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let merge = net.add_merge(
                    format!("arb{label}.local{}", plane_suffix(p)),
                    members.len(),
                );
                for (i, sw) in members.iter().enumerate() {
                    net.connect(*sw, local_index, merge, i);
                }
                plane_locals.push(merge);
            }
            if plane_locals.len() == 1 {
                net.connect(plane_locals[0], 0, agent_prim, spec.net_in);
            } else {
                let em = net.add_merge(format!("eject_arb{label}"), plane_locals.len());
                for (i, merge) in plane_locals.iter().enumerate() {
                    net.connect(*merge, 0, em, i);
                }
                net.connect(em, 0, agent_prim, spec.net_in);
            }

            // Core-side trigger source and auxiliary sink.
            if spec.needs_core_source() {
                let src = net.add_source(format!("core{label}"), spec.core_triggers.clone());
                net.connect(
                    src,
                    0,
                    agent_prim,
                    spec.core_in.expect("needs_core_source implies core_in"),
                );
            }
            if let Some(aux) = spec.aux_out {
                let sink = net.add_sink(format!("aux_sink{label}"));
                net.connect(agent_prim, aux, sink, 0);
            }
        }
    }

    // Attach the automata.
    let mut system = System::new(net);
    for t in 0..num_agents as usize {
        if let Some(prim) = agent_node[t] {
            system
                .attach(prim, specs[t].automaton.clone())
                .expect("agent node ports match the automaton by construction");
        }
    }
    debug_assert!(system.validate().is_ok());
    Ok(system)
}

/// Builds the fabric once for a whole queue-capacity sweep.
///
/// The generated structure — topology, routing switches, protocol agents
/// and the derived colors and invariants — does not depend on the queue
/// capacity, only the queues' stored sizes do.  Building at the sweep's
/// largest capacity therefore yields a [`System`] that a
/// capacity-parameterised encoding (`advocat-deadlock`'s
/// `EncodingTemplate`) can query at *every* capacity in the sweep, without
/// rebuilding the fabric per size.
///
/// # Errors
///
/// Returns a [`FabricError`] when the configuration (with `max_capacity`
/// substituted) is invalid.
pub fn build_fabric_for_sweep(
    config: &FabricConfig,
    max_capacity: usize,
) -> Result<System, FabricError> {
    build_fabric(&config.clone().with_queue_size(max_capacity))
}

/// Renders a built fabric in Graphviz DOT syntax, pinning protocol agents
/// to their topology layout positions and coloring primitives by
/// virtual-channel plane (see [`advocat_xmas::to_dot_with`]).
pub fn fabric_dot(system: &System, config: &FabricConfig) -> String {
    let topo = &config.topology;
    let mut options = DotOptions::new().with_plane_colors(true);
    for t in 0..topo.num_terminals() {
        let node = topo.terminal_node(t);
        let label = &topo.node(node).label;
        let (x, y) = topo.layout(node);
        let name = if t == config.directory {
            format!("dir{label}")
        } else {
            format!("cache{label}")
        };
        options = options.with_position(name, x, y);
    }
    advocat_xmas::to_dot_with(system.network(), &options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routefn::DimensionOrdered;
    use advocat_automata::derive_colors;
    use advocat_xmas::Packet;

    /// The paper's XY-routed 2D mesh: `Topology::mesh` under its default
    /// dimension-ordered routing, directory at terminal `y * width + x`.
    fn mesh(width: u32, height: u32, queue_size: usize, directory: usize) -> FabricConfig {
        FabricConfig::new(Topology::mesh(width, height).unwrap(), queue_size)
            .with_directory(directory)
    }

    #[test]
    fn two_by_two_mesh_validates_and_has_expected_structure() {
        let system = build_fabric(&mesh(2, 2, 2, 3)).unwrap();
        system.validate().unwrap();
        let stats = system.stats();
        assert_eq!(stats.automata, 4);
        // 8 directed link queues; agents consume directly from the fabric.
        assert_eq!(stats.queues, 8);
        // 3 caches with a core source, no aux sinks for the abstract MI.
        let hist = system.network().kind_histogram();
        assert_eq!(hist.get("source"), Some(&3));
        assert_eq!(hist.get("sink"), None);
    }

    #[test]
    fn virtual_channels_double_the_fabric_queues() {
        let config = mesh(2, 2, 2, 3);
        let plain = build_fabric(&config).unwrap();
        let vc = build_fabric(&config.with_message_class_vcs(true)).unwrap();
        assert_eq!(vc.stats().queues, 2 * plain.stats().queues);
        vc.validate().unwrap();
    }

    #[test]
    fn full_mi_mesh_adds_dma_source_and_sink_at_the_directory() {
        let config = mesh(2, 2, 2, 0).with_protocol(ProtocolKind::FullMi);
        let system = build_fabric(&config).unwrap();
        system.validate().unwrap();
        let hist = system.network().kind_histogram();
        // 3 cache core sources + 1 DMA request source.
        assert_eq!(hist.get("source"), Some(&4));
        // 1 DMA completion sink.
        assert_eq!(hist.get("sink"), Some(&1));
    }

    #[test]
    fn requests_are_routed_towards_the_directory() {
        // Colors must propagate from cache (0,0) all the way to the
        // directory's ejection queue at (1,1).
        let system = build_fabric(&mesh(2, 2, 2, 3)).unwrap();
        let colors = derive_colors(&system);
        let net = system.network();
        let get_from_00 = net
            .colors()
            .lookup(&Packet::kind("getX").with_src(0).with_dst(3))
            .expect("getX from node 0 to the directory is interned");
        let dir_agent = net
            .primitive_ids()
            .find(|id| net.name(*id) == "dir(1,1)")
            .expect("directory agent exists");
        let dir_in = net.in_channel(dir_agent, 0).unwrap();
        assert!(colors.contains(dir_in, get_from_00));
        // And never to any other node's agent.
        let other_agent = net
            .primitive_ids()
            .find(|id| net.name(*id) == "cache(0,1)")
            .unwrap();
        let other_in = net.in_channel(other_agent, 0).unwrap();
        assert!(!colors.contains(other_in, get_from_00));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert_eq!(
            Topology::mesh(1, 1).unwrap_err(),
            TopologyError::TooFewTerminals
        );
        assert!(matches!(
            build_fabric(&mesh(2, 2, 0, 0)),
            Err(FabricError::ZeroQueueSize)
        ));
        // Position (5, 5) of a 2×2 mesh.
        assert!(matches!(
            build_fabric(&mesh(2, 2, 2, 5 * 2 + 5)),
            Err(FabricError::DirectoryOutOfBounds)
        ));
    }

    #[test]
    fn generated_mesh_structure_matches_first_principles_counts() {
        // Counts derived from the fabric construction rules, independently
        // of the builder: with C message-class planes a mesh node of
        // degree d carries C·d + C input switches (links + injection) plus
        // one vc_split, and C·d + C + 1 merges (links + per-plane local +
        // ejection); every directed link is a queue per plane.
        let config = mesh(3, 2, 2, 4).with_message_class_vcs(true);
        let system = build_fabric(&config).unwrap();
        let hist = system.network().kind_histogram();
        let directed_links = 2 * (2 * 3 * 2 - 3 - 2); // 14 on a 3×2 mesh
        let degree_sum = directed_links; // in-degree sum == link count
        let nodes = 6;
        let classes = 2;
        assert_eq!(hist.get("queue"), Some(&(classes * directed_links)));
        assert_eq!(
            hist.get("switch"),
            Some(&(classes * degree_sum + classes * nodes + nodes))
        );
        assert_eq!(
            hist.get("merge"),
            Some(&(classes * degree_sum + classes * nodes + nodes))
        );
        assert_eq!(hist.get("automaton"), Some(&nodes));
        // Every node but the directory has a core-trigger source.
        assert_eq!(hist.get("source"), Some(&(nodes - 1)));
    }

    #[test]
    fn ring_fabric_builds_and_validates() {
        let config = FabricConfig::new(Topology::ring(4).unwrap(), 3).with_directory(2);
        let system = build_fabric(&config).unwrap();
        system.validate().unwrap();
        let stats = system.stats();
        assert_eq!(stats.automata, 4);
        // 8 directed ring links × 2 dateline VCs.
        assert_eq!(stats.queues, 16);
        let hist = system.network().kind_histogram();
        assert_eq!(hist.get("source"), Some(&3));
    }

    #[test]
    fn fat_tree_fabric_routes_requests_to_the_directory() {
        let config = FabricConfig::new(Topology::fat_tree(2, 2).unwrap(), 2).with_directory(3);
        let system = build_fabric(&config).unwrap();
        system.validate().unwrap();
        // 4 agents but 8 fabric nodes; switch stages host no agents.
        assert_eq!(system.stats().automata, 4);
        let colors = derive_colors(&system);
        let net = system.network();
        let get_from_0 = net
            .colors()
            .lookup(&Packet::kind("getX").with_src(0).with_dst(3))
            .expect("getX from leaf 0 to the directory is interned");
        let dir_agent = net
            .primitive_ids()
            .find(|id| net.name(*id) == "dir(3)")
            .expect("directory agent exists");
        let dir_in = net.in_channel(dir_agent, 0).unwrap();
        assert!(colors.contains(dir_in, get_from_0));
        let other = net
            .primitive_ids()
            .find(|id| net.name(*id) == "cache(1)")
            .unwrap();
        let other_in = net.in_channel(other, 0).unwrap();
        assert!(!colors.contains(other_in, get_from_0));
    }

    #[test]
    fn torus_without_dateline_is_rejected_with_the_cycle() {
        let config = FabricConfig::new(Topology::torus(4, 2).unwrap(), 2)
            .with_routing(Arc::new(DimensionOrdered::without_dateline()));
        match build_fabric(&config) {
            Err(FabricError::CyclicChannelDependencies { routing, cycle }) => {
                assert!(routing.contains("no dateline"));
                assert!(cycle.contains("⇒"));
            }
            other => panic!("expected a cyclic-dependency error, got {other:?}"),
        }
    }

    #[test]
    fn message_class_planes_multiply_with_escape_vcs() {
        let ring = Topology::ring(4).unwrap();
        let plain = FabricConfig::new(ring.clone(), 2);
        assert_eq!(plain.planes(), 2); // dateline escape VCs
        let both = FabricConfig::new(ring, 2).with_message_class_vcs(true);
        assert_eq!(both.planes(), 4);
        let sys_plain = build_fabric(&plain).unwrap();
        let sys_both = build_fabric(&both).unwrap();
        assert_eq!(
            sys_both.stats().queues,
            2 * sys_plain.stats().queues,
            "class planes double the link queues"
        );
        sys_both.validate().unwrap();
    }

    #[test]
    fn invalid_fabric_configurations_are_rejected() {
        let topo = Topology::mesh(2, 2).unwrap();
        assert!(matches!(
            build_fabric(&FabricConfig::new(topo.clone(), 0)),
            Err(FabricError::ZeroQueueSize)
        ));
        assert!(matches!(
            build_fabric(&FabricConfig::new(topo, 2).with_directory(9)),
            Err(FabricError::DirectoryOutOfBounds)
        ));
        let dead_end = Topology::irregular("dead", 3, &[0, 1], &[(0, 1), (1, 0), (0, 2)]).unwrap();
        assert!(matches!(
            build_fabric(&FabricConfig::new(dead_end, 2)),
            Err(FabricError::DeadEndNode { .. })
        ));
    }

    #[test]
    fn full_mi_rides_any_topology() {
        let config = FabricConfig::new(Topology::ring(3).unwrap(), 2)
            .with_protocol(ProtocolKind::FullMi)
            .with_directory(0);
        let system = build_fabric(&config).unwrap();
        system.validate().unwrap();
        let hist = system.network().kind_histogram();
        // 2 cache core sources + 1 DMA request source, 1 DMA sink.
        assert_eq!(hist.get("source"), Some(&3));
        assert_eq!(hist.get("sink"), Some(&1));
    }
}
