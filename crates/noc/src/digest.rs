//! Canonical structure digests for fabric configurations.
//!
//! A long-running verification service wants to recognise that two jobs
//! describe *the same fabric* so they can share one warm engine instead of
//! cold-building two.  Equality on [`crate::FabricConfig`] is not enough:
//! the routing function is a trait object, and two differently-constructed
//! configurations (say a [`Topology::mesh`] under its default routing and
//! the same mesh with [`crate::DimensionOrdered::new`] passed explicitly)
//! can instantiate byte-identical systems.
//! [`FabricConfig::structure_digest`] therefore hashes the *observable*
//! structure: every node and edge of the topology, every routing decision
//! the function would ever make, the hosted protocol, the directory
//! placement and the virtual-channel layout.
//!
//! The digest deliberately **excludes the queue size**: engines are built
//! for a whole capacity sweep (`build_fabric_for_sweep`), so the capacity a
//! job pins is a per-query selector, not part of the fabric's identity.
//! Callers that key engines on a capacity *range* mix the range into their
//! own fingerprint on top of this digest.

use crate::fabric::FabricConfig;
use crate::protocol::ProtocolKind;
use crate::routefn::RouteStep;
use crate::topology::{EdgeId, Topology};

/// A 128-bit structural digest (two independent 64-bit FNV-1a streams over
/// the same canonical byte sequence, so an accidental collision in one
/// stream does not alias two fabrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigDigest(pub u64, pub u64);

impl std::fmt::Display for ConfigDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Accumulates bytes into two independent FNV-1a streams: the hasher
/// behind [`ConfigDigest`], also used by callers that key on a digest plus
/// parameters of their own.
#[derive(Clone, Debug)]
pub struct StructHasher {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
// A second, unrelated offset basis decorrelates the streams.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

impl Default for StructHasher {
    fn default() -> Self {
        StructHasher {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }
}

impl StructHasher {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte).rotate_left(17)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Feeds a `usize` as a `u64`.
    pub fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    /// Feeds an `i64` as 8 little-endian bytes.
    pub fn i64(&mut self, value: i64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Feeds a `bool` as one byte.
    pub fn bool(&mut self, value: bool) {
        self.bytes(&[u8::from(value)]);
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> ConfigDigest {
        ConfigDigest(self.a, self.b)
    }
}

/// Edges in a canonical order independent of the order they were fed to
/// the topology constructor: sorted by endpoints, then metadata.  Hashing
/// edges (and edge *references* in the routing table) through this order
/// makes the digest insensitive to the input edge-list permutation of an
/// irregular topology — two descriptions of the same graph digest
/// identically.
fn canonical_edge_order(topo: &Topology) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = topo.edge_ids().collect();
    edges.sort_by_key(|&id| {
        let e = topo.edge(id);
        (e.from.index(), e.to.index(), e.dim, e.positive, e.wrap)
    });
    edges
}

/// Feeds the full topology structure — nodes with their terminal flags,
/// coordinates and levels, then every directed edge with its metadata —
/// into the hasher.
fn hash_topology(topo: &Topology, h: &mut StructHasher) {
    h.usize(topo.num_nodes());
    for node in topo.node_ids() {
        let n = topo.node(node);
        h.bool(n.terminal);
        h.usize(n.level);
        h.usize(n.coords.len());
        for &c in &n.coords {
            h.i64(c);
        }
    }
    h.usize(topo.num_edges());
    for edge in canonical_edge_order(topo) {
        let e = topo.edge(edge);
        h.usize(e.from.index());
        h.usize(e.to.index());
        match e.dim {
            None => h.bool(false),
            Some(dim) => {
                h.bool(true);
                h.usize(dim);
            }
        }
        h.bool(e.positive);
        h.bool(e.wrap);
    }
    h.usize(topo.num_terminals());
    for t in topo.terminals() {
        h.usize(t.index());
    }
}

/// Feeds every routing decision the function would ever make — for each
/// node, each arrival context (injection plus every incoming edge), each
/// escape VC and each destination terminal — into the hasher.  This is the
/// routing function's observable behaviour, so two differently-named
/// functions that route identically digest identically.
fn hash_routing(config: &FabricConfig, h: &mut StructHasher) {
    let topo = &config.topology;
    let routing = config.routing.as_ref();
    let vcs = routing.num_vcs(topo).max(1);
    h.usize(vcs);
    // Edge *references* in the decision table are hashed through their
    // canonical rank, not their raw id, so the digest survives a permuted
    // edge-list input; arrival contexts are visited in the same order.
    let canonical = canonical_edge_order(topo);
    let mut rank = vec![0usize; topo.num_edges()];
    for (pos, edge) in canonical.iter().enumerate() {
        rank[edge.index()] = pos;
    }
    for node in topo.node_ids() {
        let mut arrivals: Vec<Option<EdgeId>> =
            topo.in_edges(node).iter().copied().map(Some).collect();
        arrivals.sort_by_key(|a| a.map(|e| rank[e.index()]));
        arrivals.insert(0, None);
        for arrived in arrivals {
            for vc in 0..vcs {
                for dst in topo.terminals() {
                    match routing.route(topo, node, arrived, vc, *dst) {
                        None => h.bytes(&[0]),
                        Some(RouteStep::Deliver) => h.bytes(&[1]),
                        Some(RouteStep::Forward { edge, vc: out_vc }) => {
                            h.bytes(&[2]);
                            h.usize(rank[edge.index()]);
                            h.usize(out_vc);
                        }
                    }
                }
            }
        }
    }
}

impl FabricConfig {
    /// Digest of everything that determines the *structure* of the built
    /// system except the queue capacity: the topology (nodes, edges,
    /// terminals), the routing function's full decision table, the hosted
    /// protocol, the directory placement and the virtual-channel layout.
    ///
    /// Two configurations with equal digests build identical systems up to
    /// queue capacity, so a warm-engine pool can key on this digest (plus
    /// its own capacity-range and solver-configuration fingerprint) to
    /// share one engine across jobs.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use advocat_noc::{DimensionOrdered, FabricConfig, Topology};
    ///
    /// // The same fabric described two ways digests identically …
    /// let direct = FabricConfig::new(Topology::mesh(2, 2)?, 4).with_directory(3);
    /// let explicit = FabricConfig::new(Topology::mesh(2, 2)?, 2)
    ///     .with_directory(3)
    ///     .with_routing(Arc::new(DimensionOrdered::new()));
    /// assert_eq!(explicit.structure_digest(), direct.structure_digest());
    ///
    /// // … and the queue size is a sweep parameter, not structure.
    /// assert_eq!(
    ///     direct.structure_digest(),
    ///     direct.clone().with_queue_size(9).structure_digest()
    /// );
    ///
    /// // Moving the directory is a different fabric.
    /// let moved = FabricConfig::new(Topology::mesh(2, 2)?, 4).with_directory(0);
    /// assert_ne!(direct.structure_digest(), moved.structure_digest());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn structure_digest(&self) -> ConfigDigest {
        let mut h = StructHasher::default();
        hash_topology(&self.topology, &mut h);
        hash_routing(self, &mut h);
        h.usize(match self.protocol {
            ProtocolKind::AbstractMi => 0,
            ProtocolKind::FullMi => 1,
            ProtocolKind::Mesi => 2,
        });
        h.usize(self.directory);
        h.bool(self.message_class_vcs);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routefn::DimensionOrdered;
    use crate::topology::Topology;
    use std::sync::Arc;

    #[test]
    fn digest_is_stable_and_ignores_queue_size() {
        let config = FabricConfig::new(Topology::ring(4).unwrap(), 2).with_directory(1);
        let again = FabricConfig::new(Topology::ring(4).unwrap(), 7).with_directory(1);
        assert_eq!(config.structure_digest(), again.structure_digest());
    }

    #[test]
    fn digest_distinguishes_structure() {
        let base = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2);
        let wider = FabricConfig::new(Topology::mesh(3, 2).unwrap(), 2);
        let torus = FabricConfig::new(Topology::torus(2, 2).unwrap(), 2);
        let mesi =
            FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_protocol(ProtocolKind::Mesi);
        let vcs = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_message_class_vcs(true);
        let digests = [
            base.structure_digest(),
            wider.structure_digest(),
            torus.structure_digest(),
            mesi.structure_digest(),
            vcs.structure_digest(),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn digest_sees_through_routing_function_identity() {
        // A torus with and without the dateline escape VCs routes
        // differently, so the digests must differ even though topology,
        // protocol and placement agree.
        let topo = Topology::torus(4, 2).unwrap();
        let datelined = FabricConfig::new(topo.clone(), 2);
        let plain =
            FabricConfig::new(topo, 2).with_routing(Arc::new(DimensionOrdered::without_dateline()));
        assert_ne!(datelined.structure_digest(), plain.structure_digest());
    }

    #[test]
    fn digest_is_insensitive_to_edge_list_input_order() {
        // The "kite" graph from the routing tests, described twice with
        // the edge list in different input orders.  `TableRouting` breaks
        // next-hop ties by node index, so on a simple graph (no parallel
        // edges) the two descriptions build identical fabrics — and the
        // digests must agree even though the raw edge ids are permuted.
        let edges: &[(u32, u32)] = &[
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 0),
            (0, 3),
            (3, 4),
            (4, 3),
        ];
        let mut permuted = edges.to_vec();
        permuted.rotate_left(3);
        permuted.swap(0, 5);
        let base = Topology::irregular("kite", 5, &[0, 2, 4], edges).unwrap();
        let shuffled = Topology::irregular("kite", 5, &[0, 2, 4], &permuted).unwrap();
        let a = FabricConfig::new(base, 2).with_directory(1);
        let b = FabricConfig::new(shuffled, 2).with_directory(1);
        assert_eq!(a.structure_digest(), b.structure_digest());
        // And building twice from the very same description is stable.
        assert_eq!(a.structure_digest(), a.clone().structure_digest());
    }

    #[test]
    fn default_routing_digests_like_the_same_routing_passed_explicitly() {
        let topo = Topology::mesh(3, 2).unwrap();
        let default = FabricConfig::new(topo.clone(), 2).with_directory(5);
        let explicit = FabricConfig::new(topo, 5)
            .with_directory(5)
            .with_routing(Arc::new(DimensionOrdered::new()));
        assert_eq!(default.structure_digest(), explicit.structure_digest());
    }
}
