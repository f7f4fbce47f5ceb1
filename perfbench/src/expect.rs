//! The pinned expectation table: every answer every workload times is
//! checked against it.  Nothing here depends on the seed.

use advocat::prelude::{FabricConfig, ProtocolKind, Topology};

/// One flat fabric of the solver workloads and its sizing threshold: the
/// smallest uniform queue capacity at which it is deadlock-free.
#[derive(Clone, Copy, Debug)]
pub struct FabricCase {
    pub name: &'static str,
    pub protocol: ProtocolKind,
    pub topology: TopologyKind,
    /// Terminal index of the directory.
    pub directory: usize,
    pub threshold: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum TopologyKind {
    Mesh(u32, u32),
    Torus(u32, u32),
    Ring(u32),
    FatTree(u32, u32),
}

impl TopologyKind {
    pub fn build(self) -> Topology {
        match self {
            TopologyKind::Mesh(w, h) => Topology::mesh(w, h),
            TopologyKind::Torus(w, h) => Topology::torus(w, h),
            TopologyKind::Ring(n) => Topology::ring(n),
            TopologyKind::FatTree(a, l) => Topology::fat_tree(a, l),
        }
        .expect("pinned topologies are valid")
    }

    /// The `topology` object of a service job request.
    pub fn json(self) -> String {
        match self {
            TopologyKind::Mesh(w, h) => {
                format!("{{\"kind\":\"mesh\",\"width\":{w},\"height\":{h}}}")
            }
            TopologyKind::Torus(w, h) => {
                format!("{{\"kind\":\"torus\",\"width\":{w},\"height\":{h}}}")
            }
            TopologyKind::Ring(n) => format!("{{\"kind\":\"ring\",\"nodes\":{n}}}"),
            TopologyKind::FatTree(a, l) => {
                format!("{{\"kind\":\"fat-tree\",\"arity\":{a},\"levels\":{l}}}")
            }
        }
    }
}

impl FabricCase {
    pub fn config(&self) -> FabricConfig {
        FabricConfig::new(self.topology.build(), self.threshold)
            .with_protocol(self.protocol)
            .with_directory(self.directory)
    }
}

const fn case(
    name: &'static str,
    protocol: ProtocolKind,
    topology: TopologyKind,
    directory: usize,
    threshold: usize,
) -> FabricCase {
    FabricCase {
        name,
        protocol,
        topology,
        directory,
        threshold,
    }
}

use ProtocolKind::{AbstractMi, Mesi};
use TopologyKind::{FatTree, Mesh, Ring, Torus};

/// The four flat fabrics of `prove-free` and `find-deadlock`.  Mesh
/// directories sit at (1,1): terminal 3 of a 2×2 mesh, 4 of a 3×3.
///
/// The set is kept small so that one round of either workload takes a few
/// seconds and a run repeats it several times.  Other fabrics with pinned
/// thresholds, left out for their cost per round on a 2-core host:
/// AbstractMi ring(8), directory 1, threshold 6; MESI mesh 2×2, directory
/// 3, threshold 3; MESI torus(2,2), directory 3, threshold 3; and the
/// AbstractMi 4×4 mesh, directory 5, a potential deadlock at capacity 1
/// (about 14 s on its own).
pub const FABRICS: [FabricCase; 4] = [
    case("mi-mesh2x2", AbstractMi, Mesh(2, 2), 3, 3),
    case("mi-mesh3x3", AbstractMi, Mesh(3, 3), 4, 5),
    case("mi-fattree2x2", AbstractMi, FatTree(2, 2), 1, 2),
    case("mesi-ring4", Mesi, Ring(4), 1, 2),
];

/// `compose-8x8`: queue size, directory terminal, capacities, and the
/// interface every composed candidate must be attributed to.
pub const COMPOSE_QUEUE_SIZE: usize = 2;
pub const COMPOSE_DIRECTORY: usize = 9;
pub const COMPOSE_CAPACITIES: [usize; 3] = [2, 3, 4];
pub const COMPOSE_INTERFACE: &str = "q(1,0)→(2,0)";

/// One `service-http` catalogue entry: an AbstractMi fabric asked at a
/// single capacity, with its pinned status.
#[derive(Clone, Copy, Debug)]
pub struct CatalogueEntry {
    pub topology: TopologyKind,
    pub directory: usize,
    pub capacity: usize,
    pub free: bool,
}

impl CatalogueEntry {
    pub fn status(&self) -> &'static str {
        if self.free {
            "deadlock-free"
        } else {
            "potential-deadlock"
        }
    }

    pub fn request_json(&self, name: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"topology\":{},\"queue_size\":{c},\"directory\":{},\"capacities\":{c}}}",
            self.topology.json(),
            self.directory,
            c = self.capacity,
        )
    }

    pub fn config(&self) -> FabricConfig {
        FabricConfig::new(self.topology.build(), self.capacity).with_directory(self.directory)
    }
}

/// Capacity thresholds of the catalogue fabrics per directory terminal
/// (AbstractMi): a 2×2 mesh and torus need 3 everywhere, the fat tree 2,
/// and ring(4) needs 2 only with the directory at terminal 1.
fn catalogue_threshold(topology: TopologyKind, directory: usize) -> usize {
    match (topology, directory) {
        (FatTree(..), _) | (Ring(_), 1) => 2,
        _ => 3,
    }
}

/// The 32 catalogue fingerprints: mesh 2×2, ring(4), torus(2,2) and
/// fat-tree(2,2), each at capacity 2 and 3 with the directory at every
/// terminal, in that order.  The service workload's skewed draw ranks them
/// in this order; no observed traffic exists to rank them by.
pub fn catalogue() -> Vec<CatalogueEntry> {
    let mut entries = Vec::new();
    for topology in [Mesh(2, 2), Ring(4), Torus(2, 2), FatTree(2, 2)] {
        for capacity in [2, 3] {
            for directory in 0..4 {
                entries.push(CatalogueEntry {
                    topology,
                    directory,
                    capacity,
                    free: capacity >= catalogue_threshold(topology, directory),
                });
            }
        }
    }
    entries
}
