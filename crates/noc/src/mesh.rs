//! Mesh configuration.

use std::fmt;

/// Which protocol the generated fabric hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The artificial MI protocol of Fig. 2 (getX/putX/inv/ack).
    AbstractMi,
    /// The GEM5-inspired MI protocol with forwarding, nacks and DMA.
    FullMi,
    /// The MESI protocol with shared states: a counting directory,
    /// broadcast invalidation sweeps and ten message kinds.
    Mesi,
}

impl ProtocolKind {
    /// Every protocol, in presentation order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::AbstractMi,
        ProtocolKind::FullMi,
        ProtocolKind::Mesi,
    ];

    /// A stable, human-readable name (also the JSON wire spelling).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::AbstractMi => "abstract-mi",
            ProtocolKind::FullMi => "full-mi",
            ProtocolKind::Mesi => "mesi",
        }
    }

    /// Number of message kinds the protocol's agents exchange over the
    /// fabric.
    pub fn message_kind_count(self) -> usize {
        match self {
            ProtocolKind::AbstractMi => advocat_protocols::AbstractMi::message_kinds().len(),
            ProtocolKind::FullMi => advocat_protocols::FullMi::message_kinds().len(),
            ProtocolKind::Mesi => advocat_protocols::Mesi::message_kinds().len(),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a 2D-mesh system.
///
/// # Examples
///
/// ```
/// use advocat_noc::{MeshConfig, ProtocolKind};
///
/// let config = MeshConfig::new(4, 4, 15)
///     .with_directory(1, 1)
///     .with_protocol(ProtocolKind::AbstractMi)
///     .with_virtual_channels(true);
/// assert_eq!(config.num_nodes(), 16);
/// assert_eq!(config.directory_node(), 5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MeshConfig {
    /// Mesh width (number of columns).
    pub width: u32,
    /// Mesh height (number of rows).
    pub height: u32,
    /// Capacity of every link and ejection queue (store-and-forward).
    pub queue_size: usize,
    /// Directory position `(x, y)`.
    pub directory: (u32, u32),
    /// Hosted protocol.
    pub protocol: ProtocolKind,
    /// Whether to split the fabric into request/response virtual channels.
    pub virtual_channels: bool,
}

/// Errors raised for nonsensical mesh configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeshError {
    /// The mesh has fewer than two nodes.
    TooSmall,
    /// The mesh exceeds the topology engine's supported size.
    TooLarge,
    /// The directory position lies outside the mesh.
    DirectoryOutOfBounds,
    /// Queues must be able to hold at least one packet.
    ZeroQueueSize,
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::TooSmall => write!(f, "mesh must have at least two nodes"),
            MeshError::TooLarge => write!(f, "mesh exceeds the supported size"),
            MeshError::DirectoryOutOfBounds => write!(f, "directory position outside the mesh"),
            MeshError::ZeroQueueSize => write!(f, "queue size must be at least one"),
        }
    }
}

impl std::error::Error for MeshError {}

impl MeshConfig {
    /// Creates a configuration with the directory at the origin, the
    /// abstract MI protocol and no virtual channels.
    pub fn new(width: u32, height: u32, queue_size: usize) -> Self {
        MeshConfig {
            width,
            height,
            queue_size,
            directory: (0, 0),
            protocol: ProtocolKind::AbstractMi,
            virtual_channels: false,
        }
    }

    /// Sets the directory position.
    pub fn with_directory(mut self, x: u32, y: u32) -> Self {
        self.directory = (x, y);
        self
    }

    /// Sets the hosted protocol.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Enables or disables virtual channels.
    pub fn with_virtual_channels(mut self, enabled: bool) -> Self {
        self.virtual_channels = enabled;
        self
    }

    /// Sets the queue size, keeping everything else.
    pub fn with_queue_size(mut self, queue_size: usize) -> Self {
        self.queue_size = queue_size;
        self
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.width * self.height
    }

    /// The node id of position `(x, y)` (row-major, `y` counting rows).
    pub fn node_id(&self, x: u32, y: u32) -> u32 {
        y * self.width + x
    }

    /// The `(x, y)` position of a node id.
    pub fn coords(&self, node: u32) -> (u32, u32) {
        (node % self.width, node / self.width)
    }

    /// The node id of the directory.
    pub fn directory_node(&self) -> u32 {
        self.node_id(self.directory.0, self.directory.1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`MeshError`] describing the first problem found.
    pub fn check(&self) -> Result<(), MeshError> {
        if self.num_nodes() < 2 {
            return Err(MeshError::TooSmall);
        }
        if self.directory.0 >= self.width || self.directory.1 >= self.height {
            return Err(MeshError::DirectoryOutOfBounds);
        }
        if self.queue_size == 0 {
            return Err(MeshError::ZeroQueueSize);
        }
        Ok(())
    }

    /// Number of virtual-channel planes of the fabric.
    pub fn planes(&self) -> usize {
        crate::fabric::class_planes(self.virtual_channels)
    }

    /// Translates this mesh description into the topology-generic
    /// [`crate::FabricConfig`]: a [`crate::Topology::mesh`] with XY
    /// (dimension-ordered) routing, the directory at its node's terminal
    /// index and message-class planes iff virtual channels are enabled.
    ///
    /// # Errors
    ///
    /// Returns a [`MeshError`] when the configuration is invalid.
    pub fn to_fabric(&self) -> Result<crate::FabricConfig, MeshError> {
        self.check()?;
        // `check` guarantees >= 2 nodes, so the only generator error left
        // is the topology engine's size cap.
        let topology =
            crate::Topology::mesh(self.width, self.height).map_err(|_| MeshError::TooLarge)?;
        Ok(crate::FabricConfig::new(topology, self.queue_size)
            .with_directory(self.directory_node() as usize)
            .with_protocol(self.protocol)
            .with_message_class_vcs(self.virtual_channels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocols_name_themselves_and_count_their_messages() {
        let names: Vec<String> = ProtocolKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["abstract-mi", "full-mi", "mesi"]);
        assert_eq!(ProtocolKind::AbstractMi.message_kind_count(), 4);
        assert_eq!(ProtocolKind::FullMi.message_kind_count(), 8);
        assert_eq!(ProtocolKind::Mesi.message_kind_count(), 10);
    }

    #[test]
    fn node_id_and_coords_roundtrip() {
        let config = MeshConfig::new(4, 3, 2);
        for y in 0..3 {
            for x in 0..4 {
                let id = config.node_id(x, y);
                assert_eq!(config.coords(id), (x, y));
            }
        }
        assert_eq!(config.num_nodes(), 12);
    }

    #[test]
    fn check_rejects_bad_configurations() {
        assert_eq!(MeshConfig::new(1, 1, 2).check(), Err(MeshError::TooSmall));
        assert_eq!(
            MeshConfig::new(2, 2, 2).with_directory(2, 0).check(),
            Err(MeshError::DirectoryOutOfBounds)
        );
        assert_eq!(
            MeshConfig::new(2, 2, 0).check(),
            Err(MeshError::ZeroQueueSize)
        );
        assert!(MeshConfig::new(2, 2, 1).check().is_ok());
    }

    #[test]
    fn planes_follow_the_vc_flag() {
        assert_eq!(MeshConfig::new(2, 2, 2).planes(), 1);
        assert_eq!(
            MeshConfig::new(2, 2, 2)
                .with_virtual_channels(true)
                .planes(),
            2
        );
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(MeshError::TooSmall.to_string().contains("two nodes"));
        assert!(MeshError::ZeroQueueSize
            .to_string()
            .contains("at least one"));
    }

    #[test]
    fn oversized_meshes_error_instead_of_panicking() {
        // 128×129 passes `check` but exceeds the topology engine's node
        // cap; the conversion must surface that as an error.
        let config = MeshConfig::new(128, 129, 2);
        assert!(config.check().is_ok());
        assert_eq!(config.to_fabric().unwrap_err(), MeshError::TooLarge);
    }
}
