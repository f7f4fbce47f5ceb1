//! The coherence protocols a fabric can host.

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
}
