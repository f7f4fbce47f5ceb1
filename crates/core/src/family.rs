//! Protocol-family selection and cross-protocol comparison sweeps.
//!
//! The fabric generator hosts several coherence protocols behind one
//! [`ProtocolKind`] switch; this module gives that axis a first-class
//! place in the Query API.  [`QueryEngine::compare_protocols`] runs the
//! *same* sizing sweep for a set of protocol families on the *same*
//! fabric — one engine (hence one encoding template and one persistent
//! solver) per family, with the aggregated [`SessionStats`] certifying
//! that an MI-vs-MESI study built exactly one template per protocol
//! rather than one per capacity probe.

use std::ops::RangeInclusive;

use advocat_deadlock::Query;
use advocat_noc::{FabricConfig, FabricError, ProtocolKind};

use crate::query::{QueryEngine, SessionStats};
use crate::sizing::SizingResult;

/// One protocol family's result within a [`ProtocolComparison`]: the full
/// sizing search and the engine's cumulative statistics.
#[derive(Clone, Debug)]
pub struct FamilyOutcome {
    /// The protocol family this outcome describes.
    pub family: ProtocolKind,
    /// The sizing search over the comparison's capacity range.
    pub sizing: SizingResult,
    /// The statistics of the one engine that answered every probe.
    pub stats: SessionStats,
}

impl FamilyOutcome {
    /// The smallest capacity proven deadlock-free, if any in range was.
    pub fn minimal_free_capacity(&self) -> Option<usize> {
        self.sizing.minimal_queue_size
    }
}

/// The result of a cross-protocol sizing comparison
/// ([`QueryEngine::compare_protocols`]).
#[derive(Clone, Debug, Default)]
pub struct ProtocolComparison {
    /// One outcome per requested family, in request order.
    pub outcomes: Vec<FamilyOutcome>,
}

impl ProtocolComparison {
    /// Total encoding templates built across the whole study — exactly
    /// one per compared family by construction, never one per capacity
    /// probe.
    pub fn templates_built(&self) -> u64 {
        self.outcomes.iter().map(|o| o.stats.templates_built).sum()
    }

    /// Total queries answered across all families.
    pub fn total_queries(&self) -> u64 {
        self.outcomes.iter().map(|o| o.stats.queries).sum()
    }

    /// The outcome of one family, if it was part of the study.
    pub fn outcome(&self, family: ProtocolKind) -> Option<&FamilyOutcome> {
        self.outcomes.iter().find(|o| o.family == family)
    }

    /// The minimal deadlock-free capacity of one family, if it was part
    /// of the study and any capacity in range was proven free.
    pub fn minimal(&self, family: ProtocolKind) -> Option<usize> {
        self.outcome(family)?.minimal_free_capacity()
    }
}

impl QueryEngine {
    /// Runs the same minimal-capacity sweep for several protocol families
    /// on the same fabric: per family, one engine is built over `fabric`
    /// with that family's agents ([`FabricConfig::with_protocol`]) and
    /// [`QueryEngine::minimal_capacity`] bisects `capacities` under
    /// `base`'s target and invariant dimensions.
    ///
    /// Every probe of a family reuses that family's persistent solver, so
    /// the whole study builds exactly `families.len()` encoding templates
    /// ([`ProtocolComparison::templates_built`]) — the cross-protocol
    /// analogue of the capacity/target/ablation reuse inside one engine.
    ///
    /// # Errors
    ///
    /// Returns the first [`FabricError`] raised while building a family's
    /// fabric (the topology and routing audit are shared, so this is
    /// typically all-or-nothing).
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use advocat::prelude::*;
    ///
    /// let fabric = FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3);
    /// let comparison = QueryEngine::compare_protocols(
    ///     &fabric,
    ///     &[ProtocolKind::AbstractMi, ProtocolKind::Mesi],
    ///     &Query::new(),
    ///     1..=4,
    /// )?;
    /// assert_eq!(comparison.templates_built(), 2);
    /// assert_eq!(comparison.minimal(ProtocolKind::AbstractMi), Some(3));
    /// assert_eq!(comparison.minimal(ProtocolKind::Mesi), Some(3));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compare_protocols(
        fabric: &FabricConfig,
        families: &[ProtocolKind],
        base: &Query,
        capacities: RangeInclusive<usize>,
    ) -> Result<ProtocolComparison, FabricError> {
        let mut outcomes = Vec::with_capacity(families.len());
        for &family in families {
            let config = fabric.clone().with_protocol(family);
            let mut engine = QueryEngine::for_fabric(&config, capacities.clone())?;
            let sizing = engine.minimal_capacity(base);
            outcomes.push(FamilyOutcome {
                family,
                sizing,
                stats: engine.stats(),
            });
        }
        Ok(ProtocolComparison { outcomes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_noc::Topology;

    #[test]
    fn comparison_accessors_answer_per_family() {
        let fabric = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let comparison = QueryEngine::compare_protocols(
            &fabric,
            &[ProtocolKind::AbstractMi],
            &Query::new(),
            2..=4,
        )
        .unwrap();
        assert_eq!(comparison.outcomes.len(), 1);
        assert_eq!(comparison.templates_built(), 1);
        assert!(comparison.total_queries() >= 2);
        assert_eq!(comparison.minimal(ProtocolKind::AbstractMi), Some(3));
        assert_eq!(comparison.minimal(ProtocolKind::Mesi), None);
        assert!(comparison.outcome(ProtocolKind::Mesi).is_none());
    }
}
