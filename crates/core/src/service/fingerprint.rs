//! Engine fingerprints: which jobs may share a warm engine.
//!
//! A pooled [`crate::QueryEngine`] is reusable for a job exactly when the
//! job would have built an identical engine: same fabric structure
//! ([`advocat_noc::ConfigDigest`]), same capacity range (the template is
//! built over the whole sweep range) and same solver limits
//! ([`CheckConfig`]).  The [`Fingerprint`] hashes all three; equal
//! fingerprints hit the same pool entry.  The deadlock target is not
//! hashed: every template encodes all three goals and each query selects
//! one by assumption, so the target does not determine the engine.

use std::fmt;
use std::ops::RangeInclusive;

use advocat_logic::CheckConfig;
use advocat_noc::ConfigDigest;

use crate::batch::ScenarioFabric;

/// The pool key of a verification job: everything that determines the
/// engine a job needs.  Derived, not constructed — see
/// the crate-private `Fingerprint::of_job`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64, u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Dual-stream FNV-1a accumulator (the service-layer sibling of the
/// hasher behind [`advocat_noc::ConfigDigest`]).
struct Mix {
    a: u64,
    b: u64,
}

impl Mix {
    fn new() -> Self {
        Mix {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn u64(&mut self, value: u64) {
        for &byte in &value.to_le_bytes() {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ u64::from(byte).rotate_left(17)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bool(&mut self, value: bool) {
        self.u64(u64::from(value));
    }
}

impl Fingerprint {
    /// Computes the pool key for a job over `fabric`, solved for every
    /// capacity in `range` under `config`.
    pub(crate) fn of_job(
        fabric: &ScenarioFabric,
        range: &RangeInclusive<usize>,
        config: &CheckConfig,
    ) -> Fingerprint {
        let mut mix = Mix::new();
        match fabric_digest(fabric) {
            Ok(digest) => {
                mix.bool(true);
                mix.u64(digest.0);
                mix.u64(digest.1);
            }
            // An unbuildable fabric still needs a deterministic key so
            // every job describing it shares the one cached build failure.
            Err(raw) => {
                mix.bool(false);
                for word in raw {
                    mix.u64(word);
                }
            }
        }
        mix.u64(*range.start() as u64);
        mix.u64(*range.end() as u64);
        mix.u64(config.max_refinements);
        mix.u64(config.theory_node_budget);
        mix.bool(config.solver.clause_reduction);
        mix.u64(config.solver.first_reduce);
        mix.u64(config.solver.reduce_interval);
        mix.u64(u64::from(config.solver.keep_lbd));
        mix.u64(config.solver.luby_base);
        mix.u64(config.solver.restart_ema_ratio.to_bits());
        mix.bool(config.solver.phase_saving);
        Fingerprint(mix.a, mix.b)
    }
}

/// Canonical digest of a scenario fabric; for configurations whose
/// translation to a buildable fabric fails, a raw field encoding (the
/// digest does not need to be *meaningful* there, only deterministic).
fn fabric_digest(fabric: &ScenarioFabric) -> Result<ConfigDigest, Vec<u64>> {
    match fabric {
        ScenarioFabric::Fabric(config) => Ok(config.structure_digest()),
        // Tiles key by their structural *class*: two tiles whose cut-out
        // subfabrics are isomorphic (same internal structure, same typed
        // boundary) share an engine, which is what lets a big mesh certify
        // through a handful of warm engines.
        ScenarioFabric::Tile {
            fabric,
            partition,
            tile,
        } => Ok(partition.tile_class_digest(fabric, *tile)),
        ScenarioFabric::Mesh(config) => match config.to_fabric() {
            Ok(translated) => Ok(translated.structure_digest()),
            Err(_) => Err(vec![
                u64::from(config.width),
                u64::from(config.height),
                u64::from(config.directory.0),
                u64::from(config.directory.1),
                config.queue_size as u64,
                match config.protocol {
                    advocat_noc::ProtocolKind::AbstractMi => 0,
                    advocat_noc::ProtocolKind::FullMi => 1,
                    advocat_noc::ProtocolKind::Mesi => 2,
                },
                u64::from(config.virtual_channels),
            ]),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_noc::{FabricConfig, MeshConfig, Topology};

    #[test]
    fn equivalent_descriptions_share_a_fingerprint() {
        let mesh = ScenarioFabric::Mesh(MeshConfig::new(2, 2, 2).with_directory(1, 1));
        let fabric = ScenarioFabric::Fabric(Box::new(
            FabricConfig::new(Topology::mesh(2, 2).unwrap(), 9).with_directory(3),
        ));
        let (range, config) = (1..=4, CheckConfig::default());
        assert_eq!(
            Fingerprint::of_job(&mesh, &range, &config),
            Fingerprint::of_job(&fabric, &range, &config),
        );
    }

    #[test]
    fn range_and_config_split_the_pool_but_the_target_does_not() {
        use crate::service::{Service, ServiceConfig, VerifyJob};
        use advocat_deadlock::DeadlockTarget;

        let fabric = ScenarioFabric::Mesh(MeshConfig::new(2, 2, 2));
        let base = Fingerprint::of_job(&fabric, &(1..=4), &CheckConfig::default());
        let other_range = Fingerprint::of_job(&fabric, &(1..=5), &CheckConfig::default());
        let tighter = CheckConfig {
            max_refinements: 7,
            ..CheckConfig::default()
        };
        let other_config = Fingerprint::of_job(&fabric, &(1..=4), &tighter);
        assert_ne!(base, other_range);
        assert_ne!(base, other_config);

        let service = Service::new(ServiceConfig::default().with_workers(1));
        for target in [
            DeadlockTarget::Any,
            DeadlockTarget::StuckPacket,
            DeadlockTarget::DeadAutomaton,
        ] {
            service.submit(
                VerifyJob::over(target.to_string(), fabric.clone())
                    .with_target(target)
                    .at_capacity(2)
                    .with_engine_range(1..=4),
            );
        }
        let outcomes = service.drain();
        assert!(outcomes.iter().all(|o| o.fingerprint == base));
    }

    #[test]
    fn same_class_tiles_share_a_fingerprint() {
        use advocat_noc::Partition;
        use std::sync::Arc;

        let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 2).with_directory(4);
        let partition = Arc::new(Partition::per_node(&config.topology));
        let tile_job = |tile: usize| ScenarioFabric::Tile {
            fabric: Box::new(config.clone()),
            partition: Arc::clone(&partition),
            tile,
        };
        let (range, check) = (1..=3, CheckConfig::default());
        // All four corner tiles are one structural class; the directory
        // node in the centre is its own.
        let corner = Fingerprint::of_job(&tile_job(0), &range, &check);
        assert_eq!(corner, Fingerprint::of_job(&tile_job(2), &range, &check));
        assert_eq!(corner, Fingerprint::of_job(&tile_job(6), &range, &check));
        assert_eq!(corner, Fingerprint::of_job(&tile_job(8), &range, &check));
        let centre = Fingerprint::of_job(&tile_job(4), &range, &check);
        assert_ne!(corner, centre);
    }

    #[test]
    fn invalid_meshes_still_fingerprint_deterministically() {
        let bad = ScenarioFabric::Mesh(MeshConfig::new(1, 1, 1));
        let (range, config) = (1..=1, CheckConfig::default());
        assert_eq!(
            Fingerprint::of_job(&bad, &range, &config),
            Fingerprint::of_job(&bad, &range, &config),
        );
        let other_bad = ScenarioFabric::Mesh(MeshConfig::new(1, 1, 2));
        assert_ne!(
            Fingerprint::of_job(&bad, &range, &config),
            Fingerprint::of_job(&other_bad, &range, &config),
        );
    }
}
