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
use advocat_noc::{ConfigDigest, FabricConfig, StructHasher};

/// The pool key of a verification job: everything that determines the
/// engine a job needs.  Derived, not constructed — see
/// the crate-private `Fingerprint::of_job`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(ConfigDigest);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl Fingerprint {
    /// Computes the pool key for a job over `fabric`, solved for every
    /// capacity in `range` under `config`.  An unbuildable fabric digests
    /// too, so every job describing it shares the one cached build
    /// failure.
    pub(crate) fn of_job(
        fabric: &FabricConfig,
        range: &RangeInclusive<usize>,
        config: &CheckConfig,
    ) -> Fingerprint {
        let digest = fabric.structure_digest();
        let mut h = StructHasher::default();
        h.u64(digest.0);
        h.u64(digest.1);
        h.usize(*range.start());
        h.usize(*range.end());
        h.u64(config.max_refinements);
        h.u64(config.theory_node_budget);
        h.bool(config.solver.clause_reduction);
        h.u64(config.solver.first_reduce);
        h.u64(config.solver.reduce_interval);
        h.u64(u64::from(config.solver.keep_lbd));
        h.u64(config.solver.luby_base);
        h.u64(config.solver.restart_ema_ratio.to_bits());
        h.bool(config.solver.phase_saving);
        Fingerprint(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceConfig, VerifyJob};
    use advocat_noc::Topology;

    #[test]
    fn equivalent_descriptions_share_a_fingerprint() {
        // A JSON mesh request and its hand-built twin describe one fabric,
        // so they share one engine.
        let service = Service::new(ServiceConfig::default().with_workers(1));
        service
            .try_submit_json(
                r#"{"name": "wire", "topology": {"kind": "mesh", "width": 2, "height": 2},
                    "directory": 3}"#,
            )
            .expect("the request is admitted");
        let twin = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
        service.submit(VerifyJob::new("twin", twin));
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].fingerprint, outcomes[1].fingerprint);
        assert!(!outcomes[0].warm_hit);
        assert!(outcomes[1].warm_hit, "the twin checks out the warm engine");
        assert_eq!(service.stats().pool.engines_built, 1);
        assert_eq!(
            outcomes[0].result.as_ref().unwrap().counterexample(),
            outcomes[1].result.as_ref().unwrap().counterexample(),
        );
    }

    #[test]
    fn range_and_config_split_the_pool_but_the_target_does_not() {
        use advocat_deadlock::DeadlockTarget;

        let fabric = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2);
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
                VerifyJob::new(target.to_string(), fabric.clone())
                    .with_target(target)
                    .at_capacity(2)
                    .with_engine_range(1..=4),
            );
        }
        let outcomes = service.drain();
        assert!(outcomes.iter().all(|o| o.fingerprint == base));
    }

    #[test]
    fn unbuildable_fabrics_still_fingerprint_deterministically() {
        // A 2×2 mesh has terminals 0..=3: directories 4 and 5 never build.
        let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1);
        let bad = mesh.clone().with_directory(4);
        let (range, config) = (1..=1, CheckConfig::default());
        assert_eq!(
            Fingerprint::of_job(&bad, &range, &config),
            Fingerprint::of_job(&bad, &range, &config),
        );
        let other_bad = mesh.with_directory(5);
        assert_ne!(
            Fingerprint::of_job(&bad, &range, &config),
            Fingerprint::of_job(&other_bad, &range, &config),
        );
    }
}
