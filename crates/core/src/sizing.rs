//! Minimal-queue-size search (Figure 4 of the paper): one generic
//! bisection driver over a [`QueryEngine`]
//! ([`QueryEngine::minimal_capacity`]).

use std::ops::RangeInclusive;

use advocat_deadlock::{Query, Verdict};

use crate::query::QueryEngine;

/// The outcome of a queue-sizing search.
#[derive(Clone, Debug, Default)]
pub struct SizingResult {
    /// The smallest queue size proven deadlock-free, if any size in range
    /// was.
    pub minimal_queue_size: Option<usize>,
    /// Every `(queue size, deadlock-free?)` pair the binary search probed,
    /// in probe order.
    ///
    /// Since the search bisects the size range instead of scanning it, the
    /// probed sizes are not contiguous and not monotone: the first entry is
    /// the range's midpoint, and later entries narrow in on the boundary.
    /// Unprobed sizes carry no entry even though the search's verdict
    /// determines them (deadlock-freedom is monotone in the capacity).
    pub evaluations: Vec<(usize, bool)>,
}

impl SizingResult {
    /// Returns `true` when the given size was probed and found
    /// deadlock-free.
    pub fn is_free_at(&self, queue_size: usize) -> bool {
        self.evaluations
            .iter()
            .any(|(size, free)| *size == queue_size && *free)
    }
}

/// The generic sizing driver: bisects `range` calling `probe(size)` (which
/// reports `(deadlock_free, undecided)`), falling back to a linear scan of
/// the remaining candidates after the first undecided probe.
///
/// Because deadlock-freedom is monotone in the queue capacity — enlarging
/// queues only removes "queue full" blocking scenarios — bisection probes
/// `O(log(max − min))` sizes.  *Proven-free-within-budget* is **not**
/// monotone (an undecided midpoint says nothing about smaller sizes), so
/// the first undecided probe switches to a scan, exactly reproducing the
/// semantics of a per-size scan: the result is the smallest size *proven*
/// deadlock-free within the budget.
fn bisect_minimal(
    range: RangeInclusive<usize>,
    mut probe: impl FnMut(usize) -> (bool, bool),
) -> (Option<usize>, Vec<(usize, bool)>) {
    let (mut lo, mut hi) = (*range.start(), *range.end());
    let mut evaluations = Vec::new();
    let mut minimal = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let (free, undecided) = probe(mid);
        evaluations.push((mid, free));
        if undecided {
            for size in lo..=hi {
                if size == mid {
                    continue;
                }
                let (free, _) = probe(size);
                evaluations.push((size, free));
                if free {
                    minimal = Some(size);
                    break;
                }
            }
            break;
        }
        if free {
            minimal = Some(mid);
            if mid == lo {
                break;
            }
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    (minimal, evaluations)
}

impl QueryEngine {
    /// Finds the smallest capacity in the engine's range for which the
    /// system is proven deadlock-free under `base`'s target and invariant
    /// dimensions — the computation behind Figure 4 of the paper, for any
    /// target.
    ///
    /// `base`'s capacity selection is ignored; the search pins each probe
    /// uniformly.  Every probe is one incremental query, so colors,
    /// invariants, the encoding and all learnt solver state are shared
    /// across probes — and with any *other* queries this engine answered
    /// before or answers after.
    ///
    /// # Examples
    ///
    /// ```
    /// use advocat::prelude::*;
    ///
    /// let config = FabricConfig::new(Topology::mesh(2, 2)?, 1).with_directory(3);
    /// let system = build_fabric_for_sweep(&config, 4)?;
    /// let mut engine = QueryEngine::on(system, 2..=4);
    /// let result = engine.minimal_capacity(&Query::new());
    /// assert_eq!(result.minimal_queue_size, Some(3));
    /// // Probe order: the midpoint 3 first (free), then 2 (deadlocks).
    /// assert_eq!(result.evaluations, vec![(3, true), (2, false)]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn minimal_capacity(&mut self, base: &Query) -> SizingResult {
        let (minimal, evaluations) = bisect_minimal(self.capacity_range(), |size| {
            let report = self.check(&base.capacity(size));
            let undecided = matches!(report.verdict(), Verdict::Unknown);
            (report.is_deadlock_free(), undecided)
        });
        SizingResult {
            minimal_queue_size: minimal,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_deadlock::DeadlockTarget;
    use advocat_logic::CheckConfig;
    use advocat_noc::{build_fabric_for_sweep, FabricConfig, FabricError, Topology};

    /// A sweep engine over the 2×2 directory mesh for `range`.
    fn mesh_engine(config: CheckConfig, range: RangeInclusive<usize>) -> QueryEngine {
        let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 1).with_directory(3);
        let system = build_fabric_for_sweep(&mesh, *range.end()).unwrap();
        QueryEngine::with_config(system, config, range)
    }

    #[test]
    fn two_by_two_mesh_needs_queues_of_three() {
        let result = mesh_engine(CheckConfig::default(), 2..=5).minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, Some(3));
        // Probes in bisection order: 3 (free), then 2 (deadlocks).
        assert_eq!(result.evaluations, vec![(3, true), (2, false)]);
        assert!(result.is_free_at(3));
        assert!(!result.is_free_at(2));
    }

    #[test]
    fn one_engine_sizes_both_targets() {
        let mut engine = mesh_engine(CheckConfig::default(), 2..=4);
        for target in [DeadlockTarget::StuckPacket, DeadlockTarget::DeadAutomaton] {
            let result = engine.minimal_capacity(&Query::new().target(target));
            assert_eq!(result.minimal_queue_size, Some(3), "{target}");
        }
        assert_eq!(engine.stats().templates_built, 1);
    }

    #[test]
    fn search_reports_failure_when_the_range_is_too_small() {
        let result = mesh_engine(CheckConfig::default(), 1..=2).minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, None);
        assert_eq!(result.evaluations.len(), 2);
        assert!(result.evaluations.iter().all(|(_, free)| !free));
    }

    #[test]
    fn single_size_ranges_probe_exactly_once() {
        let result = mesh_engine(CheckConfig::default(), 3..=3).minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, Some(3));
        assert_eq!(result.evaluations, vec![(3, true)]);
    }

    #[test]
    fn fabric_sizing_spans_topology_families() {
        let ring = FabricConfig::new(Topology::ring(4).unwrap(), 1).with_directory(1);
        let result = QueryEngine::for_fabric(&ring, 1..=4)
            .unwrap()
            .minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, Some(2));
        let tree = FabricConfig::new(Topology::fat_tree(2, 2).unwrap(), 1).with_directory(3);
        let result = QueryEngine::for_fabric(&tree, 1..=4)
            .unwrap()
            .minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, Some(2));
        // A cyclic routing configuration errors out before any probe.
        let undatelined = FabricConfig::new(Topology::ring(4).unwrap(), 1).with_routing(
            std::sync::Arc::new(advocat_noc::DimensionOrdered::without_dateline()),
        );
        assert!(matches!(
            QueryEngine::for_fabric(&undatelined, 1..=4),
            Err(FabricError::CyclicChannelDependencies { .. })
        ));
    }

    #[test]
    fn undecided_probes_fall_back_to_a_linear_scan() {
        // With no refinement budget every probe is Unknown; the search must
        // still visit every size (nothing is pruned on non-evidence) and
        // prove nothing.
        let config = CheckConfig {
            max_refinements: 0,
            ..CheckConfig::default()
        };
        let result = mesh_engine(config, 2..=5).minimal_capacity(&Query::new());
        assert_eq!(result.minimal_queue_size, None);
        let mut probed: Vec<usize> = result.evaluations.iter().map(|(s, _)| *s).collect();
        probed.sort_unstable();
        assert_eq!(probed, vec![2, 3, 4, 5]);
        assert!(result.evaluations.iter().all(|(_, free)| !free));
    }
}
