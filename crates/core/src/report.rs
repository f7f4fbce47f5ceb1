//! Verification reports.

use advocat_automata::{System, SystemStats};
use advocat_deadlock::{Analysis, Counterexample, Verdict};

/// Everything a verification run produced: the verdict and its statistics
/// and the size of the verified model.  The invariants the run used are
/// counted in the statistics ([`advocat_deadlock::AnalysisStats::invariants`]);
/// the invariants themselves stay with the engine
/// ([`QueryEngine::invariants`](crate::QueryEngine::invariants)), which
/// renders them with [`advocat_invariants::format_invariant`].
#[derive(Clone, Debug)]
pub struct Report {
    analysis: Analysis,
    system_stats: SystemStats,
    attribution: Option<String>,
}

impl Report {
    pub(crate) fn new(system: &System, analysis: Analysis) -> Report {
        Report {
            analysis,
            system_stats: system.stats(),
            attribution: None,
        }
    }

    /// A report for a composed run, where no whole-fabric system exists:
    /// the size statistics are the sum over the certified tiles (their
    /// environment closures included), and a candidate carries an
    /// attribution naming the tile or boundary interface it touches.
    pub(crate) fn composed(
        system_stats: SystemStats,
        analysis: Analysis,
        attribution: Option<String>,
    ) -> Report {
        Report {
            analysis,
            system_stats,
            attribution,
        }
    }

    /// Returns `true` when the system was proven deadlock-free.
    pub fn is_deadlock_free(&self) -> bool {
        self.analysis.verdict.is_deadlock_free()
    }

    /// Returns the verdict.
    pub fn verdict(&self) -> &Verdict {
        &self.analysis.verdict
    }

    /// Returns the deadlock candidate, if one was found.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.analysis.verdict.counterexample()
    }

    /// Returns the full deadlock analysis (verdict plus solver statistics).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Returns the size statistics of the verified system.
    pub fn system_stats(&self) -> SystemStats {
        self.system_stats
    }

    /// For composed runs: which tile or boundary interface a candidate
    /// (or a tile-level failure) touches.  `None` on flat runs and on
    /// deadlock-free composed runs.
    pub fn attribution(&self) -> Option<&str> {
        self.attribution.as_deref()
    }

    /// The phase-attributed solver profile of the run.  `None` unless the
    /// check ran with an enabled telemetry handle (see
    /// [`SolverConfig::telemetry`](advocat_logic::SolverConfig)).
    pub fn solver_profile(&self) -> Option<&advocat_logic::SolverProfile> {
        self.analysis.profile.as_ref()
    }

    /// Renders a short multi-line summary in the style of the paper's
    /// experimental-results paragraphs.
    pub fn summary(&self) -> String {
        let verdict = match &self.analysis.verdict {
            Verdict::DeadlockFree => "deadlock-free".to_owned(),
            Verdict::PotentialDeadlock(_) => "potential deadlock".to_owned(),
            Verdict::Unknown => "unknown (resource limit)".to_owned(),
        };
        let at = match &self.attribution {
            Some(location) => format!(" at {location}"),
            None => String::new(),
        };
        let mut summary = format!(
            "{} primitives, {} automata, {} queues; {} invariants; verdict: {}{} in {:.2?} \
             ({} SAT variables, {} refinements, {} implied atoms; learnt DB {} live / {} total, \
             {} reductions)",
            self.system_stats.primitives,
            self.system_stats.automata,
            self.system_stats.queues,
            self.analysis.stats.invariants,
            verdict,
            at,
            self.analysis.stats.elapsed,
            self.analysis.stats.sat_variables,
            self.analysis.stats.refinements,
            self.analysis.stats.theory_propagations,
            self.analysis.stats.sat_live_learnts,
            self.analysis.stats.sat_total_learnt,
            self.analysis.stats.sat_reduced_dbs,
        );
        if let Some(profile) = &self.analysis.profile {
            summary.push_str(&format!("\nsolver profile: {profile}"));
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use crate::{Query, QueryEngine};
    use advocat_noc::{build_fabric, FabricConfig, Topology};

    #[test]
    fn report_counts_invariants_in_its_summary() {
        let system =
            build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3))
                .unwrap();
        let mut engine = QueryEngine::on(system, 3..=3);
        let report = engine.check(&Query::new());
        assert!(report.is_deadlock_free());
        assert!(report.counterexample().is_none());
        let count = engine.invariants().len();
        assert!(count > 0);
        assert_eq!(report.analysis().stats.invariants, count);
        let summary = report.summary();
        assert!(
            summary.contains(&format!("; {count} invariants;")),
            "{summary}"
        );
        assert!(summary.contains("deadlock-free"));
        assert!(summary.contains("4 automata"));
        // Telemetry was disabled, so no profile line is rendered.
        assert!(report.solver_profile().is_none());
        assert!(!summary.contains("solver profile"));
    }

    #[test]
    fn summary_renders_the_solver_profile_when_telemetry_is_on() {
        use advocat_logic::{CheckConfig, SolverConfig, Telemetry};

        let system =
            build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 3).with_directory(3))
                .unwrap();
        let config = CheckConfig {
            solver: SolverConfig {
                telemetry: Telemetry::null(),
                ..SolverConfig::default()
            },
            ..CheckConfig::default()
        };
        let report = QueryEngine::with_config(system, config, 3..=3).check(&Query::new());
        let profile = report.solver_profile().expect("telemetry was enabled");
        assert!(profile.propagate.count > 0);
        // Proving freedom takes theory lemmas, so the theory side is filled.
        assert!(profile.lemmas > 0 && profile.extract.count >= profile.lemmas);
        assert!(profile.average_core_size() >= 1.0);
        let summary = report.summary();
        assert!(summary.contains("solver profile: propagate"), "{summary}");
        assert!(summary.contains("analyze"), "{summary}");
        assert!(summary.contains("lemmas, avg core"), "{summary}");
    }

    #[test]
    fn report_carries_the_counterexample_when_deadlocking() {
        let system =
            build_fabric(&FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3))
                .unwrap();
        let report = QueryEngine::on(system, 2..=2).check(&Query::new());
        assert!(!report.is_deadlock_free());
        let cex = report.counterexample().expect("candidate present");
        assert!(cex.total_packets() >= 1 || !cex.dead_automata.is_empty());
        assert!(report.summary().contains("potential deadlock"));
    }
}
