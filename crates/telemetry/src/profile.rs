//! Solver profiles: per-query attribution of time and conflicts to the
//! CDCL search phases and to the theory side of the DPLL(T) loop, plus the
//! restart / LBD-EMA timeline.
//!
//! A profile is collected by the SAT solver and the SMT refinement loop
//! **only while telemetry is enabled** (the phase timers cost two
//! monotonic-clock reads per phase entry, which the disabled path must not
//! pay) and rides the analysis up the stack:
//! `SatSolver`/`SmtSolver → Analysis → Report`/`JobOutcome`, where
//! `Report::summary()` renders it.

use std::fmt;
use std::time::Duration;

/// Time and invocation count of one search phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Wall-clock time spent in the phase.
    pub time: Duration,
    /// Number of times the phase ran.
    pub count: u64,
}

impl PhaseCost {
    /// Adds one invocation of `elapsed`.
    pub fn add(&mut self, elapsed: Duration) {
        self.time += elapsed;
        self.count += 1;
    }

    /// Merges another cost into this one.
    pub fn merge(&mut self, other: &PhaseCost) {
        self.time += other.time;
        self.count += other.count;
    }
}

/// One point of the restart timeline: the search state at the moment a
/// restart fired.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RestartSample {
    /// Cumulative conflict count at the restart.
    pub conflicts: u64,
    /// Fast exponential moving average of recent learnt-clause LBDs.
    pub lbd_ema_fast: f64,
    /// Slow (long-run) LBD average the fast one is compared against.
    pub lbd_ema_slow: f64,
}

/// Phase-attributed cost of one query (or one analysis): where the
/// solver's time and conflicts went.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolverProfile {
    /// Unit propagation (the BCP inner loop).
    pub propagate: PhaseCost,
    /// First-UIP conflict analysis, LBD computation included.
    pub analyze: PhaseCost,
    /// Learnt-database reductions (worst-half deletion + garbage sweeps).
    pub reduce: PhaseCost,
    /// Restarts (backtracking to level zero and EMA re-alignment).
    pub restart: PhaseCost,
    /// Opening decision levels: establishing the pending assumptions and
    /// picking each branching variable from the activity heap.
    pub decide: PhaseCost,
    /// Theory explanations: each walk back over the reasons the bounds
    /// kept along the trail hold, which names the atoms of a bound
    /// conflict, of an implied atom's explanation or of a refuted leaf of
    /// branch & bound.
    pub extract: PhaseCost,
    /// Theory checks: the bound update at every propagation fixpoint with
    /// the scan for the atoms it decides, and branch & bound on those
    /// bounds at each complete assignment they admit (its walks back are
    /// `extract`).
    pub theory: PhaseCost,
    /// Core minimisation of theory conflicts: deletion over the
    /// explanation and the lemma's soundness re-check (plain
    /// propagation, or a fresh branch & bound for a branch & bound
    /// explanation); and the soundness re-check of each implied atom's
    /// explanation clause.
    pub core: PhaseCost,
    /// Theory lemma insertion into the running SAT search: attaching the
    /// clause and backjumping (a lemma's conflict analysis is `analyze`);
    /// and attaching the explanation clauses of implied atoms and
    /// assigning those atoms.
    pub block: PhaseCost,
    /// Theory lemmas added.
    pub lemmas: u64,
    /// Atoms the theory implied, each with an explanation clause.
    pub implied: u64,
    /// Atoms over all theory lemmas (see
    /// [`SolverProfile::average_core_size`]).
    pub lemma_atoms: u64,
    /// Conflicts attributed to this profile.  At most one more than
    /// `analyze.count`: a conflict at decision level zero ends the query
    /// without a conflict analysis.
    pub conflicts: u64,
    /// The restart timeline, in firing order.
    pub restarts: Vec<RestartSample>,
}

impl SolverProfile {
    /// Returns `true` when nothing was recorded (e.g. telemetry was
    /// disabled for the whole query).
    pub fn is_empty(&self) -> bool {
        self.propagate.count == 0
            && self.analyze.count == 0
            && self.reduce.count == 0
            && self.restart.count == 0
            && self.decide.count == 0
            && self.restarts.is_empty()
    }

    /// Merges another profile into this one (phase costs add, timelines
    /// concatenate).
    pub fn merge(&mut self, other: &SolverProfile) {
        self.propagate.merge(&other.propagate);
        self.analyze.merge(&other.analyze);
        self.reduce.merge(&other.reduce);
        self.restart.merge(&other.restart);
        self.decide.merge(&other.decide);
        self.extract.merge(&other.extract);
        self.theory.merge(&other.theory);
        self.core.merge(&other.core);
        self.block.merge(&other.block);
        self.lemmas += other.lemmas;
        self.implied += other.implied;
        self.lemma_atoms += other.lemma_atoms;
        self.conflicts += other.conflicts;
        self.restarts.extend_from_slice(&other.restarts);
    }

    /// Total time attributed to the four CDCL phases propagate, analyze,
    /// reduce and restart; neither `decide` nor the theory-side phases are
    /// included.
    pub fn attributed_time(&self) -> Duration {
        self.propagate.time + self.analyze.time + self.reduce.time + self.restart.time
    }

    /// Mean number of atoms per theory lemma; zero without lemmas.
    pub fn average_core_size(&self) -> f64 {
        if self.lemmas == 0 {
            0.0
        } else {
            self.lemma_atoms as f64 / self.lemmas as f64
        }
    }
}

impl fmt::Display for SolverProfile {
    /// One line of phase attribution, as rendered into
    /// `Report::summary()`: each CDCL phase as `time/count`, then `decide`
    /// the same way, the final
    /// LBD-EMA point of the timeline, then each theory phase as
    /// `time/count` with the lemma count, average core size and the
    /// number of implied atoms.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "propagate {:.2?}/{}, analyze {:.2?}/{}, reduce {:.2?}/{}, restart {:.2?}/{}, \
             decide {:.2?}/{}",
            self.propagate.time,
            self.propagate.count,
            self.analyze.time,
            self.analyze.count,
            self.reduce.time,
            self.reduce.count,
            self.restart.time,
            self.restart.count,
            self.decide.time,
            self.decide.count,
        )?;
        if let Some(last) = self.restarts.last() {
            write!(
                f,
                "; lbd-ema at last restart {:.2} fast / {:.2} slow",
                last.lbd_ema_fast, last.lbd_ema_slow
            )?;
        }
        write!(
            f,
            "; theory: extract {:.2?}/{}, check {:.2?}/{}, core {:.2?}/{}, block {:.2?}/{}; \
             {} lemmas, avg core {:.1} atoms, {} implied",
            self.extract.time,
            self.extract.count,
            self.theory.time,
            self.theory.count,
            self.core.time,
            self.core.count,
            self.block.time,
            self.block.count,
            self.lemmas,
            self.average_core_size(),
            self.implied,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_reports_empty() {
        assert!(SolverProfile::default().is_empty());
    }

    #[test]
    fn merge_adds_costs_and_concatenates_timelines() {
        let mut a = SolverProfile::default();
        a.propagate.add(Duration::from_micros(5));
        a.restarts.push(RestartSample {
            conflicts: 10,
            lbd_ema_fast: 3.0,
            lbd_ema_slow: 4.0,
        });
        let mut b = SolverProfile::default();
        b.propagate.add(Duration::from_micros(7));
        b.decide.add(Duration::from_micros(4));
        b.conflicts = 2;
        b.restarts.push(RestartSample {
            conflicts: 20,
            lbd_ema_fast: 2.0,
            lbd_ema_slow: 3.0,
        });
        a.merge(&b);
        assert_eq!(a.propagate.count, 2);
        assert_eq!(a.propagate.time, Duration::from_micros(12));
        assert_eq!(a.conflicts, 2);
        assert_eq!(a.restarts.len(), 2);
        assert_eq!(a.decide.count, 1);
        assert!(!a.is_empty());
        // Decisions stay out of the four CDCL phases.
        assert_eq!(a.attributed_time(), Duration::from_micros(12));
    }

    #[test]
    fn theory_phases_stay_out_of_the_cdcl_attribution() {
        let mut a = SolverProfile::default();
        a.propagate.add(Duration::from_micros(5));
        a.theory.add(Duration::from_micros(40));
        a.lemmas = 2;
        a.lemma_atoms = 7;
        let mut b = SolverProfile::default();
        b.core.add(Duration::from_micros(3));
        b.lemmas = 1;
        b.lemma_atoms = 2;
        b.implied = 4;
        a.merge(&b);
        assert_eq!(a.implied, 4);
        assert_eq!(a.attributed_time(), Duration::from_micros(5));
        assert_eq!(a.theory.time, Duration::from_micros(40));
        assert_eq!(a.core.count, 1);
        assert_eq!(a.lemmas, 3);
        assert_eq!(a.average_core_size(), 3.0);
        assert_eq!(SolverProfile::default().average_core_size(), 0.0);
    }

    #[test]
    fn display_names_every_phase() {
        let mut profile = SolverProfile::default();
        profile.analyze.add(Duration::from_micros(3));
        profile.restarts.push(RestartSample {
            conflicts: 1,
            lbd_ema_fast: 1.5,
            lbd_ema_slow: 2.5,
        });
        let text = profile.to_string();
        for phase in [
            "propagate",
            "analyze",
            "reduce",
            "restart",
            "decide",
            "lbd-ema",
            "extract",
            "check",
            "core",
            "block",
            "lemmas",
            "implied",
        ] {
            assert!(text.contains(phase), "{text}");
        }
    }
}
