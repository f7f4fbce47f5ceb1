//! The deadlock verification driver.

use std::time::{Duration, Instant};

use advocat_automata::{derive_colors, System};
use advocat_invariants::{derive_invariants, InvariantSet};
use advocat_logic::{BoolVar, CheckConfig, IntVar, Model, SmtResult, SolverProfile};
use advocat_xmas::ColorMap;

use crate::counterexample::Counterexample;
use crate::encode::{build_encoding, Encoding, EncodingVars};
use crate::DeadlockTarget;

/// The verdict of a deadlock analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// No assignment satisfies the deadlock equations: the system is
    /// deadlock-free (the method is sound).
    DeadlockFree,
    /// The equations are satisfiable; the model is a deadlock candidate
    /// (possibly a false negative, i.e. unreachable).
    PotentialDeadlock(Counterexample),
    /// The solver exhausted its resource budget.
    Unknown,
}

impl Verdict {
    /// Returns `true` for [`Verdict::DeadlockFree`].
    pub fn is_deadlock_free(&self) -> bool {
        matches!(self, Verdict::DeadlockFree)
    }

    /// Returns the counterexample of a [`Verdict::PotentialDeadlock`].
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::PotentialDeadlock(cex) => Some(cex),
            _ => None,
        }
    }
}

/// Statistics of one deadlock analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Number of cross-layer invariants used.
    pub invariants: usize,
    /// Number of integer variables (queue occupancies + state indicators).
    pub int_vars: usize,
    /// Number of block/idle/dead indicators: one block and one idle per
    /// channel × color (the colors of a queue's input share one block
    /// variable) and one dead per automaton.
    pub bool_vars: usize,
    /// Number of linear atoms in the SMT encoding.
    pub linear_atoms: usize,
    /// Number of propositional variables of the CNF encoding: indicators,
    /// linear atoms and Tseitin definitions.  This is the encoding's size.
    pub sat_variables: usize,
    /// Number of SAT/theory refinement iterations performed: one, plus
    /// one per theory lemma ([`advocat_logic::SolverStats::refinements`]).
    pub refinements: u64,
    /// Linear atoms the theory implied from the interval bounds kept
    /// along the SAT trail, each with a checked explanation clause
    /// ([`advocat_logic::SolverStats::theory_propagations`]).
    pub theory_propagations: u64,
    /// SAT conflicts spent on this analysis (for session-based analyses the
    /// delta attributable to this query, not the session total).
    pub sat_conflicts: u64,
    /// SAT unit propagations spent on this analysis (delta, like
    /// [`AnalysisStats::sat_conflicts`]).
    pub sat_propagations: u64,
    /// Learnt-database reductions the SAT solver performed during this
    /// analysis (delta, like [`AnalysisStats::sat_conflicts`]).
    pub sat_reduced_dbs: u64,
    /// Clauses the SAT solver deleted during this analysis (delta).
    pub sat_deleted_clauses: u64,
    /// Learnt clauses alive in the SAT solver after this analysis
    /// (snapshot; for session-based analyses this is the live size of the
    /// shared database, which reduction keeps bounded).
    pub sat_live_learnts: u64,
    /// Learnt clauses ever stored by the SAT solver, deleted ones included
    /// (snapshot of the monotone counter).
    pub sat_total_learnt: u64,
    /// Wall-clock time of the analysis.
    pub elapsed: Duration,
}

impl AnalysisStats {
    /// The total SAT effort of the analysis: conflicts plus propagations.
    /// This is the unit in which the incremental-session speedup is
    /// asserted (see the `incremental` integration tests).
    pub fn sat_effort(&self) -> u64 {
        self.sat_conflicts + self.sat_propagations
    }
}

/// The result of a deadlock analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics about the run.
    pub stats: AnalysisStats,
    /// Phase-attributed solver profile (propagate/analyze/reduce/restart
    /// time and the restart timeline).  `None` unless the check ran with
    /// an enabled telemetry handle in its
    /// [`SolverConfig`](advocat_logic::SolverConfig).
    pub profile: Option<SolverProfile>,
}

/// Runs the full ADVOCAT pipeline on a system: `T`-derivation, invariant
/// generation, deadlock-equation encoding and SMT solving, looking for
/// `target` at the structural queue capacities.
///
/// This is the one-shot, fixed-capacity path: a fresh solver with the
/// target's goal asserted permanently, checked once.  It shares nothing
/// with [`crate::EncodingTemplate`] (no capacity variables, assumptions,
/// selectors or query history), so it serves as an independent oracle for
/// the template.  Use [`verify_with`] to supply a precomputed color map
/// and invariant set or a custom solver configuration.
///
/// # Examples
///
/// See the crate-level documentation.
pub fn verify_system(system: &System, target: DeadlockTarget) -> Analysis {
    let colors = derive_colors(system);
    let invariants = derive_invariants(system, &colors);
    verify_with(
        system,
        &colors,
        &invariants,
        target,
        &CheckConfig::default(),
    )
}

/// Runs the deadlock analysis with explicit inputs.
///
/// `colors` must be the `T`-derivation of `system` and `invariants` the
/// invariant set derived for the same color map; supplying mismatching
/// inputs yields meaningless (though still over-approximate) results.
pub fn verify_with(
    system: &System,
    colors: &ColorMap,
    invariants: &InvariantSet,
    target: DeadlockTarget,
    config: &CheckConfig,
) -> Analysis {
    let start = Instant::now();
    let Encoding { mut smt, vars } = build_encoding(system, colors, invariants, target);
    let result = smt.check_with(config);
    let stats = smt.stats();
    let profile = smt.take_profile();
    analysis_from_result(
        &vars,
        invariants.len(),
        result,
        stats,
        profile,
        start.elapsed(),
        &CexLabels::new(system, &vars),
    )
}

/// The name tables needed to render a model as a counterexample, captured
/// from the system the encoding was built from.  Owning them makes a
/// template self-contained: its queries cannot be paired with a different
/// `System` than the one its encoding describes.
#[derive(Debug)]
pub(crate) struct CexLabels {
    /// `(occupancy var, queue name, packet)` per queue/color pair.
    occupancy: Vec<(IntVar, String, String)>,
    /// `(state var, automaton name, state name)` per automaton state.
    state: Vec<(IntVar, String, String)>,
    /// `(dead var, automaton name)` per automaton.
    dead: Vec<(BoolVar, String)>,
    /// The goal indicators, for attributing a model to its symptom(s).
    goal_stuck: Option<BoolVar>,
    goal_dead: Option<BoolVar>,
}

impl CexLabels {
    pub(crate) fn new(system: &System, vars: &EncodingVars) -> Self {
        let network = system.network();
        let occupancy = vars
            .occupancy
            .iter()
            .map(|((queue, color), var)| {
                (
                    *var,
                    network.name(*queue).to_owned(),
                    network.colors().packet(*color).to_string(),
                )
            })
            .collect();
        let state = vars
            .state
            .iter()
            .map(|((node, state), var)| {
                let automaton = system.automaton(*node).expect("state var for automaton");
                (
                    *var,
                    network.name(*node).to_owned(),
                    automaton.state_name(*state).to_owned(),
                )
            })
            .collect();
        let dead = vars
            .dead
            .iter()
            .map(|(node, var)| (*var, network.name(*node).to_owned()))
            .collect();
        CexLabels {
            occupancy,
            state,
            dead,
            goal_stuck: vars.goal_stuck,
            goal_dead: vars.goal_dead,
        }
    }

    /// Translates a model of the deadlock encoding into a counterexample,
    /// attributed to the deadlock symptom(s) its goal indicators witness.
    pub(crate) fn extract(&self, model: &Model) -> Counterexample {
        let mut cex = Counterexample::default();
        for (var, queue, packet) in &self.occupancy {
            let count = model.int_value(*var);
            if count > 0 {
                cex.queue_contents
                    .push((queue.clone(), packet.clone(), count));
            }
        }
        cex.queue_contents.sort();
        for (var, automaton, state) in &self.state {
            if model.int_value(*var) == 1 {
                cex.automaton_states
                    .push((automaton.clone(), state.clone()));
            }
        }
        cex.automaton_states.sort();
        for (var, automaton) in &self.dead {
            if model.bool_value(*var) {
                cex.dead_automata.push(automaton.clone());
            }
        }
        cex.dead_automata.sort();
        if self.goal_stuck.is_some_and(|v| model.bool_value(v)) {
            cex.witnessed.push(DeadlockTarget::StuckPacket);
        }
        if self.goal_dead.is_some_and(|v| model.bool_value(v)) {
            cex.witnessed.push(DeadlockTarget::DeadAutomaton);
        }
        cex
    }
}

/// Packages an SMT result and its statistics into an [`Analysis`]; shared
/// by [`verify_with`] and [`crate::EncodingTemplate`].
pub(crate) fn analysis_from_result(
    vars: &EncodingVars,
    invariants: usize,
    result: SmtResult,
    solver_stats: advocat_logic::SolverStats,
    profile: SolverProfile,
    elapsed: Duration,
    labels: &CexLabels,
) -> Analysis {
    let verdict = match result {
        SmtResult::Unsat => Verdict::DeadlockFree,
        SmtResult::Unknown => Verdict::Unknown,
        SmtResult::Sat(model) => Verdict::PotentialDeadlock(labels.extract(&model)),
    };
    Analysis {
        verdict,
        profile: (!profile.is_empty()).then_some(profile),
        stats: AnalysisStats {
            invariants,
            int_vars: vars.occupancy.len() + vars.state.len(),
            bool_vars: vars.block.len() + vars.idle.len() + vars.dead.len(),
            linear_atoms: solver_stats.linear_atoms,
            sat_variables: solver_stats.sat_variables,
            refinements: solver_stats.refinements,
            theory_propagations: solver_stats.theory_propagations,
            sat_conflicts: solver_stats.sat_conflicts,
            sat_propagations: solver_stats.sat_propagations,
            sat_reduced_dbs: solver_stats.sat_reduced_dbs,
            sat_deleted_clauses: solver_stats.sat_deleted_clauses,
            sat_live_learnts: solver_stats.sat_live_learnts,
            sat_total_learnt: solver_stats.sat_total_learnt,
            elapsed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_automata::AutomatonBuilder;
    use advocat_xmas::{Network, Packet};

    /// The running example of the paper (Fig. 1): deadlock-free thanks to
    /// the derived cross-layer invariant.
    fn running_example(queue_size: usize) -> System {
        let mut net = Network::new();
        let req = net.intern(Packet::kind("req"));
        let ack = net.intern(Packet::kind("ack"));
        let s_node = net.add_automaton_node("S", 1, 1);
        let t_node = net.add_automaton_node("T", 1, 1);
        let q0 = net.add_queue("q0", queue_size);
        let q1 = net.add_queue("q1", queue_size);
        net.connect(s_node, 0, q0, 0);
        net.connect(q0, 0, t_node, 0);
        net.connect(t_node, 0, q1, 0);
        net.connect(q1, 0, s_node, 0);

        let mut sb = AutomatonBuilder::new("S", 1, 1);
        let s0 = sb.state("s0");
        let s1 = sb.state("s1");
        sb.set_initial(s0);
        sb.spontaneous_emit(s0, s1, 0, req);
        sb.on_packet(s1, s0, 0, ack, None);

        let mut tb = AutomatonBuilder::new("T", 1, 1);
        let t0 = tb.state("t0");
        let t1 = tb.state("t1");
        tb.set_initial(t0);
        tb.on_packet(t0, t1, 0, req, None);
        tb.spontaneous_emit(t1, t0, 0, ack);

        let mut system = System::new(net);
        system.attach(s_node, sb.build().unwrap()).unwrap();
        system.attach(t_node, tb.build().unwrap()).unwrap();
        system.validate().unwrap();
        system
    }

    #[test]
    fn running_example_is_deadlock_free_with_invariants() {
        let system = running_example(2);
        let analysis = verify_system(&system, DeadlockTarget::Any);
        assert!(
            analysis.verdict.is_deadlock_free(),
            "{:?}",
            analysis.verdict
        );
        assert!(analysis.stats.invariants >= 1);
        assert!(analysis.stats.int_vars >= 6);
    }

    #[test]
    fn running_example_without_invariants_reports_candidates() {
        // Section 3 of the paper: without the invariants, unfolding the
        // block/idle equations yields (unreachable) deadlock candidates.
        let system = running_example(2);
        let colors = derive_colors(&system);
        let empty = InvariantSet::default();
        let analysis = verify_with(
            &system,
            &colors,
            &empty,
            DeadlockTarget::Any,
            &CheckConfig::default(),
        );
        assert!(matches!(analysis.verdict, Verdict::PotentialDeadlock(_)));
    }

    #[test]
    fn dead_sink_deadlock_is_detected_with_counterexample_details() {
        let mut net = Network::new();
        let pkt = net.intern(Packet::kind("pkt"));
        let src = net.add_source("src", vec![pkt]);
        let q = net.add_queue("q", 2);
        let dead = net.add_dead_sink("dead");
        net.connect(src, 0, q, 0);
        net.connect(q, 0, dead, 0);
        let system = System::new(net);
        let analysis = verify_system(&system, DeadlockTarget::Any);
        let cex = analysis
            .verdict
            .counterexample()
            .expect("a stuck packet must be reported");
        assert!(cex.total_packets() >= 1);
        assert_eq!(cex.packets_of_kind("pkt"), cex.total_packets());
    }

    #[test]
    fn dead_sink_net_is_free_under_the_dead_automaton_target() {
        let mut net = Network::new();
        let pkt = net.intern(Packet::kind("pkt"));
        let src = net.add_source("src", vec![pkt]);
        let q = net.add_queue("q", 2);
        let dead = net.add_dead_sink("dead");
        net.connect(src, 0, q, 0);
        net.connect(q, 0, dead, 0);
        let system = System::new(net);
        // The net has a stuck packet but no automaton, so the solver
        // proves the dead-automaton goal unsatisfiable.
        let analysis = verify_system(&system, DeadlockTarget::DeadAutomaton);
        assert!(analysis.verdict.is_deadlock_free());
        let stuck = verify_system(&system, DeadlockTarget::StuckPacket);
        assert!(!stuck.verdict.is_deadlock_free());
    }

    #[test]
    fn an_exhausted_refinement_budget_is_unknown() {
        let system = running_example(2);
        let colors = derive_colors(&system);
        let invariants = derive_invariants(&system, &colors);
        let config = CheckConfig {
            max_refinements: 0,
            ..CheckConfig::default()
        };
        let analysis = verify_with(&system, &colors, &invariants, DeadlockTarget::Any, &config);
        assert_eq!(analysis.verdict, Verdict::Unknown);
        assert_eq!(analysis.stats.refinements, 0);
    }

    #[test]
    fn verdict_helpers_behave() {
        assert!(Verdict::DeadlockFree.is_deadlock_free());
        assert!(Verdict::DeadlockFree.counterexample().is_none());
        let v = Verdict::PotentialDeadlock(Counterexample::default());
        assert!(!v.is_deadlock_free());
        assert!(v.counterexample().is_some());
    }
}
