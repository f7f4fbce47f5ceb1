//! Boundary-level deadlock reasoning: the composition check over contract
//! variables.
//!
//! A composed verification never encodes the whole fabric.  Each tile is
//! certified on its own small encoding (an [`crate::EncodingTemplate`]
//! over the tile closed off with a free environment), and the global
//! question is asked over **contract variables only**: one occupancy
//! integer and one `blocked` indicator per cut port, related by the
//! waiting dependencies of the boundary graph and constrained by the
//! tiles' exported interface contracts, on a fresh solver checked once.
//!
//! The check is the waiting-graph argument of Verbeek–Schmaltz: in a
//! global deadlock of a fabric whose tiles are internally live, some cut
//! queue must be full with its head packet waiting on other cut queues,
//! transitively forming a cycle of full, mutually-dependent boundary
//! ports.  [`check_composition`] searches for exactly that configuration;
//! `Unsat` therefore certifies the composition deadlock-free, while `Sat`
//! yields a *candidate* set of blocked interfaces (the abstraction is
//! deliberately coarse, so candidates are attributed, then either refuted
//! by a flat fallback run or reported).

use std::time::{Duration, Instant};

use advocat_invariants::ContractRow;
use advocat_logic::{CheckConfig, Formula, LinExpr, SmtResult, SmtSolver};

/// One cut port in the composition check: its queue name, its capacity at
/// the queried sizing, and the ports its head packet may wait on.
#[derive(Clone, Debug)]
pub struct InterfacePort {
    /// The cut queue's name.
    pub name: String,
    /// Queue capacity at the queried sizing.
    pub capacity: usize,
    /// Indices (into the model's port list) this port can wait on.
    pub deps: Vec<usize>,
}

/// The contract-level abstraction of a partitioned fabric: cut ports with
/// waiting dependencies, plus the rows of every tile's exported
/// [`advocat_invariants::InterfaceContract`].
#[derive(Clone, Debug, Default)]
pub struct CompositionModel {
    /// The cut ports.
    pub ports: Vec<InterfacePort>,
    /// Imported contract rows (over port names).
    pub constraints: Vec<ContractRow>,
}

/// What the composition check concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryOutcome {
    /// No cycle of full, waiting boundary ports exists: the composition
    /// is deadlock-free (given certified tiles).
    Free,
    /// A candidate configuration was found; the named ports are blocked
    /// in it.  Candidates are over-approximate and need attribution or a
    /// flat refutation.
    Candidate {
        /// Names of the blocked ports, sorted.
        ports: Vec<String>,
    },
    /// The solver exhausted its budget.
    Unknown,
}

/// The result of a composition check.
#[derive(Clone, Debug)]
pub struct BoundaryAnalysis {
    /// The outcome.
    pub outcome: BoundaryOutcome,
    /// Contract rows asserted.
    pub imported: usize,
    /// Contract rows skipped (a term's port was absent from the model or
    /// a coefficient exceeded the solver's integer width) — skipping only
    /// drops constraints, so it errs towards `Candidate`, never `Free`.
    pub skipped: usize,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
}

impl BoundaryAnalysis {
    /// `true` when the composition was certified deadlock-free.
    pub fn is_free(&self) -> bool {
        self.outcome == BoundaryOutcome::Free
    }
}

/// Searches the boundary abstraction for a deadlock candidate: a nonempty
/// set of full cut queues whose head packets wait on each other, subject
/// to the imported contracts.
///
/// The encoding is tiny — two variables per cut port — which is the whole
/// point: its size is the *surface* of the partition, independent of the
/// tiles' interiors.
pub fn check_composition(model: &CompositionModel, config: &CheckConfig) -> BoundaryAnalysis {
    let start = Instant::now();
    let mut smt = SmtSolver::new();
    let occ: Vec<_> = model
        .ports
        .iter()
        .map(|p| smt.new_int_var(format!("occ({})", p.name), 0, p.capacity as i64))
        .collect();
    let blocked: Vec<_> = model
        .ports
        .iter()
        .map(|p| smt.new_bool_var(format!("blocked({})", p.name)))
        .collect();

    for (i, port) in model.ports.iter().enumerate() {
        // A blocked port is full …
        smt.assert(Formula::implies(
            Formula::bool_var(blocked[i]),
            Formula::eq(
                LinExpr::var(occ[i]),
                LinExpr::constant(port.capacity as i64),
            ),
        ));
        // … and waits on a blocked dependency (no dependencies: the
        // environment always drains it, so it can never be blocked).
        smt.assert(Formula::implies(
            Formula::bool_var(blocked[i]),
            Formula::or(port.deps.iter().map(|&d| Formula::bool_var(blocked[d]))),
        ));
    }

    let mut imported = 0usize;
    let mut skipped = 0usize;
    'rows: for row in &model.constraints {
        let mut expr = LinExpr::zero();
        for (queue, coef) in &row.terms {
            let Some(index) = model.ports.iter().position(|p| &p.name == queue) else {
                skipped += 1;
                continue 'rows;
            };
            let Ok(coef) = i64::try_from(*coef) else {
                skipped += 1;
                continue 'rows;
            };
            expr.add_term(coef, occ[index]);
        }
        let Ok(constant) = i64::try_from(row.constant) else {
            skipped += 1;
            continue;
        };
        expr.add_constant(constant);
        smt.assert(Formula::le(expr, LinExpr::zero()));
        imported += 1;
    }

    smt.assert(Formula::or(blocked.iter().map(|&b| Formula::bool_var(b))));

    let outcome = match smt.check_with(config) {
        SmtResult::Unsat => BoundaryOutcome::Free,
        SmtResult::Unknown => BoundaryOutcome::Unknown,
        SmtResult::Sat(witness) => {
            let mut ports: Vec<String> = model
                .ports
                .iter()
                .zip(&blocked)
                .filter(|(_, &b)| witness.bool_value(b))
                .map(|(p, _)| p.name.clone())
                .collect();
            ports.sort();
            BoundaryOutcome::Candidate { ports }
        }
    };
    BoundaryAnalysis {
        outcome,
        imported,
        skipped,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port_cycle(capacity: usize) -> CompositionModel {
        CompositionModel {
            ports: vec![
                InterfacePort {
                    name: "qA".into(),
                    capacity,
                    deps: vec![1],
                },
                InterfacePort {
                    name: "qB".into(),
                    capacity,
                    deps: vec![0],
                },
            ],
            constraints: Vec::new(),
        }
    }

    #[test]
    fn a_dependency_cycle_is_a_candidate() {
        let analysis = check_composition(&two_port_cycle(2), &CheckConfig::default());
        match analysis.outcome {
            BoundaryOutcome::Candidate { ports } => {
                assert_eq!(ports, vec!["qA".to_string(), "qB".to_string()]);
            }
            other => panic!("expected a candidate, got {other:?}"),
        }
    }

    #[test]
    fn contracts_can_refute_the_cycle() {
        // The cycle needs both queues full (occ = 2 each); a contract
        // bounding their sum below 4 rules it out.
        let mut model = two_port_cycle(2);
        model.constraints.push(ContractRow {
            terms: vec![("qA".into(), 1), ("qB".into(), 1)],
            constant: -3,
        });
        let analysis = check_composition(&model, &CheckConfig::default());
        assert!(analysis.is_free());
        assert_eq!(analysis.imported, 1);
        assert_eq!(analysis.skipped, 0);
    }

    #[test]
    fn dependency_free_ports_never_block() {
        let mut model = two_port_cycle(1);
        model.ports[0].deps.clear();
        model.ports[1].deps.clear();
        let analysis = check_composition(&model, &CheckConfig::default());
        assert!(analysis.is_free());
    }

    #[test]
    fn unresolvable_contract_rows_are_skipped_not_asserted() {
        let mut model = two_port_cycle(2);
        model.constraints.push(ContractRow {
            terms: vec![("q-not-here".into(), 1)],
            constant: 10, // would be unsatisfiable if asserted
        });
        let analysis = check_composition(&model, &CheckConfig::default());
        assert_eq!(analysis.skipped, 1);
        assert!(matches!(
            analysis.outcome,
            BoundaryOutcome::Candidate { .. }
        ));
    }

    #[test]
    fn an_exhausted_refinement_budget_is_unknown() {
        let config = CheckConfig {
            max_refinements: 0,
            ..CheckConfig::default()
        };
        let analysis = check_composition(&two_port_cycle(2), &config);
        assert_eq!(analysis.outcome, BoundaryOutcome::Unknown);
    }

    #[test]
    fn an_exhausted_theory_budget_is_unknown() {
        // The contract rules the cycle out by propagation, so the theory
        // check that would explain it has no node to spend.
        let mut model = two_port_cycle(2);
        model.constraints.push(ContractRow {
            terms: vec![("qA".into(), 1), ("qB".into(), 1)],
            constant: -3,
        });
        let config = CheckConfig {
            theory_node_budget: 0,
            ..CheckConfig::default()
        };
        let analysis = check_composition(&model, &config);
        assert_eq!(analysis.outcome, BoundaryOutcome::Unknown);
        assert_eq!(analysis.imported, 1);
    }
}
