//! The DPLL(T) search combining the SAT core with the bounded-LIA theory
//! solver.
//!
//! Each check is one CDCL search ([`crate::sat::SatSolver::solve_with_theory`])
//! whose theory hook checks every unit-propagation fixpoint it reaches.
//! At a partial assignment the hook checks the interval bounds of the
//! integer variables under the atoms assigned so far, kept along the SAT
//! trail with the reason of every bound and undone on backjump; a
//! complete assignment the bounds admit is decided by the theory solver,
//! branch & bound included.  An assignment the theory refutes yields an
//! explained lemma, which the search treats as a conflict clause: it
//! backjumps only as far as the lemma needs and continues, instead of
//! starting a new SAT solve per lemma.  Bounds that hold imply the atoms
//! they decide, each with a checked explanation clause as its reason.
//! [`SolverStats::refinements`] counts the rounds of that search (the
//! first, plus one per lemma), [`SolverStats::theory_propagations`] the
//! implied atoms.
//!
//! One [`SmtSolver`] owns one CNF encoding and one SAT solver for its
//! whole life.  Each [`SmtSolver::check`] encodes only the assertions
//! added since the previous check; the SAT solver's learnt clauses,
//! variable activities and watcher lists, and every theory lemma, survive
//! into later checks.  Every assertion is permanent.  What changes between
//! checks is assumed: [`SmtSolver::check_assuming`] holds literals —
//! Boolean variables and linear comparisons — for one check only, and a
//! compound constraint is made retractable by asserting `s → f` once and
//! assuming the selector `s`.  Assumed atoms are interned, so asking the
//! same question again allocates nothing.  Solvers share nothing, so a
//! fresh solver checked once is an independent oracle for a long-lived
//! one.
//!
//! Theory lemmas (blocking clauses derived from infeasible conjunctions of
//! linear atoms) are consequences of the variable bounds alone, never of
//! the asserted formulas, so they are added as permanent clauses and keep
//! pruning the search in every later check.

use crate::cnf::{Encoder, LinearAtom};
use crate::expr::{BoolVar, CmpOp, Formula, IntVar, VarPool};
use crate::model::Model;
use crate::sat::{Fixpoint, Lit, SatSolver, SatStats, SolverConfig, TheoryCheck, Unsat, Var};
use crate::theory::{self, Constraint, TheoryVerdict};
use advocat_telemetry::{PhaseCost, SolverProfile};
use std::time::Instant;

/// Resource limits and search parameters for a satisfiability check.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Maximum number of refinement rounds ([`SolverStats::refinements`])
    /// before the solver gives up with [`SmtResult::Unknown`]; zero
    /// answers `Unknown` without searching.
    pub max_refinements: u64,
    /// Search-node budget for each theory feasibility check: deciding a
    /// complete assignment and re-checking a branch & bound explanation
    /// each get this many nodes.  Explaining an assignment the bounds kept
    /// along the trail refute walks their reasons back, which counts as
    /// one node, so zero answers `Unknown` at the first theory conflict
    /// or complete assignment.  Explaining an implied atom walks back the
    /// same way; each walk is free on a positive budget, and zero implies
    /// nothing.
    pub theory_node_budget: u64,
    /// CDCL search parameters: learnt-database reduction, restart schedule
    /// and phase saving.  Applied to the underlying SAT solver at every
    /// check, so a long-lived solver can be retuned per query.
    pub solver: SolverConfig,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_refinements: 200_000,
            theory_node_budget: 2_000_000,
            solver: SolverConfig::default(),
        }
    }
}

/// Statistics of the most recent [`SmtSolver::check`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Refinement rounds of the check's one search: the first, plus one
    /// per theory lemma the search went on after.  Lemmas refute partial
    /// as well as complete assignments, so this counts lemmas, not theory
    /// checks: the theory checks every propagation fixpoint of the search.
    /// Literals the theory implies start no round and are counted in
    /// [`SolverStats::theory_propagations`] instead.  Zero only when
    /// [`CheckConfig::max_refinements`] is.
    pub refinements: u64,
    /// Assignments, partial or complete, the theory refuted; each became
    /// a lemma except one that hit the refinement budget.  An atom the
    /// bounds decide before the search assigns it against them is implied
    /// instead ([`SolverStats::theory_propagations`]) and costs no
    /// conflict.
    pub theory_conflicts: u64,
    /// Atoms the theory implied: unassigned atoms the interval bounds
    /// kept along the trail decide at a consistent fixpoint, assigned
    /// with an explanation clause as their reason.  An atom implied again
    /// after a backjump counts again.
    pub theory_propagations: u64,
    /// Number of distinct linear atoms in the encoding.
    pub linear_atoms: usize,
    /// Number of propositional variables allocated by the encoding.
    pub sat_variables: usize,
    /// SAT conflicts encountered during this check (the delta against the
    /// solver state before the search; level-0 propagation while encoding
    /// is not counted).  A theory lemma with several literals at its
    /// highest decision level goes through conflict analysis and counts
    /// here; unit and asserting lemmas do not.
    pub sat_conflicts: u64,
    /// SAT unit propagations performed during this check (delta, like
    /// [`SolverStats::sat_conflicts`]).
    pub sat_propagations: u64,
    /// Learnt-database reductions performed during this check (delta).
    pub sat_reduced_dbs: u64,
    /// Clauses deleted by database reductions during this check (delta).
    pub sat_deleted_clauses: u64,
    /// Learnt clauses alive in the SAT solver after this check (snapshot).
    pub sat_live_learnts: u64,
    /// Learnt clauses ever stored by the SAT solver, including deleted
    /// ones (snapshot of the monotone counter, like
    /// [`SolverStats::sat_live_learnts`]).
    pub sat_total_learnt: u64,
}

/// Outcome of a satisfiability check.
#[derive(Clone, Debug, PartialEq)]
pub enum SmtResult {
    /// The assertions are satisfiable; a model is returned.
    Sat(Model),
    /// The assertions are unsatisfiable.
    Unsat,
    /// The solver exhausted its resource budget.
    Unknown,
}

impl SmtResult {
    /// Returns the model, panicking when the result is not `Sat`.
    ///
    /// # Panics
    ///
    /// Panics if the result is `Unsat` or `Unknown`.
    pub fn expect_sat(self) -> Model {
        match self {
            SmtResult::Sat(model) => model,
            other => panic!("expected a satisfiable result, got {other:?}"),
        }
    }

    /// Returns `true` when the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// Returns `true` when the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }
}

/// An SMT solver for quantifier-free formulas over Booleans and bounded
/// linear integer arithmetic.
///
/// # Examples
///
/// ```
/// use advocat_logic::{Formula, LinExpr, SmtSolver};
///
/// let mut smt = SmtSolver::new();
/// let x = smt.new_int_var("x", 0, 3);
/// smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(2)));
/// smt.assert(Formula::le(LinExpr::var(x), LinExpr::constant(1)));
/// assert!(smt.check().is_unsat());
/// ```
///
/// One solver answers a sweep of related queries, assuming the per-query
/// constraint for one check at a time:
///
/// ```
/// use advocat_logic::{CheckConfig, Formula, LinExpr, SmtSolver};
///
/// let mut smt = SmtSolver::new();
/// let x = smt.new_int_var("x", 0, 10);
/// let y = smt.new_int_var("y", 0, 10);
/// smt.assert(Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(6)));
/// for cap in 0..3 {
///     let pin = Formula::le(LinExpr::var(x), LinExpr::constant(cap));
///     assert!(smt.check_assuming(&[pin], &CheckConfig::default()).is_sat());
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SmtSolver {
    pool: VarPool,
    assertions: Vec<Formula>,
    encoder: Encoder,
    sat: SatSolver,
    /// How many leading assertions have been encoded into `sat`.
    encoded: usize,
    stats: SolverStats,
    /// Phase attribution of the most recent check; empty unless the
    /// check's [`SolverConfig::telemetry`] handle was enabled.
    profile: SolverProfile,
    /// The encoder's linear atoms as theory constraints, kept across
    /// checks and extended as the encoder interns new ones.
    atoms: Atoms,
}

impl SmtSolver {
    /// Creates an empty solver: the encoding, learnt clauses and theory
    /// lemmas survive across [`SmtSolver::check`] calls.
    pub fn new() -> Self {
        SmtSolver::default()
    }

    /// Declares a fresh Boolean variable.
    pub fn new_bool_var(&mut self, name: impl Into<String>) -> BoolVar {
        self.pool.new_bool(name)
    }

    /// Declares a fresh bounded integer variable (inclusive bounds).
    pub fn new_int_var(&mut self, name: impl Into<String>, lo: i64, hi: i64) -> IntVar {
        self.pool.new_int(name, lo, hi)
    }

    /// Gives read access to the variable pool (names, bounds).
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Asserts a formula permanently.
    pub fn assert(&mut self, formula: Formula) {
        self.assertions.push(formula);
    }

    /// Returns the assertions, oldest first.
    pub fn assertions(&self) -> &[Formula] {
        &self.assertions
    }

    /// Returns statistics about the most recent check.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Takes the phase-attributed solver profile of the most recent check.
    /// Empty unless that check ran with an enabled
    /// [`SolverConfig::telemetry`] handle.
    pub fn take_profile(&mut self) -> SolverProfile {
        std::mem::take(&mut self.profile)
    }

    /// Returns the cumulative statistics of the underlying SAT solver: the
    /// counters accumulate over the whole life of the solver (that is what
    /// makes reuse visible).
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats()
    }

    /// Checks satisfiability with default resource limits.
    pub fn check(&mut self) -> SmtResult {
        self.check_with(&CheckConfig::default())
    }

    /// Checks satisfiability of the assertions with the given resource
    /// limits.
    pub fn check_with(&mut self, config: &CheckConfig) -> SmtResult {
        self.check_assuming(&[], config)
    }

    /// Checks satisfiability of the assertions **under assumptions**: each
    /// assumed literal holds for this check only, without being asserted.
    ///
    /// An assumption must be a literal: a Boolean variable, a `≤`, `<`,
    /// `≥` or `>` comparison, or the negation of one.  Its atom is
    /// interned, so assuming it again allocates nothing, and a comparison
    /// the variable bounds decide is the constant literal.  Nothing is
    /// encoded per assumption and nothing has to be garbage-collected
    /// afterwards; everything the solver learns under one assumption set
    /// keeps pruning the search under every later one.  That is what lets
    /// a verification session pin queue capacities and flip
    /// *specification selectors* (which deadlock target is active, whether
    /// invariant strengthening applies) between queries with no
    /// re-encode at all.  A compound constraint is made retractable the
    /// same way: assert `s → f` once and assume `s`.
    ///
    /// A variable or atom that occurs in no asserted formula is allocated
    /// a SAT variable on the fly, so selector variables may be declared
    /// ahead of the formulas they will eventually guard.
    ///
    /// Only the assertions added since the last check are encoded.
    ///
    /// # Panics
    ///
    /// Panics when an assumption is not a literal: an `=`, a `≠` or a
    /// connective would need a fresh Tseitin definition at every check.
    pub fn check_assuming(&mut self, assumptions: &[Formula], config: &CheckConfig) -> SmtResult {
        for i in self.encoded..self.assertions.len() {
            let lit = self
                .encoder
                .encode(&self.assertions[i], &self.pool, &mut self.sat);
            self.sat.add_clause(&[lit]);
        }
        self.encoded = self.assertions.len();
        let assumed: Vec<Lit> = assumptions
            .iter()
            .map(|formula| {
                let atom = match formula {
                    Formula::Not(inner) => &**inner,
                    atom => atom,
                };
                assert!(
                    matches!(
                        atom,
                        Formula::Bool(_)
                            | Formula::Cmp(_, CmpOp::Le | CmpOp::Lt | CmpOp::Ge | CmpOp::Gt, _)
                    ),
                    "assumption {formula:?} is not a literal"
                );
                self.encoder.encode(formula, &self.pool, &mut self.sat)
            })
            .collect();

        self.atoms
            .extend(&self.pool, &self.encoder, self.sat.num_vars());
        self.stats = SolverStats {
            linear_atoms: self.encoder.atom_count(),
            sat_variables: self.sat.num_vars(),
            ..SolverStats::default()
        };
        self.sat.set_config(config.solver.clone());
        let before = self.sat.stats();
        let result = self.refine(&assumed, config);
        let after = self.sat.stats();
        self.stats.sat_conflicts = after.conflicts - before.conflicts;
        self.stats.sat_propagations = after.propagations - before.propagations;
        self.stats.sat_reduced_dbs = after.reduced_dbs - before.reduced_dbs;
        self.stats.sat_deleted_clauses = after.deleted_clauses - before.deleted_clauses;
        self.stats.sat_live_learnts = after.learnt_clauses;
        self.stats.sat_total_learnt = after.total_learnt;
        result
    }

    /// The DPLL(T) search: one CDCL search whose theory hook checks every
    /// unit-propagation fixpoint it reaches, partial or complete.
    ///
    /// The hook keeps the integer variables' bounds under the assigned
    /// atoms along the SAT trail ([`TrailBounds`]): each fixpoint
    /// activates only the atoms assigned since the previous one and
    /// undoes only what a backjump retracted.  Bounds that refute a
    /// partial assignment cut it off before the search decides further.
    /// A complete assignment the bounds admit is decided by
    /// [`theory::solve`], which branches where intervals cannot decide.
    ///
    /// An assignment the bounds refute is explained from the reasons they
    /// keep: walking back from the conflict names the atoms whose bound
    /// moves it read, with no extraction and no [`theory::solve`].  Those
    /// atoms, ascending, are shrunk to an irreducible core
    /// ([`theory::minimize_core`]), whose deletion pass drops the oldest
    /// atoms first and so keeps the current query's capacity pins, and
    /// the core is re-checked by plain propagation without the recorded
    /// reasons.  A complete assignment that [`theory::solve`] refutes by
    /// branch & bound is explained by the union of its leaves' reasons,
    /// re-checked by a fresh [`theory::solve`] over those constraints
    /// alone, and blocks every assigned atom when that check runs out of
    /// nodes.  The lemma blocks the core's atoms.  The SAT solver treats
    /// it as a conflict clause of the running search
    /// ([`SatSolver::solve_with_theory`]).  Lemmas are justified by the
    /// variable bounds alone, so they stay as permanent clauses: the
    /// "theory lemmas" that survive into later checks.
    ///
    /// Bounds that hold propagate: each unassigned atom over a variable
    /// the fixpoint's update moved that some live clause mentions and
    /// that the bounds decide is implied ([`TheoryCheck::Imply`]).  Its
    /// clause is the implied literal and the negation of every atom the
    /// walk back from its refuted polarity's reads names, with no deletion
    /// pass; plain propagation must refute those atoms together with the
    /// refuted polarity before the clause is handed over.  The SAT solver
    /// keeps it as a permanent clause and the literal's reason, so the
    /// search never decides against an atom the bounds already decide.
    ///
    /// The search runs in refinement rounds: the first, and one more
    /// after each lemma; implied atoms start none.  A lemma that would start a round beyond
    /// [`CheckConfig::max_refinements`] stops the search with
    /// [`SmtResult::Unknown`], and so does a theory check that runs out of
    /// its node budget.
    ///
    /// With profiling on (an enabled [`SolverConfig::telemetry`] handle) the
    /// theory-side phases and lemma sizes are charged to the check's
    /// profile, next to the SAT core's CDCL phases; every fixpoint's
    /// bound update, with the scan for implied atoms, counts as a theory
    /// check, the walk back over the bounds' reasons as an extraction,
    /// and an implied atom's re-check as core work.
    fn refine(&mut self, assumptions: &[Lit], config: &CheckConfig) -> SmtResult {
        self.profile = SolverProfile::default();
        if config.max_refinements == 0 {
            return SmtResult::Unknown;
        }
        let (pool, encoder, assertions) = (&self.pool, &self.encoder, &self.assertions);
        let stats = &mut self.stats;
        let profile = &mut self.profile;
        let atoms = &self.atoms;
        let bounds = &atoms.bounds;
        let mut trail_bounds = TrailBounds::new(atoms);
        let profiling = config.solver.telemetry.is_enabled();
        let mut constraints: Vec<&Constraint> = Vec::new();
        let mut atom_lits: Vec<Lit> = Vec::new();
        let mut explained: Vec<u32> = Vec::new();
        let mut implied: Vec<(u32, bool)> = Vec::new();
        let mut found: Option<Model> = None;

        // The first round of the search; each lemma starts another.
        stats.refinements = 1;
        let searched = self.sat.solve_with_theory(assumptions, |at| {
            let mut start = profiling.then(Instant::now);
            let bounded = trail_bounds.update(at).is_ok();
            implied.clear();
            // Implications are explained like conflicts, so a budget that
            // allows no walk back allows none.
            if bounded && config.theory_node_budget > 0 {
                trail_bounds.implied(at, &mut implied);
            }
            start = lap(start, &mut profile.theory);
            if !implied.is_empty() {
                let mut clauses = Vec::with_capacity(implied.len());
                for &(atom, value) in &implied {
                    trail_bounds.explain_implied(atom, value, &mut explained);
                    start = lap(start, &mut profile.extract);
                    let mut clause = Vec::with_capacity(explained.len() + 1);
                    clause.push(Lit::new(atoms.sat_var[atom as usize], value));
                    constraints.clear();
                    for &other in &explained {
                        let sat_var = atoms.sat_var[other as usize];
                        let value = at.assignment[sat_var].expect("explained atoms are assigned");
                        constraints.push(&atoms.polarised[other as usize][usize::from(value)]);
                        clause.push(Lit::new(sat_var, !value));
                    }
                    constraints.push(&atoms.polarised[atom as usize][usize::from(!value)]);
                    // The clause must hold without the recorded reasons: an
                    // unsound one would turn into a wrong "deadlock-free".
                    assert!(
                        theory::refuted_by_propagation(bounds, &constraints),
                        "internal error: implication {:?} of {constraints:?} is not \
                         refuted by propagation",
                        clause[0]
                    );
                    start = lap(start, &mut profile.core);
                    clauses.push(clause);
                }
                stats.theory_propagations += clauses.len() as u64;
                if profiling {
                    profile.implied += clauses.len() as u64;
                }
                return TheoryCheck::Imply(clauses);
            }
            if bounded && !at.complete {
                return TheoryCheck::Consistent;
            }
            constraints.clear();
            atom_lits.clear();
            let (explanation, branched) = if bounded {
                // Extract the theory constraints of a complete assignment.
                // Atoms no live clause mentions and no assumption assigns
                // (the pins other checks assumed) are unassigned and
                // skipped: nothing propositional constrains them, so
                // forcing a theory counterpart would only shrink — or
                // wrongly empty — the feasible space of long-lived
                // sessions.
                for (both, &sat_var) in atoms.polarised.iter().zip(&atoms.sat_var) {
                    let Some(assigned_true) = at.assignment[sat_var] else {
                        continue;
                    };
                    constraints.push(&both[usize::from(assigned_true)]);
                    atom_lits.push(Lit::new(sat_var, assigned_true));
                }
                start = lap(start, &mut profile.extract);
                let verdict = theory::solve(bounds, &constraints, config.theory_node_budget);
                start = lap(start, &mut profile.theory);
                match verdict {
                    TheoryVerdict::Sat(values) => {
                        let mut model = Model::new();
                        for v in pool.int_vars() {
                            model.set_int(v, values[v.index()]);
                        }
                        for v in pool.bool_vars() {
                            if let Some(sat_var) = encoder.lookup_bool(v) {
                                model.set_bool(v, at.assignment[sat_var].unwrap_or(false));
                            }
                        }
                        debug_assert!(
                            assertions
                                .iter()
                                .all(|f| f.evaluate(&mut |b| model.bool_value(b), &mut |i| model
                                    .int_value(i))),
                            "internal error: SMT model does not satisfy the assertions"
                        );
                        found = Some(model);
                        return TheoryCheck::Consistent;
                    }
                    TheoryVerdict::Unknown => return TheoryCheck::Stop,
                    TheoryVerdict::Unsat {
                        explanation,
                        branched,
                    } => (explanation, branched),
                }
            } else {
                // The bounds refute the assignment: walk their reasons
                // back instead of solving again.  The walk counts as one
                // theory node, like the root of the solve it replaces.
                if config.theory_node_budget == 0 {
                    return TheoryCheck::Stop;
                }
                trail_bounds.explain(&mut explained);
                for &atom in &explained {
                    let sat_var = atoms.sat_var[atom as usize];
                    let value = at.assignment[sat_var].expect("explained atoms are assigned");
                    constraints.push(&atoms.polarised[atom as usize][usize::from(value)]);
                    atom_lits.push(Lit::new(sat_var, value));
                }
                start = lap(start, &mut profile.extract);
                ((0..constraints.len()).collect(), false)
            };
            stats.theory_conflicts += 1;
            if stats.refinements >= config.max_refinements {
                return TheoryCheck::Stop;
            }
            stats.refinements += 1;
            let core = if branched {
                // The lemma must have no integer point on its own: an
                // unsound one would turn into a wrong "deadlock-free".
                let lemma: Vec<&Constraint> = explanation.iter().map(|&i| constraints[i]).collect();
                match theory::solve(bounds, &lemma, config.theory_node_budget) {
                    TheoryVerdict::Sat(point) => panic!(
                        "internal error: branch-and-bound explanation {lemma:?} \
                         has the integer point {point:?}"
                    ),
                    TheoryVerdict::Unsat { .. } => explanation,
                    // Unconfirmed: block all of the assignment's atoms.
                    TheoryVerdict::Unknown => (0..constraints.len()).collect(),
                }
            } else {
                // Ascending atoms: the deletion pass drops the oldest
                // first and keeps the current query's capacity pins.
                let core = theory::minimize_core(bounds, &constraints, explanation);
                // The lemma must be refuted without the recorded reasons:
                // an unsound one would turn into a wrong "deadlock-free".
                let lemma: Vec<&Constraint> = core.iter().map(|&i| constraints[i]).collect();
                assert!(
                    theory::refuted_by_propagation(bounds, &lemma),
                    "internal error: theory core {lemma:?} is not refuted by propagation"
                );
                core
            };
            // An empty core refutes the bounds alone: the lemma is the
            // empty clause, and every check is unsatisfiable.
            let lemma: Vec<Lit> = core.iter().map(|&idx| atom_lits[idx].negated()).collect();
            if profiling {
                lap(start, &mut profile.core);
                profile.lemmas += 1;
                profile.lemma_atoms += core.len() as u64;
            }
            TheoryCheck::Lemma(lemma)
        });
        let result = match searched {
            Ok(Some(_)) => SmtResult::Sat(found.expect("an accepted assignment has a model")),
            Ok(None) => SmtResult::Unknown,
            Err(Unsat) => SmtResult::Unsat,
        };
        self.profile.merge(&self.sat.take_profile());
        result
    }
}

/// The theory constraint of a linear atom.
fn constraint_of(atom: &LinearAtom) -> Constraint {
    Constraint::new(
        atom.terms.iter().map(|(c, v)| (*c, v.index())).collect(),
        atom.bound,
    )
}

/// Marks a SAT variable that stands for no linear atom.
const NO_ATOM: u32 = u32::MAX;

/// The encoder's linear atoms as the theory sees them, with the indexes
/// the bounds kept along the trail look them up by.  Kept across checks:
/// [`Atoms::extend`] adds only what the encoder interned and the pool
/// declared since the previous check.
#[derive(Clone, Debug, Default)]
struct Atoms {
    /// Each integer variable's declared bounds.
    bounds: Vec<(i64, i64)>,
    /// Each atom's constraint, negated and as stated.
    polarised: Vec<[Constraint; 2]>,
    /// Each atom's SAT variable.
    sat_var: Vec<Var>,
    /// The atom each SAT variable stands for, or [`NO_ATOM`].
    atom_of: Vec<u32>,
    /// The atoms over each integer variable.
    over: Vec<Vec<u32>>,
}

impl Atoms {
    /// Catches up with the integer variables of `pool` and the atoms of
    /// `encoder`, over `sat_vars` SAT variables.
    fn extend(&mut self, pool: &VarPool, encoder: &Encoder, sat_vars: usize) {
        for v in pool.int_vars().skip(self.bounds.len()) {
            self.bounds.push(pool.int_bounds(v));
            self.over.push(Vec::new());
        }
        self.atom_of.resize(sat_vars, NO_ATOM);
        for (atom, sat_var) in encoder.linear_atoms().skip(self.polarised.len()) {
            self.push(
                [constraint_of(&atom.negated()), constraint_of(atom)],
                sat_var,
            );
        }
    }

    /// Adds the atom `polarised` (negated, as stated) on `sat_var`.
    fn push(&mut self, polarised: [Constraint; 2], sat_var: Var) {
        let atom = self.polarised.len() as u32;
        for &(_, v) in &polarised[1].terms {
            self.over[v].push(atom);
        }
        if self.atom_of.len() <= sat_var {
            self.atom_of.resize(sat_var + 1, NO_ATOM);
        }
        self.atom_of[sat_var] = atom;
        self.polarised.push(polarised);
        self.sat_var.push(sat_var);
    }
}

/// A bound a theory check moved: the trail length the check saw, the
/// variable, whether it was the upper bound, the value and the setter
/// ([`TrailBounds::lo_by`]) it replaced, and its reason: the atom that
/// moved it, and the end of its slice `reads[end(e-1)..reads_end]` of
/// [`TrailBounds::reads`].
#[derive(Debug)]
struct Moved {
    trail_len: usize,
    var: usize,
    upper: bool,
    old: i64,
    old_by: u32,
    atom: u32,
    reads_end: u32,
}

/// The integer variables' interval bounds under the assigned atoms of one
/// check, kept along the SAT trail with the reason of every bound.
///
/// Each bound a check moves is logged with the trail length that check
/// saw.  A later check first undoes every move logged above its
/// [`Fixpoint::kept`] (the assignment it rested on was partly retracted),
/// then activates the atoms assigned since the last check that still
/// stands, and narrows ([`theory::narrow`]) assigned atoms from a worklist
/// until nothing moves.  The bounds are then the interval-propagation
/// fixpoint of the assigned atoms: the one [`theory::solve`] computes
/// from scratch, in time proportional to what changed.
///
/// The undo log doubles as a reason trail, in the `(constraint, reads)`
/// scheme of [`theory::solve`]'s: each entry names the atom that moved
/// its bound and the entries that set the bounds that atom's minimal sum
/// read, and each variable points at the entries that set its current
/// bounds.  An undo restores those pointers and drops the reads with the
/// entries, so the reasons always describe the bounds as they stand.  A
/// failed update keeps the refuted atom and the entries its minimal sum
/// read, and [`TrailBounds::explain`] walks back from them.  After a
/// successful one, [`TrailBounds::implied`] finds the unassigned atoms
/// over the variables it moved that the bounds decide, and
/// [`TrailBounds::explain_implied`] walks back from the entries the
/// refuted polarity's minimal sum reads.
#[derive(Debug)]
struct TrailBounds<'a> {
    atoms: &'a Atoms,
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Per variable, the `undo` entry that set its current lower / upper
    /// bound, or [`theory::NONE`] for its declared bound.
    lo_by: Vec<u32>,
    hi_by: Vec<u32>,
    /// Every bound moved and not undone, oldest first.
    undo: Vec<Moved>,
    /// The entries each move read, concatenated in `undo` order.
    reads: Vec<u32>,
    /// The first `undo` entry the last update pushed.
    fresh: usize,
    /// After a failed update: the refuted atom.
    conflict: u32,
    /// The entries the next walk back starts from: after a failed update,
    /// those the refuted atom's minimal sum read.
    pending: Vec<u32>,
    /// The walk that last visited each `undo` entry, and the current one.
    stamp: Vec<u32>,
    walk: u32,
    /// The scan for implied atoms that last visited each variable and
    /// each atom, and the current one.
    var_scanned: Vec<u32>,
    atom_scanned: Vec<u32>,
    scan: u32,
    /// The trail lengths of the checks whose activations still stand,
    /// increasing.
    checked: Vec<usize>,
    /// Atoms to narrow; `queued` marks them.
    worklist: Vec<u32>,
    queued: Vec<bool>,
    /// The variables the current narrowing step moved.
    moved: Vec<usize>,
}

impl<'a> TrailBounds<'a> {
    /// The declared bounds, before any atom is assigned.
    fn new(atoms: &'a Atoms) -> Self {
        let (vars, count) = (atoms.bounds.len(), atoms.polarised.len());
        TrailBounds {
            atoms,
            lo: atoms.bounds.iter().map(|b| b.0).collect(),
            hi: atoms.bounds.iter().map(|b| b.1).collect(),
            lo_by: vec![theory::NONE; vars],
            hi_by: vec![theory::NONE; vars],
            undo: Vec::new(),
            reads: Vec::new(),
            fresh: 0,
            conflict: NO_ATOM,
            pending: Vec::new(),
            stamp: Vec::new(),
            walk: 0,
            var_scanned: vec![0; vars],
            atom_scanned: vec![0; count],
            scan: 0,
            checked: Vec::new(),
            worklist: Vec::new(),
            queued: vec![false; count],
            moved: Vec::new(),
        }
    }

    /// Brings the bounds up to date with the fixpoint `at`.  `Err(())`
    /// when some assigned atom cannot hold within them: the assigned atoms
    /// have no integer point, and [`TrailBounds::explain`] says which.
    fn update(&mut self, at: Fixpoint<'_>) -> Result<(), ()> {
        let atoms = self.atoms;
        while let Some(m) = self.undo.pop_if(|m| m.trail_len > at.kept) {
            let (bound, by) = if m.upper {
                (&mut self.hi, &mut self.hi_by)
            } else {
                (&mut self.lo, &mut self.lo_by)
            };
            bound[m.var] = m.old;
            by[m.var] = m.old_by;
        }
        let reads_end = self.undo.last().map_or(0, |m| m.reads_end);
        self.reads.truncate(reads_end as usize);
        self.fresh = self.undo.len();
        while self.checked.last().is_some_and(|&len| len > at.kept) {
            self.checked.pop();
        }
        let active = self.checked.last().copied().unwrap_or(0);
        // The worklist is empty between checks, and an atom is on the
        // trail at most once.
        for lit in &at.trail[active..] {
            let atom = atoms.atom_of[lit.var()];
            if atom != NO_ATOM {
                self.queued[atom as usize] = true;
                self.worklist.push(atom);
            }
        }
        let now = at.trail.len();
        if active < now {
            self.checked.push(now);
        }
        while let Some(atom) = self.worklist.pop() {
            self.queued[atom as usize] = false;
            let value =
                at.assignment[atoms.sat_var[atom as usize]].expect("queued atoms are assigned");
            let c = &atoms.polarised[atom as usize][usize::from(value)];
            let (undo, reads, moved) = (&mut self.undo, &mut self.reads, &mut self.moved);
            let (lo_by, hi_by) = (&mut self.lo_by, &mut self.hi_by);
            let narrowed = theory::narrow(&mut self.lo, &mut self.hi, c, |i, old| {
                let (a, var) = c.terms[i];
                theory::push_reads(c, Some(i), lo_by, hi_by, reads);
                let by = if a > 0 {
                    &mut hi_by[var]
                } else {
                    &mut lo_by[var]
                };
                let entry = undo.len() as u32;
                undo.push(Moved {
                    trail_len: now,
                    var,
                    upper: a > 0,
                    old,
                    old_by: std::mem::replace(by, entry),
                    atom,
                    reads_end: reads.len() as u32,
                });
                moved.push(var);
            });
            if narrowed.is_err() {
                self.conflict = atom;
                self.pending.clear();
                theory::push_reads(c, None, &self.lo_by, &self.hi_by, &mut self.pending);
                for atom in self.worklist.drain(..) {
                    self.queued[atom as usize] = false;
                }
                return Err(());
            }
            // An atom's terms name distinct variables, so one step leaves
            // the atom itself at its fixpoint.
            while let Some(var) = self.moved.pop() {
                for &other in &atoms.over[var] {
                    let other_index = other as usize;
                    if other != atom
                        && !self.queued[other_index]
                        && at.assignment[atoms.sat_var[other_index]].is_some()
                    {
                        self.queued[other_index] = true;
                        self.worklist.push(other);
                    }
                }
            }
        }
        Ok(())
    }

    /// After a successful [`TrailBounds::update`] to `at`: the atoms over
    /// the variables it moved that `at` leaves unassigned, that some live
    /// clause mentions and that the bounds decide, each with the value
    /// they decide, into `found`.  An atom is implied false when its
    /// minimal sum as stated exceeds its bound, and true when its
    /// negation's does.  Atoms are visited once, in the order of the moves
    /// and then of [`Atoms::over`].  An atom no clause mentions (a
    /// capacity pin only an earlier check assumed) is left alone: nothing
    /// would propagate from it, and its clause would make it live.
    fn implied(&mut self, at: Fixpoint<'_>, found: &mut Vec<(u32, bool)>) {
        let atoms = self.atoms;
        self.scan += 1;
        for m in &self.undo[self.fresh..] {
            if std::mem::replace(&mut self.var_scanned[m.var], self.scan) == self.scan {
                continue;
            }
            for &atom in &atoms.over[m.var] {
                let a = atom as usize;
                let sat_var = atoms.sat_var[a];
                if std::mem::replace(&mut self.atom_scanned[a], self.scan) == self.scan
                    || at.assignment[sat_var].is_some()
                    || at.occurrences[sat_var] == 0
                {
                    continue;
                }
                let [negated, stated] = &atoms.polarised[a];
                if theory::min_sum(&self.lo, &self.hi, stated) > stated.bound {
                    found.push((atom, false));
                } else if theory::min_sum(&self.lo, &self.hi, negated) > negated.bound {
                    found.push((atom, true));
                }
            }
        }
    }

    /// Explains the last failed [`TrailBounds::update`] into `atoms`: the
    /// refuted atom and every atom whose bound moves its refutation read,
    /// directly or through the moves those read, ascending.
    fn explain(&mut self, atoms: &mut Vec<u32>) {
        atoms.clear();
        atoms.push(self.conflict);
        self.walk_back(atoms);
    }

    /// Explains why the bounds imply `atom` has `value` into `atoms`:
    /// every atom whose bound moves the refuted polarity's minimal sum
    /// read, directly or through the moves those read, ascending.
    fn explain_implied(&mut self, atom: u32, value: bool, atoms: &mut Vec<u32>) {
        let refuted = &self.atoms.polarised[atom as usize][usize::from(!value)];
        self.pending.clear();
        theory::push_reads(refuted, None, &self.lo_by, &self.hi_by, &mut self.pending);
        atoms.clear();
        self.walk_back(atoms);
    }

    /// Adds to `atoms` the atom of every entry [`TrailBounds::pending`]
    /// names and of every entry those read, then sorts and deduplicates
    /// them.  Each undo entry is visited at most once, so the walk costs
    /// what the explanation reads, not what the log holds.
    fn walk_back(&mut self, atoms: &mut Vec<u32>) {
        self.walk += 1;
        self.stamp.resize(self.undo.len(), 0);
        while let Some(entry) = self.pending.pop() {
            let e = entry as usize;
            if self.stamp[e] == self.walk {
                continue;
            }
            self.stamp[e] = self.walk;
            let start = e.checked_sub(1).map_or(0, |p| self.undo[p].reads_end);
            let m = &self.undo[e];
            self.pending
                .extend_from_slice(&self.reads[start as usize..m.reads_end as usize]);
            atoms.push(m.atom);
        }
        atoms.sort_unstable();
        atoms.dedup();
    }
}

/// Charges the time since `start` to `phase` and returns the new start;
/// `None` (profiling off) passes straight through.
fn lap(start: Option<Instant>, phase: &mut PhaseCost) -> Option<Instant> {
    let start = start?;
    let now = Instant::now();
    phase.add(now - start);
    Some(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;

    #[test]
    fn pure_boolean_problems_work() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool_var("a");
        let b = smt.new_bool_var("b");
        smt.assert(Formula::or([Formula::bool_var(a), Formula::bool_var(b)]));
        smt.assert(Formula::not(Formula::bool_var(a)));
        let model = smt.check().expect_sat();
        assert!(!model.bool_value(a));
        assert!(model.bool_value(b));
    }

    #[test]
    fn pure_arithmetic_sat_and_unsat() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 10);
        let y = smt.new_int_var("y", 0, 10);
        smt.assert(Formula::eq(
            LinExpr::var(x) + LinExpr::var(y),
            LinExpr::constant(7),
        ));
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(5)));
        let model = smt.check().expect_sat();
        assert_eq!(model.int_value(x) + model.int_value(y), 7);
        assert!(model.int_value(x) >= 5);

        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 3);
        smt.assert(Formula::gt(LinExpr::var(x), LinExpr::constant(3)));
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn mixed_boolean_and_arithmetic() {
        // b -> x >= 3,  !b -> x = 0,  x >= 1  ==> b and x >= 3.
        let mut smt = SmtSolver::new();
        let b = smt.new_bool_var("b");
        let x = smt.new_int_var("x", 0, 5);
        smt.assert(Formula::implies(
            Formula::bool_var(b),
            Formula::ge(LinExpr::var(x), LinExpr::constant(3)),
        ));
        smt.assert(Formula::implies(
            Formula::not(Formula::bool_var(b)),
            Formula::eq(LinExpr::var(x), LinExpr::constant(0)),
        ));
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(1)));
        let model = smt.check().expect_sat();
        assert!(model.bool_value(b));
        assert!(model.int_value(x) >= 3);
    }

    #[test]
    fn binary_indicator_variables_behave_like_the_paper_examples() {
        // The running example invariant: s1 + t0 - 1 = #q0 + #q1, with
        // s0 + s1 = 1 and t0 + t1 = 1 and queue sizes 2.  Asking for a state
        // where both queues are full must be unsatisfiable.
        let mut smt = SmtSolver::new();
        let s0 = smt.new_int_var("S.s0", 0, 1);
        let s1 = smt.new_int_var("S.s1", 0, 1);
        let t0 = smt.new_int_var("T.t0", 0, 1);
        let t1 = smt.new_int_var("T.t1", 0, 1);
        let q0 = smt.new_int_var("#q0", 0, 2);
        let q1 = smt.new_int_var("#q1", 0, 2);
        smt.assert(Formula::eq(
            LinExpr::var(s0) + LinExpr::var(s1),
            LinExpr::constant(1),
        ));
        smt.assert(Formula::eq(
            LinExpr::var(t0) + LinExpr::var(t1),
            LinExpr::constant(1),
        ));
        smt.assert(Formula::eq(
            LinExpr::var(s1) + LinExpr::var(t0) - LinExpr::constant(1),
            LinExpr::var(q0) + LinExpr::var(q1),
        ));
        smt.assert(Formula::ge(
            LinExpr::var(q0) + LinExpr::var(q1),
            LinExpr::constant(3),
        ));
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn unknown_on_zero_refinement_budget() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 3);
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(1)));
        let config = CheckConfig {
            max_refinements: 0,
            ..CheckConfig::default()
        };
        assert_eq!(smt.check_with(&config), SmtResult::Unknown);
    }

    #[test]
    fn a_spent_theory_budget_is_unknown_and_leaves_the_solver_usable() {
        // x + y = 4 ∧ x ≥ 3 ∧ y ≥ lo: one model at lo = 1, none at lo = 2.
        // Every atom is forced at level zero, so the first fixpoint is
        // complete (lo = 1) or refuted by the bounds (lo = 2), and the
        // theory check with no node to spend on deciding or explaining it
        // gives up mid-search.
        for lo in [1, 2] {
            let build = || {
                let mut smt = SmtSolver::new();
                let x = smt.new_int_var("x", 0, 5);
                let y = smt.new_int_var("y", 0, 5);
                smt.assert(Formula::eq(
                    LinExpr::var(x) + LinExpr::var(y),
                    LinExpr::constant(4),
                ));
                smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(3)));
                smt.assert(Formula::ge(LinExpr::var(y), LinExpr::constant(lo)));
                smt
            };
            let mut smt = build();
            let starved = CheckConfig {
                theory_node_budget: 0,
                ..CheckConfig::default()
            };
            assert_eq!(smt.check_with(&starved), SmtResult::Unknown, "lo {lo}");
            assert_eq!(smt.stats().refinements, 1);
            assert_eq!(smt.check(), build().check(), "lo {lo}");
        }
    }

    /// The atom `Σ terms ≤ bound` negated and as stated, as `refine`
    /// polarises the encoder's atoms.
    fn polarise(terms: Vec<(i64, IntVar)>, bound: i64) -> [Constraint; 2] {
        let atom = LinearAtom { terms, bound };
        [constraint_of(&atom.negated()), constraint_of(&atom)]
    }

    /// The table of `polarised` over the variables of `pool`, atom `i` on
    /// SAT variable `i`.
    fn table(pool: &VarPool, polarised: &[[Constraint; 2]]) -> Atoms {
        let mut atoms = Atoms {
            bounds: pool.int_vars().map(|v| pool.int_bounds(v)).collect(),
            over: vec![Vec::new(); pool.int_vars().count()],
            ..Atoms::default()
        };
        for (sat_var, both) in polarised.iter().enumerate() {
            atoms.push(both.clone(), sat_var);
        }
        atoms
    }

    #[test]
    fn trail_reasons_survive_backjumps() {
        // x, y ∈ 0..=9 and six atoms, atom i on SAT variable i:
        // A: x ≤ 5, B: x ≤ 4, C: y − x ≤ 0, D: y ≥ 6, E: x ≤ 2, F: y ≤ 3.
        let mut pool = VarPool::new();
        let (x, y) = (pool.new_int("x", 0, 9), pool.new_int("y", 0, 9));
        let bounds: Vec<(i64, i64)> = pool.int_vars().map(|v| pool.int_bounds(v)).collect();
        let polarised = [
            polarise(vec![(1, x)], 5),
            polarise(vec![(1, x)], 4),
            polarise(vec![(-1, x), (1, y)], 0),
            polarise(vec![(-1, y)], -6),
            polarise(vec![(1, x)], 2),
            polarise(vec![(1, y)], 3),
        ];
        let [a, b, c, d, e, f] = [0, 1, 2, 3, 4, 5].map(Lit::positive);
        let atoms = table(&pool, &polarised);
        let mut trail_bounds = TrailBounds::new(&atoms);
        // One theory check of `trail` after a backjump to `kept`.
        let mut check = |trail: &[Lit], kept: usize| {
            let mut assignment = vec![None; polarised.len()];
            for lit in trail {
                assignment[lit.var()] = Some(lit.is_positive());
            }
            let at = Fixpoint {
                assignment: &assignment,
                trail,
                kept,
                complete: false,
                occurrences: &[1; 6],
            };
            let explained = trail_bounds.update(at).err().map(|()| {
                let mut atoms = Vec::new();
                trail_bounds.explain(&mut atoms);
                atoms
            });
            (trail_bounds.hi.clone(), explained)
        };
        // A sets x ≤ 5 and C passes it on to y; a backjump below A's check
        // retracts both, and B sets the same bound at 4.
        assert_eq!(check(&[a], 0), (vec![5, 9], None));
        assert_eq!(check(&[a, c], 1), (vec![5, 5], None));
        assert_eq!(check(&[b], 0), (vec![4, 9], None));
        assert_eq!(check(&[b, c], 1), (vec![4, 4], None));
        // E moves both bounds again, over B's and C's entries, and D
        // refutes y ≤ 2 through E's move, not B's.
        assert_eq!(check(&[b, c, e], 2), (vec![2, 2], None));
        let (_, over_e) = check(&[b, c, e, d], 3);
        // Retracting E restores B's and C's entries as the setters, so D
        // is refuted through B's move, not A's or E's.
        let (_, over_b) = check(&[b, c, d], 2);
        // Retracting C drops what its move read (B's entry): F's move,
        // logged in C's place, reads nothing, and D is refuted by F alone.
        assert_eq!(check(&[b, f], 1), (vec![4, 3], None));
        let (_, over_f) = check(&[b, f, d], 2);
        let explained = [
            (over_e, vec![2, 3, 4]),
            (over_b, vec![1, 2, 3]),
            (over_f, vec![3, 5]),
        ];
        for (explained, expected) in explained {
            assert_eq!(explained.as_ref(), Some(&expected));
            let lemma: Vec<&Constraint> = expected
                .iter()
                .map(|&atom| &polarised[atom as usize][1])
                .collect();
            assert!(
                theory::refuted_by_propagation(&bounds, &lemma),
                "{expected:?}"
            );
        }
    }

    #[test]
    fn trail_bounds_imply_the_atoms_they_decide() {
        // x, y ∈ 0..=9 and seven atoms, atom i on SAT variable i:
        // P: x ≤ 2, Q: x ≤ 4, R: x ≥ 3, S: y ≤ 5, T: y ≥ 7, U: x ≤ 3,
        // and W: x ≤ 6, which no clause mentions.
        let mut pool = VarPool::new();
        let (x, y) = (pool.new_int("x", 0, 9), pool.new_int("y", 0, 9));
        let bounds: Vec<(i64, i64)> = pool.int_vars().map(|v| pool.int_bounds(v)).collect();
        let polarised = [
            polarise(vec![(1, x)], 2),
            polarise(vec![(1, x)], 4),
            polarise(vec![(-1, x)], -3),
            polarise(vec![(1, y)], 5),
            polarise(vec![(-1, y)], -7),
            polarise(vec![(1, x)], 3),
            polarise(vec![(1, x)], 6),
        ];
        let [p, q, r, s, t, u] = [0, 1, 2, 3, 4, 5];
        let occurrences = [1, 1, 1, 1, 1, 1, 0];
        let atoms = table(&pool, &polarised);
        let mut trail_bounds = TrailBounds::new(&atoms);
        // One theory check of the atoms `trail` assigns true, after a
        // backjump to `kept`: the bounds, and the atoms they imply with
        // their values and explanations.
        let mut check = |trail: &[u32], kept: usize| {
            let trail: Vec<Lit> = trail.iter().map(|&a| Lit::positive(a as Var)).collect();
            let mut assignment = vec![None; polarised.len()];
            for lit in &trail {
                assignment[lit.var()] = Some(true);
            }
            let at = Fixpoint {
                assignment: &assignment,
                trail: &trail,
                kept,
                complete: false,
                occurrences: &occurrences,
            };
            assert_eq!(trail_bounds.update(at), Ok(()));
            let mut found = Vec::new();
            trail_bounds.implied(at, &mut found);
            let implied: Vec<(u32, bool, Vec<u32>)> = found
                .into_iter()
                .map(|(atom, value)| {
                    let mut explained = Vec::new();
                    trail_bounds.explain_implied(atom, value, &mut explained);
                    // The explanation refutes the other value on its own.
                    let mut refuted: Vec<&Constraint> = explained
                        .iter()
                        .map(|&a| &polarised[a as usize][1])
                        .collect();
                    refuted.push(&polarised[atom as usize][usize::from(!value)]);
                    assert!(theory::refuted_by_propagation(&bounds, &refuted));
                    (atom, value, explained)
                })
                .collect();
            (trail_bounds.hi.clone(), implied)
        };
        // P sets x ≤ 2: Q and U hold on every point left and R on none,
        // each because of P; so does W, but nothing would propagate from
        // it; y did not move, so nothing is said about S or T.
        assert_eq!(
            check(&[p], 0),
            (
                vec![2, 9],
                vec![(q, true, vec![p]), (r, false, vec![p]), (u, true, vec![p])]
            )
        );
        // S moves y alone: T fails because of S, and Q, R and U, which
        // the search would have assigned meanwhile, are not offered again.
        assert_eq!(check(&[p, s], 1), (vec![2, 5], vec![(t, false, vec![s])]));
        // A backjump below P's move retracts it, and with it what it
        // implied: S alone decides T again, but nothing over x.
        assert_eq!(check(&[s], 0), (vec![9, 5], vec![(t, false, vec![s])]));
        // U sets x ≤ 3: Q holds again, now because of U, and R is open.
        assert_eq!(check(&[s, u], 1), (vec![3, 5], vec![(q, true, vec![u])]));
    }

    #[test]
    fn iff_and_ne_operators_are_supported() {
        let mut smt = SmtSolver::new();
        let a = smt.new_bool_var("a");
        let x = smt.new_int_var("x", 0, 4);
        smt.assert(Formula::iff(
            Formula::bool_var(a),
            Formula::ne(LinExpr::var(x), LinExpr::constant(2)),
        ));
        smt.assert(Formula::not(Formula::bool_var(a)));
        let model = smt.check().expect_sat();
        assert_eq!(model.int_value(x), 2);
        assert!(!model.bool_value(a));
    }

    #[test]
    fn stats_are_populated() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 4);
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(1)));
        let _ = smt.check();
        assert!(smt.stats().refinements >= 1);
        assert!(smt.stats().sat_variables >= 1);
    }

    /// `x ≤ k` for the tests' capacity-style pins.
    fn at_most(x: IntVar, k: i64) -> Formula {
        Formula::le(LinExpr::var(x), LinExpr::constant(k))
    }

    #[test]
    fn assumptions_are_retracted_after_the_check() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 5);
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(2)));
        let config = CheckConfig::default();
        assert!(smt.check_assuming(&[at_most(x, 1)], &config).is_unsat());
        assert!(smt.check().is_sat());
    }

    #[test]
    fn assumed_checks_match_a_fresh_solver_per_step() {
        // A small sweep answered by one solver through assumptions must
        // agree with a fresh solver checked once at every step.
        let mut session = SmtSolver::new();
        let x = session.new_int_var("x", 0, 8);
        let y = session.new_int_var("y", 0, 8);
        let base = Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5));
        session.assert(base.clone());
        for cap in 0..=6i64 {
            let pins = [
                at_most(x, cap),
                Formula::ge(LinExpr::var(y), LinExpr::constant(5 - cap)),
            ];
            let assumed_sat = session
                .check_assuming(&pins, &CheckConfig::default())
                .is_sat();

            let mut fresh = SmtSolver::new();
            let fx = fresh.new_int_var("x", 0, 8);
            let fy = fresh.new_int_var("y", 0, 8);
            fresh.assert(Formula::eq(
                LinExpr::var(fx) + LinExpr::var(fy),
                LinExpr::constant(5),
            ));
            fresh.assert(at_most(fx, cap));
            fresh.assert(Formula::ge(LinExpr::var(fy), LinExpr::constant(5 - cap)));
            assert_eq!(assumed_sat, fresh.check().is_sat(), "capacity {cap}");
        }
    }

    #[test]
    fn assertions_are_permanent() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 3);
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(1)));
        assert!(smt.check().is_sat());
        // A permanently contradictory assertion flips the solver to unsat…
        smt.assert(at_most(x, 0));
        assert!(smt.check().is_unsat());
        // …and it stays unsat on re-check (nothing was retracted).
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn an_unsat_assumption_does_not_poison_later_queries() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 4);
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(2)));
        let config = CheckConfig::default();
        assert!(smt.check_assuming(&[at_most(x, 1)], &config).is_unsat());
        let model = smt.check_assuming(&[at_most(x, 3)], &config).expect_sat();
        let v = model.int_value(x);
        assert!((2..=3).contains(&v));
    }

    #[test]
    fn solver_knobs_thread_through_assumed_checks() {
        // The same sweep answered with and without clause reduction must
        // agree on every verdict, and the aggressively reduced session must
        // report reductions with a live count at or below the total.
        let sweep = |solver: crate::sat::SolverConfig| -> (Vec<bool>, SolverStats) {
            let config = CheckConfig {
                solver,
                ..CheckConfig::default()
            };
            let mut smt = SmtSolver::new();
            let x = smt.new_int_var("x", 0, 12);
            let y = smt.new_int_var("y", 0, 12);
            smt.assert(Formula::eq(
                LinExpr::var(x) + LinExpr::var(y),
                LinExpr::constant(9),
            ));
            let mut verdicts = Vec::new();
            for cap in 0..=12i64 {
                let pins = [
                    at_most(x, cap),
                    Formula::ge(LinExpr::var(y), LinExpr::constant(cap)),
                ];
                verdicts.push(smt.check_assuming(&pins, &config).is_sat());
            }
            (verdicts, smt.stats())
        };
        let churn = crate::sat::SolverConfig {
            first_reduce: 2,
            reduce_interval: 1,
            keep_lbd: 0,
            luby_base: 2,
            ..crate::sat::SolverConfig::default()
        };
        let unbounded = crate::sat::SolverConfig {
            clause_reduction: false,
            ..crate::sat::SolverConfig::default()
        };
        let (reduced_verdicts, reduced_stats) = sweep(churn);
        let (unbounded_verdicts, unbounded_stats) = sweep(unbounded);
        assert_eq!(reduced_verdicts, unbounded_verdicts);
        assert_eq!(unbounded_stats.sat_reduced_dbs, 0);
        assert!(reduced_stats.sat_live_learnts <= reduced_stats.sat_total_learnt);
    }

    #[test]
    fn assumptions_select_guarded_assertions_without_re_encoding() {
        let mut smt = SmtSolver::new();
        let sel_a = Formula::bool_var(smt.new_bool_var("sel_a"));
        let sel_b = Formula::bool_var(smt.new_bool_var("sel_b"));
        let x = smt.new_int_var("x", 0, 10);
        smt.assert(Formula::implies(
            sel_a.clone(),
            Formula::ge(LinExpr::var(x), LinExpr::constant(7)),
        ));
        smt.assert(Formula::implies(sel_b.clone(), at_most(x, 3)));
        let config = CheckConfig::default();
        let m = smt
            .check_assuming(std::slice::from_ref(&sel_a), &config)
            .expect_sat();
        assert!(m.int_value(x) >= 7);
        let variables = smt.stats().sat_variables;
        let m = smt
            .check_assuming(std::slice::from_ref(&sel_b), &config)
            .expect_sat();
        assert!(m.int_value(x) <= 3);
        assert!(smt.check_assuming(&[sel_a, sel_b], &config).is_unsat());
        assert_eq!(smt.stats().sat_variables, variables);
        // Nothing was asserted: retracting the assumptions restores
        // satisfiability.
        assert!(smt.check().is_sat());
    }

    #[test]
    fn assumptions_work_on_unencoded_variables() {
        let mut smt = SmtSolver::new();
        let sel = smt.new_bool_var("sel");
        let x = smt.new_int_var("x", 0, 5);
        smt.assert(Formula::implies(
            Formula::bool_var(sel),
            Formula::ge(LinExpr::var(x), LinExpr::constant(4)),
        ));
        let m = smt
            .check_assuming(&[Formula::bool_var(sel)], &CheckConfig::default())
            .expect_sat();
        assert!(m.int_value(x) >= 4);
        assert!(m.bool_value(sel));
        // A variable that occurs in no assertion is allocated on the fly:
        // assuming it merely pins its value.
        let free = smt.new_bool_var("free");
        let m = smt
            .check_assuming(
                &[Formula::not(Formula::bool_var(free))],
                &CheckConfig::default(),
            )
            .expect_sat();
        assert!(!m.bool_value(free));
        // So is a comparison no assertion mentions.
        let y = smt.new_int_var("y", 0, 5);
        let m = smt
            .check_assuming(
                &[Formula::gt(LinExpr::var(y), LinExpr::constant(3))],
                &CheckConfig::default(),
            )
            .expect_sat();
        assert!(m.int_value(y) > 3);
    }

    #[test]
    fn re_assuming_a_comparison_allocates_no_sat_variable() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 9);
        let y = smt.new_int_var("y", 0, 9);
        smt.assert(Formula::eq(
            LinExpr::var(x) + LinExpr::var(y),
            LinExpr::constant(9),
        ));
        let config = CheckConfig::default();
        let sizes = |smt: &SmtSolver| (smt.stats().sat_variables, smt.stats().linear_atoms);
        let pins = |k: i64| {
            [
                at_most(x, k),
                Formula::ge(LinExpr::var(x), LinExpr::constant(k)),
            ]
        };
        for k in 0..=9 {
            assert!(smt.check_assuming(&pins(k), &config).is_sat());
        }
        let after_first_round = sizes(&smt);
        for round in 0..3 {
            for k in (0..=9).rev() {
                let model = smt.check_assuming(&pins(k), &config).expect_sat();
                assert_eq!(model.int_value(x), k);
                assert_eq!(sizes(&smt), after_first_round, "round {round}, k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a literal")]
    fn a_non_literal_assumption_panics() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 9);
        let pin = Formula::eq(LinExpr::var(x), LinExpr::constant(4));
        let _ = smt.check_assuming(&[pin], &CheckConfig::default());
    }

    #[test]
    fn per_check_sat_stats_are_deltas() {
        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 6);
        smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(1)));
        let _ = smt.check();
        let first = smt.stats().sat_propagations;
        let _ = smt.check();
        let cumulative = smt.sat_stats().propagations;
        // The second check's delta cannot exceed the cumulative counter
        // minus the first delta.
        assert!(smt.stats().sat_propagations + first <= cumulative);
    }

    #[test]
    fn bound_implied_atoms_cost_no_refinement() {
        // The boundary check's shape: a blocked port is full, ports 0 and 1
        // wait on each other, every later port waits on its predecessor,
        // and some port is blocked.  `occ ≤ cap` holds on every occupancy's
        // box, so it folds to true; kept as an atom, the SAT model of every
        // port left unblocked would falsify it and cost one refinement.
        let (ports, cap) = (8, 2);
        let mut smt = SmtSolver::new();
        let occ: Vec<IntVar> = (0..ports)
            .map(|i| smt.new_int_var(format!("occ{i}"), 0, cap))
            .collect();
        let blocked: Vec<BoolVar> = (0..ports)
            .map(|i| smt.new_bool_var(format!("blocked{i}")))
            .collect();
        for i in 0..ports {
            let waits_on = if i < 2 { 1 - i } else { i - 1 };
            smt.assert(Formula::implies(
                Formula::bool_var(blocked[i]),
                Formula::eq(LinExpr::var(occ[i]), LinExpr::constant(cap)),
            ));
            smt.assert(Formula::implies(
                Formula::bool_var(blocked[i]),
                Formula::bool_var(blocked[waits_on]),
            ));
        }
        smt.assert(Formula::or(blocked.iter().map(|&b| Formula::bool_var(b))));
        let model = smt.check().expect_sat();
        assert!(model.bool_value(blocked[0]) && model.bool_value(blocked[1]));
        assert_eq!(smt.stats().refinements, 1);
    }
}
