//! Bounded linear integer arithmetic: feasibility of conjunctions of
//! `Σ aᵢ·xᵢ ≤ b` constraints over finite integer domains.
//!
//! Because every SMT integer variable produced by the deadlock encoding has
//! static bounds (queue occupancies are bounded by the queue size, state
//! indicators by one), a complete decision procedure only needs
//!
//! 1. **interval propagation** — repeatedly tighten variable domains from
//!    the constraints until a fixpoint or an empty domain is reached, and
//! 2. **branch & bound** — split the domain of an undetermined variable
//!    that some constraint mentions, and recurse.
//!
//! The solver returns an integer model when feasible.  Propagation keeps a
//! trail of *reasons*: every bound it tightens records the constraint that
//! tightened it and the trail entries of the bounds that constraint read.
//! When the constraints are infeasible, [`solve`] walks those reasons back
//! from each conflict and returns the constraints the refutation actually
//! used with the [`TheoryVerdict::Unsat`] verdict.  Branch & bound keeps
//! the trail along its path, truncates it on backtrack and records each
//! branching bound as an entry with no reason, so a refutation that needed
//! branching is explained too: by the union of what refuted its leaves.
//! [`minimize_core`] shrinks a propagation explanation to an irreducible
//! core with a deletion pass over its few constraints, which the SMT loop
//! ([`crate::smt`]) turns into a blocking clause.  One propagation step,
//! `narrow`, serves both [`solve`] and the SMT loop's bounds kept along
//! the SAT trail, which record their reasons in the same scheme and
//! explain their own conflicts; [`refuted_by_propagation`] narrows in
//! [`solve`]'s order without recording anything, and re-checks every
//! explanation.
//!
//! Propagation visits constraints newest first (highest index first), so
//! the reason recorded for a bound is the most recently added constraint
//! that implies it.  In a persistent session the newest atoms belong to
//! the current query: explanations built from them stay specific to it
//! instead of pinning stale capacity atoms of earlier queries into
//! permanent lemmas.

use std::borrow::Borrow;

/// A single theory constraint `Σ terms ≤ bound` over integer variables
/// identified by their index in the domain vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// `(coefficient, variable index)` pairs.
    pub terms: Vec<(i64, usize)>,
    /// Inclusive upper bound on the weighted sum.
    pub bound: i64,
}

impl Constraint {
    /// Creates a constraint `Σ terms ≤ bound`.
    pub fn new(terms: Vec<(i64, usize)>, bound: i64) -> Self {
        Constraint { terms, bound }
    }

    /// Evaluates whether the constraint holds under the given assignment.
    pub fn holds(&self, assignment: &[i64]) -> bool {
        let sum: i64 = self.terms.iter().map(|(c, v)| c * assignment[*v]).sum();
        sum <= self.bound
    }
}

/// Result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The constraints are satisfiable; a witness assignment is returned.
    Sat(Vec<i64>),
    /// The constraints are unsatisfiable.
    Unsat {
        /// The indices (ascending) of the constraints the refutation used:
        /// they have no integer point on their own.
        explanation: Vec<usize>,
        /// Whether branch & bound was needed.  When it was not, interval
        /// propagation refutes the explanation on its own; when it was,
        /// the explanation is the union of what refuted its leaves.
        branched: bool,
    },
    /// The search budget was exhausted before a verdict was reached.
    Unknown,
}

#[derive(Clone, Debug)]
struct Domains {
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl Domains {
    fn new(bounds: &[(i64, i64)]) -> Self {
        Domains {
            lo: bounds.iter().map(|b| b.0).collect(),
            hi: bounds.iter().map(|b| b.1).collect(),
        }
    }

    fn is_fixed(&self, v: usize) -> bool {
        self.lo[v] == self.hi[v]
    }
}

/// Marks a bound that no trail entry set (the declared bound of its
/// variable), and the constraint of a branching decision's entry.
pub(crate) const NONE: u32 = u32::MAX;

/// Appends to `reads` the entries that set the bounds `c`'s terms
/// contribute to its minimal sum, every term but `skip`: the lower bound
/// of a positive term, the upper bound of a negative one.  `lo_by` and
/// `hi_by` name each variable's setters; declared bounds ([`NONE`]) need
/// no reason.
pub(crate) fn push_reads(
    c: &Constraint,
    skip: Option<usize>,
    lo_by: &[u32],
    hi_by: &[u32],
    reads: &mut Vec<u32>,
) {
    for (j, &(a, v)) in c.terms.iter().enumerate() {
        let by = if a > 0 { lo_by[v] } else { hi_by[v] };
        if Some(j) != skip && by != NONE {
            reads.push(by);
        }
    }
}

/// The reasons behind the bounds propagation tightened, in order.
///
/// Entry `e` is `(constraint, end)`: the index of the constraint that
/// tightened a bound, and the end of its slice `reads[end(e-1)..end]`,
/// the entries that set the bounds the constraint read.  Entries only
/// read earlier entries.  A branching decision of branch & bound is an
/// entry with constraint [`NONE`] and nothing read.  After a refutation
/// the last entry is the conflict: the constraint whose minimal sum
/// exceeded its bound.
#[derive(Debug)]
struct Trail {
    entries: Vec<(u32, u32)>,
    reads: Vec<u32>,
    /// Per variable, the entry that set its current lower / upper bound.
    lo_by: Vec<u32>,
    hi_by: Vec<u32>,
}

impl Trail {
    fn new(vars: usize) -> Self {
        Trail {
            entries: Vec::new(),
            reads: Vec::new(),
            lo_by: vec![NONE; vars],
            hi_by: vec![NONE; vars],
        }
    }

    /// Records that constraint `index` derived something from the bounds
    /// its terms contribute to its minimal sum (every term but `skip`):
    /// the lower bound of a positive term, the upper bound of a negative
    /// one.  Returns the new entry.
    fn record(&mut self, index: usize, c: &Constraint, skip: Option<usize>) -> u32 {
        push_reads(c, skip, &self.lo_by, &self.hi_by, &mut self.reads);
        self.entries.push((index as u32, self.reads.len() as u32));
        (self.entries.len() - 1) as u32
    }

    /// Records a branching decision that set variable `v`'s upper bound
    /// (`upper`) or lower bound: an entry no constraint explains.
    fn branch(&mut self, v: usize, upper: bool) {
        self.entries.push((NONE, self.reads.len() as u32));
        let entry = (self.entries.len() - 1) as u32;
        if upper {
            self.hi_by[v] = entry;
        } else {
            self.lo_by[v] = entry;
        }
    }

    /// What [`Trail::backtrack`] needs to forget everything recorded
    /// after this call.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            entries: self.entries.len(),
            reads: self.reads.len(),
            lo_by: self.lo_by.clone(),
            hi_by: self.hi_by.clone(),
        }
    }

    /// Forgets every entry recorded since `checkpoint` was taken.
    fn backtrack(&mut self, checkpoint: &Checkpoint) {
        self.entries.truncate(checkpoint.entries);
        self.reads.truncate(checkpoint.reads);
        self.lo_by.copy_from_slice(&checkpoint.lo_by);
        self.hi_by.copy_from_slice(&checkpoint.hi_by);
    }

    /// Walks the reasons back from the last entry (the conflict) and adds
    /// the constraints it depends on to `used`; branching decisions add
    /// nothing.
    fn explain_into(&self, used: &mut Vec<usize>) {
        let mut needed = vec![false; self.entries.len()];
        if let Some(last) = needed.last_mut() {
            *last = true;
        }
        for e in (0..self.entries.len()).rev() {
            if !needed[e] {
                continue;
            }
            let (constraint, end) = self.entries[e];
            let start = if e == 0 { 0 } else { self.entries[e - 1].1 };
            for &read in &self.reads[start as usize..end as usize] {
                needed[read as usize] = true;
            }
            if constraint != NONE {
                used.push(constraint as usize);
            }
        }
    }
}

/// A [`Trail`]'s length and bound setters at one node of branch & bound.
#[derive(Debug)]
struct Checkpoint {
    entries: usize,
    reads: usize,
    lo_by: Vec<u32>,
    hi_by: Vec<u32>,
}

/// One interval-propagation step of constraint `c` over the box
/// `lo..=hi`.
///
/// Returns `Err(())` when the constraint's minimal sum over the box
/// exceeds its bound (a sound proof that the box holds no solution).
/// Otherwise tightens each term's bound to what the minimal sum of the
/// other terms leaves it, and calls `tightened(term, old)` right after
/// each bound it moves with the term's index and the bound it replaced.
/// A tightened bound never crosses the opposite one: `min_sum ≤ bound`
/// makes every term's budget at least its own minimal contribution.
pub(crate) fn narrow(
    lo: &mut [i64],
    hi: &mut [i64],
    c: &Constraint,
    mut tightened: impl FnMut(usize, i64),
) -> Result<(), ()> {
    let sum = min_sum(lo, hi, c);
    if sum > c.bound {
        return Err(());
    }
    for (i, &(a, v)) in c.terms.iter().enumerate() {
        let own_min = if a > 0 { a * lo[v] } else { a * hi[v] };
        let others_min = sum - own_min;
        let budget = c.bound - others_min;
        if a > 0 {
            // a·x ≤ budget  =>  x ≤ floor(budget / a)
            let new_hi = budget.div_euclid(a);
            if new_hi < hi[v] {
                let old = std::mem::replace(&mut hi[v], new_hi);
                tightened(i, old);
            }
        } else {
            // a·x ≤ budget with a < 0  =>  x ≥ ceil(budget / a)
            let new_lo = ceil_div(budget, a);
            if new_lo > lo[v] {
                let old = std::mem::replace(&mut lo[v], new_lo);
                tightened(i, old);
            }
        }
    }
    Ok(())
}

/// The minimal value of `c`'s weighted sum over the box `lo..=hi`: the
/// lower bound of a positive term, the upper bound of a negative one.
/// Above `c.bound`, no point of the box satisfies `c`.
pub(crate) fn min_sum(lo: &[i64], hi: &[i64], c: &Constraint) -> i64 {
    c.terms
        .iter()
        .map(|&(a, v)| if a > 0 { a * lo[v] } else { a * hi[v] })
        .sum()
}

/// Tightens the domains using interval propagation, newest constraint
/// first, recording the reason of every tightened bound on `trail` when
/// there is one.
///
/// Returns `Err(())` when some constraint's minimal sum exceeds its bound
/// (a sound proof of infeasibility, whose reasons end the trail),
/// `Ok(())` at fixpoint otherwise.  No domain empties before some minimal
/// sum exceeds its bound (see [`narrow`]).  The trail only records: the
/// fixpoint and the verdict are the same without it.
fn propagate<C: Borrow<Constraint>>(
    domains: &mut Domains,
    constraints: &[C],
    mut trail: Option<&mut Trail>,
) -> Result<(), ()> {
    loop {
        let mut changed = false;
        for (index, c) in constraints.iter().enumerate().rev() {
            let c = c.borrow();
            let narrowed = narrow(&mut domains.lo, &mut domains.hi, c, |i, _| {
                if let Some(trail) = trail.as_deref_mut() {
                    let (a, v) = c.terms[i];
                    let entry = trail.record(index, c, Some(i));
                    if a > 0 {
                        trail.hi_by[v] = entry;
                    } else {
                        trail.lo_by[v] = entry;
                    }
                }
                changed = true;
            });
            if narrowed.is_err() {
                if let Some(trail) = trail {
                    trail.record(index, c, None);
                }
                return Err(());
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    // Rounds a / b towards positive infinity; b may be negative.
    // `div_euclid` leaves a non-negative remainder, so it floors for b > 0
    // and already computes the ceiling for b < 0.
    let q = a.div_euclid(b);
    let r = a.rem_euclid(b);
    if r == 0 || b < 0 {
        q
    } else {
        q + 1
    }
}

/// Returns `true` when interval propagation alone refutes the constraints.
///
/// This is a cheap, sound (but incomplete) infeasibility check.  It
/// neither reads nor records reasons, so it independently confirms an
/// explanation.
pub fn refuted_by_propagation<C: Borrow<Constraint>>(
    bounds: &[(i64, i64)],
    constraints: &[C],
) -> bool {
    propagate(&mut Domains::new(bounds), constraints, None).is_err()
}

/// Shrinks the explanation of a propagation refutation to an irreducible
/// core.
///
/// `explanation` indexes the constraints a refutation used, as returned
/// with [`TheoryVerdict::Unsat`] when it did not branch.  Each is dropped
/// in turn, lowest index first, whenever propagation still refutes the
/// rest.  Because propagation is monotone in the constraint set, the
/// result is irreducible: dropping any one more constraint leaves a set
/// that propagation no longer refutes.  Explanations hold a handful of
/// constraints, so the quadratic number of propagations is cheap.
pub fn minimize_core<C: Borrow<Constraint>>(
    bounds: &[(i64, i64)],
    constraints: &[C],
    explanation: Vec<usize>,
) -> Vec<usize> {
    let mut core = explanation;
    let mut trial: Vec<&Constraint> = Vec::with_capacity(core.len());
    let mut idx = 0;
    while idx < core.len() {
        trial.clear();
        for (j, &c) in core.iter().enumerate() {
            if j != idx {
                trial.push(constraints[c].borrow());
            }
        }
        if refuted_by_propagation(bounds, &trial) {
            core.remove(idx);
        } else {
            idx += 1;
        }
    }
    core
}

/// Decides feasibility of `constraints` over variables with the given
/// inclusive `bounds`.
///
/// Branch & bound splits only variables some constraint mentions; every
/// other variable keeps its lower bound in a model.  `node_budget` bounds
/// the number of search nodes explored; when exhausted the verdict is
/// [`TheoryVerdict::Unknown`].
pub fn solve<C: Borrow<Constraint>>(
    bounds: &[(i64, i64)],
    constraints: &[C],
    node_budget: u64,
) -> TheoryVerdict {
    let mut mentioned: Vec<usize> = Vec::new();
    for c in constraints {
        for &(_, v) in &c.borrow().terms {
            assert!(v < bounds.len(), "constraint mentions undeclared variable");
            mentioned.push(v);
        }
    }
    mentioned.sort_unstable();
    mentioned.dedup();
    let mut search = Search {
        constraints,
        mentioned,
        trail: Trail::new(bounds.len()),
        budget: node_budget,
        explanation: Vec::new(),
    };
    match search.node(Domains::new(bounds)) {
        Node::Sat(model) => TheoryVerdict::Sat(model),
        Node::Unknown => TheoryVerdict::Unknown,
        Node::Refuted => {
            let mut explanation = search.explanation;
            explanation.sort_unstable();
            explanation.dedup();
            TheoryVerdict::Unsat {
                explanation,
                // The root is one node; a refutation below it branched.
                branched: node_budget - search.budget > 1,
            }
        }
    }
}

/// The outcome of one node of branch & bound.
enum Node {
    Sat(Vec<i64>),
    Refuted,
    Unknown,
}

/// Branch & bound over one constraint set, with the reason trail kept
/// along the current path.
struct Search<'a, C> {
    constraints: &'a [C],
    /// The variables some constraint mentions, ascending.
    mentioned: Vec<usize>,
    trail: Trail,
    budget: u64,
    /// The constraints that refuted the leaves so far (unsorted).
    explanation: Vec<usize>,
}

impl<C: Borrow<Constraint>> Search<'_, C> {
    fn node(&mut self, mut domains: Domains) -> Node {
        if self.budget == 0 {
            return Node::Unknown;
        }
        self.budget -= 1;
        if propagate(&mut domains, self.constraints, Some(&mut self.trail)).is_err() {
            self.trail.explain_into(&mut self.explanation);
            return Node::Refuted;
        }
        // Pick the unfixed mentioned variable with the smallest domain.
        let mut pick: Option<(usize, i64)> = None;
        for &v in &self.mentioned {
            if !domains.is_fixed(v) {
                let width = domains.hi[v] - domains.lo[v];
                match pick {
                    Some((_, w)) if w <= width => {}
                    _ => pick = Some((v, width)),
                }
            }
        }
        let Some((v, _)) = pick else {
            // Every mentioned variable fixed: propagation guarantees every
            // constraint's minimal sum is within bounds, which for fixed
            // domains is the exact sum, so this is a model.
            return Node::Sat(domains.lo);
        };
        let mid = domains.lo[v] + (domains.hi[v] - domains.lo[v]) / 2;
        let path = self.trail.checkpoint();

        // Lower half first: flow-style systems usually admit small solutions.
        let mut lower = domains.clone();
        lower.hi[v] = mid;
        self.trail.branch(v, true);
        match self.node(lower) {
            Node::Refuted => {}
            decided => return decided,
        }
        self.trail.backtrack(&path);
        let mut upper = domains;
        upper.lo[v] = mid + 1;
        self.trail.branch(v, false);
        self.node(upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(terms: Vec<(i64, usize)>, bound: i64) -> Constraint {
        Constraint::new(terms, bound)
    }

    fn eq(terms: Vec<(i64, usize)>, value: i64) -> Vec<Constraint> {
        let neg: Vec<(i64, usize)> = terms.iter().map(|(c, v)| (-c, *v)).collect();
        vec![le(terms, value), le(neg, -value)]
    }

    #[test]
    fn empty_constraint_set_is_feasible() {
        let verdict = solve::<Constraint>(&[(0, 3), (0, 3)], &[], 100);
        match verdict {
            TheoryVerdict::Sat(model) => assert_eq!(model.len(), 2),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_equality_is_solved() {
        // x + y = 4, x >= 3, domains [0, 5].
        let mut cs = eq(vec![(1, 0), (1, 1)], 4);
        cs.push(le(vec![(-1, 0)], -3));
        match solve(&[(0, 5), (0, 5)], &cs, 1_000) {
            TheoryVerdict::Sat(m) => {
                assert_eq!(m[0] + m[1], 4);
                assert!(m[0] >= 3);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_bounds_are_unsat() {
        // x <= 1 and x >= 2 on domain [0, 5].
        let cs = vec![le(vec![(1, 0)], 1), le(vec![(-1, 0)], -2)];
        assert_eq!(solve(&[(0, 5)], &cs, 1_000), propagated(vec![0, 1]));
        assert!(refuted_by_propagation(&[(0, 5)], &cs));
    }

    #[test]
    fn infeasible_sum_over_binary_variables() {
        // x0 + x1 + x2 = 5 with all domains {0, 1}.
        let cs = eq(vec![(1, 0), (1, 1), (1, 2)], 5);
        assert_eq!(solve(&[(0, 1); 3], &cs, 1_000), propagated(vec![1]));
    }

    #[test]
    fn explanations_leave_out_constraints_the_refutation_never_read() {
        // x0 ≤ 1 (0), an unrelated x2 ≤ 2 (1), x1 − x0 ≤ 0 (2) and
        // x1 ≥ 2 (3): the refutation chains 0 → 2 → 3 and skips 1.
        let cs = vec![
            le(vec![(1, 0)], 1),
            le(vec![(1, 2)], 2),
            le(vec![(-1, 0), (1, 1)], 0),
            le(vec![(-1, 1)], -2),
        ];
        let bounds = [(0, 5); 3];
        assert_eq!(solve(&bounds, &cs, 1_000), propagated(vec![0, 2, 3]));
        assert_eq!(minimize_core(&bounds, &cs, vec![0, 2, 3]), vec![0, 2, 3]);
    }

    #[test]
    fn newest_constraints_explain_first() {
        // Constraints 0 and 2 both bound x ≤ 1; 1 demands x ≥ 3.  Visiting
        // the newest first, 2 sets the bound and 0 is never read.
        let cs = vec![
            le(vec![(1, 0)], 1),
            le(vec![(-1, 0)], -3),
            le(vec![(1, 0)], 1),
        ];
        assert_eq!(solve(&[(0, 5)], &cs, 1_000), propagated(vec![1, 2]));
    }

    /// A refutation by propagation alone with this explanation.
    fn propagated(explanation: Vec<usize>) -> TheoryVerdict {
        TheoryVerdict::Unsat {
            explanation,
            branched: false,
        }
    }

    /// x + y = 1 and x = y over variables `x` and `y`: they force 2x = 1,
    /// which no integer satisfies, but a box of {0, 1} domains is an
    /// interval fixpoint, so only branching refutes them.
    fn parity(x: usize, y: usize) -> Vec<Constraint> {
        let mut cs = eq(vec![(1, x), (1, y)], 1);
        cs.extend(eq(vec![(1, x), (-1, y)], 0));
        cs
    }

    #[test]
    fn refutations_found_by_branching_are_explained() {
        let cs = parity(0, 1);
        assert!(!refuted_by_propagation(&[(0, 1); 2], &cs));
        assert_eq!(
            solve(&[(0, 1); 2], &cs, 1_000),
            TheoryVerdict::Unsat {
                explanation: vec![0, 1, 2, 3],
                branched: true,
            }
        );
    }

    #[test]
    fn branch_explanations_leave_out_constraints_no_leaf_used() {
        // The parity system over x0, x1 next to x2 ≤ 1, which tightens
        // x2 at the root, but no leaf's refutation reads x2.
        let mut cs = parity(0, 1);
        cs.insert(2, le(vec![(1, 2)], 1));
        assert_eq!(
            solve(&[(0, 1), (0, 1), (0, 3)], &cs, 1_000),
            TheoryVerdict::Unsat {
                explanation: vec![0, 1, 3, 4],
                branched: true,
            }
        );
    }

    #[test]
    fn branching_skips_variables_no_constraint_mentions() {
        // The parity system behind 30 binary variables no constraint
        // mentions: splitting those first would take 2^30 nodes.
        let unmentioned = 30;
        let bounds = [(0, 1); 32];
        let cs = parity(unmentioned, unmentioned + 1);
        assert_eq!(
            solve(&bounds, &cs, 1_000),
            TheoryVerdict::Unsat {
                explanation: vec![0, 1, 2, 3],
                branched: true,
            }
        );
        // A model leaves every unmentioned variable at its lower bound.
        let mut cs = eq(vec![(1, unmentioned), (1, unmentioned + 1)], 1);
        cs.push(le(vec![(-1, unmentioned)], -1));
        let mut bounds: Vec<(i64, i64)> = (0..unmentioned as i64).map(|v| (v % 3, 2)).collect();
        bounds.extend([(0, 1), (0, 1)]);
        match solve(&bounds, &cs, 1_000) {
            TheoryVerdict::Sat(model) => {
                assert!(
                    (0..unmentioned).all(|v| model[v] == bounds[v].0),
                    "{model:?}"
                );
                assert_eq!(model[unmentioned..], [1, 0]);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn negative_coefficients_propagate_lower_bounds() {
        // y - x <= -2  =>  x >= y + 2; with y >= 3 we need x >= 5.
        let cs = vec![le(vec![(1, 1), (-1, 0)], -2), le(vec![(-1, 1)], -3)];
        match solve(&[(0, 10), (0, 10)], &cs, 1_000) {
            TheoryVerdict::Sat(m) => {
                assert!(m[0] >= m[1] + 2);
                assert!(m[1] >= 3);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let cs = eq(vec![(1, 0), (1, 1), (1, 2)], 3);
        assert_eq!(solve(&[(0, 3); 3], &cs, 0), TheoryVerdict::Unknown);
    }

    #[test]
    fn model_satisfies_every_constraint() {
        // A slightly larger random-ish system with a known solution.
        let cs = vec![
            le(vec![(2, 0), (3, 1), (-1, 2)], 10),
            le(vec![(-1, 0), (1, 3)], 2),
            le(vec![(1, 2), (1, 3)], 7),
            le(vec![(-2, 1), (-1, 3)], -3),
        ];
        match solve(&[(0, 6); 4], &cs, 10_000) {
            TheoryVerdict::Sat(m) => {
                for c in &cs {
                    assert!(c.holds(&m), "violated constraint {c:?} by model {m:?}");
                }
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    /// A deterministic xorshift64 stream.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Whether some integer point of the box `bounds` satisfies every
    /// constraint, by exhaustive enumeration.
    fn has_integer_point(bounds: &[(i64, i64)], cs: &[&Constraint]) -> bool {
        let mut point: Vec<i64> = bounds.iter().map(|b| b.0).collect();
        loop {
            if cs.iter().all(|c| c.holds(&point)) {
                return true;
            }
            let mut v = 0;
            while v < point.len() && point[v] == bounds[v].1 {
                point[v] = bounds[v].0;
                v += 1;
            }
            if v == point.len() {
                return false;
            }
            point[v] += 1;
        }
    }

    /// How often [`check_verdict`] saw each kind of refutation.
    #[derive(Default)]
    struct Refutations {
        propagated: usize,
        branched: usize,
    }

    /// Checks `solve`'s verdict on `cs` over `bounds`: the reasonless
    /// [`refuted_by_propagation`] refutes exactly what `solve` refutes
    /// without branching; a model satisfies every constraint; a
    /// propagation explanation is a subset propagation refutes, whose core
    /// is irreducible; a branch & bound explanation is a subset with no
    /// integer point, which `solve` refutes on its own.
    fn check_verdict(bounds: &[(i64, i64)], cs: &[Constraint], seen: &mut Refutations) {
        let verdict = solve(bounds, cs, 100_000);
        assert_eq!(
            refuted_by_propagation(bounds, cs),
            matches!(
                verdict,
                TheoryVerdict::Unsat {
                    branched: false,
                    ..
                }
            ),
            "propagation and solve disagree on {cs:?} over {bounds:?}: {verdict:?}"
        );
        let (explanation, branched) = match verdict {
            TheoryVerdict::Sat(model) => {
                assert!(
                    cs.iter().all(|c| c.holds(&model)),
                    "model {model:?} violates {cs:?}"
                );
                return;
            }
            TheoryVerdict::Unknown => panic!("budget exhausted on {cs:?}"),
            TheoryVerdict::Unsat {
                explanation,
                branched,
            } => (explanation, branched),
        };
        assert!(
            explanation.windows(2).all(|w| w[0] < w[1])
                && explanation.iter().all(|&i| i < cs.len()),
            "explanation {explanation:?} is not a subset of 0..{}",
            cs.len()
        );
        let subset: Vec<&Constraint> = explanation.iter().map(|&i| &cs[i]).collect();
        assert!(
            !has_integer_point(bounds, &subset),
            "explanation {explanation:?} of {cs:?} over {bounds:?} has an integer point"
        );
        if branched {
            seen.branched += 1;
            assert!(
                matches!(solve(bounds, &subset, 100_000), TheoryVerdict::Unsat { .. }),
                "explanation {explanation:?} of {cs:?} over {bounds:?} is not refuted"
            );
            return;
        }
        seen.propagated += 1;
        assert!(
            refuted_by_propagation(bounds, &subset),
            "explanation {explanation:?} of {cs:?} over {bounds:?} is not refuted"
        );
        let core = minimize_core(bounds, cs, explanation.clone());
        assert!(core.iter().all(|i| explanation.contains(i)));
        let core_cs: Vec<&Constraint> = core.iter().map(|&i| &cs[i]).collect();
        assert!(refuted_by_propagation(bounds, &core_cs));
        for left_out in 0..core_cs.len() {
            let mut fewer = core_cs.clone();
            fewer.remove(left_out);
            assert!(
                !refuted_by_propagation(bounds, &fewer),
                "core {core:?} of {cs:?} is reducible at position {left_out}"
            );
        }
    }

    #[test]
    fn propagation_explanations_are_sound_and_cores_irreducible() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut seen = Refutations::default();
        for _ in 0..4_000 {
            let vars = rng.range(1, 5) as usize;
            let bounds: Vec<(i64, i64)> = (0..vars)
                .map(|_| {
                    let lo = rng.range(0, 3);
                    (lo, rng.range(lo, 3))
                })
                .collect();
            let cs: Vec<Constraint> = (0..rng.range(1, 6))
                .map(|_| {
                    // Terms may repeat a variable: propagation must stay
                    // sound (and explained) on unnormalised input too.
                    let terms = (0..rng.range(1, 3))
                        .map(|_| {
                            let a = [-3, -2, -1, 1, 2, 3][rng.range(0, 5) as usize];
                            (a, rng.range(0, vars as i64 - 1) as usize)
                        })
                        .collect();
                    le(terms, rng.range(-6, 6))
                })
                .collect();
            check_verdict(&bounds, &cs, &mut seen);
        }
        assert!(
            seen.propagated > 500,
            "only {} explained refutations",
            seen.propagated
        );
        // Interval fixpoints without an integer point are rare among
        // random inequalities; equalities over small domains reach them
        // far more often, and with them the branch & bound explanations.
        for _ in 0..EQUALITY_SYSTEMS {
            let vars = rng.range(2, 6) as usize;
            let bounds = vec![(0, 3); vars];
            let mut cs: Vec<Constraint> = Vec::new();
            for _ in 0..rng.range(1, 4) {
                let terms: Vec<(i64, usize)> = (0..rng.range(2, 3))
                    .map(|_| {
                        let a = [-2, -1, 1, 2][rng.range(0, 3) as usize];
                        (a, rng.range(0, vars as i64 - 1) as usize)
                    })
                    .collect();
                let value = rng.range(-3, 3);
                if rng.range(0, 3) == 0 {
                    cs.push(le(terms, value));
                } else {
                    cs.extend(eq(terms, value));
                }
            }
            check_verdict(&bounds, &cs, &mut seen);
        }
        assert!(
            seen.branched > 300,
            "only {} branch & bound refutations",
            seen.branched
        );
    }

    /// Equality-biased systems in the property test above.
    const EQUALITY_SYSTEMS: usize = 20_000;

    #[test]
    fn ceil_div_matches_mathematical_ceiling() {
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(6, 2), 3);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(7, -2), -3);
        assert_eq!(ceil_div(-7, -2), 4);
        assert_eq!(ceil_div(6, -2), -3);
    }
}
