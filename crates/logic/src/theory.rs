//! Bounded linear integer arithmetic: feasibility of conjunctions of
//! `Σ aᵢ·xᵢ ≤ b` constraints over finite integer domains.
//!
//! Because every SMT integer variable produced by the deadlock encoding has
//! static bounds (queue occupancies are bounded by the queue size, state
//! indicators by one), a complete decision procedure only needs
//!
//! 1. **interval propagation** — repeatedly tighten variable domains from
//!    the constraints until a fixpoint or an empty domain is reached, and
//! 2. **branch & bound** — split the domain of an undetermined variable and
//!    recurse.
//!
//! The solver returns an integer model when feasible.  Propagation keeps a
//! trail of *reasons*: every bound it tightens records the constraint that
//! tightened it and the trail entries of the bounds that constraint read.
//! When propagation at the root refutes the constraints, [`solve`] walks
//! those reasons back from the conflict and returns the constraints the
//! refutation actually used with the [`TheoryVerdict::Unsat`] verdict; a
//! refutation that needed branching carries no explanation.
//! [`minimize_core`] shrinks an explanation to an irreducible core with a
//! deletion pass over its few constraints, which the SMT loop
//! ([`crate::smt`]) turns into a blocking clause.
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
    /// The constraints are unsatisfiable.  When interval propagation alone
    /// refuted them, the explanation lists (ascending) the indices of the
    /// constraints the refutation used; propagation refutes that subset
    /// on its own.  `None` when branch & bound was needed.
    Unsat(Option<Vec<usize>>),
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

/// Marks a bound that no trail entry set: the declared bound of its
/// variable, or (below the root of branch & bound) a branching decision.
const NONE: u32 = u32::MAX;

/// The reasons behind the bounds propagation tightened, in order.
///
/// Entry `e` is `(constraint, end)`: the index of the constraint that
/// tightened a bound, and the end of its slice `reads[end(e-1)..end]`,
/// the entries that set the bounds the constraint read.  Entries only
/// read earlier entries.  After a refutation the last entry is the
/// conflict: the constraint whose minimal sum exceeded its bound.
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

    /// Forgets every entry, so all current bounds count as declared.
    fn clear(&mut self) {
        self.entries.clear();
        self.reads.clear();
        self.lo_by.fill(NONE);
        self.hi_by.fill(NONE);
    }

    /// Records that constraint `index` derived something from the bounds
    /// its terms contribute to its minimal sum (every term but `skip`):
    /// the lower bound of a positive term, the upper bound of a negative
    /// one.  Returns the new entry.
    fn record(&mut self, index: usize, c: &Constraint, skip: Option<usize>) -> u32 {
        for (j, &(a, v)) in c.terms.iter().enumerate() {
            let by = if a > 0 { self.lo_by[v] } else { self.hi_by[v] };
            if Some(j) != skip && by != NONE {
                self.reads.push(by);
            }
        }
        self.entries.push((index as u32, self.reads.len() as u32));
        (self.entries.len() - 1) as u32
    }

    /// Walks the reasons back from the last entry (the conflict) and
    /// returns, ascending, the constraints it depends on.
    fn explain(&self) -> Vec<usize> {
        let mut needed = vec![false; self.entries.len()];
        if let Some(last) = needed.last_mut() {
            *last = true;
        }
        let mut used = Vec::new();
        for e in (0..self.entries.len()).rev() {
            if !needed[e] {
                continue;
            }
            let (constraint, end) = self.entries[e];
            let start = if e == 0 { 0 } else { self.entries[e - 1].1 };
            for &read in &self.reads[start as usize..end as usize] {
                needed[read as usize] = true;
            }
            used.push(constraint as usize);
        }
        used.sort_unstable();
        used.dedup();
        used
    }
}

/// Tightens the domains using interval propagation, newest constraint
/// first, recording the reason of every tightened bound on `trail`.
///
/// Returns `Err(())` when some constraint's minimal sum exceeds its bound
/// (a sound proof of infeasibility, whose reasons end the trail),
/// `Ok(())` at fixpoint otherwise.  A tightened bound never crosses the
/// opposite one: `min_sum ≤ bound` makes every term's budget at least its
/// own minimal contribution, so no domain empties before some minimal sum
/// exceeds its bound.
fn propagate<C: Borrow<Constraint>>(
    domains: &mut Domains,
    constraints: &[C],
    trail: &mut Trail,
) -> Result<(), ()> {
    loop {
        let mut changed = false;
        for (index, c) in constraints.iter().enumerate().rev() {
            let c = c.borrow();
            // Minimal possible value of the weighted sum.
            let mut min_sum: i64 = 0;
            for &(a, v) in &c.terms {
                min_sum += if a > 0 {
                    a * domains.lo[v]
                } else {
                    a * domains.hi[v]
                };
            }
            if min_sum > c.bound {
                trail.record(index, c, None);
                return Err(());
            }
            for (i, &(a, v)) in c.terms.iter().enumerate() {
                let own_min = if a > 0 {
                    a * domains.lo[v]
                } else {
                    a * domains.hi[v]
                };
                let others_min = min_sum - own_min;
                let budget = c.bound - others_min;
                if a > 0 {
                    // a·x ≤ budget  =>  x ≤ floor(budget / a)
                    let new_hi = budget.div_euclid(a);
                    if new_hi < domains.hi[v] {
                        domains.hi[v] = new_hi;
                        trail.hi_by[v] = trail.record(index, c, Some(i));
                        changed = true;
                    }
                } else {
                    // a·x ≤ budget with a < 0  =>  x ≥ ceil(budget / a)
                    let new_lo = ceil_div(budget, a);
                    if new_lo > domains.lo[v] {
                        domains.lo[v] = new_lo;
                        trail.lo_by[v] = trail.record(index, c, Some(i));
                        changed = true;
                    }
                }
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
/// This is a cheap, sound (but incomplete) infeasibility check.  It needs
/// no recorded reasons, so it independently confirms an explanation.
pub fn refuted_by_propagation<C: Borrow<Constraint>>(
    bounds: &[(i64, i64)],
    constraints: &[C],
) -> bool {
    let mut trail = Trail::new(bounds.len());
    propagate(&mut Domains::new(bounds), constraints, &mut trail).is_err()
}

/// Shrinks the explanation of a propagation refutation to an irreducible
/// core.
///
/// `explanation` indexes the constraints a refutation used, as returned
/// with [`TheoryVerdict::Unsat`].  Each is dropped in turn, lowest index
/// first, whenever propagation still refutes the rest.  Because
/// propagation is monotone in the constraint set, the result is
/// irreducible: dropping any one more constraint leaves a set that
/// propagation no longer refutes.  Explanations hold a handful of
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
/// `node_budget` bounds the number of search nodes explored; when exhausted
/// the verdict is [`TheoryVerdict::Unknown`].
pub fn solve<C: Borrow<Constraint>>(
    bounds: &[(i64, i64)],
    constraints: &[C],
    node_budget: u64,
) -> TheoryVerdict {
    for c in constraints {
        for &(_, v) in &c.borrow().terms {
            assert!(v < bounds.len(), "constraint mentions undeclared variable");
        }
    }
    let mut trail = Trail::new(bounds.len());
    let mut budget = node_budget;
    search(
        Domains::new(bounds),
        constraints,
        &mut trail,
        &mut budget,
        true,
    )
}

fn search<C: Borrow<Constraint>>(
    mut domains: Domains,
    constraints: &[C],
    trail: &mut Trail,
    budget: &mut u64,
    root: bool,
) -> TheoryVerdict {
    if *budget == 0 {
        return TheoryVerdict::Unknown;
    }
    *budget -= 1;
    trail.clear();
    if propagate(&mut domains, constraints, trail).is_err() {
        // Below the root the refutation also rests on branching
        // decisions, which no constraint explains.
        return TheoryVerdict::Unsat(root.then(|| trail.explain()));
    }
    // Pick the unfixed variable with the smallest domain.
    let mut pick: Option<(usize, i64)> = None;
    for v in 0..domains.lo.len() {
        if !domains.is_fixed(v) {
            let width = domains.hi[v] - domains.lo[v];
            match pick {
                Some((_, w)) if w <= width => {}
                _ => pick = Some((v, width)),
            }
        }
    }
    let Some((v, _)) = pick else {
        // All variables fixed: propagation guarantees every constraint's
        // minimal sum is within bounds, which for fixed domains is the exact
        // sum, so this is a model.
        return TheoryVerdict::Sat(domains.lo);
    };
    let mid = domains.lo[v] + (domains.hi[v] - domains.lo[v]) / 2;

    // Lower half first: flow-style systems usually admit small solutions.
    let mut lower = domains.clone();
    lower.hi[v] = mid;
    match search(lower, constraints, trail, budget, false) {
        TheoryVerdict::Sat(model) => return TheoryVerdict::Sat(model),
        TheoryVerdict::Unknown => return TheoryVerdict::Unknown,
        TheoryVerdict::Unsat(_) => {}
    }
    let mut upper = domains;
    upper.lo[v] = mid + 1;
    search(upper, constraints, trail, budget, false)
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
        assert_eq!(
            solve(&[(0, 5)], &cs, 1_000),
            TheoryVerdict::Unsat(Some(vec![0, 1]))
        );
        assert!(refuted_by_propagation(&[(0, 5)], &cs));
    }

    #[test]
    fn infeasible_sum_over_binary_variables() {
        // x0 + x1 + x2 = 5 with all domains {0, 1}.
        let cs = eq(vec![(1, 0), (1, 1), (1, 2)], 5);
        assert_eq!(
            solve(&[(0, 1); 3], &cs, 1_000),
            TheoryVerdict::Unsat(Some(vec![1]))
        );
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
        assert_eq!(
            solve(&bounds, &cs, 1_000),
            TheoryVerdict::Unsat(Some(vec![0, 2, 3]))
        );
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
        assert_eq!(
            solve(&[(0, 5)], &cs, 1_000),
            TheoryVerdict::Unsat(Some(vec![1, 2]))
        );
    }

    #[test]
    fn refutations_found_by_branching_carry_no_explanation() {
        // x + y = 1 and x = y force 2x = 1 over {0, 1}: no integer point,
        // but the box is an interval fixpoint, so only branching refutes it.
        let mut cs = eq(vec![(1, 0), (1, 1)], 1);
        cs.extend(eq(vec![(1, 0), (-1, 1)], 0));
        assert!(!refuted_by_propagation(&[(0, 1); 2], &cs));
        assert_eq!(solve(&[(0, 1); 2], &cs, 1_000), TheoryVerdict::Unsat(None));
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

    #[test]
    fn propagation_explanations_are_sound_and_cores_irreducible() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut explained = 0;
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
            let all: Vec<&Constraint> = cs.iter().collect();
            match solve(&bounds, &cs, 100_000) {
                TheoryVerdict::Sat(model) => assert!(
                    cs.iter().all(|c| c.holds(&model)),
                    "model {model:?} violates {cs:?}"
                ),
                TheoryVerdict::Unsat(None) => {
                    assert!(!refuted_by_propagation(&bounds, &cs));
                    assert!(!has_integer_point(&bounds, &all), "{cs:?} over {bounds:?}");
                }
                TheoryVerdict::Unsat(Some(explanation)) => {
                    explained += 1;
                    assert!(refuted_by_propagation(&bounds, &cs));
                    assert!(
                        explanation.windows(2).all(|w| w[0] < w[1])
                            && explanation.iter().all(|&i| i < cs.len()),
                        "explanation {explanation:?} is not a subset of 0..{}",
                        cs.len()
                    );
                    let subset: Vec<&Constraint> = explanation.iter().map(|&i| &cs[i]).collect();
                    assert!(
                        refuted_by_propagation(&bounds, &subset),
                        "explanation {explanation:?} of {cs:?} over {bounds:?} is not refuted"
                    );
                    assert!(!has_integer_point(&bounds, &subset));
                    let core = minimize_core(&bounds, &cs, explanation.clone());
                    assert!(core.iter().all(|i| explanation.contains(i)));
                    let core_cs: Vec<&Constraint> = core.iter().map(|&i| &cs[i]).collect();
                    assert!(refuted_by_propagation(&bounds, &core_cs));
                    for left_out in 0..core_cs.len() {
                        let mut fewer = core_cs.clone();
                        fewer.remove(left_out);
                        assert!(
                            !refuted_by_propagation(&bounds, &fewer),
                            "core {core:?} of {cs:?} is reducible at position {left_out}"
                        );
                    }
                }
                TheoryVerdict::Unknown => panic!("budget exhausted on {cs:?}"),
            }
        }
        assert!(explained > 500, "only {explained} explained refutations");
    }

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
