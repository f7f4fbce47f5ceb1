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
//! [`solve`] is that procedure from scratch: it returns an integer model
//! when the constraints are feasible and keeps no reasons, so it
//! independently re-checks what the SMT loop ([`crate::smt`]) derives.
//! [`refuted_by_propagation`] is its propagation alone, and
//! [`minimize_core`] shrinks a refuted constraint set to an irreducible
//! core with a deletion pass over its few constraints.  The SMT loop keeps
//! its own interval bounds along the SAT trail, with the reason of every
//! bound they move, and explains its refutations from those reasons.  It
//! shares the one propagation step, [`narrow`], and the one branching
//! rule, [`split`], with [`solve`], so both search the same tree.

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
}

/// Result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The constraints are satisfiable; a witness assignment is returned.
    Sat(Vec<i64>),
    /// The constraints have no integer point.
    Unsat,
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

/// The branching rule of branch & bound over the box `lo..=hi`: among the
/// `mentioned` variables (ascending) not yet fixed, the one with the
/// smallest domain, the lowest on ties, and the last value of its lower
/// half, which is searched first (flow-style systems usually admit small
/// solutions).  `None` when every mentioned variable is fixed.
pub(crate) fn split(lo: &[i64], hi: &[i64], mentioned: &[usize]) -> Option<(usize, i64)> {
    let mut pick: Option<(usize, i64)> = None;
    for &v in mentioned {
        let width = hi[v] - lo[v];
        if width > 0 && pick.is_none_or(|(_, w)| width < w) {
            pick = Some((v, width));
        }
    }
    pick.map(|(v, width)| (v, lo[v] + width / 2))
}

/// Tightens the domains using interval propagation until a fixpoint.
///
/// Returns `Err(())` when some constraint's minimal sum exceeds its bound
/// (a sound proof of infeasibility), `Ok(())` at fixpoint otherwise.  No
/// domain empties before some minimal sum exceeds its bound (see
/// [`narrow`]).  The fixpoint does not depend on the order the constraints
/// are visited in.
fn propagate<C: Borrow<Constraint>>(domains: &mut Domains, constraints: &[C]) -> Result<(), ()> {
    loop {
        let mut changed = false;
        for c in constraints {
            narrow(&mut domains.lo, &mut domains.hi, c.borrow(), |_, _| {
                changed = true
            })?;
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
    propagate(&mut Domains::new(bounds), constraints).is_err()
}

/// Shrinks an explanation that propagation refutes to an irreducible core.
///
/// `explanation` indexes the constraints a refutation used, ascending, as
/// the walk back over the SMT loop's recorded reasons names them.  Each
/// is dropped in turn, lowest index first, whenever propagation still
/// refutes the rest.  Because propagation is monotone in the constraint
/// set, the result is irreducible: dropping any one more constraint
/// leaves a set that propagation no longer refutes.  Explanations hold a
/// handful of constraints, so the quadratic number of propagations is
/// cheap.
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
/// Branch & bound splits only variables some constraint mentions
/// ([`split`]); every other variable keeps its lower bound in a model.
/// `node_budget` bounds the number of search nodes explored, the root
/// counted; when exhausted the verdict is [`TheoryVerdict::Unknown`].
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
        budget: node_budget,
    };
    search.node(Domains::new(bounds))
}

/// Branch & bound over one constraint set.
struct Search<'a, C> {
    constraints: &'a [C],
    /// The variables some constraint mentions, ascending.
    mentioned: Vec<usize>,
    budget: u64,
}

impl<C: Borrow<Constraint>> Search<'_, C> {
    fn node(&mut self, mut domains: Domains) -> TheoryVerdict {
        if self.budget == 0 {
            return TheoryVerdict::Unknown;
        }
        self.budget -= 1;
        if propagate(&mut domains, self.constraints).is_err() {
            return TheoryVerdict::Unsat;
        }
        let Some((v, mid)) = split(&domains.lo, &domains.hi, &self.mentioned) else {
            // Every mentioned variable fixed: propagation guarantees every
            // constraint's minimal sum is within bounds, which for fixed
            // domains is the exact sum, so this is a model.
            return TheoryVerdict::Sat(domains.lo);
        };
        let mut lower = domains.clone();
        lower.hi[v] = mid;
        match self.node(lower) {
            TheoryVerdict::Unsat => {}
            decided => return decided,
        }
        let mut upper = domains;
        upper.lo[v] = mid + 1;
        self.node(upper)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn le(terms: Vec<(i64, usize)>, bound: i64) -> Constraint {
        Constraint::new(terms, bound)
    }

    fn eq(terms: Vec<(i64, usize)>, value: i64) -> Vec<Constraint> {
        let neg: Vec<(i64, usize)> = terms.iter().map(|(c, v)| (-c, *v)).collect();
        vec![le(terms, value), le(neg, -value)]
    }

    /// Whether `c` holds at `point`.
    pub(crate) fn holds(c: &Constraint, point: &[i64]) -> bool {
        let sum: i64 = c.terms.iter().map(|(a, v)| a * point[*v]).sum();
        sum <= c.bound
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
        assert_eq!(solve(&[(0, 5)], &cs, 1_000), TheoryVerdict::Unsat);
        assert!(refuted_by_propagation(&[(0, 5)], &cs));
    }

    #[test]
    fn infeasible_sum_over_binary_variables() {
        // x0 + x1 + x2 = 5 with all domains {0, 1}.
        let cs = eq(vec![(1, 0), (1, 1), (1, 2)], 5);
        assert_eq!(solve(&[(0, 1); 3], &cs, 1_000), TheoryVerdict::Unsat);
    }

    #[test]
    fn cores_leave_out_constraints_the_refutation_never_needs() {
        // x0 ≤ 1 (0), an unrelated x2 ≤ 2 (1), x1 − x0 ≤ 0 (2) and
        // x1 ≥ 2 (3): the refutation chains 0 → 2 → 3 and skips 1.
        let cs = vec![
            le(vec![(1, 0)], 1),
            le(vec![(1, 2)], 2),
            le(vec![(-1, 0), (1, 1)], 0),
            le(vec![(-1, 1)], -2),
        ];
        let bounds = [(0, 5); 3];
        assert_eq!(minimize_core(&bounds, &cs, vec![0, 1, 2, 3]), vec![0, 2, 3]);
        assert_eq!(minimize_core(&bounds, &cs, vec![0, 2, 3]), vec![0, 2, 3]);
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
                    assert!(holds(c, &m), "violated constraint {c:?} by model {m:?}");
                }
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    /// A deterministic xorshift64 stream.
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform in `lo..=hi`.
        pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// Whether some integer point of the box `bounds` satisfies every
    /// constraint, by exhaustive enumeration.
    pub(crate) fn has_integer_point(bounds: &[(i64, i64)], cs: &[&Constraint]) -> bool {
        let mut point: Vec<i64> = bounds.iter().map(|b| b.0).collect();
        loop {
            if cs.iter().all(|c| holds(c, &point)) {
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

    /// Checks `solve`'s verdict on `cs` over `bounds` against enumeration:
    /// a model satisfies every constraint, and the verdict is `Unsat`
    /// exactly when no integer point exists.  A set the reasonless
    /// [`refuted_by_propagation`] refutes is `Unsat`, and its core is
    /// irreducible.  Returns whether propagation refuted the set.
    fn check_verdict(bounds: &[(i64, i64)], cs: &[Constraint]) -> bool {
        let verdict = solve(bounds, cs, 100_000);
        let all: Vec<&Constraint> = cs.iter().collect();
        match &verdict {
            TheoryVerdict::Sat(model) => assert!(
                cs.iter().all(|c| holds(c, model)),
                "model {model:?} violates {cs:?}"
            ),
            TheoryVerdict::Unsat => assert!(
                !has_integer_point(bounds, &all),
                "{cs:?} over {bounds:?} has an integer point"
            ),
            TheoryVerdict::Unknown => panic!("budget exhausted on {cs:?}"),
        }
        if !refuted_by_propagation(bounds, cs) {
            return false;
        }
        assert_eq!(
            verdict,
            TheoryVerdict::Unsat,
            "propagation refutes {cs:?} over {bounds:?}"
        );
        let core = minimize_core(bounds, cs, (0..cs.len()).collect());
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
        true
    }

    #[test]
    fn solve_agrees_with_enumeration_and_cores_are_irreducible() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut propagated = 0;
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
                    // sound on unnormalised input too.
                    let terms = (0..rng.range(1, 3))
                        .map(|_| {
                            let a = [-3, -2, -1, 1, 2, 3][rng.range(0, 5) as usize];
                            (a, rng.range(0, vars as i64 - 1) as usize)
                        })
                        .collect();
                    le(terms, rng.range(-6, 6))
                })
                .collect();
            propagated += usize::from(check_verdict(&bounds, &cs));
        }
        assert!(
            propagated > 500,
            "only {propagated} propagation refutations"
        );
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
