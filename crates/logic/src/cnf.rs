//! Tseitin transformation of [`Formula`]s into CNF over propositional atoms.
//!
//! Atoms are either Boolean SMT variables or canonicalised linear
//! inequalities of the form `Σ aᵢ·xᵢ ≤ b`.  Equalities and disequalities are
//! decomposed into conjunctions/negations of inequalities before atoms are
//! created, so the theory solver only ever deals with `≤` constraints (a
//! negated `≤` atom becomes a `≥` constraint, see [`LinearAtom::negated`]).
//! A comparison the variable bounds already decide is folded to a constant
//! instead of becoming an atom, exactly like a comparison without terms.

use std::collections::HashMap;

use crate::expr::{BoolVar, CmpOp, Formula, IntVar, LinExpr, VarPool};
use crate::sat::{Lit, SatSolver, Var};

/// A canonical linear atom `Σ aᵢ·xᵢ ≤ bound`.
///
/// Terms are sorted by variable, have no zero coefficients and are divided
/// by their common gcd (with the bound floored accordingly), so structurally
/// different but equivalent comparisons map to the same atom.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinearAtom {
    /// Sorted `(coefficient, variable)` pairs.
    pub terms: Vec<(i64, IntVar)>,
    /// Inclusive upper bound on the weighted sum.
    pub bound: i64,
}

impl LinearAtom {
    /// Builds the canonical atom for `Σ terms ≤ bound`, or returns a
    /// constant truth value when the bounds of the variables (`pool`)
    /// decide it: the interval sum over their box is exact because every
    /// variable occurs once, so the atom holds everywhere when the sum's
    /// maximum is at most `bound` and nowhere when its minimum exceeds it.
    /// Without variable terms this is the plain comparison `0 ≤ bound`.
    fn canonicalize(
        mut terms: Vec<(i64, IntVar)>,
        mut bound: i64,
        pool: &VarPool,
    ) -> Result<LinearAtom, bool> {
        terms.retain(|(c, _)| *c != 0);
        let (mut min, mut max) = (0i128, 0i128);
        for &(c, v) in &terms {
            let (lo, hi) = pool.int_bounds(v);
            let (at_lo, at_hi) = (
                i128::from(c) * i128::from(lo),
                i128::from(c) * i128::from(hi),
            );
            min += at_lo.min(at_hi);
            max += at_lo.max(at_hi);
        }
        if max <= i128::from(bound) {
            return Err(true);
        }
        if min > i128::from(bound) {
            return Err(false);
        }
        terms.sort_by_key(|(_, v)| *v);
        let mut g: i64 = 0;
        for (c, _) in &terms {
            g = gcd(g, c.abs());
        }
        if g > 1 {
            for (c, _) in &mut terms {
                *c /= g;
            }
            bound = bound.div_euclid(g);
        }
        Ok(LinearAtom { terms, bound })
    }

    /// Returns the atom representing the logical negation of `self`:
    /// `¬(Σ ≤ b)  ≡  Σ ≥ b+1  ≡  -Σ ≤ -b-1`.
    pub fn negated(&self) -> LinearAtom {
        LinearAtom {
            terms: self.terms.iter().map(|(c, v)| (-c, *v)).collect(),
            bound: -self.bound - 1,
        }
    }

    /// Evaluates the atom under an integer assignment.
    pub fn holds<F: FnMut(IntVar) -> i64>(&self, mut value_of: F) -> bool {
        let sum: i64 = self.terms.iter().map(|(c, v)| c * value_of(*v)).sum();
        sum <= self.bound
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Tseitin encoder mapping formulas onto a [`SatSolver`], keeping track of
/// the atom ↔ SAT-variable correspondence so the SMT search can extract
/// theory constraints from SAT assignments and block refuted ones.
///
/// Atoms and Boolean variables are interned: encoding a comparison or a
/// variable again returns the literal it got the first time and allocates
/// nothing.  They carry no clauses of their own, so one literal serves
/// every formula that mentions them and every assumption that pins them.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    bool_to_sat: HashMap<BoolVar, Var>,
    atoms: Vec<LinearAtom>,
    atom_sat: Vec<Var>,
    atom_index: HashMap<LinearAtom, usize>,
    true_lit: Option<Lit>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Returns the literal that is constrained to be true.
    fn constant_true(&mut self, sat: &mut SatSolver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = sat.new_var();
        let l = Lit::positive(v);
        sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// Returns the SAT variable associated with a Boolean SMT variable,
    /// allocating it on first use.
    fn sat_var_for_bool(&mut self, v: BoolVar, sat: &mut SatSolver) -> Var {
        if let Some(&sv) = self.bool_to_sat.get(&v) {
            return sv;
        }
        let sv = sat.new_var();
        self.bool_to_sat.insert(v, sv);
        sv
    }

    /// Returns the SAT variable for a Boolean SMT variable if it occurs in
    /// any encoded formula.
    pub fn lookup_bool(&self, v: BoolVar) -> Option<Var> {
        self.bool_to_sat.get(&v).copied()
    }

    /// Returns the linear atoms created so far together with their SAT
    /// variables.
    pub fn linear_atoms(&self) -> impl Iterator<Item = (&LinearAtom, Var)> + '_ {
        self.atoms.iter().zip(self.atom_sat.iter().copied())
    }

    /// Returns the number of distinct linear atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    fn atom_lit(&mut self, atom_or_const: Result<LinearAtom, bool>, sat: &mut SatSolver) -> Lit {
        match atom_or_const {
            Err(true) => self.constant_true(sat),
            Err(false) => self.constant_true(sat).negated(),
            Ok(atom) => {
                if let Some(&idx) = self.atom_index.get(&atom) {
                    return Lit::positive(self.atom_sat[idx]);
                }
                let sv = sat.new_var();
                let idx = self.atoms.len();
                self.atom_index.insert(atom.clone(), idx);
                self.atoms.push(atom);
                self.atom_sat.push(sv);
                Lit::positive(sv)
            }
        }
    }

    fn encode_cmp(
        &mut self,
        lhs: &LinExpr,
        op: CmpOp,
        rhs: &LinExpr,
        pool: &VarPool,
        sat: &mut SatSolver,
    ) -> Lit {
        let diff = lhs.clone() - rhs.clone();
        let (terms, constant) = diff.canonical();
        match op {
            CmpOp::Le => self.atom_lit(LinearAtom::canonicalize(terms, -constant, pool), sat),
            CmpOp::Lt => self.atom_lit(LinearAtom::canonicalize(terms, -constant - 1, pool), sat),
            CmpOp::Ge => {
                let neg: Vec<_> = terms.iter().map(|(c, v)| (-c, *v)).collect();
                self.atom_lit(LinearAtom::canonicalize(neg, constant, pool), sat)
            }
            CmpOp::Gt => {
                let neg: Vec<_> = terms.iter().map(|(c, v)| (-c, *v)).collect();
                self.atom_lit(LinearAtom::canonicalize(neg, constant - 1, pool), sat)
            }
            CmpOp::Eq => {
                let le = self.encode_cmp(lhs, CmpOp::Le, rhs, pool, sat);
                let ge = self.encode_cmp(lhs, CmpOp::Ge, rhs, pool, sat);
                Self::define_and(&[le, ge], sat)
            }
            CmpOp::Ne => {
                let eq = self.encode_cmp(lhs, CmpOp::Eq, rhs, pool, sat);
                eq.negated()
            }
        }
    }

    fn define_and(lits: &[Lit], sat: &mut SatSolver) -> Lit {
        let y = Lit::positive(sat.new_var());
        let mut long: Vec<Lit> = vec![y];
        for &l in lits {
            sat.add_clause(&[y.negated(), l]);
            long.push(l.negated());
        }
        sat.add_clause(&long);
        y
    }

    fn define_or(lits: &[Lit], sat: &mut SatSolver) -> Lit {
        let y = Lit::positive(sat.new_var());
        let mut long: Vec<Lit> = vec![y.negated()];
        for &l in lits {
            sat.add_clause(&[l.negated(), y]);
            long.push(l);
        }
        sat.add_clause(&long);
        y
    }

    /// Encodes a formula over the variables of `pool`, returning a literal
    /// equisatisfiable with it.  A Boolean variable, a `≤`/`<`/`≥`/`>`
    /// comparison or the negation of one is its interned literal, with no
    /// clause added; every other connective, `=` and `≠` included, defines
    /// a fresh Tseitin variable.
    pub fn encode(&mut self, formula: &Formula, pool: &VarPool, sat: &mut SatSolver) -> Lit {
        match formula {
            Formula::True => self.constant_true(sat),
            Formula::False => self.constant_true(sat).negated(),
            Formula::Bool(v) => Lit::positive(self.sat_var_for_bool(*v, sat)),
            Formula::Cmp(lhs, op, rhs) => self.encode_cmp(lhs, *op, rhs, pool, sat),
            Formula::Not(inner) => self.encode(inner, pool, sat).negated(),
            Formula::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.encode(p, pool, sat)).collect();
                Self::define_and(&lits, sat)
            }
            Formula::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.encode(p, pool, sat)).collect();
                Self::define_or(&lits, sat)
            }
            Formula::Implies(a, b) => {
                let la = self.encode(a, pool, sat).negated();
                let lb = self.encode(b, pool, sat);
                Self::define_or(&[la, lb], sat)
            }
            Formula::Iff(a, b) => {
                let la = self.encode(a, pool, sat);
                let lb = self.encode(b, pool, sat);
                let y = Lit::positive(sat.new_var());
                sat.add_clause(&[y.negated(), la.negated(), lb]);
                sat.add_clause(&[y.negated(), la, lb.negated()]);
                sat.add_clause(&[y, la, lb]);
                sat.add_clause(&[y, la.negated(), lb.negated()]);
                y
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarPool;

    #[test]
    fn equivalent_comparisons_share_atoms() {
        let mut pool = VarPool::new();
        let x = pool.new_int("x", 0, 5);
        let y = pool.new_int("y", 0, 5);
        let mut enc = Encoder::new();
        let mut sat = SatSolver::new();
        // 2x + 2y <= 4  and  x + y <= 2 should canonicalise identically.
        let f1 = Formula::le(
            LinExpr::term(2, x) + LinExpr::term(2, y),
            LinExpr::constant(4),
        );
        let f2 = Formula::le(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(2));
        let l1 = enc.encode(&f1, &pool, &mut sat);
        let l2 = enc.encode(&f2, &pool, &mut sat);
        assert_eq!(l1, l2);
        assert_eq!(enc.atom_count(), 1);
    }

    #[test]
    fn constant_comparison_folds_to_truth_value() {
        let pool = VarPool::new();
        let mut enc = Encoder::new();
        let mut sat = SatSolver::new();
        let t = enc.encode(
            &Formula::le(LinExpr::constant(1), LinExpr::constant(2)),
            &pool,
            &mut sat,
        );
        let f = enc.encode(
            &Formula::le(LinExpr::constant(3), LinExpr::constant(2)),
            &pool,
            &mut sat,
        );
        assert_eq!(t, f.negated());
        assert_eq!(enc.atom_count(), 0);
    }

    #[test]
    fn negated_atom_excludes_exact_boundary() {
        let mut pool = VarPool::new();
        let x = pool.new_int("x", 0, 10);
        let atom = LinearAtom::canonicalize(vec![(1, x)], 4, &pool).unwrap();
        assert!(atom.holds(|_| 4));
        assert!(!atom.negated().holds(|_| 4));
        assert!(atom.negated().holds(|_| 5));
    }

    #[test]
    fn asserting_boolean_tautology_stays_satisfiable() {
        let mut pool = VarPool::new();
        let a = pool.new_bool("a");
        let mut enc = Encoder::new();
        let mut sat = SatSolver::new();
        let tautology = enc.encode(
            &Formula::or([Formula::bool_var(a), Formula::not(Formula::bool_var(a))]),
            &pool,
            &mut sat,
        );
        sat.add_clause(&[tautology]);
        assert!(sat.solve().is_ok());
    }

    #[test]
    fn asserting_contradiction_is_unsat() {
        let mut pool = VarPool::new();
        let a = pool.new_bool("a");
        let mut enc = Encoder::new();
        let mut sat = SatSolver::new();
        for formula in [Formula::bool_var(a), Formula::not(Formula::bool_var(a))] {
            let lit = enc.encode(&formula, &pool, &mut sat);
            sat.add_clause(&[lit]);
        }
        assert!(sat.solve().is_err());
    }

    /// A deterministic xorshift64 stream.
    struct XorShift(u64);

    impl XorShift {
        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            lo + (self.0 % (hi - lo + 1) as u64) as i64
        }
    }

    #[test]
    fn atoms_the_bounds_decide_fold_exactly() {
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let mut seen = [0usize; 3];
        for _ in 0..3_000 {
            let mut pool = VarPool::new();
            let mut lhs = LinExpr::zero();
            let mut bounds = Vec::new();
            for i in 0..rng.range(1, 3) {
                let lo = rng.range(0, 4);
                let hi = rng.range(lo, 4);
                let x = pool.new_int(format!("x{i}"), lo, hi);
                lhs.add_term(rng.range(-3, 3), x);
                bounds.push((x, lo, hi));
            }
            let rhs = LinExpr::constant(rng.range(-12, 12));
            let atom = match rng.range(0, 3) {
                0 => Formula::le(lhs, rhs),
                1 => Formula::lt(lhs, rhs),
                2 => Formula::ge(lhs, rhs),
                _ => Formula::gt(lhs, rhs),
            };
            // Count the box points satisfying the atom by enumeration.
            let (mut points, mut holding) = (0, 0);
            let mut point: Vec<i64> = bounds.iter().map(|b| b.1).collect();
            'box_points: loop {
                points += 1;
                let position = |v: IntVar| bounds.iter().position(|b| b.0 == v).unwrap();
                if atom.evaluate(&mut |_| false, &mut |v| point[position(v)]) {
                    holding += 1;
                }
                for (i, &(_, lo, hi)) in bounds.iter().enumerate() {
                    if point[i] < hi {
                        point[i] += 1;
                        continue 'box_points;
                    }
                    point[i] = lo;
                }
                break;
            }

            let mut enc = Encoder::new();
            let mut sat = SatSolver::new();
            let lit = enc.encode(&atom, &pool, &mut sat);
            let truth = enc.encode(&Formula::True, &pool, &mut sat);
            if holding == points {
                assert_eq!(lit, truth, "{atom:?} holds on its whole box");
                seen[0] += 1;
            } else if holding == 0 {
                assert_eq!(lit, truth.negated(), "{atom:?} holds nowhere on its box");
                seen[1] += 1;
            } else {
                assert_eq!(enc.atom_count(), 1, "{atom:?} is decided by no bound");
                assert_eq!(lit, Lit::positive(enc.linear_atoms().next().unwrap().1));
                seen[2] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 300), "case counts {seen:?}");
    }
}
