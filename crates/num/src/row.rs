//! Sparse linear rows (equations of the form `Σ aᵢ·xᵢ + c = 0`).

use std::fmt;

use crate::rational::gcd;
use crate::Rational;

/// A sparse linear equation `Σ aᵢ·xᵢ + c = 0` over variables identified by
/// `usize` indices.
///
/// Rows are the unit of work of the invariant-derivation pipeline: every
/// xMAS primitive and every XMAS automaton contributes a handful of rows,
/// and Gaussian elimination ([`crate::eliminate`]) removes the variables we
/// are not interested in.
///
/// The terms are one vector sorted by variable with no zero coefficient,
/// so [`LinearRow::add_scaled`] — the elimination's inner step — is a
/// single merge of two sorted runs, and equal rows are equal vectors.
///
/// # Examples
///
/// ```
/// use advocat_num::{LinearRow, Rational};
///
/// let mut row = LinearRow::new();
/// row.add_term(3, Rational::from_integer(2));
/// row.add_term(3, Rational::from_integer(-2));
/// assert!(row.is_zero());
///
/// let row = LinearRow::from_terms([(0, 1), (1, -1)], 5);
/// assert_eq!(row.coefficient(0), Rational::ONE);
/// assert_eq!(row.constant(), Rational::from_integer(5));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinearRow {
    /// Nonzero coefficients, strictly increasing by variable.
    terms: Vec<(usize, Rational)>,
    constant: Rational,
}

impl LinearRow {
    /// Creates an empty row (the trivially true equation `0 = 0`).
    pub fn new() -> Self {
        LinearRow {
            terms: Vec::new(),
            constant: Rational::ZERO,
        }
    }

    /// Creates a row from integer coefficients and an integer constant.
    pub fn from_terms<I>(terms: I, constant: i128) -> Self
    where
        I: IntoIterator<Item = (usize, i128)>,
    {
        let mut row = LinearRow::new();
        for (var, coef) in terms {
            row.add_term(var, Rational::from_integer(coef));
        }
        row.add_constant(Rational::from_integer(constant));
        row
    }

    /// Adds `coef · x_var` to the row, removing the term if it cancels.
    pub fn add_term(&mut self, var: usize, coef: Rational) {
        if coef.is_zero() {
            return;
        }
        match self.position(var) {
            Ok(at) => {
                let sum = self.terms[at].1 + coef;
                if sum.is_zero() {
                    self.terms.remove(at);
                } else {
                    self.terms[at].1 = sum;
                }
            }
            Err(at) => self.terms.insert(at, (var, coef)),
        }
    }

    /// Where `var` sits in the sorted terms, or where it would go.
    fn position(&self, var: usize) -> Result<usize, usize> {
        self.terms.binary_search_by_key(&var, |&(v, _)| v)
    }

    /// Adds a constant to the row.
    pub fn add_constant(&mut self, value: Rational) {
        self.constant += value;
    }

    /// Returns the coefficient of `var` (zero when absent).
    pub fn coefficient(&self, var: usize) -> Rational {
        self.position(var)
            .map_or(Rational::ZERO, |at| self.terms[at].1)
    }

    /// Returns the constant term.
    pub fn constant(&self) -> Rational {
        self.constant
    }

    /// Returns `true` when the row has no variable terms and no constant.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant.is_zero()
    }

    /// Returns `true` when the row has no variable terms but a non-zero
    /// constant: the equation `c = 0` with `c ≠ 0` is inconsistent.
    pub fn is_inconsistent(&self) -> bool {
        self.terms.is_empty() && !self.constant.is_zero()
    }

    /// Returns the number of variable terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when the row has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` when the row mentions `var`.
    pub fn contains(&self, var: usize) -> bool {
        self.position(var).is_ok()
    }

    /// Iterates over `(variable, coefficient)` pairs in increasing variable
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Rational)> + '_ {
        self.terms.iter().copied()
    }

    /// Returns the set of variables mentioned by the row.
    pub fn variables(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Multiplies the whole row (terms and constant) by `factor`.
    pub fn scale(&mut self, factor: Rational) {
        if factor.is_zero() {
            self.terms.clear();
            self.constant = Rational::ZERO;
            return;
        }
        for (_, coef) in &mut self.terms {
            *coef = *coef * factor;
        }
        self.constant = self.constant * factor;
    }

    /// Adds `factor · other` to `self`.
    ///
    /// One merge of the two sorted term runs: each of `other`'s terms is
    /// scaled and added in increasing variable order, and terms that
    /// cancel are dropped.
    pub fn add_scaled(&mut self, other: &LinearRow, factor: Rational) {
        if factor.is_zero() {
            return;
        }
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let mut mine = self.terms.iter().copied().peekable();
        for &(var, coef) in &other.terms {
            while let Some(term) = mine.next_if(|&(v, _)| v < var) {
                merged.push(term);
            }
            let scaled = coef * factor;
            match mine.next_if(|&(v, _)| v == var) {
                Some((_, own)) => {
                    let sum = own + scaled;
                    if !sum.is_zero() {
                        merged.push((var, sum));
                    }
                }
                None => merged.push((var, scaled)),
            }
        }
        merged.extend(mine);
        self.terms = merged;
        self.add_constant(other.constant * factor);
    }

    /// Normalises the row so that all coefficients are integers with overall
    /// gcd 1 and the leading coefficient is positive.  This produces the
    /// human-friendly form used when printing invariants.
    ///
    /// # Panics
    ///
    /// Panics when the integral form does not fit in `i128` (the lcm of the
    /// denominators overflows, say), the way [`Rational`] arithmetic
    /// panics instead of wrapping.
    pub fn normalize_integral(&mut self) {
        self.normalize_integral_signed();
        // Make the leading coefficient positive.
        if let Some((_, lead)) = self.terms.first() {
            if lead.is_negative() {
                self.scale(Rational::from_integer(-1));
            }
        }
    }

    /// Normalises the row to integer coefficients with overall gcd 1,
    /// **without** flipping the sign — the variant for rows read as
    /// inequalities (`Σ aᵢ·xᵢ + c ≤ 0`), where negating the row would
    /// reverse the relation.
    ///
    /// # Panics
    ///
    /// As [`LinearRow::normalize_integral`].
    pub fn normalize_integral_signed(&mut self) {
        if self.terms.is_empty() {
            return;
        }
        // Scale by the lcm of all denominators (all positive).
        let mut lcm: i128 = 1;
        for den in self
            .terms
            .iter()
            .map(|(_, coef)| coef)
            .chain([&self.constant])
            .map(Rational::denominator)
        {
            let g = gcd(lcm.unsigned_abs(), den.unsigned_abs()) as i128;
            lcm = (lcm / g)
                .checked_mul(den)
                .expect("row normalisation overflow: lcm of the denominators exceeds i128");
        }
        self.scale(Rational::from_integer(lcm));
        // Divide by the gcd of all numerators.
        let mut g: u128 = 0;
        for num in self
            .terms
            .iter()
            .map(|(_, coef)| coef)
            .chain([&self.constant])
            .map(Rational::numerator)
        {
            g = gcd(g, num.unsigned_abs());
        }
        if g > 1 {
            let g = i128::try_from(g).expect("row normalisation overflow: gcd exceeds i128");
            self.scale(Rational::new(1, g));
        }
    }

    /// Evaluates the row under an assignment, returning `Σ aᵢ·xᵢ + c`.
    pub fn evaluate<F>(&self, mut value_of: F) -> Rational
    where
        F: FnMut(usize) -> Rational,
    {
        let mut acc = self.constant;
        for (var, coef) in self.iter() {
            acc += coef * value_of(var);
        }
        acc
    }

    /// Renders the row as an equation using a caller-provided variable namer.
    pub fn display_with<F>(&self, mut name_of: F) -> String
    where
        F: FnMut(usize) -> String,
    {
        let mut out = String::new();
        let mut first = true;
        for (var, coef) in self.iter() {
            let name = name_of(var);
            if first {
                if coef == Rational::ONE {
                    out.push_str(&name);
                } else if coef == Rational::from_integer(-1) {
                    out.push_str(&format!("-{name}"));
                } else {
                    out.push_str(&format!("{coef}·{name}"));
                }
                first = false;
            } else if coef.is_negative() {
                let a = -coef;
                if a == Rational::ONE {
                    out.push_str(&format!(" - {name}"));
                } else {
                    out.push_str(&format!(" - {a}·{name}"));
                }
            } else if coef == Rational::ONE {
                out.push_str(&format!(" + {name}"));
            } else {
                out.push_str(&format!(" + {coef}·{name}"));
            }
        }
        if first {
            out.push('0');
        }
        out.push_str(&format!(" = {}", -self.constant));
        out
    }
}

impl fmt::Display for LinearRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|v| format!("x{v}")))
    }
}

impl FromIterator<(usize, Rational)> for LinearRow {
    fn from_iter<T: IntoIterator<Item = (usize, Rational)>>(iter: T) -> Self {
        let mut row = LinearRow::new();
        for (var, coef) in iter {
            row.add_term(var, coef);
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn terms_cancel_and_disappear() {
        let mut row = LinearRow::new();
        row.add_term(2, Rational::from_integer(3));
        row.add_term(2, Rational::from_integer(-3));
        assert!(row.is_zero());
        assert!(!row.contains(2));
    }

    #[test]
    fn add_scaled_combines_rows() {
        let a = LinearRow::from_terms([(0, 1), (1, 2)], 3);
        let mut b = LinearRow::from_terms([(0, -2), (2, 1)], 0);
        b.add_scaled(&a, Rational::from_integer(2));
        assert_eq!(b.coefficient(0), Rational::ZERO);
        assert_eq!(b.coefficient(1), Rational::from_integer(4));
        assert_eq!(b.coefficient(2), Rational::ONE);
        assert_eq!(b.constant(), Rational::from_integer(6));
    }

    #[test]
    fn inconsistent_row_detected() {
        let row = LinearRow::from_terms([], 4);
        assert!(row.is_inconsistent());
        assert!(!LinearRow::new().is_inconsistent());
    }

    #[test]
    fn normalize_integral_produces_coprime_integer_coefficients() {
        let mut row = LinearRow::new();
        row.add_term(0, Rational::new(2, 3));
        row.add_term(1, Rational::new(-4, 3));
        row.add_constant(Rational::new(2, 3));
        row.normalize_integral();
        assert_eq!(row.coefficient(0), Rational::ONE);
        assert_eq!(row.coefficient(1), Rational::from_integer(-2));
        assert_eq!(row.constant(), Rational::ONE);
    }

    #[test]
    fn normalize_integral_makes_leading_positive() {
        let mut row = LinearRow::from_terms([(5, -2), (7, 2)], 0);
        row.normalize_integral();
        assert_eq!(row.coefficient(5), Rational::ONE);
        assert_eq!(row.coefficient(7), Rational::from_integer(-1));
    }

    #[test]
    #[should_panic(expected = "row normalisation")]
    fn normalisation_overflow_panics_instead_of_wrapping() {
        // lcm(2^70, 3^45) needs about 141 bits.
        let mut row = LinearRow::new();
        row.add_term(0, Rational::new(1, 1 << 70));
        row.add_term(1, Rational::new(1, 3i128.pow(45)));
        row.normalize_integral();
    }

    #[test]
    fn evaluate_applies_assignment() {
        let row = LinearRow::from_terms([(0, 2), (1, -1)], 1);
        let value = row.evaluate(|v| Rational::from_integer(v as i128 + 1));
        // 2*1 - 2 + 1 = 1
        assert_eq!(value, Rational::ONE);
    }

    /// The `BTreeMap` row the sorted-vector row must behave exactly like.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Model {
        terms: BTreeMap<usize, Rational>,
        constant: Rational,
    }

    impl Model {
        fn add_term(&mut self, var: usize, coef: Rational) {
            if coef.is_zero() {
                return;
            }
            let entry = self.terms.entry(var).or_insert(Rational::ZERO);
            *entry += coef;
            if entry.is_zero() {
                self.terms.remove(&var);
            }
        }

        fn scale(&mut self, factor: Rational) {
            if factor.is_zero() {
                self.terms.clear();
                self.constant = Rational::ZERO;
                return;
            }
            for coef in self.terms.values_mut() {
                *coef = *coef * factor;
            }
            self.constant = self.constant * factor;
        }

        fn add_scaled(&mut self, other: &Model, factor: Rational) {
            if factor.is_zero() {
                return;
            }
            for (&var, &coef) in &other.terms {
                self.add_term(var, coef * factor);
            }
            self.constant += other.constant * factor;
        }

        fn normalize_integral_signed(&mut self) {
            if self.terms.is_empty() {
                return;
            }
            let mut lcm: i128 = 1;
            for coef in self.terms.values().chain([&self.constant]) {
                let den = coef.denominator();
                lcm = lcm / gcd(lcm.unsigned_abs(), den.unsigned_abs()) as i128 * den;
            }
            self.scale(Rational::from_integer(lcm));
            let mut g: u128 = 0;
            for coef in self.terms.values().chain([&self.constant]) {
                g = gcd(g, coef.numerator().unsigned_abs());
            }
            if g > 1 {
                self.scale(Rational::new(1, g as i128));
            }
        }

        fn normalize_integral(&mut self) {
            self.normalize_integral_signed();
            if let Some((_, lead)) = self.terms.first_key_value() {
                if lead.is_negative() {
                    self.scale(Rational::from_integer(-1));
                }
            }
        }
    }

    /// Asserts that `row` reads exactly like `model`.
    fn assert_matches(row: &LinearRow, model: &Model, step: usize) {
        let expected: Vec<(usize, Rational)> = model.terms.iter().map(|(v, c)| (*v, *c)).collect();
        assert_eq!(row.iter().collect::<Vec<_>>(), expected, "step {step}");
        assert_eq!(row.len(), model.terms.len(), "step {step}");
        assert_eq!(row.constant(), model.constant, "step {step}");
        for var in 0..VARS + 1 {
            assert_eq!(
                row.coefficient(var),
                model.terms.get(&var).copied().unwrap_or_default(),
                "step {step}, x{var}"
            );
            assert_eq!(row.contains(var), model.terms.contains_key(&var));
        }
    }

    const VARS: usize = 12;

    #[test]
    fn sorted_rows_match_the_map_reference_model() {
        // A deterministic xorshift64 stream.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let small = |next: &mut dyn FnMut() -> u64| {
            let num = (next() % 7) as i128 - 3;
            let den = [1, 1, 1, 2, 3][(next() % 5) as usize];
            Rational::new(num, den)
        };
        let mut rows = [(LinearRow::new(), Model::default()), Default::default()];
        let (mut cancelled, mut merged) = (0, 0);
        for step in 0..20_000 {
            let which = (next() % 2) as usize;
            let var = (next() % VARS as u64) as usize;
            match next() % 8 {
                0..=2 => {
                    let coef = small(&mut next);
                    let (row, model) = &mut rows[which];
                    row.add_term(var, coef);
                    model.add_term(var, coef);
                    // Cancel the term just touched now and then.
                    if next() % 4 == 0 {
                        let back = -row.coefficient(var);
                        row.add_term(var, back);
                        model.add_term(var, back);
                        cancelled += usize::from(!back.is_zero());
                    }
                }
                3 | 4 => {
                    let factor = small(&mut next);
                    let (other_row, other_model) = rows[1 - which].clone();
                    let (row, model) = &mut rows[which];
                    row.add_scaled(&other_row, factor);
                    model.add_scaled(&other_model, factor);
                    merged += usize::from(!other_row.is_empty() && !factor.is_zero());
                }
                5 => {
                    let factor = small(&mut next);
                    let (row, model) = &mut rows[which];
                    row.scale(factor);
                    model.scale(factor);
                }
                6 => {
                    let (row, model) = &mut rows[which];
                    row.normalize_integral();
                    model.normalize_integral();
                }
                _ => {
                    let (row, model) = &mut rows[which];
                    row.normalize_integral_signed();
                    model.normalize_integral_signed();
                }
            }
            // Start afresh now and then, and before coefficients grow
            // towards overflow.
            let huge = rows[which]
                .0
                .iter()
                .any(|(_, c)| c.numerator().unsigned_abs() > 1 << 40 || c.denominator() > 1 << 40);
            if huge || next() % 50 == 0 {
                let constant = small(&mut next);
                let (row, model) = &mut rows[which];
                *row = LinearRow::new();
                row.add_constant(constant);
                *model = Model {
                    constant,
                    ..Model::default()
                };
            }
            for (row, model) in &rows {
                assert_matches(row, model, step);
            }
            assert_eq!(
                rows[0].0 == rows[1].0,
                rows[0].1 == rows[1].1,
                "step {step}"
            );
        }
        assert!(cancelled > 1_000 && merged > 1_000, "{cancelled} {merged}");
    }

    #[test]
    fn display_is_readable() {
        let row = LinearRow::from_terms([(0, 1), (1, -2)], -3);
        assert_eq!(row.to_string(), "x0 - 2·x1 = 3");
        assert_eq!(LinearRow::from_terms([], 0).to_string(), "0 = 0");
    }
}
