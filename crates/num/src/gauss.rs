//! Sparse Gaussian elimination with a variable elimination predicate.

use crate::{LinearRow, Rational};

/// Eliminates every variable for which `should_eliminate` returns `true`
/// from the given system of equations, returning only the resulting rows
/// that are completely free of eliminated variables.
///
/// This is the "sweep away the λ and κ variables" step of the invariant
/// derivation: rows that still depend on an eliminated variable after the
/// sweep merely *define* that variable and carry no information about the
/// kept variables, so they are dropped.  Trivial `0 = 0` rows are dropped
/// too.  Rows that reduce to `c = 0` with `c ≠ 0` are kept (callers treat
/// them as evidence of an inconsistent model).
///
/// Variables index a vector of per-variable occurrence lists, so memory
/// grows with the largest variable index: number variables densely from
/// 0, as `advocat-invariants`' registry does.
///
/// # Examples
///
/// ```
/// use advocat_num::{eliminate, LinearRow};
///
/// // λ0 = λ1 + q      (flow through a queue)
/// // λ0 = κ0          (flow feeds transition firings)
/// // λ1 = κ0 - s      (transition firings drain into the state counter)
/// // Eliminating λ and κ leaves the cross-layer fact  q - s = 0.
/// let rows = vec![
///     LinearRow::from_terms([(0, 1), (1, -1), (10, -1)], 0),
///     LinearRow::from_terms([(0, 1), (2, -1)], 0),
///     LinearRow::from_terms([(1, 1), (2, -1), (11, 1)], 0),
/// ];
/// let kept = eliminate(rows, |v| v < 10);
/// assert_eq!(kept.len(), 1);
/// let inv = &kept[0];
/// assert!(inv.contains(10) && inv.contains(11));
/// ```
pub fn eliminate<F>(rows: Vec<LinearRow>, should_eliminate: F) -> Vec<LinearRow>
where
    F: Fn(usize) -> bool,
{
    // With no variable declared nonnegative the bound harvest is empty and
    // the shared elimination core produces exactly the equality output.
    eliminate_with_bounds(rows, should_eliminate, |_| false).equalities
}

/// The result of [`eliminate_with_bounds`]: the surviving equalities plus
/// the upper bounds harvested from the nonnegativity of eliminated
/// variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Elimination {
    /// Rows free of eliminated variables, read as `Σ aᵢ·xᵢ + c = 0` — the
    /// same output [`eliminate`] produces.
    pub equalities: Vec<LinearRow>,
    /// Rows free of eliminated variables, read as `Σ aᵢ·xᵢ + c ≤ 0`.
    ///
    /// Each bound is a fully back-substituted pivot definition: the
    /// elimination solved some row for an eliminated variable `e`, giving
    /// `e = −(Σ aᵢ·xᵢ + c)`; when `e` is known to be nonnegative (a flow
    /// or firing counter), the right-hand side must be nonnegative too,
    /// i.e. `Σ aᵢ·xᵢ + c ≤ 0`.  Equality elimination throws this
    /// information away — the defining rows "merely define" an eliminated
    /// variable — but as *inequalities* they survive as genuine invariants
    /// over the kept variables.
    pub bounds: Vec<LinearRow>,
}

/// [`eliminate`], additionally harvesting the upper bounds implied by the
/// nonnegativity of the eliminated variables (see [`Elimination::bounds`]).
///
/// `nonnegative(v)` must return `true` only when variable `v` cannot be
/// negative in any model of interest; bounds are derived only from pivots
/// on such variables, and bound rows still mentioning an eliminated
/// variable with a *negative* coefficient are discarded (dropping a
/// nonnegative term with a positive coefficient only weakens a `≤ 0` row,
/// dropping a negative one would not be sound).  Variables should be
/// numbered densely from 0, as for [`eliminate`].
///
/// # Examples
///
/// ```
/// use advocat_num::{eliminate_with_bounds, LinearRow};
///
/// // q = e  for a nonnegative flow counter e: the equality eliminates to
/// // nothing, but e ≥ 0 survives as the bound  −q ≤ 0  (q is nonneg).
/// let rows = vec![LinearRow::from_terms([(0, 1), (10, -1)], 0)];
/// let result = eliminate_with_bounds(rows, |v| v < 10, |v| v < 10);
/// assert!(result.equalities.is_empty());
/// assert_eq!(result.bounds.len(), 1);
/// assert_eq!(result.bounds[0].coefficient(10).to_integer(), Some(-1));
/// ```
pub fn eliminate_with_bounds<F, N>(
    rows: Vec<LinearRow>,
    should_eliminate: F,
    nonnegative: N,
) -> Elimination
where
    F: Fn(usize) -> bool,
    N: Fn(usize) -> bool,
{
    let (rows, pivots) = sweep(rows, &should_eliminate);
    harvest(rows, pivots, should_eliminate, nonnegative)
}

/// The elimination loop.  Each step pivots on the first row, in the
/// working order, that still mentions an eliminated variable, on that
/// row's lowest such variable; it removes that row with `swap_remove`,
/// scales it to coefficient 1 and subtracts it from every other row
/// mentioning the variable, remaining rows and earlier pivot rows alike.
///
/// Returns the remaining rows in working order and the `(pivot variable,
/// defining row)` pairs in pivot order.  Every stored pivot row ends up
/// mentioning its own pivot variable plus (possibly) eliminated variables
/// that were never chosen as pivots.
///
/// Two indexes keep a step proportional to the rows it changes:
///
/// * a **cursor** for the pivot search.  Only rows mentioning a pivot
///   variable are ever modified, so a row without eliminated variables
///   keeps none forever: the rows before the first row that still has one
///   are final, and the search resumes there instead of at row 0;
/// * per-variable **occurrence lists** naming every row (remaining or
///   pivot) that mentions an eliminated variable, in a vector indexed by
///   variable (sized by the largest variable of the system, so variables
///   are expected to be dense indices, as a registry numbers them).  A
///   row that cancels a variable keeps its stale entry, skipped because
///   the coefficient reads zero; fill-in appends.  After its step a pivot
///   variable appears only in its own pivot row, so its list is dropped.
///
/// The pivot sequence and every row's arithmetic are those of the loop
/// that rescans all rows per pivot, kept as the test reference, so the
/// output is identical.
fn sweep<F>(rows: Vec<LinearRow>, should_eliminate: &F) -> (Vec<LinearRow>, Vec<(usize, LinearRow)>)
where
    F: Fn(usize) -> bool,
{
    // Rows live at fixed indices of `store`; `order` is the working order
    // of the remaining rows, permuted by `swap_remove` exactly as the rows
    // themselves would be.
    let mut store: Vec<LinearRow> = rows.into_iter().filter(|r| !r.is_zero()).collect();
    let mut order: Vec<usize> = (0..store.len()).collect();
    // Fill-in only brings variables some other row already has.
    let width = store
        .iter()
        .flat_map(LinearRow::variables)
        .max()
        .map_or(0, |v| v + 1);
    let mut occurrences: Vec<Option<Vec<usize>>> = vec![None; width];
    for (id, row) in store.iter().enumerate() {
        for var in row.variables().filter(|&v| should_eliminate(v)) {
            occurrences[var].get_or_insert_with(Vec::new).push(id);
        }
    }
    let mut pivots: Vec<(usize, usize)> = Vec::new();
    let mut cursor = 0;
    while cursor < order.len() {
        let id = order[cursor];
        let Some(pivot_var) = store[id].variables().find(|&v| should_eliminate(v)) else {
            cursor += 1;
            continue;
        };
        order.swap_remove(cursor);
        // Taken out of `store` while it is applied, the pivot row reads as
        // empty, so its own occurrence entry is skipped like a stale one.
        let mut pivot = std::mem::take(&mut store[id]);
        let coef = pivot.coefficient(pivot_var);
        pivot.scale(coef.recip());
        let holders = occurrences[pivot_var]
            .take()
            .expect("every unpivoted eliminated variable has an occurrence list");
        for other in holders {
            let row = &mut store[other];
            let c = row.coefficient(pivot_var);
            if c.is_zero() {
                continue;
            }
            for var in pivot.variables() {
                if let Some(list) = &mut occurrences[var] {
                    if !row.contains(var) {
                        list.push(other);
                    }
                }
            }
            row.add_scaled(&pivot, -c);
        }
        store[id] = pivot;
        pivots.push((pivot_var, id));
    }

    let remaining = order
        .iter()
        .map(|&id| std::mem::take(&mut store[id]))
        .collect();
    let pivots = pivots
        .into_iter()
        .map(|(var, id)| (var, std::mem::take(&mut store[id])))
        .collect();
    (remaining, pivots)
}

/// Turns the output of [`sweep`] into an [`Elimination`]: the remaining
/// rows become normalised, deduplicated equalities, and the pivot rows of
/// nonnegative variables become bounds.
fn harvest<F, N>(
    rows: Vec<LinearRow>,
    pivots: Vec<(usize, LinearRow)>,
    should_eliminate: F,
    nonnegative: N,
) -> Elimination
where
    F: Fn(usize) -> bool,
    N: Fn(usize) -> bool,
{
    let mut equalities: Vec<LinearRow> = Vec::new();
    for mut row in rows {
        if row.is_zero() {
            continue;
        }
        row.normalize_integral();
        if !equalities.contains(&row) {
            equalities.push(row);
        }
    }

    let mut bounds: Vec<LinearRow> = Vec::new();
    'pivot: for (var, mut row) in pivots {
        if !nonnegative(var) {
            continue;
        }
        // `row` is  var + rest = 0  with var ≥ 0, so  rest ≤ 0.  Any other
        // eliminated variable still present was never pivoted (a free
        // variable of the system): drop it when that only weakens the
        // bound, give up otherwise.
        row.add_term(var, Rational::from_integer(-1));
        let residual: Vec<(usize, Rational)> =
            row.iter().filter(|(v, _)| should_eliminate(*v)).collect();
        for (v, coef) in residual {
            if nonnegative(v) && !coef.is_negative() {
                row.add_term(v, -coef);
            } else {
                continue 'pivot;
            }
        }
        if row.is_empty() {
            continue;
        }
        row.normalize_integral_signed();
        let negation = {
            let mut neg = row.clone();
            neg.scale(Rational::from_integer(-1));
            neg
        };
        // Skip bounds an equality already implies, and dedup.
        if equalities.contains(&row) || equalities.contains(&negation) || bounds.contains(&row) {
            continue;
        }
        bounds.push(row);
    }

    Elimination { equalities, bounds }
}

/// Checks whether an assignment satisfies every equation in `rows`.
///
/// Convenience helper used by property tests: elimination must preserve all
/// solutions of the original system.
pub fn satisfies<F>(rows: &[LinearRow], mut value_of: F) -> bool
where
    F: FnMut(usize) -> Rational,
{
    rows.iter().all(|r| r.evaluate(&mut value_of).is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eliminate_simple_chain() {
        // x0 = x1, x1 = x2 + 1; eliminating x0 and x1 yields nothing about x2
        // except when a second path pins it: add x0 = 5.
        let rows = vec![
            LinearRow::from_terms([(0, 1), (1, -1)], 0),
            LinearRow::from_terms([(1, 1), (2, -1)], -1),
            LinearRow::from_terms([(0, 1)], -5),
        ];
        let kept = eliminate(rows, |v| v < 2);
        assert_eq!(kept.len(), 1);
        // x2 + 1 = 5  =>  x2 = 4.
        assert_eq!(kept[0].coefficient(2), Rational::ONE);
        assert_eq!(kept[0].constant(), Rational::from_integer(-4));
    }

    #[test]
    fn eliminate_drops_rows_still_containing_eliminated_vars() {
        // A single row mentioning an eliminated variable carries no
        // information about the kept variables.
        let rows = vec![LinearRow::from_terms([(0, 1), (5, 1)], 0)];
        let kept = eliminate(rows, |v| v == 0);
        assert!(kept.is_empty());
    }

    #[test]
    fn eliminate_deduplicates_equal_invariants() {
        let rows = vec![
            LinearRow::from_terms([(10, 1), (11, -1)], 0),
            LinearRow::from_terms([(10, 2), (11, -2)], 0),
        ];
        let kept = eliminate(rows, |_| false);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn satisfies_rejects_wrong_assignment() {
        let rows = vec![LinearRow::from_terms([(0, 1)], -3)];
        assert!(!satisfies(&rows, |_| Rational::ZERO));
        assert!(satisfies(&rows, |_| Rational::from_integer(3)));
    }

    /// The rescanning elimination loop that [`sweep`] must match exactly:
    /// every pivot rescans the rows from index 0 and looks its variable up
    /// in every remaining and every earlier pivot row.
    fn reference_sweep<F>(
        rows: Vec<LinearRow>,
        should_eliminate: &F,
    ) -> (Vec<LinearRow>, Vec<(usize, LinearRow)>)
    where
        F: Fn(usize) -> bool,
    {
        let mut rows: Vec<LinearRow> = rows.into_iter().filter(|r| !r.is_zero()).collect();
        let mut pivots: Vec<(usize, LinearRow)> = Vec::new();

        loop {
            let mut pivot_idx = None;
            let mut pivot_var = 0usize;
            'outer: for (idx, row) in rows.iter().enumerate() {
                for var in row.variables() {
                    if should_eliminate(var) {
                        pivot_idx = Some(idx);
                        pivot_var = var;
                        break 'outer;
                    }
                }
            }
            let Some(idx) = pivot_idx else { break };
            let mut pivot = rows.swap_remove(idx);
            let coef = pivot.coefficient(pivot_var);
            pivot.scale(coef.recip());
            for row in rows.iter_mut() {
                let c = row.coefficient(pivot_var);
                if !c.is_zero() {
                    row.add_scaled(&pivot, -c);
                }
            }
            for (_, row) in pivots.iter_mut() {
                let c = row.coefficient(pivot_var);
                if !c.is_zero() {
                    row.add_scaled(&pivot, -c);
                }
            }
            pivots.push((pivot_var, pivot));
        }
        (rows, pivots)
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

    /// A random sparse system over `vars` variables: fresh rows of one to
    /// four terms, mixed with zero rows, duplicates and combinations of
    /// two earlier rows (dependent rows, which elimination can cancel to
    /// zero).
    fn random_system(rng: &mut XorShift, vars: usize) -> Vec<LinearRow> {
        let mut rows: Vec<LinearRow> = Vec::new();
        for _ in 0..rng.range(1, 14) {
            let pick = |rng: &mut XorShift, n: usize| rng.range(0, n as i64 - 1) as usize;
            let row = match rng.range(0, 7) {
                0 => LinearRow::new(),
                1 if !rows.is_empty() => rows[pick(rng, rows.len())].clone(),
                2 if !rows.is_empty() => {
                    let mut row = rows[pick(rng, rows.len())].clone();
                    let other = rows[pick(rng, rows.len())].clone();
                    row.add_scaled(&other, Rational::from_integer(rng.range(-2, 2).into()));
                    row
                }
                _ => {
                    let constant = rng.range(-2, 2).into();
                    let terms: Vec<(usize, i128)> = (0..rng.range(1, 4))
                        .map(|_| {
                            let coef = [-3, -2, -1, 1, 2, 3][rng.range(0, 5) as usize];
                            (pick(rng, vars), coef)
                        })
                        .collect();
                    LinearRow::from_terms(terms, constant)
                }
            };
            rows.push(row);
        }
        rows
    }

    #[test]
    fn occurrence_indexed_sweep_matches_the_rescanning_reference() {
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let (mut cancelled, mut fill_in, mut never_pivoted, mut bounded) = (0, 0, 0, 0);
        for case in 0..1_000 {
            let vars = rng.range(1, 12) as usize;
            let rows = random_system(&mut rng, vars);
            let (eliminated, nonnegative) = (rng.next(), rng.next());
            let elim = |v: usize| eliminated >> v & 1 == 1;
            let nonneg = |v: usize| nonnegative >> v & 1 == 1;

            let expected = reference_sweep(rows.clone(), &elim);
            assert_eq!(sweep(rows.clone(), &elim), expected, "case {case}");
            // Without fill-in an update only keeps or cancels terms, so a
            // variable held by more rows afterwards means some row gained it.
            let (remaining, pivots) = &expected;
            let mut holders = vec![0i64; vars];
            for row in &rows {
                row.variables().for_each(|v| holders[v] -= 1);
            }
            for row in remaining.iter().chain(pivots.iter().map(|(_, row)| row)) {
                row.variables().for_each(|v| holders[v] += 1);
            }
            cancelled += remaining.iter().any(LinearRow::is_zero) as usize;
            fill_in += holders.iter().any(|&h| h > 0) as usize;
            never_pivoted += pivots
                .iter()
                .any(|(var, row)| row.variables().any(|v| v != *var && elim(v)))
                as usize;

            let reference = harvest(expected.0, expected.1, elim, nonneg);
            let result = eliminate_with_bounds(rows, elim, nonneg);
            assert_eq!(result, reference, "case {case}");
            bounded += !result.bounds.is_empty() as usize;
        }
        // Each shape the sweep must handle shows up in a good share of
        // the cases.
        for (shape, count) in [
            ("cancellation to zero", cancelled),
            ("fill-in", fill_in),
            ("never-pivoted eliminated variables", never_pivoted),
            ("harvested bounds", bounded),
        ] {
            assert!(count >= 50, "only {count} cases with {shape}");
        }
    }
}
