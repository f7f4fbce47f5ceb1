//! Exact numeric substrate for ADVOCAT's invariant generation.
//!
//! The invariant-derivation method of Chatterjee & Kishinevsky (extended by
//! ADVOCAT with automaton equations) builds a large, sparse system of linear
//! equations over flow counters (`λ`), transition counters (`κ`), queue
//! occupancies (`#q.d`) and automaton-state indicators (`A.s`), and then
//! eliminates the `λ`/`κ` variables by Gaussian elimination.  This crate
//! provides the exact arithmetic and the sparse elimination machinery used
//! for that step:
//!
//! * [`Rational`] — an exact `i128`-backed rational number,
//! * [`LinearRow`] — a sparse linear equation `Σ aᵢ·xᵢ + c = 0`,
//! * [`eliminate`] — Gaussian elimination with a caller-supplied variable
//!   elimination order, keeping only rows free of eliminated variables,
//! * [`eliminate_with_bounds`] — the same elimination, additionally
//!   harvesting the `≤` bounds implied by the nonnegativity of the
//!   eliminated counters (each pivot definition `e = −(K + c)` with
//!   `e ≥ 0` yields `K + c ≤ 0` over the kept variables).
//!
//! # Examples
//!
//! ```
//! use advocat_num::{LinearRow, Rational, eliminate};
//!
//! // x0 = x1 + x2   and   x0 = 1   ==>   x1 + x2 = 1 once x0 is eliminated.
//! let r1 = LinearRow::from_terms([(0, 1), (1, -1), (2, -1)], 0);
//! let r2 = LinearRow::from_terms([(0, 1)], -1);
//! let kept = eliminate(vec![r1, r2], |v| v == 0);
//! assert_eq!(kept.len(), 1);
//! assert_eq!(kept[0].coefficient(1), Rational::from_integer(1));
//! assert_eq!(kept[0].constant(), Rational::from_integer(-1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gauss;
mod rational;
mod row;

pub use gauss::{eliminate, eliminate_with_bounds, satisfies, Elimination};
pub use rational::{ParseRationalError, Rational};
pub use row::LinearRow;
