//! SMT backend for ADVOCAT.
//!
//! The deadlock-detection technique of the ADVOCAT paper reduces the search
//! for a cross-layer deadlock to the satisfiability of a formula mixing
//!
//! * Boolean variables (permanent *block*/*idle* status of channels,
//!   *dead* status of automata), and
//! * linear integer arithmetic over **bounded** variables (queue
//!   occupancies `0 ≤ #q.d ≤ size(q)`, automaton state indicators
//!   `A.s ∈ {0, 1}`), constrained further by the automatically derived
//!   cross-layer invariants.
//!
//! The original work hands this instance to an off-the-shelf SMT solver;
//! because the entire fragment is *bounded*, a complete decision procedure
//! only needs a SAT solver plus a finite-domain feasibility check.  This
//! crate implements exactly that as one DPLL(T) search, the theory checked
//! at every unit-propagation fixpoint inside the CDCL search:
//!
//! 1. [`cnf`] — Tseitin transformation mapping a [`Formula`] to CNF over
//!    propositional atoms (Boolean variables and canonicalised linear
//!    inequalities),
//! 2. [`sat`] — a CDCL SAT solver (two-watched literals, first-UIP conflict
//!    analysis, heap-served activity-based branching with phase saving,
//!    LBD-aware Luby restarts, learnt-database reduction),
//! 3. [`theory`] — a bounded linear-integer-arithmetic solver based on
//!    interval propagation and branch & bound, explaining every refutation,
//! 4. [`smt`] — the search tying the two together: interval bounds kept
//!    along the SAT trail cut off partial assignments, and a refuted
//!    assignment's theory lemma becomes a conflict clause of the running
//!    CDCL search.
//!
//! # Examples
//!
//! ```
//! use advocat_logic::{Formula, LinExpr, SmtSolver};
//!
//! let mut smt = SmtSolver::new();
//! let x = smt.new_int_var("x", 0, 5);
//! let y = smt.new_int_var("y", 0, 5);
//! // x + y = 4  and  x >= 3
//! smt.assert(Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(4)));
//! smt.assert(Formula::ge(LinExpr::var(x), LinExpr::constant(3)));
//! let model = smt.check().expect_sat();
//! assert_eq!(model.int_value(x) + model.int_value(y), 4);
//! assert!(model.int_value(x) >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
mod expr;
mod model;
pub mod sat;
pub mod smt;
pub mod theory;

pub use advocat_telemetry::{SolverProfile, Telemetry};
pub use expr::{BoolVar, CmpOp, Formula, IntVar, LinExpr, VarPool};
pub use model::Model;
pub use sat::{SatStats, SolverConfig};
pub use smt::{CheckConfig, SmtResult, SmtSolver, SolverStats};
