//! A CDCL SAT solver.
//!
//! This is the propositional core of the DPLL(T) search in [`crate::smt`]:
//! [`SatSolver::solve_with_theory`] hands every unit-propagation fixpoint
//! the search reaches to a theory check before it decides past it, the
//! complete assignment last.  The check sees the trail and how far down
//! backjumps and restarts cut it since its previous call, so a theory can
//! keep state along the trail and undo only what was retracted.  A theory
//! lemma refuting a partial or complete assignment acts as a conflict
//! clause of the running search, which backjumps only as far as the lemma
//! needs instead of starting over.  At a consistent fixpoint the theory
//! may also imply literals, each with a reason clause the search keeps
//! and resolves on like any other.  Without a theory
//! ([`SatSolver::solve_with_assumptions`]) the same loop accepts the first
//! complete assignment.
//!
//! It implements the standard conflict-driven clause-learning algorithm:
//! two-watched-literal unit propagation, first-UIP conflict analysis with
//! clause learning and non-chronological backjumping, exponential-decay
//! variable activities for branching (served from an indexed max-heap),
//! phase saving, Luby restarts modulated by an EMA of recent learnt-clause
//! LBDs, and periodic reduction of the learnt-clause database.
//!
//! The solver is incremental in two senses: clauses may be added between
//! calls to [`SatSolver::solve`], and [`SatSolver::solve_with_assumptions`]
//! solves under a set of assumed literals that are retracted when the call
//! returns — learnt clauses, variable activities and the watcher state all
//! survive into the next call, which is what makes closely related queries
//! (such as a queue-size sweep) cheap after the first one.  The assumptions
//! share one decision level, the first, so a restart or a backjump below
//! it re-establishes all of them with one propagation.
//!
//! Long sessions pay for that persistence: every learnt clause lengthens
//! the watcher lists every later propagation must scan.  The solver
//! therefore keeps learnt clauses in their own arena, tags each with its
//! *literal block distance* (LBD — the number of distinct decision levels
//! among its literals, a standard quality measure) and an activity score,
//! and periodically deletes the worst half of the deletable learnt clauses
//! ([`SolverConfig::clause_reduction`]).  The same sweep drops clauses that
//! level-zero units have permanently satisfied — for instance every clause
//! of a selector a caller retired by asserting its negation.
//!
//! # Examples
//!
//! ```
//! use advocat_logic::sat::{Lit, SatSolver};
//!
//! let mut solver = SatSolver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[Lit::positive(a), Lit::positive(b)]);
//! solver.add_clause(&[Lit::negative(a)]);
//! let model = solver.solve().expect("satisfiable");
//! assert!(!model[a]);
//! assert!(model[b]);
//! ```

use advocat_telemetry::{SolverProfile, Telemetry};
use std::fmt;
use std::time::Instant;

/// A propositional variable, identified by index.
pub type Var = usize;

/// A literal: a variable together with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    pub fn positive(var: Var) -> Lit {
        Lit((var as u32) << 1)
    }

    /// Creates the negative literal of `var`.
    pub fn negative(var: Var) -> Lit {
        Lit(((var as u32) << 1) | 1)
    }

    /// Creates a literal from a variable and a sign (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Lit {
        if positive {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        }
    }

    /// Returns the underlying variable.
    pub fn var(self) -> Var {
        (self.0 >> 1) as usize
    }

    /// Returns `true` for a positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns the complementary literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "¬x{}", self.var())
        }
    }
}

/// Reference to a clause: an index into the problem arena, or an index
/// into the learnt arena with [`LEARNT_BIT`] set.  Problem clauses are
/// only removed when permanently satisfied; learnt clauses additionally by
/// [`SatSolver::reduce_db`], so the two arenas age differently.
type ClauseRef = usize;

const LEARNT_BIT: usize = 1 << (usize::BITS - 1);

fn is_learnt(cr: ClauseRef) -> bool {
    cr & LEARNT_BIT != 0
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Literal block distance at learn time, tightened whenever the clause
    /// participates in conflict analysis again.  Zero for problem clauses.
    lbd: u32,
    /// Bumped whenever the clause appears in conflict analysis; the
    /// reduction pass deletes low-activity, high-LBD learnt clauses first.
    activity: f64,
}

/// Tuning knobs of the CDCL search: learnt-database reduction, the restart
/// schedule and phase saving.
///
/// The defaults enable everything and are sized so that the small queries
/// of a verification sweep behave exactly as before (the first reduction
/// only fires after [`SolverConfig::first_reduce`] conflicts), while long
/// sessions keep their learnt database and watcher lists bounded.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    /// Periodically delete the worst half of the deletable learnt clauses
    /// (and drop clauses permanently satisfied at level zero).
    pub clause_reduction: bool,
    /// Conflicts before the first database reduction.
    pub first_reduce: u64,
    /// The gap between reductions grows by this many conflicts each time,
    /// so the database is allowed to grow as the search matures.
    pub reduce_interval: u64,
    /// Learnt clauses with an LBD at or below this are never deleted
    /// ("glue" clauses); binary clauses are always kept.
    pub keep_lbd: u32,
    /// Unit of the Luby restart sequence, in conflicts.
    pub luby_base: u64,
    /// Force a restart early when the fast EMA of recent learnt-clause
    /// LBDs exceeds the slow EMA by this factor (the search is currently
    /// producing poor clauses).  Non-positive disables the modulation and
    /// leaves the pure Luby schedule.
    pub restart_ema_ratio: f64,
    /// Branch on the polarity each variable last held instead of a fixed
    /// negative default, keeping locality across restarts and queries.
    pub phase_saving: bool,
    /// Observability handle (disabled by default).  When enabled the
    /// solver collects a phase-attributed [`SolverProfile`] per query and
    /// emits `sat.restart` / `sat.reduce_db` trace events; when disabled
    /// the hot loop pays a single cached-boolean branch and reads no
    /// clocks.  The handle is excluded from engine-pool fingerprints, so
    /// attaching telemetry never changes engine reuse.
    pub telemetry: Telemetry,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            clause_reduction: true,
            first_reduce: 300,
            reduce_interval: 300,
            keep_lbd: 2,
            luby_base: 100,
            restart_ema_ratio: 1.25,
            phase_saving: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Statistics collected by the SAT solver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently stored (live; decremented when
    /// the reduction pass deletes clauses).
    pub learnt_clauses: u64,
    /// Total number of learnt clauses ever stored (monotone).
    pub total_learnt: u64,
    /// Number of learnt-database reductions performed.
    pub reduced_dbs: u64,
    /// Number of clauses physically deleted by reductions: worst-half
    /// learnt clauses plus clauses permanently satisfied at level zero.
    pub deleted_clauses: u64,
}

/// An indexed binary max-heap over variable activities: `pop` yields the
/// unassigned-or-not variable of highest activity in O(log n), replacing a
/// linear scan over all variables per decision.
///
/// Invariant: every **unassigned** variable is in the heap (assigned
/// variables may linger and are skipped lazily when popped).
#[derive(Clone, Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `ABSENT`.
    pos: Vec<usize>,
}

impl VarHeap {
    const ABSENT: usize = usize::MAX;

    fn push_new_var(&mut self, activity: &[f64]) {
        let v = self.pos.len();
        self.pos.push(Self::ABSENT);
        self.insert(v, activity);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v] != Self::ABSENT
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.pos[top] = Self::ABSENT;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap property after `v`'s activity increased.
    fn bumped(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v], activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i]] <= activity[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < self.heap.len() && activity[self.heap[right]] > activity[self.heap[left]] {
                best = right;
            }
            if activity[self.heap[best]] <= activity[self.heap[i]] {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }
}

/// An exponential moving average with initialization-bias correction: the
/// raw recurrence starts from zero and would under-report until about
/// `1/alpha` samples have arrived (badly so for the slow restart EMA), so
/// [`Ema::get`] divides out the remaining bias, as in splr/Glucose.
#[derive(Clone, Copy, Debug)]
struct Ema {
    value: f64,
    alpha: f64,
    /// Remaining initialization bias: `(1 - alpha)^samples`.
    bias: f64,
}

impl Ema {
    fn new(alpha: f64) -> Self {
        Ema {
            value: 0.0,
            alpha,
            bias: 1.0,
        }
    }

    fn update(&mut self, x: f64) {
        self.value += self.alpha * (x - self.value);
        self.bias *= 1.0 - self.alpha;
    }

    fn get(&self) -> f64 {
        if self.bias >= 1.0 {
            0.0
        } else {
            self.value / (1.0 - self.bias)
        }
    }

    /// Re-centres the average on `target` without touching the remaining
    /// bias, so [`Ema::get`] reports `target` until new samples arrive.
    fn align_to(&mut self, target: f64) {
        self.value = target * (1.0 - self.bias);
    }
}

/// The `i`-th element (0-indexed) of the Luby sequence 1, 1, 2, 1, 1, 2,
/// 4, 1, 1, 2, 1, 1, 2, 4, 8, … used to pace restarts.
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index `i`, then the position
    // of `i` inside it (MiniSat's formulation with base 2).
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

/// A conflict-driven clause-learning SAT solver.
#[derive(Clone, Debug)]
pub struct SatSolver {
    /// Problem clauses (everything added through [`SatSolver::add_clause`]).
    clauses: Vec<Clause>,
    /// Learnt clauses, subject to database reduction.
    learnts: Vec<Clause>,
    watches: Vec<Vec<ClauseRef>>,
    assigns: Vec<Option<bool>>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    /// Occurrences of each variable across the live clauses of both
    /// arenas.  A variable with no occurrences is unconstrained: branching
    /// skips it (its model value defaults to `false`), so variables no
    /// clause mentions — atoms only ever assumed, or variables whose
    /// clauses the reduction pass reclaimed — cost no decision and no
    /// propagation in queries that do not assume them.
    occurs: Vec<u32>,
    /// Last polarity each variable held (phase saving); initially negative,
    /// which is a good default for the mostly-Horn deadlock encodings.
    phases: Vec<bool>,
    /// Scratch for LBD computation, stamped per generation.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    /// Scratch for conflict analysis, cleared after every use (kept on the
    /// solver so a conflict does not pay an O(vars) allocation).
    seen: Vec<bool>,
    /// Fast/slow exponential moving averages of learnt-clause LBDs.
    ema_fast: Ema,
    ema_slow: Ema,
    /// Conflict count at which the next database reduction fires.
    next_reduce: u64,
    /// Level-zero trail length at the last satisfied-clause sweep; new
    /// permanent units (a learnt unit, a unit theory lemma, a retired
    /// selector) trigger another sweep at the next solve.
    simplified_trail_len: usize,
    config: SolverConfig,
    /// Cached `config.telemetry.is_enabled()`: the only thing the hot
    /// search loop branches on when telemetry is disabled.
    profiling: bool,
    /// Phase attribution accumulated since the last
    /// [`SatSolver::take_profile`]; empty while `profiling` is off.
    profile: SolverProfile,
    ok: bool,
    stats: SatStats,
    /// The lowest trail length a backjump or restart reached since the
    /// theory's previous check ([`Fixpoint::kept`]).
    kept: usize,
}

/// Result returned when the solver proves unsatisfiability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unsat;

/// The search state a theory check sees: a unit-propagation fixpoint
/// without a conflict (see [`SatSolver::solve_with_theory`]).
#[derive(Clone, Copy, Debug)]
pub struct Fixpoint<'a> {
    /// Each variable's value, `None` while unassigned.
    pub assignment: &'a [Option<bool>],
    /// The assigned literals, oldest first.
    pub trail: &'a [Lit],
    /// The lowest trail length any backjump or restart reached since the
    /// previous check of this search (zero at the first): `trail[..kept]`
    /// is what that check saw up to `kept`, and everything it saw beyond
    /// was retracted.
    pub kept: usize,
    /// Whether every variable some live clause mentions is assigned.  The
    /// rest stay unassigned; their model value is `false`.
    pub complete: bool,
    /// How many live clauses mention each variable.  An unassigned
    /// variable none mentions is never decided and nothing propagates
    /// from it, so implying it would only add a clause.
    pub occurrences: &'a [u32],
}

/// A theory's answer to a fixpoint of the search (see
/// [`SatSolver::solve_with_theory`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryCheck {
    /// The assignment is consistent: a complete one ends the search as its
    /// model, and the search decides past a partial one.
    Consistent,
    /// The assignment is refuted by this clause of distinct literals, every
    /// one of which it falsifies; the search adds the clause and goes on.
    Lemma(Vec<Lit>),
    /// The assignment is consistent and implies the first literal of each
    /// clause: that literal is unassigned, every other one is false, and
    /// no two clauses imply the same variable.  The search adds each clause
    /// for good, assigns its first literal with the clause as the reason,
    /// propagates and checks the next fixpoint.
    Imply(Vec<Vec<Lit>>),
    /// The search ends without an answer (a budget is spent or the theory
    /// gave up).
    Stop,
}

/// What one [`SatSolver::decide`] step did.
enum Step {
    /// Opened a decision level for the assumptions or a branching decision.
    Decided,
    /// Every constrained variable is assigned.
    Complete,
    /// An assumption is false at level zero or contradicts another.
    FailedAssumption,
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Self {
        SatSolver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with explicit search parameters.
    pub fn with_config(config: SolverConfig) -> Self {
        SatSolver {
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::default(),
            occurs: Vec::new(),
            phases: Vec::new(),
            lbd_stamp: vec![0],
            lbd_gen: 0,
            seen: Vec::new(),
            ema_fast: Ema::new(1.0 / 32.0),
            ema_slow: Ema::new(1.0 / 4096.0),
            next_reduce: config.first_reduce,
            simplified_trail_len: 0,
            profiling: config.telemetry.is_enabled(),
            profile: SolverProfile::default(),
            config,
            ok: true,
            stats: SatStats::default(),
            kept: 0,
        }
    }

    /// Returns the current search parameters.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Replaces the search parameters.  Takes effect at the next solve;
    /// the reduction countdown restarts from the new
    /// [`SolverConfig::first_reduce`].
    pub fn set_config(&mut self, config: SolverConfig) {
        if self.config != config {
            self.next_reduce = self.stats.conflicts + config.first_reduce;
            self.profiling = config.telemetry.is_enabled();
            self.config = config;
        }
    }

    /// Takes (and resets) the phase-attributed profile accumulated since
    /// the last call.  Empty unless [`SolverConfig::telemetry`] is
    /// enabled.
    pub fn take_profile(&mut self) -> SolverProfile {
        std::mem::take(&mut self.profile)
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = self.assigns.len();
        self.assigns.push(None);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phases.push(false);
        self.occurs.push(0);
        self.lbd_stamp.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_new_var(&self.activity);
        v
    }

    /// Returns the number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Returns solver statistics.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Adds a clause.  Returns `false` if the solver is already known to be
    /// unsatisfiable (either before the call or as a result of it).
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was never allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        // Deduplicate and detect tautologies with one sort-and-scan pass
        // (the literal code places the two polarities of a variable next
        // to each other), instead of a quadratic `contains` per literal.
        let mut clause: Vec<Lit> = lits.to_vec();
        for &lit in &clause {
            assert!(lit.var() < self.num_vars(), "literal for unknown variable");
        }
        clause.sort_unstable_by_key(|l| l.code());
        clause.dedup();
        if clause.windows(2).any(|w| w[0].var() == w[1].var()) {
            return true; // tautology
        }
        // Remove literals already false at level 0; detect satisfied clauses.
        clause.retain(|&l| self.value(l) != Some(false) || self.levels[l.var()] != 0);
        if clause
            .iter()
            .any(|&l| self.value(l) == Some(true) && self.levels[l.var()] == 0)
        {
            return true;
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if !self.enqueue(clause[0], None) {
                    self.ok = false;
                    return false;
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach(clause, false, 0);
                true
            }
        }
    }

    /// Appends a clause to the appropriate arena and watches its first two
    /// literals.
    fn attach(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> ClauseRef {
        for &lit in &lits {
            let v = lit.var();
            if self.occurs[v] == 0 && self.assigns[v].is_none() {
                // The variable was unconstrained and may have been skipped
                // out of the branching heap; it matters again now.
                self.order.insert(v, &self.activity);
            }
            self.occurs[v] += 1;
        }
        let (arena, tag) = if learnt {
            (&mut self.learnts, LEARNT_BIT)
        } else {
            (&mut self.clauses, 0)
        };
        let cr = arena.len() | tag;
        self.watches[lits[0].code()].push(cr);
        self.watches[lits[1].code()].push(cr);
        arena.push(Clause {
            lits,
            lbd,
            activity: 0.0,
        });
        cr
    }

    fn clause(&self, cr: ClauseRef) -> &Clause {
        if is_learnt(cr) {
            &self.learnts[cr & !LEARNT_BIT]
        } else {
            &self.clauses[cr]
        }
    }

    fn clause_mut(&mut self, cr: ClauseRef) -> &mut Clause {
        if is_learnt(cr) {
            &mut self.learnts[cr & !LEARNT_BIT]
        } else {
            &mut self.clauses[cr]
        }
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assigns[lit.var()].map(|v| v == lit.is_positive())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) -> bool {
        match self.value(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.assigns[lit.var()] = Some(lit.is_positive());
                self.levels[lit.var()] = self.decision_level();
                self.reasons[lit.var()] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = lit.negated();
            // The list is compacted in place: clauses that keep watching
            // `falsified` move down to the first `kept` slots, the others
            // go to the list of their new watch (never this one: the new
            // watch is not false).
            let mut watch_list = std::mem::take(&mut self.watches[falsified.code()]);
            let mut kept = 0;
            let mut conflict: Option<ClauseRef> = None;
            let mut pos = 0;
            while pos < watch_list.len() {
                let cr = watch_list[pos];
                pos += 1;
                // Make sure the falsified literal is at position 1.
                let (w0, w1) = {
                    let c = self.clause_mut(cr);
                    if c.lits[0] == falsified {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(w1, falsified);
                if self.value(w0) == Some(true) {
                    watch_list[kept] = cr;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                let len = self.clause(cr).lits.len();
                for k in 2..len {
                    let cand = self.clause(cr).lits[k];
                    if self.value(cand) != Some(false) {
                        self.clause_mut(cr).lits.swap(1, k);
                        self.watches[cand.code()].push(cr);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                watch_list[kept] = cr;
                kept += 1;
                if !self.enqueue(w0, Some(cr)) {
                    // Keep the unvisited rest of the list as it is.
                    conflict = Some(cr);
                    watch_list.copy_within(pos.., kept);
                    kept += watch_list.len() - pos;
                    break;
                }
            }
            watch_list.truncate(kept);
            self.watches[falsified.code()] = watch_list;
            if let Some(cr) = conflict {
                self.qhead = self.trail.len();
                return Some(cr);
            }
        }
        None
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        let phase_saving = self.config.phase_saving;
        for &lit in &self.trail[keep..] {
            let v = lit.var();
            if phase_saving {
                self.phases[v] = lit.is_positive();
            }
            self.assigns[v] = None;
            self.reasons[v] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
        self.kept = self.kept.min(keep);
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(var, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    fn bump_clause(&mut self, cr: ClauseRef) {
        debug_assert!(is_learnt(cr));
        let inc = self.cla_inc;
        self.clause_mut(cr).activity += inc;
        if self.clause(cr).activity > 1e20 {
            for c in &mut self.learnts {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Number of distinct decision levels among `lits` (their *literal
    /// block distance*), the learnt-clause quality measure of Glucose.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen += 1;
        let mut distinct = 0u32;
        for &lit in lits {
            let level = self.levels[lit.var()] as usize;
            if self.lbd_stamp[level] != self.lbd_gen {
                self.lbd_stamp[level] = self.lbd_gen;
                distinct += 1;
            }
        }
        distinct
    }

    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(0)]; // placeholder for the asserting literal
                                                           // The persistent scratch buffer avoids an O(vars) allocation per
                                                           // conflict; taking it out keeps the borrow checker happy across
                                                           // the `bump_var` calls below.
        let mut seen = std::mem::take(&mut self.seen);
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut asserting = None;

        loop {
            let reason_lits: Vec<Lit> = self.clause(conflict).lits.clone();
            if is_learnt(conflict) {
                // A learnt clause that keeps causing conflicts is worth
                // keeping: bump it and tighten its stored LBD.
                self.bump_clause(conflict);
                let lbd = self.compute_lbd(&reason_lits);
                let c = self.clause_mut(conflict);
                if lbd < c.lbd {
                    c.lbd = lbd;
                }
            }
            let skip = usize::from(asserting.is_some());
            for &lit in reason_lits.iter().skip(skip) {
                let v = lit.var();
                if !seen[v] && self.levels[v] > 0 {
                    seen[v] = true;
                    self.bump_var(v);
                    if self.levels[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(lit);
                    }
                }
            }
            // Find the next literal of the current decision level on the trail.
            loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if seen[lit.var()] {
                    asserting = Some(lit);
                    break;
                }
            }
            let lit = asserting.expect("found a seen literal");
            counter -= 1;
            seen[lit.var()] = false;
            if counter == 0 {
                learnt[0] = lit.negated();
                break;
            }
            conflict = self.reasons[lit.var()].expect("non-decision literal has a reason");
        }

        // Every current-level mark was cleared as it was dequeued from the
        // trail; the marks that remain are exactly the learnt literals.
        for &lit in &learnt[1..] {
            seen[lit.var()] = false;
        }
        debug_assert!(seen.iter().all(|&s| !s), "analysis scratch not clean");
        self.seen = seen;

        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_idx = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var()] > self.levels[learnt[max_idx].var()] {
                    max_idx = i;
                }
            }
            learnt.swap(1, max_idx);
            self.levels[learnt[1].var()]
        };
        (learnt, backjump)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v].is_none() && self.occurs[v] > 0 {
                return Some(v);
            }
        }
        None
    }

    /// Deletes the worst half of the deletable learnt clauses (and, as
    /// part of the same garbage-collection pass, every clause permanently
    /// satisfied at level zero).
    fn reduce_db(&mut self) {
        // Rank the deletable learnt clauses (everything except binary and
        // glue clauses) worst-first: high LBD, then low activity.
        let mut deletable: Vec<usize> = (0..self.learnts.len())
            .filter(|&i| {
                let c = &self.learnts[i];
                c.lits.len() > 2 && c.lbd > self.config.keep_lbd
            })
            .collect();
        deletable.sort_by(|&a, &b| {
            let (ca, cb) = (&self.learnts[a], &self.learnts[b]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.total_cmp(&cb.activity))
        });
        let mut drop_learnt = vec![false; self.learnts.len()];
        for &i in deletable.iter().take(deletable.len() / 2) {
            drop_learnt[i] = true;
        }
        self.collect_garbage(&drop_learnt);
        self.stats.reduced_dbs += 1;
        self.next_reduce = self.stats.conflicts
            + self.config.first_reduce
            + self.stats.reduced_dbs * self.config.reduce_interval;
    }

    /// Drops every clause a level-zero unit has permanently satisfied —
    /// for instance every clause of a selector asserted false for good.
    /// Cheap bookkeeping makes it a no-op unless the level-zero trail grew
    /// since the last sweep.
    fn simplify(&mut self) {
        if self.trail.len() == self.simplified_trail_len {
            return;
        }
        let no_marks = vec![false; self.learnts.len()];
        self.collect_garbage(&no_marks);
    }

    /// Removes marked learnt clauses and permanently satisfied clauses
    /// from both arenas, strips falsified literals, and rebuilds the
    /// watcher lists and occurrence counts.
    ///
    /// Must be called at decision level zero with propagation complete, so
    /// every surviving clause has at least two unassigned literals after
    /// satisfied clauses are removed and falsified literals are stripped —
    /// which makes re-watching the first two literals sound.  Reasons are
    /// cleared wholesale: at level zero they are never dereferenced again
    /// (conflict analysis skips level-zero variables), and clearing them
    /// keeps no dangling references into the compacted arenas.
    fn collect_garbage(&mut self, drop_learnt: &[bool]) {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert_eq!(self.qhead, self.trail.len());

        for reason in &mut self.reasons {
            *reason = None;
        }

        let satisfied = |solver: &Self, c: &Clause| {
            c.lits
                .iter()
                .any(|&l| solver.value(l) == Some(true) && solver.levels[l.var()] == 0)
        };

        // Compact both arenas, additionally dropping clauses a level-zero
        // unit satisfies forever and stripping falsified literals.
        let mut deleted = 0u64;
        let mut compact = |solver: &mut Self, learnt: bool, drop: &[bool]| {
            let mut arena = std::mem::take(if learnt {
                &mut solver.learnts
            } else {
                &mut solver.clauses
            });
            let mut kept = Vec::with_capacity(arena.len());
            for (i, mut c) in arena.drain(..).enumerate() {
                if (learnt && drop[i]) || satisfied(solver, &c) {
                    deleted += 1;
                    continue;
                }
                c.lits
                    .retain(|&l| !(solver.value(l) == Some(false) && solver.levels[l.var()] == 0));
                debug_assert!(
                    c.lits.len() >= 2,
                    "an unsatisfied clause at level zero cannot be unit after propagation"
                );
                kept.push(c);
            }
            if learnt {
                solver.learnts = kept;
            } else {
                solver.clauses = kept;
            }
        };
        compact(self, true, drop_learnt);
        compact(self, false, &[]);

        for watch in &mut self.watches {
            watch.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            self.watches[c.lits[0].code()].push(i);
            self.watches[c.lits[1].code()].push(i);
        }
        for (i, c) in self.learnts.iter().enumerate() {
            self.watches[c.lits[0].code()].push(i | LEARNT_BIT);
            self.watches[c.lits[1].code()].push(i | LEARNT_BIT);
        }

        // Recount occurrences: variables all of whose clauses were just
        // deleted become unconstrained and drop out of branching entirely.
        self.occurs.iter_mut().for_each(|o| *o = 0);
        for c in self.clauses.iter().chain(self.learnts.iter()) {
            for &lit in &c.lits {
                self.occurs[lit.var()] += 1;
            }
        }

        self.stats.deleted_clauses += deleted;
        self.stats.learnt_clauses = self.learnts.len() as u64;
        self.simplified_trail_len = self.trail.len();
    }

    /// Feeds a fresh learnt-clause LBD into the restart EMAs.
    fn note_learnt_lbd(&mut self, lbd: u32) {
        let x = lbd as f64;
        self.ema_fast.update(x);
        self.ema_slow.update(x);
    }

    /// `true` when the recent learnt clauses are markedly worse (higher
    /// LBD) than the long-run average: restarting early redirects the
    /// search instead of riding out the full Luby interval.
    fn ema_wants_restart(&self) -> bool {
        self.config.restart_ema_ratio > 0.0
            && self.stats.conflicts > 128
            && self.ema_fast.get() > self.ema_slow.get() * self.config.restart_ema_ratio
    }

    /// [`SatSolver::propagate`] with phase attribution: reads the clock
    /// only while profiling is on, so the disabled path costs one branch.
    fn timed_propagate(&mut self) -> Option<ClauseRef> {
        if self.profiling {
            let start = Instant::now();
            let conflict = self.propagate();
            self.profile.propagate.add(start.elapsed());
            conflict
        } else {
            self.propagate()
        }
    }

    /// Solves the current clause set.
    ///
    /// Returns `Ok(model)` with one Boolean per variable when satisfiable,
    /// and `Err(Unsat)` otherwise.  The solver always returns to decision
    /// level zero, so further clauses can be added afterwards.
    pub fn solve(&mut self) -> Result<Vec<bool>, Unsat> {
        self.solve_with_assumptions(&[])
    }

    /// Solves the current clause set under the given assumption literals.
    ///
    /// The assumptions together are the first decision of the search: all
    /// of them are placed at decision level 1, followed by one propagation
    /// (and, under [`SatSolver::solve_with_theory`], one theory check).
    /// They are retracted before the call returns, so the same solver can
    /// answer a sequence of related queries while keeping every learnt
    /// clause, the variable activities and the watcher state.
    ///
    /// `Err(Unsat)` means no assignment satisfies the clause set under the
    /// assumptions: an assumption is false at level zero or contradicts
    /// another, or a conflict arises at level 1.  Unlike a conflict at
    /// level zero, that leaves the solver usable.
    ///
    /// # Panics
    ///
    /// Panics if an assumption refers to a variable that was never
    /// allocated.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Result<Vec<bool>, Unsat> {
        self.solve_with_theory(assumptions, |_| TheoryCheck::Consistent)
            .map(|model| model.expect("a theory that accepts every assignment never stops"))
    }

    /// Solves under assumptions like [`SatSolver::solve_with_assumptions`],
    /// with `theory` checking every unit-propagation fixpoint the search
    /// reaches before it decides past it.
    ///
    /// `theory` sees the assignment and the trail of each [`Fixpoint`],
    /// and the lowest trail length backjumps and restarts reached since
    /// its previous call ([`Fixpoint::kept`]), so state kept along the
    /// trail is brought up to date by undoing only what was retracted.
    /// The last call of a search that finds a model is at a
    /// [`Fixpoint::complete`] assignment; one the search left unassigned
    /// because no live clause mentions it has model value `false`.  A
    /// [`TheoryCheck::Lemma`] at a partial or complete assignment joins
    /// the problem clauses for good and acts as a conflict of the running
    /// search, which backjumps only as far as the lemma needs and
    /// continues:
    ///
    /// * a unit lemma becomes a level-zero fact;
    /// * a lemma with one literal at its highest level backjumps to its
    ///   next-highest level and asserts that literal there;
    /// * a lemma with several literals at its highest level backtracks to
    ///   that level and goes through first-UIP analysis like any conflict
    ///   (and counts as one in [`SatStats::conflicts`]).
    ///
    /// A lemma over the assumptions and what they imply alone is a conflict
    /// at level 1, which refutes the assumptions.
    ///
    /// A [`TheoryCheck::Imply`] at a consistent fixpoint assigns the
    /// literals the theory implies, each with its clause as the reason and
    /// the clause kept as a problem clause, and the search propagates them
    /// before it asks the theory again.  Conflict analysis resolves on
    /// these reasons like on any other clause.
    ///
    /// Returns `Ok(Some(model))` for the first complete assignment `theory`
    /// accepts, `Ok(None)` when it stops the search, and `Err(Unsat)` when
    /// no assignment is left.  The solver is back at decision level zero
    /// in every case.
    ///
    /// # Panics
    ///
    /// Panics if an assumption refers to a variable that was never
    /// allocated, or a lemma holds a literal the assignment does not
    /// falsify.
    pub fn solve_with_theory(
        &mut self,
        assumptions: &[Lit],
        mut theory: impl FnMut(Fixpoint<'_>) -> TheoryCheck,
    ) -> Result<Option<Vec<bool>>, Unsat> {
        if !self.ok {
            return Err(Unsat);
        }
        for lit in assumptions {
            assert!(
                lit.var() < self.num_vars(),
                "assumption for unknown variable"
            );
        }
        self.cancel_until(0);
        self.kept = 0;
        if self.timed_propagate().is_some() {
            self.ok = false;
            return Err(Unsat);
        }
        if self.config.clause_reduction {
            self.simplify();
        }
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = self.config.luby_base * luby(self.stats.restarts);
        // A lemma with several literals at its highest level: a conflict
        // no propagation will report, since its literals were false
        // before it was attached.
        let mut lemma_conflict: Option<ClauseRef> = None;

        loop {
            if let Some(conflict) = lemma_conflict.take().or_else(|| self.timed_propagate()) {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.profiling {
                    self.profile.conflicts += 1;
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Err(Unsat);
                }
                if self.decision_level() == 1 && !assumptions.is_empty() {
                    // The assumptions and what they imply conflict: they
                    // are refuted, the clause set is not.
                    self.cancel_until(0);
                    return Err(Unsat);
                }
                let analyze_start = self.profiling.then(Instant::now);
                let (learnt, backjump) = self.analyze(conflict);
                // LBD is measured before backjumping, while the literals
                // still carry the levels the conflict saw.
                let lbd = self.compute_lbd(&learnt);
                self.note_learnt_lbd(lbd);
                if let Some(start) = analyze_start {
                    self.profile.analyze.add(start.elapsed());
                }
                self.cancel_until(backjump);
                if learnt.len() == 1 {
                    let ok = self.enqueue(learnt[0], None);
                    debug_assert!(ok, "asserting literal must be enqueueable");
                } else {
                    let asserting = learnt[0];
                    let cr = self.attach(learnt, true, lbd);
                    self.stats.learnt_clauses += 1;
                    self.stats.total_learnt += 1;
                    let ok = self.enqueue(asserting, Some(cr));
                    debug_assert!(ok, "asserting literal must be enqueueable");
                }
                self.decay_activities();
                continue;
            }
            if conflicts_since_restart > 0
                && (conflicts_since_restart >= restart_limit
                    || (conflicts_since_restart >= 16 && self.ema_wants_restart()))
            {
                conflicts_since_restart = 0;
                self.stats.restarts += 1;
                restart_limit = self.config.luby_base * luby(self.stats.restarts);
                let restart_start = if self.profiling {
                    // The timeline samples the EMAs before the alignment
                    // below erases what the restart decision saw.
                    self.profile
                        .restarts
                        .push(advocat_telemetry::RestartSample {
                            conflicts: self.stats.conflicts,
                            lbd_ema_fast: self.ema_fast.get(),
                            lbd_ema_slow: self.ema_slow.get(),
                        });
                    let conflicts = self.stats.conflicts;
                    self.config
                        .telemetry
                        .event_with("sat.restart", || vec![("conflicts", conflicts.to_string())]);
                    Some(Instant::now())
                } else {
                    None
                };
                // Restarting resets the fast EMA's influence by aligning it
                // with the long-run average, so one bad stretch does not
                // force a cascade of restarts.
                let long_run = self.ema_slow.get();
                self.ema_fast.align_to(long_run);
                self.cancel_until(0);
                if let Some(start) = restart_start {
                    self.profile.restart.add(start.elapsed());
                }
                continue;
            }
            if self.config.clause_reduction && self.stats.conflicts >= self.next_reduce {
                self.cancel_until(0);
                let reduce_start = self.profiling.then(Instant::now);
                self.reduce_db();
                if let Some(start) = reduce_start {
                    self.profile.reduce.add(start.elapsed());
                    let (live, total) = (self.stats.learnt_clauses, self.stats.total_learnt);
                    self.config.telemetry.event_with("sat.reduce_db", || {
                        vec![
                            ("live_learnts", live.to_string()),
                            ("total_learnts", total.to_string()),
                        ]
                    });
                }
                continue;
            }
            // The theory sees every fixpoint before the search decides
            // past it.
            match self.consult(&mut theory, false) {
                TheoryCheck::Consistent => {}
                TheoryCheck::Stop => {
                    self.cancel_until(0);
                    return Ok(None);
                }
                TheoryCheck::Lemma(lemma) => {
                    lemma_conflict = self.timed_add_lemma(lemma)?;
                    continue;
                }
                TheoryCheck::Imply(clauses) => {
                    self.timed_imply(clauses)?;
                    continue;
                }
            }
            let decide_start = self.profiling.then(Instant::now);
            let step = self.decide(assumptions);
            if let Some(start) = decide_start {
                self.profile.decide.add(start.elapsed());
            }
            match step {
                Step::Decided => {}
                Step::FailedAssumption => {
                    self.cancel_until(0);
                    return Err(Unsat);
                }
                // The fixpoint the theory just accepted is complete: it
                // sees it once more as such.
                Step::Complete => match self.consult(&mut theory, true) {
                    TheoryCheck::Consistent => {
                        let model: Vec<bool> =
                            self.assigns.iter().map(|a| a.unwrap_or(false)).collect();
                        self.cancel_until(0);
                        return Ok(Some(model));
                    }
                    TheoryCheck::Stop => {
                        self.cancel_until(0);
                        return Ok(None);
                    }
                    TheoryCheck::Lemma(lemma) => {
                        lemma_conflict = self.timed_add_lemma(lemma)?;
                    }
                    TheoryCheck::Imply(clauses) => self.timed_imply(clauses)?,
                },
            }
        }
    }

    /// Hands the current fixpoint to `theory`; the next call's
    /// [`Fixpoint::kept`] starts from the trail it saw.
    fn consult(
        &mut self,
        theory: &mut impl FnMut(Fixpoint<'_>) -> TheoryCheck,
        complete: bool,
    ) -> TheoryCheck {
        let check = theory(Fixpoint {
            assignment: &self.assigns,
            trail: &self.trail,
            kept: self.kept,
            complete,
            occurrences: &self.occurs,
        });
        self.kept = self.trail.len();
        check
    }

    /// [`SatSolver::add_lemma`] charged to the `block` phase.
    fn timed_add_lemma(&mut self, lemma: Vec<Lit>) -> Result<Option<ClauseRef>, Unsat> {
        let block_start = self.profiling.then(Instant::now);
        let added = self.add_lemma(lemma);
        if let Some(start) = block_start {
            self.profile.block.add(start.elapsed());
        }
        added
    }

    /// [`SatSolver::imply`] charged to the `block` phase.
    fn timed_imply(&mut self, clauses: Vec<Vec<Lit>>) -> Result<(), Unsat> {
        let block_start = self.profiling.then(Instant::now);
        let implied = self.imply(clauses);
        if let Some(start) = block_start {
            self.profile.block.add(start.elapsed());
        }
        implied
    }

    /// Assigns the literals a theory implies ([`TheoryCheck::Imply`]).
    /// Each clause joins the problem clauses for good, watched on its
    /// implied literal and its highest-level false literal, and is the
    /// reason of the implied literal, which is assigned at the current
    /// decision level even when its reason is false below it.  A backjump
    /// that lands between those levels leaves the clause unit but
    /// unwatched until the literal is implied again; a decision against
    /// the literal still meets the clause as a conflict.  An implication
    /// whose reason is false at level zero alone is a level-zero fact: it
    /// is asserted there, like a unit lemma, once the others are assigned,
    /// and `Err(Unsat)` means two such facts contradict each other.
    fn imply(&mut self, clauses: Vec<Vec<Lit>>) -> Result<(), Unsat> {
        let mut facts: Vec<Lit> = Vec::new();
        for mut clause in clauses {
            let implied = clause[0];
            assert_eq!(
                self.value(implied),
                None,
                "implied literal {implied:?} is already assigned"
            );
            for &lit in &clause[1..] {
                assert_eq!(
                    self.value(lit),
                    Some(false),
                    "reason literal {lit:?} is not false under the assignment"
                );
            }
            if let Some(highest) = (1..clause.len()).max_by_key(|&k| self.levels[clause[k].var()]) {
                clause.swap(1, highest);
            }
            if clause.len() == 1 || (self.levels[clause[1].var()] == 0 && self.decision_level() > 0)
            {
                facts.push(implied);
                continue;
            }
            let cr = self.attach(clause, false, 0);
            self.enqueue(implied, Some(cr));
        }
        if !facts.is_empty() {
            self.cancel_until(0);
            for fact in facts {
                if !self.enqueue(fact, None) {
                    self.ok = false;
                    return Err(Unsat);
                }
            }
        }
        Ok(())
    }

    /// Opens the next decision level: at level zero, level 1 with every
    /// assumption on it, else a branching decision.  Restarts and
    /// backjumps to level zero retract the assumptions; they are
    /// re-established here, all at once.  Level 1 is opened even when
    /// every assumption already holds at level zero, so a conflict at
    /// level 1 always refutes the assumptions.
    fn decide(&mut self, assumptions: &[Lit]) -> Step {
        if self.decision_level() == 0 && !assumptions.is_empty() {
            self.stats.decisions += 1;
            self.trail_lim.push(self.trail.len());
            for &p in assumptions {
                match self.value(p) {
                    Some(true) => {}
                    Some(false) => return Step::FailedAssumption,
                    None => {
                        let ok = self.enqueue(p, None);
                        debug_assert!(ok, "assumption variable was unassigned");
                    }
                }
            }
            return Step::Decided;
        }
        let Some(v) = self.pick_branch_var() else {
            return Step::Complete;
        };
        self.stats.decisions += 1;
        self.trail_lim.push(self.trail.len());
        let polarity = self.config.phase_saving && self.phases[v];
        let ok = self.enqueue(Lit::new(v, polarity), None);
        debug_assert!(ok, "decision variable was unassigned");
        Step::Decided
    }

    /// Attaches a theory lemma the current assignment falsifies as a
    /// permanent problem clause and retracts as much of the assignment as
    /// the lemma needs (see [`SatSolver::solve_with_theory`]).  Returns the
    /// lemma when it is a conflict at the level backtracked to, and
    /// `Err(Unsat)` when it is false at level zero.
    fn add_lemma(&mut self, mut lemma: Vec<Lit>) -> Result<Option<ClauseRef>, Unsat> {
        for &lit in &lemma {
            assert_eq!(
                self.value(lit),
                Some(false),
                "theory lemma literal {lit:?} is not false under the assignment"
            );
        }
        // The highest-level literal first, the next-highest second: the two
        // watches of an asserting clause.
        for i in 0..lemma.len().min(2) {
            let highest = (i..lemma.len())
                .max_by_key(|&k| self.levels[lemma[k].var()])
                .expect("non-empty range");
            lemma.swap(i, highest);
        }
        match lemma.len() {
            0 => {
                self.cancel_until(0);
                self.ok = false;
                Err(Unsat)
            }
            1 => {
                self.cancel_until(0);
                if !self.enqueue(lemma[0], None) {
                    self.ok = false;
                    return Err(Unsat);
                }
                Ok(None)
            }
            _ => {
                let top = self.levels[lemma[0].var()];
                let next = self.levels[lemma[1].var()];
                let asserting = lemma[0];
                let cr = self.attach(lemma, false, 0);
                if next < top {
                    self.cancel_until(next);
                    let ok = self.enqueue(asserting, Some(cr));
                    debug_assert!(ok, "asserting literal must be enqueueable");
                    Ok(None)
                } else {
                    self.cancel_until(top);
                    Ok(Some(cr))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    /// A configuration that churns the database hard: reductions every few
    /// conflicts, nothing protected by LBD, tiny Luby unit.  Used to make
    /// the new machinery fire even on the small test instances.
    fn churn_config() -> SolverConfig {
        SolverConfig {
            clause_reduction: true,
            first_reduce: 4,
            reduce_interval: 2,
            keep_lbd: 0,
            luby_base: 2,
            restart_ema_ratio: 1.1,
            phase_saving: true,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn literal_encoding_roundtrips() {
        let l = Lit::positive(7);
        assert_eq!(l.var(), 7);
        assert!(l.is_positive());
        assert_eq!(l.negated().var(), 7);
        assert!(!l.negated().is_positive());
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn luby_sequence_is_the_textbook_one() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivially_satisfiable() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        let m = s.solve().unwrap();
        assert!(m[a]);
    }

    #[test]
    fn direct_contradiction_is_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, true)]);
        s.add_clause(&[lit(a, false)]);
        assert_eq!(s.solve(), Err(Unsat));
    }

    #[test]
    fn duplicate_literals_and_tautologies_are_preprocessed() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        // Tautology: must be ignored entirely.
        assert!(s.add_clause(&[lit(a, true), lit(b, true), lit(a, false)]));
        // Duplicates collapse to a unit clause.
        assert!(s.add_clause(&[lit(b, false), lit(b, false), lit(b, false)]));
        let m = s.solve().unwrap();
        assert!(!m[b]);
    }

    #[test]
    fn chained_implications_propagate() {
        // a, a->b, b->c, c->d  =>  d must be true.
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[lit(vars[0], true)]);
        for w in vars.windows(2) {
            s.add_clause(&[lit(w[0], false), lit(w[1], true)]);
        }
        let m = s.solve().unwrap();
        assert!(vars.iter().all(|&v| m[v]));
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // p_{i,j}: pigeon i in hole j.  Each pigeon in some hole, no hole
        // with two pigeons.
        let mut s = SatSolver::new();
        let mut p = [[0usize; 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[lit(row[0], true), lit(row[1], true)]);
        }
        #[allow(clippy::needless_range_loop)] // j indexes two rows at once
        for j in 0..2 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[lit(p[i][j], false), lit(p[k][j], false)]);
                }
            }
        }
        assert_eq!(s.solve(), Err(Unsat));
    }

    #[test]
    fn pigeonhole_stays_unsat_under_aggressive_reduction() {
        // Larger pigeonhole so the search actually learns clauses, solved
        // with reductions every few conflicts: deleting learnt clauses must
        // never change the verdict.
        let n = 5usize; // pigeons; n - 1 holes
        let mut s = SatSolver::with_config(churn_config());
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|&v| lit(v, true)).collect();
            s.add_clause(&clause);
        }
        #[allow(clippy::needless_range_loop)] // j indexes all rows at once
        for j in 0..n - 1 {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[lit(p[i][j], false), lit(p[k][j], false)]);
                }
            }
        }
        assert_eq!(s.solve(), Err(Unsat));
        let stats = s.stats();
        assert!(stats.reduced_dbs > 0, "reduction never fired: {stats:?}");
        assert!(stats.deleted_clauses > 0, "nothing deleted: {stats:?}");
        assert!(stats.learnt_clauses <= stats.total_learnt);
    }

    #[test]
    fn profile_attributes_phases_when_telemetry_is_enabled() {
        // Same pigeonhole as above, but with an enabled telemetry handle:
        // the profile must attribute the phases the stats say happened, and
        // the trace must carry the restart/reduction events.
        let n = 5usize;
        let (telemetry, trace) = Telemetry::ring(4096);
        let config = SolverConfig {
            telemetry,
            ..churn_config()
        };
        let mut s = SatSolver::with_config(config);
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|&v| lit(v, true)).collect();
            s.add_clause(&clause);
        }
        #[allow(clippy::needless_range_loop)] // j indexes all rows at once
        for j in 0..n - 1 {
            for i in 0..n {
                for k in (i + 1)..n {
                    s.add_clause(&[lit(p[i][j], false), lit(p[k][j], false)]);
                }
            }
        }
        assert_eq!(s.solve(), Err(Unsat));
        let stats = s.stats();
        let profile = s.take_profile();
        assert!(profile.propagate.count > 0, "{profile:?}");
        assert_eq!(profile.conflicts, stats.conflicts);
        // The final conflict lands at level zero and ends the query
        // without an analysis, so analyze may trail conflicts by one.
        assert!(profile.analyze.count >= stats.conflicts - 1, "{profile:?}");
        assert_eq!(profile.restart.count, stats.restarts);
        assert_eq!(profile.restarts.len() as u64, stats.restarts);
        assert_eq!(profile.reduce.count, stats.reduced_dbs);
        for pair in profile.restarts.windows(2) {
            assert!(pair[0].conflicts <= pair[1].conflicts);
        }
        // Taking the profile resets it.
        assert!(s.take_profile().is_empty());
        let lines = trace.lines();
        let restart_events = lines
            .iter()
            .filter(|l| l.contains("\"name\":\"sat.restart\""))
            .count();
        let reduce_events = lines
            .iter()
            .filter(|l| l.contains("\"name\":\"sat.reduce_db\""))
            .count();
        assert_eq!(trace.dropped(), 0, "ring too small for this instance");
        assert_eq!(restart_events as u64, stats.restarts);
        assert_eq!(reduce_events as u64, stats.reduced_dbs);
    }

    #[test]
    fn incremental_clause_addition_flips_result() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        assert!(s.solve().is_ok());
        s.add_clause(&[lit(a, false)]);
        assert!(s.solve().is_ok());
        s.add_clause(&[lit(b, false)]);
        assert_eq!(s.solve(), Err(Unsat));
    }

    #[test]
    fn assumptions_are_retracted_between_calls() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[lit(a, true), lit(b, true)]);
        // Under ¬a the solver must pick b…
        let m = s.solve_with_assumptions(&[lit(a, false)]).unwrap();
        assert!(!m[a]);
        assert!(m[b]);
        // …but ¬a is not persistent: assuming ¬b now forces a.
        let m = s.solve_with_assumptions(&[lit(b, false)]).unwrap();
        assert!(m[a]);
        assert!(!m[b]);
        // And with no assumptions the instance is still satisfiable.
        assert!(s.solve().is_ok());
    }

    #[test]
    fn failed_assumptions_leave_the_solver_usable() {
        // a -> b, b -> c; assuming a and ¬c is inconsistent.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let d = s.new_var(); // irrelevant to the conflict
        s.add_clause(&[lit(a, false), lit(b, true)]);
        s.add_clause(&[lit(b, false), lit(c, true)]);
        let result = s.solve_with_assumptions(&[lit(d, true), lit(a, true), lit(c, false)]);
        assert_eq!(result, Err(Unsat));
        // The solver remains usable and satisfiable without the assumptions.
        assert!(s.solve().is_ok());
    }

    #[test]
    fn directly_contradictory_assumptions_are_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_with_assumptions(&[lit(a, true), lit(a, false)]),
            Err(Unsat)
        );
    }

    #[test]
    fn an_assumption_refuted_at_level_zero_is_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(&[lit(a, false)]);
        assert_eq!(s.solve_with_assumptions(&[lit(a, true)]), Err(Unsat));
    }

    #[test]
    fn phase_saving_repeats_the_previous_model() {
        // With phase saving, re-solving an unchanged satisfiable instance
        // follows the saved polarities straight back to the same model.
        let mut gen = 0xA5F1u64;
        let mut next = move || {
            gen ^= gen << 13;
            gen ^= gen >> 7;
            gen ^= gen << 17;
            gen
        };
        let mut s = SatSolver::new();
        let num_vars = 10;
        for _ in 0..num_vars {
            s.new_var();
        }
        for _ in 0..20 {
            let clause: Vec<Lit> = (0..3)
                .map(|_| Lit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            s.add_clause(&clause);
        }
        if let Ok(first) = s.solve() {
            let second = s.solve().expect("still satisfiable");
            assert_eq!(first, second, "phase saving lost the previous model");
        }
    }

    /// Brute-force satisfiability of `clauses` (plus optional forced
    /// `units`) over `num_vars` variables.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>], units: &[Lit]) -> bool {
        count_models(num_vars, clauses, units) > 0
    }

    /// The number of assignments to `num_vars` variables that satisfy
    /// `clauses` and the forced `units`, by enumeration.
    fn count_models(num_vars: usize, clauses: &[Vec<Lit>], units: &[Lit]) -> u64 {
        (0..(1u32 << num_vars))
            .filter(|bits| {
                let val = |l: Lit| ((bits >> l.var()) & 1 == 1) == l.is_positive();
                units.iter().all(|&l| val(l)) && clauses.iter().all(|c| c.iter().any(|&l| val(l)))
            })
            .count() as u64
    }

    /// A deterministic xorshift generator.
    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// `count` random literals over `num_vars` variables.
    fn random_lits(next: &mut impl FnMut() -> u64, num_vars: usize, count: usize) -> Vec<Lit> {
        (0..count)
            .map(|_| {
                Lit::new(
                    (next() % num_vars as u64) as usize,
                    next().is_multiple_of(2),
                )
            })
            .collect()
    }

    /// The clause a theory returns to refute `assignment`: the negation of
    /// every assigned literal.
    fn negation_of(assignment: &[Option<bool>]) -> Vec<Lit> {
        (0..assignment.len())
            .filter_map(|v| assignment[v].map(|value| Lit::new(v, !value)))
            .collect()
    }

    #[test]
    fn a_lemma_per_model_enumerates_every_model_and_then_unsat() {
        // A theory that refutes every complete assignment with its negation
        // turns the search into model enumeration: unit, asserting and
        // conflicting lemmas at every decision level, under assumptions in
        // odd instances.  A variable no live clause mentions is unassigned,
        // and either value completes the model, so an assignment with `k`
        // of them stands for 2^k models.  The completions must be models,
        // their number the brute-force count, and the search must end
        // unsatisfiable.
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        for instance in 0..300usize {
            let num_vars = 1 + instance % 10;
            let num_clauses = (next() % (4 * num_vars as u64 + 1)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| random_lits(&mut next, num_vars, 3))
                .collect();
            let assumptions = if instance % 2 == 1 {
                let count = (next() % 3) as usize;
                random_lits(&mut next, num_vars, count)
            } else {
                Vec::new()
            };
            let mut s = if instance % 4 < 2 {
                SatSolver::new()
            } else {
                SatSolver::with_config(churn_config())
            };
            for _ in 0..num_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let mut lemmas: Vec<Vec<Lit>> = Vec::new();
            let mut enumerated = 0u64;
            let result = s.solve_with_theory(&assumptions, |at| {
                if !at.complete {
                    return TheoryCheck::Consistent;
                }
                let assignment = at.assignment;
                let holds = |l: Lit| assignment[l.var()] == Some(l.is_positive());
                for c in &clauses {
                    let tautology = c.iter().any(|&l| c.contains(&l.negated()));
                    assert!(
                        tautology || c.iter().any(|&l| holds(l)),
                        "instance {instance}: {assignment:?} misses clause {c:?}"
                    );
                }
                assert!(assumptions.iter().all(|&l| holds(l)), "instance {instance}");
                enumerated += 1 << assignment.iter().filter(|a| a.is_none()).count();
                lemmas.push(negation_of(assignment));
                TheoryCheck::Lemma(lemmas.last().expect("just pushed").clone())
            });
            assert_eq!(result, Err(Unsat), "instance {instance}");
            assert_eq!(
                enumerated,
                count_models(num_vars, &clauses, &assumptions),
                "instance {instance}: {clauses:?} under {assumptions:?}"
            );
            let mut with_lemmas = clauses.clone();
            with_lemmas.extend(lemmas);
            // The lemmas are permanent: without the assumptions, exactly the
            // models they do not block are left.
            assert_eq!(
                s.solve().is_ok(),
                brute_force_sat(num_vars, &with_lemmas, &[]),
                "instance {instance}"
            );
        }
    }

    #[test]
    fn implied_literals_with_late_reasons_agree_with_enumeration() {
        // A toy theory holds 1–4 hidden clauses.  At a fixpoint it refutes
        // a hidden clause the assignment falsifies with that clause as the
        // lemma, and implies the one open literal of each hidden clause the
        // assignment reduces to it, with the clause as the reason.  It
        // skips about a third of the partial fixpoints that have
        // implications, so the search decides past them and implies them
        // a level above their
        // reasons (above level zero alone, too: then the literal is a
        // level-zero fact).  A complete assignment is accepted when some
        // value of its unassigned variables satisfies every hidden clause,
        // and refuted by its negation otherwise.  The answer must be
        // `Unsat` exactly when enumeration finds no model of the clauses
        // and the hidden clauses under the assumptions; every model must
        // satisfy the clauses, the assumptions and every clause the theory
        // returned, and the accepted completion the hidden clauses too.
        // The theory's clauses are permanent: a plain solve afterwards
        // agrees with enumeration over them and the clauses.
        let mut next = xorshift(0x2F6B_1E3D_94A7_C0B5);
        let (mut late, mut implied) = (0u64, 0u64);
        for instance in 0..400usize {
            let num_vars = 1 + instance % 9;
            let num_clauses = (next() % (3 * num_vars as u64 + 1)) as usize;
            // Some units and binaries, so reasons sit at level zero too.
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| {
                    let size = if next().is_multiple_of(8) {
                        1
                    } else {
                        2 + next() % 2
                    };
                    random_lits(&mut next, num_vars, size as usize)
                })
                .collect();
            let hidden: Vec<Vec<Lit>> = (0..1 + next() % 4)
                .map(|_| {
                    let size = 1 + (next() % num_vars.min(4) as u64) as usize;
                    let mut vars: Vec<Var> = (0..num_vars).collect();
                    (0..size)
                        .map(|_| {
                            let v = vars.swap_remove((next() % vars.len() as u64) as usize);
                            Lit::new(v, next().is_multiple_of(2))
                        })
                        .collect()
                })
                .collect();
            let assumptions = if instance % 2 == 1 {
                let count = (next() % 3) as usize;
                random_lits(&mut next, num_vars, count)
            } else {
                Vec::new()
            };
            let mut s = if instance % 4 < 2 {
                SatSolver::new()
            } else {
                SatSolver::with_config(churn_config())
            };
            for _ in 0..num_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let mut added: Vec<Vec<Lit>> = Vec::new();
            let mut completion: Vec<bool> = Vec::new();
            // The literals skipped at the previous call, and its trail.
            let (mut skipped, mut seen) = (Vec::<Lit>::new(), 0usize);
            let result = s.solve_with_theory(&assumptions, |at| {
                let value = |l: Lit| at.assignment[l.var()].map(|v| v == l.is_positive());
                let skipped_before = std::mem::take(&mut skipped);
                let undisturbed = at.kept == seen;
                seen = at.trail.len();
                if let Some(h) = hidden
                    .iter()
                    .find(|h| h.iter().all(|&l| value(l) == Some(false)))
                {
                    added.push(h.clone());
                    return TheoryCheck::Lemma(h.clone());
                }
                let mut implications: Vec<Vec<Lit>> = Vec::new();
                for h in &hidden {
                    let open: Vec<Lit> = h
                        .iter()
                        .copied()
                        .filter(|&l| value(l) != Some(false))
                        .collect();
                    if let [open] = open[..] {
                        if value(open).is_none()
                            && implications.iter().all(|c| c[0].var() != open.var())
                        {
                            let mut clause = vec![open];
                            clause.extend(h.iter().copied().filter(|&l| l != open));
                            implications.push(clause);
                        }
                    }
                }
                if !implications.is_empty() {
                    if !at.complete && next().is_multiple_of(3) {
                        skipped = implications.iter().map(|c| c[0]).collect();
                        return TheoryCheck::Consistent;
                    }
                    if undisturbed {
                        late += implications
                            .iter()
                            .filter(|c| skipped_before.contains(&c[0]))
                            .count() as u64;
                    }
                    implied += implications.len() as u64;
                    added.extend(implications.iter().cloned());
                    return TheoryCheck::Imply(implications);
                }
                if !at.complete {
                    return TheoryCheck::Consistent;
                }
                let open: Vec<Var> = (0..num_vars)
                    .filter(|&v| at.assignment[v].is_none())
                    .collect();
                let completed = (0..1u32 << open.len())
                    .map(|bits| {
                        let mut model: Vec<bool> =
                            at.assignment.iter().map(|a| a.unwrap_or(false)).collect();
                        for (i, &v) in open.iter().enumerate() {
                            model[v] = (bits >> i) & 1 == 1;
                        }
                        model
                    })
                    .find(|model| {
                        hidden
                            .iter()
                            .all(|h| h.iter().any(|&l| model[l.var()] == l.is_positive()))
                    });
                match completed {
                    Some(model) => {
                        completion = model;
                        TheoryCheck::Consistent
                    }
                    None => {
                        added.push(negation_of(at.assignment));
                        TheoryCheck::Lemma(negation_of(at.assignment))
                    }
                }
            });
            let mut constraints = clauses.clone();
            constraints.extend(hidden.iter().cloned());
            let expected = brute_force_sat(num_vars, &constraints, &assumptions);
            let satisfies = |model: &[bool], set: &[Vec<Lit>]| {
                set.iter()
                    .all(|c| c.iter().any(|&l| model[l.var()] == l.is_positive()))
            };
            match result {
                Ok(Some(model)) => {
                    assert!(
                        expected,
                        "instance {instance}: SAT, enumeration finds no model"
                    );
                    for model in [&model, &completion] {
                        assert!(satisfies(model, &clauses), "instance {instance}");
                        assert!(satisfies(model, &added), "instance {instance}");
                        assert!(
                            assumptions
                                .iter()
                                .all(|&l| model[l.var()] == l.is_positive()),
                            "instance {instance}"
                        );
                    }
                    assert!(satisfies(&completion, &hidden), "instance {instance}");
                }
                Ok(None) => panic!("instance {instance}: the theory never stops"),
                Err(Unsat) => assert!(
                    !expected,
                    "instance {instance}: UNSAT, enumeration finds a model of \
                     {clauses:?} ∧ {hidden:?} under {assumptions:?}"
                ),
            }
            let mut kept = clauses.clone();
            kept.extend(added);
            assert_eq!(
                s.solve().is_ok(),
                brute_force_sat(num_vars, &kept, &[]),
                "instance {instance}"
            );
            // No literal became a fact the kept clauses do not force.
            for lit in (0..num_vars).flat_map(|v| [Lit::positive(v), Lit::negative(v)]) {
                assert_eq!(
                    s.solve_with_assumptions(&[lit]).is_ok(),
                    brute_force_sat(num_vars, &kept, &[lit]),
                    "instance {instance}: assuming {lit:?}"
                );
            }
        }
        assert!(implied > 0 && late > 0, "{implied} implied, {late} late");
    }

    #[test]
    fn lemmas_over_assumption_literals_refute_the_assumptions() {
        // a ∨ b, c → x.  Assuming a and c puts both on level 1 and implies
        // x there; b is decided at level 2.  A theory refutes c with a unit
        // lemma, with an asserting one that pairs the assumption a with the
        // decided b (b's value is asserted back at level 1, and the same
        // lemma shape over level 1 alone then refutes the assumptions), or
        // with a lemma over level 1 alone (c and x).
        for shape in 0..3 {
            let mut s = SatSolver::new();
            let [a, b, c, x] = [0, 1, 2, 3].map(|_| s.new_var());
            s.add_clause(&[lit(a, true), lit(b, true)]);
            s.add_clause(&[lit(c, false), lit(x, true)]);
            let assumptions = [lit(a, true), lit(c, true)];
            let mut lemmas: Vec<Vec<Lit>> = Vec::new();
            let result = s.solve_with_theory(&assumptions, |at| {
                if !at.complete || at.assignment[c] != Some(true) {
                    return TheoryCheck::Consistent;
                }
                let b_value = at.assignment[b].expect("b occurs in a clause");
                let lemma = match shape {
                    0 => vec![lit(c, false)],
                    1 => vec![lit(a, false), lit(b, !b_value)],
                    _ => vec![lit(a, false), lit(c, false), lit(x, false)],
                };
                lemmas.push(lemma.clone());
                TheoryCheck::Lemma(lemma)
            });
            assert_eq!(result, Err(Unsat), "shape {shape}");
            assert_eq!(
                lemmas.len(),
                if shape == 1 { 2 } else { 1 },
                "shape {shape}"
            );
            let model = s.solve().expect("satisfiable without the assumptions");
            for lemma in &lemmas {
                assert!(
                    lemma.iter().any(|&l| model[l.var()] == l.is_positive()),
                    "shape {shape}: the lemma {lemma:?} is permanent"
                );
            }
        }
    }

    #[test]
    fn an_empty_lemma_refutes_the_clause_set_for_good() {
        let mut s = SatSolver::new();
        let [a, b] = [0, 1].map(|_| s.new_var());
        s.add_clause(&[lit(a, true), lit(b, true)]);
        let result = s.solve_with_theory(&[lit(b, false)], |at| {
            if at.complete {
                TheoryCheck::Lemma(Vec::new())
            } else {
                TheoryCheck::Consistent
            }
        });
        assert_eq!(result, Err(Unsat));
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.solve(), Err(Unsat));
    }

    #[test]
    fn a_stopped_search_leaves_a_clean_solver() {
        // The theory refutes a few models and then stops the search: the
        // solver is back at level zero, and a plain solve agrees with brute
        // force over the clauses and the lemmas kept.
        let mut next = xorshift(0x8CB9_2BA7_2F3D_8DD7);
        for instance in 0..200usize {
            let num_vars = 3 + instance % 8;
            let clauses: Vec<Vec<Lit>> = (0..2 * num_vars)
                .map(|_| random_lits(&mut next, num_vars, 3))
                .collect();
            let mut s = if instance % 2 == 0 {
                SatSolver::new()
            } else {
                SatSolver::with_config(churn_config())
            };
            for _ in 0..num_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let assumptions = random_lits(&mut next, num_vars, instance % 3);
            let stop_after = 1 + instance % 5;
            let mut lemmas: Vec<Vec<Lit>> = Vec::new();
            let result = s.solve_with_theory(&assumptions, |at| {
                if !at.complete {
                    return TheoryCheck::Consistent;
                }
                if lemmas.len() == stop_after {
                    return TheoryCheck::Stop;
                }
                lemmas.push(negation_of(at.assignment));
                TheoryCheck::Lemma(lemmas.last().expect("just pushed").clone())
            });
            if result.is_ok() {
                assert_eq!(result, Ok(None), "instance {instance}");
                assert_eq!(lemmas.len(), stop_after);
            }
            assert_eq!(s.decision_level(), 0, "instance {instance}");
            let mut with_lemmas = clauses.clone();
            with_lemmas.extend(lemmas);
            match s.solve() {
                Ok(model) => {
                    for c in &with_lemmas {
                        assert!(c.iter().any(|&l| model[l.var()] == l.is_positive()));
                    }
                }
                Err(Unsat) => {
                    assert!(
                        !brute_force_sat(num_vars, &with_lemmas, &[]),
                        "instance {instance}"
                    )
                }
            }
        }
    }

    #[test]
    fn forbidden_cubes_are_cut_off_at_the_first_fixpoint_that_assigns_them() {
        // A theory that forbids 1–3 random cubes refutes a cube as soon as
        // every one of its literals is assigned as in the cube, at a
        // partial or a complete fixpoint, with the cube's negation.  The
        // answer must agree with brute force over the clauses and the
        // negated cubes, and every call must see the trail the previous
        // call saw up to its `kept` mark: a backjump or restart that
        // forgot to lower the mark would leave a retracted and re-extended
        // trail that disagrees below it.
        let mut next = xorshift(0x5851_F42D_4C95_7F2D);
        for instance in 0..400usize {
            let num_vars = 1 + instance % 10;
            let num_clauses = (next() % (4 * num_vars as u64 + 1)) as usize;
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| random_lits(&mut next, num_vars, 3))
                .collect();
            let assumptions = if instance % 2 == 1 {
                let count = (next() % 3) as usize;
                random_lits(&mut next, num_vars, count)
            } else {
                Vec::new()
            };
            let cubes: Vec<Vec<Lit>> = (0..1 + next() % 3)
                .map(|_| {
                    let size = 1 + (next() % num_vars.min(3) as u64) as usize;
                    let mut vars: Vec<Var> = (0..num_vars).collect();
                    (0..size)
                        .map(|_| {
                            let v = vars.swap_remove((next() % vars.len() as u64) as usize);
                            Lit::new(v, next().is_multiple_of(2))
                        })
                        .collect()
                })
                .collect();
            let mut s = if instance % 4 < 2 {
                SatSolver::new()
            } else {
                SatSolver::with_config(churn_config())
            };
            for _ in 0..num_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let mut shadow: Vec<Lit> = Vec::new();
            let mut accepted: Vec<Option<bool>> = Vec::new();
            let result = s.solve_with_theory(&assumptions, |at| {
                assert!(
                    at.kept <= shadow.len() && at.kept <= at.trail.len(),
                    "instance {instance}: mark {} beyond the trails {} / {}",
                    at.kept,
                    shadow.len(),
                    at.trail.len()
                );
                assert_eq!(
                    at.trail[..at.kept],
                    shadow[..at.kept],
                    "instance {instance}: the trail changed below the mark"
                );
                assert_eq!(
                    at.assignment.iter().filter(|a| a.is_some()).count(),
                    at.trail.len(),
                    "instance {instance}"
                );
                for &l in at.trail {
                    assert_eq!(at.assignment[l.var()], Some(l.is_positive()));
                }
                shadow = at.trail.to_vec();
                let holds = |l: Lit| at.assignment[l.var()] == Some(l.is_positive());
                if let Some(cube) = cubes.iter().find(|cube| cube.iter().all(|&l| holds(l))) {
                    return TheoryCheck::Lemma(cube.iter().map(|l| l.negated()).collect());
                }
                if at.complete {
                    accepted = at.assignment.to_vec();
                }
                TheoryCheck::Consistent
            });
            let mut constraints = clauses.clone();
            constraints.extend(
                cubes
                    .iter()
                    .map(|cube| cube.iter().map(|l| l.negated()).collect()),
            );
            let expected = brute_force_sat(num_vars, &constraints, &assumptions);
            match result {
                Ok(Some(_)) => {
                    let holds = |l: Lit| accepted[l.var()] == Some(l.is_positive());
                    for c in &clauses {
                        let tautology = c.iter().any(|&l| c.contains(&l.negated()));
                        assert!(tautology || c.iter().any(|&l| holds(l)), "{c:?}");
                    }
                    assert!(assumptions.iter().all(|&l| holds(l)));
                    // A cube over a variable no live clause mentions is
                    // never assigned, so never refuted; a cube over
                    // assigned variables only is false under the accepted
                    // assignment, which then satisfies every constraint.
                    let assigned =
                        |cube: &Vec<Lit>| cube.iter().all(|l| accepted[l.var()].is_some());
                    assert!(
                        expected || !cubes.iter().all(assigned),
                        "instance {instance}: SAT, brute force says UNSAT"
                    );
                }
                Ok(None) => panic!("instance {instance}: the theory never stops"),
                Err(Unsat) => assert!(
                    !expected,
                    "instance {instance}: UNSAT, brute force says SAT: \
                     {clauses:?} ∧ ¬{cubes:?} under {assumptions:?}"
                ),
            }
        }
    }

    #[test]
    fn model_satisfies_all_clauses_on_random_instances() {
        // Small deterministic pseudo-random 3-SAT instances, cross-checked
        // against brute force — solved both without assumptions and under
        // random assumption sets, with aggressive database reduction, Luby
        // restarts and phase saving all active.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for instance in 0..60 {
            let num_vars = 6;
            let num_clauses = 14 + (instance % 7);
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % num_vars as u64) as usize;
                            Lit::new(v, next() % 2 == 0)
                        })
                        .collect()
                })
                .collect();
            let mut s = if instance % 2 == 0 {
                SatSolver::new()
            } else {
                SatSolver::with_config(churn_config())
            };
            for _ in 0..num_vars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let solver_result = s.solve();
            let brute_sat = brute_force_sat(num_vars, &clauses, &[]);
            match solver_result {
                Ok(ref model) => {
                    assert!(brute_sat, "solver returned SAT on UNSAT instance");
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| model[l.var()] == l.is_positive()),
                            "model does not satisfy clause {c:?}"
                        );
                    }
                }
                Err(Unsat) => assert!(!brute_sat, "solver returned UNSAT on SAT instance"),
            }
            // The same instance under three random assumption sets, from
            // the same (incremental) solver.
            for round in 0..3 {
                let num_assumptions = 1 + (next() % 3) as usize;
                let assumptions: Vec<Lit> = (0..num_assumptions)
                    .map(|_| {
                        let v = (next() % num_vars as u64) as usize;
                        Lit::new(v, next() % 2 == 0)
                    })
                    .collect();
                let expected = brute_force_sat(num_vars, &clauses, &assumptions);
                match s.solve_with_assumptions(&assumptions) {
                    Ok(model) => {
                        assert!(
                            expected,
                            "instance {instance} round {round}: SAT under UNSAT assumptions"
                        );
                        for c in &clauses {
                            assert!(
                                c.iter().any(|&l| model[l.var()] == l.is_positive()),
                                "model does not satisfy clause {c:?}"
                            );
                        }
                        for &a in &assumptions {
                            assert_eq!(
                                model[a.var()],
                                a.is_positive(),
                                "model violates assumption {a:?}"
                            );
                        }
                    }
                    Err(Unsat) => assert!(
                        !expected || !brute_sat,
                        "instance {instance} round {round}: UNSAT under SAT assumptions"
                    ),
                }
            }
        }
    }

    #[test]
    fn reduction_keeps_repeated_assumption_queries_sound() {
        // A long session on one instance: many assumption queries with the
        // database being reduced throughout must keep agreeing with brute
        // force, and the live learnt count must stay at or below the
        // monotone total.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let num_vars = 8usize;
        let mut s = SatSolver::with_config(churn_config());
        for _ in 0..num_vars {
            s.new_var();
        }
        let clauses: Vec<Vec<Lit>> = (0..28)
            .map(|_| {
                (0..3)
                    .map(|_| Lit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                    .collect()
            })
            .collect();
        for c in &clauses {
            s.add_clause(c);
        }
        for _ in 0..100 {
            let assumptions: Vec<Lit> = (0..(next() % 4) as usize)
                .map(|_| Lit::new((next() % num_vars as u64) as usize, next() % 2 == 0))
                .collect();
            let expected = brute_force_sat(num_vars, &clauses, &assumptions);
            let got = s.solve_with_assumptions(&assumptions).is_ok();
            assert_eq!(got, expected, "assumptions {assumptions:?}");
        }
        let stats = s.stats();
        assert!(stats.learnt_clauses <= stats.total_learnt);
    }
}
