//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no access to crates.io, so instead of
//! `proptest` these tests drive the same properties from a deterministic
//! xorshift* generator: each case enumerates a fixed number of
//! pseudo-random inputs, which keeps failures reproducible (the iteration
//! index identifies the failing input).

use advocat::explorer::XorShift64;
use advocat::logic::{BoolVar, Formula, IntVar, LinExpr, SmtSolver};
use advocat::num::{eliminate, satisfies, LinearRow, Rational};
use advocat::prelude::*;

/// Rational arithmetic satisfies the field axioms we rely on.
#[test]
fn rational_field_axioms() {
    let mut gen = XorShift64::new(0xADC0CA7);
    for _ in 0..200 {
        let a = Rational::new(gen.int(-500, 499), gen.int(1, 49));
        let b = Rational::new(gen.int(-500, 499), gen.int(1, 49));
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!(a - a, Rational::ZERO);
        assert_eq!((a + b) - b, a);
        if !b.is_zero() {
            assert_eq!((a / b) * b, a);
        }
    }
}

/// Gaussian elimination preserves solutions: any assignment satisfying the
/// original rows satisfies the eliminated system.
#[test]
fn elimination_preserves_solutions() {
    let mut gen = XorShift64::new(42);
    for _ in 0..100 {
        let values: Vec<i128> = (0..6).map(|_| gen.int(-4, 4)).collect();
        // Build 4 rows over 6 variables whose constants are chosen so that
        // `values` is a solution of every row.
        let mut rows = Vec::new();
        for _ in 0..4 {
            let mut row = LinearRow::new();
            let mut acc = 0i128;
            for (v, value) in values.iter().enumerate() {
                let c = gen.int(-3, 3);
                row.add_term(v, Rational::from_integer(c));
                acc += c * value;
            }
            row.add_constant(Rational::from_integer(-acc));
            rows.push(row);
        }
        // Eliminate the first three variables.
        let kept = eliminate(rows, |v| v < 3);
        assert!(satisfies(&kept, |v| Rational::from_integer(values[v])));
    }
}

/// The SMT solver agrees with brute force on small bounded problems.
#[test]
fn smt_matches_brute_force() {
    let mut gen = XorShift64::new(7);
    for case in 0..120 {
        let (a, b) = (gen.int(-3, 3) as i64, gen.int(-3, 3) as i64);
        let c = gen.int(-6, 6) as i64;
        let (d, e) = (gen.int(-3, 3) as i64, gen.int(-3, 3) as i64);
        let f = gen.int(-6, 6) as i64;

        let mut smt = SmtSolver::new();
        let x = smt.new_int_var("x", 0, 4);
        let y = smt.new_int_var("y", 0, 4);
        smt.assert(Formula::le(
            LinExpr::term(a, x) + LinExpr::term(b, y),
            LinExpr::constant(c),
        ));
        smt.assert(Formula::ge(
            LinExpr::term(d, x) + LinExpr::term(e, y),
            LinExpr::constant(f),
        ));
        let brute = (0..=4)
            .any(|vx: i64| (0..=4).any(|vy: i64| a * vx + b * vy <= c && d * vx + e * vy >= f));
        match smt.check() {
            advocat::logic::SmtResult::Sat(model) => {
                assert!(brute, "case {case}: model found for unsatisfiable instance");
                let vx = model.int_value(x);
                let vy = model.int_value(y);
                assert!(a * vx + b * vy <= c, "case {case}");
                assert!(d * vx + e * vy >= f, "case {case}");
            }
            advocat::logic::SmtResult::Unsat => {
                assert!(!brute, "case {case}: solver missed a model");
            }
            advocat::logic::SmtResult::Unknown => panic!("case {case}: solver gave up"),
        }
    }
}

/// A random disjunction of one to three literals: a Boolean, possibly
/// negated, or a comparison of a one- or two-term linear expression.
fn random_clause(gen: &mut XorShift64, ints: &[IntVar], bools: &[BoolVar]) -> Formula {
    let literals = (0..gen.int(1, 3)).map(|_| {
        if gen.below(3) == 0 {
            let b = Formula::bool_var(bools[gen.below(bools.len() as u64) as usize]);
            return if gen.below(2) == 0 {
                b
            } else {
                Formula::not(b)
            };
        }
        let mut lhs = LinExpr::constant(0);
        for _ in 0..gen.int(1, 2) {
            let x = ints[gen.below(ints.len() as u64) as usize];
            let coefficient = [-2, -1, 1, 2][gen.below(4) as usize];
            lhs = lhs + LinExpr::term(coefficient, x);
        }
        let rhs = LinExpr::constant(gen.int(-2, 6) as i64);
        match gen.below(4) {
            0 => Formula::le(lhs, rhs),
            1 => Formula::ge(lhs, rhs),
            2 => Formula::eq(lhs, rhs),
            _ => Formula::ne(lhs, rhs),
        }
    });
    Formula::or(literals.collect::<Vec<_>>())
}

/// One long-lived `SmtSolver` agrees with enumeration over a session of
/// permanent assertions, scopes and assumed Boolean and comparison
/// literals: unlike `smt_matches_brute_force`, its checks need theory
/// lemmas and implied atoms, whose clauses they carry into later checks
/// (the coverage floor counts both).  A scope is emulated with a
/// selector, the way a caller retracts a compound constraint: opening one
/// declares a fresh selector `s` and asserts `s → clause` for each of its
/// clauses, every check assumes the open selectors, and closing it
/// asserts `¬s` for good, which leaves its clauses for the SAT core's
/// level-zero garbage collection.  Every model is evaluated here against
/// every active assertion and assumption; the solver itself checks its
/// models only under `debug_assert!`.
#[test]
fn a_long_lived_smt_session_matches_enumeration() {
    use advocat::logic::{CheckConfig, SmtResult, SolverConfig};
    let churn = SolverConfig {
        first_reduce: 2,
        reduce_interval: 1,
        keep_lbd: 0,
        luby_base: 2,
        ..SolverConfig::default()
    };
    let mut gen = XorShift64::new(0x5E55_1011);
    let (mut sat, mut unsat, mut theory_work) = (0, 0, 0);
    for session in 0..4 {
        let mut smt = SmtSolver::new();
        let ints: Vec<IntVar> = (0..3)
            .map(|i| smt.new_int_var(format!("x{i}"), 0, 3))
            .collect();
        let bools: Vec<BoolVar> = (0..3).map(|i| smt.new_bool_var(format!("b{i}"))).collect();
        let config = CheckConfig {
            solver: if session % 2 == 0 {
                SolverConfig::default()
            } else {
                churn.clone()
            },
            ..CheckConfig::default()
        };
        // The active assertions, where each open scope starts, and its
        // selector.
        let mut active: Vec<Formula> = Vec::new();
        let mut marks: Vec<usize> = Vec::new();
        let mut selectors: Vec<Formula> = Vec::new();
        let mut checks = 0;
        let mut permanent = 0;
        while checks < 50 {
            // At depth zero mostly open a scope; inside one, assert, close
            // it, open a nested scope or check.  At most four assertions
            // are permanent (made at depth zero), so the session does not
            // turn unsatisfiable for good.
            let roll = gen.below(10);
            match (marks.len(), roll) {
                (0, 0) if permanent < 4 => {
                    permanent += 1;
                    let clause = random_clause(&mut gen, &ints, &bools);
                    smt.assert(clause.clone());
                    active.push(clause);
                }
                (0, 1..=7) | (1 | 2, 0) => {
                    let name = format!("scope{session}.{}", marks.len());
                    selectors.push(Formula::bool_var(smt.new_bool_var(name)));
                    marks.push(active.len());
                }
                (1.., 1 | 2) => {
                    let selector = selectors.pop().expect("a scope is open");
                    smt.assert(Formula::not(selector));
                    active.truncate(marks.pop().expect("a scope is open"));
                }
                (1.., 3..=6) => {
                    let clause = random_clause(&mut gen, &ints, &bools);
                    let selector = selectors.last().expect("a scope is open");
                    smt.assert(Formula::implies(selector.clone(), clause.clone()));
                    active.push(clause);
                }
                _ => {
                    checks += 1;
                    let assumptions: Vec<Formula> = (0..gen.int(0, 2))
                        .map(|_| {
                            let literal = if gen.below(2) == 0 {
                                Formula::bool_var(bools[gen.below(bools.len() as u64) as usize])
                            } else {
                                let x = LinExpr::var(ints[gen.below(ints.len() as u64) as usize]);
                                let k = LinExpr::constant(gen.int(0, 3) as i64);
                                if gen.below(2) == 0 {
                                    Formula::le(x, k)
                                } else {
                                    Formula::ge(x, k)
                                }
                            };
                            if gen.below(2) == 0 {
                                literal
                            } else {
                                Formula::not(literal)
                            }
                        })
                        .collect();
                    let holds = |bool_of: &dyn Fn(BoolVar) -> bool,
                                 int_of: &dyn Fn(IntVar) -> i64| {
                        assumptions
                            .iter()
                            .chain(&active)
                            .all(|f| f.evaluate(&mut |b| bool_of(b), &mut |x| int_of(x)))
                    };
                    let space = 4u32.pow(ints.len() as u32) << bools.len();
                    let expected = (0..space).any(|code| {
                        holds(&|b| (code >> (2 * ints.len() + b.index())) & 1 == 1, &|x| {
                            i64::from((code >> (2 * x.index())) & 3)
                        })
                    });
                    let case = format!(
                        "session {session} check {checks}: {active:?} assuming {assumptions:?}"
                    );
                    let mut assumed = assumptions.clone();
                    assumed.extend(selectors.iter().cloned());
                    match smt.check_assuming(&assumed, &config) {
                        SmtResult::Sat(model) => {
                            assert!(expected, "{case}: model for an unsatisfiable check");
                            assert!(
                                holds(&|b| model.bool_value(b), &|x| model.int_value(x)),
                                "{case}: the model {model:?} violates an assertion or assumption"
                            );
                            sat += 1;
                        }
                        SmtResult::Unsat => {
                            assert!(!expected, "{case}: a model was missed");
                            unsat += 1;
                        }
                        SmtResult::Unknown => panic!("{case}: the solver gave up"),
                    }
                    let stats = smt.stats();
                    theory_work += stats.theory_conflicts + stats.theory_propagations;
                }
            }
        }
    }
    assert_eq!(sat + unsat, 200);
    assert!(sat >= 40 && unsat >= 40, "{sat} sat / {unsat} unsat");
    assert!(
        theory_work >= 40,
        "only {theory_work} theory lemmas and implied atoms"
    );
}

/// Every packet interned into a network round-trips through the color table.
#[test]
fn color_interning_roundtrips() {
    let mut gen = XorShift64::new(11);
    for _ in 0..100 {
        let len = gen.int(1, 6) as usize;
        let kind: String = (0..len)
            .map(|_| (b'a' + gen.int(0, 25) as u8) as char)
            .collect();
        let (src, dst) = (gen.int(0, 15) as u32, gen.int(0, 15) as u32);
        let mut net = Network::new();
        let packet = Packet::kind(kind).with_src(src).with_dst(dst);
        let id = net.intern(packet.clone());
        assert_eq!(net.colors().packet(id), &packet);
        assert_eq!(net.colors().lookup(&packet), Some(id));
    }
}

/// On random topology sizes, every routing function delivers each
/// source→destination terminal pair: the connectivity half of the
/// pre-encoding routing audit, exercised across all generator families.
#[test]
fn every_routing_function_delivers_on_random_topologies() {
    use advocat::noc::{audit_routing, default_routing, Topology};
    let mut gen = XorShift64::new(19);
    for case in 0..60 {
        let topo = match gen.int(0, 3) {
            0 => Topology::mesh(gen.int(2, 5) as u32, gen.int(1, 4) as u32).unwrap(),
            1 => Topology::torus(gen.int(2, 5) as u32, gen.int(2, 5) as u32).unwrap(),
            2 => Topology::ring(gen.int(3, 9) as u32).unwrap(),
            _ => Topology::fat_tree(gen.int(2, 3) as u32, gen.int(1, 3) as u32).unwrap(),
        };
        let routing = default_routing(&topo);
        let audit = audit_routing(&topo, routing.as_ref())
            .unwrap_or_else(|e| panic!("case {case} ({}): {e}", topo.name()));
        let n = topo.num_terminals();
        assert_eq!(audit.pairs, n * (n - 1), "case {case} ({})", topo.name());
        // Deterministic minimal routing stays within a generous diameter.
        assert!(
            audit.max_hops <= 2 * topo.num_nodes(),
            "case {case} ({})",
            topo.name()
        );
    }
}

/// The channel-dependency graph of every deadlock-free-by-construction
/// routing configuration is acyclic — datelined dimension-order on any
/// wrap topology, d-mod-k on any fat tree, and spanning-tree up*/down* on
/// random connected irregular graphs.
#[test]
fn deadlock_free_routing_configurations_have_acyclic_cdgs() {
    use advocat::noc::{audit_routing, default_routing, NodeId, Topology, UpDownRouting};
    let mut gen = XorShift64::new(23);
    for case in 0..40 {
        let (topo, routing): (Topology, std::sync::Arc<dyn advocat::noc::RoutingFunction>) =
            match gen.int(0, 3) {
                0 => {
                    let t = Topology::torus(gen.int(2, 6) as u32, gen.int(2, 6) as u32).unwrap();
                    let r = default_routing(&t);
                    (t, r)
                }
                1 => {
                    let t = Topology::ring(gen.int(3, 10) as u32).unwrap();
                    let r = default_routing(&t);
                    (t, r)
                }
                2 => {
                    let t = Topology::fat_tree(gen.int(2, 3) as u32, gen.int(1, 3) as u32).unwrap();
                    let r = default_routing(&t);
                    (t, r)
                }
                _ => {
                    // A random connected irregular graph: a spanning path
                    // plus random chords, all links bidirectional.
                    let n = gen.int(3, 9) as u32;
                    let mut edges: Vec<(u32, u32)> = Vec::new();
                    for i in 1..n {
                        let j = gen.int(0, (i - 1) as i128) as u32;
                        edges.push((i, j));
                        edges.push((j, i));
                    }
                    for _ in 0..gen.int(0, 4) {
                        let a = gen.int(0, (n - 1) as i128) as u32;
                        let b = gen.int(0, (n - 1) as i128) as u32;
                        if a != b && !edges.contains(&(a, b)) {
                            edges.push((a, b));
                            edges.push((b, a));
                        }
                    }
                    let terminals: Vec<u32> = (0..n).collect();
                    let t = Topology::irregular("rand", n, &terminals, &edges).unwrap();
                    let r: std::sync::Arc<dyn advocat::noc::RoutingFunction> =
                        std::sync::Arc::new(UpDownRouting::new(&t, NodeId::from_index(0)));
                    (t, r)
                }
            };
        let audit = audit_routing(&topo, routing.as_ref())
            .unwrap_or_else(|e| panic!("case {case} ({}): {e}", topo.name()));
        assert!(
            audit.is_deadlock_free(),
            "case {case} ({}, {}): cycle {:?}",
            topo.name(),
            routing.name(),
            audit.describe_cycle(&topo)
        );
    }
}

/// Every protocol family's agents wire consistently on random topologies:
/// the `AgentSpec` contract between `advocat-protocols` and the fabric
/// builder.  Per spec, the declared ports must exist on the automaton,
/// `core_triggers` must be local colors (no in-fabric destination, source
/// stamped with the hosting node), and the built fabric must materialise
/// exactly the sources and sinks the specs ask for.
#[test]
fn agent_specs_wire_consistently_on_random_topologies() {
    use advocat::protocols::{AgentSpec, Mesi, Role};
    let mut gen = XorShift64::new(0xA9E57);
    for case in 0..40 {
        let topo = match gen.int(0, 2) {
            0 => Topology::mesh(gen.int(2, 4) as u32, gen.int(1, 3) as u32).unwrap(),
            1 => Topology::ring(gen.int(3, 6) as u32).unwrap(),
            _ => Topology::torus(gen.int(2, 3) as u32, gen.int(2, 3) as u32).unwrap(),
        };
        let agents = topo.num_terminals() as u32;
        let directory = gen.int(0, (agents - 1) as i128) as u32;
        for protocol in [
            ProtocolKind::AbstractMi,
            ProtocolKind::FullMi,
            ProtocolKind::Mesi,
        ] {
            let mut net = Network::new();
            let specs: Vec<(u32, AgentSpec)> = (0..agents)
                .map(|node| {
                    let spec = match protocol {
                        ProtocolKind::AbstractMi => {
                            AbstractMi::new(agents, directory).agent(&mut net, node)
                        }
                        ProtocolKind::FullMi => {
                            FullMi::new(agents, directory).agent(&mut net, node)
                        }
                        ProtocolKind::Mesi => Mesi::new(agents, directory).agent(&mut net, node),
                    };
                    (node, spec)
                })
                .collect();

            let mut expected_sources = 0usize;
            let mut expected_sinks = 0usize;
            for (node, spec) in &specs {
                let ctx = format!("case {case} {protocol:?} node {node}");
                let a = &spec.automaton;
                assert!(spec.net_in < a.input_count(), "{ctx}: net_in port");
                assert!(spec.net_out < a.output_count(), "{ctx}: net_out port");
                if let Some(core_in) = spec.core_in {
                    assert!(core_in < a.input_count(), "{ctx}: core_in port");
                    assert_ne!(core_in, spec.net_in, "{ctx}: core and net ports differ");
                }
                if let Some(aux) = spec.aux_out {
                    assert!(aux < a.output_count(), "{ctx}: aux_out port");
                }
                for trigger in &spec.core_triggers {
                    let packet = net.colors().packet(*trigger);
                    // A trigger must not need the fabric: no destination,
                    // an off-fabric pseudo node (the DMA engine), or the
                    // hosting node itself (locally consumed requests).
                    assert!(
                        packet.dst.is_none()
                            || packet.dst == Some(agents)
                            || packet.dst == Some(*node),
                        "{ctx}: core triggers never route through the fabric"
                    );
                    let core_in = spec.core_in.expect("triggers imply a core port");
                    assert!(
                        a.ever_accepts(core_in, *trigger),
                        "{ctx}: trigger {packet} consumable on the core port"
                    );
                }
                if spec.needs_core_source() {
                    expected_sources += 1;
                }
                if spec.aux_out.is_some() {
                    expected_sinks += 1;
                }
                // Role sanity: exactly one directory, everything else caches.
                let role = match protocol {
                    ProtocolKind::AbstractMi => AbstractMi::new(agents, directory).role_of(*node),
                    ProtocolKind::FullMi => FullMi::new(agents, directory).role_of(*node),
                    ProtocolKind::Mesi => Mesi::new(agents, directory).role_of(*node),
                };
                assert_eq!(role == Role::Directory, *node == directory, "{ctx}");
            }

            // The generic fabric builder realises exactly those specs.
            let config = FabricConfig::new(topo.clone(), 2)
                .with_directory(directory as usize)
                .with_protocol(protocol);
            let system =
                build_fabric(&config).unwrap_or_else(|e| panic!("case {case} {protocol:?}: {e}"));
            system.validate().unwrap();
            let hist = system.network().kind_histogram();
            assert_eq!(
                hist.get("source").copied().unwrap_or(0),
                expected_sources,
                "case {case} {protocol:?} ({}): one fair source per needs_core_source",
                topo.name()
            );
            assert_eq!(
                hist.get("sink").copied().unwrap_or(0),
                expected_sinks,
                "case {case} {protocol:?} ({}): one fair sink per aux_out",
                topo.name()
            );
            assert_eq!(
                hist.get("automaton").copied().unwrap_or(0),
                agents as usize,
                "case {case} {protocol:?}: one agent per terminal"
            );
        }
    }
}

/// Derived invariants hold along random trajectories of arbitrary small
/// meshes — the central soundness property of the invariant generator.
#[test]
fn invariants_hold_on_random_walks() {
    let mut gen = XorShift64::new(17);
    for _ in 0..12 {
        let directory = gen.int(0, 3) as usize;
        let queue_size = gen.int(2, 4) as usize;
        let seed = gen.int(0, 999) as u64;
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), queue_size)
            .with_directory(directory)
            .with_protocol(ProtocolKind::AbstractMi);
        let system = build_fabric(&config).unwrap();
        let colors = derive_colors(&system);
        let invariants = derive_invariants(&system, &colors);
        let report = random_walk(&system, 2_000, seed);
        let state = &report.final_state;
        for invariant in invariants.iter() {
            assert!(invariant.holds(
                |queue, color| state.queue_count(queue, color) as i128,
                |node, automaton_state| state.is_in_state(node, automaton_state),
            ));
        }
    }
}
