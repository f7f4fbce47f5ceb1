//! SMT encoding of the block/idle deadlock equations.

use std::collections::HashMap;

use advocat_automata::{StateId, System, TransitionKind};
use advocat_invariants::{InvariantSet, InvariantVar};
use advocat_logic::{BoolVar, Formula, IntVar, LinExpr, SmtSolver};
use advocat_xmas::{ChannelId, ColorId, ColorMap, Primitive, PrimitiveId};

use crate::DeadlockTarget;

/// How queue capacities enter the encoding.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CapacityMode {
    /// Use each queue's structural size as a constant, as in a one-shot
    /// verification.
    Fixed,
    /// Introduce one bounded capacity variable per queue (range inclusive).
    /// The structure-dependent constraints then hold for *every* capacity in
    /// the range; a concrete capacity is pinned per query by assuming
    /// `cap(q) ≤ k` and `cap(q) ≥ k` for every queue.
    Symbolic {
        /// Smallest capacity of the sweep.
        min: i64,
        /// Largest capacity of the sweep (also the occupancy bound).
        max: i64,
    },
}

/// The variable maps of a deadlock encoding, used to translate SMT models
/// back into counterexamples.
#[derive(Clone, Debug, Default)]
pub(crate) struct EncodingVars {
    /// Queue occupancy per `(queue, color)`.
    pub occupancy: HashMap<(PrimitiveId, ColorId), IntVar>,
    /// Automaton state indicator per `(node, state)`.
    pub state: HashMap<(PrimitiveId, StateId), IntVar>,
    /// Permanent-block indicator per `(channel, color)`; the colors of a
    /// queue's input channel all map to the queue's `blocked(q)`.
    pub block: HashMap<(ChannelId, ColorId), BoolVar>,
    /// Permanent-idle indicator per `(channel, color)`.
    pub idle: HashMap<(ChannelId, ColorId), BoolVar>,
    /// Dead indicator per automaton node.
    pub dead: HashMap<PrimitiveId, BoolVar>,
    /// Capacity variable per queue (symbolic-capacity encodings only).
    pub capacity: HashMap<PrimitiveId, IntVar>,
    /// Indicator defined to hold iff some queue holds a permanently
    /// blocked packet (the stuck-packet goal).
    pub goal_stuck: Option<BoolVar>,
    /// Indicator defined to hold iff some automaton is dead (the
    /// dead-automaton goal).
    pub goal_dead: Option<BoolVar>,
    /// Indicator defined to hold iff either goal holds.
    pub goal_any: Option<BoolVar>,
    /// Selector guarding the invariant-strengthening clauses
    /// (symbolic-capacity encodings with a non-empty invariant set only);
    /// assumed true to enable the invariants, false to ablate them.
    pub sel_invariants: Option<BoolVar>,
}

/// A fully built deadlock encoding: the SMT solver plus variable maps.
#[derive(Debug)]
pub(crate) struct Encoding {
    pub smt: SmtSolver,
    pub vars: EncodingVars,
}

/// Builds the SMT instance for the given system, color map, invariants and
/// deadlock target, with queue capacities fixed to their structural sizes
/// (the one-shot path).  The target's goal is asserted permanently.
pub(crate) fn build_encoding(
    system: &System,
    colors: &ColorMap,
    invariants: &InvariantSet,
    target: DeadlockTarget,
) -> Encoding {
    build_encoding_with(
        system,
        colors,
        invariants,
        Some(target),
        CapacityMode::Fixed,
    )
}

/// Builds the query-parameterised SMT instance for
/// [`crate::EncodingTemplate`]: symbolic queue capacities in `min..=max`,
/// the invariants guarded by a retractable selector, and **no** deadlock
/// goal asserted — the goal indicators are defined but left free, so each
/// query selects its target with an assumption literal.
pub(crate) fn build_encoding_symbolic(
    system: &System,
    colors: &ColorMap,
    invariants: &InvariantSet,
    min: i64,
    max: i64,
) -> Encoding {
    build_encoding_with(
        system,
        colors,
        invariants,
        None,
        CapacityMode::Symbolic { min, max },
    )
}

/// Builds the SMT instance onto a fresh solver with the given capacity
/// mode.  With `target: Some(..)` the target's goal is asserted
/// permanently (the one-shot path); with `None` the goal indicators stay
/// free for assumption-based selection (the template path).
fn build_encoding_with(
    system: &System,
    colors: &ColorMap,
    invariants: &InvariantSet,
    target: Option<DeadlockTarget>,
    mode: CapacityMode,
) -> Encoding {
    let mut enc = EncodingBuilder::new(system, colors, mode);
    enc.declare_occupancy_and_state_vars();
    enc.declare_block_idle_vars();
    enc.assert_structural_constraints();
    enc.assert_invariants(invariants);
    enc.assert_block_idle_definitions();
    enc.assert_automaton_dead_definitions();
    enc.define_goal_indicators();
    if let Some(target) = target {
        enc.assert_deadlock_target(target);
    }
    Encoding {
        smt: enc.smt,
        vars: enc.vars,
    }
}

struct EncodingBuilder<'a> {
    system: &'a System,
    colors: &'a ColorMap,
    smt: SmtSolver,
    vars: EncodingVars,
    mode: CapacityMode,
}

impl<'a> EncodingBuilder<'a> {
    fn new(system: &'a System, colors: &'a ColorMap, mode: CapacityMode) -> Self {
        EncodingBuilder {
            system,
            colors,
            smt: SmtSolver::new(),
            vars: EncodingVars::default(),
            mode,
        }
    }

    fn network(&self) -> &'a advocat_xmas::Network {
        self.system.network()
    }

    /// Colors that can ever reside in a queue: the colors of its output
    /// channel (which include incoming colors and initial content).
    fn queue_colors(&self, queue: PrimitiveId) -> Vec<ColorId> {
        match self.network().out_channel(queue, 0) {
            Some(out) => self.colors.colors(out).iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Whether the channel's target is a queue.
    fn feeds_queue(&self, channel: ChannelId) -> bool {
        let target = self.network().channel(channel).target.primitive;
        matches!(self.network().primitive(target), Primitive::Queue { .. })
    }

    fn queue_size(&self, queue: PrimitiveId) -> usize {
        match self.network().primitive(queue) {
            Primitive::Queue { size, .. } => *size,
            _ => 0,
        }
    }

    /// The capacity of a queue as a linear expression: its structural size
    /// in [`CapacityMode::Fixed`], its capacity variable otherwise.
    fn capacity_expr(&self, queue: PrimitiveId) -> LinExpr {
        match self.mode {
            CapacityMode::Fixed => LinExpr::constant(self.queue_size(queue) as i64),
            CapacityMode::Symbolic { .. } => LinExpr::var(
                *self
                    .vars
                    .capacity
                    .get(&queue)
                    .expect("capacity var declared"),
            ),
        }
    }

    fn declare_occupancy_and_state_vars(&mut self) {
        let network = self.network();
        for queue in network.queue_ids().collect::<Vec<_>>() {
            let occupancy_bound = match self.mode {
                CapacityMode::Fixed => self.queue_size(queue) as i64,
                CapacityMode::Symbolic { max, .. } => max,
            };
            for color in self.queue_colors(queue) {
                let name = format!(
                    "#{}.{}",
                    network.name(queue),
                    network.colors().packet(color)
                );
                let var = self.smt.new_int_var(name, 0, occupancy_bound);
                self.vars.occupancy.insert((queue, color), var);
            }
            if let CapacityMode::Symbolic { min, max } = self.mode {
                let name = format!("cap({})", network.name(queue));
                let var = self.smt.new_int_var(name, min, max);
                self.vars.capacity.insert(queue, var);
            }
        }
        for (node, automaton) in self.system.automata() {
            for state in automaton.states() {
                let name = format!("{}.{}", network.name(node), automaton.state_name(state));
                let var = self.smt.new_int_var(name, 0, 1);
                self.vars.state.insert((node, state), var);
            }
        }
    }

    /// Declares one block and one idle indicator per `(channel, color)`.
    /// The colors of a queue's input channel share one block indicator,
    /// `blocked(q)`: whether the queue blocks an arriving packet does not
    /// depend on the packet's color (see [`Self::block_definition`]).
    fn declare_block_idle_vars(&mut self) {
        let network = self.network();
        for channel in network.channels().iter().map(|c| c.id).collect::<Vec<_>>() {
            let colors: Vec<ColorId> = self.colors.colors(channel).iter().copied().collect();
            let cname = network.channel_name(channel);
            let queue_blocked = (self.feeds_queue(channel) && !colors.is_empty()).then(|| {
                let queue = network.channel(channel).target.primitive;
                self.smt
                    .new_bool_var(format!("blocked({})", network.name(queue)))
            });
            for color in colors {
                let packet = network.colors().packet(color).clone();
                let block = queue_blocked
                    .unwrap_or_else(|| self.smt.new_bool_var(format!("block({cname}, {packet})")));
                let idle = self.smt.new_bool_var(format!("idle({cname}, {packet})"));
                self.vars.block.insert((channel, color), block);
                self.vars.idle.insert((channel, color), idle);
            }
        }
        for (node, _) in self.system.automata() {
            let name = format!("dead({})", network.name(node));
            let dead = self.smt.new_bool_var(name);
            self.vars.dead.insert(node, dead);
        }
    }

    /// `block(c, d)` as a formula: the variable when `d ∈ T(c)`, `false`
    /// otherwise (a packet that can never arrive can never be observed
    /// blocked).
    fn block_of(&self, channel: ChannelId, color: ColorId) -> Formula {
        match self.vars.block.get(&(channel, color)) {
            Some(var) => Formula::bool_var(*var),
            None => Formula::False,
        }
    }

    /// `idle(c, d)` as a formula: the variable when `d ∈ T(c)`, `true`
    /// otherwise (a packet outside the color over-approximation never
    /// arrives).
    fn idle_of(&self, channel: ChannelId, color: ColorId) -> Formula {
        match self.vars.idle.get(&(channel, color)) {
            Some(var) => Formula::bool_var(*var),
            None => Formula::True,
        }
    }

    /// `⋀_{d ∈ T(c)} idle(c, d)` — the channel will never offer anything.
    fn all_idle(&self, channel: ChannelId) -> Formula {
        Formula::and(
            self.colors
                .colors(channel)
                .iter()
                .map(|d| self.idle_of(channel, *d)),
        )
    }

    fn occupancy_expr(&self, queue: PrimitiveId, color: ColorId) -> LinExpr {
        match self.vars.occupancy.get(&(queue, color)) {
            Some(var) => LinExpr::var(*var),
            None => LinExpr::constant(0),
        }
    }

    fn total_occupancy_expr(&self, queue: PrimitiveId) -> LinExpr {
        LinExpr::sum(
            self.queue_colors(queue)
                .into_iter()
                .map(|d| self.occupancy_expr(queue, d)),
        )
    }

    fn assert_structural_constraints(&mut self) {
        let queues: Vec<PrimitiveId> = self.network().queue_ids().collect();
        for queue in queues {
            let capacity = self.capacity_expr(queue);
            let total = self.total_occupancy_expr(queue);
            self.smt.assert(Formula::le(total, capacity));
        }
        let nodes: Vec<(PrimitiveId, Vec<StateId>)> = self
            .system
            .automata()
            .map(|(node, a)| (node, a.states().collect()))
            .collect();
        for (node, states) in nodes {
            let sum = LinExpr::sum(states.iter().map(|s| {
                LinExpr::var(
                    *self
                        .vars
                        .state
                        .get(&(node, *s))
                        .expect("state var declared"),
                )
            }));
            self.smt.assert(Formula::eq(sum, LinExpr::constant(1)));
        }
    }

    /// Asserts the derived cross-layer invariants.  In symbolic-capacity
    /// (template) mode each equation is guarded by one selector variable,
    /// so a query can retract the whole strengthening by assuming the
    /// selector false — the spec-ablation analogue of the assumed `cap(q)`
    /// pins for capacities.
    fn assert_invariants(&mut self, invariants: &InvariantSet) {
        let selector = match self.mode {
            CapacityMode::Fixed => None,
            CapacityMode::Symbolic { .. } if invariants.is_empty() => None,
            CapacityMode::Symbolic { .. } => {
                let sel = self.smt.new_bool_var("sel(invariants)");
                self.vars.sel_invariants = Some(sel);
                Some(sel)
            }
        };
        for invariant in invariants.iter() {
            let mut expr = LinExpr::constant(invariant.constant as i64);
            let mut representable = true;
            for (var, coef) in &invariant.terms {
                let coef = *coef as i64;
                match var {
                    InvariantVar::QueueCount { queue, color } => {
                        // A queue/color pair outside the occupancy vars
                        // cannot hold packets; its count is zero.
                        if let Some(v) = self.vars.occupancy.get(&(*queue, *color)) {
                            expr.add_term(coef, *v);
                        }
                    }
                    InvariantVar::AutomatonState { node, state } => {
                        match self.vars.state.get(&(*node, *state)) {
                            Some(v) => expr.add_term(coef, *v),
                            None => representable = false,
                        }
                    }
                }
            }
            if representable {
                let relation = match invariant.relation {
                    advocat_invariants::InvariantRelation::Eq => {
                        Formula::eq(expr, LinExpr::constant(0))
                    }
                    advocat_invariants::InvariantRelation::Le => {
                        Formula::le(expr, LinExpr::constant(0))
                    }
                };
                match selector {
                    Some(sel) => self
                        .smt
                        .assert(Formula::implies(Formula::bool_var(sel), relation)),
                    None => self.smt.assert(relation),
                }
            }
        }
    }

    /// Adds the defining bi-implications of every block/idle variable.  A
    /// queue's input shares one block indicator over its colors, so its
    /// definition is asserted once per channel, not once per color.
    fn assert_block_idle_definitions(&mut self) {
        let channels: Vec<ChannelId> = self.network().channels().iter().map(|c| c.id).collect();
        for channel in channels {
            let colors: Vec<ColorId> = self.colors.colors(channel).iter().copied().collect();
            let feeds_queue = self.feeds_queue(channel);
            for (i, &color) in colors.iter().enumerate() {
                if i == 0 || !feeds_queue {
                    let block_def = self.block_definition(channel, color);
                    let block_var = self.block_of(channel, color);
                    self.smt.assert(Formula::iff(block_var, block_def));
                }
                let idle_def = self.idle_definition(channel, color);
                let idle_var = self.idle_of(channel, color);
                self.smt.assert(Formula::iff(idle_var, idle_def));
            }
        }
    }

    /// The block status of `(channel, color)` is defined by the channel's
    /// *target* primitive.
    fn block_definition(&self, channel: ChannelId, color: ColorId) -> Formula {
        let network = self.network();
        let target = network.channel(channel).target;
        let node = target.primitive;
        match network.primitive(node) {
            Primitive::Queue { .. } => {
                // Full queue with some permanently blocked occupant:
                // `blocked(q) ⟺ full(q) ∧ ⋁_{d ∈ T(out)} (#q.d ≥ 1 ∧
                // block(out, d))`, the same for every arriving color.  It
                // is linear in |T(out)|; stated once per input color, as
                // the equations are written, it would be |T(in)| · |T(out)|.
                let total = self.total_occupancy_expr(node);
                let full = Formula::ge(total, self.capacity_expr(node));
                let out = network.out_channel(node, 0);
                let stuck_head = match out {
                    Some(out) => Formula::or(self.colors.colors(out).iter().map(|d| {
                        Formula::and([
                            Formula::ge(self.occupancy_expr(node, *d), LinExpr::constant(1)),
                            self.block_of(out, *d),
                        ])
                    })),
                    None => Formula::False,
                };
                Formula::and([full, stuck_head])
            }
            Primitive::Sink { fair } => {
                if *fair {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            Primitive::Function { .. } => {
                let out = network.out_channel(node, 0).expect("validated network");
                let mapped = network
                    .primitive(node)
                    .function_apply(color)
                    .expect("function primitive");
                self.block_of(out, mapped)
            }
            Primitive::Fork => {
                let a = network.out_channel(node, 0).expect("validated network");
                let b = network.out_channel(node, 1).expect("validated network");
                Formula::or([self.block_of(a, color), self.block_of(b, color)])
            }
            Primitive::Join => {
                let out = network.out_channel(node, 0).expect("validated network");
                let other_port = 1 - target.port;
                let other = network
                    .in_channel(node, other_port)
                    .expect("validated network");
                if target.port == 0 {
                    // Data input: blocked when the output is blocked for this
                    // packet or the token input never offers anything.
                    Formula::or([self.block_of(out, color), self.all_idle(other)])
                } else {
                    // Token input: blocked when the output is blocked for
                    // every packet the data input may offer, or the data
                    // input never offers anything.
                    let out_blocked = Formula::or(
                        self.colors
                            .colors(out)
                            .iter()
                            .map(|d| self.block_of(out, *d)),
                    );
                    Formula::or([out_blocked, self.all_idle(other)])
                }
            }
            Primitive::Switch { .. } => {
                let port = network
                    .primitive(node)
                    .switch_route(color)
                    .expect("switch primitive");
                let out = network.out_channel(node, port).expect("validated network");
                self.block_of(out, color)
            }
            Primitive::Merge { .. } => {
                let out = network.out_channel(node, 0).expect("validated network");
                self.block_of(out, color)
            }
            Primitive::Automaton { .. } => {
                let automaton = self
                    .system
                    .automaton(node)
                    .expect("validated system has automata attached");
                if automaton.ever_accepts(target.port, color) {
                    Formula::bool_var(*self.vars.dead.get(&node).expect("dead var declared"))
                } else {
                    Formula::True
                }
            }
            Primitive::Source { .. } => Formula::False,
        }
    }

    /// The idle status of `(channel, color)` is defined by the channel's
    /// *initiator* primitive.
    fn idle_definition(&self, channel: ChannelId, color: ColorId) -> Formula {
        let network = self.network();
        let initiator = network.channel(channel).initiator;
        let node = initiator.primitive;
        match network.primitive(node) {
            Primitive::Queue { .. } => {
                let empty_of_color =
                    Formula::le(self.occupancy_expr(node, color), LinExpr::constant(0));
                let upstream = match network.in_channel(node, 0) {
                    Some(inp) => self.idle_of(inp, color),
                    None => Formula::True,
                };
                Formula::and([empty_of_color, upstream])
            }
            Primitive::Source { colors } => {
                if colors.contains(&color) {
                    Formula::False
                } else {
                    Formula::True
                }
            }
            Primitive::Function { .. } => {
                let inp = network.in_channel(node, 0).expect("validated network");
                let prim = network.primitive(node);
                let preimages: Vec<ColorId> = self
                    .colors
                    .colors(inp)
                    .iter()
                    .copied()
                    .filter(|d| prim.function_apply(*d) == Some(color))
                    .collect();
                if preimages.is_empty() {
                    Formula::True
                } else {
                    Formula::and(preimages.into_iter().map(|d| self.idle_of(inp, d)))
                }
            }
            Primitive::Fork => {
                let inp = network.in_channel(node, 0).expect("validated network");
                let other_port = 1 - initiator.port;
                let other = network
                    .out_channel(node, other_port)
                    .expect("validated network");
                Formula::or([self.idle_of(inp, color), self.block_of(other, color)])
            }
            Primitive::Join => {
                let a = network.in_channel(node, 0).expect("validated network");
                let b = network.in_channel(node, 1).expect("validated network");
                Formula::or([self.idle_of(a, color), self.all_idle(b)])
            }
            Primitive::Switch { .. } => {
                let prim = network.primitive(node);
                let routed_here = prim.switch_route(color) == Some(initiator.port);
                if !routed_here {
                    Formula::True
                } else {
                    let inp = network.in_channel(node, 0).expect("validated network");
                    self.idle_of(inp, color)
                }
            }
            Primitive::Merge { num_inputs } => {
                let mut parts = Vec::new();
                for port in 0..*num_inputs {
                    if let Some(inp) = network.in_channel(node, port) {
                        if self.colors.contains(inp, color) {
                            parts.push(self.idle_of(inp, color));
                        }
                    }
                }
                Formula::and(parts)
            }
            Primitive::Sink { .. } => Formula::True,
            Primitive::Automaton { .. } => {
                let automaton = self
                    .system
                    .automaton(node)
                    .expect("validated system has automata attached");
                if automaton.ever_emits(initiator.port, color) {
                    Formula::bool_var(*self.vars.dead.get(&node).expect("dead var declared"))
                } else {
                    Formula::True
                }
            }
        }
    }

    /// Adds `dead(A) ⟺ ⋁_s (A.s ≥ 1 ∧ every transition out of s is dead)`.
    fn assert_automaton_dead_definitions(&mut self) {
        let network = self.network();
        let nodes: Vec<PrimitiveId> = self.system.automata().map(|(n, _)| n).collect();
        for node in nodes {
            let automaton = self.system.automaton(node).expect("iterated over automata");
            let mut per_state = Vec::new();
            for state in automaton.states() {
                let mut transition_dead = Vec::new();
                for t in automaton.transitions_from(state) {
                    let transition = automaton.transition(t);
                    let dead_formula = match &transition.kind {
                        TransitionKind::Spontaneous(None) => Formula::False,
                        TransitionKind::Spontaneous(Some((out_port, out_color))) => {
                            match network.out_channel(node, *out_port) {
                                Some(out) => self.block_of(out, *out_color),
                                None => Formula::False,
                            }
                        }
                        TransitionKind::Triggered(map) => {
                            Formula::and(map.iter().map(|((in_port, in_color), emission)| {
                                let idle = match network.in_channel(node, *in_port) {
                                    Some(inp) => self.idle_of(inp, *in_color),
                                    None => Formula::True,
                                };
                                let blocked = match emission {
                                    Some((out_port, out_color)) => {
                                        match network.out_channel(node, *out_port) {
                                            Some(out) => self.block_of(out, *out_color),
                                            None => Formula::False,
                                        }
                                    }
                                    None => Formula::False,
                                };
                                Formula::or([idle, blocked])
                            }))
                        }
                    };
                    transition_dead.push(dead_formula);
                }
                let all_dead = Formula::and(transition_dead);
                let occupied = Formula::ge(
                    LinExpr::var(*self.vars.state.get(&(node, state)).expect("state var")),
                    LinExpr::constant(1),
                );
                per_state.push(Formula::and([occupied, all_dead]));
            }
            let dead_var = Formula::bool_var(*self.vars.dead.get(&node).expect("dead var"));
            self.smt
                .assert(Formula::iff(dead_var, Formula::or(per_state)));
        }
    }

    /// Defines the goal indicator variables: `goal_stuck` holds iff some
    /// queue holds a permanently blocked packet, `goal_dead` iff some
    /// automaton is dead, `goal_any` iff either does.  The definitions are
    /// bi-implications, so a model's indicator values attribute a
    /// counterexample to the symptom(s) it actually witnesses.
    fn define_goal_indicators(&mut self) {
        let network = self.network();
        let mut stuck = Vec::new();
        for queue in network.queue_ids().collect::<Vec<_>>() {
            let Some(out) = network.out_channel(queue, 0) else {
                continue;
            };
            for color in self.queue_colors(queue) {
                stuck.push(Formula::and([
                    Formula::ge(self.occupancy_expr(queue, color), LinExpr::constant(1)),
                    self.block_of(out, color),
                ]));
            }
        }
        let dead: Vec<Formula> = self
            .system
            .automata()
            .map(|(node, _)| Formula::bool_var(*self.vars.dead.get(&node).expect("dead var")))
            .collect();
        let goal_stuck = self.smt.new_bool_var("goal(stuck-packet)");
        let goal_dead = self.smt.new_bool_var("goal(dead-automaton)");
        let goal_any = self.smt.new_bool_var("goal(any)");
        self.smt.assert(Formula::iff(
            Formula::bool_var(goal_stuck),
            Formula::or(stuck),
        ));
        self.smt.assert(Formula::iff(
            Formula::bool_var(goal_dead),
            Formula::or(dead),
        ));
        self.smt.assert(Formula::iff(
            Formula::bool_var(goal_any),
            Formula::or([Formula::bool_var(goal_stuck), Formula::bool_var(goal_dead)]),
        ));
        self.vars.goal_stuck = Some(goal_stuck);
        self.vars.goal_dead = Some(goal_dead);
        self.vars.goal_any = Some(goal_any);
    }

    /// Permanently asserts the target's goal (the one-shot path; template
    /// queries select goals via assumptions instead).
    fn assert_deadlock_target(&mut self, target: DeadlockTarget) {
        self.smt
            .assert(Formula::bool_var(self.vars.goal_var(target)));
    }
}

impl EncodingVars {
    /// The goal indicator selecting the given deadlock target.
    ///
    /// # Panics
    ///
    /// Panics when the goal indicators have not been defined (they are
    /// defined by every complete encoding).
    pub(crate) fn goal_var(&self, target: DeadlockTarget) -> BoolVar {
        let goal = match target {
            DeadlockTarget::StuckPacket => self.goal_stuck,
            DeadlockTarget::DeadAutomaton => self.goal_dead,
            DeadlockTarget::Any => self.goal_any,
        };
        goal.expect("goal indicators declared by the encoding builder")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_automata::derive_colors;
    use advocat_invariants::derive_invariants;
    use advocat_xmas::{Network, Packet};

    #[test]
    fn encoding_declares_vars_for_every_queue_color_and_state() {
        let mut net = Network::new();
        let a = net.intern(Packet::kind("a"));
        let b = net.intern(Packet::kind("b"));
        let src = net.add_source("src", vec![a, b]);
        let q = net.add_queue("q", 3);
        let snk = net.add_sink("snk");
        net.connect(src, 0, q, 0);
        net.connect(q, 0, snk, 0);
        let system = System::new(net);
        let colors = derive_colors(&system);
        let invariants = derive_invariants(&system, &colors);
        let enc = build_encoding(&system, &colors, &invariants, DeadlockTarget::Any);
        assert_eq!(enc.vars.occupancy.len(), 2);
        assert!(enc.vars.state.is_empty());
        // Two channels, two colors each: four block and four idle variables.
        assert_eq!(enc.vars.block.len(), 4);
        assert_eq!(enc.vars.idle.len(), 4);
    }

    #[test]
    fn a_queue_costs_linear_size_in_its_colors() {
        // source(n colors) → q → sink: 8× the colors may cost at most 10×
        // the SAT variables.  Restating the queue's block condition per
        // input color would grow it with n².
        let sat_variables = |n: usize| {
            let mut net = Network::new();
            let packets = (0..n)
                .map(|i| net.intern(Packet::kind(format!("p{i}"))))
                .collect();
            let src = net.add_source("src", packets);
            let q = net.add_queue("q", 2);
            let snk = net.add_sink("snk");
            net.connect(src, 0, q, 0);
            net.connect(q, 0, snk, 0);
            let system = System::new(net);
            let colors = derive_colors(&system);
            let invariants = derive_invariants(&system, &colors);
            let mut enc = build_encoding(&system, &colors, &invariants, DeadlockTarget::Any);
            assert!(enc.smt.check().is_unsat(), "a fair sink drains the queue");
            enc.smt.stats().sat_variables
        };
        let (small, large) = (sat_variables(8), sat_variables(64));
        assert!(large <= 10 * small, "8 colors: {small}, 64 colors: {large}");
    }
}
