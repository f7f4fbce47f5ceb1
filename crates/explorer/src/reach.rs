//! Bounded breadth-first reachability.

use std::collections::{HashSet, VecDeque};

use advocat_automata::System;

use crate::state::GlobalState;
use crate::transfer::enabled_events;

/// Bounds and semantic options for an exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerConfig {
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Use the paper's stalling semantics (packets that cannot be consumed
    /// are overtaken by later packets) instead of strict FIFO consumption.
    pub requeue_stalled: bool,
    /// Maximum number of deadlock states to record.
    pub max_deadlocks: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            max_states: 200_000,
            requeue_stalled: true,
            max_deadlocks: 8,
        }
    }
}

/// Whether the exploration covered the full reachable state space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every reachable state was visited.
    Exhaustive,
    /// The state bound was hit before exhausting the state space.
    Bounded,
}

/// The result of an exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Whether the search was exhaustive.
    pub outcome: Outcome,
    /// Number of distinct states visited.
    pub states_explored: usize,
    /// Deadlock states found (no enabled event), up to the configured cap.
    pub deadlocks: Vec<GlobalState>,
}

impl Exploration {
    /// Returns `true` when the exploration proves the system deadlock-free
    /// (exhaustive search, no deadlock state).
    pub fn proves_deadlock_freedom(&self) -> bool {
        self.outcome == Outcome::Exhaustive && self.deadlocks.is_empty()
    }
}

/// Explores the reachable states of a system breadth-first.
pub fn explore(system: &System, config: &ExplorerConfig) -> Exploration {
    explore_with_visitor(system, config, |_| {})
}

/// Explores the reachable states, invoking `visitor` on every distinct
/// state visited (including the initial one).
///
/// The visitor hook is how the test-suite cross-validates the invariant
/// generator: every derived invariant must hold in every reachable state.
pub fn explore_with_visitor<F>(
    system: &System,
    config: &ExplorerConfig,
    mut visitor: F,
) -> Exploration
where
    F: FnMut(&GlobalState),
{
    let initial = GlobalState::initial(system);
    let mut visited: HashSet<GlobalState> = HashSet::new();
    let mut frontier: VecDeque<GlobalState> = VecDeque::new();
    let mut deadlocks = Vec::new();
    visited.insert(initial.clone());
    visitor(&initial);
    frontier.push_back(initial);
    let mut bounded = false;

    while let Some(state) = frontier.pop_front() {
        let events = enabled_events(system, &state, config.requeue_stalled);
        if events.is_empty() && deadlocks.len() < config.max_deadlocks {
            deadlocks.push(state.clone());
        }
        for event in events {
            let next = event.apply(&state);
            if visited.contains(&next) {
                continue;
            }
            if visited.len() >= config.max_states {
                bounded = true;
                continue;
            }
            visitor(&next);
            visited.insert(next.clone());
            frontier.push_back(next);
        }
    }

    Exploration {
        outcome: if bounded {
            Outcome::Bounded
        } else {
            Outcome::Exhaustive
        },
        states_explored: visited.len(),
        deadlocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_automata::AutomatonBuilder;
    use advocat_xmas::{Network, Packet};

    /// The running example of the paper: a request/acknowledge loop.
    fn running_example(queue_size: usize) -> System {
        let mut net = Network::new();
        let req = net.intern(Packet::kind("req"));
        let ack = net.intern(Packet::kind("ack"));
        let s_node = net.add_automaton_node("S", 1, 1);
        let t_node = net.add_automaton_node("T", 1, 1);
        let q0 = net.add_queue("q0", queue_size);
        let q1 = net.add_queue("q1", queue_size);
        net.connect(s_node, 0, q0, 0);
        net.connect(q0, 0, t_node, 0);
        net.connect(t_node, 0, q1, 0);
        net.connect(q1, 0, s_node, 0);
        let mut sb = AutomatonBuilder::new("S", 1, 1);
        let s0 = sb.state("s0");
        let s1 = sb.state("s1");
        sb.set_initial(s0);
        sb.spontaneous_emit(s0, s1, 0, req);
        sb.on_packet(s1, s0, 0, ack, None);
        let mut tb = AutomatonBuilder::new("T", 1, 1);
        let t0 = tb.state("t0");
        let t1 = tb.state("t1");
        tb.set_initial(t0);
        tb.on_packet(t0, t1, 0, req, None);
        tb.spontaneous_emit(t1, t0, 0, ack);
        let mut system = System::new(net);
        system.attach(s_node, sb.build().unwrap()).unwrap();
        system.attach(t_node, tb.build().unwrap()).unwrap();
        system
    }

    #[test]
    fn running_example_is_deadlock_free_and_small() {
        let system = running_example(2);
        let result = explore(&system, &ExplorerConfig::default());
        assert!(result.proves_deadlock_freedom());
        // The request/acknowledge loop only has a handful of global states.
        assert!(result.states_explored <= 8, "{}", result.states_explored);
    }

    #[test]
    fn dead_sink_pipeline_reaches_a_deadlock() {
        let mut net = Network::new();
        let p = net.intern(Packet::kind("p"));
        let src = net.add_source("src", vec![p]);
        let q = net.add_queue("q", 2);
        let dead = net.add_dead_sink("dead");
        net.connect(src, 0, q, 0);
        net.connect(q, 0, dead, 0);
        let system = System::new(net);
        let result = explore(&system, &ExplorerConfig::default());
        assert_eq!(result.outcome, Outcome::Exhaustive);
        assert_eq!(result.deadlocks.len(), 1);
        assert_eq!(result.deadlocks[0].queue_len(q), 2);
        assert!(!result.proves_deadlock_freedom());
    }

    #[test]
    fn visitor_sees_every_state_once() {
        let system = running_example(1);
        let mut seen = 0usize;
        let result = explore_with_visitor(&system, &ExplorerConfig::default(), |_| seen += 1);
        assert_eq!(seen, result.states_explored);
    }

    #[test]
    fn state_bound_truncates_the_search() {
        let system = running_example(2);
        let config = ExplorerConfig {
            max_states: 2,
            ..ExplorerConfig::default()
        };
        let result = explore(&system, &config);
        assert_eq!(result.outcome, Outcome::Bounded);
        assert_eq!(result.states_explored, 2);
    }
}
