//! Experiment E4: the invariants reported in Section 5 ("Experimental
//! Results") for the 2×2 mesh with the directory at the lower-right node.
//!
//! The paper prints two invariants for the left-upper cache (0,0) — its
//! invariant (3) bounds the number of en-route `getX`/`ack` packets by the
//! cache and directory states — and notes that similar invariants are found
//! for the other caches, six in total.  We verify the *semantic content* of
//! invariant (3) against every reachable state of the model, and check that
//! the derived invariant set mentions every cache and every fabric queue
//! that can carry protocol messages.

use advocat::prelude::*;

fn system_2x2(queue_size: usize) -> System {
    build_fabric(
        &FabricConfig::new(Topology::mesh(2, 2).unwrap(), queue_size)
            .with_directory(3)
            .with_protocol(ProtocolKind::AbstractMi),
    )
    .expect("2x2 mesh builds")
}

#[test]
fn at_most_one_getx_or_ack_is_en_route_per_cache() {
    // Invariant (3) of the paper implies: for cache c, the total number of
    // en-route getX(c) plus ack(c) packets is at most one, and it is zero
    // whenever the cache is in state I.
    let system = system_2x2(2);
    let net = system.network();
    let dir_node = 3u32;
    let caches: Vec<u32> = vec![0, 1, 2];

    let cache_agents: Vec<_> = caches
        .iter()
        .map(|c| {
            let (x, y) = (c % 2, c / 2);
            net.primitive_ids()
                .find(|id| net.name(*id) == format!("cache({x},{y})"))
                .expect("cache agent exists")
        })
        .collect();
    let queue_ids: Vec<_> = net.queue_ids().collect();

    let mut states_checked = 0usize;
    advocat::explorer::explore_with_visitor(
        &system,
        &ExplorerConfig {
            max_states: 400_000,
            ..ExplorerConfig::default()
        },
        |state| {
            states_checked += 1;
            for (idx, &c) in caches.iter().enumerate() {
                let get_x = net
                    .colors()
                    .lookup(&Packet::kind("getX").with_src(c).with_dst(dir_node))
                    .unwrap();
                let ack = net
                    .colors()
                    .lookup(&Packet::kind("ack").with_src(dir_node).with_dst(c))
                    .unwrap();
                let en_route: usize = queue_ids
                    .iter()
                    .map(|q| state.queue_count(*q, get_x) + state.queue_count(*q, ack))
                    .sum();
                assert!(
                    en_route <= 1,
                    "more than one getX/ack of cache {c} en route in a reachable state"
                );
                let agent = cache_agents[idx];
                let automaton = system.automaton(agent).unwrap();
                let i_state = automaton.state_by_name("I").unwrap();
                if state.is_in_state(agent, i_state) {
                    assert_eq!(en_route, 0, "cache {c} is in I but a getX/ack is en route");
                }
            }
        },
    );
    assert!(states_checked > 1_000);
}

#[test]
fn derived_invariants_cover_every_cache_and_the_fabric() {
    let system = system_2x2(3);
    let mut engine = QueryEngine::structural(system);
    assert!(engine.check(&Query::new()).is_deadlock_free());
    let text: Vec<String> = engine
        .invariants()
        .iter()
        .map(|inv| format_invariant(engine.system(), inv))
        .collect();
    let text = text.join("\n");
    // One one-state invariant per automaton is always present.
    for name in ["cache(0,0)", "cache(1,0)", "cache(0,1)", "dir(1,1)"] {
        assert!(text.contains(name), "invariants never mention {name}");
    }
    // Cross-layer content: at least one invariant relates queue occupancies
    // to automaton states.
    let cross_layer = engine.invariants().iter().any(|inv| {
        let mentions_queue = inv
            .terms
            .iter()
            .any(|(v, _)| matches!(v, advocat_invariants::InvariantVar::QueueCount { .. }));
        let mentions_state = inv
            .terms
            .iter()
            .any(|(v, _)| matches!(v, advocat_invariants::InvariantVar::AutomatonState { .. }));
        mentions_queue && mentions_state
    });
    assert!(cross_layer, "no cross-layer invariant was derived");
    // The paper reports 6 protocol invariants plus bookkeeping; our basis
    // has a handful of equalities as well.
    assert!(engine.invariants().len() >= 6);
}

#[test]
fn all_derived_invariants_hold_on_reachable_states() {
    let system = system_2x2(2);
    let colors = derive_colors(&system);
    let invariants = derive_invariants(&system, &colors);
    let mut violations = 0usize;
    advocat::explorer::explore_with_visitor(
        &system,
        &ExplorerConfig {
            max_states: 300_000,
            ..ExplorerConfig::default()
        },
        |state| {
            for invariant in invariants.iter() {
                if !invariant.holds(
                    |queue, color| state.queue_count(queue, color) as i128,
                    |node, automaton_state| state.is_in_state(node, automaton_state),
                ) {
                    violations += 1;
                }
            }
        },
    );
    assert_eq!(violations, 0);
}
