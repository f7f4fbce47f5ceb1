//! Interface contracts: invariants projected onto a tile's boundary.
//!
//! Compositional verification certifies each tile of a partitioned fabric
//! separately, then reasons about the whole fabric over *contract
//! variables* only — the occupancies of the cut queues.  The bridge is the
//! [`InterfaceContract`]: every invariant derived inside a (closed) tile
//! is **soundly weakened** onto the tile's boundary queues, producing
//! linear occupancy bounds that mention nothing but cut-queue totals,
//! plus per-class flow summaries of the interface itself.
//!
//! The projection only ever *weakens*: interior terms with nonnegative
//! coefficients are dropped (occupancies and state indicators are
//! nonnegative, so the left-hand side can only shrink), interior terms
//! with negative coefficients are replaced by their most negative value
//! (−coefficient × capacity for queue counts, −coefficient for state
//! indicators), and per-color boundary terms are mapped onto whole-queue
//! totals only in the direction that preserves the bound.  Every
//! projected row is therefore implied by the tile invariant it came from:
//! asserting it in the boundary composition check (`advocat-deadlock`'s
//! `check_composition`) can never exclude a reachable state.

use std::collections::BTreeMap;
use std::fmt;

use advocat_automata::System;
use advocat_xmas::ColorMap;

use crate::derive::InvariantSet;
use crate::vars::{InvariantRelation, InvariantVar};

/// One boundary queue of a tile, as the projection sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContractPort {
    /// The cut queue's name in the tile's (and the flat) build.
    pub queue: String,
    /// Message class of the port's VC plane.
    pub class: usize,
    /// `true` when packets enter the tile through this port.
    pub ingress: bool,
}

/// A projected invariant row: `Σ coefᵢ · occ(qᵢ) + constant ≤ 0` over
/// boundary-queue *total* occupancies.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContractRow {
    /// `(queue name, coefficient)` terms, sorted by queue name.
    pub terms: Vec<(String, i128)>,
    /// Constant offset (the relation is `… + constant ≤ 0`).
    pub constant: i128,
}

/// Per-class summary of an interface's flow capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSummary {
    /// The message class.
    pub class: usize,
    /// Number of ingress ports of the class.
    pub inbound: usize,
    /// Number of egress ports of the class.
    pub outbound: usize,
}

/// A tile's boundary-level summary: occupancy bounds over its cut queues
/// plus per-class in/out flow summaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InterfaceContract {
    /// The tile the contract describes.
    pub tile: String,
    /// Sound occupancy bounds over the boundary queues.
    pub rows: Vec<ContractRow>,
    /// Per-class port counts of the interface.
    pub flows: Vec<FlowSummary>,
}

impl fmt::Display for InterfaceContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "contract[{}]: {} rows over {} ports",
            self.tile,
            self.rows.len(),
            self.flows
                .iter()
                .map(|s| s.inbound + s.outbound)
                .sum::<usize>()
        )?;
        for s in &self.flows {
            writeln!(
                f,
                "  class {}: {} in / {} out",
                s.class, s.inbound, s.outbound
            )?;
        }
        for row in &self.rows {
            let mut first = true;
            write!(f, "  ")?;
            for (queue, coef) in &row.terms {
                if first {
                    write!(f, "{coef}·occ({queue})")?;
                    first = false;
                } else if *coef >= 0 {
                    write!(f, " + {coef}·occ({queue})")?;
                } else {
                    write!(f, " - {}·occ({queue})", -coef)?;
                }
            }
            writeln!(f, " ≤ {}", -row.constant)?;
        }
        Ok(())
    }
}

/// Projects a tile's derived invariants onto its boundary ports.
///
/// `system` and `colors` must be the tile's closed build and its color
/// derivation (the projection needs each boundary queue's full color set
/// to map per-color counts onto totals), `capacity` the uniform queue
/// capacity the contract is stated at.  Rows that weaken to a tautology
/// are dropped; the result is deduplicated.
pub fn project_interface(
    system: &System,
    colors: &ColorMap,
    invariants: &InvariantSet,
    tile: &str,
    ports: &[ContractPort],
    capacity: usize,
) -> InterfaceContract {
    let network = system.network();
    // Resolve the boundary queues once: name → (primitive, #colors).
    let mut boundary: BTreeMap<advocat_xmas::PrimitiveId, (String, usize)> = BTreeMap::new();
    for id in network.queue_ids() {
        let name = network.name(id);
        if ports.iter().any(|p| p.queue == name) {
            let color_count = network
                .out_channel(id, 0)
                .map_or(0, |ch| colors.colors(ch).len());
            boundary.insert(id, (name.to_owned(), color_count));
        }
    }

    let mut rows: Vec<ContractRow> = Vec::new();
    for invariant in invariants.iter() {
        let le_rows: Vec<i128> = match invariant.relation {
            InvariantRelation::Le => vec![1],
            // An equality is both bounds at once.
            InvariantRelation::Eq => vec![1, -1],
        };
        for sign in le_rows {
            if let Some(row) = project_row(invariant, sign, &boundary, capacity) {
                rows.push(row);
            }
        }
    }
    rows.sort();
    rows.dedup();

    let mut flows: BTreeMap<usize, FlowSummary> = BTreeMap::new();
    for port in ports {
        let entry = flows.entry(port.class).or_insert(FlowSummary {
            class: port.class,
            inbound: 0,
            outbound: 0,
        });
        if port.ingress {
            entry.inbound += 1;
        } else {
            entry.outbound += 1;
        }
    }

    InterfaceContract {
        tile: tile.to_owned(),
        rows,
        flows: flows.into_values().collect(),
    }
}

/// Projects one `sign`-scaled invariant (`sign · (Σ terms + constant) ≤ 0`)
/// onto the boundary, or `None` when the weakened row is vacuous.
fn project_row(
    invariant: &crate::vars::Invariant,
    sign: i128,
    boundary: &BTreeMap<advocat_xmas::PrimitiveId, (String, usize)>,
    capacity: usize,
) -> Option<ContractRow> {
    let mut constant = sign * invariant.constant;
    // Per boundary queue: color → coefficient.
    let mut per_queue: BTreeMap<advocat_xmas::PrimitiveId, BTreeMap<advocat_xmas::ColorId, i128>> =
        BTreeMap::new();
    for (var, coef) in &invariant.terms {
        let coef = sign * coef;
        match var {
            InvariantVar::QueueCount { queue, color } if boundary.contains_key(queue) => {
                *per_queue
                    .entry(*queue)
                    .or_default()
                    .entry(*color)
                    .or_insert(0) += coef;
            }
            // Interior terms: nonnegative coefficients are dropped (the
            // left-hand side only shrinks); negative ones are replaced by
            // their most negative value.
            InvariantVar::QueueCount { .. } => {
                if coef < 0 {
                    constant += coef * capacity as i128;
                }
            }
            InvariantVar::AutomatonState { .. } => {
                if coef < 0 {
                    constant += coef;
                }
            }
        }
    }
    if per_queue.is_empty() {
        return None;
    }

    let mut terms: Vec<(String, i128)> = Vec::new();
    for (queue, by_color) in per_queue {
        let (name, color_count) = &boundary[&queue];
        let mut total = 0i128;
        let uniform_cover = |group: &[i128]| {
            !group.is_empty() && group.len() == *color_count && group.iter().all(|c| *c == group[0])
        };
        let positives: Vec<i128> = by_color.values().copied().filter(|c| *c > 0).collect();
        let negatives: Vec<i128> = by_color.values().copied().filter(|c| *c < 0).collect();
        // A sign-uniform group covering every color of the queue maps
        // *exactly* onto the total.  A partial positive group is dropped
        // (a further sound weakening); a partial negative per-color count
        // is bounded below by the negative total (`#q.d ≤ occ(q)`), so
        // each term swaps to `coef · occ(q)` and the row stays implied.
        if uniform_cover(&positives) {
            total += positives[0];
        }
        if uniform_cover(&negatives) {
            total += negatives[0];
        } else {
            total += negatives.iter().sum::<i128>();
        }
        if total != 0 {
            terms.push((name.clone(), total));
        }
    }

    // Vacuous: with no positive coefficient the left-hand side is at most
    // `constant`, so a nonpositive constant makes the row trivially true.
    if terms.iter().all(|(_, c)| *c <= 0) && constant <= 0 {
        return None;
    }
    terms.sort();
    Some(ContractRow { terms, constant })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_invariants;
    use advocat_automata::derive_colors;
    use advocat_xmas::{Network, Packet};

    /// A two-queue chain: src → qb (boundary) → qi (interior) → sink,
    /// with hand-written invariants exercising every projection rule.
    fn chain() -> (System, ColorMap) {
        let mut net = Network::new();
        let a = net.intern(Packet::kind("a"));
        let b = net.intern(Packet::kind("b"));
        let src = net.add_source("src", vec![a, b]);
        let qb = net.add_queue("qb", 2);
        let qi = net.add_queue("qi", 2);
        let snk = net.add_sink("snk");
        net.connect(src, 0, qb, 0);
        net.connect(qb, 0, qi, 0);
        net.connect(qi, 0, snk, 0);
        let system = System::new(net);
        let colors = derive_colors(&system);
        (system, colors)
    }

    fn ports() -> Vec<ContractPort> {
        vec![ContractPort {
            queue: "qb".into(),
            class: 0,
            ingress: true,
        }]
    }

    fn invariant(
        terms: Vec<(InvariantVar, i128)>,
        constant: i128,
        relation: InvariantRelation,
    ) -> InvariantSet {
        InvariantSet::from_invariants(vec![crate::vars::Invariant {
            terms,
            constant,
            relation,
        }])
    }

    fn queue_color(system: &System, queue: &str, kind: &str) -> (InvariantVar, InvariantVar) {
        let net = system.network();
        let q = net
            .primitive_ids()
            .find(|id| net.name(*id) == queue)
            .unwrap();
        let color = |k: &str| net.colors().lookup(&Packet::kind(k)).unwrap();
        (
            InvariantVar::QueueCount {
                queue: q,
                color: color(kind),
            },
            InvariantVar::QueueCount {
                queue: q,
                color: color(if kind == "a" { "b" } else { "a" }),
            },
        )
    }

    #[test]
    fn uniform_full_cover_projects_to_the_total() {
        let (system, colors) = chain();
        // #qb.a + #qb.b − 1 ≤ 0  →  occ(qb) ≤ 1.
        let (qa, qb_color) = queue_color(&system, "qb", "a");
        let set = invariant(vec![(qa, 1), (qb_color, 1)], -1, InvariantRelation::Le);
        let contract = project_interface(&system, &colors, &set, "t", &ports(), 2);
        assert_eq!(contract.rows.len(), 1);
        assert_eq!(contract.rows[0].terms, vec![("qb".to_string(), 1)]);
        assert_eq!(contract.rows[0].constant, -1);
    }

    #[test]
    fn partial_positive_cover_is_dropped() {
        let (system, colors) = chain();
        // #qb.a alone cannot bound the total: the row weakens away.
        let (qa, _) = queue_color(&system, "qb", "a");
        let set = invariant(vec![(qa, 1)], -1, InvariantRelation::Le);
        let contract = project_interface(&system, &colors, &set, "t", &ports(), 2);
        assert!(contract.rows.is_empty());
    }

    #[test]
    fn interior_terms_weaken_by_their_extremes() {
        let (system, colors) = chain();
        // occ(qb) − #qi.a − 2 ≤ 0 at capacity 3 → occ(qb) ≤ 5: the
        // interior count is replaced by its capacity.
        let (qba, qbb) = queue_color(&system, "qb", "a");
        let (qia, _) = queue_color(&system, "qi", "a");
        let set = invariant(
            vec![(qba, 1), (qbb, 1), (qia, -1)],
            -2,
            InvariantRelation::Le,
        );
        let contract = project_interface(&system, &colors, &set, "t", &ports(), 3);
        assert_eq!(contract.rows.len(), 1);
        assert_eq!(contract.rows[0].constant, -5);
    }

    #[test]
    fn equalities_yield_both_directions() {
        let (system, colors) = chain();
        // #qb.a + #qb.b − 1 = 0 → occ(qb) ≤ 1 and −occ(qb) + 1 ≤ 0.
        let (qa, qb_color) = queue_color(&system, "qb", "a");
        let set = invariant(vec![(qa, 1), (qb_color, 1)], -1, InvariantRelation::Eq);
        let contract = project_interface(&system, &colors, &set, "t", &ports(), 2);
        assert_eq!(contract.rows.len(), 2);
        assert!(contract.rows.iter().any(|r| r.terms[0].1 == 1));
        assert!(contract
            .rows
            .iter()
            .any(|r| r.terms[0].1 == -1 && r.constant == 1));
    }

    #[test]
    fn derived_invariants_project_without_panicking() {
        let (system, colors) = chain();
        let derived = derive_invariants(&system, &colors);
        let contract = project_interface(&system, &colors, &derived, "chain", &ports(), 2);
        assert_eq!(contract.tile, "chain");
        assert_eq!(contract.flows.len(), 1);
        assert_eq!(contract.flows[0].inbound, 1);
    }
}
