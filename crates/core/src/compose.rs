//! Compositional verification: certified tiles plus a boundary check.
//!
//! A flat encoding of a large fabric is one monolithic SMT instance whose
//! size — and solving time — grows with the whole fabric.  The composed
//! flow cuts the fabric along a [`Partition`] and never builds the flat
//! instance at all:
//!
//! 1. every tile is closed at its boundary with free environment sources
//!    and sinks ([`advocat_noc::build_tile_fabric`]), its colors and
//!    invariants derived — tiles spread over at most
//!    [`std::thread::available_parallelism`] threads at
//!    [`QueryEngine::compose`] time — and certified deadlock-free on its
//!    own small encoding.  Tiles of one structural class
//!    ([`Partition::tile_class_digests`], one fabric digest for all
//!    tiles) share one engine, built from the class's first tile as
//!    compose derived it (only the template is new), and each class is
//!    asked once per query: the 60 interior tiles of a big
//!    mesh take the verdict of the one interior engine.  Every tile keeps
//!    its own invariants and contract: the class digest is coarse, and
//!    tiles of one class route different destination colors;
//! 2. each tile's derived invariants are projected onto its cut queues,
//!    yielding an [`advocat_invariants::InterfaceContract`] of sound
//!    occupancy bounds;
//! 3. the global question is asked over **contract variables only**:
//!    [`advocat_deadlock::check_composition`] searches for a cycle of
//!    full, mutually-waiting boundary ports subject to the contracts.
//!
//! `Unsat` at step 3 (with every tile certified) means the composition is
//! deadlock-free; `Sat` is a *candidate* attributed to the interface it
//! touches ([`Report::attribution`]).  The abstraction is coarser than
//! the flat encoding — candidates may be spurious where a flat run would
//! prove freedom — so for small fabrics, where flat is cheap anyway, the
//! engine transparently falls back to the flat encoding
//! ([`ComposeOptions::flat_fallback_max_nodes`]); on large fabrics the
//! composed path is the only one that completes in reasonable time.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use advocat::prelude::*;
//!
//! let config = FabricConfig::new(Topology::mesh(2, 2)?, 3).with_directory(3);
//! let partition = Arc::new(Partition::per_node(&config.topology));
//! let mut composition = QueryEngine::compose(
//!     config,
//!     partition,
//!     ComposeOptions::new(2..=3),
//! )?;
//! let report = composition.check(&Query::new().capacity(3));
//! assert!(report.is_deadlock_free());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use advocat_automata::{System, SystemStats};
use advocat_deadlock::{
    check_composition, Analysis, AnalysisStats, BoundaryOutcome, CapacitySelection,
    CompositionModel, Counterexample, DeadlockTarget, InterfacePort, Query, Verdict,
};
use advocat_invariants::{project_interface, ContractPort, InterfaceContract, InvariantSet};
use advocat_logic::{CheckConfig, SolverProfile};
use advocat_noc::{
    boundary_graph, build_tile_fabric, BoundaryGraph, ConfigDigest, FabricConfig, FabricError,
    Partition, PortDirection,
};
use advocat_xmas::ColorMap;

use crate::query::{build_traced, derive_traced, QueryEngine};
use crate::report::Report;

/// Options of a composed verification.
#[derive(Clone, Debug)]
pub struct ComposeOptions {
    /// The capacity range tile engines are built over (every queried
    /// capacity must lie inside it, exactly as for a flat engine).
    pub capacities: RangeInclusive<usize>,
    /// SMT resource limits for tile certification and the boundary check.
    pub check: CheckConfig,
    /// Fabrics with at most this many topology nodes are answered by the
    /// flat encoding instead (`0` disables the fallback entirely).  Flat
    /// is exact and cheap at this scale, so small configurations keep
    /// flat-identical verdicts; the composed machinery is for fabrics
    /// beyond it.
    pub flat_fallback_max_nodes: usize,
}

impl ComposeOptions {
    /// Defaults: default solver limits, flat fallback up to 9 nodes
    /// (covering the paper's 2×2/3×3 study meshes).
    pub fn new(capacities: RangeInclusive<usize>) -> Self {
        ComposeOptions {
            capacities,
            check: CheckConfig::default(),
            flat_fallback_max_nodes: 9,
        }
    }

    /// Replaces the SMT resource limits.
    pub fn with_check(mut self, check: CheckConfig) -> Self {
        self.check = check;
        self
    }

    /// Sets the flat-fallback node bound (`0` disables the fallback).
    pub fn with_flat_fallback(mut self, max_nodes: usize) -> Self {
        self.flat_fallback_max_nodes = max_nodes;
        self
    }
}

/// Counters describing how a [`Composition`] answered its queries so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComposeStats {
    /// Tiles in the partition.
    pub tiles: usize,
    /// Distinct structural tile classes (the number of engines a composed
    /// sweep needs — an 8×8 mesh has interior, edge, corner and
    /// directory-hosting classes, not 64 engines).
    pub distinct_classes: usize,
    /// Cut ports in the boundary graph.
    pub boundary_ports: usize,
    /// Class engines built so far (at most one per class, built at the
    /// first composed check).
    pub engines_built: u64,
    /// Tile certifications answered by a class engine the tile did not
    /// build: each composed check counts every tile, minus one per engine
    /// it built.
    pub warm_hits: u64,
    /// Queries answered by the flat fallback instead of composition.
    pub flat_fallbacks: u64,
}

/// One tile's certified-build artefacts, kept for contract projection and
/// attribution.
struct TileData {
    name: String,
    system: System,
    colors: ColorMap,
    invariants: InvariantSet,
    ports: Vec<ContractPort>,
}

/// One structural tile class and its engine.
struct TileClass {
    digest: ConfigDigest,
    /// The class's first tile in tile order, whose kept subsystem, colors
    /// and invariants the engine is built from.
    tile: usize,
    /// Built at the first composed check.
    engine: Option<QueryEngine>,
}

/// A composed verification session over one partitioned fabric: each
/// structural tile class certified on its own engine, contracts projected,
/// and the boundary checked — once per [`Composition::check`] call, with
/// the class engines staying warm across calls.  See the documentation of
/// [`QueryEngine::compose`] for the architecture.
pub struct Composition {
    config: FabricConfig,
    partition: Arc<Partition>,
    options: ComposeOptions,
    tiles: Vec<TileData>,
    /// In order of first appearance, so the first failing class is the
    /// class of the first failing tile.
    classes: Vec<TileClass>,
    graph: BoundaryGraph,
    flat: Option<Box<QueryEngine>>,
    engines_built: u64,
    warm_hits: u64,
    flat_fallbacks: u64,
}

impl std::fmt::Debug for Composition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composition")
            .field("tiles", &self.tiles.len())
            .field("distinct_classes", &self.classes.len())
            .field("boundary_ports", &self.graph.ports.len())
            .finish()
    }
}

impl QueryEngine {
    /// Opens a composed verification session: cuts `config` along
    /// `partition`, builds and validates every tile's closed subsystem
    /// (deriving its colors and invariants), and prepares the boundary
    /// waiting graph.  No SMT solving happens yet — queries do, via
    /// [`Composition::check`].
    ///
    /// Tiles are built on at most
    /// [`std::thread::available_parallelism`] threads that pull them one
    /// at a time; tiles, classes and errors keep tile order, so the
    /// session is the one a serial loop over the tiles would open.
    ///
    /// # Errors
    ///
    /// Returns the [`FabricError`] of the first tile, in tile order, whose
    /// subsystem cannot be built (which implies the flat fabric could not
    /// be built either).
    pub fn compose(
        config: FabricConfig,
        partition: Arc<Partition>,
        options: ComposeOptions,
    ) -> Result<Composition, FabricError> {
        let telemetry = &options.check.solver.telemetry;
        let built = fan_out(0..partition.num_tiles(), |tile| {
            let nodes = partition.tile(tile).nodes().len();
            let system = build_traced(telemetry, nodes, || {
                build_tile_fabric(&config, &partition, tile)
            })?;
            let (colors, invariants) = derive_traced(&system, telemetry);
            let ports = partition
                .boundary_ports(&config, tile)
                .into_iter()
                .map(|p| ContractPort {
                    queue: p.name,
                    class: p.class,
                    ingress: p.direction == PortDirection::Ingress,
                })
                .collect();
            Ok(TileData {
                name: partition.tile(tile).name.clone(),
                system,
                colors,
                invariants,
                ports,
            })
        });
        let tiles = built.into_iter().collect::<Result<Vec<_>, FabricError>>()?;
        let mut classes: Vec<TileClass> = Vec::new();
        for (tile, digest) in partition
            .tile_class_digests(&config)
            .into_iter()
            .enumerate()
        {
            if classes.iter().all(|class| class.digest != digest) {
                classes.push(TileClass {
                    digest,
                    tile,
                    engine: None,
                });
            }
        }
        let graph = boundary_graph(&config, &partition);
        Ok(Composition {
            config,
            partition,
            options,
            tiles,
            classes,
            graph,
            flat: None,
            engines_built: 0,
            warm_hits: 0,
            flat_fallbacks: 0,
        })
    }
}

impl Composition {
    /// Answers one [`Query`] for the whole fabric.
    ///
    /// Small fabrics (at most
    /// [`ComposeOptions::flat_fallback_max_nodes`] topology nodes) are
    /// answered by a lazily built flat engine — exact, and cheap at that
    /// scale.  Beyond it the composed path runs: every structural class
    /// certified once at the queried capacity, contracts projected,
    /// boundary checked.  A deadlock-free composed verdict is sound; a
    /// composed candidate is over-approximate and carries an attribution
    /// naming the tile or interface it touches.
    ///
    /// The first composed check builds the class engines' templates, on
    /// at most [`std::thread::available_parallelism`] threads, from the
    /// tiles compose already built and derived; later checks reuse the
    /// engines warm.
    ///
    /// # Panics
    ///
    /// Panics when the query selects a capacity (a structural query: the
    /// fabric's configured queue size) outside
    /// [`ComposeOptions::capacities`], with the flat engine's message, on
    /// either path.  A panic while building or asking an engine
    /// propagates.
    pub fn check(&mut self, query: &Query) -> Report {
        let capacity = match query.capacity_selection() {
            CapacitySelection::Uniform(capacity) => capacity,
            CapacitySelection::Structural => self.config.queue_size,
        };
        assert!(
            self.options.capacities.contains(&capacity),
            "capacity {capacity} outside the template range {:?}",
            self.options.capacities
        );
        let nodes = self.config.topology.num_nodes();
        if self.options.flat_fallback_max_nodes > 0 && nodes <= self.options.flat_fallback_max_nodes
        {
            self.flat_fallbacks += 1;
            return self.flat_engine().check(query);
        }
        self.check_composed(&query.capacity(capacity), capacity)
    }

    /// The lazily built flat-fallback engine.
    fn flat_engine(&mut self) -> &mut QueryEngine {
        if self.flat.is_none() {
            let engine = QueryEngine::for_fabric_with(
                &self.config,
                self.options.check.clone(),
                self.options.capacities.clone(),
            )
            .expect("tiles built, so the flat fabric builds");
            self.flat = Some(Box::new(engine));
        }
        self.flat.as_mut().expect("just built")
    }

    /// The composed path for a query pinned to `capacity`: certify every
    /// class, then check the boundary.
    fn check_composed(&mut self, query: &Query, capacity: usize) -> Report {
        let start = Instant::now();
        let telemetry = self.options.check.solver.telemetry.clone();
        let certify_span = telemetry.span_with("compose.certify", || {
            vec![
                ("tiles", self.tiles.len().to_string()),
                ("classes", self.classes.len().to_string()),
                ("capacity", capacity.to_string()),
            ]
        });
        let cold = self.classes.iter().filter(|c| c.engine.is_none()).count();
        let reports = self.certify(query);
        self.engines_built += cold as u64;
        self.warm_hits += (self.tiles.len() - cold) as u64;
        let mut stats = AnalysisStats::default();
        let mut profile = SolverProfile::default();
        for report in &reports {
            accumulate(&mut stats, &report.analysis().stats);
            if let Some(class_profile) = report.solver_profile() {
                profile.merge(class_profile);
            }
        }
        let profile = (!profile.is_empty()).then_some(profile);
        drop(certify_span);
        let failing = self
            .classes
            .iter()
            .zip(&reports)
            .find(|(_, report)| !report.is_deadlock_free());
        if let Some((class, report)) = failing {
            // A tile that is not certified free under its liberal
            // environment closure already yields the composed candidate
            // (or resource-limit verdict), attributed to the tile.
            stats.elapsed = start.elapsed();
            return Report::composed(
                self.aggregate_system_stats(),
                Analysis {
                    verdict: report.analysis().verdict.clone(),
                    stats,
                    profile,
                },
                Some(format!("tile {}", self.tiles[class.tile].name)),
            );
        }

        let boundary_span = telemetry.span_with("compose.boundary", || {
            vec![
                ("ports", self.graph.ports.len().to_string()),
                ("capacity", capacity.to_string()),
            ]
        });
        let model = self.composition_model(capacity, query.invariants_enabled());
        let boundary = check_composition(&model, &self.options.check);
        drop(boundary_span);
        stats.elapsed = start.elapsed();
        let (verdict, attribution) = match boundary.outcome {
            BoundaryOutcome::Free => (Verdict::DeadlockFree, None),
            BoundaryOutcome::Unknown => (Verdict::Unknown, None),
            BoundaryOutcome::Candidate { ports } => {
                let attribution = self.attribute_ports(&ports);
                let mut cex = Counterexample::default();
                for name in &ports {
                    cex.queue_contents.push((
                        name.clone(),
                        "boundary packet".to_owned(),
                        capacity as i64,
                    ));
                }
                cex.witnessed = vec![DeadlockTarget::StuckPacket];
                (Verdict::PotentialDeadlock(cex), Some(attribution))
            }
        };
        Report::composed(
            self.aggregate_system_stats(),
            Analysis {
                verdict,
                stats,
                profile,
            },
            attribution,
        )
    }

    /// Asks every class engine `query` once, building the missing ones
    /// first, and returns one report per class in class order.  A class
    /// engine is built from its first tile's subsystem, colors and
    /// invariants as [`QueryEngine::compose`] kept them: only its template
    /// is new.  Threads (at most [`std::thread::available_parallelism`])
    /// pull classes one at a time; a panic on any of them is resumed here.
    fn certify(&mut self, query: &Query) -> Vec<Report> {
        let (tiles, options) = (&self.tiles, &self.options);
        fan_out(self.classes.iter_mut(), |class| {
            let engine = class.engine.get_or_insert_with(|| {
                let tile = &tiles[class.tile];
                QueryEngine::from_derived(
                    tile.system.clone(),
                    &tile.colors,
                    tile.invariants.clone(),
                    options.check.clone(),
                    options.capacities.clone(),
                )
            });
            engine.check(query)
        })
    }

    /// The interface contracts of every tile at `capacity`, in tile order.
    pub fn contracts(&self, capacity: usize) -> Vec<InterfaceContract> {
        self.tiles
            .iter()
            .map(|tile| {
                project_interface(
                    &tile.system,
                    &tile.colors,
                    &tile.invariants,
                    &tile.name,
                    &tile.ports,
                    capacity,
                )
            })
            .collect()
    }

    /// Counters of the session so far (tile/class/boundary sizes are
    /// fixed at [`QueryEngine::compose`] time; the engine counters grow
    /// with every composed query).
    pub fn stats(&self) -> ComposeStats {
        ComposeStats {
            tiles: self.tiles.len(),
            distinct_classes: self.classes.len(),
            boundary_ports: self.graph.ports.len(),
            engines_built: self.engines_built,
            warm_hits: self.warm_hits,
            flat_fallbacks: self.flat_fallbacks,
        }
    }

    /// The partition the session composes over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Builds the port-level abstraction the boundary check runs on.
    fn composition_model(&self, capacity: usize, invariants: bool) -> CompositionModel {
        let ports = self
            .graph
            .ports
            .iter()
            .map(|p| InterfacePort {
                name: p.name.clone(),
                capacity,
                deps: p.deps.clone(),
            })
            .collect();
        let constraints = if invariants {
            self.contracts(capacity)
                .into_iter()
                .flat_map(|contract| contract.rows)
                .collect()
        } else {
            Vec::new()
        };
        CompositionModel { ports, constraints }
    }

    /// Names the interface (and its two tiles) of a boundary candidate.
    fn attribute_ports(&self, ports: &[String]) -> String {
        let named = ports.first().and_then(|name| {
            self.graph
                .ports
                .iter()
                .find(|p| &p.name == name)
                .map(|p| (name, p))
        });
        match named {
            Some((name, port)) => {
                let from = &self.partition.tile(port.from_tile).name;
                let to = &self.partition.tile(port.to_tile).name;
                let more = match ports.len() {
                    0 | 1 => String::new(),
                    n => format!(" and {} more", n - 1),
                };
                format!("interface {name} (tile {from} → tile {to}){more}")
            }
            None => "boundary".to_owned(),
        }
    }

    /// Sum of the certified tiles' size statistics (environment closures
    /// included, so slightly above the flat fabric's numbers).
    fn aggregate_system_stats(&self) -> SystemStats {
        let mut total = SystemStats::default();
        for tile in &self.tiles {
            let stats = tile.system.stats();
            total.primitives += stats.primitives;
            total.queues += stats.queues;
            total.automata += stats.automata;
            total.channels += stats.channels;
            total.colors = total.colors.max(stats.colors);
        }
        total
    }
}

/// Applies `work` to every item on at most
/// [`std::thread::available_parallelism`] scoped threads (never more than
/// there are items) that pull items one at a time, and returns the
/// results in item order.  A panic on any thread is resumed on the
/// caller's.
fn fan_out<I, R>(items: I, work: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    let items = items.into_iter();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, items.len().max(1));
    let pending = Mutex::new(items.enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = pending.lock().expect("work queue").next();
                        let Some((index, item)) = next else {
                            return done;
                        };
                        done.push((index, work(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

fn accumulate(total: &mut AnalysisStats, delta: &AnalysisStats) {
    total.invariants += delta.invariants;
    total.int_vars += delta.int_vars;
    total.bool_vars += delta.bool_vars;
    total.linear_atoms += delta.linear_atoms;
    total.sat_variables += delta.sat_variables;
    total.refinements += delta.refinements;
    total.theory_propagations += delta.theory_propagations;
    total.sat_conflicts += delta.sat_conflicts;
    total.sat_propagations += delta.sat_propagations;
    total.sat_reduced_dbs += delta.sat_reduced_dbs;
    total.sat_deleted_clauses += delta.sat_deleted_clauses;
    total.sat_live_learnts += delta.sat_live_learnts;
    total.sat_total_learnt += delta.sat_total_learnt;
}

#[cfg(test)]
mod tests {
    use super::*;
    use advocat_noc::Topology;

    #[test]
    fn small_fabrics_fall_back_to_the_flat_engine() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
        let partition = Arc::new(Partition::per_node(&config.topology));
        let mut composition =
            QueryEngine::compose(config, partition, ComposeOptions::new(2..=3)).unwrap();
        assert!(!composition
            .check(&Query::new().capacity(2))
            .is_deadlock_free());
        assert!(composition
            .check(&Query::new().capacity(3))
            .is_deadlock_free());
        let stats = composition.stats();
        assert_eq!(stats.flat_fallbacks, 2);
        assert_eq!(stats.engines_built, 0, "no tile engine was needed");
    }

    #[test]
    fn composed_runs_certify_each_class_once() {
        let config = FabricConfig::new(Topology::mesh(3, 3).unwrap(), 3).with_directory(4);
        let partition = Arc::new(Partition::per_node(&config.topology));
        let options = ComposeOptions::new(3..=3).with_flat_fallback(0);
        let mut composition = QueryEngine::compose(config, partition, options).unwrap();
        let report = composition.check(&Query::new().capacity(3));
        // Composition may report a (spurious) boundary candidate, but a
        // deadlock-free answer must be sound; either way every tile ran.
        let stats = composition.stats();
        assert_eq!(stats.tiles, 9);
        // Corner, edge, interior and directory-hosting classes.
        assert!(stats.distinct_classes <= 4, "{stats:?}");
        assert_eq!(
            stats.engines_built as usize, stats.distinct_classes,
            "one cold build per class"
        );
        assert_eq!(stats.warm_hits, 9 - stats.engines_built);
        if !report.is_deadlock_free() {
            assert!(report.attribution().is_some(), "candidates are attributed");
        }
        // A second check reuses every class engine: all nine tiles warm.
        composition.check(&Query::new().capacity(3));
        let again = composition.stats();
        assert_eq!(again.engines_built, stats.engines_built);
        assert_eq!(again.warm_hits, stats.warm_hits + 9);
    }

    #[test]
    #[should_panic(expected = "capacity 5 outside the template range 2..=3")]
    fn the_flat_fallback_rejects_an_out_of_range_capacity_alike() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
        let partition = Arc::new(Partition::per_node(&config.topology));
        let mut composition =
            QueryEngine::compose(config, partition, ComposeOptions::new(2..=3)).unwrap();
        composition.check(&Query::new().capacity(5));
    }

    #[test]
    fn fan_out_returns_results_in_item_order() {
        // Early items take longest, so more than one thread finishes them
        // out of order.
        let results = fan_out(0..8u32, |item| {
            std::thread::sleep(std::time::Duration::from_millis(u64::from(8 - item)));
            item * 10
        });
        assert_eq!(results, (0..8).map(|item| item * 10).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_takes_empty_input_and_fewer_items_than_threads() {
        assert!(fan_out(Vec::<u32>::new(), |item| item).is_empty());
        assert_eq!(fan_out(vec![7], |item| item + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_panic_on_a_fan_out_thread_reaches_the_caller() {
        fan_out(0..6, |item| {
            assert_ne!(item, 3, "item {item} failed");
            item
        });
    }

    #[test]
    fn contracts_project_per_tile() {
        let config = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
        let partition = Arc::new(Partition::per_node(&config.topology));
        let composition =
            QueryEngine::compose(config, partition, ComposeOptions::new(2..=2)).unwrap();
        let contracts = composition.contracts(2);
        assert_eq!(contracts.len(), 4);
        assert!(contracts.iter().all(|c| !c.flows.is_empty()));
    }
}
