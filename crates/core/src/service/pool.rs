//! The warm-engine pool.
//!
//! Engines are keyed by [`Fingerprint`].  Each entry owns at most one
//! [`QueryEngine`] and a **ticket turnstile**: every job is assigned a
//! ticket at submission, and the entry serves tickets strictly in order.
//! A worker whose job's turn has not come parks the job *at the entry*
//! (freeing the worker — nothing ever blocks on the turnstile) and the
//! worker that retires the preceding ticket runs it next.  The discipline
//! buys two things:
//!
//! * **checkout exclusivity** — the serving ticket is unique, so the
//!   engine needs no lock while solving;
//! * **determinism** — the engine sees the same query sequence regardless
//!   of worker count, so verdicts *and counterexample witnesses* are
//!   reproducible (the solver's model depends on its learnt-clause state,
//!   which depends on query history).
//!
//! Cold engines are evicted least-recently-used once the pool exceeds its
//! engine cap; entries with outstanding tickets are never evicted.
//!
//! The pool is plain data: the service's one lock guards it together with
//! the job queue, so every method here runs under that lock.

use std::collections::{BTreeMap, HashMap, HashSet};

use advocat_noc::FabricError;
use advocat_telemetry::Telemetry;

use super::fingerprint::Fingerprint;
use super::ScheduledJob;
use crate::query::QueryEngine;

/// What an entry currently holds.
enum EngineSlot {
    /// No engine yet (cold, or lost to a worker panic).
    Empty,
    /// A warm engine ready for checkout.
    Ready(Box<QueryEngine>),
    /// The serving ticket's worker took the engine out.
    CheckedOut,
    /// The fabric build failed; every later ticket fails fast with the
    /// same error instead of re-attempting a deterministic failure.
    Failed(FabricError),
}

/// One fingerprint's pool entry (the fingerprint itself is the map key).
struct Entry {
    /// Next ticket to hand out at submission.
    next_ticket: u64,
    /// The ticket currently allowed to use the engine.
    now_serving: u64,
    slot: EngineSlot,
    /// Jobs whose turn has not come, keyed by ticket.
    parked: BTreeMap<u64, ScheduledJob>,
    /// Logical LRU timestamp of the last checkout.
    last_used: u64,
}

impl Entry {
    /// Evictable: the engine is in the slot and every issued ticket has
    /// been served — evicting under outstanding tickets would rebuild the
    /// engine mid-stream and break the warm guarantee those jobs were
    /// promised.
    fn is_idle(&self) -> bool {
        matches!(self.slot, EngineSlot::Ready(_)) && self.now_serving == self.next_ticket
    }
}

/// What the serving job finds in its entry's slot.
pub(crate) enum Checkout {
    /// A warm engine, now checked out to the job.
    Warm(Box<QueryEngine>),
    /// No engine: the job builds one (and reports it with
    /// [`EnginePool::note_build`] or [`EnginePool::note_build_failure`]).
    Cold,
    /// The fingerprint's cached build failure.
    Failed(FabricError),
}

/// Cumulative statistics of a service's engine pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Engines built cold (each one is a full fabric + invariant +
    /// template derivation).  With a warm pool this is the number of
    /// *distinct* fingerprints seen (minus re-builds after eviction), not
    /// the number of jobs.
    pub engines_built: u64,
    /// Jobs that checked out an already-warm engine.
    pub warm_hits: u64,
    /// Jobs that found their fingerprint's fabric unbuildable (including
    /// the one that discovered it).
    pub build_failures: u64,
    /// Warm engines dropped by the LRU cap.
    pub evictions: u64,
    /// Warm engines currently alive.
    pub live_engines: usize,
    /// Successful engine checkouts: every job that actually got an engine,
    /// warm or cold.  Balances exactly:
    /// `checkouts == warm_hits + engines_built` (timeouts and build
    /// failures never check anything out).
    pub checkouts: u64,
    /// Cold builds for a fingerprint the pool had built before — the
    /// engine was lost to eviction or a worker panic and had to be
    /// re-derived.  A subset of [`PoolStats::engines_built`]:
    /// `engines_built == first_time_builds + rebuilds`.
    pub rebuilds: u64,
}

impl PoolStats {
    /// Fraction of engine checkouts that hit a warm engine — the headline
    /// number of the pool (`0.0` when nothing has run yet).
    pub fn warm_hit_rate(&self) -> f64 {
        let checkouts = self.warm_hits + self.engines_built;
        if checkouts == 0 {
            0.0
        } else {
            self.warm_hits as f64 / checkouts as f64
        }
    }

    /// Cold builds for fingerprints never built before (see
    /// [`PoolStats::rebuilds`]).
    pub fn first_time_builds(&self) -> u64 {
        self.engines_built - self.rebuilds
    }
}

pub(crate) struct EnginePool {
    entries: HashMap<Fingerprint, Entry>,
    max_engines: usize,
    /// Logical clock ordering checkouts for the LRU.
    clock: u64,
    stats: PoolStats,
    /// Every fingerprint ever built: a later build of one of these is a
    /// *rebuild* (its engine was evicted or lost to a panic).
    ever_built: HashSet<Fingerprint>,
    telemetry: Telemetry,
}

impl EnginePool {
    pub(crate) fn new(max_engines: usize, telemetry: Telemetry) -> Self {
        EnginePool {
            entries: HashMap::new(),
            max_engines: max_engines.max(1),
            clock: 0,
            stats: PoolStats::default(),
            ever_built: HashSet::new(),
            telemetry,
        }
    }

    /// The entry of a fingerprint holding outstanding tickets (such an
    /// entry is never evicted, so it exists).
    fn entry(&mut self, fingerprint: Fingerprint) -> &mut Entry {
        self.entries
            .get_mut(&fingerprint)
            .expect("entries with outstanding tickets stay in the pool")
    }

    /// Issues the next ticket for `fingerprint`, creating the entry on
    /// first sight.  Called at admission, so ticket order equals
    /// admission order.
    pub(crate) fn ticket(&mut self, fingerprint: Fingerprint) -> u64 {
        let entry = self.entries.entry(fingerprint).or_insert_with(|| Entry {
            next_ticket: 0,
            now_serving: 0,
            slot: EngineSlot::Empty,
            parked: BTreeMap::new(),
            last_used: 0,
        });
        let turn = entry.next_ticket;
        entry.next_ticket += 1;
        turn
    }

    /// Whether `job`'s ticket is the one its entry serves now.
    pub(crate) fn is_serving(&self, job: &ScheduledJob) -> bool {
        self.entries[&job.fingerprint].now_serving == job.turn
    }

    /// Parks an out-of-turn job at its entry until its predecessor
    /// retires.
    pub(crate) fn park(&mut self, job: ScheduledJob) {
        self.entry(job.fingerprint).parked.insert(job.turn, job);
    }

    /// Hands the serving job what its entry's slot holds, stamping the
    /// entry for the LRU when an engine is (or is about to be) checked
    /// out.
    pub(crate) fn checkout(&mut self, fingerprint: Fingerprint) -> Checkout {
        self.clock += 1;
        let stamp = self.clock;
        let entry = self.entry(fingerprint);
        let slot = std::mem::replace(&mut entry.slot, EngineSlot::CheckedOut);
        match slot {
            EngineSlot::CheckedOut => unreachable!("the turnstile serialises checkouts"),
            EngineSlot::Failed(error) => {
                entry.slot = EngineSlot::Failed(error.clone());
                self.stats.build_failures += 1;
                Checkout::Failed(error)
            }
            EngineSlot::Ready(engine) => {
                entry.last_used = stamp;
                self.stats.warm_hits += 1;
                self.stats.checkouts += 1;
                Checkout::Warm(engine)
            }
            EngineSlot::Empty => {
                entry.last_used = stamp;
                Checkout::Cold
            }
        }
    }

    /// Records a cold build of `fingerprint`; returns `true` when it is a
    /// *rebuild* (the fingerprint had been built before and its engine was
    /// evicted or lost).
    pub(crate) fn note_build(&mut self, fingerprint: Fingerprint) -> bool {
        self.stats.engines_built += 1;
        self.stats.checkouts += 1;
        self.stats.live_engines += 1;
        let rebuild = !self.ever_built.insert(fingerprint);
        if rebuild {
            self.stats.rebuilds += 1;
        }
        rebuild
    }

    /// Caches a failed fabric build for every later ticket.
    pub(crate) fn note_build_failure(&mut self, fingerprint: Fingerprint, error: FabricError) {
        self.entry(fingerprint).slot = EngineSlot::Failed(error);
        self.stats.build_failures += 1;
    }

    /// Puts a checked-out engine back (or records its loss after a panic).
    pub(crate) fn check_in(&mut self, fingerprint: Fingerprint, engine: Option<Box<QueryEngine>>) {
        let entry = self.entry(fingerprint);
        match engine {
            Some(engine) => entry.slot = EngineSlot::Ready(engine),
            None => {
                entry.slot = EngineSlot::Empty;
                self.stats.live_engines -= 1;
            }
        }
    }

    /// Retires the serving ticket and returns the next one's job, if it
    /// has already arrived (parked).
    pub(crate) fn retire(&mut self, fingerprint: Fingerprint) -> Option<ScheduledJob> {
        let entry = self.entry(fingerprint);
        entry.now_serving += 1;
        let next = entry.now_serving;
        entry.parked.remove(&next)
    }

    /// Evicts least-recently-used idle engines until the pool is back
    /// under its cap; when every engine is busy the pool stays over it
    /// until the next build.
    pub(crate) fn enforce_cap(&mut self) {
        while self.stats.live_engines > self.max_engines {
            let Some(fingerprint) = self
                .entries
                .iter()
                .filter(|(_, entry)| entry.is_idle())
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(fingerprint, _)| *fingerprint)
            else {
                return;
            };
            self.entries.remove(&fingerprint);
            self.stats.live_engines -= 1;
            self.stats.evictions += 1;
            let live = self.stats.live_engines;
            self.telemetry.event_with("engine.evict", || {
                vec![
                    ("fingerprint", format!("{fingerprint:?}")),
                    ("live", live.to_string()),
                ]
            });
        }
    }

    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }
}
