//! `prove-free` and `find-deadlock`: one fresh `QueryEngine::for_fabric`
//! per pinned fabric, then every question of the workload on it.
//!
//! A round visits every fabric once, in a seed-shuffled order; rounds
//! repeat while the time budget allows.

use std::time::{Duration, Instant};

use advocat::prelude::{CheckConfig, Query, QueryEngine};

use crate::expect::{FabricCase, FABRICS};
use crate::stats::{median, ms, Rng, Trace};
use crate::{run_rounds, Args, Gate, Outcome, Round};

/// Engine builds per fabric in an untraced round; `setup_s` counts the
/// median.
const SETUP_REPEATS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every capacity from the threshold up: all `DeadlockFree`.
    Prove,
    /// Every capacity below the threshold and the invariant ablation at
    /// the threshold: all candidates.
    Find,
}

struct Question {
    capacity: usize,
    invariants: bool,
    free: bool,
}

fn questions(mode: Mode, case: &FabricCase) -> Vec<Question> {
    let t = case.threshold;
    let ask = |capacity, invariants, free| Question {
        capacity,
        invariants,
        free,
    };
    match mode {
        Mode::Prove => vec![ask(t, true, true), ask(t + 1, true, true)],
        Mode::Find => (1..t)
            .map(|c| ask(c, true, false))
            .chain([ask(t, false, false)])
            .collect(),
    }
}

fn round(cases: &[FabricCase], mode: Mode, traced: bool, gate: &mut Gate) -> Round {
    let mut out = Round::default();
    let (telemetry, mut trace) = Trace::new(traced);
    let mut config = CheckConfig::default();
    config.solver.telemetry = telemetry;
    for case in cases {
        let fabric = case.config();
        if traced {
            out.layers.time_fabric(&fabric, case.threshold + 1);
        }
        // Set-up is short and noisy: an untraced round builds each engine
        // several times and counts the median build.
        let mut builds = Vec::new();
        let mut engine = None;
        for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
            // One live engine at a time, as a user's single build has.
            drop(engine.take());
            let start = Instant::now();
            engine = Some(
                QueryEngine::for_fabric_with(&fabric, config.clone(), 1..=case.threshold + 1)
                    .expect("pinned fabrics build"),
            );
            builds.push(start.elapsed().as_secs_f64());
        }
        let mut engine = engine.expect("one engine built");
        out.setup += Duration::from_secs_f64(median(&builds));
        trace.drain();
        out.layers.invariants += engine.invariants().len() as u64;

        for (i, q) in questions(mode, case).iter().enumerate() {
            let query = Query::new().capacity(q.capacity).invariants(q.invariants);
            let start = Instant::now();
            let report = engine.check(&query);
            let wall = start.elapsed();
            trace.drain();
            out.study += wall;
            out.latencies_ms.push(ms(wall));
            if i == 0 {
                out.layers.atoms += report.analysis().stats.linear_atoms as u64;
            }
            out.layers.absorb_report(&report, wall);
            let free = report.is_deadlock_free();
            let ok = free == q.free && (free || report.counterexample().is_some());
            gate.check(ok, || {
                format!(
                    "{} capacity {} invariants {}: expected {}, got {:?}",
                    case.name,
                    q.capacity,
                    q.invariants,
                    if q.free {
                        "deadlock-free"
                    } else {
                        "a candidate"
                    },
                    report.verdict()
                )
            });
        }
    }
    out.layers.template_ms = trace.total_ms("template.build");
    out
}

pub fn run(args: &Args, mode: Mode) -> Outcome {
    let mut cases: Vec<FabricCase> = FABRICS.to_vec();
    Rng::new(args.seed).shuffle(&mut cases);
    run_rounds(args, |traced, gate| round(&cases, mode, traced, gate))
}
