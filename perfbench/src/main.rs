//! The benchmark harness: runs one workload for a time budget, checks
//! every verdict against the pinned table, and prints every metric by
//! name and unit, ending with one JSON result line.
//!
//! ```text
//! perfbench --workload <prove-free|find-deadlock|compose-8x8|service-http>
//!           --seed N --seconds S --trace 0|1 --advocatd PATH --state-dir DIR
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones.  Run it through `perfbench/run.py`, which builds it first.

mod compose;
mod expect;
mod service;
mod solver;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use advocat::prelude::{
    audit_routing, build_fabric_for_sweep, derive_colors, derive_invariants, FabricConfig, Report,
    System,
};

use crate::stats::{median, ms, peak_rss_mib, quantile};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub advocatd: PathBuf,
    pub state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        advocatd: PathBuf::new(),
        state_dir: PathBuf::from(".perfbench_state"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            "--advocatd" => args.advocatd = PathBuf::from(&value),
            "--state-dir" => args.state_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// The verdict gate: every answer is attempted once and either matches
/// the pinned table or is a failure, named.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Metrics in report order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The per-layer figures of a traced run.  A layer a workload does not
/// reach reads 0.
#[derive(Default)]
pub struct Layers {
    pub audit_ms: f64,
    pub build_ms: f64,
    pub colors_ms: f64,
    pub derive_ms: f64,
    pub template_ms: f64,
    pub invariants: u64,
    pub atoms: u64,
    pub check_ms: f64,
    pub check_max_ms: f64,
    pub refinements: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub reduced_dbs: u64,
    /// `None` where no `SolverProfile` reaches the benchmark.
    pub cdcl_ms: Option<f64>,
    pub report_ms: f64,
    pub certify_ms: f64,
    pub boundary_ms: f64,
    pub compose_engines_built: u64,
    pub compose_warm_ratio: f64,
    pub service_warm_ratio: f64,
    pub service_engines_built: u64,
    pub service_evictions: u64,
    pub queue_wait_p50_ms: f64,
    pub work_warm_p50_ms: f64,
    pub work_cold_p50_ms: f64,
    pub wire_p50_ms: f64,
    pub lag_p95_ms: f64,
    pub overhead_frac: f64,
}

impl Layers {
    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        // CDCL time is what the profiles attribute; the theory side
        // (check, core minimisation, canonicalisation) is the rest.
        let theory_ms = self.cdcl_ms.map_or(0.0, |cdcl| self.check_ms - cdcl);
        let share = if self.check_ms > 0.0 && self.cdcl_ms.is_some() {
            theory_ms / self.check_ms
        } else {
            0.0
        };
        m.put("noc.audit_ms", self.audit_ms, "ms");
        m.put("noc.build_ms", self.build_ms, "ms");
        m.put("automata.colors_ms", self.colors_ms, "ms");
        m.put("invariants.derive_ms", self.derive_ms, "ms");
        m.put("deadlock.template_ms", self.template_ms, "ms");
        m.put("invariants.count", self.invariants as f64, "count");
        m.put("deadlock.atoms", self.atoms as f64, "count");
        m.put("deadlock.check_ms", self.check_ms, "ms");
        m.put("deadlock.check_max_ms", self.check_max_ms, "ms");
        m.put("logic.refinements", self.refinements as f64, "count");
        m.put("logic.conflicts", self.conflicts as f64, "count");
        m.put("logic.propagations", self.propagations as f64, "count");
        m.put("logic.reduced_dbs", self.reduced_dbs as f64, "count");
        m.put("logic.cdcl_ms", self.cdcl_ms.unwrap_or(0.0), "ms");
        m.put("logic.theory_ms", theory_ms, "ms");
        m.put("logic.theory_share", share, "ratio");
        m.put("core.report_ms", self.report_ms, "ms");
        m.put("compose.certify_ms", self.certify_ms, "ms");
        m.put("compose.boundary_ms", self.boundary_ms, "ms");
        m.put(
            "compose.engines_built",
            self.compose_engines_built as f64,
            "count",
        );
        m.put("compose.warm_ratio", self.compose_warm_ratio, "ratio");
        m.put("service.warm_ratio", self.service_warm_ratio, "ratio");
        m.put(
            "service.engines_built",
            self.service_engines_built as f64,
            "count",
        );
        m.put("service.evictions", self.service_evictions as f64, "count");
        m.put("service.queue_wait_p50_ms", self.queue_wait_p50_ms, "ms");
        m.put("service.work_warm_p50_ms", self.work_warm_p50_ms, "ms");
        m.put("service.work_cold_p50_ms", self.work_cold_p50_ms, "ms");
        m.put("frontend.wire_p50_ms", self.wire_p50_ms, "ms");
        m.put("loadgen.lag_p95_ms", self.lag_p95_ms, "ms");
        m.put("trace.overhead_frac", self.overhead_frac, "ratio");
        // The gate exits before reporting when any answer failed.
        m.put("fail_frac", 0.0, "ratio");
        m
    }

    /// Times the calls `QueryEngine::for_fabric` makes below the engine,
    /// each on its own: routing audit, sweep build, colors, invariants.
    pub fn time_fabric(&mut self, fabric: &FabricConfig, max_capacity: usize) {
        let start = Instant::now();
        audit_routing(&fabric.topology, fabric.routing.as_ref()).expect("pinned routing audits");
        self.audit_ms += ms(start.elapsed());
        let start = Instant::now();
        let system = build_fabric_for_sweep(fabric, max_capacity).expect("pinned fabrics build");
        self.build_ms += ms(start.elapsed());
        self.time_derive(&system);
    }

    /// Times color and invariant derivation on a built system.
    pub fn time_derive(&mut self, system: &System) {
        let start = Instant::now();
        let colors = derive_colors(system);
        self.colors_ms += ms(start.elapsed());
        let start = Instant::now();
        derive_invariants(system, &colors);
        self.derive_ms += ms(start.elapsed());
    }

    /// Folds one answered query's statistics in.
    pub fn absorb_report(&mut self, report: &Report, wall: Duration) {
        let stats = &report.analysis().stats;
        self.refinements += stats.refinements;
        self.conflicts += stats.sat_conflicts;
        self.propagations += stats.sat_propagations;
        self.reduced_dbs += stats.sat_reduced_dbs;
        let check_ms = ms(stats.elapsed);
        self.check_ms += check_ms;
        self.check_max_ms = self.check_max_ms.max(check_ms);
        self.report_ms += ms(wall.saturating_sub(stats.elapsed));
        if let Some(profile) = report.solver_profile() {
            *self.cdcl_ms.get_or_insert(0.0) += ms(profile.attributed_time());
        }
    }

    /// The deterministic counts the determinism check compares.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("logic.refinements", self.refinements),
            ("logic.conflicts", self.conflicts),
            ("logic.propagations", self.propagations),
            ("logic.reduced_dbs", self.reduced_dbs),
            ("deadlock.atoms", self.atoms),
            ("invariants.count", self.invariants),
            ("compose.engines_built", self.compose_engines_built),
        ]
    }
}

/// One round of an in-process workload: set-up time, the study's wall
/// time and per-answer latencies, and the layer figures.
#[derive(Default)]
pub struct Round {
    pub setup: Duration,
    pub study: Duration,
    pub latencies_ms: Vec<f64>,
    pub layers: Layers,
}

/// Untraced mode repeats `round` while another one fits the `--seconds`
/// budget and reports medians.  Traced mode runs exactly one traced round
/// and then one untraced round, whatever the budget: the traced round gives
/// the layer figures, the untraced one the user-facing figures and the base
/// of `trace.overhead_frac`.
pub fn run_rounds(args: &Args, mut round: impl FnMut(bool, &mut Gate) -> Round) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut gate = Gate::default();
    let traced = args.trace.then(|| round(true, &mut gate));
    let mut rounds = Vec::new();
    loop {
        let round_start = Instant::now();
        rounds.push(round(false, &mut gate));
        // Another round may overrun the budget by a third of its length.
        let length = round_start.elapsed();
        if args.trace || start.elapsed() + length > budget + length / 3 {
            break;
        }
    }
    // Tracing may change the solver's work, so only rounds of one mode
    // are compared.
    let counts = match &traced {
        Some(t) => vec![t.layers.counts()],
        None => rounds.iter().map(|r| r.layers.counts()).collect(),
    };
    let answers = rounds[0].latencies_ms.len();
    println!(
        "untraced rounds: {}, of {answers} answers each",
        rounds.len()
    );
    for (i, r) in traced.iter().chain(&rounds).enumerate() {
        println!(
            "  round {}{}: setup {:.4} s, study {:.4} s",
            i + 1,
            if i == 0 && args.trace {
                " (traced)"
            } else {
                ""
            },
            r.setup.as_secs_f64(),
            r.study.as_secs_f64()
        );
    }

    // The host slows in bursts shorter than a run, and a burst hits
    // different answers in different rounds: each answer's median over the
    // rounds, summed, is steadier than the median round.
    let study_s: f64 = (0..answers)
        .map(|i| {
            let times: Vec<f64> = rounds.iter().map(|r| r.latencies_ms[i]).collect();
            median(&times) / 1e3
        })
        .sum();
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let summary = Summary {
        setup_s: median(&setup),
        study_s,
        jobs_per_s: answers as f64 / study_s,
        latencies_ms: rounds.iter().flat_map(|r| r.latencies_ms.clone()).collect(),
        peak_rss_mb: peak_rss_mib("self"),
    };
    let metrics = summary.into_metrics(traced.map(|traced| {
        let mut layers = traced.layers;
        layers.overhead_frac = traced.study.as_secs_f64() / study_s - 1.0;
        layers
    }));
    Outcome {
        gate,
        metrics,
        counts,
    }
}

/// What a user of the workload sees, always taken from untraced work.
/// `setup_s`, `study_s` and `peak_rss_mb` are the bounded end-to-end
/// metrics.  Throughput and the latency percentiles spread too widely
/// between runs on a 2-core host to carry a bound (0.15–0.26 between
/// seeds, against a largest allowed bound of 0.25), so they are printed
/// and reported with the per-layer metrics.
pub struct Summary {
    pub setup_s: f64,
    pub study_s: f64,
    pub jobs_per_s: f64,
    /// Per-answer latencies; empty where the run takes none.
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl Summary {
    /// The run's metric set: end-to-end without `layers`, per-layer (the
    /// traced run's figures) with them.
    pub fn into_metrics(self, layers: Option<Layers>) -> Metrics {
        let percentiles = (!self.latencies_ms.is_empty()).then(|| {
            (
                quantile(&self.latencies_ms, 0.50),
                quantile(&self.latencies_ms, 0.95),
            )
        });
        let (p50_ms, p95_ms) = percentiles.unwrap_or((0.0, 0.0));
        println!(
            "untraced: setup_s {:.6}, study_s {:.6}, jobs_per_s {:.4}, peak_rss_mb {:.3}",
            self.setup_s, self.study_s, self.jobs_per_s, self.peak_rss_mb
        );
        if percentiles.is_some() {
            println!(
                "untraced: p50_ms {p50_ms:.4} and p95_ms {p95_ms:.4} over {} answers",
                self.latencies_ms.len()
            );
        }
        if let Some(layers) = layers {
            let mut m = layers.into_metrics();
            m.put("jobs_per_s", self.jobs_per_s, "1/s");
            m.put("p50_ms", p50_ms, "ms");
            m.put("p95_ms", p95_ms, "ms");
            m
        } else {
            let mut m = Metrics::default();
            m.put("setup_s", self.setup_s, "s");
            m.put("study_s", self.study_s, "s");
            m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
            m
        }
    }
}

/// What a workload hands back: its gate, the metric set the run reports,
/// and the deterministic counts of every round.
pub struct Outcome {
    pub gate: Gate,
    pub metrics: Metrics,
    /// Per-round counts; every round of one run must agree, and so must
    /// runs of one seed.
    pub counts: Vec<Vec<(&'static str, u64)>>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "prove-free" => solver::run(&args, solver::Mode::Prove),
        "find-deadlock" => solver::run(&args, solver::Mode::Find),
        "compose-8x8" => compose::run(&args),
        "service-http" => service::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    report_drift(&args, &outcome.counts);

    let Outcome { gate, metrics, .. } = outcome;
    let failed = gate.failures.len();
    if failed > 0 {
        for failure in &gate.failures {
            eprintln!("perfbench: WRONG ANSWER: {failure}");
        }
        eprintln!(
            "perfbench: {failed} of {} answers failed the pinned verdict table; no time is reported",
            gate.attempted
        );
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
            gate.attempted.max(1)
        );
        std::process::exit(1);
    }

    println!(
        "workload {} seed {} trace {}: {} answers, fail_frac 0",
        args.workload, args.seed, args.trace as u8, gate.attempted
    );
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        println!("  {name:<28} {value:>14.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{json}}}}}",
        gate.attempted
    );
}

/// The determinism check: counts must agree between the rounds of this
/// run and with the last run of the same workload, seed and mode in this
/// checkout.  Drift is reported by name; it does not fail the run.
fn report_drift(args: &Args, rounds: &[Vec<(&'static str, u64)>]) {
    let Some(first) = rounds.first() else {
        return;
    };
    let mut drift = Vec::new();
    for (round, counts) in rounds.iter().enumerate().skip(1) {
        for ((name, a), (_, b)) in first.iter().zip(counts) {
            if a != b {
                drift.push(format!("{name}: round 1 {a}, round {} {b}", round + 1));
            }
        }
    }
    let rendered: String = first.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    let path = args.state_dir.join(format!(
        "{}-seed{}-trace{}.counts",
        args.workload, args.seed, args.trace as u8
    ));
    if let Ok(previous) = std::fs::read_to_string(&path) {
        for (old, new) in previous.lines().zip(rendered.lines()) {
            if old != new {
                drift.push(format!("{old} (previous run) vs {new} (this run)"));
            }
        }
    }
    let _ = std::fs::create_dir_all(&args.state_dir);
    let _ = std::fs::write(&path, &rendered);
    for line in &drift {
        println!("count drift: {line}");
        eprintln!("perfbench: count drift: {line}");
    }
    if drift.is_empty() {
        println!(
            "counts repeat exactly ({} rounds): {}",
            rounds.len(),
            rendered.replace('\n', "; ")
        );
    }
}
