//! Small numeric and trace helpers: a seeded generator, order statistics,
//! and a reader for the JSON-lines trace records the program emits.

use std::collections::HashMap;
use std::time::Duration;

use advocat::prelude::{Telemetry, TraceBuffer};

/// SplitMix64: a tiny, seedable generator, so the same `--seed` always
/// draws the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`q` in `0..=1`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The string value of `"key":"..."` in a flat JSON record.
pub fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// The numeric value of `"key":<number>` in a flat JSON record.
pub fn json_num(line: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A run's trace: the in-memory ring a traced round's `Telemetry` writes
/// to, and the closed spans read back from it so far — durations by name,
/// and which `job.execute` spans checked out a warm engine.
#[derive(Default)]
pub struct Trace {
    ring: Option<TraceBuffer>,
    spans: HashMap<String, Vec<f64>>,
    warm_jobs: HashMap<u64, bool>,
    jobs: Vec<(u64, f64)>,
}

impl Trace {
    /// The handle to configure the program with: a ring when `traced`,
    /// disabled otherwise.
    pub fn new(traced: bool) -> (Telemetry, Trace) {
        if !traced {
            return (Telemetry::disabled(), Trace::default());
        }
        let (telemetry, ring) = Telemetry::ring(1 << 16);
        let trace = Trace {
            ring: Some(ring),
            ..Trace::default()
        };
        (telemetry, trace)
    }

    /// Reads the records written since the last call.  Call it after each
    /// step, so the ring never wraps.
    pub fn drain(&mut self) {
        let Some(ring) = &self.ring else {
            return;
        };
        for line in ring.drain() {
            let Some(name) = json_str(&line, "name") else {
                continue;
            };
            match json_str(&line, "type") {
                Some("exit") => {
                    let dur_ms = json_num(&line, "dur_us").unwrap_or(0.0) / 1e3;
                    if name == "job.execute" {
                        let span = json_num(&line, "span").unwrap_or(0.0) as u64;
                        self.jobs.push((span, dur_ms));
                    }
                    self.spans.entry(name.to_owned()).or_default().push(dur_ms);
                }
                Some("event") if name == "engine.checkout" => {
                    let span = json_num(&line, "span").unwrap_or(0.0) as u64;
                    self.warm_jobs
                        .insert(span, json_str(&line, "slot") == Some("warm"));
                }
                _ => {}
            }
        }
    }

    /// Summed duration of every closed span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |d| d.iter().sum())
    }

    /// The longest closed span called `name`, in ms.
    pub fn max_ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |d| d.iter().copied().fold(0.0, f64::max))
    }

    /// Median `job.execute` duration of warm (`true`) or cold jobs, in ms.
    pub fn job_p50_ms(&self, warm: bool) -> f64 {
        let durations: Vec<f64> = self
            .jobs
            .iter()
            .filter(|(span, _)| self.warm_jobs.get(span).copied().unwrap_or(false) == warm)
            .map(|&(_, dur)| dur)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            median(&durations)
        }
    }
}
