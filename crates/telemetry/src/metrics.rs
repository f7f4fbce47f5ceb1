//! The metrics registry: counters, gauges and histograms with hand-rolled
//! Prometheus-text exposition.
//!
//! Metric handles are registered once (get-or-create by name) and then
//! updated lock-free through atomics; the registry lock is only taken at
//! registration and exposition time.  The exposition is serde-free, in
//! the same house style as the service's `service/json.rs` wire format.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `n` (which may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket bounds, in microseconds: powers of four from
/// 1µs to ~17s — wide enough for both queue waits and solve times.
pub const LATENCY_BUCKETS_US: [u64; 13] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds (inclusive) of the finite buckets, in microseconds.
    bounds: Vec<u64>,
    /// One count per finite bucket plus the overflow (`+Inf`) bucket.
    counts: Vec<AtomicU64>,
    sum_us: AtomicU64,
    count: AtomicU64,
}

/// A histogram of microsecond observations over fixed bucket bounds.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let core = &*self.0;
        let bucket = core
            .bounds
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(core.bounds.len());
        core.counts[bucket].fetch_add(1, Ordering::Relaxed);
        core.sum_us.fetch_add(us, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one duration observation.
    pub fn observe(&self, duration: Duration) {
        self.observe_us(duration.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.0.sum_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts as `(upper_bound_us, count)` pairs, the
    /// final pair being the `+Inf` bucket (`None` bound).
    pub fn buckets(&self) -> Vec<(Option<u64>, u64)> {
        let core = &*self.0;
        let mut cumulative = 0;
        let mut out = Vec::with_capacity(core.counts.len());
        for (i, count) in core.counts.iter().enumerate() {
            cumulative += count.load(Ordering::Relaxed);
            out.push((core.bounds.get(i).copied(), cumulative));
        }
        out
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Registered {
    name: String,
    help: String,
    metric: Metric,
}

/// A cheaply cloneable registry of named metrics.
///
/// # Examples
///
/// ```
/// use advocat_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let jobs = registry.counter("advocat_jobs_total", "Jobs executed");
/// jobs.inc();
/// assert!(registry.render_prometheus().contains("advocat_jobs_total 1"));
/// ```
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Registered>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry lock");
        f.debug_struct("MetricsRegistry")
            .field("metrics", &inner.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.  Re-registration under a different metric kind panics — one
    /// name, one kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if let Some(existing) = inner.iter().find(|m| m.name == name) {
            match &existing.metric {
                Metric::Counter(c) => return c.clone(),
                _ => panic!("metric {name} is already registered with another kind"),
            }
        }
        let counter = Counter::default();
        inner.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Metric::Counter(counter.clone()),
        });
        counter
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.  Panics on a kind mismatch, like [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if let Some(existing) = inner.iter().find(|m| m.name == name) {
            match &existing.metric {
                Metric::Gauge(g) => return g.clone(),
                _ => panic!("metric {name} is already registered with another kind"),
            }
        }
        let gauge = Gauge::default();
        inner.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Metric::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Returns the histogram registered under `name` with the
    /// [`LATENCY_BUCKETS_US`] bounds, creating it on first use.  Panics on
    /// a kind mismatch, like [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &LATENCY_BUCKETS_US)
    }

    /// Like [`MetricsRegistry::histogram`] with explicit bucket bounds in
    /// microseconds (ascending).  The bounds of an already-registered
    /// histogram win.
    pub fn histogram_with(&self, name: &str, help: &str, bounds_us: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry lock");
        if let Some(existing) = inner.iter().find(|m| m.name == name) {
            match &existing.metric {
                Metric::Histogram(h) => return h.clone(),
                _ => panic!("metric {name} is already registered with another kind"),
            }
        }
        let histogram = Histogram::new(bounds_us);
        inner.push(Registered {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: Metric::Histogram(histogram.clone()),
        });
        histogram
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers; histogram buckets as cumulative
    /// `_bucket{le="seconds"}` series with `_sum`/`_count`, durations in
    /// seconds per Prometheus convention).
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry lock");
        let mut out = String::new();
        for entry in inner.iter() {
            let name = &entry.name;
            let _ = writeln!(out, "# HELP {name} {}", entry.help);
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    for (bound, count) in h.buckets() {
                        match bound {
                            Some(us) => {
                                let _ = writeln!(
                                    out,
                                    "{name}_bucket{{le=\"{}\"}} {count}",
                                    us as f64 / 1e6
                                );
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum_us() as f64 / 1e6);
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_state() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("advocat_test_total", "a counter");
        let b = registry.counter("advocat_test_total", "a counter");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        let g = registry.gauge("advocat_test_depth", "a gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with("advocat_test_us", "latency", &[10, 100]);
        h.observe_us(5);
        h.observe_us(50);
        h.observe_us(500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 555);
        assert_eq!(h.buckets(), vec![(Some(10), 1), (Some(100), 2), (None, 3)]);
        h.observe(Duration::from_micros(7));
        assert_eq!(h.buckets()[0].1, 2);
    }

    #[test]
    fn prometheus_exposition_has_headers_and_inf_bucket() {
        let registry = MetricsRegistry::new();
        registry
            .counter("advocat_jobs_total", "Jobs executed")
            .inc();
        let h = registry.histogram_with("advocat_wait_us", "Queue wait", &[1_000_000]);
        h.observe_us(2_000_000);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE advocat_jobs_total counter"));
        assert!(text.contains("advocat_jobs_total 1"));
        assert!(text.contains("advocat_wait_us_bucket{le=\"1\"} 0"));
        assert!(text.contains("advocat_wait_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("advocat_wait_us_sum 2"));
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("x", "counter");
        registry.gauge("x", "gauge");
    }
}
