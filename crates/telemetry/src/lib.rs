//! Structured tracing, metrics and solver profiles for the ADVOCAT
//! verification stack.
//!
//! The stack spans four layers — CDCL/SMT core, persistent `QueryEngine`,
//! warm-engine `Service`, compositional driver — and each kept its own
//! snapshot statistics.  This crate gives them one **shared timeline**
//! and one **registry**:
//!
//! * **Spans & events** ([`Telemetry::span`], [`Telemetry::event`]):
//!   lightweight enter/exit records with monotonic timestamps, parent
//!   links and `key=value` fields, exported as JSON lines through a
//!   pluggable [`TraceSink`] (in-memory ring, file, null);
//! * **Metrics** ([`MetricsRegistry`]): counters, gauges and histograms
//!   with hand-rolled Prometheus-text and JSON exposition (the build
//!   environment is offline — no serde);
//! * **Solver profiles** ([`SolverProfile`]): per-query attribution of
//!   time and conflicts to the propagate/analyze/reduce/restart phases
//!   plus the restart/LBD-EMA timeline.
//!
//! The entry point is the [`Telemetry`] handle.  It is **disabled by
//! default** and zero-cost in that state: every probe is a single branch
//! on an `Option` discriminant, no clock is read, no field is formatted
//! (field closures only run when enabled).  A handle flows through the
//! stack's configuration chain — `SolverConfig → CheckConfig →
//! ServiceConfig` — so enabling observability is one builder call at any
//! layer.
//!
//! # Examples
//!
//! ```
//! use advocat_telemetry::Telemetry;
//!
//! let (telemetry, trace) = Telemetry::ring(1024);
//! {
//!     let _span = telemetry.span_with("demo.outer", || vec![("answer", 42.to_string())]);
//!     telemetry.event("demo.tick");
//! }
//! telemetry.flush();
//! let lines = trace.lines();
//! assert_eq!(lines.len(), 3); // enter, event, exit
//! assert!(lines[0].contains("\"type\":\"enter\""));
//! assert!(lines[0].contains("\"name\":\"demo.outer\""));
//! assert!(lines[2].contains("\"dur_us\""));
//!
//! let metrics = telemetry.metrics().unwrap();
//! metrics.counter("demo_total", "Demo events").inc();
//! assert!(metrics.render_prometheus().contains("demo_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
mod metrics;
mod profile;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_US};
pub use profile::{PhaseCost, RestartSample, SolverProfile};
pub use trace::{escape_into, FileSink, NullSink, RingBufferSink, TraceBuffer, TraceSink};

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A field list: pre-rendered `key=value` context attached to a span or
/// event.  Built by the closure of [`Telemetry::span_with`] /
/// [`Telemetry::event_with`], which only runs when telemetry is enabled.
pub type Fields = Vec<(&'static str, String)>;

struct Inner {
    /// Epoch of the handle: every `t_us` timestamp is measured from here,
    /// so all threads of a run share one timeline.
    epoch: Instant,
    next_span: AtomicU64,
    sink: Mutex<Box<dyn TraceSink>>,
    metrics: MetricsRegistry,
}

thread_local! {
    /// The enclosing-span stack of the current thread (ids only); the top
    /// is the parent of the next span or event.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The telemetry handle: cheap to clone, disabled by default, and
/// zero-cost while disabled.  See the [crate documentation](self).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl PartialEq for Telemetry {
    /// Handle identity: two handles are equal when they share state (or
    /// are both disabled).  This is what lets configuration structs that
    /// carry a handle stay comparable — swapping the handle *is* a config
    /// change; cloning it is not.
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Telemetry {
    /// The disabled handle (also [`Telemetry::default`]): every probe is a
    /// no-op branch.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An enabled handle writing trace records to `sink`, with a fresh
    /// metrics registry.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                sink: Mutex::new(sink),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// An enabled handle tracing into an in-memory ring of the most
    /// recent `capacity` records; the returned [`TraceBuffer`] reads the
    /// trace back.
    pub fn ring(capacity: usize) -> (Telemetry, TraceBuffer) {
        let (sink, buffer) = RingBufferSink::new(capacity);
        (Telemetry::with_sink(Box::new(sink)), buffer)
    }

    /// An enabled handle appending JSON-lines records to the file at
    /// `path` (created/truncated).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the failed file creation.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Telemetry> {
        Ok(Telemetry::with_sink(Box::new(FileSink::create(path)?)))
    }

    /// An enabled handle that discards every trace record ([`NullSink`])
    /// but still collects metrics and solver profiles — the configuration
    /// the overhead bench measures.
    pub fn null() -> Telemetry {
        Telemetry::with_sink(Box::new(NullSink))
    }

    /// Returns `true` when this handle records anything at all.  Hot paths
    /// gate their instrumentation on this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The handle's metrics registry, `None` while disabled.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.inner.as_ref().map(|inner| inner.metrics.clone())
    }

    /// Flushes the trace sink (file sinks buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.lock().expect("trace sink lock").flush();
        }
    }

    /// Opens a span with no fields.  The returned guard emits the `exit`
    /// record when dropped; while it lives, new spans and events on this
    /// thread are parented to it.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with(name, Vec::new)
    }

    /// Opens a span with fields; `fields` runs **only when enabled**, so
    /// the disabled path formats nothing.
    pub fn span_with(&self, name: &'static str, fields: impl FnOnce() -> Fields) -> Span {
        let Some(inner) = &self.inner else {
            return Span { active: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let t_us = elapsed_us(inner);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        let mut line = format!("{{\"type\":\"enter\",\"span\":{id}");
        if let Some(parent) = parent {
            let _ = write!(line, ",\"parent\":{parent}");
        }
        let _ = write!(line, ",\"name\":\"{name}\",\"t_us\":{t_us}");
        trace::fields_into(&mut line, &fields());
        line.push('}');
        record(inner, &line);
        Span {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                id,
                name,
                entered: Instant::now(),
            }),
        }
    }

    /// Emits a point event with no fields, attached to the innermost open
    /// span of this thread (if any).
    pub fn event(&self, name: &'static str) {
        self.event_with(name, Vec::new);
    }

    /// Emits a point event with fields; `fields` runs only when enabled.
    pub fn event_with(&self, name: &'static str, fields: impl FnOnce() -> Fields) {
        let Some(inner) = &self.inner else {
            return;
        };
        let t_us = elapsed_us(inner);
        let span = SPAN_STACK.with(|stack| stack.borrow().last().copied());
        let mut line = String::from("{\"type\":\"event\"");
        if let Some(span) = span {
            let _ = write!(line, ",\"span\":{span}");
        }
        let _ = write!(line, ",\"name\":\"{name}\",\"t_us\":{t_us}");
        trace::fields_into(&mut line, &fields());
        line.push('}');
        record(inner, &line);
    }
}

fn elapsed_us(inner: &Inner) -> u64 {
    inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

fn record(inner: &Inner, line: &str) {
    inner.sink.lock().expect("trace sink lock").record(line);
}

struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    name: &'static str,
    entered: Instant,
}

/// A span guard: emits the `exit` record (with `dur_us`) when dropped.
/// Inert when the handle was disabled at [`Telemetry::span`] time.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Returns the span's id, `None` for inert spans.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are strictly nested in practice; tolerate (and
            // repair) out-of-order drops rather than corrupting parents.
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != active.id);
            }
        });
        let t_us = elapsed_us(&active.inner);
        let dur_us = active
            .entered
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        let line = format!(
            "{{\"type\":\"exit\",\"span\":{},\"name\":\"{}\",\"t_us\":{t_us},\"dur_us\":{dur_us}}}",
            active.id, active.name
        );
        record(&active.inner, &line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        assert!(telemetry.metrics().is_none());
        let span = telemetry.span_with("never", || panic!("fields must not run"));
        assert!(span.id().is_none());
        telemetry.event_with("never", || panic!("fields must not run"));
        drop(span);
        telemetry.flush();
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let (telemetry, trace) = Telemetry::ring(64);
        {
            let outer = telemetry.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = telemetry.span("inner");
                assert_ne!(inner.id(), outer.id());
                telemetry.event_with("tick", || vec![("k", "v".to_owned())]);
            }
            let lines = trace.lines();
            let inner_enter = lines
                .iter()
                .find(|l| l.contains("\"name\":\"inner\"") && l.contains("enter"))
                .unwrap();
            assert!(inner_enter.contains(&format!("\"parent\":{outer_id}")));
            let event = lines
                .iter()
                .find(|l| l.contains("\"type\":\"event\""))
                .unwrap();
            assert!(event.contains("\"fields\":{\"k\":\"v\"}"));
        }
        let lines = trace.lines();
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"enter\""))
                .count(),
            2
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"exit\""))
                .count(),
            2
        );
        // A fresh root span after everything closed has no parent.
        let root = telemetry.span("root2");
        drop(root);
        let last_enter = trace
            .lines()
            .into_iter()
            .rfind(|l| l.contains("\"type\":\"enter\""))
            .unwrap();
        assert!(!last_enter.contains("parent"));
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = Telemetry::null();
        let b = a.clone();
        let c = Telemetry::null();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(Telemetry::disabled(), Telemetry::disabled());
        assert_ne!(a, Telemetry::disabled());
    }
}
