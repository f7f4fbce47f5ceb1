//! Spans, events and trace sinks.
//!
//! A trace is a stream of JSON-lines records.  Three record types share
//! one flat schema (pinned by the schema-stability test in
//! `tests/telemetry.rs`):
//!
//! ```json
//! {"type":"enter","span":3,"parent":1,"name":"query.check","t_us":120,"fields":{"capacity":"3"}}
//! {"type":"event","span":3,"name":"sat.restart","t_us":150,"fields":{"conflicts":"64"}}
//! {"type":"exit","span":3,"name":"query.check","t_us":480,"dur_us":360}
//! ```
//!
//! * `span` — the record's span id (`enter`/`exit`) or the innermost
//!   enclosing span of an `event` (absent at top level);
//! * `parent` — the enclosing span at enter time, absent for roots;
//! * `t_us` — microseconds since the [`super::Telemetry`] handle was
//!   created (one monotonic epoch per handle, so every record of a run is
//!   on one timeline regardless of which thread produced it);
//! * `dur_us` — enter-to-exit wall time, on `exit` records only;
//! * `fields` — caller-supplied `key=value` context, values pre-rendered
//!   to strings (absent when empty).
//!
//! Parent links come from a per-thread span stack, so spans nest the way
//! the code nests and a trace from the multi-threaded service interleaves
//! per-worker span trees that are each internally well-formed.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where trace records go.  Implementations receive complete JSON-lines
/// records (no trailing newline) in emission order.
///
/// Sinks are invoked under the handle's sink lock, so a slow sink slows
/// tracing but never interleaves half-written records.
pub trait TraceSink: Send {
    /// Accepts one complete JSON-lines record.
    fn record(&mut self, line: &str);

    /// Flushes any buffering (a no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// A sink that discards every record: tracing stays structurally enabled
/// (spans get ids, parents link up) but nothing is kept.  Used to measure
/// the cost of record *production* alone.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _line: &str) {}
}

/// The shared storage behind a [`RingBufferSink`] and the
/// [`TraceBuffer`] handle that reads it back.
#[derive(Debug, Default)]
struct RingShared {
    lines: VecDeque<String>,
    capacity: usize,
    dropped: u64,
}

/// The ring plus the arrival signal readers block on.
#[derive(Debug, Default)]
struct Ring {
    shared: Mutex<RingShared>,
    arrived: Condvar,
}

/// An in-memory sink keeping the most recent `capacity` records.
///
/// Construct via [`super::Telemetry::ring`], which returns the matching
/// [`TraceBuffer`] for reading the trace back after the run.
#[derive(Clone, Debug)]
pub struct RingBufferSink {
    ring: Arc<Ring>,
}

impl RingBufferSink {
    /// Creates a ring sink and the buffer handle that reads it.
    pub fn new(capacity: usize) -> (RingBufferSink, TraceBuffer) {
        let ring = Arc::new(Ring {
            shared: Mutex::new(RingShared {
                lines: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            }),
            arrived: Condvar::new(),
        });
        (
            RingBufferSink {
                ring: Arc::clone(&ring),
            },
            TraceBuffer { ring },
        )
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, line: &str) {
        let mut shared = self.ring.shared.lock().expect("trace ring lock");
        if shared.lines.len() == shared.capacity {
            shared.lines.pop_front();
            shared.dropped += 1;
        }
        shared.lines.push_back(line.to_owned());
        drop(shared);
        self.ring.arrived.notify_all();
    }
}

/// Read side of a ring-buffer trace: snapshot or drain the retained
/// JSON-lines records after (or during) a run.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    ring: Arc<Ring>,
}

impl TraceBuffer {
    /// Returns a snapshot of the retained records, oldest first.
    pub fn lines(&self) -> Vec<String> {
        let shared = self.ring.shared.lock().expect("trace ring lock");
        shared.lines.iter().cloned().collect()
    }

    /// Removes and returns the retained records, oldest first.
    pub fn drain(&self) -> Vec<String> {
        let mut shared = self.ring.shared.lock().expect("trace ring lock");
        shared.lines.drain(..).collect()
    }

    /// Drains the retained records, blocking up to `timeout` for at least
    /// one to arrive when the ring is empty.  Returns an empty vector only
    /// on timeout — the streaming handoff behind the front-end's
    /// `GET /v1/trace`, which parks between chunks instead of spinning.
    pub fn wait_drain(&self, timeout: Duration) -> Vec<String> {
        let deadline = Instant::now() + timeout;
        let mut shared = self.ring.shared.lock().expect("trace ring lock");
        loop {
            if !shared.lines.is_empty() {
                return shared.lines.drain(..).collect();
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Vec::new();
            };
            let (guard, result) = self
                .ring
                .arrived
                .wait_timeout(shared, remaining)
                .expect("trace ring lock");
            shared = guard;
            if result.timed_out() && shared.lines.is_empty() {
                return Vec::new();
            }
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring
            .shared
            .lock()
            .expect("trace ring lock")
            .lines
            .len()
    }

    /// Returns `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the ring was full — non-zero means the
    /// trace is a suffix of the run, not the whole run.
    pub fn dropped(&self) -> u64 {
        self.ring.shared.lock().expect("trace ring lock").dropped
    }
}

/// A sink appending records to a file (one JSON object per line), buffered.
#[derive(Debug)]
pub struct FileSink {
    writer: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Creates (truncating) `path` and writes every record to it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the failed file creation.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<FileSink> {
        let file = std::fs::File::create(path)?;
        Ok(FileSink {
            writer: std::io::BufWriter::new(file),
        })
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, line: &str) {
        // Trace output is best-effort: a full disk must not take the
        // verification run down with it.
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Appends `"key":"value"` JSON string pairs for a field list, escaping
/// values with the crate's shared [`escape_into`].
pub(crate) fn fields_into(out: &mut String, fields: &[(&str, String)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, key);
        out.push_str("\":\"");
        escape_into(out, value);
        out.push('"');
    }
    out.push('}');
}

/// Appends `text` to `out` escaped as the body of a JSON string (quotes,
/// backslashes and control characters).  Every hand-rolled JSON writer
/// in the workspace shares it; the wire layer is serde-free.
pub fn escape_into(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_keeps_the_most_recent_records() {
        let (mut sink, buffer) = RingBufferSink::new(2);
        sink.record("a");
        sink.record("b");
        sink.record("c");
        assert_eq!(buffer.lines(), vec!["b".to_owned(), "c".to_owned()]);
        assert_eq!(buffer.dropped(), 1);
        assert_eq!(buffer.drain().len(), 2);
        assert!(buffer.is_empty());
    }

    #[test]
    fn wait_drain_blocks_until_a_record_arrives_or_times_out() {
        let (mut sink, buffer) = RingBufferSink::new(8);
        // Already-buffered records return immediately.
        sink.record("early");
        assert_eq!(buffer.wait_drain(Duration::from_secs(5)), vec!["early"]);
        // An empty ring times out empty.
        assert!(buffer.wait_drain(Duration::from_millis(10)).is_empty());
        // A record arriving mid-wait wakes the reader.
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            sink.record("late");
        });
        assert_eq!(buffer.wait_drain(Duration::from_secs(5)), vec!["late"]);
        writer.join().expect("writer thread");
    }

    #[test]
    fn escaping_covers_quotes_and_control_characters() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn file_sink_writes_json_lines() {
        let path = std::env::temp_dir().join("advocat-telemetry-filesink-test.jsonl");
        {
            let mut sink = FileSink::create(&path).expect("temp file");
            sink.record("{\"type\":\"event\"}");
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("file readable");
        assert_eq!(text, "{\"type\":\"event\"}\n");
        let _ = std::fs::remove_file(&path);
    }
}
