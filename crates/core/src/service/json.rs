//! A hand-rolled, dependency-free JSON job format.
//!
//! The service is meant to sit behind scripts and CI harnesses, so jobs
//! and outcomes need a wire form.  The build environment is offline — no
//! serde — so this module carries its own small recursive-descent parser
//! for job requests and a writer for outcomes:
//!
//! ```json
//! {
//!   "name": "mesi torus",
//!   "topology": { "kind": "torus", "width": 3, "height": 3 },
//!   "queue_size": 2,
//!   "protocol": "mesi",
//!   "directory": 4,
//!   "capacities": [1, 4],
//!   "target": "any",
//!   "invariants": true,
//!   "timeout_ms": 60000
//! }
//! ```
//!
//! A request file is one such object or an array of them; each request
//! is read straight into one [`VerifyJob`] per capacity, all sharing the
//! sweep range (and therefore one pooled engine), which is what
//! [`Service::try_submit_json`](super::Service::try_submit_json) admits.
//! Outcomes serialise with [`outcome_to_json`].

use std::fmt;
use std::time::Duration;

use advocat_deadlock::DeadlockTarget;
use advocat_logic::CheckConfig;
use advocat_noc::{FabricConfig, ProtocolKind, Topology, TopologyError};
use advocat_telemetry::escape_into;

use super::{JobError, JobOutcome, VerifyJob};

/// A malformed job request (or an unbuildable topology described by one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where parsing stopped (`0` for semantic
    /// errors discovered after parsing).
    pub offset: usize,
}

impl JsonError {
    fn semantic(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a request file, one JSON job object or an array of them, into
/// what the service submits for it, in request order.  Each request comes
/// as its job count, taken from its capacity range (saturating at
/// `usize::MAX`, which no queue admits), and its jobs, one per capacity,
/// generated as they are taken: a wide sweep is never held in memory
/// whole.  Each request is validated and its fabric configured before
/// the next one is read, so the first malformed request names the error.
pub(crate) fn sweeps_from_json(
    text: &str,
) -> Result<Vec<(usize, impl Iterator<Item = VerifyJob>)>, JsonError> {
    match parse(text)? {
        request @ Json::Object(_) => Ok(vec![sweep_from_value(&request)?]),
        Json::Array(requests) => requests.iter().map(sweep_from_value).collect(),
        _ => Err(JsonError::semantic(
            "expected a job object or an array of job objects",
        )),
    }
}

/// Checks that `text` is one syntactically well-formed JSON value of any
/// shape, with a position-carrying error when it is not.  Tests use it to
/// pin that every emitted wire string is valid JSON.
///
/// # Errors
///
/// Returns the [`JsonError`] locating the first syntactic problem.
pub fn validate_json(text: &str) -> Result<(), JsonError> {
    parse(text).map(|_| ())
}

/// Serialises a finished job's outcome as one JSON object (status,
/// deadlock witness when one exists, timings, warm-hit flag and the
/// job's session-stats delta).
pub fn outcome_to_json(outcome: &JobOutcome) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"id\":{}", outcome.id.0));
    out.push(',');
    push_str_field(&mut out, "name", &outcome.name);
    out.push_str(&format!(",\"capacity\":{}", outcome.capacity));
    out.push_str(&format!(",\"fingerprint\":\"{}\"", outcome.fingerprint));
    match &outcome.result {
        Ok(report) if report.is_deadlock_free() => {
            out.push_str(",\"status\":\"deadlock-free\"");
        }
        Ok(report) => {
            match report.counterexample() {
                Some(witness) => {
                    out.push_str(",\"status\":\"potential-deadlock\",");
                    // The full candidate state, byte-identical to the
                    // in-process `Display` rendering — what lets a remote
                    // client compare witnesses against a local run.
                    push_str_field(&mut out, "witness", &witness.to_string());
                }
                // Not free, no candidate: the solver hit a resource limit.
                None => out.push_str(",\"status\":\"unknown\""),
            }
        }
        Err(error) => {
            let kind = match error {
                JobError::Fabric(_) => "fabric-error",
                JobError::TimedOut { .. } => "timed-out",
                JobError::EngineLost { .. } => "engine-lost",
            };
            out.push_str(&format!(",\"status\":\"{kind}\","));
            push_str_field(&mut out, "error", &error.to_string());
        }
    }
    out.push_str(&format!(
        ",\"queue_wait_ms\":{:.3},\"work_elapsed_ms\":{:.3}",
        outcome.queue_wait.as_secs_f64() * 1e3,
        outcome.work_elapsed.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(",\"warm_hit\":{}", outcome.warm_hit));
    out.push_str(&format!(
        ",\"deadline_exceeded\":{}",
        outcome.deadline_exceeded
    ));
    // The job's share of its engine's session: one query, and the
    // template when the job built the engine.
    if let Ok(report) = &outcome.result {
        let stats = &report.analysis().stats;
        out.push_str(&format!(
            ",\"delta\":{{\"templates_built\":{},\"queries\":1,\"sat_conflicts\":{},\"sat_propagations\":{}}}",
            u8::from(!outcome.warm_hit),
            stats.sat_conflicts,
            stats.sat_propagations
        ));
    }
    out.push('}');
    out
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Request extraction from parsed values.
// ---------------------------------------------------------------------------

/// Reads one job request: validates its fields in a fixed order (the
/// first problem names the error), then configures its fabric, and
/// returns its job count with a sweep that clones one template job per
/// capacity.
fn sweep_from_value(request: &Json) -> Result<(usize, impl Iterator<Item = VerifyJob>), JsonError> {
    const KNOWN: [&str; 12] = [
        "name",
        "topology",
        "queue_size",
        "protocol",
        "directory",
        "message_class_vcs",
        "capacities",
        "target",
        "invariants",
        "timeout_ms",
        "max_refinements",
        "theory_node_budget",
    ];
    let Json::Object(fields) = request else {
        return Err(JsonError::semantic("each job request must be an object"));
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(key, _)| !KNOWN.contains(&key.as_str()))
    {
        return Err(JsonError::semantic(format!("unknown job field `{key}`")));
    }
    let name = string(fields, "name")?
        .ok_or_else(|| JsonError::semantic("job request is missing `name`"))?;
    let topology = topology_from_value(
        get(fields, "topology")
            .ok_or_else(|| JsonError::semantic("job request is missing `topology`"))?,
    )?;
    let queue_size = uint(fields, "queue_size")?.unwrap_or(2);
    let protocol = match string(fields, "protocol")? {
        None => ProtocolKind::AbstractMi,
        Some(s) => ProtocolKind::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                JsonError::semantic(format!(
                    "unknown protocol `{s}` (expected abstract-mi, full-mi or mesi)"
                ))
            })?,
    };
    let directory = uint(fields, "directory")?;
    let message_class_vcs = flag(fields, "message_class_vcs", false)?;
    let capacities = match get(fields, "capacities") {
        None => queue_size..=queue_size,
        Some(Json::Array(items)) => match items.as_slice() {
            [start, end] => {
                let start = usize_from(start, "capacities[0]")?;
                let end = usize_from(end, "capacities[1]")?;
                if start > end {
                    return Err(JsonError::semantic("`capacities` range is reversed"));
                }
                start..=end
            }
            _ => {
                return Err(JsonError::semantic(
                    "`capacities` must be a number or a [start, end] pair",
                ))
            }
        },
        Some(value) => {
            let single = usize_from(value, "capacities")?;
            single..=single
        }
    };
    let target = match string(fields, "target")? {
        None => DeadlockTarget::default(),
        Some("any") => DeadlockTarget::Any,
        Some("stuck-packet") => DeadlockTarget::StuckPacket,
        Some("dead-automaton") => DeadlockTarget::DeadAutomaton,
        Some(other) => {
            return Err(JsonError::semantic(format!(
                "unknown target `{other}` (expected any, stuck-packet or dead-automaton)"
            )))
        }
    };
    let invariants = flag(fields, "invariants", true)?;
    let timeout_ms = uint(fields, "timeout_ms")?;
    let mut config = CheckConfig::default();
    if let Some(limit) = uint(fields, "max_refinements")? {
        config.max_refinements = limit as u64;
    }
    if let Some(budget) = uint(fields, "theory_node_budget")? {
        config.theory_node_budget = budget as u64;
    }

    let topology = topology().map_err(|e| JsonError::semantic(format!("bad topology: {e}")))?;
    let mut fabric = FabricConfig::new(topology, queue_size)
        .with_protocol(protocol)
        .with_message_class_vcs(message_class_vcs);
    if let Some(terminal) = directory {
        fabric = fabric.with_directory(terminal);
    }
    let mut template = VerifyJob::new(name, fabric)
        .with_target(target)
        .with_config(config)
        .with_invariants(invariants);
    if let Some(ms) = timeout_ms {
        template = template.with_timeout(Duration::from_millis(ms as u64));
    }
    let (start, end) = (*capacities.start(), *capacities.end());
    let jobs = end
        .checked_sub(start)
        .map_or(0, |gap| gap.saturating_add(1));
    Ok((
        jobs,
        capacities.clone().map(move |capacity| {
            template
                .clone()
                .at_capacity(capacity)
                .with_engine_range(capacities.clone())
        }),
    ))
}

/// Validates a request's `topology` object and returns the builder of
/// its topology, which runs once every other field is validated.
fn topology_from_value(
    value: &Json,
) -> Result<impl FnOnce() -> Result<Topology, TopologyError>, JsonError> {
    type Build = fn(u32, u32) -> Result<Topology, TopologyError>;
    let Json::Object(fields) = value else {
        return Err(JsonError::semantic("`topology` must be an object"));
    };
    let kind = match get(fields, "kind") {
        Some(Json::String(s)) => s.as_str(),
        _ => return Err(JsonError::semantic("`topology.kind` must be a string")),
    };
    let (build, keys): (Build, &[&str]) = match kind {
        "mesh" => (Topology::mesh, &["width", "height"]),
        "torus" => (Topology::torus, &["width", "height"]),
        "ring" => (|nodes, _| Topology::ring(nodes), &["nodes"]),
        "fat-tree" => (Topology::fat_tree, &["arity", "levels"]),
        other => {
            return Err(JsonError::semantic(format!(
                "unknown topology kind `{other}` (expected mesh, torus, ring or fat-tree)"
            )))
        }
    };
    let mut dims = [0; 2];
    for (dim, &key) in dims.iter_mut().zip(keys) {
        *dim = match get(fields, key) {
            Some(value) => u32_from_usize(usize_from(value, key)?, key)?,
            None => {
                return Err(JsonError::semantic(format!(
                    "topology kind `{kind}` requires `{key}`"
                )))
            }
        };
    }
    Ok(move || build(dims[0], dims[1]))
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The string field `key`, when present.
fn string<'a>(fields: &'a [(String, Json)], key: &str) -> Result<Option<&'a str>, JsonError> {
    match get(fields, key) {
        None => Ok(None),
        Some(Json::String(s)) => Ok(Some(s)),
        Some(_) => Err(JsonError::semantic(format!("`{key}` must be a string"))),
    }
}

/// The non-negative integer field `key`, when present.
fn uint(fields: &[(String, Json)], key: &str) -> Result<Option<usize>, JsonError> {
    get(fields, key)
        .map(|value| usize_from(value, key))
        .transpose()
}

/// The boolean field `key`, or `default` when absent.
fn flag(fields: &[(String, Json)], key: &str, default: bool) -> Result<bool, JsonError> {
    match get(fields, key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(JsonError::semantic(format!("`{key}` must be a boolean"))),
    }
}

fn usize_from(value: &Json, field: &str) -> Result<usize, JsonError> {
    match value {
        Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Ok(*n as usize)
        }
        _ => Err(JsonError::semantic(format!(
            "`{field}` must be a non-negative integer"
        ))),
    }
}

/// Narrows a parsed integer to the `u32` a topology dimension is, refusing
/// instead of wrapping.
fn u32_from_usize(value: usize, field: &str) -> Result<u32, JsonError> {
    u32::try_from(value)
        .map_err(|_| JsonError::semantic(format!("`{field}` must be at most {}", u32::MAX)))
}

// ---------------------------------------------------------------------------
// The parser: minimal recursive-descent JSON.
// ---------------------------------------------------------------------------

enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Maximum nesting depth of arrays/objects: far above any legitimate job
/// request, far below anything that could exhaust the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after the JSON value"));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    /// Consumes a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Strict JSON number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?`
    /// `([eE][+-]?[0-9]+)?`.  The permissive scan this replaces accepted
    /// `+1`, `01`, `1.` and `.5`, none of which are JSON — a front-end
    /// must refuse them with a position, not guess.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    return Err(self.error("numbers may not have leading zeros"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error("malformed number: expected a digit")),
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("malformed number: expected digits after `.`"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("malformed number: expected exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("numeric bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error(format!("malformed number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte sequences are
                    // copied verbatim; the input is a &str, so they are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid UTF-8 inside string"))?;
                    let c = rest.chars().next().expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits starting at `at` (no sign, no
    /// shortfall — `u32::from_str_radix` alone would accept `+1ab`).
    fn hex4_at(&self, at: usize) -> Result<u32, JsonError> {
        self.bytes
            .get(at..at + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("malformed \\u escape: expected 4 hex digits"))
    }

    /// Decodes one `\u` escape with `self.pos` on the `u`, handling UTF-16
    /// surrogate pairs (`𝄞` → 𝄞) and refusing unpaired
    /// surrogates — both previously slipped through as errors without a
    /// cause or, worse, as garbage characters.  Leaves `self.pos` on the
    /// escape's final consumed byte (the caller advances past it).
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4_at(self.pos + 1)?;
        match first {
            0xD800..=0xDBFF => {
                // High surrogate: a low surrogate escape must follow.
                if self.bytes.get(self.pos + 5) != Some(&b'\\')
                    || self.bytes.get(self.pos + 6) != Some(&b'u')
                {
                    return Err(self.error("unpaired high surrogate in \\u escape"));
                }
                let second = self.hex4_at(self.pos + 7)?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.error("high surrogate not followed by a low surrogate"));
                }
                self.pos += 10;
                let scalar = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                char::from_u32(scalar).ok_or_else(|| self.error("\\u escape is not a scalar"))
            }
            0xDC00..=0xDFFF => Err(self.error("unpaired low surrogate in \\u escape")),
            _ => {
                self.pos += 4;
                char::from_u32(first).ok_or_else(|| self.error("\\u escape is not a scalar"))
            }
        }
    }

    /// Bounds recursion: arbitrarily deep input must fail with a parse
    /// error at a position, not blow the stack.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("value nesting exceeds the depth limit"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let result = self.array_body();
        self.depth -= 1;
        result
    }

    fn array_body(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let result = self.object_body();
        self.depth -= 1;
        result
    }

    fn object_body(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{JsonSubmitError, Service, ServiceConfig};
    use advocat_noc::TopologyKind;

    /// Every job of every request in `text`, in submission order.
    fn jobs(text: &str) -> Result<Vec<VerifyJob>, JsonError> {
        Ok(sweeps_from_json(text)?
            .into_iter()
            .flat_map(|(_, jobs)| jobs)
            .collect())
    }

    /// Every field of a request reaches each of its jobs, and the name
    /// decodes through every escape class.
    #[test]
    fn a_full_request_round_trips() {
        let text = r#"{
            "name": "torus \"sweep\" \\ \/ \b\f\n\r\t \u0041\u00e9 \ud834\udd1e",
            "topology": {"kind": "torus", "width": 3, "height": 2},
            "queue_size": 4,
            "protocol": "mesi",
            "directory": 4,
            "message_class_vcs": true,
            "capacities": [1, 3],
            "target": "stuck-packet",
            "invariants": false,
            "timeout_ms": 5000,
            "max_refinements": 77,
            "theory_node_budget": 123456
        }"#;
        let sweeps = sweeps_from_json(text).unwrap();
        assert_eq!(sweeps.len(), 1);
        assert_eq!(sweeps[0].0, 3);
        let jobs = jobs(text).unwrap();
        assert_eq!(jobs.len(), 3);
        for (job, capacity) in jobs.iter().zip(1..) {
            assert_eq!(
                job.name,
                "torus \"sweep\" \\ / \u{8}\u{c}\n\r\t A\u{e9} \u{1D11E}"
            );
            assert_eq!(
                job.fabric.topology.kind(),
                TopologyKind::Torus {
                    width: 3,
                    height: 2
                }
            );
            assert_eq!(job.fabric.queue_size, 4);
            assert_eq!(job.fabric.protocol, ProtocolKind::Mesi);
            assert_eq!(job.fabric.directory, 4);
            assert!(job.fabric.message_class_vcs);
            assert_eq!(job.capacity, Some(capacity));
            assert_eq!(job.engine_range, Some(1..=3));
            assert_eq!(job.target, DeadlockTarget::StuckPacket);
            assert!(!job.invariants);
            assert_eq!(job.timeout, Some(Duration::from_millis(5000)));
            assert_eq!(job.config.max_refinements, 77);
            assert_eq!(job.config.theory_node_budget, 123_456);
        }
    }

    /// Only the three targets parse.  `none` would name a question with
    /// nothing to look for, whose "deadlock-free" needs no solving, so it
    /// is malformed input and nothing is submitted.
    #[test]
    fn the_none_target_is_refused_and_submits_nothing() {
        let text = r#"{"name": "x", "topology": {"kind": "mesh", "width": 2, "height": 2},
                       "target": "none"}"#;
        let error = jobs(text).unwrap_err();
        assert!(
            error
                .message
                .contains("expected any, stuck-packet or dead-automaton"),
            "{error}"
        );
        let service = Service::new(ServiceConfig::default().with_workers(1));
        assert!(matches!(
            service.try_submit_json(text),
            Err(JsonSubmitError::Json(_))
        ));
        assert_eq!(service.stats().submitted, 0);
        assert!(service.drain().is_empty());
    }

    #[test]
    fn arrays_of_requests_and_defaults_work() {
        let text = r#"[
            {"name": "a", "topology": {"kind": "mesh", "width": 2, "height": 2}},
            {"name": "b", "topology": {"kind": "ring", "nodes": 4}, "capacities": 3}
        ]"#;
        let jobs = jobs(text).unwrap();
        assert_eq!(jobs.len(), 2);
        let defaults = CheckConfig::default();
        for job in &jobs {
            assert_eq!(job.fabric.queue_size, 2);
            assert_eq!(job.fabric.protocol, ProtocolKind::AbstractMi);
            assert!(!job.fabric.message_class_vcs);
            assert_eq!(job.target, DeadlockTarget::default());
            assert!(job.invariants);
            assert_eq!(job.timeout, None);
            assert_eq!(job.config.max_refinements, defaults.max_refinements);
            assert_eq!(job.config.theory_node_budget, defaults.theory_node_budget);
        }
        assert_eq!(
            (jobs[0].capacity, jobs[0].engine_range.clone()),
            (Some(2), Some(2..=2))
        );
        assert_eq!(
            (jobs[1].capacity, jobs[1].engine_range.clone()),
            (Some(3), Some(3..=3))
        );
    }

    /// A tiny deterministic xorshift64* generator — the build environment
    /// has no `rand`, and determinism makes a failing seed reproducible.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }
    }

    /// Property: mutated request text never panics the parser — it either
    /// parses (the mutation stayed inside the grammar) or errors with a
    /// position inside the input.
    #[test]
    fn mutated_request_text_never_panics() {
        const REQUESTS: [&str; 6] = [
            r#"{"name": "mesh \"q\" \\ \u0001 名", "topology": {"kind": "mesh", "width": 2, "height": 2},
                "queue_size": 2, "protocol": "abstract-mi", "directory": 3, "capacities": [1, 3]}"#,
            r#"{"name": "torus", "topology": {"kind": "torus", "width": 3, "height": 2},
                "protocol": "mesi", "message_class_vcs": true, "target": "stuck-packet",
                "invariants": false, "timeout_ms": 5000}"#,
            r#"{"name": "ring", "topology": {"kind": "ring", "nodes": 4}, "queue_size": 1,
                "capacities": 2, "target": "dead-automaton", "max_refinements": 9}"#,
            r#"{"name": "tree \ud834\udd1e", "topology": {"kind": "fat-tree", "arity": 2, "levels": 2},
                "protocol": "full-mi", "theory_node_budget": 1000, "target": "any"}"#,
            r#"[{"name": "a", "topology": {"kind": "mesh", "width": 3, "height": 1}},
                {"name": "b\t\n", "topology": {"kind": "ring", "nodes": 3}, "capacities": [2, 2]}]"#,
            r#"{"name": "x", "topology": {"kind": "mesh", "width": 2, "height": 2}, "bogus": [1.5e3, null]}"#,
        ];
        let mut rng = XorShift(0xBAD5_EED5_0000_0042);
        for base in REQUESTS {
            let bytes = base.as_bytes();
            for _ in 0..256 {
                let mutated = match rng.below(3) {
                    // Truncate anywhere (may split a UTF-8 sequence).
                    0 => String::from_utf8_lossy(&bytes[..rng.below(bytes.len() as u64) as usize])
                        .into_owned(),
                    // Flip one byte to a printable ASCII character.
                    1 => {
                        let mut copy = bytes.to_vec();
                        let at = rng.below(copy.len() as u64) as usize;
                        copy[at] = b' ' + (rng.below(94) as u8);
                        String::from_utf8_lossy(&copy).into_owned()
                    }
                    // Duplicate a random slice into the middle.
                    _ => {
                        let a = rng.below(bytes.len() as u64) as usize;
                        let b = a + rng.below((bytes.len() - a) as u64 + 1) as usize;
                        let mut copy = String::from_utf8_lossy(&bytes[..b]).into_owned();
                        copy.push_str(&String::from_utf8_lossy(&bytes[a..]));
                        copy
                    }
                };
                if let Err(error) = sweeps_from_json(&mutated) {
                    assert!(
                        error.offset <= mutated.len(),
                        "error position {} outside input of {} bytes",
                        error.offset,
                        mutated.len()
                    );
                }
            }
        }
    }

    /// The hardening cases the front-end depends on: trailing garbage,
    /// unterminated strings and bad `\u` escapes are refused with a
    /// position; strict numbers and the depth cap hold.
    #[test]
    fn malformed_syntax_is_refused_with_positions() {
        for (text, needle) in [
            (r#"{"name": "x"} trailing"#, "trailing characters"),
            (r#"{"name": "unterminated"#, "unterminated string"),
            (r#"{"name": "bad \uZZZZ escape"}"#, "4 hex digits"),
            (
                r#"{"name": "high alone \ud834"}"#,
                "unpaired high surrogate",
            ),
            (r#"{"name": "low alone \udd1e"}"#, "unpaired low surrogate"),
            (r#"{"name": "pairless \ud834A"}"#, "unpaired high surrogate"),
            (
                r#"{"name": "pair \ud834\u0041"}"#,
                "not followed by a low surrogate",
            ),
            (r#"{"queue_size": 01}"#, "leading zeros"),
            (r#"{"queue_size": +1}"#, "expected a JSON value"),
            (r#"{"queue_size": 1.}"#, "digits after `.`"),
            (r#"{"queue_size": 1e}"#, "exponent digits"),
            (r#"{"queue_size": -}"#, "expected a digit"),
        ] {
            let error = jobs(text).unwrap_err();
            assert!(
                error.message.contains(needle),
                "{text} → {error}, wanted `{needle}`"
            );
            assert!(error.offset > 0, "{text}: syntax errors carry a position");
        }
        // Surrogate pairs decode; the depth cap trips at 64 nested arrays.
        let paired = jobs(r#"{"name": "clef 𝄞", "topology": {"kind": "ring", "nodes": 3}}"#)
            .expect("surrogate pair decodes");
        assert!(paired[0].name.contains('\u{1D11E}'));
        let deep = format!("{}1{}", "[".repeat(80), "]".repeat(80));
        let error = validate_json(&deep).unwrap_err();
        assert!(error.message.contains("depth limit"));
        validate_json(&format!("{}1{}", "[".repeat(60), "]".repeat(60)))
            .expect("60 levels is under the cap");
    }

    /// A directory index is a terminal index of any size: one past
    /// `u32::MAX` is not wrapped onto terminal 3 of a 2×2 mesh but fails
    /// the fabric build, for every topology kind alike.
    #[test]
    fn a_directory_beyond_u32_is_not_wrapped_onto_a_terminal() {
        use crate::service::JobError;
        use advocat_noc::FabricError;

        let service = Service::new(ServiceConfig::default().with_workers(1));
        for topology in [
            r#"{"kind": "mesh", "width": 2, "height": 2}"#,
            r#"{"kind": "ring", "nodes": 4}"#,
        ] {
            let text =
                format!(r#"{{"name": "x", "topology": {topology}, "directory": 4294967299}}"#);
            let jobs = jobs(&text).expect("the fabric is configured");
            assert_eq!(jobs[0].fabric.directory, 4_294_967_299);
            service
                .try_submit_json(&text)
                .expect("the request is admitted");
        }
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 2);
        for outcome in outcomes {
            assert!(
                matches!(
                    outcome.result,
                    Err(JobError::Fabric(FabricError::DirectoryOutOfBounds))
                ),
                "{:?}",
                outcome.result
            );
        }
    }

    /// Every topology kind is built when the request is read, so a
    /// degenerate or oversized one is refused before anything is
    /// submitted, with the topology engine's reason.
    #[test]
    fn bad_topologies_are_refused_before_submission() {
        let service = Service::new(ServiceConfig::default().with_workers(1));
        for (topology, reason) in [
            (
                r#"{"kind": "mesh", "width": 1, "height": 1}"#,
                "at least two",
            ),
            (
                r#"{"kind": "torus", "width": 1, "height": 4}"#,
                "at least two",
            ),
            (r#"{"kind": "ring", "nodes": 2}"#, "at least three"),
            (r#"{"kind": "fat-tree", "arity": 1, "levels": 2}"#, "arity"),
            (
                r#"{"kind": "mesh", "width": 100000, "height": 100000}"#,
                "supported size",
            ),
            (
                r#"{"kind": "torus", "width": 100000, "height": 100000}"#,
                "supported size",
            ),
            (r#"{"kind": "ring", "nodes": 4000000000}"#, "supported size"),
        ] {
            let text = format!(r#"{{"name": "x", "topology": {topology}}}"#);
            let error = jobs(&text).unwrap_err();
            assert!(
                error.message.starts_with("bad topology") && error.message.contains(reason),
                "{topology} → {error}"
            );
            assert!(matches!(
                service.try_submit_json(&text),
                Err(JsonSubmitError::Json(_))
            ));
        }
        assert_eq!(service.stats().submitted, 0);
    }

    /// A request set is counted from its capacity ranges before any job
    /// of it is built: a sweep wider than the queue is refused whole, with
    /// its full job count, however wide it is.
    #[test]
    fn a_sweep_wider_than_the_queue_is_refused_before_it_is_expanded() {
        let service = Service::new(ServiceConfig::default().with_workers(1));
        let wide = |end: &str| {
            format!(
                r#"{{"name": "wide", "topology": {{"kind": "mesh", "width": 2, "height": 2}},
                     "capacities": [1, {end}]}}"#
            )
        };
        for (end, jobs) in [
            ("2000", 2_000),
            ("200000", 200_000),
            ("4000000000", 4_000_000_000),
        ] {
            assert_eq!(
                service.try_submit_json(&wide(end)),
                Err(JsonSubmitError::QueueFull {
                    jobs,
                    capacity: 1024
                }),
                "[1, {end}]"
            );
        }
        // Two sweeps whose sizes overflow a `usize` between them.
        let max = u64::MAX.to_string();
        let both = format!(r#"[{}, {}]"#, wide(&max), wide(&max));
        assert_eq!(
            service.try_submit_json(&both),
            Err(JsonSubmitError::QueueFull {
                jobs: usize::MAX,
                capacity: 1024
            })
        );
        // Malformed input is refused as such before anything is counted.
        let bad = r#"{"name": "x", "topology": {"kind": "ring", "nodes": 2}, "capacities": [1, 4000000000]}"#;
        assert!(matches!(
            service.try_submit_json(bad),
            Err(JsonSubmitError::Json(_))
        ));
        assert_eq!(service.stats().submitted, 0);
        assert!(service.drain().is_empty());
    }

    #[test]
    fn malformed_requests_are_refused_with_a_reason() {
        for (text, needle) in [
            ("{", "expected"),
            (r#"{"name": 3}"#, "must be a string"),
            (
                r#"{"topology": {"kind": "ring", "nodes": 4}}"#,
                "missing `name`",
            ),
            (
                r#"{"name": "x", "topology": {"kind": "moebius"}}"#,
                "unknown topology kind",
            ),
            (
                r#"{"name": "x", "topology": {"kind": "ring", "nodes": 4}, "bogus": 1}"#,
                "unknown job field",
            ),
            (
                r#"{"name": "x", "topology": {"kind": "ring", "nodes": 4}, "capacities": [3, 1]}"#,
                "reversed",
            ),
            (
                r#"{"name": "x", "topology": {"kind": "ring", "nodes": 4294967300}}"#,
                "`nodes` must be at most 4294967295",
            ),
            // Every field of a request is validated before its topology is
            // built, and each request is read whole before the next one.
            (
                r#"{"name": "x", "topology": {"kind": "ring", "nodes": 2}, "capacities": [3, 1]}"#,
                "reversed",
            ),
            // In an array, the first request's unbuildable topology names
            // the error, not the second one's unknown field.
            (
                r#"[{"name": "a", "topology": {"kind": "ring", "nodes": 2}},
                    {"name": "b", "topology": {"kind": "ring", "nodes": 4}, "bogus": 1}]"#,
                "bad topology",
            ),
        ] {
            let error = jobs(text).unwrap_err();
            assert!(
                error.message.contains(needle),
                "{text} → {error}, wanted `{needle}`"
            );
        }
    }
}
