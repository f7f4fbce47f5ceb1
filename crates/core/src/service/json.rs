//! A hand-rolled, dependency-free JSON job format.
//!
//! The service is meant to sit behind scripts and CI harnesses, so jobs
//! and outcomes need a wire form.  The container this project builds in is
//! offline — no serde — so this module carries its own small recursive-
//! descent parser and writer for exactly the job/outcome shapes:
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
//! A request file is one such object or an array of them
//! ([`requests_from_json`]); each request expands to one [`VerifyJob`] per
//! capacity, all sharing the sweep range (and therefore one pooled
//! engine).  Outcomes serialise with [`outcome_to_json`].

use std::fmt;
use std::ops::RangeInclusive;
use std::time::Duration;

use advocat_deadlock::DeadlockTarget;
use advocat_logic::CheckConfig;
use advocat_noc::{FabricConfig, MeshConfig, ProtocolKind, Topology};
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

/// The topology a JSON job request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// A `width × height` 2D mesh (XY-routed).
    Mesh {
        /// Columns.
        width: u32,
        /// Rows.
        height: u32,
    },
    /// A `width × height` 2D torus (dimension-ordered with dateline VCs).
    Torus {
        /// Columns.
        width: u32,
        /// Rows.
        height: u32,
    },
    /// A unidirectional ring.
    Ring {
        /// Node count.
        nodes: u32,
    },
    /// A k-ary fat tree.
    FatTree {
        /// Children per switch.
        arity: u32,
        /// Tree depth.
        levels: u32,
    },
}

/// One JSON job request: a fabric description plus a capacity sweep.
///
/// Expand with [`JobRequest::to_jobs`]; the jobs share one engine range,
/// so the whole sweep runs on a single pooled engine.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Label carried into every outcome of the sweep.
    pub name: String,
    /// The fabric's topology.
    pub topology: TopologySpec,
    /// The fabric's configured queue capacity.
    pub queue_size: usize,
    /// The hosted cache-coherence protocol.
    pub protocol: ProtocolKind,
    /// Directory placement as a node index (`None` keeps the default).
    pub directory: Option<usize>,
    /// Whether message classes ride separate virtual channels.
    pub message_class_vcs: bool,
    /// The capacities to verify (inclusive); also the engine range.
    pub capacities: RangeInclusive<usize>,
    /// Which deadlock symptom to look for.
    pub target: DeadlockTarget,
    /// Whether derived invariants strengthen the encoding.
    pub invariants: bool,
    /// Per-job wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Override for [`CheckConfig::max_refinements`].
    pub max_refinements: Option<u64>,
    /// Override for [`CheckConfig::theory_node_budget`].
    pub theory_node_budget: Option<u64>,
}

impl JobRequest {
    /// A request over `topology` with every knob at its default: queue
    /// size 2, abstract-MI protocol, capacity sweep pinned to the queue
    /// size.
    pub fn new(name: impl Into<String>, topology: TopologySpec) -> Self {
        JobRequest {
            name: name.into(),
            topology,
            queue_size: 2,
            protocol: ProtocolKind::AbstractMi,
            directory: None,
            message_class_vcs: false,
            capacities: 2..=2,
            target: DeadlockTarget::default(),
            invariants: true,
            timeout_ms: None,
            max_refinements: None,
            theory_node_budget: None,
        }
    }

    /// Expands the request into one [`VerifyJob`] per capacity, all
    /// sharing the sweep as their engine range.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the requested topology cannot be
    /// constructed (degenerate dimensions and the like).
    pub fn to_jobs(&self) -> Result<Vec<VerifyJob>, JsonError> {
        let fabric = self.build_fabric()?;
        let mut config = CheckConfig::default();
        if let Some(limit) = self.max_refinements {
            config.max_refinements = limit;
        }
        if let Some(budget) = self.theory_node_budget {
            config.theory_node_budget = budget;
        }
        Ok(self
            .capacities
            .clone()
            .map(|capacity| {
                let mut job = VerifyJob::over(self.name.clone(), fabric.clone())
                    .with_target(self.target)
                    .with_config(config.clone())
                    .at_capacity(capacity)
                    .with_engine_range(self.capacities.clone())
                    .with_invariants(self.invariants);
                if let Some(ms) = self.timeout_ms {
                    job = job.with_timeout(Duration::from_millis(ms));
                }
                job
            })
            .collect())
    }

    fn build_fabric(&self) -> Result<crate::batch::ScenarioFabric, JsonError> {
        use crate::batch::ScenarioFabric;
        match self.topology {
            TopologySpec::Mesh { width, height } => {
                let mut mesh = MeshConfig::new(width, height, self.queue_size)
                    .with_protocol(self.protocol)
                    .with_virtual_channels(self.message_class_vcs);
                if let Some(node) = self.directory {
                    if width == 0 {
                        return Err(JsonError::semantic("mesh width must be positive"));
                    }
                    let node = u32_from_usize(node, "directory")?;
                    mesh = mesh.with_directory(node % width, node / width);
                }
                Ok(ScenarioFabric::Mesh(mesh))
            }
            TopologySpec::Torus { width, height } => self.wrap(Topology::torus(width, height)),
            TopologySpec::Ring { nodes } => self.wrap(Topology::ring(nodes)),
            TopologySpec::FatTree { arity, levels } => self.wrap(Topology::fat_tree(arity, levels)),
        }
    }

    fn wrap(
        &self,
        topology: Result<Topology, impl fmt::Display>,
    ) -> Result<crate::batch::ScenarioFabric, JsonError> {
        let topology = topology.map_err(|e| JsonError::semantic(format!("bad topology: {e}")))?;
        let mut fabric = FabricConfig::new(topology, self.queue_size)
            .with_protocol(self.protocol)
            .with_message_class_vcs(self.message_class_vcs);
        if let Some(node) = self.directory {
            fabric = fabric.with_directory(node);
        }
        Ok(crate::batch::ScenarioFabric::Fabric(Box::new(fabric)))
    }

    /// Serialises the request back to its JSON object form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_str_field(&mut out, "name", &self.name);
        out.push_str(",\"topology\":");
        match self.topology {
            TopologySpec::Mesh { width, height } => {
                out.push_str(&format!(
                    "{{\"kind\":\"mesh\",\"width\":{width},\"height\":{height}}}"
                ));
            }
            TopologySpec::Torus { width, height } => {
                out.push_str(&format!(
                    "{{\"kind\":\"torus\",\"width\":{width},\"height\":{height}}}"
                ));
            }
            TopologySpec::Ring { nodes } => {
                out.push_str(&format!("{{\"kind\":\"ring\",\"nodes\":{nodes}}}"));
            }
            TopologySpec::FatTree { arity, levels } => {
                out.push_str(&format!(
                    "{{\"kind\":\"fat-tree\",\"arity\":{arity},\"levels\":{levels}}}"
                ));
            }
        }
        out.push_str(&format!(",\"queue_size\":{}", self.queue_size));
        out.push_str(&format!(
            ",\"protocol\":\"{}\"",
            protocol_name(self.protocol)
        ));
        if let Some(node) = self.directory {
            out.push_str(&format!(",\"directory\":{node}"));
        }
        if self.message_class_vcs {
            out.push_str(",\"message_class_vcs\":true");
        }
        out.push_str(&format!(
            ",\"capacities\":[{},{}]",
            self.capacities.start(),
            self.capacities.end()
        ));
        out.push_str(&format!(",\"target\":\"{}\"", self.target));
        out.push_str(&format!(",\"invariants\":{}", self.invariants));
        if let Some(ms) = self.timeout_ms {
            out.push_str(&format!(",\"timeout_ms\":{ms}"));
        }
        if let Some(limit) = self.max_refinements {
            out.push_str(&format!(",\"max_refinements\":{limit}"));
        }
        if let Some(budget) = self.theory_node_budget {
            out.push_str(&format!(",\"theory_node_budget\":{budget}"));
        }
        out.push('}');
        out
    }
}

/// Parses a request file: one JSON job object, or an array of them.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first syntactic or semantic
/// problem.
pub fn requests_from_json(text: &str) -> Result<Vec<JobRequest>, JsonError> {
    let value = parse(text)?;
    match value {
        Json::Object(_) => Ok(vec![request_from_value(&value)?]),
        Json::Array(items) => items.iter().map(request_from_value).collect(),
        _ => Err(JsonError::semantic(
            "expected a job object or an array of job objects",
        )),
    }
}

/// Parses a request file and expands every request into its per-capacity
/// jobs, in request order — what the service submits for a JSON payload.
pub(crate) fn jobs_from_json(text: &str) -> Result<Vec<VerifyJob>, JsonError> {
    let mut jobs = Vec::new();
    for request in requests_from_json(text)? {
        jobs.extend(request.to_jobs()?);
    }
    Ok(jobs)
}

/// Checks that `text` is one syntactically well-formed JSON value of any
/// shape, with a position-carrying error when it is not.  The HTTP
/// front-end uses this to refuse malformed payloads before touching the
/// service, and tests use it to pin that every emitted wire string is
/// valid JSON.
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
    if let Some(delta) = &outcome.session_delta {
        out.push_str(&format!(
            ",\"delta\":{{\"templates_built\":{},\"queries\":{},\"sat_conflicts\":{},\"sat_propagations\":{}}}",
            delta.templates_built, delta.queries, delta.sat_conflicts, delta.sat_propagations
        ));
    }
    out.push('}');
    out
}

fn protocol_name(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::AbstractMi => "abstract-mi",
        ProtocolKind::FullMi => "full-mi",
        ProtocolKind::Mesi => "mesi",
    }
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

fn request_from_value(value: &Json) -> Result<JobRequest, JsonError> {
    let Json::Object(fields) = value else {
        return Err(JsonError::semantic("each job request must be an object"));
    };
    for (key, _) in fields {
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
        if !KNOWN.contains(&key.as_str()) {
            return Err(JsonError::semantic(format!("unknown job field `{key}`")));
        }
    }
    let name = match get(fields, "name") {
        Some(Json::String(s)) => s.clone(),
        Some(_) => return Err(JsonError::semantic("`name` must be a string")),
        None => return Err(JsonError::semantic("job request is missing `name`")),
    };
    let topology = topology_from_value(
        get(fields, "topology")
            .ok_or_else(|| JsonError::semantic("job request is missing `topology`"))?,
    )?;
    let queue_size = match get(fields, "queue_size") {
        Some(value) => usize_from(value, "queue_size")?,
        None => 2,
    };
    let protocol = match get(fields, "protocol") {
        None => ProtocolKind::AbstractMi,
        Some(Json::String(s)) => match s.as_str() {
            "abstract-mi" => ProtocolKind::AbstractMi,
            "full-mi" => ProtocolKind::FullMi,
            "mesi" => ProtocolKind::Mesi,
            other => {
                return Err(JsonError::semantic(format!(
                    "unknown protocol `{other}` (expected abstract-mi, full-mi or mesi)"
                )))
            }
        },
        Some(_) => return Err(JsonError::semantic("`protocol` must be a string")),
    };
    let directory = match get(fields, "directory") {
        None => None,
        Some(value) => Some(usize_from(value, "directory")?),
    };
    let message_class_vcs = match get(fields, "message_class_vcs") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(JsonError::semantic("`message_class_vcs` must be a boolean")),
    };
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
    let target = match get(fields, "target") {
        None => DeadlockTarget::default(),
        Some(Json::String(s)) => match s.as_str() {
            "any" => DeadlockTarget::Any,
            "stuck-packet" => DeadlockTarget::StuckPacket,
            "dead-automaton" => DeadlockTarget::DeadAutomaton,
            other => {
                return Err(JsonError::semantic(format!(
                    "unknown target `{other}` (expected any, stuck-packet or dead-automaton)"
                )))
            }
        },
        Some(_) => return Err(JsonError::semantic("`target` must be a string")),
    };
    let invariants = match get(fields, "invariants") {
        None => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(JsonError::semantic("`invariants` must be a boolean")),
    };
    let timeout_ms = match get(fields, "timeout_ms") {
        None => None,
        Some(value) => Some(usize_from(value, "timeout_ms")? as u64),
    };
    let max_refinements = match get(fields, "max_refinements") {
        None => None,
        Some(value) => Some(usize_from(value, "max_refinements")? as u64),
    };
    let theory_node_budget = match get(fields, "theory_node_budget") {
        None => None,
        Some(value) => Some(usize_from(value, "theory_node_budget")? as u64),
    };
    Ok(JobRequest {
        name,
        topology,
        queue_size,
        protocol,
        directory,
        message_class_vcs,
        capacities,
        target,
        invariants,
        timeout_ms,
        max_refinements,
        theory_node_budget,
    })
}

fn topology_from_value(value: &Json) -> Result<TopologySpec, JsonError> {
    let Json::Object(fields) = value else {
        return Err(JsonError::semantic("`topology` must be an object"));
    };
    let kind = match get(fields, "kind") {
        Some(Json::String(s)) => s.as_str(),
        _ => return Err(JsonError::semantic("`topology.kind` must be a string")),
    };
    let dim = |key: &str| -> Result<u32, JsonError> {
        match get(fields, key) {
            Some(value) => u32_from_usize(usize_from(value, key)?, key),
            None => Err(JsonError::semantic(format!(
                "topology kind `{kind}` requires `{key}`"
            ))),
        }
    };
    match kind {
        "mesh" => Ok(TopologySpec::Mesh {
            width: dim("width")?,
            height: dim("height")?,
        }),
        "torus" => Ok(TopologySpec::Torus {
            width: dim("width")?,
            height: dim("height")?,
        }),
        "ring" => Ok(TopologySpec::Ring {
            nodes: dim("nodes")?,
        }),
        "fat-tree" => Ok(TopologySpec::FatTree {
            arity: dim("arity")?,
            levels: dim("levels")?,
        }),
        other => Err(JsonError::semantic(format!(
            "unknown topology kind `{other}` (expected mesh, torus, ring or fat-tree)"
        ))),
    }
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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

/// Narrows a parsed integer to the `u32` a topology dimension or mesh
/// node index is, refusing instead of wrapping.
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

    #[test]
    fn a_full_request_round_trips() {
        let text = r#"{
            "name": "torus sweep",
            "topology": {"kind": "torus", "width": 3, "height": 2},
            "queue_size": 2,
            "protocol": "mesi",
            "directory": 4,
            "capacities": [1, 3],
            "target": "stuck-packet",
            "invariants": false,
            "timeout_ms": 5000
        }"#;
        let requests = requests_from_json(text).unwrap();
        assert_eq!(requests.len(), 1);
        let request = &requests[0];
        assert_eq!(
            request.topology,
            TopologySpec::Torus {
                width: 3,
                height: 2
            }
        );
        assert_eq!(request.capacities, 1..=3);
        assert!(!request.invariants);
        let reparsed = requests_from_json(&request.to_json()).unwrap();
        assert_eq!(&reparsed[0], request);
        assert_eq!(request.to_jobs().unwrap().len(), 3);
    }

    /// Only the three targets parse.  `none` would name a question with
    /// nothing to look for, whose "deadlock-free" needs no solving, so it
    /// is malformed input and nothing is submitted.
    #[test]
    fn the_none_target_is_refused_and_submits_nothing() {
        let text = r#"{"name": "x", "topology": {"kind": "mesh", "width": 2, "height": 2},
                       "target": "none"}"#;
        let error = requests_from_json(text).unwrap_err();
        assert!(
            error
                .message
                .contains("expected any, stuck-packet or dead-automaton"),
            "{error}"
        );
        let service = Service::new(ServiceConfig::default().with_workers(1));
        assert!(service.submit_json(text).is_err());
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
        let requests = requests_from_json(text).unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].queue_size, 2);
        assert_eq!(requests[0].capacities, 2..=2);
        assert_eq!(requests[1].capacities, 3..=3);
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

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    fn random_request(rng: &mut XorShift, index: usize) -> JobRequest {
        let topology = match rng.below(4) {
            0 => TopologySpec::Mesh {
                width: 1 + rng.below(4) as u32,
                height: 1 + rng.below(4) as u32,
            },
            1 => TopologySpec::Torus {
                width: 2 + rng.below(3) as u32,
                height: 2 + rng.below(3) as u32,
            },
            2 => TopologySpec::Ring {
                nodes: 2 + rng.below(6) as u32,
            },
            _ => TopologySpec::FatTree {
                arity: 2 + rng.below(2) as u32,
                levels: 2 + rng.below(2) as u32,
            },
        };
        let mut request =
            JobRequest::new(format!("random {index} \"quoted\\\u{1}\u{7}名"), topology);
        request.queue_size = 1 + rng.below(4) as usize;
        request.protocol = match rng.below(3) {
            0 => ProtocolKind::AbstractMi,
            1 => ProtocolKind::FullMi,
            _ => ProtocolKind::Mesi,
        };
        if rng.chance(50) {
            request.directory = Some(rng.below(8) as usize);
        }
        request.message_class_vcs = rng.chance(30);
        let low = 1 + rng.below(3) as usize;
        request.capacities = low..=low + rng.below(3) as usize;
        request.target = match rng.below(3) {
            0 => DeadlockTarget::Any,
            1 => DeadlockTarget::StuckPacket,
            _ => DeadlockTarget::DeadAutomaton,
        };
        request.invariants = rng.chance(80);
        if rng.chance(40) {
            request.timeout_ms = Some(rng.below(100_000));
        }
        if rng.chance(30) {
            request.max_refinements = Some(1 + rng.below(1_000_000));
        }
        if rng.chance(30) {
            request.theory_node_budget = Some(1 + rng.below(10_000_000));
        }
        request
    }

    /// Property: any representable request survives
    /// `to_json → requests_from_json` unchanged, alone and in arrays —
    /// including names that need every escape class.
    #[test]
    fn random_requests_round_trip_through_the_wire_format() {
        let mut rng = XorShift(0x5EED_CAFE_F00D_0001);
        let mut batch = Vec::new();
        for index in 0..256 {
            let request = random_request(&mut rng, index);
            let json = request.to_json();
            validate_json(&json).expect("emitted request JSON is well-formed");
            let reparsed = requests_from_json(&json).expect("round trip parses");
            assert_eq!(reparsed.len(), 1, "{json}");
            assert_eq!(reparsed[0], request, "{json}");
            batch.push(request);
            if batch.len() == 16 {
                let array = format!(
                    "[{}]",
                    batch
                        .iter()
                        .map(JobRequest::to_json)
                        .collect::<Vec<_>>()
                        .join(",")
                );
                assert_eq!(requests_from_json(&array).expect("array parses"), batch);
                batch.clear();
            }
        }
    }

    /// Property: mutated request text never panics the parser — it either
    /// parses (the mutation stayed inside the grammar) or errors with a
    /// position inside the input.
    #[test]
    fn mutated_request_text_never_panics() {
        let mut rng = XorShift(0xBAD5_EED5_0000_0042);
        for index in 0..128 {
            let base = random_request(&mut rng, index).to_json();
            let bytes = base.as_bytes();
            for _ in 0..16 {
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
                if let Err(error) = requests_from_json(&mutated) {
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
            let error = requests_from_json(text).unwrap_err();
            assert!(
                error.message.contains(needle),
                "{text} → {error}, wanted `{needle}`"
            );
            assert!(error.offset > 0, "{text}: syntax errors carry a position");
        }
        // Surrogate pairs decode; the depth cap trips at 64 nested arrays.
        let paired =
            requests_from_json(r#"{"name": "clef 𝄞", "topology": {"kind": "ring", "nodes": 3}}"#)
                .expect("surrogate pair decodes");
        assert!(paired[0].name.contains('\u{1D11E}'));
        let deep = format!("{}1{}", "[".repeat(80), "]".repeat(80));
        let error = validate_json(&deep).unwrap_err();
        assert!(error.message.contains("depth limit"));
        validate_json(&format!("{}1{}", "[".repeat(60), "]".repeat(60)))
            .expect("60 levels is under the cap");
    }

    /// A mesh directory index is a `u32` node number: one past `u32::MAX`
    /// is refused, not wrapped onto node 3 of a 2×2 mesh.
    #[test]
    fn a_mesh_directory_beyond_u32_is_refused() {
        let text = r#"{"name": "x", "topology": {"kind": "mesh", "width": 2, "height": 2},
                      "directory": 4294967299}"#;
        let requests = requests_from_json(text).expect("the request parses");
        let error = requests[0].to_jobs().unwrap_err();
        assert!(
            error
                .message
                .contains("`directory` must be at most 4294967295"),
            "{error}"
        );
        assert_eq!(jobs_from_json(text).unwrap_err(), error);
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
        ] {
            let error = requests_from_json(text).unwrap_err();
            assert!(
                error.message.contains(needle),
                "{text} → {error}, wanted `{needle}`"
            );
        }
    }
}
