//! A minimal HTTP/1.1 wire layer: exactly what the front-end's routes
//! need, hand-rolled in the house dependency-free style.
//!
//! Supported: request line + headers (16 KiB cap), `Content-Length`
//! bodies (4 MiB cap), keep-alive, fixed-length responses and chunked
//! transfer encoding (for the trace stream).  Not supported, by design:
//! pipelining beyond one in-flight request, trailers, compression,
//! HTTP/2 — callers are scripts, the CLI and CI harnesses.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on the request line plus all headers.
pub(crate) const MAX_HEAD: usize = 16 * 1024;
/// Hard cap on a request body.
pub(crate) const MAX_BODY: usize = 4 * 1024 * 1024;

/// A wire-layer failure while reading a request or response.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed (includes read/write deadline hits).
    Io(std::io::Error),
    /// The peer sent bytes that are not the HTTP we speak; the string
    /// names the violation.
    Malformed(String),
    /// The head or body exceeded its cap.
    TooLarge(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(error) => write!(f, "socket error: {error}"),
            HttpError::Malformed(what) => write!(f, "malformed HTTP: {what}"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds the front-end's limit"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(error: std::io::Error) -> Self {
        HttpError::Io(error)
    }
}

/// One parsed request: method, split path/query, lowercased headers and
/// the raw body.
#[derive(Debug)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The path component, percent-decoding deliberately not applied
    /// (route segments here are numeric ids).
    pub path: String,
    /// The query string after `?`, empty when absent.
    pub query: String,
    /// Header map with lowercased names; duplicate headers keep the last
    /// value (none of the headers this server reads repeat legally).
    pub headers: HashMap<String, String>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Looks up a `key=value` pair in the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The read side of a connection: once a request's deadline is set,
/// every read waits only for what is left of it, so a request has one
/// deadline however its bytes trickle in.
pub(crate) struct Incoming {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Incoming {
    pub(crate) fn new(stream: TcpStream) -> Incoming {
        Incoming {
            stream,
            deadline: None,
        }
    }
}

impl Read for Incoming {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        self.stream.read(buf)
    }
}

/// Reads one request off `reader`.  The first byte may take up to
/// `timeout` (the keep-alive idle wait); from it, the whole request, head
/// and body, must arrive within `timeout`, or the read fails with
/// [`HttpError::Io`].  Returns `Ok(None)` on a clean EOF before any byte
/// (the peer closed a keep-alive connection).
pub(crate) fn read_request(
    reader: &mut BufReader<Incoming>,
    timeout: Duration,
) -> Result<Option<Request>, HttpError> {
    let incoming = reader.get_mut();
    incoming.deadline = None;
    incoming.stream.set_read_timeout(Some(timeout))?;
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    // A timeout past the clock's range sets no deadline.
    reader.get_mut().deadline = Instant::now().checked_add(timeout);
    let mut consumed = 0;
    let Some(line) = read_head_line(reader, &mut consumed)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line `{line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = HashMap::new();
    loop {
        let Some(line) = read_head_line(reader, &mut consumed)? else {
            return Err(HttpError::Malformed("EOF inside headers".into()));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header `{line}`")));
        };
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
    }

    let body = match headers.get("content-length") {
        None => Vec::new(),
        Some(text) => {
            let length: usize = text
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{text}`")))?;
            if length > MAX_BODY {
                return Err(HttpError::TooLarge("request body"));
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            body
        }
    };

    Ok(Some(Request {
        method: method.to_owned(),
        path,
        query,
        headers,
        body,
    }))
}

/// Reads one CRLF-terminated head line, charging its length against the
/// running head budget.  At most one byte past the budget is read, so a
/// line that never ends is refused as soon as it outgrows the budget
/// instead of being buffered for as long as the client keeps sending.
/// `Ok(None)` means EOF before any byte.
fn read_head_line(
    reader: &mut BufReader<Incoming>,
    consumed: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = String::new();
    let budget = (MAX_HEAD - *consumed) as u64 + 1;
    let read = reader.by_ref().take(budget).read_line(&mut line)?;
    if read == 0 {
        return Ok(None);
    }
    *consumed += read;
    if *consumed > MAX_HEAD {
        return Err(HttpError::TooLarge("request head"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// A status code plus its reason phrase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatusLine(pub u16);

impl StatusLine {
    /// The standard reason phrase for the codes this server emits.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            410 => "Gone",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Response",
        }
    }
}

/// A response under construction: status, extra headers, body.
#[derive(Debug)]
pub struct Response {
    status: StatusLine,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Response {
        Response {
            status: StatusLine(status),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A JSON response (sets `Content-Type: application/json`).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status)
            .header("Content-Type", "application/json")
            .body(body.into().into_bytes())
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status)
            .header("Content-Type", "text/plain; version=0.0.4")
            .body(body.into().into_bytes())
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// Sets the body (sent with `Content-Length`).
    pub fn body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status.0
    }

    /// Writes the complete response.
    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status.0, self.status.reason());
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Writer half of a chunked response: head first, then any number of
/// chunks, then [`ChunkedWriter::finish`].
pub(crate) struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Sends the response head announcing chunked transfer encoding.
    pub(crate) fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let line = StatusLine(status);
        let mut head = format!("HTTP/1.1 {} {}\r\n", status, line.reason());
        head.push_str(&format!("Content-Type: {content_type}\r\n"));
        for (name, value) in extra {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one non-empty chunk (empty input is skipped — an empty
    /// chunk would terminate the stream).
    pub(crate) fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    pub(crate) fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}
