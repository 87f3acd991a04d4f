//! Wire protocol: length-prefixed UTF-8 frames carrying one request or
//! one response each.
//!
//! # Framing
//!
//! ```text
//! frame   := length "\n" payload
//! length  := ASCII decimal byte count of `payload` (at most MAX_FRAME)
//! payload := UTF-8 text
//! ```
//!
//! # Request payload grammar
//!
//! ```text
//! request := header "\n" body
//! header  := id SP verb (SP option)*
//! id      := [^ \n]+            client-chosen correlation token
//! verb    := "query" | "explain" | "analyze" | "stats" | "health"
//!          | "slowlog" | "cancel" | "shutdown" | "chaos" | "reload"
//! option  := key "=" value      e.g. timeout=250 maxrows=100000
//! body    := the verb's argument (XPath text, cancel target id, chaos spec)
//! ```
//!
//! # Response payload grammar
//!
//! ```text
//! response := id SP ("ok" | "err" SP kind) (SP meta)* "\n" body
//! kind     := stable error tag — engine lifecycle kinds (parse, translate,
//!             plan, exec, limit, cancelled) plus server kinds (overload,
//!             proto, shutdown, unsupported)
//! meta     := key "=" value     e.g. version=3 (the snapshot stamp on
//!             query/reload responses)
//! ```
//!
//! Meta tokens ride the header, never the body, so body formats stay
//! stable; parsers that predate a given key simply skip it.
//!
//! Responses are correlated by `id`, not by arrival order: a connection
//! may pipeline several requests (up to the server's per-connection cap)
//! and receives each response as its query completes.

use std::io::{self, BufRead, Write};

/// Hard ceiling on one frame's payload, both directions. Large enough
/// for a full metrics snapshot or a multi-thousand-row id list; small
/// enough that a malicious length header cannot balloon allocation.
pub const MAX_FRAME: usize = 4 << 20;

/// Write one frame: decimal payload length, newline, payload bytes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(format!("{}\n", payload.len()).as_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary; a
/// truncated frame, an unparsable or oversized length header, or invalid
/// UTF-8 are `InvalidData` errors.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return if header.is_empty() {
            Ok(None)
        } else {
            Err(bad_data("eof inside frame header"))
        };
    }
    let len: usize = header
        .trim()
        .parse()
        .map_err(|_| bad_data(&format!("bad frame length {:?}", header.trim())))?;
    if len > MAX_FRAME {
        return Err(bad_data(&format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)
        .map_err(|_| bad_data("eof inside frame payload"))?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| bad_data("frame payload is not UTF-8"))
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Protocol verbs a client may send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Run an XPath query (body = the XPath); returns result element ids.
    Query,
    /// Render the physical plan for an XPath without executing it.
    Explain,
    /// Execute with per-step profiling; returns the annotated plan.
    Analyze,
    /// Snapshot the process-wide metrics registry.
    Stats,
    /// Liveness / drain-state probe.
    Health,
    /// Render the server's bounded slow-query log, newest first.
    Slowlog,
    /// Fire the cancel token of an in-flight query (body = its `id`).
    Cancel,
    /// Begin a graceful drain, then exit the serve loop.
    Shutdown,
    /// Install or clear a fault-injection plan (chaos builds only).
    Chaos,
    /// Rebuild the engine's data source into a fresh snapshot and swap
    /// it in atomically; in-flight queries finish on the old snapshot.
    Reload,
}

impl Verb {
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Explain => "explain",
            Verb::Analyze => "analyze",
            Verb::Stats => "stats",
            Verb::Health => "health",
            Verb::Slowlog => "slowlog",
            Verb::Cancel => "cancel",
            Verb::Shutdown => "shutdown",
            Verb::Chaos => "chaos",
            Verb::Reload => "reload",
        }
    }

    /// The verb's latency histogram (`server.verb_ns.<verb>`), spelled
    /// out so the request path never formats a name.
    pub fn metric_name(self) -> &'static str {
        match self {
            Verb::Query => "server.verb_ns.query",
            Verb::Explain => "server.verb_ns.explain",
            Verb::Analyze => "server.verb_ns.analyze",
            Verb::Stats => "server.verb_ns.stats",
            Verb::Health => "server.verb_ns.health",
            Verb::Slowlog => "server.verb_ns.slowlog",
            Verb::Cancel => "server.verb_ns.cancel",
            Verb::Shutdown => "server.verb_ns.shutdown",
            Verb::Chaos => "server.verb_ns.chaos",
            Verb::Reload => "server.verb_ns.reload",
        }
    }

    pub fn parse(s: &str) -> Option<Verb> {
        Some(match s {
            "query" => Verb::Query,
            "explain" => Verb::Explain,
            "analyze" => Verb::Analyze,
            "stats" => Verb::Stats,
            "health" => Verb::Health,
            "slowlog" => Verb::Slowlog,
            "cancel" => Verb::Cancel,
            "shutdown" => Verb::Shutdown,
            "chaos" => Verb::Chaos,
            "reload" => Verb::Reload,
            _ => return None,
        })
    }
}

/// Stable error tags carried on `err` responses. Clients branch on the
/// tag, never on message text; [`ErrorKind::is_retryable`] encodes the
/// back-off contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    // Engine lifecycle kinds (mirror `ppf_core::QueryError::kind`).
    Parse,
    Translate,
    Plan,
    Exec,
    Limit,
    Cancelled,
    // Server-side kinds.
    /// Admission refused the request (in-flight cap, queue full/timeout,
    /// or the per-connection cap). Back off exponentially and retry.
    Overload,
    /// The request frame or header was malformed.
    Proto,
    /// The server is draining; it will accept no further work.
    Shutdown,
    /// The verb exists but this build does not support it (e.g. `chaos`
    /// without the feature).
    Unsupported,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Translate => "translate",
            ErrorKind::Plan => "plan",
            ErrorKind::Exec => "exec",
            ErrorKind::Limit => "limit",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::Overload => "overload",
            ErrorKind::Proto => "proto",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::Unsupported => "unsupported",
        }
    }

    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse" => ErrorKind::Parse,
            "translate" => ErrorKind::Translate,
            "plan" => ErrorKind::Plan,
            "exec" => ErrorKind::Exec,
            "limit" => ErrorKind::Limit,
            "cancelled" => ErrorKind::Cancelled,
            "overload" => ErrorKind::Overload,
            "proto" => ErrorKind::Proto,
            "shutdown" => ErrorKind::Shutdown,
            "unsupported" => ErrorKind::Unsupported,
            _ => return None,
        })
    }

    /// Whether a client should retry the same request after backing off.
    /// Only transient conditions qualify: overload clears as in-flight
    /// work drains. Everything else is either permanent for that input
    /// (parse/translate/plan), a per-query outcome (exec/limit/cancelled),
    /// or terminal for the server (shutdown).
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorKind::Overload)
    }

    /// Map an engine error's `kind()` tag onto the wire kind.
    pub fn from_engine_kind(kind: &str) -> ErrorKind {
        match kind {
            "parse" => ErrorKind::Parse,
            "translate" => ErrorKind::Translate,
            "plan" => ErrorKind::Plan,
            "limit" => ErrorKind::Limit,
            "cancelled" => ErrorKind::Cancelled,
            _ => ErrorKind::Exec,
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub verb: Verb,
    /// `key=value` options from the header line (e.g. `timeout=250`).
    pub options: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    /// First `timeout=MS` option, if present and well-formed.
    pub fn timeout_ms(&self) -> Option<u64> {
        self.option("timeout")
    }

    /// First `maxrows=N` option, if present and well-formed.
    pub fn max_rows(&self) -> Option<u64> {
        self.option("maxrows")
    }

    fn option(&self, key: &str) -> Option<u64> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }
}

/// Parse a request payload. Errors are human messages the server wraps
/// in an `err proto` response.
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let (header, body) = match payload.split_once('\n') {
        Some((h, b)) => (h, b),
        None => (payload, ""),
    };
    let mut parts = header.split_whitespace();
    let id = parts.next().ok_or("empty request header")?.to_string();
    let verb_str = parts.next().ok_or("request header is missing a verb")?;
    let verb = Verb::parse(verb_str).ok_or_else(|| format!("unknown verb {verb_str:?}"))?;
    let mut options = Vec::new();
    for opt in parts {
        let (k, v) = opt
            .split_once('=')
            .ok_or_else(|| format!("malformed option {opt:?} (want key=value)"))?;
        options.push((k.to_string(), v.to_string()));
    }
    Ok(Request {
        id,
        verb,
        options,
        body: body.to_string(),
    })
}

/// Render a request payload (the client side of [`parse_request`]).
pub fn render_request(id: &str, verb: Verb, options: &[(&str, &str)], body: &str) -> String {
    let mut out = String::new();
    out.push_str(id);
    out.push(' ');
    out.push_str(verb.as_str());
    for (k, v) in options {
        out.push(' ');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('\n');
    out.push_str(body);
    out
}

/// A parsed server response.
#[derive(Debug, Clone)]
pub struct Response {
    pub id: String,
    pub result: Result<String, (ErrorKind, String)>,
    /// `key=value` meta tokens from the header line. Today: `version=N`,
    /// the engine-snapshot stamp on query and reload responses. Meta
    /// lives in the header so body formats never change shape; unknown
    /// keys are carried through and ignored by old clients.
    pub meta: Vec<(String, String)>,
}

impl Response {
    pub fn ok(id: &str, body: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            result: Ok(body.into()),
            meta: Vec::new(),
        }
    }

    pub fn err(id: &str, kind: ErrorKind, message: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            result: Err((kind, message.into())),
            meta: Vec::new(),
        }
    }

    /// Attach a header meta token (builder style).
    pub fn with_meta(mut self, key: &str, value: impl std::fmt::Display) -> Response {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Stamp the snapshot version this response was answered from.
    pub fn with_version(self, version: u64) -> Response {
        self.with_meta("version", version)
    }

    /// The `version=N` meta token, if present and well-formed.
    pub fn version(&self) -> Option<u64> {
        self.meta
            .iter()
            .find(|(k, _)| k == "version")
            .and_then(|(_, v)| v.parse().ok())
    }

    pub fn render(&self) -> String {
        let mut header = match &self.result {
            Ok(_) => format!("{} ok", self.id),
            Err((kind, _)) => format!("{} err {}", self.id, kind.as_str()),
        };
        for (k, v) in &self.meta {
            header.push(' ');
            header.push_str(k);
            header.push('=');
            header.push_str(v);
        }
        match &self.result {
            Ok(body) => format!("{header}\n{body}"),
            Err((_, msg)) => format!("{header}\n{msg}"),
        }
    }
}

/// Parse a response payload. Errors mean the server broke the protocol
/// (or the connection was cut mid-frame — chaos `drop` faults do this on
/// purpose). Header tokens after the status that look like `key=value`
/// are collected as meta; anything else is ignored for forward
/// compatibility.
pub fn parse_response(payload: &str) -> Result<Response, String> {
    let (header, body) = match payload.split_once('\n') {
        Some((h, b)) => (h, b),
        None => (payload, ""),
    };
    let mut parts = header.split_whitespace();
    let id = parts.next().ok_or("empty response header")?.to_string();
    let collect_meta = |parts: std::str::SplitWhitespace<'_>| -> Vec<(String, String)> {
        parts
            .filter_map(|tok| tok.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    match parts.next() {
        Some("ok") => Ok(Response {
            id,
            result: Ok(body.to_string()),
            meta: collect_meta(parts),
        }),
        Some("err") => {
            let kind_str = parts.next().ok_or("err response is missing a kind")?;
            let kind = ErrorKind::parse(kind_str)
                .ok_or_else(|| format!("unknown error kind {kind_str:?}"))?;
            Ok(Response {
                id,
                result: Err((kind, body.to_string())),
                meta: collect_meta(parts),
            })
        }
        other => Err(format!("bad response status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello\nworld"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut r = BufReader::new(&b"10\nshort"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new(&b"99999999999\nx"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new(&b"not-a-number\nx"[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn request_roundtrip_with_options() {
        let payload = render_request(
            "q1",
            Verb::Query,
            &[("timeout", "250"), ("maxrows", "1000")],
            "//keyword",
        );
        let req = parse_request(&payload).unwrap();
        assert_eq!(req.id, "q1");
        assert_eq!(req.verb, Verb::Query);
        assert_eq!(req.timeout_ms(), Some(250));
        assert_eq!(req.max_rows(), Some(1000));
        assert_eq!(req.body, "//keyword");
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("id-only").is_err());
        assert!(parse_request("id frobnicate").is_err());
        assert!(parse_request("id query notkv\nbody").is_err());
    }

    #[test]
    fn response_roundtrip_both_arms() {
        let ok = Response::ok("a", "rows 2\n1\n2");
        let parsed = parse_response(&ok.render()).unwrap();
        assert_eq!(parsed.id, "a");
        assert_eq!(parsed.result.unwrap(), "rows 2\n1\n2");

        let err = Response::err("b", ErrorKind::Overload, "shed: queue full");
        let parsed = parse_response(&err.render()).unwrap();
        let (kind, msg) = parsed.result.unwrap_err();
        assert_eq!(kind, ErrorKind::Overload);
        assert_eq!(msg, "shed: queue full");
    }

    #[test]
    fn version_meta_rides_the_header_not_the_body() {
        let r = Response::ok("q7", "rows 2\n1\n2").with_version(3);
        let rendered = r.render();
        assert!(rendered.starts_with("q7 ok version=3\n"));
        let parsed = parse_response(&rendered).unwrap();
        assert_eq!(parsed.version(), Some(3));
        assert_eq!(parsed.result.unwrap(), "rows 2\n1\n2", "body unchanged");

        // Err responses carry meta the same way.
        let e = Response::err("q8", ErrorKind::Shutdown, "draining").with_version(5);
        let parsed = parse_response(&e.render()).unwrap();
        assert_eq!(parsed.version(), Some(5));
        assert_eq!(parsed.result.unwrap_err().0, ErrorKind::Shutdown);

        // Plain responses have no version; unknown meta keys are kept.
        let parsed = parse_response("q9 ok trace=abc\nrows 0\n").unwrap();
        assert_eq!(parsed.version(), None);
        assert_eq!(parsed.meta, vec![("trace".to_string(), "abc".to_string())]);
    }

    #[test]
    fn every_verb_roundtrips() {
        let verbs = [
            Verb::Query,
            Verb::Explain,
            Verb::Analyze,
            Verb::Stats,
            Verb::Health,
            Verb::Slowlog,
            Verb::Cancel,
            Verb::Shutdown,
            Verb::Chaos,
            Verb::Reload,
        ];
        for v in verbs {
            assert_eq!(Verb::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verb::parse("frobnicate"), None);
    }

    #[test]
    fn every_kind_roundtrips_and_only_overload_retries() {
        let kinds = [
            ErrorKind::Parse,
            ErrorKind::Translate,
            ErrorKind::Plan,
            ErrorKind::Exec,
            ErrorKind::Limit,
            ErrorKind::Cancelled,
            ErrorKind::Overload,
            ErrorKind::Proto,
            ErrorKind::Shutdown,
            ErrorKind::Unsupported,
        ];
        for k in kinds {
            assert_eq!(ErrorKind::parse(k.as_str()), Some(k));
            assert_eq!(k.is_retryable(), k == ErrorKind::Overload);
        }
    }
}
