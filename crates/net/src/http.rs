//! A minimal, hardened HTTP/1.1 codec over `BufRead`/`Write`.
//!
//! Scope is deliberately narrow — exactly what the wire protocol needs:
//!
//! * request line + headers + `Content-Length`-delimited bodies;
//! * hard limits on request-line length, header count/bytes, and body size
//!   (violations map to specific 4xx statuses, never a panic);
//! * keep-alive with pipelining (the parser consumes exactly one request's
//!   bytes, so back-to-back requests in one TCP segment parse cleanly);
//! * no chunked transfer coding (a bounded protocol wants bounded bodies;
//!   `Transfer-Encoding` is answered with 501).
//!
//! The codec is symmetric enough to test round-trip: [`Request::serialize`]
//! produces bytes [`parse_request`] parses back verbatim, which is what the
//! property tests in `tests/http_codec.rs` exercise.

use std::fmt;
use std::io::{BufRead, Write};

/// Parser limits. Every limit violation maps to a 4xx/5xx status via
/// [`HttpError::status`]; none of them kill the process.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum request-line bytes (method + target + version).
    pub max_request_line: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum bytes in any single header line.
    pub max_header_line: usize,
    /// Maximum request body bytes.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

/// An HTTP method the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    Delete,
    Head,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }

    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: Method,
    /// Path component of the target (no query string).
    pub path: String,
    /// Query string (without the `?`; empty if absent).
    pub query: String,
    /// Header fields in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`; inverted for 1.0).
    pub keep_alive: bool,
}

impl Request {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Serializes the request to raw HTTP/1.1 bytes (client side + codec
    /// round-trip tests). Adds `Content-Length`; callers must not include
    /// their own.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{} {}", self.method, self.path);
        if !self.query.is_empty() {
            let _ = write!(out, "?{}", self.query);
        }
        out.extend_from_slice(b" HTTP/1.1\r\n");
        for (k, v) in &self.headers {
            let _ = write!(out, "{k}: {v}\r\n");
        }
        if !self.body.is_empty() || self.method == Method::Post {
            let _ = write!(out, "content-length: {}\r\n", self.body.len());
        }
        if !self.keep_alive {
            out.extend_from_slice(b"connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Structurally invalid request (bad request line, bad header, bad
    /// `Content-Length`) — 400.
    BadRequest(String),
    /// Request line exceeded `max_request_line` — 414.
    UriTooLong,
    /// Too many headers or an oversized header line — 431.
    HeadersTooLarge,
    /// `Content-Length` exceeded `max_body` — 413.
    BodyTooLarge,
    /// A body-bearing method arrived without `Content-Length` — 411.
    LengthRequired,
    /// The request used a feature the server does not implement (chunked
    /// transfer coding, an unknown method) — 501.
    NotImplemented(String),
    /// The underlying transport failed or timed out; no response can be
    /// written, the connection just closes.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this error answers with (`None`: connection-level
    /// failure, nothing to send).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::UriTooLong => Some(414),
            HttpError::HeadersTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::LengthRequired => Some(411),
            HttpError::NotImplemented(_) => Some(501),
            HttpError::Io(_) => None,
        }
    }

    /// Human-readable cause, used in error response bodies.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => format!("bad request: {m}"),
            HttpError::UriTooLong => "request line too long".to_string(),
            HttpError::HeadersTooLarge => "headers too large".to_string(),
            HttpError::BodyTooLarge => "request body too large".to_string(),
            HttpError::LengthRequired => "content-length required".to_string(),
            HttpError::NotImplemented(m) => format!("not implemented: {m}"),
            HttpError::Io(e) => format!("i/o: {e}"),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message())
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// What one parse attempt produced.
#[derive(Debug)]
pub enum ParseOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection cleanly before sending any byte
    /// (normal end of a keep-alive session).
    Closed,
}

/// Reads one line (up to and including `\n`), erroring via `over_limit` if
/// it exceeds `max` bytes. Returns `None` on clean EOF before any byte.
fn read_line_limited(
    reader: &mut dyn BufRead,
    max: usize,
    over_limit: fn() -> HttpError,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line = Vec::with_capacity(64);
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::BadRequest("connection closed mid-line".to_string()))
            };
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (&buf[..=i], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > max {
            // Drain what we can attribute to this line, then fail.
            let take = chunk.len();
            reader.consume(take);
            return Err(over_limit());
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if done {
            return Ok(Some(line));
        }
    }
}

fn trim_crlf(mut line: Vec<u8>) -> Vec<u8> {
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    line
}

/// Header fields in arrival order, names lowercased.
type Headers = Vec<(String, String)>;

/// First header named `name` (lowercase).
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

/// Reads a message's header block and its `Content-Length` body, the part
/// requests and responses share: at most `max_headers` fields, each a
/// well-formed `name: value`, no transfer coding, a body within `max_body`.
/// The body is `None` when there is no `Content-Length`.
fn read_head(
    reader: &mut dyn BufRead,
    limits: &HttpLimits,
) -> Result<(Headers, Option<Vec<u8>>), HttpError> {
    let mut headers = Headers::new();
    loop {
        let line =
            read_line_limited(reader, limits.max_header_line, || HttpError::HeadersTooLarge)?
                .ok_or_else(|| HttpError::BadRequest("eof in headers".to_string()))?;
        let line = trim_crlf(line);
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let line = String::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not utf-8".to_string()))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!("invalid header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if header(&headers, "transfer-encoding").is_some() {
        return Err(HttpError::NotImplemented("transfer-encoding".to_string()));
    }

    let Some(v) = header(&headers, "content-length") else {
        return Ok((headers, None));
    };
    let len: usize =
        v.trim().parse().map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?;
    if len > limits.max_body {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::BadRequest("body shorter than content-length".to_string())
        } else {
            HttpError::Io(e)
        }
    })?;
    Ok((headers, Some(body)))
}

/// Parses exactly one request from `reader`, enforcing `limits`. Consumes
/// no bytes beyond the request's body, so pipelined requests parse one
/// after another off the same reader.
pub fn parse_request(
    reader: &mut dyn BufRead,
    limits: &HttpLimits,
) -> Result<ParseOutcome, HttpError> {
    // --- request line ---
    let line = match read_line_limited(reader, limits.max_request_line, || HttpError::UriTooLong)? {
        Some(line) => trim_crlf(line),
        None => return Ok(ParseOutcome::Closed),
    };
    let line = String::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request line is not utf-8".to_string()))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line {line:?}"))),
    };
    let method = Method::parse(method)
        .ok_or_else(|| HttpError::NotImplemented(format!("method {method:?}")))?;
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::BadRequest(format!("unsupported version {other:?}"))),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(format!("target {path:?} is not absolute")));
    }

    let (headers, body) = read_head(reader, limits)?;
    let body = match body {
        Some(body) => body,
        None if method == Method::Post => return Err(HttpError::LengthRequired),
        None => Vec::new(),
    };

    let keep_alive = match header(&headers, "connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => http11,
    };

    Ok(ParseOutcome::Request(Request { method, path, query, headers, body, keep_alive }))
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Ask the peer to close after this response (`Connection: close`).
    pub close: bool,
}

impl Response {
    pub fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body: body.into_bytes(), close: false }
    }

    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// Serializes status line, headers, and body.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_into(&mut out);
        out
    }

    /// [`Response::serialize`], appended to `out` (a connection reuses one
    /// buffer for every response of its session).
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(128 + self.body.len());
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        if self.close {
            out.extend_from_slice(b"connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Serializes and writes the response.
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        w.write_all(&self.serialize())?;
        w.flush()
    }
}

/// Standard reason phrase for the statuses the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A parsed response: status, headers, body.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Parses one response off a reader (client side: every `HttpClient` read)
/// under a request's header and body rules. A response without
/// `Content-Length` has an empty body.
pub fn parse_response(
    reader: &mut dyn BufRead,
    limits: &HttpLimits,
) -> Result<RawResponse, HttpError> {
    let line = read_line_limited(reader, limits.max_request_line, || HttpError::UriTooLong)?
        .ok_or_else(|| HttpError::BadRequest("eof before status line".to_string()))?;
    let line = String::from_utf8(trim_crlf(line))
        .map_err(|_| HttpError::BadRequest("status line is not utf-8".to_string()))?;
    let mut parts = line.splitn(3, ' ');
    let _version = parts.next();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::BadRequest(format!("bad status line {line:?}")))?;
    let (headers, body) = read_head(reader, limits)?;
    let body = body.unwrap_or_default();
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<ParseOutcome, HttpError> {
        let mut reader = BufReader::new(bytes);
        parse_request(&mut reader, &HttpLimits::default())
    }

    fn parse_ok(bytes: &[u8]) -> Request {
        match parse(bytes).expect("parse") {
            ParseOutcome::Request(r) => r,
            ParseOutcome::Closed => panic!("unexpected close"),
        }
    }

    #[test]
    fn parses_get_with_query_and_keepalive_default() {
        let r = parse_ok(b"GET /rulesets?limit=10 HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/rulesets");
        assert_eq!(r.query, "limit=10");
        assert!(r.keep_alive);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_exactly() {
        let r = parse_ok(b"POST /classify HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let bytes =
            b"POST /classify HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /health HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&bytes[..]);
        let limits = HttpLimits::default();
        let first = match parse_request(&mut reader, &limits).unwrap() {
            ParseOutcome::Request(r) => r,
            _ => panic!(),
        };
        assert_eq!(first.body, b"hi");
        let second = match parse_request(&mut reader, &limits).unwrap() {
            ParseOutcome::Request(r) => r,
            _ => panic!(),
        };
        assert_eq!(second.path, "/health");
        assert!(matches!(parse_request(&mut reader, &limits).unwrap(), ParseOutcome::Closed));
    }

    #[test]
    fn missing_content_length_on_post_is_411() {
        let err = parse(b"POST /classify HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(411));
    }

    #[test]
    fn oversized_body_is_413_and_chunked_is_501() {
        let limits = HttpLimits { max_body: 8, ..Default::default() };
        let mut reader =
            BufReader::new(&b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n123456789"[..]);
        let err = parse_request(&mut reader, &limits).unwrap_err();
        assert_eq!(err.status(), Some(413));

        let err =
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\ncontent-length: 2\r\n\r\nhi")
                .unwrap_err();
        assert_eq!(err.status(), Some(501));
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive);
        let r = parse_ok(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive);
        let r = parse_ok(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(!r.keep_alive);
    }

    #[test]
    fn response_serializes_with_length_and_reason() {
        let resp = Response::json(503, "{\"error\":\"overloaded\"}".to_string());
        let bytes = resp.serialize();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("content-length: 22\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"overloaded\"}"), "{text}");
    }

    #[test]
    fn response_round_trips_through_parse_response() {
        let resp = Response::text(200, "hello metrics\n".to_string());
        let bytes = resp.serialize();
        let mut reader = BufReader::new(&bytes[..]);
        let (status, headers, body) = parse_response(&mut reader, &HttpLimits::default()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hello metrics\n");
        assert!(headers.iter().any(|(k, _)| k == "content-type"));
    }

    fn parse_response_bytes(bytes: &[u8]) -> Result<RawResponse, HttpError> {
        parse_response(&mut BufReader::new(bytes), &HttpLimits::default())
    }

    #[test]
    fn response_headers_are_bounded_and_well_formed() {
        let limits = HttpLimits::default();
        let head = |n: usize| {
            let mut bytes = b"HTTP/1.1 200 OK\r\n".to_vec();
            for i in 0..n {
                bytes.extend_from_slice(format!("x-filler-{i}: {i}\r\n").as_bytes());
            }
            bytes.extend_from_slice(b"content-length: 2\r\n\r\nok");
            bytes
        };
        let (_, headers, body) = parse_response_bytes(&head(limits.max_headers - 1)).unwrap();
        assert_eq!((headers.len(), body.as_slice()), (limits.max_headers, &b"ok"[..]));
        let err = parse_response_bytes(&head(limits.max_headers)).unwrap_err();
        assert_eq!(err.status(), Some(431), "{err}");

        let err = parse_response_bytes(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), Some(400), "{err}");
    }

    #[test]
    fn chunked_response_is_501_not_an_empty_body() {
        let bytes = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n";
        let err = parse_response_bytes(bytes).unwrap_err();
        assert_eq!(err.status(), Some(501), "{err}");

        // No `Content-Length` and no transfer coding: an empty body.
        let (status, _, body) = parse_response_bytes(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert_eq!((status, body.len()), (204, 0));
    }
}
