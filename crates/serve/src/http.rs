//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`]: just
//! enough protocol for the campaign API — request parsing with a bounded
//! head and body, plain responses, and chunked transfer encoding for row
//! streams.
//!
//! The workspace vendors no HTTP crate, and the API needs exactly four
//! verbs worth of surface, so the layer is hand-rolled and std-only.
//!
//! # Hostile-client posture
//!
//! Parsing never trusts the peer: the request line and every header line
//! are read through `read_line_bounded`, which buffers at most the
//! head budget no matter how many bytes arrive without a newline, and the
//! whole request is subject to a wall-clock [`ReadLimits::deadline`] — a
//! client trickling one byte per socket-timeout interval (slow loris)
//! exhausts the deadline, not a worker thread. Failures carry a typed
//! [`HttpError`] so the server can answer `400`/`408`/`413`/`431` with a
//! JSON body instead of silently dropping the connection.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default upper bound on a request head (start line + headers) in bytes.
pub const MAX_HEAD: usize = 16 * 1024;
/// Default upper bound on a request body in bytes — campaign specs are
/// small.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be read — each protocol-level variant maps to
/// the HTTP status the server should answer with; [`HttpError::Io`] means
/// the transport itself died and no response can be delivered.
#[derive(Debug)]
pub enum HttpError {
    /// The request violates the grammar (→ `400 Bad Request`).
    Malformed(String),
    /// The start line + headers exceed the head budget
    /// (→ `431 Request Header Fields Too Large`).
    HeadTooLarge,
    /// `Content-Length` exceeds the body budget
    /// (→ `413 Content Too Large`).
    BodyTooLarge(usize),
    /// The client was too slow delivering the request — a socket read
    /// timed out or the per-request deadline lapsed
    /// (→ `408 Request Timeout`).
    Timeout,
    /// The connection itself failed; there is nobody to answer.
    Io(io::Error),
}

impl HttpError {
    /// The `(status, reason, message)` the server should answer with, or
    /// `None` when the transport is dead.
    pub fn response(&self) -> Option<(u16, &'static str, String)> {
        match self {
            HttpError::Malformed(m) => Some((400, "Bad Request", m.clone())),
            HttpError::HeadTooLarge => Some((
                431,
                "Request Header Fields Too Large",
                "request head exceeds the configured budget".to_string(),
            )),
            HttpError::BodyTooLarge(n) => Some((
                413,
                "Content Too Large",
                format!("body of {n} bytes exceeds the configured budget"),
            )),
            HttpError::Timeout => Some((
                408,
                "Request Timeout",
                "client was too slow delivering the request".to_string(),
            )),
            HttpError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => f.write_str("request head too large"),
            HttpError::BodyTooLarge(n) => write!(f, "request body of {n} bytes too large"),
            HttpError::Timeout => f.write_str("request read timed out"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Maps a transport error: socket-timeout kinds become [`HttpError::Timeout`]
/// (answerable), everything else is a dead connection.
fn classify(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Budgets applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct ReadLimits {
    /// Byte budget for the start line + headers.
    pub max_head: usize,
    /// Byte budget for the body (`Content-Length` is rejected above it).
    pub max_body: usize,
    /// Wall-clock budget for the entire request — the slow-loris guard.
    /// `None` disables it (trusted in-process callers only).
    pub deadline: Option<Duration>,
}

impl Default for ReadLimits {
    fn default() -> Self {
        ReadLimits {
            max_head: MAX_HEAD,
            max_body: MAX_BODY,
            deadline: None,
        }
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/campaigns/abc`).
    pub path: String,
    /// The raw query string after `?`, empty when absent.
    pub query: String,
    /// Header map with lower-cased names.
    headers: HashMap<String, String>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Reads one request from `reader` under `limits`.
    ///
    /// # Errors
    ///
    /// `Ok(None)` on a cleanly closed connection (EOF before any bytes);
    /// a typed [`HttpError`] on malformed, oversized, or too-slow
    /// requests, and on transport failures.
    pub fn read<R: BufRead>(
        reader: &mut R,
        limits: &ReadLimits,
    ) -> Result<Option<Request>, HttpError> {
        let deadline = limits.deadline.map(|d| Instant::now() + d);
        let start = match read_line_bounded(reader, limits.max_head, deadline)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => return Ok(None),
            Some(line) => line,
        };
        let mut parts = start.split_whitespace();
        let (method, target) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1") => (m, t),
            _ => {
                return Err(HttpError::Malformed(format!(
                    "malformed request line {start:?}"
                )))
            }
        };
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let mut headers = HashMap::new();
        let mut head_bytes = start.len();
        loop {
            let budget = limits.max_head.saturating_sub(head_bytes);
            let line = read_line_bounded(reader, budget, deadline)?
                .ok_or_else(|| HttpError::Malformed("EOF inside headers".into()))?;
            if line.is_empty() {
                break;
            }
            head_bytes += line.len();
            if head_bytes > limits.max_head {
                return Err(HttpError::HeadTooLarge);
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("malformed header line {line:?}")))?;
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }

        let length: usize = match headers.get("content-length") {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        };
        if length > limits.max_body {
            return Err(HttpError::BodyTooLarge(length));
        }
        let mut body = vec![0; length];
        read_exact_deadline(reader, &mut body, deadline)?;

        Ok(Some(Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body,
        }))
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The value of one `key=value` pair in the query string, if present
    /// (no percent-decoding — the API's tokens don't need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, buffering at most
/// `limit` bytes of line content and re-checking `deadline` every time
/// the transport hands over bytes — a trickling client burns its deadline,
/// not unbounded memory or time. `Ok(None)` at EOF before any byte.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    limit: usize,
    deadline: Option<Instant>,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HttpError::Timeout);
        }
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(classify(e)),
        };
        if available.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Malformed("EOF inside line".into()))
            };
        }
        // Never buffer more than one byte past the budget: that one byte
        // is how "the line continues past the limit" is detected.
        let take = available.len().min(limit + 1 - line.len());
        match available[..take].iter().position(|&b| b == b'\n') {
            Some(i) => {
                line.extend_from_slice(&available[..i]);
                reader.consume(i + 1);
                if line.len() > limit {
                    return Err(HttpError::HeadTooLarge);
                }
                while line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| HttpError::Malformed("line is not UTF-8".into()));
            }
            None => {
                line.extend_from_slice(&available[..take]);
                reader.consume(take);
                if line.len() > limit {
                    return Err(HttpError::HeadTooLarge);
                }
            }
        }
    }
}

/// Fills `buf` completely, re-checking `deadline` between transport reads.
fn read_exact_deadline<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> Result<(), HttpError> {
    let mut filled = 0;
    while filled < buf.len() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HttpError::Timeout);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(HttpError::Malformed("EOF inside body".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(classify(e)),
        }
    }
    Ok(())
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Client-side line read: bounded like the server's but surfaced as a
/// plain I/O error (the client retries, it doesn't answer with a status).
fn client_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    match read_line_bounded(reader, MAX_HEAD, None) {
        Ok(line) => Ok(line),
        Err(HttpError::Io(e)) => Err(e),
        Err(e) => Err(bad(e.to_string())),
    }
}

/// Writes a complete (non-chunked) response.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body)?;
    stream.flush()
}

/// A chunked-transfer response body: `start`, any number of `chunk`s,
/// then `finish` (the zero-length terminator).
pub struct ChunkedBody<'a, W: Write> {
    stream: &'a mut W,
}

impl<'a, W: Write> ChunkedBody<'a, W> {
    /// Writes the response head and opens the chunked body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start(
        stream: &'a mut W,
        content_type: &str,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<ChunkedBody<'a, W>> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n"
        )?;
        for (name, value) in extra_headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        stream.write_all(b"\r\n")?;
        stream.flush()?;
        Ok(ChunkedBody { stream })
    }

    /// Writes one chunk (empty input writes nothing — an empty chunk
    /// would terminate the body).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed client-side response — the test/CI helper's view.
#[derive(Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Header map with lower-cased names.
    pub headers: HashMap<String, String>,
    /// The body, de-chunked when the response used chunked transfer.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }
}

/// Reads a status line + headers from `reader`.
pub(crate) fn read_response_head<R: BufRead>(
    reader: &mut R,
) -> io::Result<(u16, HashMap<String, String>)> {
    let status_line = client_line(reader)?.ok_or_else(|| bad("no status line".into()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
    let mut headers = HashMap::new();
    loop {
        let line = client_line(reader)?.ok_or_else(|| bad("EOF inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((status, headers))
}

/// Minimal HTTP client for tests and smoke scripts: sends one request to
/// `addr` and reads the full (de-chunked) response.
///
/// # Errors
///
/// Propagates connection and protocol errors.
pub fn client_request(addr: &str, method: &str, target: &str, body: &[u8]) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    write!(
        writer,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body)?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;

    let mut body = Vec::new();
    if headers.get("transfer-encoding").map(String::as_str) == Some("chunked") {
        loop {
            let size_line =
                client_line(&mut reader)?.ok_or_else(|| bad("EOF in chunk size".into()))?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                // Trailer section (we send none) ends with a blank line.
                let _ = client_line(&mut reader)?;
                break;
            }
            let mut chunk = vec![0; size];
            reader.read_exact(&mut chunk)?;
            body.extend_from_slice(&chunk);
            let mut crlf = [0; 2];
            reader.read_exact(&mut crlf)?;
        }
    } else if let Some(length) = headers.get("content-length") {
        let length: usize = length
            .parse()
            .map_err(|_| bad(format!("bad Content-Length {length:?}")))?;
        body = vec![0; length];
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }

    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str, limits: &ReadLimits) -> Result<Option<Request>, HttpError> {
        Request::read(&mut Cursor::new(raw.as_bytes().to_vec()), limits)
    }

    #[test]
    fn parses_a_well_formed_request() {
        let req = parse(
            "POST /campaigns?sink=jsonl HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
            &ReadLimits::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.query_param("sink"), Some("jsonl"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn bare_lf_lines_parse_too() {
        let req = parse("GET /healthz HTTP/1.1\nHost: x\n\n", &ReadLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("", &ReadLimits::default()).unwrap().is_none());
    }

    #[test]
    fn garbage_request_lines_are_malformed() {
        for raw in ["BLARG\r\n\r\n", "GET /\r\n\r\n", "GET / SMTP/1.0\r\n\r\n"] {
            let err = parse(raw, &ReadLimits::default()).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "{raw:?}: {err}");
            assert_eq!(err.response().unwrap().0, 400);
        }
    }

    #[test]
    fn oversized_request_lines_are_431_without_unbounded_buffering() {
        let limits = ReadLimits {
            max_head: 64,
            ..ReadLimits::default()
        };
        // No newline at all: the reader must give up after the budget,
        // not buffer the whole stream.
        let raw = format!("GET /{} HTTP/1.1", "a".repeat(1024 * 1024));
        let err = parse(&raw, &limits).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge), "{err}");
        assert_eq!(err.response().unwrap().0, 431);
    }

    #[test]
    fn oversized_header_blocks_are_431() {
        let limits = ReadLimits {
            max_head: 128,
            ..ReadLimits::default()
        };
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(512));
        let err = parse(&raw, &limits).unwrap_err();
        assert!(matches!(err, HttpError::HeadTooLarge), "{err}");
    }

    #[test]
    fn oversized_declared_bodies_are_413_before_any_body_read() {
        let limits = ReadLimits {
            max_body: 16,
            ..ReadLimits::default()
        };
        let err = parse(
            "POST /campaigns HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            &limits,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(999999)), "{err}");
        assert_eq!(err.response().unwrap().0, 413);
    }

    #[test]
    fn truncated_bodies_and_heads_are_malformed() {
        let err = parse(
            "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            &ReadLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        let err = parse("GET / HTTP/1.1\r\nHost: x", &ReadLimits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn non_utf8_lines_are_malformed() {
        let mut raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec();
        let err = Request::read(
            &mut Cursor::new(std::mem::take(&mut raw)),
            &ReadLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn an_expired_deadline_times_the_request_out() {
        let limits = ReadLimits {
            deadline: Some(Duration::ZERO),
            ..ReadLimits::default()
        };
        let err = parse("GET / HTTP/1.1\r\n\r\n", &limits).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        assert_eq!(err.response().unwrap().0, 408);
    }

    #[test]
    fn chunked_bodies_round_trip_through_a_buffer() {
        let mut out: Vec<u8> = Vec::new();
        let mut body = ChunkedBody::start(&mut out, "text/plain", &[("X-Tag", "t")]).unwrap();
        body.chunk(b"hello ").unwrap();
        body.chunk(b"").unwrap(); // no-op, must not terminate
        body.chunk(b"world").unwrap();
        body.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("X-Tag: t\r\n"));
        assert!(text.contains("6\r\nhello \r\n"));
        assert!(text.contains("5\r\nworld\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    mod parse_props {
        use super::super::*;
        use proptest::prelude::*;
        use std::io::Cursor;

        /// Raw request material: arbitrary bytes, or a well-formed head
        /// with bytes spliced into it, so the deeper states of the parser
        /// (headers, Content-Length, body) see hostile input too.
        fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
            (
                any::<bool>(),
                prop::collection::vec(any::<u8>(), 0..300),
                any::<usize>(),
                0usize..40,
            )
                .prop_map(|(structured, noise, at, body)| {
                    if !structured {
                        return noise;
                    }
                    let mut raw = format!(
                        "POST /campaigns?sink=jsonl HTTP/1.1\r\nHost: x\r\nContent-Length: {body}\r\n\r\n"
                    )
                    .into_bytes();
                    raw.extend(std::iter::repeat_n(b'{', body));
                    let at = at % (raw.len() + 1);
                    raw.splice(at..at, noise);
                    raw
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// Arbitrary bytes never panic the request parser under
            /// default or tight budgets: they give a typed error, a clean
            /// EOF (`None`), or a request that honours the budgets.
            #[test]
            fn arbitrary_bytes_never_panic_the_request_parser(
                raw in request_bytes(),
                tight in any::<bool>(),
                max_head in 1usize..128,
                max_body in 0usize..32,
            ) {
                let limits = if tight {
                    ReadLimits { max_head, max_body, deadline: None }
                } else {
                    ReadLimits::default()
                };
                match Request::read(&mut Cursor::new(raw.clone()), &limits) {
                    Ok(Some(req)) => {
                        prop_assert!(req.body.len() <= limits.max_body, "{:?}", req);
                        prop_assert!(!req.method.is_empty(), "{:?}", req);
                        prop_assert!(raw.len() > req.body.len(), "{:?}", req);
                    }
                    Ok(None) => {
                        prop_assert!(
                            raw.is_empty() || raw[0] == b'\n' || raw.starts_with(b"\r"),
                            "only an empty first line ends cleanly: {:?}", raw
                        );
                    }
                    Err(e) => prop_assert!(e.response().is_some(), "{}", e),
                }
            }
        }
    }
}
