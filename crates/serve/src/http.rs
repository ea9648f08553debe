//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! Just enough of RFC 9112 for the service and its fleet workers: one
//! bounded head reader (start line + headers with hard size limits and
//! strict `Content-Length` rules) under both [`read_request`]
//! (`Content-Length` bodies only, no request chunked encoding) and
//! [`read_response`] (`Content-Length` or chunked bodies, capped before
//! anything is allocated), keep-alive bookkeeping, and two
//! response shapes — fixed-length JSON and `Transfer-Encoding: chunked`
//! for streams whose length is unknown up front (the NDJSON row
//! streams).
//!
//! Everything here is transport; routing and semantics live in the
//! crate's `api` module.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on the start line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;

/// The body cap the platform's HTTP clients pass to [`read_response`].
///
/// The largest response the service sends such a client is a fleet
/// claim: up to `MAX_TASKS` (1 M) task indices, at
/// most 7 bytes each with their comma (7 MB), plus the job's normalized
/// request document. That document lists each axis value of a request
/// body the coordinator accepted under its `--max-body` cap (1 MiB by
/// default); the widest value renders 47 times longer than it was sent
/// (`5e-324,` becomes a 327-byte decimal), so at the default cap the
/// whole claim stays under 54 MiB. A coordinator run with a far larger
/// `--max-body` can accept a request whose claim exceeds this; a worker
/// then refuses the claim as a transport error rather than allocate
/// without bound.
pub const MAX_RESPONSE_BODY: usize = 64 << 20;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub(crate) method: String,
    /// The path part of the target, query string removed.
    pub(crate) path: String,
    /// Query parameters in order of appearance (no percent-decoding —
    /// the API's values are plain integers and hex ids).
    pub(crate) query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order.
    pub(crate) headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub(crate) keep_alive: bool,
}

impl Request {
    /// The first value of a (lower-case) header name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The first value of a query parameter.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The three-digit status code.
    pub status: u16,
    /// Headers with lower-cased names, in order.
    pub headers: Vec<(String, String)>,
    /// The body, de-chunked.
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of a (lower-case) header name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

fn find_header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not a well-formed message (respond 400, close).
    Malformed(String),
    /// The declared body exceeds the configured cap (respond 413,
    /// close — the body was not read).
    BodyTooLarge {
        /// What the message declared.
        declared: u64,
        /// The configured cap.
        limit: usize,
    },
    /// The socket failed mid-read (just close).
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed HTTP message: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line terminated by `\n`, drawing its bytes from `budget`;
/// no line may exceed [`MAX_HEAD_BYTES`] either.
fn read_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            // EOF: clean only if nothing was read yet
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::Malformed("EOF mid-line".into()))
            };
        }
        let take = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => buf.len(),
        };
        if take > *budget || line.len() + take > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("message too large".into()));
        }
        *budget -= take;
        let found_newline = buf[take - 1] == b'\n';
        line.extend_from_slice(&buf[..take]);
        r.consume(take);
        if found_newline {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()));
        }
    }
}

/// A message head: the start line, then the headers with lower-cased
/// names, within [`MAX_HEAD_BYTES`] and [`MAX_HEADERS`].
struct Head {
    start: String,
    headers: Vec<(String, String)>,
}

impl Head {
    /// Reads one head; `Ok(None)` on a clean EOF before its first byte.
    fn read<R: BufRead>(r: &mut R) -> Result<Option<Head>, HttpError> {
        let mut budget = MAX_HEAD_BYTES;
        let start = match read_line(r, &mut budget)? {
            None => return Ok(None),
            Some(l) if l.is_empty() => return Err(HttpError::Malformed("empty start line".into())),
            Some(l) => l,
        };
        let mut headers = Vec::new();
        loop {
            let line = read_line(r, &mut budget)?
                .ok_or_else(|| HttpError::Malformed("EOF in headers".into()))?;
            if line.is_empty() {
                return Ok(Some(Head { start, headers }));
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::Malformed("too many headers".into()));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::Malformed(format!("header without ':' ({line:?})")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    /// The declared `Content-Length`, checked against `max_body`.
    fn content_length(&self, max_body: usize) -> Result<Option<usize>, HttpError> {
        // RFC 9112 §6.3: the length is 1*DIGIT, and repeated fields must
        // agree; anything else leaves the message's end ambiguous
        let mut content_length = None;
        for (_, v) in self.headers.iter().filter(|(k, _)| k == "content-length") {
            let parsed = match v.parse::<u64>() {
                Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Err(HttpError::Malformed(format!("bad content-length {v:?}"))),
            };
            if content_length.is_some_and(|first| first != parsed) {
                return Err(HttpError::Malformed("conflicting content-length".into()));
            }
            content_length = Some(parsed);
        }
        match content_length {
            Some(n) if n > max_body as u64 => Err(HttpError::BodyTooLarge {
                declared: n,
                limit: max_body,
            }),
            n => Ok(n.map(|n| n as usize)),
        }
    }
}

/// Appends exactly `n` more bytes from `r` to `body`, which the caller
/// keeps within `cap`. The buffer grows by doubling but never past
/// `cap`, so a body read in many pieces holds at most `cap` bytes plus,
/// while it moves, the buffer it outgrew.
fn append_exact<R: Read>(r: &mut R, body: &mut Vec<u8>, n: usize, cap: usize) -> io::Result<()> {
    let len = body.len();
    if len + n > body.capacity() {
        body.reserve_exact((len + n).max(2 * body.capacity()).min(cap) - len);
    }
    body.resize(len + n, 0);
    r.read_exact(&mut body[len..])
}

/// Reads one request off the stream.
///
/// Returns `Ok(None)` on a clean EOF *before* any byte of a request —
/// the peer closed an idle keep-alive connection, which is not an
/// error.
///
/// # Errors
///
/// [`HttpError::Malformed`] for bytes that are not a request,
/// [`HttpError::BodyTooLarge`] when `Content-Length` exceeds
/// `max_body` (the body is left unread), [`HttpError::Io`] for socket
/// failures.
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<Option<Request>, HttpError> {
    let Some(head) = Head::read(r)? else {
        return Ok(None);
    };
    let mut parts = head.start.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v.to_string()),
        _ => return Err(HttpError::Malformed("bad request line".into())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let keep_alive = match find_header(&head.headers, "connection").map(str::to_ascii_lowercase) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    if find_header(&head.headers, "transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "chunked request bodies are not supported".into(),
        ));
    }
    let mut body = vec![0u8; head.content_length(max_body)?.unwrap_or(0)];
    r.read_exact(&mut body)?;
    let (path, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.clone(), ""),
    };
    let query = query_raw
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Some(Request {
        method,
        path,
        query,
        headers: head.headers,
        body,
        keep_alive,
    }))
}

/// Reads one response off the stream: a status line, then a
/// `Content-Length` or chunked body (no trailers) of at most `max_body`
/// bytes. Every chunk size is checked against what is left of
/// `max_body` before its bytes are read, and chunk framing counts
/// against it too, so one call reads at most [`MAX_HEAD_BYTES`] plus
/// `max_body` bytes.
///
/// # Errors
///
/// [`HttpError::Malformed`] for bytes that are not a response (EOF
/// before a status line included), [`HttpError::BodyTooLarge`] for a
/// body past `max_body`, [`HttpError::Io`] for socket failures.
pub fn read_response<R: BufRead>(r: &mut R, max_body: usize) -> Result<Response, HttpError> {
    let head = Head::read(r)?.ok_or_else(|| HttpError::Malformed("no status line".into()))?;
    let mut parts = head.start.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some("HTTP/1.1" | "HTTP/1.0"), Some(code))
            if code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()) =>
        {
            code.parse().expect("three digits")
        }
        _ => return Err(HttpError::Malformed("bad status line".into())),
    };
    let too_large = |declared: u64| HttpError::BodyTooLarge {
        declared,
        limit: max_body,
    };
    let mut body = Vec::new();
    match find_header(&head.headers, "transfer-encoding") {
        // chunked framing overrides any Content-Length (RFC 9112 §6.3)
        Some(te) if te.eq_ignore_ascii_case("chunked") => {
            // body bytes and framing share one budget
            let mut budget = max_body;
            loop {
                let line = read_line(r, &mut budget)?
                    .ok_or_else(|| HttpError::Malformed("EOF before the last chunk".into()))?;
                let hex = line.split(';').next().unwrap_or_default().trim();
                let size = match u64::from_str_radix(hex, 16) {
                    Ok(n) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => n,
                    _ => return Err(HttpError::Malformed(format!("bad chunk size {hex:?}"))),
                };
                if size > budget as u64 {
                    return Err(too_large(size.saturating_add(body.len() as u64)));
                }
                budget -= size as usize;
                append_exact(r, &mut body, size as usize, max_body)?;
                // each chunk's data ends in CRLF, and so does the last
                // chunk's (empty: no trailers) trailer section
                if read_line(r, &mut budget)?.as_deref() != Some("") {
                    return Err(HttpError::Malformed("chunk not followed by CRLF".into()));
                }
                if size == 0 {
                    break;
                }
            }
        }
        Some(te) => {
            return Err(HttpError::Malformed(format!(
                "unsupported transfer-encoding {te:?}"
            )))
        }
        // the service frames every response it sends
        None => match head.content_length(max_body)? {
            Some(n) => append_exact(r, &mut body, n, max_body)?,
            None => return Err(HttpError::Malformed("response has no framing".into())),
        },
    }
    Ok(Response {
        status,
        headers: head.headers,
        body,
    })
}

/// The standard reason phrase for the status codes the service uses.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a fixed-length response.
///
/// # Errors
///
/// Any I/O error from the socket.
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(w, status, content_type, &[], body, keep_alive)
}

/// Writes a fixed-length response with extra headers (name must already
/// be lower-case; used for `retry-after` on 429/503 rejections).
///
/// # Errors
///
/// Any I/O error from the socket.
pub(crate) fn write_response_with<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Writes a JSON response (the service's default shape).
///
/// # Errors
///
/// Any I/O error from the socket.
pub(crate) fn write_json<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response(w, status, "application/json", body.as_bytes(), keep_alive)
}

/// The read side of a connection with a whole-request deadline.
///
/// A plain per-read socket timeout lets a slow-loris client dribble one
/// byte per 29 seconds forever and pin a connection thread. This
/// wrapper instead budgets the *entire* request head + body: the server
/// calls [`DeadlineStream::arm`] before each request, and every read
/// re-derives its socket timeout from the time remaining. Once the
/// budget is spent, reads fail with `TimedOut` and the connection is
/// dropped.
pub(crate) struct DeadlineStream {
    inner: TcpStream,
    deadline: Option<Instant>,
}

impl DeadlineStream {
    /// Wraps a stream with no deadline armed yet.
    pub(crate) fn new(inner: TcpStream) -> Self {
        DeadlineStream {
            inner,
            deadline: None,
        }
    }

    /// Starts a fresh per-request budget: all reads must complete
    /// within `timeout` from now.
    pub(crate) fn arm(&mut self, timeout: Duration) {
        self.deadline = Some(Instant::now() + timeout);
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ));
            }
            self.inner.set_read_timeout(Some(remaining))?;
        }
        self.inner.read(buf)
    }
}

/// A chunked-transfer response body: call [`ChunkedBody::chunk`] any
/// number of times, then [`ChunkedBody::finish`]. The constructor
/// writes the response head, so the status is committed up front.
pub(crate) struct ChunkedBody<'w, W: Write> {
    w: &'w mut W,
    finished: bool,
}

impl<'w, W: Write> ChunkedBody<'w, W> {
    /// Starts a chunked response with the given status and content type.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the head.
    pub(crate) fn start(
        w: &'w mut W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
    ) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
            reason(status),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        Ok(ChunkedBody { w, finished: false })
    }

    /// Sends one chunk (empty input sends nothing — an empty chunk would
    /// terminate the stream) and flushes, so consumers tailing a live
    /// job see rows as they land.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket.
    pub(crate) fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

impl<W: Write> Drop for ChunkedBody<'_, W> {
    fn drop(&mut self) {
        // a dropped-without-finish stream is deliberately left
        // unterminated so the client sees a truncated body rather than a
        // clean end; flush whatever was already written
        if !self.finished {
            let _ = self.w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_get_with_query() {
        let r = parse("GET /v1/jobs/abc/rows?from=3&x HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/jobs/abc/rows");
        assert_eq!(r.query_param("from"), Some("3"));
        assert_eq!(r.query_param("x"), Some(""));
        assert!(r.keep_alive);
        assert_eq!(r.header("host"), Some("h"));
    }

    #[test]
    fn parses_a_post_body_and_connection_close() {
        let r =
            parse("POST /v1/sweeps HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd")
                .unwrap()
                .unwrap();
        assert_eq!(r.body, b"abcd");
        assert!(!r.keep_alive);
        // HTTP/1.0 defaults to close
        let r10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!r10.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_malformed() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(
            parse("garbage\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_and_heads_are_rejected() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(
            err,
            HttpError::BodyTooLarge { declared: 9999, .. }
        ));
        let huge = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn extra_headers_land_between_head_and_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            429,
            "application/json",
            &[("retry-after", "3".to_string())],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("\r\nretry-after: 3\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert_eq!(reason(401), "Unauthorized");
    }

    #[test]
    fn deadline_stream_times_out_a_dribbling_peer() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            // one early byte, then silence — never a full request
            s.write_all(b"G").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(400));
            drop(s);
        });
        let (conn, _) = listener.accept().unwrap();
        let mut stream = DeadlineStream::new(conn);
        stream.arm(std::time::Duration::from_millis(100));
        let started = std::time::Instant::now();
        let err = read_request(&mut BufReader::new(&mut stream), 1024).unwrap_err();
        assert!(
            matches!(err, HttpError::Io(ref e) if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            )),
            "want a timeout, got {err:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(350),
            "deadline did not cut the read short"
        );
        client.join().unwrap();
    }

    #[test]
    fn fixed_and_chunked_responses_render() {
        let mut out = Vec::new();
        write_json(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        {
            let mut c = ChunkedBody::start(&mut out, 200, "application/x-ndjson", false).unwrap();
            c.chunk(b"{\"a\":1}\n").unwrap();
            c.chunk(b"").unwrap(); // no-op, must not terminate
            c.chunk(b"{\"b\":2}\n").unwrap();
            c.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
