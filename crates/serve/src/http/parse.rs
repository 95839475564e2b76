//! Hand-rolled HTTP/1.1 request parser and response writer.
//!
//! Implements exactly the subset the serving front end needs, from scratch
//! on `std::io`: the request line, header fields, `Content-Length` and
//! `Transfer-Encoding: chunked` bodies, and a `Content-Length`-framed
//! response writer. Every limit is explicit ([`ParseLimits`]) and every
//! malformed input maps to a typed [`ParseError`] — the server turns those
//! into clean 4xx/5xx responses instead of panicking or hanging.

use std::io::{BufRead, Read, Write};

use crate::engine::ErrorCode;

/// Hard caps applied while reading one request. The server reads with the
/// defaults (8 KiB of request line and headers, 1 MiB of body); tests pass
/// smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct ParseLimits {
    /// Budget for the request line + all header bytes (CRLFs included).
    pub max_header_bytes: usize,
    /// Maximum accepted body size, whether length-framed or chunked.
    pub max_body_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Upper bound on header count, independent of the byte budget.
const MAX_HEADER_COUNT: usize = 100;

/// One parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The request target as sent (path + optional query string).
    pub target: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header fields in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`; HTTP/1.0 requires
    /// an explicit `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be read. Everything except the first two
/// variants maps to a response via [`ParseError::error_code`].
#[derive(Debug)]
pub enum ParseError {
    /// Clean EOF before the first byte of a request — the normal end of a
    /// keep-alive connection. Not an error; close quietly.
    ConnectionClosed,
    /// The socket died mid-request (reset, broken pipe, ...). Close
    /// quietly; there is usually nobody left to answer.
    Io(std::io::Error),
    /// EOF or a read timeout after the request had started → 408.
    Truncated(String),
    /// Syntactically invalid request → 400.
    Malformed(String),
    /// Request line + headers exceeded `max_header_bytes` → 431.
    HeadersTooLarge,
    /// Declared or chunked body exceeded `max_body_bytes` → 413.
    BodyTooLarge,
    /// A `Transfer-Encoding` other than `chunked` → 501.
    Unsupported(String),
}

impl ParseError {
    /// The typed error class to answer with, or `None` when the connection
    /// should just be closed (clean EOF, hard I/O failure).
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            ParseError::ConnectionClosed | ParseError::Io(_) => None,
            ParseError::Truncated(_) => Some(ErrorCode::Timeout),
            ParseError::Malformed(_) => Some(ErrorCode::BadRequest),
            ParseError::HeadersTooLarge => Some(ErrorCode::HeadersTooLarge),
            ParseError::BodyTooLarge => Some(ErrorCode::PayloadTooLarge),
            ParseError::Unsupported(_) => Some(ErrorCode::Unsupported),
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> String {
        match self {
            ParseError::ConnectionClosed => "connection closed".into(),
            ParseError::Io(e) => format!("i/o error: {e}"),
            ParseError::Truncated(what) => format!("request truncated: {what}"),
            ParseError::Malformed(what) => format!("malformed request: {what}"),
            ParseError::HeadersTooLarge => "request headers exceed the configured limit".into(),
            ParseError::BodyTooLarge => "request body exceeds the configured limit".into(),
            ParseError::Unsupported(what) => format!("unsupported protocol feature: {what}"),
        }
    }
}

/// True for the error kinds a blocking socket read returns on timeout.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF- (or bare-LF-) terminated line, charging the consumed
/// bytes against `budget`. `headers: true` maps an exhausted budget to
/// [`ParseError::HeadersTooLarge`], otherwise to a malformed-line error.
fn read_line_limited(
    reader: &mut impl BufRead,
    budget: &mut usize,
    headers: bool,
) -> Result<String, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(ParseError::Truncated("timed out reading a line".into()))
            }
            Err(e) => return Err(ParseError::Io(e)),
        };
        if available.is_empty() {
            return Err(ParseError::Truncated("connection closed mid-line".into()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |p| p + 1);
        if take > *budget {
            return Err(if headers {
                ParseError::HeadersTooLarge
            } else {
                ParseError::Malformed("line exceeds the configured limit".into())
            });
        }
        let found = newline.is_some();
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        *budget -= take;
        if found {
            line.pop(); // \n
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| ParseError::Malformed("non-UTF-8 bytes in a header line".into()));
        }
    }
}

/// Reads exactly `buf.len()` body bytes, mapping EOF/timeouts to
/// [`ParseError::Truncated`].
fn read_exact_body(reader: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), ParseError> {
    reader.read_exact(buf).map_err(|e| {
        if is_timeout(&e) || e.kind() == std::io::ErrorKind::UnexpectedEof {
            ParseError::Truncated(what.into())
        } else {
            ParseError::Io(e)
        }
    })
}

/// Reads a `Transfer-Encoding: chunked` body: `size-in-hex CRLF data CRLF`
/// repeated, a zero-size chunk, then (ignored) trailers up to a blank line.
fn read_chunked_body(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Vec<u8>, ParseError> {
    let mut body = Vec::new();
    loop {
        let mut size_budget = 256;
        let line = read_line_limited(reader, &mut size_budget, false)?;
        // Chunk extensions (";name=value") are legal; ignore them.
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| ParseError::Malformed(format!("bad chunk size {size_str:?}")))?;
        if size == 0 {
            loop {
                let mut trailer_budget = 1024;
                if read_line_limited(reader, &mut trailer_budget, false)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        // `body` never exceeds the budget, so this cannot underflow; a
        // sum could overflow on a hex size near `usize::MAX`.
        if size > max_body_bytes - body.len() {
            return Err(ParseError::BodyTooLarge);
        }
        let start = body.len();
        body.resize(start + size, 0);
        read_exact_body(reader, &mut body[start..], "chunked body data")?;
        let mut crlf = [0u8; 2];
        read_exact_body(reader, &mut crlf, "chunk terminator")?;
        if &crlf != b"\r\n" {
            return Err(ParseError::Malformed(
                "chunk data not terminated by CRLF".into(),
            ));
        }
    }
}

/// Reads one full request. The caller must already have confirmed that at
/// least one byte is buffered (the idle-wait loop in the server does); a
/// clean EOF here therefore reports as truncation, not as a closed
/// connection.
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &ParseLimits,
) -> Result<Request, ParseError> {
    let mut header_budget = limits.max_header_bytes;

    let request_line = read_line_limited(reader, &mut header_budget, true)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(ParseError::Malformed(format!(
                "unsupported HTTP version {other:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(ParseError::Malformed(format!("bad method {method:?}")));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line_limited(reader, &mut header_budget, true)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADER_COUNT {
            return Err(ParseError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed(format!("header without a colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        http11,
        headers,
        body: Vec::new(),
    };

    let transfer_encoding = request.header("transfer-encoding");
    let content_length = request.header("content-length");
    let body = match (transfer_encoding, content_length) {
        (Some(_), Some(_)) => {
            // Both present is a request-smuggling vector; refuse outright.
            return Err(ParseError::Malformed(
                "both transfer-encoding and content-length present".into(),
            ));
        }
        (Some(te), None) => {
            if !te.eq_ignore_ascii_case("chunked") {
                return Err(ParseError::Unsupported(format!(
                    "transfer-encoding {te:?} (only chunked)"
                )));
            }
            read_chunked_body(reader, limits.max_body_bytes)?
        }
        (None, Some(cl)) => {
            let n: usize = cl
                .trim()
                .parse()
                .map_err(|_| ParseError::Malformed(format!("bad content-length {cl:?}")))?;
            if n > limits.max_body_bytes {
                return Err(ParseError::BodyTooLarge);
            }
            let mut body = vec![0u8; n];
            read_exact_body(reader, &mut body, "length-framed body")?;
            body
        }
        (None, None) => Vec::new(),
    };

    Ok(Request { body, ..request })
}

/// The reason phrase for every status this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        412 => "Precondition Failed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Bytes reserved for a response head; every head this server writes fits
/// (the longest status line and fields come to ~135).
const HEAD_CAPACITY: usize = 160;

/// Writes one `Content-Length`-framed response and flushes it.
///
/// Head and body are encoded into one buffer and handed to one
/// `write_all`: the server's sockets set `TCP_NODELAY`, so every write
/// to them leaves as a segment of its own.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut message = Vec::with_capacity(HEAD_CAPACITY + body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason_phrase(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::WriteLog;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw), &ParseLimits::default())
    }

    #[test]
    fn parses_request_line_headers_and_length_framed_body() {
        let req =
            parse(b"POST /query?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/query?x=1");
        assert_eq!(req.path(), "/query");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.body, b"hello");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn parses_chunked_body_with_extension_and_trailer() {
        let req = parse(
            b"POST /query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
              5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nx-trailer: 1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn zero_length_and_absent_bodies_are_empty() {
        let req = parse(b"POST /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn malformed_inputs_map_to_bad_request() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: 1\r\ntransfer-encoding: chunked\r\n\r\nx",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhelloXX",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(
                err.error_code(),
                Some(ErrorCode::BadRequest),
                "{raw:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn oversized_headers_and_bodies_are_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("x-big: {}\r\n\r\n", "a".repeat(10_000)).as_bytes());
        assert!(matches!(
            parse(&raw).unwrap_err(),
            ParseError::HeadersTooLarge
        ));

        let raw = b"POST / HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n";
        assert!(matches!(parse(raw).unwrap_err(), ParseError::BodyTooLarge));

        let mut raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(format!("{:x}\r\n", 2_000_000).as_bytes());
        raw.extend_from_slice(&[b'a'; 64]);
        assert!(matches!(parse(&raw).unwrap_err(), ParseError::BodyTooLarge));
    }

    #[test]
    fn truncated_bodies_report_truncation() {
        let err = parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nhalf").unwrap_err();
        assert!(matches!(err, ParseError::Truncated(_)), "{err:?}");
        assert_eq!(err.error_code(), Some(ErrorCode::Timeout));

        let err = parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n10\r\nonly-some")
            .unwrap_err();
        assert!(matches!(err, ParseError::Truncated(_)), "{err:?}");
    }

    #[test]
    fn unsupported_transfer_encoding_maps_to_not_implemented() {
        let err = parse(b"POST / HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n").unwrap_err();
        assert_eq!(err.error_code(), Some(ErrorCode::Unsupported));
    }

    #[test]
    fn pipelined_requests_parse_back_to_back_from_one_buffer() {
        let raw: &[u8] =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /query HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        let mut reader = BufReader::new(raw);
        let first = read_request(&mut reader, &ParseLimits::default()).unwrap();
        assert_eq!(first.path(), "/healthz");
        let second = read_request(&mut reader, &ParseLimits::default()).unwrap();
        assert_eq!(second.path(), "/query");
        assert_eq!(second.body, b"hi");
    }

    /// Writes one response into a [`WriteLog`], checks that its bytes are
    /// `expected`, then that a single write carried them.
    fn assert_one_write(status: u16, body: &str, keep_alive: bool, expected: &str) {
        let mut log = WriteLog::default();
        write_response(
            &mut log,
            status,
            "application/json",
            body.as_bytes(),
            keep_alive,
        )
        .unwrap();
        assert_eq!(String::from_utf8(log.0.concat()).unwrap(), expected);
        assert_eq!(log.0.len(), 1, "a {status} took {} writes", log.0.len());
    }

    #[test]
    fn response_writer_frames_with_content_length() {
        assert_one_write(
            200,
            r#"{"ok":true}"#,
            true,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\
             connection: keep-alive\r\n\r\n{\"ok\":true}",
        );
    }

    #[test]
    fn response_writer_sends_a_shed_503_in_one_write() {
        assert_one_write(
            503,
            r#"{"kind":"error","code":"overloaded"}"#,
            false,
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 36\r\nconnection: close\r\n\r\n\
             {\"kind\":\"error\",\"code\":\"overloaded\"}",
        );
    }

    #[test]
    fn a_chunk_size_near_usize_max_is_refused_not_a_panic() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
                    5\r\nhello\r\nfffffffffffffffe\r\nxx";
        assert!(matches!(parse(raw).unwrap_err(), ParseError::BodyTooLarge));
    }

    /// Hands `data` out in reads of `sizes` bytes, taken in turn, as a
    /// socket may split a stream.
    struct Pieces<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        turn: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.sizes[self.turn % self.sizes.len()]
                .min(buf.len())
                .min(self.data.len());
            self.turn += 1;
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A request the parser must accept, built from generated parts, and
    /// the [`Request`] it must parse to. `method` picks a method token
    /// (lowercase ones are uppercased); each of `values` becomes a header
    /// field; with no `chunk` the body is `Content-Length`-framed, else it
    /// goes chunked in `chunk`-byte pieces, with a chunk extension on every
    /// other piece and a trailer.
    fn valid_request(
        method: usize,
        http11: bool,
        path: &[u8],
        values: &[Vec<u8>],
        body: &[u8],
        chunk: Option<usize>,
    ) -> (Vec<u8>, Request) {
        let method = ["GET", "POST", "put"][method];
        let target = format!("/{}", String::from_utf8(path.to_vec()).unwrap());
        let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let mut raw = format!("{method} {target} {version}\r\nHost: aneci\r\n").into_bytes();
        let mut headers = vec![("host".to_string(), "aneci".to_string())];
        for (i, value) in values.iter().enumerate() {
            let value = String::from_utf8(value.clone()).unwrap();
            raw.extend_from_slice(format!("X-Field-{i}: {value}\r\n").as_bytes());
            headers.push((format!("x-field-{i}"), value));
        }
        if let Some(chunk) = chunk {
            raw.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
            for (i, piece) in body.chunks(chunk).enumerate() {
                let ext = if i % 2 == 1 { ";ext=1" } else { "" };
                raw.extend_from_slice(format!("{:x}{ext}\r\n", piece.len()).as_bytes());
                raw.extend_from_slice(piece);
                raw.extend_from_slice(b"\r\n");
            }
            raw.extend_from_slice(b"0\r\nx-trailer: 1\r\n\r\n");
            headers.push(("transfer-encoding".into(), "chunked".into()));
        } else {
            raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
            raw.extend_from_slice(body);
            headers.push(("content-length".into(), body.len().to_string()));
        }
        let request = Request {
            method: method.to_ascii_uppercase(),
            target,
            http11,
            headers,
            body: body.to_vec(),
        };
        (raw, request)
    }

    /// Parses `raw` under `limits`, fed `cap` bytes at a time.
    fn parse_in_reads_of(
        raw: &[u8],
        cap: usize,
        limits: &ParseLimits,
    ) -> Result<Request, ParseError> {
        read_request(&mut BufReader::with_capacity(cap, raw), limits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn arbitrary_bytes_give_a_request_or_a_typed_error(
            raw in prop::collection::vec(any::<u8>(), 0..512),
            cap in 1..64usize,
            header_budget in 16..512usize,
            body_budget in 1..256usize,
        ) {
            let limits = ParseLimits {
                max_header_bytes: header_budget,
                max_body_bytes: body_budget,
            };
            if let Err(e) = parse_in_reads_of(&raw, cap, &limits) {
                prop_assert!(e.error_code().is_some(), "{e:?} has no status to answer with");
            }
        }

        #[test]
        fn corrupted_requests_give_a_request_or_a_typed_error(
            shape in (0..3usize, any::<bool>(), any::<bool>(), 1..24usize),
            values in prop::collection::vec(prop::collection::vec(33..127u8, 0..16), 0..3),
            body in prop::collection::vec(any::<u8>(), 0..96),
            extra in (0..5usize, prop::collection::vec(33..127u8, 0..8), 1..128usize),
            edits in prop::collection::vec((0..1024usize, 0..16usize, any::<u8>()), 0..3),
            stretch in (0..1024usize, 0..600usize),
            cut in (any::<bool>(), 0..4096usize),
            cap in 1..64usize,
        ) {
            let (method, http11, chunked, chunk) = shape;
            let chunk = chunked.then_some(chunk);
            let (mut raw, _) = valid_request(method, http11, b"v1/query", &values, &body, chunk);
            // Overwrite a few bytes, mostly with ones that carry syntax.
            const SYNTAX: &[u8] = b" :\r\n;0fx\t\x80";
            for (at, pick, byte) in edits {
                let at = at % raw.len();
                raw[at] = SYNTAX.get(pick).copied().unwrap_or(byte);
            }
            // More fields after the first line, often a framing one with a
            // junk value (a second framing, or one that is no number), at
            // times more than the parser takes.
            let (name, value, copies) = extra;
            const NAMES: [&str; 4] =
                ["content-length", "transfer-encoding", "connection", "x-extra"];
            if let Some(name) = NAMES.get(name) {
                let line_end = raw.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
                let field = [name.as_bytes(), b": ", &value, b"\r\n"].concat();
                raw.splice(line_end..line_end, field.repeat(copies));
            }
            // Repeat one byte, which can stretch a line past its limit.
            let (at, times) = stretch;
            let at = at % raw.len();
            raw.splice(at..at, vec![raw[at]; times]);
            // Half the time, end the input early.
            if let (true, at) = cut {
                raw.truncate(at % raw.len());
            }
            let limits = ParseLimits { max_header_bytes: 4096, max_body_bytes: 64 };
            if let Err(e) = parse_in_reads_of(&raw, cap, &limits) {
                prop_assert!(e.error_code().is_some(), "{e:?} has no status to answer with");
            }
        }

        #[test]
        fn a_request_in_arbitrary_pieces_parses_as_it_does_whole(
            shape in (0..3usize, any::<bool>(), any::<bool>(), 1..24usize),
            path in prop::collection::vec(97..123u8, 0..12),
            values in prop::collection::vec(prop::collection::vec(33..127u8, 0..16), 0..4),
            body in prop::collection::vec(any::<u8>(), 0..200),
            sizes in prop::collection::vec(1..24usize, 1..6),
        ) {
            let (method, http11, chunked, chunk) = shape;
            let chunk = chunked.then_some(chunk);
            let (raw, expected) = valid_request(method, http11, &path, &values, &body, chunk);
            let limits = ParseLimits::default();
            let whole = read_request(&mut BufReader::new(raw.as_slice()), &limits).unwrap();
            let pieces = Pieces { data: &raw, sizes: &sizes, turn: 0 };
            let split = read_request(&mut BufReader::new(pieces), &limits).unwrap();
            prop_assert_eq!(&whole, &expected);
            prop_assert_eq!(&split, &whole);
        }

        #[test]
        fn two_pipelined_requests_parse_back_to_back(
            shapes in (
                (0..3usize, any::<bool>(), any::<bool>(), 1..24usize),
                (0..3usize, any::<bool>(), any::<bool>(), 1..24usize),
            ),
            values in prop::collection::vec(prop::collection::vec(33..127u8, 0..16), 0..3),
            bodies in (
                prop::collection::vec(any::<u8>(), 0..120),
                prop::collection::vec(any::<u8>(), 0..120),
            ),
            sizes in prop::collection::vec(1..24usize, 1..6),
        ) {
            let ((m1, v1, t1, c1), (m2, v2, t2, c2)) = shapes;
            let (mut raw, first) =
                valid_request(m1, v1, b"a", &values, &bodies.0, t1.then_some(c1));
            let (second_raw, second) =
                valid_request(m2, v2, b"b", &[], &bodies.1, t2.then_some(c2));
            raw.extend_from_slice(&second_raw);
            let limits = ParseLimits::default();
            let mut reader = BufReader::new(Pieces { data: &raw, sizes: &sizes, turn: 0 });
            prop_assert_eq!(&read_request(&mut reader, &limits).unwrap(), &first);
            prop_assert_eq!(&read_request(&mut reader, &limits).unwrap(), &second);
            prop_assert!(reader.fill_buf().unwrap().is_empty(), "bytes left after both");
        }
    }
}
