//! Hostile input on the two HTTP readers: arbitrary bytes, mutated
//! valid requests and responses, over-long lines, absurd
//! `Content-Length` values and chunk sizes, missing CRLFs, trailers,
//! unframed bodies and bad UTF-8
//! go through both `http::read_request` and `http::read_response`. Each
//! input must come back as `Ok` or `Err` without a panic, read no more
//! than the head limit plus `max_body`, and allocate no more than a
//! small multiple of the head limit plus `max_body` (twice `max_body`
//! for a response, whose chunked body grows by reallocation), whatever
//! the message declares.

use proptest::prelude::*;
use seg_serve::http::HttpError;
use seg_serve::http::{read_request, read_response, MAX_HEADERS, MAX_HEAD_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counts the bytes each thread has live and their high-water mark, so
/// a test can bound what one call allocates.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn note_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(size)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one call may allocate on top of the body: the head bytes a few
/// times over (the line being read, its copies into the header list and
/// the request target) plus the header list itself.
const HEAD_ALLOWANCE: usize = 4 * MAX_HEAD_BYTES + MAX_HEADERS * 64;

/// A reader that counts the bytes taken from it.
struct Metered<'a> {
    bytes: &'a [u8],
    taken: usize,
}

impl Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        self.taken += n;
        Ok(n)
    }
}

/// The reader a check drives.
#[derive(Clone, Copy, Debug)]
enum Reader {
    Request,
    Response,
}

/// Reads `bytes` with both readers through a `chunk`-byte buffer and
/// checks each outcome against the limits, reporting a panic or a
/// broken limit as an error.
fn read_checked(bytes: &[u8], chunk: usize, max_body: usize) -> Result<(), String> {
    read_checked_by(Reader::Request, bytes, chunk, max_body)?;
    read_checked_by(Reader::Response, bytes, chunk, max_body)
}

fn read_checked_by(
    reader: Reader,
    bytes: &[u8],
    chunk: usize,
    max_body: usize,
) -> Result<(), String> {
    let mut input = BufReader::with_capacity(chunk, Metered { bytes, taken: 0 });
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let outcome = catch_unwind(AssertUnwindSafe(|| match reader {
        Reader::Request => read_request(&mut input, max_body).map(|r| r.map(|r| r.body.len())),
        Reader::Response => read_response(&mut input, max_body).map(|r| Some(r.body.len())),
    }))
    .map_err(|_| format!("the {reader:?} reader panicked"))?;
    let allocated = PEAK.with(Cell::get) - before;
    let body_allowance = match reader {
        Reader::Request => max_body,
        // a chunked body grows by reallocation, and a moving buffer is
        // charged twice while it moves
        Reader::Response => 2 * max_body,
    };
    if allocated > body_allowance + HEAD_ALLOWANCE {
        return Err(format!(
            "{reader:?}: allocated {allocated} bytes with max_body {max_body} ({outcome:?})"
        ));
    }
    let taken = input.get_ref().taken;
    if taken > MAX_HEAD_BYTES + max_body + chunk {
        return Err(format!(
            "{reader:?}: read {taken} bytes with max_body {max_body}"
        ));
    }
    match outcome {
        Ok(Some(len)) if len > max_body => Err(format!(
            "{reader:?}: accepted a {len}-byte body over max_body {max_body}"
        )),
        _ => Ok(()),
    }
}

/// Valid requests the mutation strategy starts from.
const VALID: &[&str] = &[
    "GET /v1/jobs/abc/rows?from=3&limit=10 HTTP/1.1\r\nHost: x\r\n\r\n",
    "POST /v1/sweeps HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
    "DELETE /v1/jobs/0123 HTTP/1.0\r\nConnection: keep-alive\r\nAuthorization: Bearer k\r\n\r\n",
];

/// Valid responses the mutation strategy starts from, with their bodies.
const VALID_RESPONSES: &[(&str, &str)] = &[
    (
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\r\n{\"ok\":true}",
        "{\"ok\":true}",
    ),
    (
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n8\r\n{\"a\":1}\n\r\n8;x=y\r\n{\"b\":2}\n\r\n0\r\n\r\n",
        "{\"a\":1}\n{\"b\":2}\n",
    ),
    (
        "HTTP/1.1 429 Too Many Requests\r\nretry-after: 3\r\ncontent-length: 0\r\n\r\n",
        "",
    ),
    (
        "HTTP/1.0 200 OK\r\ncontent-length: 5\r\nconnection: close\r\n\r\nhello",
        "hello",
    ),
];

/// Fragments spliced into requests: line structure, header names, edge
/// `Content-Length` values, bad UTF-8 and oversized pieces.
fn fragment(k: usize) -> Vec<u8> {
    const SHORT: &[&[u8]] = &[
        b"\r\n",
        b"\n",
        b"\r",
        b":",
        b" ",
        b"Content-Length: ",
        b"content-length:",
        b"Transfer-Encoding: chunked\r\n",
        b"Connection: close\r\n",
        b"-1",
        b"0",
        b"+7",
        b"18446744073709551615",
        b"18446744073709551616",
        b"99999999999999999999999999",
        b"1e3",
        b"0x10",
        b"HTTP/1.1",
        b"HTTP/2",
        b"HTTP/1.1 200 OK\r\n",
        b"ffffffffffffffff\r\n",
        b"10000000000000000",
        b";ext=1",
        b"0\r\n\r\n",
        b"?a=b&&c",
        b"\xff",
        b"\xc3",
        b"\xe2\x82",
        b"\xf0\x9f\x98\x80",
        b"\0",
    ];
    match k % (SHORT.len() + 3) {
        i if i < SHORT.len() => SHORT[i].to_vec(),
        // a line longer than the whole head budget
        i if i == SHORT.len() => vec![b'a'; MAX_HEAD_BYTES + 1],
        // more header lines than allowed
        i if i == SHORT.len() + 1 => b"X-A: b\r\n".repeat(MAX_HEADERS + 1),
        // a body far larger than any limit used here
        _ => vec![b'z'; 3 << 20],
    }
}

/// Applies one mutation, chosen by `kind`, at byte `at` of `bytes`.
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: usize, byte: u8, k: usize) {
    let at = at % (bytes.len() + 1);
    match kind % 5 {
        0 if at < bytes.len() => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        2 if at < bytes.len() => {
            bytes.remove(at);
        }
        3 => bytes.truncate(at),
        _ => {
            bytes.splice(at..at, fragment(k));
        }
    }
}

/// Body limits the properties run with (the server's default is 1 MiB).
const MAX_BODIES: [usize; 4] = [0, 16, 4096, 1 << 20];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_stay_within_limits(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..64,
        limit in 0usize..MAX_BODIES.len(),
    ) {
        let outcome = read_checked(&bytes, chunk, MAX_BODIES[limit]);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {:?}", String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_valid_requests_stay_within_limits(
        base in 0usize..VALID.len() + VALID_RESPONSES.len(),
        edits in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u8>(), any::<usize>()),
            1..6,
        ),
        chunk in 1usize..8192,
        limit in 0usize..MAX_BODIES.len(),
    ) {
        let mut bytes = match VALID.get(base) {
            Some(request) => request.as_bytes().to_vec(),
            None => VALID_RESPONSES[base - VALID.len()].0.as_bytes().to_vec(),
        };
        for &(kind, at, byte, k) in &edits {
            mutate(&mut bytes, kind, at, byte, k);
        }
        let outcome = read_checked(&bytes, chunk, MAX_BODIES[limit]);
        let shown: String = String::from_utf8_lossy(&bytes).chars().take(300).collect();
        prop_assert!(outcome.is_ok(), "{outcome:?} on {shown:?}");
    }
}

#[test]
fn valid_bases_parse() {
    for base in VALID {
        let req = read_request(&mut base.as_bytes(), 1024)
            .expect("valid request")
            .expect("not EOF");
        assert!(req.body.len() <= 4, "{base}");
    }
}

#[test]
fn valid_responses_parse() {
    for (raw, body) in VALID_RESPONSES {
        let response = read_response(&mut raw.as_bytes(), 1024).expect("valid response");
        assert_eq!(response.body, body.as_bytes(), "{raw}");
        assert!(read_checked(raw.as_bytes(), 5, 1024).is_ok(), "{raw}");
    }
}

#[test]
fn absurd_content_lengths_are_refused_before_any_body_is_read() {
    let max_body = 1024;
    let refused = [
        "-1",
        "-0",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999999",
        "1025",
        "1e3",
        "0x10",
        "",
        "4, 4",
        "+4",
        " +4",
        "4\r\nContent-Length: 3",
    ];
    for value in refused {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
        match read_request(&mut raw.as_bytes(), max_body) {
            Err(HttpError::Malformed(_) | HttpError::BodyTooLarge { .. }) => {}
            other => panic!("Content-Length {value:?}: {other:?}"),
        }
        assert!(
            read_checked(raw.as_bytes(), 7, max_body).is_ok(),
            "{value:?}"
        );
        let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\nabcd");
        match read_response(&mut raw.as_bytes(), max_body) {
            Err(HttpError::Malformed(_) | HttpError::BodyTooLarge { .. }) => {}
            other => panic!("response Content-Length {value:?}: {other:?}"),
        }
        assert!(
            read_checked(raw.as_bytes(), 7, max_body).is_ok(),
            "{value:?}"
        );
    }
}

#[test]
fn repeated_equal_content_lengths_frame_one_body() {
    let raw = "POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd";
    let req = read_request(&mut raw.as_bytes(), 1024).unwrap().unwrap();
    assert_eq!(req.body, b"abcd");
}

#[test]
fn a_huge_declared_body_within_the_limit_reads_only_what_arrives() {
    // the peer declares the whole limit and sends four bytes: the reader
    // fails on EOF having allocated at most the limit
    let max_body = 1 << 20;
    let raw = format!("POST / HTTP/1.1\r\nContent-Length: {max_body}\r\n\r\nabcd");
    assert!(matches!(
        read_request(&mut raw.as_bytes(), max_body),
        Err(HttpError::Io(_))
    ));
    assert!(read_checked(raw.as_bytes(), 64, max_body).is_ok());
}

#[test]
fn over_long_lines_and_bad_utf8_are_malformed() {
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
    let many = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        "X-A: b\r\n".repeat(MAX_HEADERS + 1)
    );
    let mut bad_utf8 = b"GET / HTTP/1.1\r\nX-A: \xff\xfe\r\n\r\n".to_vec();
    for raw in [
        long_line.into_bytes(),
        many.into_bytes(),
        std::mem::take(&mut bad_utf8),
    ] {
        assert!(
            matches!(
                read_request(&mut raw.as_slice(), 1024),
                Err(HttpError::Malformed(_))
            ),
            "{:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(80)])
        );
        assert!(read_checked(&raw, 13, 1024).is_ok());
    }
}

#[test]
fn absurd_chunk_sizes_are_refused_before_any_chunk_is_read() {
    let max_body = 1024;
    let refused = [
        "ffffffffffffffff",
        "10000000000000000",
        "fffffffffffffffffffffffffffffffff",
        "401",
        "-1",
        "+4",
        " ",
        "",
        "4 4",
        "0x4",
        "g",
    ];
    for size in refused {
        let raw = format!(
            "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n{size}\r\nabcd\r\n0\r\n\r\n"
        );
        match read_response(&mut raw.as_bytes(), max_body) {
            Err(HttpError::Malformed(_) | HttpError::BodyTooLarge { .. }) => {}
            other => panic!("chunk size {size:?}: {other:?}"),
        }
        assert!(
            read_checked(raw.as_bytes(), 7, max_body).is_ok(),
            "{size:?}"
        );
    }
    // the sizes add up: two chunks within the cap, a third past it
    let raw = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n\
               1f0\r\n"
        .to_string()
        + &"a".repeat(0x1f0)
        + "\r\n1f0\r\n"
        + &"b".repeat(0x1f0)
        + "\r\n1f0\r\n";
    assert!(matches!(
        read_response(&mut raw.as_bytes(), max_body),
        Err(HttpError::BodyTooLarge { .. })
    ));
}

#[test]
fn missing_crlfs_and_cut_short_responses_are_errors() {
    for raw in [
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n4\r\nabcdXY0\r\n\r\n",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n4\r\nabcd\r\n",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n4\r\nab",
        "HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\nab",
        "HTTP/1.1 200 OK\r\ncontent-length: 4\r\n",
        "HTTP/1.1 200 OK",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: gzip\r\n\r\n",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\nx-trailer: 1\r\n\r\n",
        "HTTP/1.1 200 OK\r\nconnection: close\r\n\r\nunframed",
        "HTTP/1.1 2000 OK\r\n\r\n",
        "HTTP/2 200 OK\r\n\r\n",
        "",
    ] {
        assert!(read_response(&mut raw.as_bytes(), 1024).is_err(), "{raw:?}");
        assert!(read_checked(raw.as_bytes(), 3, 1024).is_ok(), "{raw:?}");
    }
}
