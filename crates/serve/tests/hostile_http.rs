//! Hostile input on the HTTP request reader: arbitrary bytes, mutated
//! valid requests, over-long lines, absurd `Content-Length` values and
//! bad UTF-8 go through `http::read_request`. Each input must come back
//! as `Ok` or `Err` without a panic, read no more than the head limit
//! plus `max_body`, and allocate no more than `max_body` plus a small
//! multiple of the head limit, whatever the request declares.

use proptest::prelude::*;
use seg_serve::http::{read_request, MAX_HEADERS, MAX_HEAD_BYTES};
use seg_serve::HttpError;
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

/// Reads one request from `bytes` through a `chunk`-byte buffer and
/// checks the outcome against the limits, reporting a panic or a broken
/// limit as an error.
fn read_checked(bytes: &[u8], chunk: usize, max_body: usize) -> Result<(), String> {
    let mut reader = BufReader::with_capacity(chunk, Metered { bytes, taken: 0 });
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let outcome = catch_unwind(AssertUnwindSafe(|| read_request(&mut reader, max_body)))
        .map_err(|_| "read_request panicked".to_string())?;
    let allocated = PEAK.with(Cell::get) - before;
    if allocated > max_body + HEAD_ALLOWANCE {
        return Err(format!(
            "allocated {allocated} bytes with max_body {max_body} ({outcome:?})"
        ));
    }
    let taken = reader.get_ref().taken;
    if taken > MAX_HEAD_BYTES + max_body + chunk {
        return Err(format!("read {taken} bytes with max_body {max_body}"));
    }
    match outcome {
        Ok(Some(req)) if req.body.len() > max_body => Err(format!(
            "accepted a {}-byte body over max_body {max_body}",
            req.body.len()
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
        base in 0usize..VALID.len(),
        edits in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u8>(), any::<usize>()),
            1..6,
        ),
        chunk in 1usize..8192,
        limit in 0usize..MAX_BODIES.len(),
    ) {
        let mut bytes = VALID[base].as_bytes().to_vec();
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
