//! Hostile input on the sweep request path: arbitrary bytes, arbitrary
//! JSON-flavoured text and mutated valid requests go through
//! `Json::parse` and then `SweepRequest::from_json`. Each stage must
//! answer `Ok` or `Err`; a panic would take down the connection worker
//! that parses a `POST /v1/sweeps` body. A request that passes
//! validation must also build its spec without panicking.

use proptest::prelude::*;
use seg_serve::{Json, SweepRequest};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Valid bodies the mutation strategy starts from.
const VALID: &[&str] = &[
    r#"{"side": 32, "horizon": 1, "tau": 0.42}"#,
    r#"{"side": [32, 48], "horizon": [1, 2], "tau": [0.42, 0.44], "density": 0.5,
        "variant": ["paper", "noise:0.01", "two-sided:0.8", "multi:3"],
        "replicas": 2, "seed": 7, "max_events": 1000}"#,
    r#"{"variant": "ring-kawasaki", "side": 64, "horizon": 3, "tau": [0.3], "seed": 9007199254740992}"#,
];

/// Tokens of arbitrary text: JSON structure, escapes, numbers at the
/// edges and non-ASCII ...
const SYNTAX: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u+041", "\\ud800", "\\udc00", "\\n", " ",
    "\n", "\t", "0", "1", "-", ".", "e", "E", "+", "1e999", "-0", "4096", "4097", "1e20", "0.5",
    "true", "false", "null", "nan", "é", "😀", "\u{0}", "\u{7f}", "\u{feff}",
];

/// ... and the request's keys and variant spellings.
const WORDS: &[&str] = &[
    "\"side\"",
    "\"horizon\"",
    "\"tau\"",
    "\"density\"",
    "\"variant\"",
    "\"replicas\"",
    "\"seed\"",
    "\"max_events\"",
    "\"paper\"",
    "\"noise:",
    "\"two-sided:",
    "\"multi:",
];

/// The `k`-th token of `SYNTAX` followed by `WORDS`, wrapping around.
fn token(k: usize) -> &'static str {
    let k = k % (SYNTAX.len() + WORDS.len());
    SYNTAX.get(k).unwrap_or_else(|| &WORDS[k - SYNTAX.len()])
}

/// Runs one body through the whole request path, reporting a panic as
/// an error message naming the stage.
fn request_path(body: &str) -> Result<(), String> {
    let json = catch_unwind(|| Json::parse(body)).map_err(|_| "Json::parse panicked")?;
    let Ok(json) = json else { return Ok(()) };
    let req = catch_unwind(AssertUnwindSafe(|| SweepRequest::from_json(&json)))
        .map_err(|_| "SweepRequest::from_json panicked")?;
    if let Ok(req) = req {
        catch_unwind(AssertUnwindSafe(|| req.build_spec()))
            .map_err(|_| "build_spec panicked on a validated request")?;
    }
    Ok(())
}

/// Applies one mutation, chosen by `kind`, at byte `at` of `body`.
fn mutate(body: &mut Vec<u8>, kind: u8, at: usize, byte: u8, k: usize) {
    let at = at % (body.len() + 1);
    match kind % 6 {
        0 if at < body.len() => body[at] = byte,
        1 => body.insert(at, byte),
        2 if at < body.len() => {
            body.remove(at);
        }
        3 => body.truncate(at),
        4 => {
            // duplicate a slice starting at `at`
            let end = (at + usize::from(byte % 16)).min(body.len());
            let copy = body[at..end].to_vec();
            body.splice(at..at, copy);
        }
        _ => {
            body.splice(at..at, token(k).bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let body = String::from_utf8_lossy(&bytes);
        let outcome = request_path(&body);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {body:?}");
    }

    #[test]
    fn arbitrary_json_flavoured_text_never_panics(
        picks in prop::collection::vec(any::<usize>(), 0..64),
    ) {
        let body: String = picks.iter().map(|&k| token(k)).collect();
        let outcome = request_path(&body);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {body:?}");
    }

    #[test]
    fn mutated_valid_requests_never_panic(
        base in 0usize..VALID.len(),
        edits in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u8>(), any::<usize>()),
            1..6,
        ),
    ) {
        let mut bytes = VALID[base].as_bytes().to_vec();
        for &(kind, at, byte, k) in &edits {
            mutate(&mut bytes, kind, at, byte, k);
        }
        let body = String::from_utf8_lossy(&bytes);
        let outcome = request_path(&body);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {body:?}");
    }
}

#[test]
fn valid_bases_are_accepted() {
    for body in VALID {
        let json = Json::parse(body).unwrap();
        assert!(SweepRequest::from_json(&json).is_ok(), "{body}");
    }
}

/// Small bodies asking for unbounded memory, and a word of the message
/// that refuses each. Only the refusal is exercised: none is ever run.
const OVERSIZED: &[(&str, &str)] = &[
    (
        r#"{"side": 4096, "horizon": 1, "tau": 0.4, "variant": "multi:255"}"#,
        "multi:255 at side 4096",
    ),
    (
        r#"{"side": [16, 4096], "horizon": 1, "tau": 0.4, "variant": ["paper", "multi:5"]}"#,
        "multi:5 at side 4096",
    ),
];

#[test]
fn oversized_requests_are_refused_with_a_message() {
    for (body, needle) in OVERSIZED {
        let json = Json::parse(body).unwrap();
        let err = SweepRequest::from_json(&json).expect_err(body);
        assert!(err.contains(needle), "{body}: {err}");
    }
    // the cap still admits four types at the largest side
    let json = Json::parse(r#"{"side": 4096, "horizon": 1, "tau": 0.4, "variant": "multi:4"}"#);
    assert!(SweepRequest::from_json(&json.unwrap()).is_ok());
}

#[test]
fn long_axes_are_refused_without_overflowing_the_task_count() {
    // five axes of 8000 values each: 8000⁵ points overflow a 64-bit
    // product, in a body well under the default 1 MiB limit
    let axis = |v: &str| format!("[{}]", vec![v; 8000].join(","));
    let body = format!(
        r#"{{"side": {}, "horizon": {}, "tau": {}, "density": {}, "variant": {}}}"#,
        axis("9"),
        axis("1"),
        axis("0"),
        axis("0"),
        axis(r#""paper""#),
    );
    assert!(body.len() < 1 << 20);
    let json = Json::parse(&body).unwrap();
    let outcome = catch_unwind(|| SweepRequest::from_json(&json)).expect("no panic");
    let err = outcome.expect_err("a sweep of 8000^5 points must be refused");
    assert!(err.contains("exceeds"), "{err}");
}
