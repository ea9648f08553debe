//! Hostile input on the two file-fed configuration parsers of
//! `segsim serve`: alert rules (`--alerts`, `AlertEngine::parse`) and
//! API-key files (`--api-keys`, `AdmissionControl::new`). Arbitrary
//! text and mutated valid files — multi-byte characters, huge numbers,
//! missing tokens, stray braces and quotes — must each load as `Ok` or
//! fail as `Err`, never panic, and return promptly.

use proptest::prelude::*;
use seg_obs::AlertEngine;
use seg_serve::AdmissionControl;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Far above what parsing a few KiB costs; a parser that loops or goes
/// quadratic on a hostile line blows through it.
const PROMPT: Duration = Duration::from_secs(2);

/// A valid rule file covering both rule forms and every optional part.
const VALID_RULES: &str = "# comment\n\
    serve_active_jobs value >= 8 for 30s\n\
    work_task_failures_total rate > 0.5 for 1m\n\
    serve_http_request_seconds{endpoint=\"/v1/sweeps\"} p99 > 500ms for 10s\n\
    queue_depth > 100\n\
    slo serve_http_request_seconds p99 < 250ms over 5m budget 1%\n";

/// A valid key file: keyed tiers, an unlimited key, the anonymous
/// tier, comments and blank lines.
const VALID_KEYS: &str = "# tiers\nalpha 2\nbeta 10 # trailing comment\n\nunlimited\nanonymous 1\n";

/// Tokens of hostile text: the grammars' words and symbols, numbers at
/// and past the edges of their types, and non-ASCII.
const TOKENS: &[&str] = &[
    " ",
    "\n",
    "\t",
    "#",
    "{",
    "}",
    "\"",
    "\\",
    "=",
    ",",
    "%",
    "<",
    "<=",
    ">",
    ">=",
    "==",
    "!=",
    "for",
    "over",
    "budget",
    "slo",
    "rate",
    "total",
    "value",
    "p50",
    "p99",
    "count",
    "ms",
    "s",
    "m",
    "0",
    "-1",
    "0.5",
    "1e400",
    "1e400s",
    "-1e400ms",
    "99999999999m",
    "18446744073709551616",
    "4294967296",
    "NaN",
    "inf",
    "-0",
    "100%",
    "0%",
    "1e-400%",
    "anonymous",
    "key",
    "é",
    "😀",
    "\u{0}",
    "\u{feff}",
    "\u{2028}",
    "{k=\"",
    "\"}",
    "x{a=\"\\",
    "serve_active_jobs",
];

fn token(k: usize) -> &'static str {
    TOKENS[k % TOKENS.len()]
}

/// Applies one mutation, chosen by `kind`, at byte `at` of `text`.
fn mutate(text: &mut Vec<u8>, kind: u8, at: usize, byte: u8, k: usize) {
    let at = at % (text.len() + 1);
    match kind % 5 {
        0 if at < text.len() => text[at] = byte,
        1 if at < text.len() => {
            text.remove(at);
        }
        2 => text.truncate(at),
        3 => {
            let end = (at + usize::from(byte % 16)).min(text.len());
            let copy = text[at..end].to_vec();
            text.splice(at..at, copy);
        }
        _ => {
            text.splice(at..at, token(k).bytes());
        }
    }
}

/// Runs `f` under `catch_unwind` and a stopwatch.
fn prompt_and_unpanicked<T>(what: &str, text: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{what} panicked"))?;
    let took = start.elapsed();
    if took > PROMPT {
        return Err(format!("{what} took {took:?} on {} bytes", text.len()));
    }
    Ok(out)
}

fn alerts_path(text: &str) -> Result<(), String> {
    prompt_and_unpanicked("AlertEngine::parse", text, || {
        if let Ok(engine) = AlertEngine::parse(text) {
            assert_eq!(engine.len(), engine.rules().len());
        }
    })
}

/// Writes `text` to a fresh file and loads it as an API-key file.
fn keys_path(text: &str) -> Result<(), String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir: PathBuf = std::env::temp_dir().join("seg_serve_hostile_keys");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "keys-{}-{}.txt",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    let outcome = prompt_and_unpanicked("AdmissionControl::new", text, || {
        if let Ok(ctl) = AdmissionControl::new(4, Some(&path)) {
            // resolving and admitting the listed keys stays well defined
            for line in text.lines() {
                if let Some(key) = line.split_whitespace().next() {
                    if let Ok(client) = ctl.resolve(Some(key)) {
                        let _ = ctl.admit_fresh(&client, 0);
                    }
                }
            }
        }
    });
    let _ = std::fs::remove_file(&path);
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let alerts = alerts_path(&text);
        prop_assert!(alerts.is_ok(), "{alerts:?} on {text:?}");
        let keys = keys_path(&text);
        prop_assert!(keys.is_ok(), "{keys:?} on {text:?}");
    }

    #[test]
    fn arbitrary_token_text_never_panics(picks in prop::collection::vec(any::<usize>(), 0..48)) {
        let text: String = picks.iter().map(|&k| token(k)).collect();
        let alerts = alerts_path(&text);
        prop_assert!(alerts.is_ok(), "{alerts:?} on {text:?}");
        let keys = keys_path(&text);
        prop_assert!(keys.is_ok(), "{keys:?} on {text:?}");
    }

    #[test]
    fn mutated_valid_files_never_panic(
        keys_file in any::<bool>(),
        edits in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u8>(), any::<usize>()),
            1..6,
        ),
    ) {
        let base = if keys_file { VALID_KEYS } else { VALID_RULES };
        let mut bytes = base.as_bytes().to_vec();
        for &(kind, at, byte, k) in &edits {
            mutate(&mut bytes, kind, at, byte, k);
        }
        let text = String::from_utf8_lossy(&bytes);
        let outcome = if keys_file { keys_path(&text) } else { alerts_path(&text) };
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }
}

#[test]
fn valid_files_load() {
    assert_eq!(AlertEngine::parse(VALID_RULES).unwrap().len(), 5);
    assert!(keys_path(VALID_KEYS).is_ok());
}

#[test]
fn huge_and_non_finite_numbers_are_refused() {
    for rule in [
        "queue_depth > 1e400",
        "queue_depth > NaN",
        "queue_depth > inf",
        "queue_depth > -1e400ms",
        "queue_depth > 1 for 1e400s",
        "queue_depth > 1 for NaNm",
        "slo lat p99 < NaNms over 5m budget 1%",
        "slo lat p99 < 1s over 5m budget NaN%",
        "slo lat p99 < 1s over 1e400m budget 1%",
    ] {
        assert!(AlertEngine::parse(rule).is_err(), "accepted {rule:?}");
    }
    // a long but finite hold saturates instead of wrapping
    assert!(AlertEngine::parse("queue_depth > 1 for 99999999999m").is_ok());
    // a quota past u32 is a load error, not a wrapped limit
    let dir = std::env::temp_dir().join("seg_serve_hostile_keys");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("huge-{}.txt", std::process::id()));
    std::fs::write(&path, "alpha 4294967296\n").unwrap();
    assert!(AdmissionControl::new(4, Some(&path)).is_err());
    let _ = std::fs::remove_file(&path);
}
