//! Hostile input on history replay: arbitrary bytes and mutated
//! `--metrics-history-out` lines go through `History::set_output`, which
//! must skip what it cannot read without a panic. Labels holding control
//! characters, quotes and backslashes must replay to the same series and
//! tiers they were recorded under.

use proptest::prelude::*;
use seg_obs::history::{History, SeriesId, Value, TIERS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh history file path for one case.
fn fresh_path() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("seg_hostile_history_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.jsonl", CASE.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_file(&path);
    path
}

/// Replays `bytes` as a history file into a fresh store: how many lines
/// it took, or `None` when the file could not be read as text.
fn replay(bytes: &[u8]) -> Result<Option<usize>, String> {
    let path = fresh_path();
    std::fs::write(&path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| History::new().set_output(&path).ok()))
        .map_err(|_| "replay panicked".to_string());
    let _ = std::fs::remove_file(&path);
    outcome
}

/// Characters label values are drawn from: controls, JSON and label
/// metacharacters, and multi-byte text.
const ALPHABET: &[char] = &[
    'a', 'z', '0', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', '\t', '\n', '\r', '"', '\\', '{', '}',
    ',', '=', ':', ' ', 'é', '😀', '\u{2028}',
];

fn label(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| ALPHABET[i % ALPHABET.len()])
        .collect()
}

/// Records `values` under two labelled series per kind into a store
/// writing `path`, and returns the store.
fn record_all(path: &Path, a: &str, b: &str, values: &[u64]) -> History {
    let first = History::new();
    assert_eq!(first.set_output(path).unwrap(), 0);
    let id = |name: &str| SeriesId {
        name: name.to_string(),
        labels: vec![("a".into(), a.to_string()), ("b".into(), b.to_string())],
    };
    let mut total = 0;
    for &v in values {
        total += v;
        first.record(
            id("hostile_total"),
            Value::Counter {
                total,
                rate: v as f64 / 4.0,
            },
        );
        first.record_gauge("hostile_gauge", &[("b", b), ("a", a)], v as f64 * 0.5);
        first.record(
            id("hostile_seconds"),
            Value::Histogram {
                p50: v as f64 / 3.0,
                p99: v as f64,
                count: total,
            },
        );
    }
    first
}

/// Whether a fresh store replaying `path` holds the same tiers as
/// `first` for every recorded family.
fn replays_identically(first: &History, path: &Path, lines: usize) -> Result<(), String> {
    let second = History::new();
    let replayed = second.set_output(path).map_err(|e| e.to_string())?;
    if replayed != lines {
        return Err(format!("replayed {replayed} of {lines} lines"));
    }
    for name in ["hostile_total", "hostile_gauge", "hostile_seconds"] {
        for tier in 0..TIERS.len() {
            if first.query(name, None, tier) != second.query(name, None, tier) {
                return Err(format!("tier {tier} of {name} diverged after replay"));
            }
        }
    }
    Ok(())
}

/// Valid history lines to mutate.
fn base_lines() -> Vec<u8> {
    let path = fresh_path();
    record_all(&path, "x\"y\\z\u{1}", "plain", &[3, 1, 4]);
    let text = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text
}

/// Fragments spliced into lines: JSON structure, escapes, edge numbers.
const FRAGMENTS: &[&[u8]] = &[
    b"\"",
    b"\\",
    b"\\u",
    b"\\u0001",
    b"\\ud800",
    b"\\udc00",
    b"{",
    b"}",
    b"[",
    b",",
    b":",
    b"\n",
    b"-1",
    b"1e999",
    b"18446744073709551616",
    b"NaN",
    b"null",
    b"\"kind\":\"counter\"",
    b"\"series\":\"a{b=\\\"",
    b"\xff",
    b"\xe2\x82",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let outcome = replay(&bytes);
        prop_assert!(outcome.is_ok(), "{:?}", String::from_utf8_lossy(&bytes));
        let text = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(replay(text.as_bytes()).unwrap().is_some());
    }

    #[test]
    fn mutated_lines_never_panic(
        edits in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u8>(), any::<usize>()),
            1..8,
        ),
    ) {
        let mut bytes = base_lines();
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        for &(kind, at, byte, k) in &edits {
            let at = at % (bytes.len() + 1);
            match kind % 4 {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.truncate(at),
                _ => {
                    bytes.splice(at..at, FRAGMENTS[k % FRAGMENTS.len()].iter().copied());
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let replayed = replay(text.as_bytes());
        prop_assert!(replayed.is_ok(), "{text:?}");
        let fragments = edits.len();
        let replayed = replayed.unwrap().unwrap();
        prop_assert!(replayed <= lines + fragments, "replayed {replayed} of {lines} lines");
    }

    #[test]
    fn escaped_labels_replay_to_identical_tiers(
        a in prop::collection::vec(0usize..64, 0..12),
        b in prop::collection::vec(0usize..64, 0..12),
        values in prop::collection::vec(0u64..1000, 1..30),
    ) {
        let path = fresh_path();
        let first = record_all(&path, &label(&a), &label(&b), &values);
        let outcome = replays_identically(&first, &path, 3 * values.len());
        let _ = std::fs::remove_file(&path);
        prop_assert!(outcome.is_ok(), "{outcome:?} with labels {:?} {:?}", label(&a), label(&b));
    }
}

#[test]
fn a_control_character_label_replays_as_itself() {
    let path = fresh_path();
    let first = record_all(&path, "a\u{1}b", "\"q\"\\", &[5, 7]);
    let outcome = replays_identically(&first, &path, 6);
    let _ = std::fs::remove_file(&path);
    outcome.unwrap();
}
