//! Hostile input for the journal parsers: arbitrary bytes and mutated
//! valid journals fed to [`ingest_journal`] (the body of a fleet upload,
//! `POST /v1/jobs/:id/journal`), [`parse_header_line`],
//! [`parse_record_line`] and [`Checkpoint::peek`] (a checkpoint file on
//! disk) must come back `Ok` or `Err` — never panic.
//!
//! The inputs deliberately mix multi-byte UTF-8 characters into the
//! places where the parsers expect digits, since an error message that
//! quotes the offending text must not slice through a character.

use proptest::prelude::*;
use seg_engine::{
    header_line, parse_header_line, parse_record_line, record_line, spec_fingerprint, Checkpoint,
    ReplicaRecord, SweepSpec,
};
use seg_shard::ingest_journal;
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Fragments mutations and generated lines are assembled from: digits
/// and journal punctuation, plus 2-, 3- and 4-byte characters.
const PIECES: &[&str] = &[
    "€",
    "é",
    "😀",
    "ß",
    "0",
    "7",
    "42",
    "\"",
    ",",
    ":",
    "{",
    "}",
    "\n",
    "\\",
    " ",
    "-",
    ".",
    "e",
    "inf",
    "NaN",
    "kind",
    "record",
    "header",
    "\"task\":",
    "\"events\":",
    "\u{0}",
];

/// Line prefixes that leave each parser right where it expects a number.
const NUMBER_SITES: &[&str] = &[
    "{\"kind\":\"header\",\"fingerprint\":",
    "{\"kind\":\"header\",\"fingerprint\":1,\"tasks\":",
    "{\"kind\":\"record\",\"task\":",
    "{\"kind\":\"record\",\"task\":0,\"events\":",
];

fn spec() -> SweepSpec {
    SweepSpec::builder()
        .side(16)
        .horizon(1)
        .taus([0.40, 0.45])
        .replicas(2)
        .master_seed(3)
        .build()
}

fn pieces(picks: &[u16]) -> String {
    picks
        .iter()
        .map(|&i| PIECES[usize::from(i) % PIECES.len()])
        .collect()
}

/// A well-formed journal for `spec`: the header plus one record per
/// task.
fn valid_journal(spec: &SweepSpec) -> String {
    let mut text = header_line(spec_fingerprint(spec), spec.task_count());
    text.push('\n');
    for task in spec.tasks() {
        let metrics = BTreeMap::from([
            ("largest_cluster".to_string(), 12.5 + task.task_index as f64),
            ("unhappy".to_string(), 0.0),
        ]);
        let rec = ReplicaRecord {
            task,
            events: 40 + task.task_index as u64,
            wall_secs: 0.0,
            metrics,
        };
        text.push_str(&record_line(&rec));
        text.push('\n');
    }
    text
}

/// Applies each `(op, at, pick)` edit at the character boundary at or
/// before byte `at`: insert a piece, delete one character, or truncate.
fn mutate(text: &str, edits: &[(u8, u16, u16)]) -> String {
    let mut s = text.to_string();
    for &(op, at, pick) in edits {
        let mut at = usize::from(at) % (s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        match op % 4 {
            0 | 1 => s.insert_str(at, pieces(&[pick]).as_str()),
            2 => {
                if let Some(c) = s[at..].chars().next() {
                    s.replace_range(at..at + c.len_utf8(), "");
                }
            }
            _ => s.truncate(at),
        }
    }
    s
}

/// Runs every parser over `bytes`, returning the panic message if one
/// of them panicked. Results are discarded: `Ok` and `Err` both pass.
fn run_parsers(bytes: &[u8], spec: &SweepSpec, file: Option<&PathBuf>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = ingest_journal(bytes, spec);
        for line in String::from_utf8_lossy(bytes).lines() {
            let _ = parse_header_line(line);
            let _ = parse_record_line(line);
        }
        if let Some(path) = file {
            fs::write(path, bytes).unwrap();
            let _ = Checkpoint::peek(path, spec);
        }
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("seg_shard_hostile_journal")
        .join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir.join("ck.jsonl")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let outcome = run_parsers(&bytes, &spec(), None);
        prop_assert!(outcome.is_ok(), "parser panicked: {:?}", outcome);
    }

    #[test]
    fn arbitrary_text_where_a_number_belongs_never_panics(
        site in 0usize..4,
        picks in prop::collection::vec(any::<u16>(), 0..24),
    ) {
        let spec = spec();
        let line = format!("{}{}", NUMBER_SITES[site], pieces(&picks));
        let header = header_line(spec_fingerprint(&spec), spec.task_count());
        for body in [format!("{line}\n"), format!("{header}\n{line}\n")] {
            let outcome = run_parsers(body.as_bytes(), &spec, None);
            prop_assert!(outcome.is_ok(), "parser panicked on {:?}: {:?}", body, outcome);
        }
    }

    #[test]
    fn mutated_valid_journals_never_panic(
        edits in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..8),
    ) {
        let spec = spec();
        let journal = mutate(&valid_journal(&spec), &edits);
        let file = tmp_journal("mutated");
        let outcome = run_parsers(journal.as_bytes(), &spec, Some(&file));
        prop_assert!(outcome.is_ok(), "parser panicked on {:?}: {:?}", journal, outcome);
    }
}

#[test]
fn the_valid_journal_parses() {
    // guards the mutation base: an unmutated journal is accepted whole
    let spec = spec();
    let journal = valid_journal(&spec);
    let ingested = ingest_journal(journal.as_bytes(), &spec).unwrap();
    assert_eq!(ingested.records.len(), spec.task_count());
    let file = tmp_journal("valid");
    fs::write(&file, &journal).unwrap();
    let peeked = Checkpoint::peek(&file, &spec).unwrap();
    assert!(peeked.iter().all(Option::is_some));
}

#[test]
fn a_multibyte_character_where_a_number_belongs_is_a_clean_error() {
    let err = parse_header_line("{\"kind\":\"header\",\"fingerprint\":a€€€€€").unwrap_err();
    assert_eq!(err, "expected a number at \"a€€€€€\"");
}
