//! Hostile input for the journal reader: arbitrary bytes and mutated
//! valid journals fed to [`read_journal`] (the body of a fleet upload,
//! `POST /v1/jobs/:id/journal`, is read straight from the socket) and,
//! through a scratch file, to [`Checkpoint::resume`] (a checkpoint on
//! disk, which also checks UTF-8 and repairs a torn tail) must come back
//! `Ok` or `Err` — never panic. Each `read_journal` call allocates at
//! most a small multiple of its input plus the spec's task list, since
//! an upload body may be as large as the server's `--max-body`.
//!
//! The inputs deliberately mix multi-byte UTF-8 characters into the
//! places where the parser expects digits, since an error message that
//! quotes the offending text must not slice through a character.

use proptest::prelude::*;
use seg_engine::{
    header_line, read_journal, record_line, spec_fingerprint, Checkpoint, JournalError,
    ReplicaRecord, ReplicaTask, SweepSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

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

/// Bytes one `read_journal` call may allocate per input byte: a record
/// line of ~60 bytes becomes a `ReplicaRecord` (whose vector may be
/// mid-growth) plus a metrics map node.
const BYTES_PER_INPUT_BYTE: usize = 16;

/// What one call may allocate beyond [`BYTES_PER_INPUT_BYTE`] per input
/// byte: the spec's task list plus one error message.
fn allowance(spec: &SweepSpec) -> usize {
    spec.task_count() * std::mem::size_of::<ReplicaTask>() + 1024
}

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

/// Reads `text` with [`read_journal`], failing on a panic or on an
/// allocation peak past the bound.
fn read_bounded(text: &str, spec: &SweepSpec) -> Result<(), String> {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let outcome = catch_unwind(AssertUnwindSafe(|| read_journal(text, spec)))
        .map_err(|_| format!("read_journal panicked on {text:?}"))?;
    let allocated = PEAK.with(Cell::get) - before;
    let bound = BYTES_PER_INPUT_BYTE * text.len() + allowance(spec);
    if allocated > bound {
        return Err(format!(
            "read_journal allocated {allocated} bytes (bound {bound}) on {} input bytes ({:?})",
            text.len(),
            outcome.map(|j| j.records.len())
        ));
    }
    Ok(())
}

/// Runs the reader over `bytes` — directly, and, given a scratch `file`,
/// through [`Checkpoint::resume`] — reporting a panic or a broken bound.
/// A resume that succeeds must leave a journal that reads back whole:
/// the torn tail cut off, a header present.
fn run_reader(bytes: &[u8], spec: &SweepSpec, file: Option<&PathBuf>) -> Result<(), String> {
    read_bounded(&String::from_utf8_lossy(bytes), spec)?;
    let Some(path) = file else { return Ok(()) };
    fs::write(path, bytes).unwrap();
    let resumed = catch_unwind(AssertUnwindSafe(|| Checkpoint::resume(path, spec).is_ok()))
        .map_err(|_| "Checkpoint::resume panicked".to_string())?;
    if resumed {
        let text = fs::read_to_string(path).unwrap();
        match read_journal(&text, spec) {
            Ok(j) if j.complete_len == text.len() && j.complete_len > 0 => {}
            other => return Err(format!("resume left {text:?}, which reads as {other:?}")),
        }
    }
    Ok(())
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
        let outcome = run_reader(&bytes, &spec(), None);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
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
            let outcome = run_reader(body.as_bytes(), &spec, None);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }

    #[test]
    fn mutated_valid_journals_never_panic(
        edits in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..8),
    ) {
        let spec = spec();
        let journal = mutate(&valid_journal(&spec), &edits);
        let file = tmp_journal("mutated");
        let outcome = run_reader(journal.as_bytes(), &spec, Some(&file));
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}

#[test]
fn the_valid_journal_parses() {
    // guards the mutation base: an unmutated journal is accepted whole
    let spec = spec();
    let journal = valid_journal(&spec);
    let read = read_journal(&journal, &spec).unwrap();
    assert_eq!(read.records.len(), spec.task_count());
    let file = tmp_journal("valid");
    fs::write(&file, &journal).unwrap();
    let (resumed, _) = Checkpoint::resume(&file, &spec).unwrap();
    assert!(resumed.iter().all(Option::is_some));
}

#[test]
fn a_multibyte_character_where_a_number_belongs_is_a_clean_error() {
    let err = read_journal("{\"kind\":\"header\",\"fingerprint\":a€€€€€\n", &spec()).unwrap_err();
    assert_eq!(
        err,
        JournalError::Corrupt {
            line: 1,
            reason: "expected a number at \"a€€€€€\"".into()
        }
    );
}

#[test]
fn invalid_utf8_on_disk_is_a_clean_error_and_a_torn_tail_is_repaired() {
    let spec = spec();
    let file = tmp_journal("utf8");
    let mut bytes = valid_journal(&spec).into_bytes();
    bytes.extend_from_slice(b"{\"kind\":\"record\",\"task\":\xff");
    fs::write(&file, &bytes).unwrap();
    let err = Checkpoint::resume(&file, &spec).unwrap_err();
    assert!(err.to_string().contains("not valid UTF-8"), "{err}");
    let torn = format!("{}{{\"kind\":\"record\",\"ta", valid_journal(&spec));
    assert!(run_reader(torn.as_bytes(), &spec, Some(&file)).is_ok());
    assert_eq!(fs::read_to_string(&file).unwrap(), valid_journal(&spec));
}

/// The densest allocation per input byte the format allows: short
/// record lines with one metric each, and bare trace lines.
#[test]
fn dense_journals_stay_within_the_allocation_bound() {
    let spec = spec();
    let mut records = header_line(spec_fingerprint(&spec), spec.task_count());
    records.push('\n');
    let mut spans = records.clone();
    for i in 0..2000 {
        let task = i % spec.task_count();
        records.push_str(&format!(
            "{{\"kind\":\"record\",\"task\":{task},\"events\":0,\"metrics\":{{\"a\":0}}}}\n"
        ));
        spans.push_str("\"kind\":\"span\"\n");
    }
    read_bounded(&records, &spec).unwrap();
    read_bounded(&spans, &spec).unwrap();
}
