//! Checkpoint/resume for long sweeps.
//!
//! A checkpoint is a JSON-Lines journal of completed replicas: one header
//! line binding the file to its [`SweepSpec`] (via a fingerprint of every
//! spec field), then one line per finished `(point, replica)` task. The
//! engine appends a line the moment a replica completes and flushes it,
//! so killing a sweep loses at most the replicas that were in flight.
//!
//! On restart with the same spec, [`Checkpoint::resume`] reads the
//! journal back through [`read_journal`], the engine skips every
//! recorded task, and — because replica seeds derive from indices
//! alone — the merged result is **bit-identical** to an uninterrupted
//! run at any thread count (property-tested in `tests/checkpoint.rs`).
//!
//! Failure handling is deliberately asymmetric:
//!
//! - a *partial trailing line* (the process died mid-write) is expected
//!   and silently dropped — that replica simply reruns;
//! - any *complete but malformed* line, or a header whose fingerprint
//!   does not match the spec (the flags changed between runs), is a
//!   clean [`CheckpointError`] — never a panic.
//!
//! Metric values are serialized with the same shortest-round-trip
//! formatting as the sinks, with `inf`/`-inf`/`NaN` spelled out, so a
//! resumed sweep reproduces sink output byte for byte.
//!
//! Sharded sweeps reuse the same journal format: each `--shard i/M`
//! worker appends to its own [`shard_journal_path`] next to the base
//! path, and any resume absorbs every sibling journal it finds — so
//! "merge the shards" is simply "resume the base journal". A fleet
//! coordinator reads the shard journals its workers upload with the same
//! [`read_journal`], so a file and an upload body pass one validator.

use crate::replica::ReplicaRecord;
use crate::sink::{create_parent_dirs, push_f64};
use crate::spec::{ShardIndex, SweepSpec};
use seg_obs::{parse_json_string, write_json_string};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the journal failed.
    Io(io::Error),
    /// A complete line of the journal does not parse.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The journal was written by a different spec (flags changed
    /// between the original run and the resume).
    SpecMismatch {
        /// The journal path.
        path: PathBuf,
    },
    /// The `--out` sink could not be used: its existing output was
    /// written by a different sweep, or it could not be opened.
    Sink {
        /// The sink path.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { path, line, reason } => write!(
                f,
                "corrupt checkpoint {} (line {line}): {reason}; delete the file to start over",
                path.display()
            ),
            CheckpointError::SpecMismatch { path } => write!(
                f,
                "checkpoint {} was written by a different sweep (the spec changed); \
                 rerun with the original flags or delete the file to start over",
                path.display()
            ),
            CheckpointError::Sink { path, source } => {
                write!(f, "sink {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Mixes every spec field into a single fingerprint so a journal can
/// refuse to resume under changed flags. Floats are hashed by bit
/// pattern; the derivation uses the same SplitMix64 finalizer as
/// [`crate::spec::derive_replica_seed`].
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    fn absorb(h: u64, v: u64) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        mix(h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }
    let mut h = absorb(0x5E67_2017, spec.master_seed());
    h = absorb(h, spec.replicas() as u64);
    h = absorb(h, spec.max_events());
    h = absorb(h, spec.seed_mode() as u64);
    h = absorb(h, spec.points().len() as u64);
    for p in spec.points() {
        h = absorb(h, p.side as u64);
        h = absorb(h, p.horizon as u64);
        h = absorb(h, p.tau.to_bits());
        h = absorb(h, p.density.to_bits());
        // the label distinguishes variants including their payloads
        for b in p.variant.label().bytes() {
            h = absorb(h, b as u64);
        }
        h = absorb(h, p.budget.map_or(u64::MAX, |b| b ^ 0x5BAD));
    }
    h
}

/// The journal a shard worker appends to when one sweep is partitioned
/// across processes: `dir/ck.jsonl` → `dir/ck.shard0of4.jsonl`. Every
/// shard journal of one sweep lives next to the base path, so the merge
/// step discovers them with [`find_shard_journals`].
pub fn shard_journal_path(base: &Path, shard: ShardIndex) -> PathBuf {
    let stem = base
        .file_stem()
        .map_or_else(|| "checkpoint".into(), |s| s.to_string_lossy().into_owned());
    let name = match base.extension() {
        Some(e) => format!(
            "{stem}.shard{}of{}.{}",
            shard.index,
            shard.count,
            e.to_string_lossy()
        ),
        None => format!("{stem}.shard{}of{}", shard.index, shard.count),
    };
    base.with_file_name(name)
}

fn is_shard_tag(s: &str) -> bool {
    s.split_once("of").is_some_and(|(i, m)| {
        !i.is_empty()
            && !m.is_empty()
            && i.bytes().all(|c| c.is_ascii_digit())
            && m.bytes().all(|c| c.is_ascii_digit())
    })
}

/// Every shard journal sitting next to the base checkpoint path
/// (`ck.shard<I>of<M>.jsonl` for the base `ck.jsonl`), sorted by file
/// name so absorption order is deterministic. Journals written under
/// different shard counts are all returned — records are keyed by global
/// task index, so they merge regardless of how the sweep was split.
///
/// # Errors
///
/// Any I/O error from listing the directory (a missing directory is an
/// empty result, not an error).
pub fn find_shard_journals(base: &Path) -> io::Result<Vec<PathBuf>> {
    let dir = match base.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let stem = base
        .file_stem()
        .map_or_else(|| "checkpoint".into(), |s| s.to_string_lossy().into_owned());
    let prefix = format!("{stem}.shard");
    let suffix = base
        .extension()
        .map(|e| format!(".{}", e.to_string_lossy()))
        .unwrap_or_default();
    let mut out = Vec::new();
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(tag) = name
                    .strip_prefix(&prefix)
                    .and_then(|r| r.strip_suffix(&suffix))
                {
                    if is_shard_tag(tag) {
                        out.push(entry.path());
                    }
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    out.sort();
    Ok(out)
}

/// What scanning one journal file found (besides its records).
struct JournalScan {
    /// The file had no (valid) header line yet.
    needs_header: bool,
    /// Byte length to truncate to before appending, when the file ends
    /// in a torn partial line.
    truncate_to: Option<u64>,
}

/// Reads one journal file through [`read_journal`], absorbing its
/// records into `completed` (last write wins — duplicates across
/// journals are identical by determinism). Returns `None` when the file
/// does not exist. A torn tail's byte offset is reported so the *owner*
/// of the file can cut it off — readers of other processes' journals
/// must leave it alone, since the writer may still be mid-append. Trace
/// lines ride on fleet uploads only; in a file they are corruption.
fn scan_journal(
    path: &Path,
    spec: &SweepSpec,
    completed: &mut [Option<ReplicaRecord>],
) -> Result<Option<JournalScan>, CheckpointError> {
    let corrupt = |line: usize, reason: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        line,
        reason,
    };
    let text = match std::fs::read(path) {
        Ok(bytes) => {
            String::from_utf8(bytes).map_err(|_| corrupt(0, "journal is not valid UTF-8".into()))?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let journal = read_journal(&text, spec).map_err(|e| match e {
        JournalError::Corrupt { line, reason } => corrupt(line, reason),
        JournalError::SpecMismatch => CheckpointError::SpecMismatch {
            path: path.to_path_buf(),
        },
    })?;
    if let Some((line, _)) = journal.spans.first() {
        return Err(corrupt(*line, "line is not a record".into()));
    }
    for rec in journal.records {
        let index = rec.task.task_index;
        completed[index] = Some(rec);
    }
    Ok(Some(JournalScan {
        needs_header: journal.complete_len == 0,
        truncate_to: (journal.complete_len < text.len()).then_some(journal.complete_len as u64),
    }))
}

/// An open checkpoint journal the engine appends completed replicas to.
///
/// Construct with [`Checkpoint::resume`]; pass the already-completed
/// records to the engine and hand it the journal for the rest.
#[derive(Debug)]
pub struct Checkpoint {
    writer: Mutex<BufWriter<File>>,
}

impl Checkpoint {
    /// Opens (or creates) the journal at `path` for `spec`, returning
    /// the records it already holds — indexed by task, `None` where the
    /// task has not completed — and the journal handle for appending.
    /// Missing parent directories are created.
    ///
    /// Shard journals written next to `path` by `--shard` workers (see
    /// [`shard_journal_path`]) are absorbed read-only, so resuming the
    /// base journal after a sharded run *is* the merge step: every
    /// replica any shard completed is skipped, and only genuine
    /// leftovers rerun.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::SpecMismatch`] when any journal belongs to a
    /// different spec, [`CheckpointError::Corrupt`] for a malformed
    /// complete line, [`CheckpointError::Io`] for filesystem failures.
    pub fn resume(
        path: &Path,
        spec: &SweepSpec,
    ) -> Result<(Vec<Option<ReplicaRecord>>, Checkpoint), CheckpointError> {
        Checkpoint::resume_sharded(path, spec, None)
    }

    /// [`Checkpoint::resume`] for one worker of a sharded sweep: the
    /// worker's own journal is [`shard_journal_path`]`(base, shard)` —
    /// that is what gets created, truncated after a torn write, and
    /// appended to — while the base journal and every *other* shard
    /// journal are absorbed read-only (their torn trailing lines are
    /// tolerated but never truncated: their writers may be mid-append).
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::resume`].
    pub(crate) fn resume_sharded(
        base: &Path,
        spec: &SweepSpec,
        shard: Option<ShardIndex>,
    ) -> Result<(Vec<Option<ReplicaRecord>>, Checkpoint), CheckpointError> {
        let mut completed: Vec<Option<ReplicaRecord>> = vec![None; spec.task_count()];
        let own = match shard {
            Some(s) => shard_journal_path(base, s),
            None => base.to_path_buf(),
        };
        // absorb the read-only siblings first: the base journal (when a
        // worker resumes) and every shard journal that is not our own
        let mut siblings = find_shard_journals(base)?;
        if shard.is_some() {
            siblings.insert(0, base.to_path_buf());
        }
        for sibling in siblings {
            if sibling.file_name() == own.file_name() {
                continue;
            }
            scan_journal(&sibling, spec, &mut completed)?;
        }
        // then our own journal, which we may repair (truncate a torn
        // trailing write) and will append to
        let scan = scan_journal(&own, spec, &mut completed)?;
        let (needs_header, truncate_to) = match scan {
            Some(s) => (s.needs_header, s.truncate_to),
            None => (true, None),
        };
        if let Some(len) = truncate_to {
            // cut the fragment off before appending, or the next record
            // would glue onto it and corrupt the journal
            OpenOptions::new().write(true).open(&own)?.set_len(len)?;
        }
        create_parent_dirs(&own)?;
        let file = OpenOptions::new().create(true).append(true).open(&own)?;
        let mut writer = BufWriter::new(file);
        if needs_header {
            writeln!(
                writer,
                "{}",
                header_line(spec_fingerprint(spec), spec.task_count())
            )?;
            writer.flush()?;
        }
        Ok((
            completed,
            Checkpoint {
                writer: Mutex::new(writer),
            },
        ))
    }

    /// Appends one completed replica and flushes, so a kill after this
    /// call never loses the record.
    ///
    /// # Errors
    ///
    /// Any I/O error from the append.
    pub fn append(&self, rec: &ReplicaRecord) -> io::Result<()> {
        let mut line = Vec::with_capacity(256);
        push_record_line(&mut line, rec);
        line.push(b'\n');
        let mut w = self.writer.lock().expect("checkpoint writer poisoned");
        w.write_all(&line)?;
        w.flush()
    }
}

/// The header line of a journal for a spec with `tasks` tasks and the
/// given [`spec_fingerprint`], without the trailing newline. Fleet
/// workers build in-memory journals with this plus [`record_line`], so
/// an uploaded shard journal is byte-compatible with one the engine
/// wrote to disk.
pub fn header_line(fingerprint: u64, tasks: usize) -> String {
    format!("{{\"kind\":\"header\",\"fingerprint\":{fingerprint},\"tasks\":{tasks}}}")
}

/// One record's journal line, without the trailing newline — the exact
/// bytes [`Checkpoint::append`] writes. Metric values use the same
/// shortest-round-trip formatting as the sinks, so journals built from
/// this merge bit-identically.
pub fn record_line(rec: &ReplicaRecord) -> String {
    let mut line = Vec::with_capacity(256);
    push_record_line(&mut line, rec);
    String::from_utf8(line).expect("a journal line is UTF-8")
}

/// Appends [`record_line`]'s bytes to `buf`.
fn push_record_line(buf: &mut Vec<u8>, rec: &ReplicaRecord) {
    write!(
        buf,
        "{{\"kind\":\"record\",\"task\":{},\"events\":{},\"metrics\":{{",
        rec.task.task_index, rec.events
    )
    .expect("writing to a Vec cannot fail");
    for (i, (k, v)) in rec.metrics.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        write_json_string(buf, k).expect("writing to a Vec cannot fail");
        buf.push(b':');
        push_f64(buf, *v);
    }
    buf.extend_from_slice(b"}}");
}

/// Why [`read_journal`] refused a journal.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalError {
    /// A complete line does not parse.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The header carries another spec's fingerprint or task count.
    SpecMismatch,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Corrupt { line, reason } => write!(f, "journal line {line}: {reason}"),
            JournalError::SpecMismatch => f.write_str("journal was written by a different spec"),
        }
    }
}

impl std::error::Error for JournalError {}

/// What [`read_journal`] found in one journal.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// The replica records, in journal order. They carry `wall_secs:
    /// 0.0` like any resumed record.
    pub records: Vec<ReplicaRecord>,
    /// `seg_obs` trace lines (`"kind":"span"` / `"kind":"event"`, the
    /// tracer's JSONL schema) interleaved with the records, verbatim,
    /// each with its 1-based line number. Fleet workers ship their slice
    /// of a job's distributed trace this way.
    pub spans: Vec<(usize, String)>,
    /// Bytes up to and including the last newline. The journal holds a
    /// header exactly when this is non-zero; anything past it is a torn
    /// tail (the writer died mid-line) and was dropped.
    pub complete_len: usize,
}

/// Reads one journal — a checkpoint file's contents or a fleet upload
/// body — validated against `spec`. This is the only parser of the
/// format: the first complete line must be a header carrying the spec's
/// fingerprint and task count, every further one a record with an
/// in-range task index or a trace line (see [`Journal::spans`]). A torn
/// trailing fragment is dropped, so a journal cut off mid-line loses at
/// most that line; text with no complete line at all reads as empty.
///
/// # Errors
///
/// [`JournalError::SpecMismatch`] for another spec's header,
/// [`JournalError::Corrupt`] for a malformed complete line — never a
/// panic, whatever the bytes.
pub fn read_journal(text: &str, spec: &SweepSpec) -> Result<Journal, JournalError> {
    fn header(line: &str) -> Result<(u64, u64), String> {
        let rest = line
            .strip_prefix("{\"kind\":\"header\",\"fingerprint\":")
            .ok_or("first line is not a checkpoint header")?;
        let (fp, rest) = take_u64(rest)?;
        let rest = rest
            .strip_prefix(",\"tasks\":")
            .ok_or("header missing task count")?;
        let (ntasks, rest) = take_u64(rest)?;
        if rest != "}" {
            return Err("trailing bytes after header".into());
        }
        Ok((fp, ntasks))
    }
    fn record(line: &str) -> Result<(usize, u64, BTreeMap<String, f64>), String> {
        let rest = line
            .strip_prefix("{\"kind\":\"record\",\"task\":")
            .ok_or("line is not a record")?;
        let (index, rest) = take_u64(rest)?;
        let rest = rest
            .strip_prefix(",\"events\":")
            .ok_or("record missing events")?;
        let (events, rest) = take_u64(rest)?;
        let mut rest = rest
            .strip_prefix(",\"metrics\":{")
            .ok_or("record missing metrics")?;
        let mut metrics = BTreeMap::new();
        if let Some(tail) = rest.strip_prefix("}}") {
            if !tail.is_empty() {
                return Err("trailing bytes after record".into());
            }
            return Ok((index as usize, events, metrics));
        }
        loop {
            let (name, r) = parse_json_string(rest).map_err(|e| format!("bad metric name: {e}"))?;
            let r = r
                .strip_prefix(':')
                .ok_or("expected ':' after metric name")?;
            let end = r.find([',', '}']).ok_or("unterminated metric value")?;
            let value: f64 = r[..end]
                .parse()
                .map_err(|_| format!("bad metric value {:?}", &r[..end]))?;
            metrics.insert(name, value);
            match &r[end..end + 1] {
                "," => rest = &r[end + 1..],
                _ => {
                    if &r[end..] != "}}" {
                        return Err("trailing bytes after record".into());
                    }
                    return Ok((index as usize, events, metrics));
                }
            }
        }
    }
    /// The `"kind":"..."` discriminator. Safe on this format because
    /// `kind` precedes the tracer's free-form `detail` field, and string
    /// escaping keeps a literal `"kind":"` out of earlier values.
    fn kind(line: &str) -> Option<&str> {
        let rest = &line[line.find("\"kind\":\"")? + 8..];
        Some(&rest[..rest.find('"')?])
    }

    let complete_len = text.rfind('\n').map_or(0, |i| i + 1);
    let mut journal = Journal {
        complete_len,
        ..Journal::default()
    };
    if complete_len == 0 {
        return Ok(journal);
    }
    let tasks = spec.tasks();
    for (i, line) in text[..complete_len].lines().enumerate() {
        let corrupt = |reason: String| JournalError::Corrupt {
            line: i + 1,
            reason,
        };
        if i == 0 {
            let (fp, ntasks) = header(line).map_err(corrupt)?;
            if fp != spec_fingerprint(spec) || ntasks != tasks.len() as u64 {
                return Err(JournalError::SpecMismatch);
            }
        } else if matches!(kind(line), Some("span" | "event")) {
            journal.spans.push((i + 1, line.to_string()));
        } else {
            let (index, events, metrics) = record(line).map_err(corrupt)?;
            let task = *tasks
                .get(index)
                .ok_or_else(|| corrupt(format!("task index {index} out of range")))?;
            journal.records.push(ReplicaRecord {
                task,
                events,
                wall_secs: 0.0,
                metrics,
            });
        }
    }
    Ok(journal)
}

fn take_u64(s: &str) -> Result<(u64, &str), String> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        // quote at most 12 characters, cut at a character boundary: the
        // input is untrusted and may hold multi-byte characters anywhere
        let snippet: String = s.chars().take(12).collect();
        return Err(format!("expected a number at {snippet:?}"));
    }
    let v = s[..end]
        .parse()
        .map_err(|_| format!("number out of range: {:?}", &s[..end]))?;
    Ok((v, &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpecBuilder;

    fn spec(seed: u64) -> SweepSpec {
        SweepSpecBuilder::default()
            .side(32)
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(2)
            .master_seed(seed)
            .build()
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = spec(1);
        assert_eq!(spec_fingerprint(&base), spec_fingerprint(&spec(1)));
        assert_ne!(spec_fingerprint(&base), spec_fingerprint(&spec(2)));
        let more_replicas = SweepSpecBuilder::default()
            .side(32)
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(3)
            .master_seed(1)
            .build();
        assert_ne!(spec_fingerprint(&base), spec_fingerprint(&more_replicas));
    }

    /// `spec(1)`'s journal header followed by `lines`, one per line.
    fn journal(lines: &[&str]) -> String {
        let s = spec(1);
        let mut text = header_line(spec_fingerprint(&s), s.task_count());
        for line in lines {
            text.push('\n');
            text.push_str(line);
        }
        text.push('\n');
        text
    }

    #[test]
    fn header_and_record_round_trip() {
        let text = journal(&[
            "{\"kind\":\"record\",\"task\":2,\"events\":9,\"metrics\":{\"a\":1.5,\"b\":-inf}}",
            "{\"kind\":\"record\",\"task\":0,\"events\":0,\"metrics\":{}}",
        ]);
        let read = read_journal(&text, &spec(1)).unwrap();
        assert_eq!(read.complete_len, text.len());
        let (a, b) = (&read.records[0], &read.records[1]);
        assert_eq!((a.task.task_index, a.events), (2, 9));
        assert_eq!(a.task, spec(1).tasks()[2]);
        assert_eq!(a.metrics.get("a"), Some(&1.5));
        assert_eq!(a.metrics.get("b"), Some(&f64::NEG_INFINITY));
        assert!(b.metrics.is_empty());
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "{\"kind\":\"record\",\"task\":x,\"events\":9,\"metrics\":{}}",
            "{\"kind\":\"record\",\"task\":2}",
            "not json at all",
            "{\"kind\":\"record\",\"task\":2,\"events\":9,\"metrics\":{\"a\":}}",
        ] {
            let err = read_journal(&journal(&[bad]), &spec(1)).unwrap_err();
            assert!(
                matches!(err, JournalError::Corrupt { line: 2, .. }),
                "{bad:?}: {err:?}"
            );
        }
        assert!(matches!(
            read_journal("{\"kind\":\"header\"}\n", &spec(1)),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
        assert_eq!(
            read_journal(&journal(&[]), &spec(2)).unwrap_err(),
            JournalError::SpecMismatch
        );
    }

    #[test]
    fn a_torn_tail_is_dropped_and_measured() {
        let mut text = journal(&["{\"kind\":\"record\",\"task\":1,\"events\":7,\"metrics\":{}}"]);
        let complete = text.len();
        text.push_str("{\"kind\":\"record\",\"task\":3,\"ev");
        let read = read_journal(&text, &spec(1)).unwrap();
        assert_eq!(read.records.len(), 1);
        assert_eq!(read.complete_len, complete);
        // a torn header leaves nothing complete: an empty journal
        let torn = read_journal("{\"kind\":\"hea", &spec(1)).unwrap();
        assert!(torn.records.is_empty() && torn.complete_len == 0);
    }

    #[test]
    fn trace_lines_pass_through_but_a_file_holding_one_is_corrupt() {
        let span = "{\"t_us\":5,\"unix_us\":99,\"kind\":\"span\",\"name\":\"work.run\",\
                    \"detail\":\"job x\",\"dur_us\":3,\"trace_id\":\"abc\"}";
        let event = "{\"t_us\":1,\"kind\":\"event\",\"name\":\"work.claim\",\"detail\":\"\"}";
        let record = "{\"kind\":\"record\",\"task\":0,\"events\":7,\"metrics\":{}}";
        let text = journal(&[event, record, span]);
        let read = read_journal(&text, &spec(1)).unwrap();
        assert_eq!(read.records.len(), 1);
        assert_eq!(
            read.spans,
            vec![(2, event.to_string()), (4, span.to_string())]
        );
        let dir = std::env::temp_dir().join("seg_engine_ckpt_span_file");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.jsonl");
        std::fs::write(&path, &text).unwrap();
        match Checkpoint::resume(&path, &spec(1)) {
            Err(CheckpointError::Corrupt { line: 2, .. }) => {}
            other => panic!("expected a corrupt line 2, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn shard_journal_paths_derive_from_the_base() {
        let base = PathBuf::from("runs/ck.jsonl");
        assert_eq!(
            shard_journal_path(&base, ShardIndex::new(0, 2)),
            PathBuf::from("runs/ck.shard0of2.jsonl")
        );
        assert_eq!(
            shard_journal_path(Path::new("ck"), ShardIndex::new(3, 8)),
            PathBuf::from("ck.shard3of8")
        );
    }

    #[test]
    fn shard_journal_discovery_matches_only_the_pattern() {
        let dir = std::env::temp_dir().join("seg_engine_shard_discovery");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("ck.jsonl");
        for name in [
            "ck.shard0of2.jsonl",
            "ck.shard1of2.jsonl",
            "ck.shard0of3.jsonl", // different count still matches
            "ck.jsonl",           // the base itself is not a shard journal
            "ck.shardXof2.jsonl", // malformed tag
            "other.shard0of2.jsonl",
            "ck.shard0of2.csv",
        ] {
            std::fs::write(dir.join(name), "").unwrap();
        }
        let found = find_shard_journals(&base).unwrap();
        let names: Vec<String> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "ck.shard0of2.jsonl",
                "ck.shard0of3.jsonl",
                "ck.shard1of2.jsonl"
            ]
        );
        // a missing directory is an empty result, not an error
        assert!(find_shard_journals(&dir.join("nowhere").join("ck.jsonl"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn resume_creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join("seg_engine_ckpt_mkdir");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep").join("nested").join("ck.jsonl");
        let spec = spec(3);
        let (_completed, _journal) = Checkpoint::resume(&path, &spec).unwrap();
        assert!(path.exists());
    }
}
