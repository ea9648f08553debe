//! Structured output sinks for sweep results.
//!
//! Two formats cover the harness's needs: CSV for spreadsheet/plotting
//! pipelines, and JSON Lines for streaming/ingest pipelines. Both write
//! one row/object per replica with the parameter point inlined, columns
//! in a deterministic order, so files are byte-identical across runs and
//! thread counts.
//!
//! Two delivery modes share those formats:
//!
//! - [`Sink::write`] buffers until the sweep finishes and writes the
//!   whole file at once;
//! - [`StreamingSink`], which every `--out` uses, appends each row the
//!   moment its replica completes, releasing rows strictly in task
//!   order (out-of-order completions are parked) so the file on disk
//!   is always a prefix of the final one — `tail -f` a multi-hour
//!   sweep, or kill it and let the resumed run append from where the
//!   file stops. The final bytes are the buffered writer's, except
//!   that a CSV header keeps a declared metric no replica produced.
//!
//! All sinks create missing parent directories instead of erroring on
//! first write.

use crate::observe::Observer;
use crate::replica::{columns, ReplicaRecord, EVENTS};
use crate::run::SweepResult;
use crate::spec::ReplicaTask;
use crate::spec::SweepSpec;
use seg_analysis::csv::{write_cell, CsvWriter};
use seg_obs::write_json_string;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Creates the missing ancestors of `path`'s directory, so sweeps can
/// write their first output into a directory that does not exist yet.
pub(crate) fn create_parent_dirs(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

/// Where and how to write per-replica rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sink {
    /// RFC-4180-style CSV with a header row.
    Csv(PathBuf),
    /// One JSON object per line.
    Jsonl(PathBuf),
}

impl Sink {
    /// Writes every replica record of `result`, creating missing parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write(&self, result: &SweepResult) -> io::Result<()> {
        create_parent_dirs(self.path())?;
        match self {
            Sink::Csv(path) => write_records_csv(path, result),
            Sink::Jsonl(path) => write_records_jsonl(path, result),
        }
    }

    /// The sink's output path.
    pub(crate) fn path(&self) -> &Path {
        match self {
            Sink::Csv(p) | Sink::Jsonl(p) => p,
        }
    }

    /// Opens this sink for streaming: rows append as replicas finish
    /// instead of buffering to the end (see [`StreamingSink`]).
    ///
    /// `metric_columns` fixes the CSV metric columns up front (the
    /// buffered writer derives them from the finished result; a stream
    /// cannot). Pass the same set the buffered writer would use — the
    /// sorted union of metric names — for byte-identical files. JSONL
    /// rows are self-describing, so the columns are ignored there.
    ///
    /// # Errors
    ///
    /// Any I/O error, and [`io::ErrorKind::InvalidData`] when `resume`
    /// finds an existing file that does not match this sweep.
    pub fn stream(
        &self,
        spec: &SweepSpec,
        metric_columns: &[String],
        resume: bool,
    ) -> io::Result<StreamingSink> {
        match self {
            Sink::Csv(path) => StreamingSink::csv(path, spec, metric_columns, resume),
            Sink::Jsonl(path) => StreamingSink::jsonl(path, spec, resume),
        }
    }
}

/// The fixed (non-metric) columns, in order.
const BASE_COLUMNS: [&str; 8] = [
    "point", "replica", "seed", "side", "horizon", "tau", "density", "variant",
];

/// Predicts the metric columns a sweep will produce — the sorted union,
/// over every point's variant, of the dynamics' own metrics (the column
/// table in the engine's `replica` module) and each observer's
/// (`Observer::metric_names`) — without running anything. Always
/// `Some`: every observer declares its metric names up front (an
/// [`Observer::Custom`] contributes its declaration). The `Option`
/// return type is kept for existing callers.
///
/// A streaming CSV sink writes this as its header before the first
/// replica runs. It equals [`SweepResult::metric_names`] of the finished
/// sweep (tested for every variant), which the buffered writer uses,
/// unless no replica produced some declared custom metric: the buffered
/// header then lacks that column.
pub fn expected_metric_columns(spec: &SweepSpec, observers: &[Observer]) -> Option<Vec<String>> {
    let mut names = BTreeSet::new();
    for point in spec.points() {
        let (own, _) = columns(&point.variant);
        names.extend(EVENTS.iter().chain(own).map(|s| s.to_string()));
        for o in observers {
            names.extend(o.metric_names(&point.variant));
        }
    }
    Some(names.into_iter().collect())
}

/// Appends the shortest round-trip decimal of `x` (serde-style) to
/// `buf`: its `Display`, with `.0` after an integral value (`3` renders
/// `3.0`) and `inf`, `-inf` and `NaN` spelled out, so output is compact
/// and bit-faithful.
pub(crate) fn push_f64(buf: &mut Vec<u8>, x: f64) {
    let start = buf.len();
    write!(buf, "{x}").expect("writing to a Vec cannot fail");
    // a finite value's `Display` is integral unless it holds a `.`
    if !buf[start..]
        .iter()
        .any(|&b| matches!(b, b'.' | b'e' | b'i' | b'N'))
    {
        buf.extend_from_slice(b".0");
    }
}

/// [`push_f64`] as a string.
pub(crate) fn format_f64(x: f64) -> String {
    let mut buf = Vec::with_capacity(24);
    push_f64(&mut buf, x);
    String::from_utf8(buf).expect("a float renders as ASCII")
}

/// The CSV header cells for the given metric columns.
fn csv_header(metrics: &[String]) -> Vec<String> {
    BASE_COLUMNS
        .iter()
        .map(|s| s.to_string())
        .chain(metrics.iter().cloned())
        .collect()
}

/// One CSV row (quoting included, trailing newline included) as bytes.
fn render_csv_row<S: AsRef<str>>(cells: &[S]) -> Vec<u8> {
    let mut buf = Vec::new();
    CsvWriter::new(&mut buf)
        .write_row(cells)
        .expect("writing to a Vec cannot fail");
    buf
}

/// Appends the CSV cells of a task's parameters, the columns of
/// [`BASE_COLUMNS`], without a trailing separator.
fn push_csv_base(buf: &mut Vec<u8>, task: &ReplicaTask) {
    let p = task.point;
    write!(
        buf,
        "{},{},{},{},{},",
        task.point_index, task.replica, task.seed, p.side, p.horizon
    )
    .expect("writing to a Vec cannot fail");
    push_f64(buf, p.tau);
    buf.push(b',');
    push_f64(buf, p.density);
    buf.push(b',');
    write_cell(buf, &p.variant.label()).expect("writing to a Vec cannot fail");
}

/// Appends one CSV row of a record under a fixed metric-column set
/// (metrics the record lacks render as empty cells), newline included.
fn push_csv_row(buf: &mut Vec<u8>, rec: &ReplicaRecord, metrics: &[String]) {
    push_csv_base(buf, &rec.task);
    for m in metrics {
        buf.push(b',');
        if let Some(v) = rec.metric(m) {
            push_f64(buf, v);
        }
    }
    buf.push(b'\n');
}

/// Appends the parameter prefix of a JSONL row — everything before the
/// metrics — which is a pure function of the task.
fn push_jsonl_base(buf: &mut Vec<u8>, task: &ReplicaTask) {
    let p = task.point;
    write!(
        buf,
        "{{\"point\":{},\"replica\":{},\"seed\":{},\"side\":{},\"horizon\":{},\"tau\":",
        task.point_index, task.replica, task.seed, p.side, p.horizon
    )
    .expect("writing to a Vec cannot fail");
    push_f64(buf, p.tau);
    buf.extend_from_slice(b",\"density\":");
    push_f64(buf, p.density);
    buf.extend_from_slice(b",\"variant\":");
    write_json_string(buf, &p.variant.label()).expect("writing to a Vec cannot fail");
}

/// Appends one JSONL object for a record, newline included. Metric
/// values are JSON numbers, so a non-finite one renders as `null`.
fn push_jsonl_row(buf: &mut Vec<u8>, rec: &ReplicaRecord) {
    push_jsonl_base(buf, &rec.task);
    for (k, v) in &rec.metrics {
        buf.push(b',');
        write_json_string(buf, k).expect("writing to a Vec cannot fail");
        buf.push(b':');
        if v.is_finite() {
            push_f64(buf, *v);
        } else {
            buf.extend_from_slice(b"null");
        }
    }
    buf.extend_from_slice(b"}\n");
}

fn write_records_csv(path: &Path, result: &SweepResult) -> io::Result<()> {
    let metrics = result.metric_names();
    let f = std::fs::File::create(path)?;
    let mut out = BufWriter::new(f);
    out.write_all(&render_csv_row(&csv_header(&metrics)))?;
    let mut row = Vec::new();
    for rec in result.records() {
        row.clear();
        push_csv_row(&mut row, rec, &metrics);
        out.write_all(&row)?;
    }
    out.flush()
}

fn write_records_jsonl(path: &Path, result: &SweepResult) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut out = BufWriter::new(f);
    let mut row = Vec::new();
    for rec in result.records() {
        row.clear();
        push_jsonl_row(&mut row, rec);
        out.write_all(&row)?;
    }
    out.flush()
}

/// Which row format a [`StreamingSink`] emits.
enum StreamFormat {
    /// CSV under a fixed metric-column set.
    Csv { metrics: Vec<String> },
    /// Self-describing JSON Lines.
    Jsonl,
}

struct StreamState {
    out: BufWriter<File>,
    /// The next task index to emit; rows before it are already on disk.
    next: usize,
    /// The rendered rows of completed records waiting for their
    /// predecessors.
    parked: BTreeMap<usize, Vec<u8>>,
}

/// A sink that appends rows **as replicas finish** instead of buffering
/// the whole sweep — the live-output companion of [`Sink::write`].
///
/// Rows are released strictly in task order: a record that completes
/// early is parked until every earlier task's row is on disk. The file
/// is therefore always a *prefix* of the final output, regardless of
/// thread count — identical bytes, just visible earlier.
///
/// The sink is checkpoint-aware: opened with `resume`, it scans the
/// existing file, validates each row against the sweep (by point,
/// replica and derived seed, so a file written under different flags is
/// a clean error), drops a torn trailing line the way the checkpoint
/// journal does, and continues appending after the last complete row.
/// Feeding it the resumed records plus the fresh ones (what
/// [`Engine::run_full`](crate::Engine::run_full) does) reproduces the
/// buffered file byte for byte across any number of kills.
///
/// `append` is safe to call from worker threads; duplicates are
/// ignored.
pub struct StreamingSink {
    format: StreamFormat,
    state: Mutex<StreamState>,
    path: PathBuf,
}

impl std::fmt::Debug for StreamingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSink")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl StreamingSink {
    /// Opens a streaming JSONL sink (resuming an existing file when
    /// `resume` is set).
    ///
    /// # Errors
    ///
    /// Any I/O error, and [`io::ErrorKind::InvalidData`] when the
    /// existing file does not match this sweep.
    pub fn jsonl(path: &Path, spec: &SweepSpec, resume: bool) -> io::Result<StreamingSink> {
        StreamingSink::open(path, spec, StreamFormat::Jsonl, resume)
    }

    /// Opens a streaming CSV sink with the metric columns fixed up
    /// front. Pass the sorted union of the sweep's metric names (what
    /// [`SweepResult::metric_names`](crate::SweepResult::metric_names)
    /// returns) to get files byte-identical to the buffered writer's.
    ///
    /// # Errors
    ///
    /// As [`StreamingSink::jsonl`].
    pub fn csv(
        path: &Path,
        spec: &SweepSpec,
        metric_columns: &[String],
        resume: bool,
    ) -> io::Result<StreamingSink> {
        StreamingSink::open(
            path,
            spec,
            StreamFormat::Csv {
                metrics: metric_columns.to_vec(),
            },
            resume,
        )
    }

    fn open(
        path: &Path,
        spec: &SweepSpec,
        format: StreamFormat,
        resume: bool,
    ) -> io::Result<StreamingSink> {
        create_parent_dirs(path)?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let existing =
            if resume {
                match std::fs::read(path) {
                    Ok(bytes) => Some(String::from_utf8(bytes).map_err(|_| {
                        bad(format!("{}: existing file is not UTF-8", path.display()))
                    })?),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                    Err(e) => return Err(e),
                }
            } else {
                None
            };
        let mut next = 0usize;
        // the writer, and whether the file is empty and needs the header
        let (mut out, empty) = match existing {
            None => (BufWriter::new(File::create(path)?), true),
            Some(text) => {
                // a torn trailing line (the previous run died mid-write)
                // is dropped and overwritten, like a torn journal line
                let complete_len = text.rfind('\n').map_or(0, |i| i + 1);
                let complete = &text[..complete_len];
                let tasks = spec.tasks();
                let mut lines = complete.lines();
                if let StreamFormat::Csv { metrics } = &format {
                    let header = render_csv_row(&csv_header(metrics));
                    let expected = &header[..header.len() - 1]; // minus newline
                    match lines.next() {
                        None => {} // empty file: the header is rewritten below
                        Some(line) if line.as_bytes() == expected => {}
                        Some(_) => {
                            return Err(bad(format!(
                                "{}: existing header does not match this sweep's columns; \
                                 delete the file to start over",
                                path.display()
                            )))
                        }
                    }
                }
                for (k, line) in lines.enumerate() {
                    let task = tasks.get(k).ok_or_else(|| {
                        bad(format!(
                            "{}: more rows than the sweep has tasks; \
                             delete the file to start over",
                            path.display()
                        ))
                    })?;
                    // validate the row's FULL parameter prefix — point,
                    // replica, seed, side, horizon, tau, density and
                    // variant are all pure functions of the task, so a
                    // file written under any changed flag differs here
                    // even when the derived seed happens to agree
                    let mut prefix = Vec::new();
                    match &format {
                        StreamFormat::Csv { .. } => push_csv_base(&mut prefix, task),
                        StreamFormat::Jsonl => push_jsonl_base(&mut prefix, task),
                    }
                    let matches =
                        line.as_bytes()
                            .strip_prefix(prefix.as_slice())
                            .is_some_and(|rest| match &format {
                                // metric cells follow, or none were configured
                                StreamFormat::Csv { .. } => {
                                    rest.is_empty() || rest.starts_with(b",")
                                }
                                // metrics follow, or the object closes
                                StreamFormat::Jsonl => {
                                    rest.starts_with(b",") || rest.starts_with(b"}")
                                }
                            });
                    if !matches {
                        return Err(bad(format!(
                            "{}: row {} was written by a different sweep (the flags \
                             changed?); delete the file to start over",
                            path.display(),
                            k + 1
                        )));
                    }
                    next = k + 1;
                }
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(complete_len as u64)?;
                let out = BufWriter::new(OpenOptions::new().append(true).open(path)?);
                (out, complete_len == 0)
            }
        };
        if let (true, StreamFormat::Csv { metrics }) = (empty, &format) {
            out.write_all(&render_csv_row(&csv_header(metrics)))?;
            out.flush()?;
        }
        Ok(StreamingSink {
            format,
            state: Mutex::new(StreamState {
                out,
                next,
                parked: BTreeMap::new(),
            }),
            path: path.to_path_buf(),
        })
    }

    /// The row of `rec`, newline included.
    fn render(&self, rec: &ReplicaRecord) -> Vec<u8> {
        let mut row = Vec::with_capacity(256);
        match &self.format {
            StreamFormat::Jsonl => push_jsonl_row(&mut row, rec),
            StreamFormat::Csv { metrics } => push_csv_row(&mut row, rec, metrics),
        }
        row
    }

    /// Offers one completed record. Its row is rendered before the lock
    /// is taken. Rows already on disk (or already parked) are ignored;
    /// an in-order row is written straight through, an out-of-order one
    /// is parked; either way the longest in-order prefix is flushed to
    /// the file.
    ///
    /// # Errors
    ///
    /// Any I/O error from appending.
    pub fn append(&self, rec: &ReplicaRecord) -> io::Result<()> {
        let row = self.render(rec);
        let mut st = self.state.lock().expect("streaming sink poisoned");
        let i = rec.task.task_index;
        if i < st.next || st.parked.contains_key(&i) {
            return Ok(());
        }
        if i != st.next {
            st.parked.insert(i, row);
            return Ok(());
        }
        st.out.write_all(&row)?;
        st.next += 1;
        // release whatever parked rows this one unblocked
        loop {
            let next = st.next;
            let Some(row) = st.parked.remove(&next) else {
                break;
            };
            st.out.write_all(&row)?;
            st.next += 1;
        }
        st.out.flush()
    }

    /// How many rows are on disk (the in-order prefix released so far).
    #[cfg(test)]
    fn rows_written(&self) -> usize {
        self.state.lock().expect("streaming sink poisoned").next
    }

    /// The file being streamed to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes per-point summary rows (mean/stderr/min/max of each metric) as
/// CSV — the aggregated companion of the per-replica file.
///
/// # Errors
///
/// Any I/O error from creating or writing the file.
pub fn write_summary_csv(path: &Path, result: &SweepResult, metrics: &[&str]) -> io::Result<()> {
    create_parent_dirs(path)?;
    let f = std::fs::File::create(path)?;
    let mut w = CsvWriter::new(BufWriter::new(f));
    let mut header: Vec<String> = vec![
        "point".into(),
        "side".into(),
        "horizon".into(),
        "tau".into(),
        "density".into(),
        "variant".into(),
        "replicas".into(),
    ];
    for m in metrics {
        header.push(format!("{m}_mean"));
        header.push(format!("{m}_stderr"));
        header.push(format!("{m}_min"));
        header.push(format!("{m}_max"));
    }
    w.write_row(&header)?;
    for (i, point) in result.spec().points().iter().enumerate() {
        let mut row = vec![
            i.to_string(),
            point.side.to_string(),
            point.horizon.to_string(),
            format_f64(point.tau),
            format_f64(point.density),
            point.variant.label(),
            result.spec().replicas().to_string(),
        ];
        for m in metrics {
            let vals = result.metric_values(i, m);
            if vals.is_empty() {
                row.extend(std::iter::repeat_n(String::new(), 4));
            } else {
                let s = seg_analysis::stats::Summary::from_slice(&vals);
                row.push(format_f64(s.mean));
                row.push(format_f64(s.stderr));
                row.push(format_f64(s.min));
                row.push(format_f64(s.max));
            }
        }
        w.write_row(&row)?;
    }
    w.into_inner().flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Engine;
    use crate::spec::SweepSpec;

    fn result() -> SweepResult {
        let spec = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(2)
            .master_seed(3)
            .build();
        Engine::new().threads(2).run(&spec, &[])
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("seg_engine_sink_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn csv_has_header_and_one_row_per_replica() {
        let r = result();
        let path = tmp("records.csv");
        Sink::Csv(path.clone()).write(&r).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + r.records().len());
        assert!(lines[0].starts_with("point,replica,seed,side,horizon,tau,density,variant"));
        assert!(lines[0].contains("events"));
    }

    #[test]
    fn jsonl_rows_parse_as_flat_objects() {
        let r = result();
        let path = tmp("records.jsonl");
        Sink::Jsonl(path.clone()).write(&r).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), r.records().len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"variant\":\"paper\""));
            assert!(line.contains("\"events\":"));
        }
    }

    #[test]
    fn sink_output_is_thread_count_invariant() {
        let spec = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.42)
            .replicas(4)
            .master_seed(9)
            .build();
        let p1 = tmp("t1.csv");
        let p4 = tmp("t4.csv");
        Sink::Csv(p1.clone())
            .write(&Engine::new().threads(1).run(&spec, &[]))
            .unwrap();
        Sink::Csv(p4.clone())
            .write(&Engine::new().threads(4).run(&spec, &[]))
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p4).unwrap()
        );
    }

    #[test]
    fn summary_csv_aggregates_per_point() {
        let r = result();
        let path = tmp("summary.csv");
        write_summary_csv(&path, &r, &["events"]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + r.spec().points().len());
        assert!(lines[0].contains("events_mean"));
    }

    #[test]
    fn streaming_jsonl_matches_buffered_bytes() {
        let r = result();
        let buffered = tmp("stream_ref.jsonl");
        Sink::Jsonl(buffered.clone()).write(&r).unwrap();
        let streamed = tmp("stream_live.jsonl");
        let _ = std::fs::remove_file(&streamed);
        let s = StreamingSink::jsonl(&streamed, r.spec(), false).unwrap();
        // deliver records in a scrambled order: release is still in-order
        let mut recs: Vec<_> = r.records().to_vec();
        recs.reverse();
        for rec in &recs {
            s.append(rec).unwrap();
        }
        assert_eq!(s.rows_written(), r.records().len());
        assert_eq!(
            std::fs::read(&buffered).unwrap(),
            std::fs::read(&streamed).unwrap()
        );
    }

    #[test]
    fn streaming_csv_matches_buffered_bytes_and_is_prefix_stable() {
        let r = result();
        let buffered = tmp("stream_ref.csv");
        Sink::Csv(buffered.clone()).write(&r).unwrap();
        let streamed = tmp("stream_live.csv");
        let _ = std::fs::remove_file(&streamed);
        let s = StreamingSink::csv(&streamed, r.spec(), &r.metric_names(), false).unwrap();
        // the out-of-order record parks: nothing beyond the prefix lands
        s.append(&r.records()[2]).unwrap();
        assert_eq!(s.rows_written(), 0);
        s.append(&r.records()[0]).unwrap();
        assert_eq!(s.rows_written(), 1);
        let partial = std::fs::read_to_string(&streamed).unwrap();
        assert_eq!(partial.lines().count(), 2); // header + row 0
        s.append(&r.records()[1]).unwrap();
        assert_eq!(s.rows_written(), 3); // parked row 2 released too
        s.append(&r.records()[3]).unwrap();
        // duplicates are ignored
        s.append(&r.records()[1]).unwrap();
        assert_eq!(
            std::fs::read(&buffered).unwrap(),
            std::fs::read(&streamed).unwrap()
        );
    }

    #[test]
    fn streaming_resume_continues_after_a_torn_line() {
        let r = result();
        let reference = tmp("stream_torn_ref.jsonl");
        Sink::Jsonl(reference.clone()).write(&r).unwrap();
        let path = tmp("stream_torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let s = StreamingSink::jsonl(&path, r.spec(), false).unwrap();
            s.append(&r.records()[0]).unwrap();
            s.append(&r.records()[1]).unwrap();
        }
        // tear the file mid-row, as a kill during the third append would
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"point\":1,\"replica\":0,\"se");
        std::fs::write(&path, &text).unwrap();
        let s = StreamingSink::jsonl(&path, r.spec(), true).unwrap();
        assert_eq!(s.rows_written(), 2);
        for rec in r.records() {
            s.append(rec).unwrap(); // rows 0-1 ignored, 2-3 appended
        }
        assert_eq!(
            std::fs::read(&reference).unwrap(),
            std::fs::read(&path).unwrap()
        );
    }

    #[test]
    fn streaming_resume_rejects_a_foreign_file() {
        let r = result();
        let path = tmp("stream_foreign.jsonl");
        std::fs::write(&path, "{\"point\":0,\"replica\":0,\"seed\":99999}\n").unwrap();
        let err = StreamingSink::jsonl(&path, r.spec(), true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // a row whose (point, replica, seed) triple matches but whose
        // parameters differ — the tau axis changed between runs — is
        // refused too: validation covers the full parameter prefix
        let genuine = tmp("stream_foreign_src.jsonl");
        Sink::Jsonl(genuine.clone()).write(&r).unwrap();
        let first = std::fs::read_to_string(&genuine)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .replacen("\"tau\":0.4,", "\"tau\":0.9,", 1)
            + "\n";
        assert!(first.contains("\"tau\":0.9"));
        let tampered = tmp("stream_foreign_tau.jsonl");
        std::fs::write(&tampered, first).unwrap();
        let err = StreamingSink::jsonl(&tampered, r.spec(), true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // CSV with a mismatched header is refused the same way
        let csv = tmp("stream_foreign.csv");
        std::fs::write(&csv, "alpha,beta\n1,2\n").unwrap();
        let err = StreamingSink::csv(&csv, r.spec(), &r.metric_names(), true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn sinks_create_missing_parent_directories() {
        let r = result();
        let dir = std::env::temp_dir().join("seg_engine_sink_mkdir");
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("a").join("b").join("rows.csv");
        Sink::Csv(nested.clone()).write(&r).unwrap();
        assert!(nested.exists());
        let streamed = dir.join("c").join("rows.jsonl");
        StreamingSink::jsonl(&streamed, r.spec(), false).unwrap();
        assert!(streamed.exists());
        let summary = dir.join("d").join("summary.csv");
        write_summary_csv(&summary, &r, &["events"]).unwrap();
        assert!(summary.exists());
    }

    #[test]
    fn json_escaping() {
        use seg_obs::{json_number, json_string};
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(2.5), "2.5");
        assert_eq!(json_number(3.0), "3.0");
    }
}
