//! Spans of the traced runs: recorded in memory around calls into each
//! layer, written as JSONL when the run ends, and reduced to per-layer
//! self times.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one replica (or one client job) share
/// `(job, trace)`; `id` is unique within it and `parent` names the
/// enclosing span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The sweep job (or client job) the span belongs to.
    pub job: u64,
    /// The trace id: the task index within the job.
    pub trace: u64,
    pub id: u8,
    pub parent: Option<u8>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the time its child spans cover (children never overlap here).
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, u64> {
    let mut own: HashMap<(u64, u64, u8), (&'static str, i128)> = HashMap::new();
    for s in spans {
        own.insert((s.job, s.trace, s.id), (s.name, i128::from(s.nanos())));
    }
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = own.get_mut(&(s.job, s.trace, p)) {
                parent.1 -= i128::from(s.nanos());
            }
        }
    }
    let mut out = HashMap::new();
    for (name, ns) in own.into_values() {
        *out.entry(name).or_insert(0u64) += ns.max(0) as u64;
    }
    out
}

/// Total duration of the spans named `name`, in nanoseconds.
pub fn total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::nanos)
        .sum()
}

/// Writes every span as one JSON line, times in microseconds since the
/// first span started.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let Some(epoch) = spans.iter().map(|s| s.start).min() else {
        return std::fs::write(path, b"");
    };
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"job\":{},\"trace\":{},\"span\":{},\"parent\":{parent},\
             \"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.job,
            s.trace,
            s.id,
            us(s.start),
            us(s.end)
        )?;
    }
    out.flush()
}
