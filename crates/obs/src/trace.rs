//! A lock-cheap span/event tracer with a bounded in-memory ring and
//! cross-process trace correlation.
//!
//! Call sites record either instantaneous events ([`Tracer::event`]) or
//! timed spans ([`Tracer::span`], whose guard records the duration on
//! drop). Records land in a bounded ring (oldest dropped first) and —
//! when an output file is attached via [`Tracer::set_output`] — are
//! also appended as JSONL, one object per line (trace schema v2):
//!
//! ```text
//! {"t_us":123456,"unix_us":1754600000123456,"kind":"span","name":"serve.request","detail":"/v1/sweeps","dur_us":1834}
//! {"t_us":125001,"unix_us":1754600000125001,"kind":"event","name":"engine.sweep_start","detail":"8 tasks","trace_id":"9f2c41d07a8b3e55","parent_span_id":"04d1..."}
//! ```
//!
//! `t_us` is microseconds since the tracer was created (monotonic,
//! process-local); `unix_us` is the same instant on the wall clock —
//! the tracer samples [`SystemTime`] *once* at creation and derives
//! every `unix_us` as `anchor + t_us`, so the wall-clock column is
//! monotone within a process even if the system clock steps mid-run,
//! and `sort -m` by `unix_us` merges JSONL from several processes into
//! one timeline. `dur_us` is the span duration (absent for events).
//!
//! The optional `trace_id`/`span_id`/`parent_span_id` fields come from
//! the thread's bound [`TraceContext`]: a serve coordinator mints a
//! trace id per job ([`mint_trace_id`]), propagates it to fleet workers
//! in the `X-Seg-Trace` header, and each process binds it with
//! [`TraceContext::bind`] so every span recorded under the guard
//! carries the id. Spans mint their own `span_id`; the bound context
//! supplies `parent_span_id`, which is how a worker's spans point back
//! at the coordinator's job span across the process boundary.
//!
//! The ring holds the most recent [`Tracer::CAPACITY`] records
//! regardless of export.

use crate::json::json_string;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The process-wide tracer.
///
/// Created lazily on first use; `--trace-out` attaches a JSONL sink to
/// exactly this instance.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// One recorded trace entry (an event, or a completed span).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Microseconds since the tracer was created (monotonic clock).
    pub(crate) t_us: u64,
    /// The same instant as microseconds since the UNIX epoch, derived
    /// from a wall-clock anchor sampled once at tracer creation — so
    /// records from several processes merge into one wall-clock
    /// timeline, and the column stays monotone even if the system
    /// clock steps mid-run.
    pub unix_us: u64,
    /// Static name, dot-namespaced by subsystem (`serve.request`,
    /// `engine.sweep`, `work.claim`).
    pub(crate) name: &'static str,
    /// Free-form detail (a path, a job id, a count).
    pub(crate) detail: String,
    /// Span duration in microseconds; `None` for instantaneous events.
    pub(crate) dur_us: Option<u64>,
    /// The distributed trace this record belongs to, from the thread's
    /// bound [`TraceContext`] at recording time.
    pub(crate) trace_id: Option<String>,
    /// This span's own minted id (`None` for events).
    pub(crate) span_id: Option<String>,
    /// The bound context's parent span — for a fleet worker, the
    /// coordinator's job span on the other side of the wire.
    pub(crate) parent_span_id: Option<String>,
}

impl TraceEvent {
    /// The JSONL line for this record (no trailing newline).
    pub fn to_json(&self) -> String {
        let kind = if self.dur_us.is_some() {
            "span"
        } else {
            "event"
        };
        let mut s = format!(
            "{{\"t_us\":{},\"unix_us\":{},\"kind\":\"{kind}\",\"name\":\"{}\",\"detail\":{}",
            self.t_us,
            self.unix_us,
            self.name,
            json_string(&self.detail)
        );
        if let Some(d) = self.dur_us {
            s.push_str(&format!(",\"dur_us\":{d}"));
        }
        if let Some(t) = &self.trace_id {
            s.push_str(&format!(",\"trace_id\":{}", json_string(t)));
        }
        if let Some(id) = &self.span_id {
            s.push_str(&format!(",\"span_id\":{}", json_string(id)));
        }
        if let Some(p) = &self.parent_span_id {
            s.push_str(&format!(",\"parent_span_id\":{}", json_string(p)));
        }
        s.push('}');
        s
    }
}

/// The distributed-trace identity a thread records under.
///
/// Bind one around a unit of cross-process work (a serve job, a fleet
/// assignment) and every span or event the thread records until the
/// guard drops carries the `trace_id` (and points at `parent_span_id`).
/// Bindings nest: an inner [`TraceContext::bind`] shadows the outer one
/// until its guard drops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every record under this binding belongs to — minted by
    /// [`mint_trace_id`] at the trace root, propagated verbatim
    /// everywhere else.
    pub(crate) trace_id: String,
    /// The span the bound work nests under (often one minted by the
    /// *other* process in the trace).
    pub parent_span_id: Option<String>,
}

thread_local! {
    static CONTEXT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

impl TraceContext {
    /// A context for `trace_id` with no parent span.
    pub fn new(trace_id: impl Into<String>) -> TraceContext {
        TraceContext {
            trace_id: trace_id.into(),
            parent_span_id: None,
        }
    }

    /// This context, parented under `span_id`.
    #[must_use]
    pub fn with_parent(mut self, span_id: impl Into<String>) -> TraceContext {
        self.parent_span_id = Some(span_id.into());
        self
    }

    /// Binds this context to the current thread until the returned
    /// guard drops. The guard is not `Send` — it must drop on the
    /// thread that bound it.
    pub fn bind(self) -> ContextGuard {
        CONTEXT.with(|c| c.borrow_mut().push(self));
        ContextGuard {
            _not_send: PhantomData,
        }
    }

    /// The innermost context bound to the current thread, if any.
    pub fn current() -> Option<TraceContext> {
        CONTEXT.with(|c| c.borrow().last().cloned())
    }
}

/// Restores the previously bound [`TraceContext`] on drop.
pub struct ContextGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The `obs_trace_dropped_total` counter, registered once and cached —
/// `record` is on the request path, so the registry lookup must not
/// repeat per record.
fn dropped_total() -> &'static std::sync::Arc<crate::metrics::Counter> {
    static DROPPED: OnceLock<std::sync::Arc<crate::metrics::Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| {
        crate::metrics::metrics().counter(
            "obs_trace_dropped_total",
            "trace records overwritten in the bounded in-memory ring",
            &[],
        )
    })
}

/// A per-process salt so ids minted by different processes never
/// collide even when their counters align.
fn process_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos() as u64;
        let pid = u64::from(std::process::id());
        // splitmix64-style finalization over (time, pid)
        let mut z = nanos ^ (pid << 32) ^ pid;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Mints a fresh 16-hex-digit id, unique within the process and salted
/// per process — used for trace ids at the trace root and for span ids.
pub fn mint_trace_id() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!(
        "{:016x}",
        process_salt() ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
}

struct Inner {
    ring: VecDeque<TraceEvent>,
    out: Option<BufWriter<std::fs::File>>,
}

/// A bounded-ring span/event recorder.
///
/// One short-lived mutex guards the ring and the optional JSONL sink;
/// recording is a push + (when attached) a buffered write, so tracing a
/// request path costs microseconds.
pub struct Tracer {
    started: Instant,
    /// UNIX-epoch microseconds at `started` — the wall anchor every
    /// `unix_us` derives from (see [`TraceEvent::unix_us`]).
    unix_anchor_us: u64,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// How many records the in-memory ring retains.
    pub(crate) const CAPACITY: usize = 4096;

    /// A fresh tracer with an empty ring and no output file.
    pub(crate) fn new() -> Self {
        Tracer {
            started: Instant::now(),
            unix_anchor_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default()
                .as_micros() as u64,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(64),
                out: None,
            }),
        }
    }

    /// Attaches a JSONL output file; every subsequent record is
    /// appended to it (the ring keeps working regardless). The file is
    /// opened in *append* mode and missing parent directories are
    /// created — like the engine's checkpoint paths — so a restarted
    /// `--trace-out` process extends the file instead of truncating
    /// what the previous incarnation traced.
    ///
    /// # Errors
    ///
    /// Propagates the error when the file (or a parent directory)
    /// cannot be created.
    pub fn set_output(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.inner.lock().unwrap().out = Some(BufWriter::new(file));
        Ok(())
    }

    /// `(t_us, unix_us)` for the present instant.
    fn clocks(&self) -> (u64, u64) {
        let t_us = self.started.elapsed().as_micros() as u64;
        (t_us, self.unix_anchor_us + t_us)
    }

    /// Records an instantaneous event, tagged with the thread's bound
    /// [`TraceContext`] (if any).
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        let (t_us, unix_us) = self.clocks();
        let ctx = TraceContext::current();
        self.record(TraceEvent {
            t_us,
            unix_us,
            name,
            detail: detail.into(),
            dur_us: None,
            trace_id: ctx.as_ref().map(|c| c.trace_id.clone()),
            span_id: None,
            parent_span_id: ctx.and_then(|c| c.parent_span_id),
        });
    }

    /// Starts a timed span; the returned guard records it on drop. The
    /// span captures the thread's bound [`TraceContext`] *now* and
    /// mints its own [`Span::id`], so child work (even in another
    /// process) can be parented under it.
    pub fn span(&self, name: &'static str, detail: impl Into<String>) -> Span<'_> {
        Span {
            tracer: self,
            name,
            detail: detail.into(),
            begun: Instant::now(),
            id: mint_trace_id(),
            ctx: TraceContext::current(),
        }
    }

    fn record(&self, ev: TraceEvent) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(out) = inner.out.as_mut() {
            let _ = writeln!(out, "{}", ev.to_json());
            let _ = out.flush();
        }
        if inner.ring.len() == Self::CAPACITY {
            inner.ring.pop_front();
            // an overwritten record truncates the in-memory timeline —
            // count it so `/metrics` makes the truncation visible
            // instead of silently serving a hole
            dropped_total().inc();
        }
        inner.ring.push_back(ev);
    }

    /// The current ring contents, oldest first.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// The ring records belonging to `trace_id`, oldest first — the
    /// per-job slice `GET /v1/jobs/:id/trace` and a worker's journal
    /// upload ship.
    pub fn snapshot_trace(&self, trace_id: &str) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .unwrap()
            .ring
            .iter()
            .filter(|ev| ev.trace_id.as_deref() == Some(trace_id))
            .cloned()
            .collect()
    }
}

/// Guard for a timed span; records the span on drop.
///
/// Returned by [`Tracer::span`]; just let it fall out of scope at the
/// end of the timed region.
pub struct Span<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    detail: String,
    begun: Instant,
    id: String,
    ctx: Option<TraceContext>,
}

impl Span<'_> {
    /// This span's minted id — hand it to child work (via
    /// [`TraceContext::with_parent`], or across the wire) so the
    /// child's records parent under this span.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (t_us, unix_us) = self.tracer.clocks();
        let ctx = self.ctx.take();
        self.tracer.record(TraceEvent {
            t_us,
            unix_us,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            dur_us: Some(self.begun.elapsed().as_micros() as u64),
            trace_id: ctx.as_ref().map(|c| c.trace_id.clone()),
            span_id: Some(std::mem::take(&mut self.id)),
            parent_span_id: ctx.and_then(|c| c.parent_span_id),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_spans_land_in_the_ring() {
        let t = Tracer::new();
        t.event("test.event", "hello");
        {
            let _s = t.span("test.span", "work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "test.event");
        assert_eq!(snap[0].dur_us, None);
        assert_eq!(snap[1].name, "test.span");
        assert!(
            snap[1].dur_us.unwrap() >= 1_000,
            "span too short: {:?}",
            snap[1]
        );
    }

    #[test]
    fn ring_is_bounded_and_drops_are_counted() {
        let before = dropped_total().get();
        let t = Tracer::new();
        for i in 0..(Tracer::CAPACITY + 10) {
            t.event("test.flood", format!("{i}"));
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), Tracer::CAPACITY);
        // Oldest 10 evicted: the first surviving record is #10.
        assert_eq!(snap[0].detail, "10");
        // every overwrite was counted (the counter is process-global,
        // so other tests may have added more)
        assert!(dropped_total().get() >= before + 10);
    }

    #[test]
    fn unix_us_is_monotonic_anchor_plus_t_us() {
        let t = Tracer::new();
        t.event("test.first", "");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.event("test.second", "");
        let snap = t.snapshot();
        // unix_us derives from the one anchor: the wall column moves in
        // lockstep with the monotonic column, never independently
        assert_eq!(
            snap[1].unix_us - snap[0].unix_us,
            snap[1].t_us - snap[0].t_us
        );
        assert_eq!(snap[0].unix_us, t.unix_anchor_us + snap[0].t_us);
        assert!(snap[1].unix_us > snap[0].unix_us);
        // and the anchor is a plausible wall time (after 2020-01-01)
        assert!(t.unix_anchor_us > 1_577_000_000_000_000);
    }

    #[test]
    fn bound_context_tags_records_and_unbinds_on_drop() {
        let t = Tracer::new();
        let span_id;
        {
            let _g = TraceContext::new("trace-abc").with_parent("span-up").bind();
            assert_eq!(
                TraceContext::current().unwrap().trace_id,
                "trace-abc".to_string()
            );
            t.event("test.tagged", "");
            let s = t.span("test.child", "");
            span_id = s.id().to_string();
            drop(s);
        }
        t.event("test.untagged", "");
        let snap = t.snapshot();
        assert_eq!(snap[0].trace_id.as_deref(), Some("trace-abc"));
        assert_eq!(snap[0].parent_span_id.as_deref(), Some("span-up"));
        assert_eq!(snap[0].span_id, None);
        assert_eq!(snap[1].trace_id.as_deref(), Some("trace-abc"));
        assert_eq!(snap[1].span_id.as_deref(), Some(span_id.as_str()));
        assert_eq!(snap[1].parent_span_id.as_deref(), Some("span-up"));
        assert_eq!(snap[2].trace_id, None);
        assert!(TraceContext::current().is_none());
        assert_eq!(t.snapshot_trace("trace-abc").len(), 2);
        assert!(t.snapshot_trace("other").is_empty());
    }

    #[test]
    fn nested_bindings_shadow_and_restore() {
        let _outer = TraceContext::new("outer").bind();
        {
            let _inner = TraceContext::new("inner").bind();
            assert_eq!(TraceContext::current().unwrap().trace_id, "inner");
        }
        assert_eq!(TraceContext::current().unwrap().trace_id, "outer");
    }

    #[test]
    fn minted_ids_are_distinct_16_hex() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn jsonl_export_writes_one_object_per_line() {
        let dir = std::env::temp_dir().join(format!("seg_obs_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let t = Tracer::new();
        t.set_output(&path).unwrap();
        t.event("test.a", "x\"y");
        {
            let _ctx = TraceContext::new("tid-1").bind();
            let _s = t.span("test.b", "z");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"event\""));
        assert!(lines[0].contains("\"unix_us\":"));
        assert!(lines[0].contains("\"detail\":\"x\\\"y\""));
        assert!(!lines[0].contains("\"trace_id\""));
        assert!(lines[1].contains("\"kind\":\"span\""));
        assert!(lines[1].contains("\"dur_us\":"));
        assert!(lines[1].contains("\"trace_id\":\"tid-1\""));
        assert!(lines[1].contains("\"span_id\":\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn set_output_appends_and_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("seg_obs_append_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // the parent directory does not exist yet: set_output creates it
        let path = dir.join("nested").join("trace.jsonl");
        let first = Tracer::new();
        first.set_output(&path).unwrap();
        first.event("test.before_restart", "");
        // a "restarted" process re-attaches the same path: the earlier
        // lines must survive (append, not truncate)
        let second = Tracer::new();
        second.set_output(&path).unwrap();
        second.event("test.after_restart", "");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("test.before_restart"), "truncated: {text}");
        assert!(text.contains("test.after_restart"));
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
