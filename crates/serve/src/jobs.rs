//! The job subsystem: sweep requests, the fingerprint-keyed job store,
//! the worker pool that schedules jobs on [`seg_engine`], and the
//! on-disk layout that makes all of it survive restarts.
//!
//! # Layout
//!
//! Every job lives in `data_dir/jobs/<id>/`, where `<id>` is the hex
//! [`spec_fingerprint`] of the job's [`SweepSpec`] — the same
//! fingerprint the checkpoint journals validate against, so the job id
//! *is* the cache key:
//!
//! - `request.json` — the normalized request, written before the job is
//!   first scheduled; a restarted server rebuilds the spec from it;
//! - `ck.jsonl` — the engine's checkpoint journal (one line per
//!   finished replica);
//! - `rows.jsonl` — the [`StreamingSink`](seg_engine::StreamingSink)
//!   output, appended in task order; `GET /v1/jobs/:id/rows` streams
//!   these bytes verbatim, so they are byte-identical to
//!   `segsim sweep --out rows.jsonl` under the same
//!   parameters;
//! - `done.json` — written only when every task has a record; its
//!   presence is what makes a resubmitted identical spec a cache hit
//!   (no recomputation), even across restarts.
//!
//! A job killed mid-run (crash, `kill -9`, drain) leaves `request.json`
//! plus partial journals; the next start re-enqueues it and the engine
//! resumes from `ck.jsonl`, skipping every journaled replica.

use crate::admission::{AdmissionControl, Rejection};
use crate::fleet::{EpochHealth, FleetRegistry, FLEET_POLL};
use seg_engine::{
    spec_fingerprint, Checkpoint, Engine, Observer, Sink, SweepProgress, SweepSpec, Variant,
};
use seg_obs::{json_number, json_string, Json, TraceContext};
use seg_shard::repartition;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Caps on a single request, so one client cannot park the service on a
/// sweep that never finishes (documented in `docs/SERVING.md`).
pub(crate) const MAX_SIDE: u32 = 4096;
/// Maximum points × replicas of one request.
pub(crate) const MAX_TASKS: usize = 1_000_000;
/// Maximum `k · side²` of a `multi:k` point: one replica keeps `k` window
/// counts per cell, so this caps its count table at four `MAX_SIDE`²
/// planes (`multi:4` at side 4096, 1 GiB of `u32`).
pub(crate) const MAX_MULTI_COUNTS: u64 = 4 * (MAX_SIDE as u64) * (MAX_SIDE as u64);
/// The spacing of a job's pushed history samples — the "1s" tier's
/// resolution. A job records its first progress sample, then at most one
/// per this interval, then always its final one.
const JOB_HISTORY_CADENCE: Duration = Duration::from_secs(1);
/// Worker-reported trace lines each job retains for
/// `GET /v1/jobs/:id/trace` (oldest kept — the claim/run/upload shape
/// of a job is in its first spans).
pub(crate) const WORKER_SPANS_CAP: usize = 2048;

/// A normalized sweep request: the parameters of `segsim sweep`'s axis
/// flags, or of a `POST /v1/sweeps` JSON body.
///
/// Both front ends build their spec through
/// [`SweepRequest::try_build_spec`], so equal parameters give the same
/// [`SweepSpec`] — and fingerprint, and output bytes — by construction.
/// Which sweeps are legal is decided by
/// [`SweepSpecBuilder::try_build`](seg_engine::SweepSpecBuilder::try_build)
/// alone; [`SweepRequest::from_json`] adds only the service's policy on
/// top: its JSON schema and the per-request caps `MAX_SIDE`,
/// `MAX_TASKS` and `MAX_MULTI_COUNTS`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// Grid sides (`side`, scalar or array).
    pub sides: Vec<u32>,
    /// Horizons (`horizon`).
    pub horizons: Vec<u32>,
    /// Intolerances (`tau`).
    pub taus: Vec<f64>,
    /// Initial densities (`density`, optional — defaults to 0.5).
    pub densities: Vec<f64>,
    /// Variants in [`Variant::flag`] spelling (optional — defaults to
    /// `paper`).
    pub variants: Vec<Variant>,
    /// Replicas per point (`replicas`, default 1).
    pub replicas: u32,
    /// Master seed (`seed`, default 0).
    pub seed: u64,
    /// Per-replica event budget (`max_events`, default unlimited).
    pub max_events: Option<u64>,
}

/// An axis written as a scalar or an array (`"tau": 0.4` and `"tau":
/// [0.4, 0.45]` both work), each element read by `read`; an absent axis
/// is empty. Errors name the field.
fn axis<T>(
    body: &Json,
    key: &str,
    read: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    body.get(key).map_or(Ok(Vec::new()), |v| {
        v.as_list()
            .into_iter()
            .map(|x| read(x).map_err(|e| format!("{key}: {e}")))
            .collect()
    })
}

impl SweepRequest {
    /// Parses a request body and checks it: the JSON schema (known
    /// fields and their types), then the caps, then
    /// [`SweepRequest::try_build_spec`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field or value —
    /// the body of the 400 response.
    pub fn from_json(body: &Json) -> Result<SweepRequest, String> {
        let Json::Obj(pairs) = body else {
            return Err("request body must be a JSON object".into());
        };
        const KNOWN: [&str; 8] = [
            "side",
            "horizon",
            "tau",
            "density",
            "variant",
            "replicas",
            "seed",
            "max_events",
        ];
        if let Some((k, _)) = pairs.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(format!(
                "unknown field {k:?} (expected one of {})",
                KNOWN.join(", ")
            ));
        }
        let integer = |x: &Json| {
            x.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("expected a non-negative integer, got {x}"))
        };
        let number = |x: &Json| {
            x.as_f64()
                .ok_or_else(|| format!("expected a number, got {x}"))
        };
        let variant = |x: &Json| {
            let flag = x
                .as_str()
                .ok_or_else(|| format!("expected a string, got {x}"))?;
            flag.parse::<Variant>().map_err(|e| e.to_string())
        };
        let scalar_u64 = |key: &str, default: u64| -> Result<u64, String> {
            match body.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("{key}: expected a non-negative integer, got {v}")),
            }
        };
        let req = SweepRequest {
            sides: axis(body, "side", integer)?,
            horizons: axis(body, "horizon", integer)?,
            taus: axis(body, "tau", number)?,
            densities: axis(body, "density", number)?,
            variants: axis(body, "variant", variant)?,
            replicas: u32::try_from(scalar_u64("replicas", 1)?)
                .map_err(|_| "replicas: out of range".to_string())?,
            seed: scalar_u64("seed", 0)?,
            max_events: body
                .get("max_events")
                .map(|_| scalar_u64("max_events", 0))
                .transpose()?,
        };
        req.check_caps()?;
        req.try_build_spec()?;
        Ok(req)
    }

    /// The service's per-request caps, checked on the axis lengths alone
    /// (with saturating arithmetic) before anything expands the grid, so
    /// hostile axis lengths cost nothing.
    fn check_caps(&self) -> Result<(), String> {
        if self.sides.iter().any(|&n| n > MAX_SIDE) {
            return Err(format!("side values are capped at {MAX_SIDE}"));
        }
        let multi_k = self.variants.iter().filter_map(|v| match v {
            Variant::MultiType { k } => Some(u64::from(*k)),
            _ => None,
        });
        if let (Some(k), Some(&n)) = (multi_k.max(), self.sides.iter().max()) {
            if k * u64::from(n) * u64::from(n) > MAX_MULTI_COUNTS {
                return Err(format!(
                    "multi:{k} at side {n} keeps {k} x {n}^2 window counts per replica, \
                     over the cap of {MAX_MULTI_COUNTS} (4 x {MAX_SIDE}^2)"
                ));
            }
        }
        let points = [
            self.sides.len(),
            self.horizons.len(),
            self.taus.len(),
            self.densities.len().max(1),
            self.variants.len().max(1),
        ]
        .into_iter()
        .fold(1usize, usize::saturating_mul);
        let tasks = points.saturating_mul(self.replicas as usize);
        if tasks > MAX_TASKS {
            return Err(format!(
                "{points} points x {} replicas = {tasks} tasks exceeds the {MAX_TASKS}-task cap",
                self.replicas
            ));
        }
        Ok(())
    }

    /// Builds the spec: the one mapping from sweep parameters to a
    /// [`SweepSpec`], shared by `segsim sweep` and the service. Applies
    /// no caps.
    ///
    /// # Errors
    ///
    /// A missing `side`, `horizon` or `tau` axis, or why
    /// [`SweepSpecBuilder::try_build`](seg_engine::SweepSpecBuilder::try_build)
    /// refused the sweep.
    pub fn try_build_spec(&self) -> Result<SweepSpec, String> {
        if self.sides.is_empty() || self.horizons.is_empty() || self.taus.is_empty() {
            return Err("a sweep needs side, horizon and tau".into());
        }
        let mut builder = SweepSpec::builder()
            .sides(self.sides.iter().copied())
            .horizons(self.horizons.iter().copied())
            .taus(self.taus.iter().copied())
            .densities(self.densities.iter().copied())
            .variants(self.variants.iter().copied())
            .replicas(self.replicas)
            .master_seed(self.seed);
        if let Some(budget) = self.max_events {
            builder = builder.max_events(budget);
        }
        builder.try_build()
    }

    /// [`SweepRequest::try_build_spec`] for a request that passed
    /// [`SweepRequest::from_json`].
    ///
    /// # Panics
    ///
    /// Panics if the request describes an illegal sweep.
    pub fn build_spec(&self) -> SweepSpec {
        self.try_build_spec().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The normalized request as JSON — what `request.json` holds, and
    /// what [`SweepRequest::from_json`] parses back on recovery.
    pub(crate) fn to_json(&self) -> String {
        let num = |x: f64| Json::Num(x);
        let mut pairs: Vec<(String, Json)> = vec![
            (
                "side".into(),
                Json::Arr(self.sides.iter().map(|&n| num(n as f64)).collect()),
            ),
            (
                "horizon".into(),
                Json::Arr(self.horizons.iter().map(|&n| num(n as f64)).collect()),
            ),
            (
                "tau".into(),
                Json::Arr(self.taus.iter().map(|&t| num(t)).collect()),
            ),
        ];
        if !self.densities.is_empty() {
            pairs.push((
                "density".into(),
                Json::Arr(self.densities.iter().map(|&p| num(p)).collect()),
            ));
        }
        if !self.variants.is_empty() {
            pairs.push((
                "variant".into(),
                Json::Arr(self.variants.iter().map(|v| Json::Str(v.flag())).collect()),
            ));
        }
        pairs.push(("replicas".into(), num(self.replicas as f64)));
        pairs.push(("seed".into(), num(self.seed as f64)));
        if let Some(b) = self.max_events {
            pairs.push(("max_events".into(), num(b as f64)));
        }
        Json::Obj(pairs).to_string()
    }
}

/// Where a job stands.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JobState {
    /// Waiting for a job worker.
    Queued,
    /// A worker is running its sweep.
    Running,
    /// Every task has a record; `rows.jsonl` is final.
    Done,
    /// The sweep errored (message inside). The journals are kept, so
    /// resubmitting after fixing the cause resumes rather than restarts.
    Failed(String),
}

impl JobState {
    /// The wire spelling used in status responses.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One submitted sweep.
#[derive(Debug)]
pub(crate) struct Job {
    /// The fingerprint id (16 hex digits).
    pub(crate) id: String,
    /// The normalized request.
    pub(crate) request: SweepRequest,
    /// The spec the request builds.
    pub(crate) spec: SweepSpec,
    /// The job's directory under `data_dir/jobs/`.
    pub(crate) dir: PathBuf,
    /// The distributed trace id every span of this job carries —
    /// accepted from the submitter's `X-Seg-Trace` header or minted at
    /// submission, and propagated to fleet workers on every claim.
    pub(crate) trace_id: String,
    pub(crate) state: Mutex<JobState>,
    progress: Mutex<SweepProgress>,
    /// Trace lines uploaded by fleet workers (already tagged with their
    /// `proc`) keyed by their `unix_us`, merged into [`Job::trace_json`].
    worker_spans: Mutex<Vec<(u64, String)>>,
    /// The client whose admission slot this job holds (fresh jobs
    /// only); taken back when the job leaves the queued/running states.
    pub(crate) client: Mutex<Option<String>>,
    /// When the job was last submitted, streamed, or finished — the
    /// LRU eviction order of `--data-max-bytes`.
    pub(crate) last_used: Mutex<Instant>,
    /// Moves whenever rows may have landed in `rows.jsonl` or the state
    /// changed; live row streams wait on it ([`Job::wait_rows`]) instead
    /// of polling the file.
    rows_generation: Mutex<u64>,
    rows_moved: Condvar,
    /// The directory's size, recorded the first time the lifecycle sees
    /// the job finished: a done or failed job's files never change.
    /// Cleared when the job goes live again (a failed job's retry).
    pub(crate) finished_bytes: Mutex<Option<u64>>,
    /// When the job's last history sample was recorded.
    history_at: Mutex<Option<Instant>>,
}

impl Job {
    /// A job with no progress yet (`finished` = already done on disk).
    fn new(
        id: String,
        request: SweepRequest,
        spec: SweepSpec,
        dir: PathBuf,
        trace_id: String,
        finished: bool,
        client: Option<String>,
    ) -> Job {
        let total = spec.task_count();
        Job {
            id,
            request,
            spec,
            dir,
            trace_id,
            state: Mutex::new(if finished {
                JobState::Done
            } else {
                JobState::Queued
            }),
            progress: Mutex::new(SweepProgress {
                done: if finished { total } else { 0 },
                total,
                resumed: 0,
                wall_secs: 0.0,
                replicas_per_sec: 0.0,
                events_per_sec: 0.0,
            }),
            worker_spans: Mutex::new(Vec::new()),
            client: Mutex::new(client),
            last_used: Mutex::new(Instant::now()),
            rows_generation: Mutex::new(0),
            rows_moved: Condvar::new(),
            finished_bytes: Mutex::new(None),
            history_at: Mutex::new(None),
        }
    }

    /// The job's current state.
    pub(crate) fn state(&self) -> JobState {
        self.state.lock().expect("job state poisoned").clone()
    }

    /// Moves the job to `state` and wakes its row streams. A job that
    /// goes live again drops its cached directory size.
    pub(crate) fn set_state(&self, state: JobState) {
        let live = matches!(state, JobState::Queued | JobState::Running);
        *self.state.lock().expect("job state poisoned") = state;
        if live {
            *self.finished_bytes.lock().expect("job size poisoned") = None;
        }
        self.notify_rows();
    }

    /// The row generation. Sample it *before* reading `rows.jsonl` and
    /// the state, then hand it to [`Job::wait_rows`]: anything that
    /// happens after the read moves it.
    pub(crate) fn rows_generation(&self) -> u64 {
        *self.rows_generation.lock().expect("job rows poisoned")
    }

    /// Wakes every row stream following this job.
    pub(crate) fn notify_rows(&self) {
        *self.rows_generation.lock().expect("job rows poisoned") += 1;
        self.rows_moved.notify_all();
    }

    /// Blocks until the row generation moves past `seen`, or `max`
    /// elapses.
    pub(crate) fn wait_rows(&self, seen: u64, max: Duration) {
        let generation = self.rows_generation.lock().expect("job rows poisoned");
        let _ = self
            .rows_moved
            .wait_timeout_while(generation, max, |g| *g == seen)
            .expect("job rows poisoned");
    }

    /// The latest progress sample.
    pub(crate) fn progress(&self) -> SweepProgress {
        *self.progress.lock().expect("job progress poisoned")
    }

    /// The path row streams read from.
    pub(crate) fn rows_path(&self) -> PathBuf {
        self.dir.join("rows.jsonl")
    }

    /// Marks the job recently used, deferring its LRU eviction.
    pub(crate) fn touch(&self) {
        *self.last_used.lock().expect("job last_used poisoned") = Instant::now();
    }

    /// How long ago the job was last touched.
    pub(crate) fn idle_for(&self) -> Duration {
        self.last_used
            .lock()
            .expect("job last_used poisoned")
            .elapsed()
    }

    /// Feeds one progress sample into the process-wide
    /// [`mod@seg_obs::history`] store, as *history-only* series
    /// (`serve_job_replicas_per_sec{job}` and
    /// `serve_job_events_per_sec{job}`): they never touch the
    /// `/metrics` registry, because job ids would grow its label space
    /// without bound. `GET /dashboard` and
    /// `GET /v1/metrics/history?name=serve_job_replicas_per_sec`
    /// read them back.
    ///
    /// Samples are kept at [`JOB_HISTORY_CADENCE`]: the first, then at
    /// most one per interval, then always the final one
    /// (`done == total`), so a job holds a handful of samples however
    /// many replicas it runs.
    fn push_history(&self, p: SweepProgress) {
        // held across the recording so concurrent engine threads cannot
        // interleave two samples inside one interval
        let mut last = self.history_at.lock().expect("job history poisoned");
        let due = p.done == p.total || last.is_none_or(|t| t.elapsed() >= JOB_HISTORY_CADENCE);
        if !due {
            return;
        }
        let h = seg_obs::history();
        let labels = [("job", self.id.as_str())];
        h.record_gauge("serve_job_replicas_per_sec", &labels, p.replicas_per_sec);
        h.record_gauge("serve_job_events_per_sec", &labels, p.events_per_sec);
        // stamped after recording, so recorded timestamps are at least
        // one interval apart too
        *last = Some(Instant::now());
    }

    /// Drops the job's history series — called when the job itself goes.
    pub(crate) fn forget_history(&self) {
        seg_obs::history().remove_labeled("job", &self.id);
    }

    /// Absorbs trace lines a fleet worker shipped on a journal upload,
    /// tagging each with the worker's id as its `proc` so the merged
    /// timeline says which process recorded what. Only lines that parse
    /// as JSON objects are kept, so one bad upload cannot break the
    /// trace document. Bounded at [`WORKER_SPANS_CAP`]; excess lines are
    /// dropped.
    pub(crate) fn add_worker_spans(&self, proc_tag: &str, lines: &[String]) {
        let mut spans = self.worker_spans.lock().expect("worker spans poisoned");
        for line in lines {
            if spans.len() >= WORKER_SPANS_CAP {
                break;
            }
            if let Ok(doc @ Json::Obj(_)) = Json::parse(line) {
                let unix_us = doc.get("unix_us").and_then(Json::as_u64).unwrap_or(0);
                spans.push((unix_us, tag_proc(line, proc_tag)));
            }
        }
    }

    /// The `GET /v1/jobs/:id/trace` document: the coordinator's own
    /// ring records for this job's trace merged with every
    /// worker-uploaded line, sorted by `unix_us` — one cross-process
    /// timeline. Bounded by the tracer ring ([`seg_obs::Tracer::CAPACITY`])
    /// plus [`WORKER_SPANS_CAP`].
    pub(crate) fn trace_json(&self) -> String {
        let mut entries: Vec<(u64, String)> = seg_obs::tracer()
            .snapshot_trace(&self.trace_id)
            .iter()
            .map(|ev| (ev.unix_us, tag_proc(&ev.to_json(), "coordinator")))
            .collect();
        entries.extend_from_slice(&self.worker_spans.lock().expect("worker spans poisoned"));
        entries.sort_by_key(|(unix_us, _)| *unix_us);
        let spans: Vec<String> = entries.into_iter().map(|(_, line)| line).collect();
        format!(
            "{{\"job\":{},\"trace_id\":{},\"spans\":[{}]}}",
            json_string(&self.id),
            json_string(&self.trace_id),
            spans.join(",")
        )
    }

    /// The status document `GET /v1/jobs/:id` returns. `cached` is set
    /// on submit responses to say whether the finished artifact was
    /// served from the fingerprint cache.
    pub(crate) fn status_json(&self, cached: Option<bool>) -> String {
        let state = self.state();
        let p = self.progress();
        let mut s = format!(
            "{{\"id\":{},\"trace_id\":{},\"state\":{},\"points\":{},\"replicas\":{},\"tasks\":{}",
            json_string(&self.id),
            json_string(&self.trace_id),
            json_string(state.label()),
            self.spec.points().len(),
            self.spec.replicas(),
            self.spec.task_count(),
        );
        if let Some(cached) = cached {
            s.push_str(&format!(",\"cached\":{cached}"));
        }
        if let JobState::Failed(e) = &state {
            s.push_str(&format!(",\"error\":{}", json_string(e)));
        }
        s.push_str(&format!(
            ",\"progress\":{{\"done\":{},\"total\":{},\"resumed\":{},\"replicas_per_sec\":{},\"events_per_sec\":{},\"wall_secs\":{}}}}}",
            p.done,
            p.total,
            p.resumed,
            json_number(p.replicas_per_sec),
            json_number(p.events_per_sec),
            json_number(p.wall_secs),
        ));
        s
    }

    /// [`Job::status_json`] extended with the manager's scheduling
    /// figures — queue depth, concurrently running jobs, and the
    /// fingerprint cache's hit/miss counters — so clients can make
    /// scheduling decisions from the status response alone instead of
    /// scraping `/metrics`.
    pub(crate) fn status_json_with_scheduling(
        &self,
        cached: Option<bool>,
        s: &SchedulingSnapshot,
    ) -> String {
        let mut doc = self.status_json(cached);
        debug_assert!(doc.ends_with('}'));
        doc.pop();
        doc.push_str(&format!(
            ",\"queue_depth\":{},\"active_jobs\":{},\"cache\":{{\"hit\":{},\"miss\":{}}}}}",
            s.queue_depth, s.active_jobs, s.cache_hits, s.cache_misses
        ));
        doc
    }
}

/// Tags a trace JSONL line holding a JSON object with the process that
/// recorded it by splicing a `proc` field in as its first member.
fn tag_proc(line: &str, proc_tag: &str) -> String {
    let rest = line.trim_start().strip_prefix('{').unwrap_or(line);
    let sep = if rest.trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    format!("{{\"proc\":{}{sep}{rest}", json_string(proc_tag))
}

/// The trace id a job runs under: the submitter's `X-Seg-Trace` value
/// when it is plausible (1-64 ascii alphanumeric/`-`/`_` bytes — no
/// quoting surprises in JSON or logs), a minted id otherwise.
fn accept_trace_hint(hint: Option<&str>) -> String {
    match hint {
        Some(h)
            if !h.is_empty()
                && h.len() <= 64
                && h.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_') =>
        {
            h.to_string()
        }
        _ => seg_obs::mint_trace_id(),
    }
}

/// A point-in-time copy of the manager's scheduling figures, read from
/// the [`seg_obs`] registry (the same numbers `GET /metrics` exports).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SchedulingSnapshot {
    /// Jobs waiting for a worker.
    pub(crate) queue_depth: u64,
    /// Jobs a worker is currently running.
    pub(crate) active_jobs: u64,
    /// Submissions answered from the fingerprint cache.
    pub(crate) cache_hits: u64,
    /// Submissions that created a fresh job.
    pub(crate) cache_misses: u64,
}

/// What [`JobManager::submit_as`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SubmitOutcome {
    /// A new job was created and enqueued.
    Fresh,
    /// The identical spec is already queued or running — the caller
    /// shares it.
    InFlight,
    /// The identical spec already finished: the artifact is served from
    /// the cache, nothing recomputes.
    Cached,
}

/// The job store + queue + worker pool, shared across connection
/// handlers.
#[derive(Debug)]
pub(crate) struct JobManager {
    pub(crate) data_dir: PathBuf,
    engine_threads: usize,
    drain: Arc<AtomicBool>,
    pub(crate) jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    cvar: Condvar,
    pub(crate) obs: ManagerMetrics,
    fleet: Option<Arc<FleetRegistry>>,
    admission: Arc<AdmissionControl>,
    /// Evict finished jobs idle past this (`--job-ttl`).
    pub(crate) job_ttl: Option<Duration>,
    /// Evict oldest finished jobs once the data dir exceeds this
    /// (`--data-max-bytes`).
    pub(crate) data_max_bytes: Option<u64>,
}

/// The manager's handles into the process-wide [`seg_obs`] registry.
#[derive(Debug)]
pub(crate) struct ManagerMetrics {
    queue_depth: Arc<seg_obs::Gauge>,
    active_jobs: Arc<seg_obs::Gauge>,
    cache_hits: Arc<seg_obs::Counter>,
    cache_misses: Arc<seg_obs::Counter>,
    cache_inflight: Arc<seg_obs::Counter>,
    pub(crate) jobs_evicted: Arc<seg_obs::Counter>,
    pub(crate) data_bytes: Arc<seg_obs::Gauge>,
}

impl ManagerMetrics {
    fn register() -> Self {
        let m = seg_obs::metrics();
        ManagerMetrics {
            queue_depth: m.gauge("serve_queue_depth", "jobs waiting for a job worker", &[]),
            active_jobs: m.gauge(
                "serve_active_jobs",
                "jobs currently running on a worker",
                &[],
            ),
            cache_hits: m.counter(
                "serve_cache_hits_total",
                "submissions answered from the fingerprint cache",
                &[],
            ),
            cache_misses: m.counter(
                "serve_cache_misses_total",
                "submissions that created a fresh job",
                &[],
            ),
            cache_inflight: m.counter(
                "serve_cache_inflight_total",
                "submissions that joined an already queued or running job",
                &[],
            ),
            jobs_evicted: m.counter(
                "serve_jobs_evicted_total",
                "finished jobs evicted by the TTL sweep or the data-dir byte bound",
                &[],
            ),
            data_bytes: m.gauge(
                "serve_data_bytes",
                "bytes held by job directories under the data dir",
                &[],
            ),
        }
    }
}

impl JobManager {
    /// A manager writing under `data_dir` (created if missing), running
    /// each job's sweep on `engine_threads` worker threads.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the data directory.
    pub(crate) fn new(data_dir: PathBuf, engine_threads: usize) -> io::Result<JobManager> {
        std::fs::create_dir_all(data_dir.join("jobs"))?;
        Ok(JobManager {
            data_dir,
            engine_threads,
            drain: Arc::new(AtomicBool::new(false)),
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            cvar: Condvar::new(),
            obs: ManagerMetrics::register(),
            fleet: None,
            admission: Arc::new(AdmissionControl::default()),
            job_ttl: None,
            data_max_bytes: None,
        })
    }

    /// Turns this manager into a fleet coordinator: before a job runs
    /// locally, its missing tasks are dispatched to the registry's live
    /// workers (see `JobManager::execute_fleet`).
    #[must_use]
    pub(crate) fn with_fleet(mut self, fleet: Arc<FleetRegistry>) -> JobManager {
        self.fleet = Some(fleet);
        self
    }

    /// Replaces the default (open) admission policy.
    #[must_use]
    pub(crate) fn with_admission(mut self, admission: Arc<AdmissionControl>) -> JobManager {
        self.admission = admission;
        self
    }

    /// Sets the cache lifecycle bounds enforced by
    /// [`JobManager::enforce_lifecycle`].
    #[must_use]
    pub(crate) fn with_lifecycle(
        mut self,
        job_ttl: Option<Duration>,
        data_max_bytes: Option<u64>,
    ) -> JobManager {
        self.job_ttl = job_ttl;
        self.data_max_bytes = data_max_bytes;
        self
    }

    /// The admission policy, for the API layer's key resolution.
    pub(crate) fn admission(&self) -> &Arc<AdmissionControl> {
        &self.admission
    }

    /// The scheduling figures the status endpoint embeds — queue depth
    /// and active jobs from the gauges, cache traffic from the counters.
    /// Counters are process-wide and cumulative (a second manager in the
    /// same process shares them).
    pub(crate) fn scheduling(&self) -> SchedulingSnapshot {
        SchedulingSnapshot {
            queue_depth: self.obs.queue_depth.get().max(0.0) as u64,
            active_jobs: self.obs.active_jobs.get().max(0.0) as u64,
            cache_hits: self.obs.cache_hits.get(),
            cache_misses: self.obs.cache_misses.get(),
        }
    }

    /// Re-registers every job found on disk: finished jobs become cache
    /// entries, unfinished ones are re-enqueued (their checkpoint
    /// journal makes the rerun a resume). Returns
    /// `(finished, requeued)` counts.
    ///
    /// # Errors
    ///
    /// Any I/O error from scanning the jobs directory; a single
    /// unreadable job directory is skipped with a stderr note instead.
    pub(crate) fn recover(&self) -> io::Result<(usize, usize)> {
        let (mut finished, mut requeued) = (0, 0);
        for entry in std::fs::read_dir(self.data_dir.join("jobs"))? {
            let dir = entry?.path();
            let request_path = dir.join("request.json");
            let text = match std::fs::read_to_string(&request_path) {
                Ok(t) => t,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => {
                    eprintln!("serve: skipping {}: {e}", request_path.display());
                    continue;
                }
            };
            let request = match Json::parse(&text).and_then(|j| SweepRequest::from_json(&j)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("serve: skipping {}: {e}", request_path.display());
                    continue;
                }
            };
            let spec = request.build_spec();
            let id = format!("{:016x}", spec_fingerprint(&spec));
            if dir.file_name().is_none_or(|n| n.to_string_lossy() != id) {
                eprintln!(
                    "serve: skipping {}: directory name does not match the spec fingerprint {id}",
                    dir.display()
                );
                continue;
            }
            let done = dir.join("done.json").exists();
            let job = Arc::new(Job::new(
                id.clone(),
                request,
                spec,
                dir,
                seg_obs::mint_trace_id(),
                done,
                None,
            ));
            self.jobs
                .lock()
                .expect("jobs poisoned")
                .insert(id, job.clone());
            if done {
                finished += 1;
            } else {
                requeued += 1;
                self.enqueue(job);
            }
        }
        Ok((finished, requeued))
    }

    /// Submits a request: returns the (possibly pre-existing) job and
    /// what happened. A fresh job has its `request.json` written before
    /// this returns, so a crash right after the response never loses
    /// the submission.
    ///
    /// `trace_hint` is the submitter's `X-Seg-Trace` header, if any: a
    /// fresh job adopts it as its trace id (so a caller's trace spans
    /// the whole fleet), a pre-existing job keeps the id it already
    /// runs under.
    ///
    /// When `client` is set, a submission that would create fresh work
    /// (a new job, or a failed job's retry) runs through the quota and
    /// queue-depth gates first — atomically with the job-table check,
    /// so a rejected client cannot slip a job in between the two. Cache
    /// hits and joins of in-flight jobs are always admitted, and so is
    /// every submission without a client.
    ///
    /// # Errors
    ///
    /// The outer `io::Result` is disk failure (creating the job
    /// directory or writing `request.json`); the inner `Result` is the
    /// admission verdict (`Err` becomes the API's 429).
    pub(crate) fn submit_as(
        &self,
        request: SweepRequest,
        trace_hint: Option<&str>,
        client: Option<&str>,
    ) -> io::Result<Result<(Arc<Job>, SubmitOutcome), Rejection>> {
        let spec = request.build_spec();
        let id = format!("{:016x}", spec_fingerprint(&spec));
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        if let Some(job) = jobs.get(&id) {
            let outcome = match job.state() {
                JobState::Done => {
                    job.touch();
                    self.obs.cache_hits.inc();
                    SubmitOutcome::Cached
                }
                // a failed job is retried on resubmit: back into the
                // queue — fresh work, so it must pass admission
                JobState::Failed(_) => {
                    if let Some(client) = client {
                        if let Err(r) = self.admission.admit_fresh(client, self.queue_len()) {
                            return Ok(Err(r));
                        }
                        *job.client.lock().expect("job client poisoned") = Some(client.into());
                    }
                    job.set_state(JobState::Queued);
                    job.touch();
                    self.enqueue(job.clone());
                    self.obs.cache_misses.inc();
                    SubmitOutcome::Fresh
                }
                _ => {
                    self.obs.cache_inflight.inc();
                    SubmitOutcome::InFlight
                }
            };
            return Ok(Ok((job.clone(), outcome)));
        }
        if let Some(client) = client {
            if let Err(r) = self.admission.admit_fresh(client, self.queue_len()) {
                return Ok(Err(r));
            }
        }
        self.obs.cache_misses.inc();
        let dir = self.data_dir.join("jobs").join(&id);
        let created = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("request.json"), request.to_json()));
        if let Err(e) = created {
            // hand the admission slot back: the job never existed
            if let Some(client) = client {
                self.admission.release(client);
            }
            return Err(e);
        }
        let job = Arc::new(Job::new(
            id.clone(),
            request,
            spec,
            dir,
            accept_trace_hint(trace_hint),
            false,
            client.map(String::from),
        ));
        jobs.insert(id, job.clone());
        drop(jobs);
        self.enqueue(job.clone());
        Ok(Ok((job, SubmitOutcome::Fresh)))
    }

    fn queue_len(&self) -> usize {
        self.queue.lock().expect("queue poisoned").len()
    }

    fn enqueue(&self, job: Arc<Job>) {
        let mut q = self.queue.lock().expect("queue poisoned");
        q.push_back(job);
        self.obs.queue_depth.set(q.len() as f64);
        drop(q);
        self.cvar.notify_one();
    }

    /// Looks a job up by id.
    pub(crate) fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs poisoned").get(id).cloned()
    }

    /// Every registered job, ordered by id — the dashboard's job list.
    pub(crate) fn jobs_snapshot(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Per-state job counts, for `/healthz`.
    pub(crate) fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::from([("queued", 0), ("running", 0), ("done", 0), ("failed", 0)]);
        for job in self.jobs.lock().expect("jobs poisoned").values() {
            *out.get_mut(job.state().label()).expect("known label") += 1;
        }
        out
    }

    /// Initiates drain: running sweeps stop claiming replicas (finishing
    /// and journaling the ones in flight), queued jobs stay on disk for
    /// the next start, and every waiting worker and row stream wakes up
    /// to exit.
    pub(crate) fn drain(&self) {
        self.drain.store(true, Ordering::Relaxed);
        self.cvar.notify_all();
        for job in self.jobs.lock().expect("jobs poisoned").values() {
            job.notify_rows();
        }
    }

    /// One job worker: pops jobs until drained. Run this on N threads
    /// for N-way job parallelism.
    pub(crate) fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if self.drain.load(Ordering::Relaxed) {
                        return;
                    }
                    if let Some(job) = q.pop_front() {
                        self.obs.queue_depth.set(q.len() as f64);
                        break job;
                    }
                    q = self.cvar.wait(q).expect("queue poisoned");
                }
            };
            self.run_job(&job);
        }
    }

    /// Runs one job synchronously on the calling thread — the
    /// in-process test harness for modules outside this one.
    #[cfg(test)]
    pub(crate) fn run_job_for_test(&self, job: &Arc<Job>) {
        self.run_job(job);
    }

    fn run_job(&self, job: &Arc<Job>) {
        job.set_state(JobState::Running);
        eprintln!(
            "serve: job {} started ({} tasks)",
            job.id,
            job.spec.task_count()
        );
        self.obs.active_jobs.inc();
        // bind the job's trace id, open the root span under it, then
        // re-bind with the span as parent so everything recorded while
        // the job runs (including on this thread's engine callbacks)
        // nests under `serve.job`; guards drop in reverse order
        let _ctx = TraceContext::new(job.trace_id.clone()).bind();
        let span = seg_obs::tracer().span("serve.job", job.id.clone());
        let _ctx_nested = TraceContext::new(job.trace_id.clone())
            .with_parent(span.id())
            .bind();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(job)));
        self.obs.active_jobs.dec();
        let state = match outcome {
            Ok(Ok(true)) => JobState::Done,
            // drained mid-run: the journal holds what finished; the next
            // start re-enqueues and resumes
            Ok(Ok(false)) => JobState::Queued,
            Ok(Err(e)) => JobState::Failed(e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "job panicked".into());
                JobState::Failed(msg)
            }
        };
        match &state {
            JobState::Done => eprintln!("serve: job {} done", job.id),
            JobState::Queued => eprintln!("serve: job {} drained, will resume", job.id),
            JobState::Failed(e) => eprintln!("serve: job {} failed: {e}", job.id),
            JobState::Running => unreachable!(),
        }
        let finished = !matches!(state, JobState::Queued);
        job.set_state(state);
        job.touch();
        // the job left the queued/running states (or the process is
        // draining): its admission slot goes back to the client
        if finished {
            if let Some(client) = job.client.lock().expect("job client poisoned").take() {
                self.admission.release(&client);
            }
            // completions are when the data dir grows: a good moment to
            // apply the TTL/byte bounds without waiting for the sweeper.
            // Unbounded, the pass would only refresh `serve_data_bytes`,
            // at a cost that grows with the jobs held, under the job
            // table's lock that submits need; the sweeper does that.
            if self.job_ttl.is_some() || self.data_max_bytes.is_some() {
                self.enforce_lifecycle();
            }
        }
    }

    /// Runs the sweep with checkpoint + streaming sink. `Ok(true)` means
    /// complete, `Ok(false)` a drain cut the run short.
    ///
    /// Under `--fleet` the heavy lifting happens first in
    /// [`JobManager::execute_fleet`], which fills the checkpoint journal
    /// from remote workers; the local engine pass below then *resumes*
    /// that journal, re-runs only what no worker delivered, and streams
    /// the rows — so the fleet path reuses the exact code path whose
    /// output is proven byte-identical to `segsim sweep --out`.
    fn execute(&self, job: &Arc<Job>) -> Result<bool, String> {
        if let Some(fleet) = &self.fleet {
            self.execute_fleet(job, fleet)?;
        }
        let stream = Sink::Jsonl(job.rows_path())
            .stream(&job.spec, &[], true)
            .map_err(|e| e.to_string())?;
        let progress_job = job.clone();
        let engine = Engine::new()
            .threads(self.engine_threads)
            .progress(true)
            .on_progress(move |p| {
                // runs right after the sink appended this replica's row
                *progress_job.progress.lock().expect("job progress poisoned") = p;
                progress_job.notify_rows();
                progress_job.push_history(p);
            })
            .cancel_flag(self.drain.clone());
        let result = engine
            .run_full(
                &job.spec,
                &[Observer::TerminalStats],
                Some(&job.dir.join("ck.jsonl")),
                Some(&stream),
            )
            .map_err(|e| e.to_string())?;
        if !result.is_complete() {
            return Ok(false);
        }
        let t = result.throughput();
        std::fs::write(
            job.dir.join("done.json"),
            format!(
                "{{\"tasks\":{},\"wall_secs\":{},\"replicas_per_sec\":{}}}",
                result.records().len(),
                json_number(t.wall_secs),
                json_number(t.replicas_per_sec),
            ),
        )
        .map_err(|e| e.to_string())?;
        Ok(true)
    }

    /// The fleet phase: dispatch the job's missing tasks to live remote
    /// workers, absorb the shard journals they upload into the job's
    /// checkpoint journal, and re-partition whenever a worker dies or
    /// goes stale (counting `fleet_shard_redispatch_total`). Returns
    /// once no live worker remains, the journal is complete, or a drain
    /// begins — the caller's local pass finishes whatever is left.
    ///
    /// Correctness invariants: uploaded records are deduplicated by task
    /// index against the journal (late uploads from superseded epochs
    /// are harmless), and the journal is only ever *appended* — the
    /// local resume that follows treats fleet-computed and
    /// locally-computed records identically.
    fn execute_fleet(&self, job: &Arc<Job>, fleet: &FleetRegistry) -> Result<(), String> {
        let stringify = |e: seg_engine::CheckpointError| e.to_string();
        let ck = job.dir.join("ck.jsonl");
        let (completed, journal) = Checkpoint::resume(&ck, &job.spec).map_err(stringify)?;
        let total = job.spec.task_count();
        let mut done: Vec<bool> = completed.iter().map(Option::is_some).collect();
        drop(completed);
        if !fleet.wait_for_worker(&self.drain) {
            eprintln!(
                "serve: job {}: no fleet worker joined within {:.0?}, running locally",
                job.id,
                fleet.timeout()
            );
            return Ok(());
        }
        let request_json = job.request.to_json();
        let set_progress = |done_count: usize| {
            let p = SweepProgress {
                done: done_count,
                total,
                resumed: done_count,
                wall_secs: 0.0,
                replicas_per_sec: 0.0,
                events_per_sec: 0.0,
            };
            *job.progress.lock().expect("job progress poisoned") = p;
            job.push_history(p);
        };
        let mut epoch = 0u64;
        'epochs: loop {
            if self.drain.load(Ordering::Relaxed) {
                break;
            }
            let missing: Vec<usize> = (0..total).filter(|&i| !done[i]).collect();
            if missing.is_empty() {
                break;
            }
            let live = fleet.live_workers();
            if live.is_empty() {
                eprintln!(
                    "serve: job {}: no live fleet worker, finishing {} task(s) locally",
                    job.id,
                    missing.len()
                );
                break;
            }
            epoch += 1;
            let shares = repartition(&missing, live.len());
            let parent = TraceContext::current().and_then(|c| c.parent_span_id);
            fleet.dispatch(
                &job.id,
                epoch,
                &request_json,
                shares,
                &job.trace_id,
                parent.as_deref(),
            );
            seg_obs::tracer().event(
                "fleet.dispatch",
                format!(
                    "job {} epoch {epoch}: {} task(s) over {} worker(s)",
                    job.id,
                    missing.len(),
                    live.len()
                ),
            );
            eprintln!(
                "serve: job {} epoch {epoch}: {} missing task(s) over {} live worker(s)",
                job.id,
                missing.len(),
                live.len()
            );
            loop {
                if self.drain.load(Ordering::Relaxed) {
                    break 'epochs;
                }
                for rec in fleet.take_uploads(&job.id) {
                    let i = rec.task.task_index;
                    if i < total && !done[i] {
                        journal.append(&rec).map_err(|e| e.to_string())?;
                        done[i] = true;
                    }
                }
                let done_count = done.iter().filter(|&&d| d).count();
                set_progress(done_count);
                if done_count == total {
                    break 'epochs;
                }
                match fleet.epoch_health(&job.id, epoch) {
                    EpochHealth::Complete => break, // recompute the missing set
                    EpochHealth::Working => std::thread::sleep(FLEET_POLL),
                    EpochHealth::Stalled => {
                        fleet.note_redispatch();
                        eprintln!(
                            "serve: job {} epoch {epoch}: worker stalled, re-dispatching",
                            job.id
                        );
                        break;
                    }
                }
            }
        }
        // absorb any uploads that raced the exit before the journal
        // handle closes
        for rec in fleet.take_uploads(&job.id) {
            let i = rec.task.task_index;
            if i < total && !done[i] {
                journal.append(&rec).map_err(|e| e.to_string())?;
                done[i] = true;
            }
        }
        let done_count = done.iter().filter(|&&d| d).count();
        set_progress(done_count);
        eprintln!(
            "serve: job {}: fleet delivered {done_count}/{total} task(s)",
            job.id
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_json(extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{"side": 24, "horizon": 1, "tau": [0.4, 0.45]{extra}}}"#
        ))
        .unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("seg_serve_jobs").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn request_round_trips_through_its_json() {
        let req = SweepRequest::from_json(&request_json(
            r#", "density": 0.4, "variant": ["paper", "noise:0.01"],
                "replicas": 3, "seed": 9, "max_events": 500"#,
        ))
        .unwrap();
        assert_eq!(req.sides, vec![24]);
        assert_eq!(req.taus, vec![0.4, 0.45]);
        assert_eq!(req.variants, vec![Variant::Paper, Variant::Noise(0.01)]);
        let back = SweepRequest::from_json(&Json::parse(&req.to_json()).unwrap()).unwrap();
        assert_eq!(req, back);
        assert_eq!(
            spec_fingerprint(&req.build_spec()),
            spec_fingerprint(&back.build_spec())
        );
    }

    #[test]
    fn requests_validate_before_the_builder_can_panic() {
        for (extra, needle) in [
            (r#", "replicas": 0"#, "replicas"),
            (r#", "tau": 1.5"#, "tau"),
            (r#", "horizon": 12"#, "horizon"),
            (r#", "variant": "two-sided:0.1""#, "two-sided"),
            (r#", "variant": "multi:1""#, "multi"),
            (r#", "variant": "noise:2""#, "noise"),
            (r#", "variant": "noise:-0.5""#, "noise"),
            (r#", "variant": "bogus""#, "unknown variant"),
            (r#", "bogus": 1"#, "unknown field"),
            (r#", "replicas": 1000000000"#, "cap"),
            (r#", "side": 100000"#, "capped"),
            (
                r#", "side": 4096, "variant": "multi:255""#,
                "multi:255 at side 4096",
            ),
            (r#", "seed": -3"#, "seed"),
        ] {
            let err = SweepRequest::from_json(&request_json(extra)).unwrap_err();
            assert!(err.contains(needle), "{extra}: got {err:?}");
        }
        assert!(SweepRequest::from_json(&Json::parse("{}").unwrap())
            .unwrap_err()
            .contains("needs side"));
        assert!(SweepRequest::from_json(&Json::parse("[1]").unwrap())
            .unwrap_err()
            .contains("object"));
    }

    /// Illegal sweeps the builder refuses are a message (the 400 body),
    /// never a panic: NaN bands and horizons whose `2w` wraps in `u32`.
    #[test]
    fn requests_the_builder_refuses_are_errors_not_panics() {
        for (extra, needle) in [
            (r#", "variant": "two-sided:NaN""#, "two-sided"),
            (r#", "horizon": 2147483648"#, "window diameter"),
            (r#", "side": 16, "horizon": 4294967295"#, "window diameter"),
        ] {
            let err = SweepRequest::from_json(&request_json(extra)).unwrap_err();
            assert!(err.contains(needle), "{extra}: got {err:?}");
        }
    }

    #[test]
    fn submit_deduplicates_by_fingerprint() {
        let mgr = JobManager::new(tmp("dedup"), 1).unwrap();
        let req = SweepRequest::from_json(&request_json(r#", "max_events": 100"#)).unwrap();
        let (a, outcome_a) = mgr.submit_as(req.clone(), None, None).unwrap().unwrap();
        assert_eq!(outcome_a, SubmitOutcome::Fresh);
        let (b, outcome_b) = mgr.submit_as(req.clone(), None, None).unwrap().unwrap();
        assert_eq!(outcome_b, SubmitOutcome::InFlight);
        assert_eq!(a.id, b.id);
        // a different seed is a different job
        let mut other = req;
        other.seed = 1;
        let (c, _) = mgr.submit_as(other, None, None).unwrap().unwrap();
        assert_ne!(a.id, c.id);
        assert!(a.dir.join("request.json").exists());
    }

    #[test]
    fn jobs_run_to_done_and_recover_as_cache_hits() {
        let dir = tmp("run_and_recover");
        let req = SweepRequest::from_json(&request_json(r#", "replicas": 2, "max_events": 200"#))
            .unwrap();
        let id;
        {
            let mgr = JobManager::new(dir.clone(), 2).unwrap();
            let (job, _) = mgr.submit_as(req.clone(), None, None).unwrap().unwrap();
            id = job.id.clone();
            // run the queue inline: drain first so the loop exits once idle
            mgr.run_job(&job);
            assert_eq!(job.state(), JobState::Done);
            assert_eq!(job.progress().done, job.spec.task_count());
            assert!(job.rows_path().exists());
            assert!(job.dir.join("done.json").exists());
        }
        // a fresh manager over the same data dir sees the finished job
        let mgr = JobManager::new(dir, 2).unwrap();
        let (finished, requeued) = mgr.recover().unwrap();
        assert_eq!((finished, requeued), (1, 0));
        let (job, outcome) = mgr.submit_as(req, None, None).unwrap().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(outcome, SubmitOutcome::Cached);
        assert!(job.status_json(Some(true)).contains("\"cached\":true"));
    }

    #[test]
    fn drained_jobs_requeue_on_recovery() {
        let dir = tmp("drain_recover");
        let req = SweepRequest::from_json(&request_json(r#", "replicas": 2"#)).unwrap();
        {
            let mgr = JobManager::new(dir.clone(), 1).unwrap();
            // drain before running: the worker claims nothing
            let (job, _) = mgr.submit_as(req.clone(), None, None).unwrap().unwrap();
            mgr.drain();
            mgr.run_job(&job);
            assert_eq!(job.state(), JobState::Queued);
            assert!(!job.dir.join("done.json").exists());
        }
        let mgr = JobManager::new(dir, 1).unwrap();
        let (finished, requeued) = mgr.recover().unwrap();
        assert_eq!((finished, requeued), (0, 1));
        let job = mgr.get(&format!("{:016x}", spec_fingerprint(&req.build_spec())));
        assert_eq!(job.unwrap().state(), JobState::Queued);
    }

    #[test]
    fn trace_hints_are_adopted_only_when_plausible() {
        let mgr = JobManager::new(tmp("trace_hint"), 1).unwrap();
        let req = SweepRequest::from_json(&request_json("")).unwrap();
        let (job, _) = mgr
            .submit_as(req.clone(), Some("client-trace_7"), None)
            .unwrap()
            .unwrap();
        assert_eq!(job.trace_id, "client-trace_7");
        // resubmission keeps the id the job already runs under
        let (again, _) = mgr.submit_as(req, Some("other"), None).unwrap().unwrap();
        assert_eq!(again.trace_id, "client-trace_7");
        for bad in ["", "has space", "x\"y", &"a".repeat(65)] {
            let mut other = SweepRequest::from_json(&request_json("")).unwrap();
            other.seed = 1 + bad.len() as u64;
            let (job, _) = mgr.submit_as(other, Some(bad), None).unwrap().unwrap();
            assert_ne!(job.trace_id, bad, "implausible hint {bad:?} adopted");
            assert_eq!(job.trace_id.len(), 16, "expected a minted id");
        }
    }

    #[test]
    fn trace_json_merges_worker_spans_in_unix_us_order() {
        let mgr = JobManager::new(tmp("trace_json"), 1).unwrap();
        let req = SweepRequest::from_json(&request_json("")).unwrap();
        let (job, _) = mgr
            .submit_as(req, Some("merge-test-trace"), None)
            .unwrap()
            .unwrap();
        job.add_worker_spans(
            "w1",
            &[
                "{\"t_us\":2,\"unix_us\":200,\"kind\":\"span\",\"name\":\"work.run\",\"detail\":\"\"}"
                    .to_string(),
                "{\"t_us\":1,\"unix_us\":100,\"kind\":\"event\",\"name\":\"work.claim\",\"detail\":\"\"}"
                    .to_string(),
            ],
        );
        let doc = Json::parse(&job.trace_json()).unwrap();
        assert_eq!(
            doc.get("trace_id").unwrap().as_str(),
            Some("merge-test-trace")
        );
        let spans = doc.get("spans").unwrap().as_list();
        assert_eq!(spans.len(), 2);
        // sorted by unix_us, not upload order, and tagged with the worker
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("work.claim"));
        assert_eq!(spans[0].get("proc").unwrap().as_str(), Some("w1"));
        assert_eq!(spans[1].get("unix_us").unwrap().as_u64(), Some(200));
        // the cap holds
        let many: Vec<String> = (0..2 * WORKER_SPANS_CAP)
            .map(|i| {
                format!("{{\"unix_us\":{i},\"kind\":\"event\",\"name\":\"x\",\"detail\":\"\"}}")
            })
            .collect();
        job.add_worker_spans("w2", &many);
        let doc = Json::parse(&job.trace_json()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_list().len(), WORKER_SPANS_CAP);
    }

    #[test]
    fn status_json_is_wellformed() {
        let mgr = JobManager::new(tmp("status"), 1).unwrap();
        let req = SweepRequest::from_json(&request_json("")).unwrap();
        let (job, _) = mgr.submit_as(req, None, None).unwrap().unwrap();
        let doc = Json::parse(&job.status_json(None)).unwrap();
        assert_eq!(doc.get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(doc.get("tasks").unwrap().as_u64(), Some(2));
        assert!(doc.get("cached").is_none());
        assert_eq!(
            doc.get("progress").unwrap().get("total").unwrap().as_u64(),
            Some(2)
        );
    }

    #[test]
    fn job_history_keeps_first_and_final_samples_at_the_tier_cadence() {
        let mgr = JobManager::new(tmp("history_cadence"), 1).unwrap();
        let samples = |job: &Job, name: &str| {
            let labels = [("job".to_string(), job.id.clone())];
            let series = seg_obs::history().query(name, Some(&labels), 0);
            assert_eq!(series.len(), 1, "{name}");
            series[0].1.clone()
        };
        let value = |s: &seg_obs::history::Sample| match s.value {
            seg_obs::history::Value::Gauge(v) => v,
            v => panic!("not a gauge: {v:?}"),
        };

        // progress reported every 25 ms for ~1.5 s
        let req =
            SweepRequest::from_json(&request_json(r#", "replicas": 30, "seed": 77"#)).unwrap();
        let (job, _) = mgr.submit_as(req, None, None).unwrap().unwrap();
        let total = job.spec.task_count();
        let started = Instant::now();
        for done in 1..=total {
            let rate = done as f64;
            job.push_history(SweepProgress {
                done,
                total,
                resumed: 0,
                wall_secs: 0.0,
                replicas_per_sec: rate,
                events_per_sec: rate,
            });
            std::thread::sleep(Duration::from_millis(25));
        }
        let secs = started.elapsed().as_secs_f64();
        for name in ["serve_job_replicas_per_sec", "serve_job_events_per_sec"] {
            let got = samples(&job, name);
            assert_eq!(value(&got[0]), 1.0, "{name}: first sample missing");
            assert_eq!(
                value(got.last().unwrap()),
                total as f64,
                "{name}: final missing"
            );
            assert!(
                got.len() >= 3 && got.len() as f64 <= 2.0 + secs,
                "{name}: {} samples over {secs:.1} s",
                got.len()
            );
            for w in got[..got.len() - 1].windows(2) {
                assert!(
                    w[1].unix_us - w[0].unix_us >= 1_000_000,
                    "{name}: samples {} us apart",
                    w[1].unix_us - w[0].unix_us
                );
            }
        }

        // a real run records its final progress sample last
        let req =
            SweepRequest::from_json(&request_json(r#", "replicas": 30, "seed": 78"#)).unwrap();
        let (job, _) = mgr.submit_as(req, None, None).unwrap().unwrap();
        let started = Instant::now();
        mgr.run_job(&job);
        let p = job.progress();
        assert_eq!(p.done, p.total);
        let got = samples(&job, "serve_job_replicas_per_sec");
        assert!(got.len() >= 2 && got.len() as f64 <= 2.0 + started.elapsed().as_secs_f64());
        assert_eq!(value(got.last().unwrap()), p.replicas_per_sec);
    }
}
