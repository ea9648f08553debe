//! Routing and endpoint semantics — the part of the service that knows
//! what `/v1/sweeps` means.
//!
//! | endpoint | verb | what it does |
//! |---|---|---|
//! | `/healthz` | GET | liveness + per-state job counts |
//! | `/metrics` | GET | Prometheus text exposition of the process-wide [`seg_obs`] registry |
//! | `/v1/metrics/history` | GET | JSON time series from the [`mod@seg_obs::history`] store; `?name=FAMILY` (required), `&labels=k=v,k2=v2`, `&res=1s\|10s\|60s` |
//! | `/alerts` | GET | every `--alerts` rule with its state (inactive/pending/firing) and last value |
//! | `/dashboard` | GET | self-contained HTML status page with per-job throughput charts; `?refresh=SECS` tunes the meta refresh (clamped 1–300) |
//! | `/v1/sweeps` | POST | submit a sweep (JSON body); dedup by spec fingerprint; admission-gated (429 + `Retry-After` under overload, 401 for unknown API keys) |
//! | `/v1/jobs/:id` | GET | status, progress, live replicas/s, queue/cache figures |
//! | `/v1/jobs/:id` | DELETE | remove a finished job and its artifacts (409 while queued/running) |
//! | `/v1/jobs/:id/rows` | GET | NDJSON result rows, chunked, in task order; `?from=K` skips the first K rows |
//! | `/v1/jobs/:id/trace` | GET | the job's cross-process span timeline (coordinator + worker spans, merged by `unix_us`) |
//! | `/v1/shutdown` | POST | graceful drain: stop accepting, journal in-flight work, exit |
//! | `/v1/workers/register` | POST | fleet only: a `segsim work` process joins, gets a worker id |
//! | `/v1/workers/:id/heartbeat` | POST | fleet only: keep the worker live (404 = re-register); body may carry throughput stats |
//! | `/v1/workers/:id/claim` | POST | fleet only: ask for an assignment (doubles as a heartbeat); claims carry the job's trace id |
//! | `/v1/workers` | GET | fleet only: every known worker with heartbeat age, claim state and reported replicas/s |
//! | `/v1/jobs/:id/journal` | POST | fleet only: upload a shard journal (`?worker=ID&epoch=N`, NDJSON body, trace lines pass through) |
//!
//! The `/v1/workers*` and journal endpoints answer 404 unless the
//! server runs with `--fleet`; the protocol is documented in
//! `docs/FLEET.md`. Worker-reported stats in heartbeat/claim bodies are
//! federated into `fleet_worker_*{worker=...}` gauges (see
//! `docs/OBSERVABILITY.md`), and a submit may pin the job's distributed
//! trace id with an `X-Seg-Trace` header.
//!
//! Every request is counted into
//! `serve_http_requests_total{endpoint,method,status}` and timed into
//! the `serve_http_request_seconds{endpoint}` histogram; the endpoint
//! label is the route *pattern* (`/v1/jobs/:id`), never the raw path, so
//! the label space stays bounded no matter what clients request.
//!
//! The row stream serves the bytes of the job's streaming-sink file
//! verbatim, so a finished job's stream is byte-identical to
//! `segsim sweep --out rows.jsonl` under the same parameters.
//! Streaming follows a *live* job: rows are pushed as replicas finish
//! (the job wakes its streams each time its sink appends a row), and
//! the stream terminates when the job completes (or fails — check the
//! status endpoint when a stream ends short).

use crate::http::{write_json, write_response, write_response_with, ChunkedBody, Request};
use crate::jobs::{Job, JobManager, JobState, SubmitOutcome, SweepRequest};
use crate::lifecycle::DeleteOutcome;
use seg_engine::{read_journal, Journal};
use seg_obs::{json_string, Counter, Json};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest a live row stream waits for its job to signal before
/// re-reading the sink file anyway. A backstop, not the cadence: the job
/// wakes its streams whenever a row lands or its state changes.
const ROWS_WAIT_MAX: Duration = Duration::from_secs(2);

/// The most row bytes one chunk of a row stream carries (unless a
/// single row is longer), so a client that buffers a chunk at a time
/// holds a bounded amount however far behind the job it starts.
const ROWS_CHUNK_MAX: usize = 64 * 1024;

/// Shared state every connection handler routes against.
pub(crate) struct ApiContext {
    /// The job store/queue/worker pool.
    pub(crate) manager: Arc<JobManager>,
    /// The fleet worker registry when the server runs with `--fleet`;
    /// `None` turns every `/v1/workers*` endpoint into a 404.
    pub(crate) fleet: Option<Arc<crate::fleet::FleetRegistry>>,
    /// Set by `/v1/shutdown`; the accept loop watches it.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// The bound address (the shutdown handler pokes it to unblock
    /// `accept`).
    pub(crate) local_addr: SocketAddr,
    /// When the server started, for `/healthz` uptime.
    pub(crate) started: Instant,
}

fn error_body(msg: &str) -> String {
    format!("{{\"error\":{}}}", json_string(msg))
}

/// The throughput figures a worker reports in its heartbeat/claim body
/// (`{"replicas_per_sec":X,"events_per_sec":Y}`). `None` when the body
/// is not a JSON object (older workers send nothing); absent fields
/// read as zero, which is also what an idle worker reports.
fn worker_stats(body: &[u8]) -> Option<(f64, f64)> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    if !matches!(json, Json::Obj(_)) {
        return None;
    }
    let field = |k: &str| json.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
    Some((field("replicas_per_sec"), field("events_per_sec")))
}

/// Answers a `GET /v1/metrics/history` query against the process-wide
/// [`mod@seg_obs::history`] store — shared by the coordinator route and the
/// worker's own metrics listener. `?name=FAMILY` is required;
/// `&labels=k=v,k2=v2` narrows to series carrying all the pairs;
/// `&res=1s|10s|60s` picks the downsampling tier (default `1s`).
///
/// # Errors
///
/// A human-readable message for the 400 body when a parameter is
/// missing or malformed.
pub(crate) fn metrics_history_body(req: &Request) -> Result<String, String> {
    let name = match req.query_param("name") {
        Some(n) if !n.is_empty() => n,
        _ => return Err("name query parameter is required".to_string()),
    };
    let labels: Option<Vec<(String, String)>> = match req.query_param("labels") {
        None | Some("") => None,
        Some(spec) => {
            let mut pairs = Vec::new();
            for part in spec.split(',') {
                match part.split_once('=') {
                    Some((k, v)) if !k.is_empty() => pairs.push((k.to_string(), v.to_string())),
                    _ => return Err("labels must be k=v pairs separated by commas".to_string()),
                }
            }
            Some(pairs)
        }
    };
    let tier = match req.query_param("res") {
        None | Some("") => 0,
        Some(res) => seg_obs::history::tier_for_res(res)
            .ok_or_else(|| "res must be 1s, 10s or 60s".to_string())?,
    };
    Ok(seg_obs::history().query_json(name, labels.as_deref(), tier))
}

/// The route *pattern* a path matches — the bounded-cardinality
/// `endpoint` label of the request metrics.
fn endpoint_label(segments: &[&str]) -> &'static str {
    match segments {
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["alerts"] => "/alerts",
        ["dashboard"] => "/dashboard",
        ["v1", "metrics", "history"] => "/v1/metrics/history",
        ["v1", "sweeps"] => "/v1/sweeps",
        ["v1", "jobs", _] => "/v1/jobs/:id",
        ["v1", "jobs", _, "rows"] => "/v1/jobs/:id/rows",
        ["v1", "jobs", _, "trace"] => "/v1/jobs/:id/trace",
        ["v1", "jobs", _, "journal"] => "/v1/jobs/:id/journal",
        ["v1", "shutdown"] => "/v1/shutdown",
        ["v1", "workers"] => "/v1/workers",
        ["v1", "workers", "register"] => "/v1/workers/register",
        ["v1", "workers", _, "heartbeat"] => "/v1/workers/:id/heartbeat",
        ["v1", "workers", _, "claim"] => "/v1/workers/:id/claim",
        _ => "other",
    }
}

/// The request method as the `method` label of the request metrics: the
/// methods the router answers, and `other` for any token a client sends,
/// so the label stays bounded.
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "DELETE" => "DELETE",
        _ => "other",
    }
}

/// Handles one request, writing the full response to `out`. Returns
/// whether the connection may be kept alive.
///
/// Each call records one sample into the request counter and the
/// per-endpoint latency histogram, and one `serve.request` span into
/// the tracer.
///
/// # Errors
///
/// Only socket-level failures; application-level problems become 4xx/5xx
/// responses.
pub(crate) fn handle<W: Write>(req: &Request, out: &mut W, ctx: &ApiContext) -> io::Result<bool> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let endpoint = endpoint_label(&segments);
    let started = Instant::now();
    let _span = seg_obs::tracer().span("serve.request", format!("{} {}", req.method, req.path));
    let status = std::cell::Cell::new(0u16);
    let result = route(req, &segments, out, ctx, &status);
    let m = seg_obs::metrics();
    m.counter(
        "serve_http_requests_total",
        "HTTP requests handled, by route pattern, method and status",
        &[
            ("endpoint", endpoint),
            ("method", method_label(&req.method)),
            ("status", &status.get().to_string()),
        ],
    )
    .inc();
    m.histogram(
        "serve_http_request_seconds",
        "request handling latency, by route pattern",
        &[("endpoint", endpoint)],
        seg_obs::Histogram::LATENCY_BUCKETS,
    )
    .observe_duration(started.elapsed());
    result
}

/// The routing match itself; records the response status it committed
/// into `status` (streaming responses report the status of their head).
fn route<W: Write>(
    req: &Request,
    segments: &[&str],
    out: &mut W,
    ctx: &ApiContext,
    status: &std::cell::Cell<u16>,
) -> io::Result<bool> {
    let keep = req.keep_alive;
    // shadows the imported writer so every existing arm records its
    // status as a side effect of responding
    let write_json = |out: &mut W, code: u16, body: &str, keep: bool| {
        status.set(code);
        write_json(out, code, body, keep)
    };
    match (req.method.as_str(), segments) {
        ("GET", ["healthz"]) => {
            // a draining instance reports 503 so load balancers rotate
            // it out before the socket actually closes
            let draining = ctx.shutdown.load(Ordering::Relaxed);
            let counts = ctx.manager.counts();
            let jobs: Vec<String> = counts
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_string(k)))
                .collect();
            let body = format!(
                "{{\"status\":{},\"uptime_secs\":{:.1},\"jobs\":{{{}}}}}",
                if draining { "\"draining\"" } else { "\"ok\"" },
                ctx.started.elapsed().as_secs_f64(),
                jobs.join(",")
            );
            write_json(out, if draining { 503 } else { 200 }, &body, keep)?;
            Ok(keep)
        }
        ("GET", ["metrics"]) => {
            status.set(200);
            let body = seg_obs::metrics().render();
            write_response(
                out,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
                keep,
            )?;
            Ok(keep)
        }
        ("GET", ["alerts"]) => {
            write_json(out, 200, &seg_obs::history().alerts_json(), keep)?;
            Ok(keep)
        }
        ("GET", ["v1", "metrics", "history"]) => {
            match metrics_history_body(req) {
                Ok(body) => write_json(out, 200, &body, keep)?,
                Err(e) => write_json(out, 400, &error_body(&e), keep)?,
            }
            Ok(keep)
        }
        ("GET", ["dashboard"]) => {
            let refresh = req
                .query_param("refresh")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(crate::dashboard::DEFAULT_REFRESH_SECS)
                .clamp(1, 300);
            status.set(200);
            let body = crate::dashboard::render(ctx, refresh);
            write_response(out, 200, "text/html; charset=utf-8", body.as_bytes(), keep)?;
            Ok(keep)
        }
        ("POST", ["v1", "sweeps"]) => {
            let parsed = std::str::from_utf8(&req.body)
                .map_err(|_| "body is not UTF-8".to_string())
                .and_then(Json::parse)
                .and_then(|json| SweepRequest::from_json(&json));
            let request = match parsed {
                Ok(r) => r,
                Err(e) => {
                    write_json(out, 400, &error_body(&e), keep)?;
                    return Ok(keep);
                }
            };
            if ctx.shutdown.load(Ordering::Relaxed) {
                status.set(503);
                write_response_with(
                    out,
                    503,
                    "application/json",
                    &[("retry-after", "10".to_string())],
                    error_body("server is draining").as_bytes(),
                    false,
                )?;
                return Ok(false);
            }
            let client = match ctx.manager.admission().resolve(req.header("x-api-key")) {
                Ok(c) => c,
                Err(crate::admission::UnknownKey) => {
                    write_json(out, 401, &error_body("unknown API key"), keep)?;
                    return Ok(keep);
                }
            };
            let admitted =
                match ctx
                    .manager
                    .submit_as(request, req.header("x-seg-trace"), Some(&client))
                {
                    Ok(x) => x,
                    Err(e) => {
                        write_json(out, 500, &error_body(&e.to_string()), keep)?;
                        return Ok(keep);
                    }
                };
            let (job, outcome) = match admitted {
                Ok(pair) => pair,
                Err(rejection) => {
                    status.set(429);
                    write_response_with(
                        out,
                        429,
                        "application/json",
                        &[("retry-after", rejection.retry_after().to_string())],
                        error_body(&rejection.message()).as_bytes(),
                        keep,
                    )?;
                    return Ok(keep);
                }
            };
            let (status, cached) = match outcome {
                SubmitOutcome::Cached => (200, true),
                SubmitOutcome::InFlight | SubmitOutcome::Fresh => (202, false),
            };
            write_json(out, status, &job.status_json(Some(cached)), keep)?;
            Ok(keep)
        }
        ("GET", ["v1", "jobs", id]) => match ctx.manager.get(id) {
            Some(job) => {
                let body = job.status_json_with_scheduling(None, &ctx.manager.scheduling());
                write_json(out, 200, &body, keep)?;
                Ok(keep)
            }
            None => {
                write_json(out, 404, &error_body("no such job"), keep)?;
                Ok(keep)
            }
        },
        ("DELETE", ["v1", "jobs", id]) => match ctx.manager.delete(id) {
            DeleteOutcome::Deleted => {
                write_json(out, 200, "{\"deleted\":true}", keep)?;
                Ok(keep)
            }
            DeleteOutcome::NotFound => {
                write_json(out, 404, &error_body("no such job"), keep)?;
                Ok(keep)
            }
            DeleteOutcome::Busy => {
                write_json(
                    out,
                    409,
                    &error_body("job is queued or running; wait for it to finish"),
                    keep,
                )?;
                Ok(keep)
            }
        },
        ("GET", ["v1", "jobs", id, "trace"]) => match ctx.manager.get(id) {
            Some(job) => {
                write_json(out, 200, &job.trace_json(), keep)?;
                Ok(keep)
            }
            None => {
                write_json(out, 404, &error_body("no such job"), keep)?;
                Ok(keep)
            }
        },
        ("GET", ["v1", "jobs", id, "rows"]) => {
            let job = match ctx.manager.get(id) {
                Some(job) => job,
                None => {
                    write_json(out, 404, &error_body("no such job"), keep)?;
                    return Ok(keep);
                }
            };
            let from: usize = match req.query_param("from").map(str::parse).transpose() {
                Ok(v) => v.unwrap_or(0),
                Err(_) => {
                    write_json(
                        out,
                        400,
                        &error_body("from must be a non-negative integer"),
                        keep,
                    )?;
                    return Ok(keep);
                }
            };
            status.set(200);
            let rows_streamed = seg_obs::metrics().counter(
                "serve_rows_streamed_total",
                "result rows sent to row-stream clients",
                &[],
            );
            stream_rows(&job, from, out, keep, &ctx.shutdown, &rows_streamed)?;
            Ok(keep)
        }
        ("POST", ["v1", "workers", "register"]) => match &ctx.fleet {
            None => {
                write_json(out, 404, &error_body("fleet mode is off"), keep)?;
                Ok(keep)
            }
            Some(fleet) => {
                let id = fleet.register();
                eprintln!("serve: fleet worker {id} registered");
                write_json(
                    out,
                    200,
                    &format!("{{\"worker_id\":{}}}", json_string(&id)),
                    keep,
                )?;
                Ok(keep)
            }
        },
        ("POST", ["v1", "workers", id, "heartbeat"]) => match &ctx.fleet {
            None => {
                write_json(out, 404, &error_body("fleet mode is off"), keep)?;
                Ok(keep)
            }
            Some(fleet) if fleet.heartbeat(id) => {
                if let Some((r, ev)) = worker_stats(&req.body) {
                    fleet.note_stats(id, r, ev);
                }
                write_json(out, 200, "{\"ok\":true}", keep)?;
                Ok(keep)
            }
            Some(_) => {
                write_json(out, 404, &error_body("unknown worker"), keep)?;
                Ok(keep)
            }
        },
        ("POST", ["v1", "workers", id, "claim"]) => match &ctx.fleet {
            None => {
                write_json(out, 404, &error_body("fleet mode is off"), keep)?;
                Ok(keep)
            }
            Some(fleet) => match fleet.claim(id) {
                None => {
                    write_json(out, 404, &error_body("unknown worker"), keep)?;
                    Ok(keep)
                }
                Some(None) => {
                    if let Some((r, ev)) = worker_stats(&req.body) {
                        fleet.note_stats(id, r, ev);
                    }
                    write_json(out, 200, "{\"idle\":true}", keep)?;
                    Ok(keep)
                }
                Some(Some(a)) => {
                    let tasks: Vec<String> = a.tasks.iter().map(usize::to_string).collect();
                    let parent = a
                        .parent_span_id
                        .as_deref()
                        .map(|p| format!(",\"parent_span\":{}", json_string(p)))
                        .unwrap_or_default();
                    let body = format!(
                        "{{\"job\":{},\"epoch\":{},\"trace\":{}{parent},\"request\":{},\"tasks\":[{}]}}",
                        json_string(&a.job_id),
                        a.epoch,
                        json_string(&a.trace_id),
                        a.request_json,
                        tasks.join(",")
                    );
                    eprintln!(
                        "serve: fleet worker {id} claimed {} task(s) of job {} (epoch {})",
                        a.tasks.len(),
                        a.job_id,
                        a.epoch
                    );
                    write_json(out, 200, &body, keep)?;
                    Ok(keep)
                }
            },
        },
        ("GET", ["v1", "workers"]) => match &ctx.fleet {
            None => {
                write_json(out, 404, &error_body("fleet mode is off"), keep)?;
                Ok(keep)
            }
            Some(fleet) => {
                fleet.live_workers(); // refresh ages before reporting
                write_json(out, 200, &fleet.workers_json(), keep)?;
                Ok(keep)
            }
        },
        ("POST", ["v1", "jobs", id, "journal"]) => {
            let fleet = match &ctx.fleet {
                Some(f) => f,
                None => {
                    write_json(out, 404, &error_body("fleet mode is off"), keep)?;
                    return Ok(keep);
                }
            };
            let job = match ctx.manager.get(id) {
                Some(job) => job,
                None => {
                    write_json(out, 404, &error_body("no such job"), keep)?;
                    return Ok(keep);
                }
            };
            let worker = req.query_param("worker").unwrap_or("unknown");
            match upload_journal(&req.body, &job.spec) {
                Ok(journal) => {
                    seg_obs::metrics()
                        .histogram(
                            "fleet_journal_upload_bytes",
                            "size of accepted shard-journal upload bodies",
                            &[],
                            seg_obs::Histogram::SIZE_BUCKETS,
                        )
                        .observe(req.body.len() as f64);
                    if !journal.spans.is_empty() {
                        let lines: Vec<String> =
                            journal.spans.into_iter().map(|(_, line)| line).collect();
                        job.add_worker_spans(worker, &lines);
                    }
                    let accepted = fleet.accept_upload(worker, &job.id, journal.records);
                    {
                        // record the upload into the job's own trace so the
                        // merged timeline shows when results landed
                        let _ctx = seg_obs::TraceContext::new(job.trace_id.clone()).bind();
                        seg_obs::tracer().event(
                            "fleet.upload",
                            format!("worker {worker}: {accepted} record(s) for job {}", job.id),
                        );
                    }
                    eprintln!(
                        "serve: fleet worker {worker} uploaded {accepted} record(s) for job {}",
                        job.id
                    );
                    write_json(out, 200, &format!("{{\"accepted\":{accepted}}}"), keep)?;
                    Ok(keep)
                }
                Err(e) => {
                    write_json(out, 400, &error_body(&e), keep)?;
                    Ok(keep)
                }
            }
        }
        ("POST", ["v1", "shutdown"]) => {
            write_json(out, 200, "{\"status\":\"draining\"}", false)?;
            ctx.shutdown.store(true, Ordering::Relaxed);
            ctx.manager.drain();
            // poke the accept loop so it observes the flag
            let _ = TcpStream::connect(ctx.local_addr);
            Ok(false)
        }
        (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["alerts"])
        | (_, ["dashboard"])
        | (_, ["v1", "sweeps"])
        | (_, ["v1", "shutdown"])
        | (_, ["v1", "metrics", "history"])
        | (_, ["v1", "jobs", ..])
        | (_, ["v1", "workers", ..]) => {
            write_json(out, 405, &error_body("method not allowed"), keep)?;
            Ok(keep)
        }
        _ => {
            write_json(out, 404, &error_body("no such endpoint"), keep)?;
            Ok(keep)
        }
    }
}

/// Reads a fleet upload body with the engine's journal reader. Unlike a
/// checkpoint file, whose torn header is simply rewritten, an upload
/// must carry at least its header line.
fn upload_journal(body: &[u8], spec: &seg_engine::SweepSpec) -> Result<Journal, String> {
    let text = std::str::from_utf8(body).map_err(|_| "journal is not valid UTF-8".to_string())?;
    match read_journal(text, spec) {
        Ok(j) if j.complete_len == 0 && !text.is_empty() => {
            Err("journal has no complete header line".into())
        }
        read => read.map_err(|e| e.to_string()),
    }
}

/// Opens the sink file, `None` while it does not exist yet (the job has
/// not started).
fn open_rows(path: &std::path::Path) -> io::Result<Option<File>> {
    match File::open(path) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The length of the longest prefix of whole `rows` (each ending in a
/// newline) that fits in `cap` bytes; the first row alone when it is
/// longer than `cap`.
fn row_run(rows: &[u8], cap: usize) -> usize {
    match rows[..cap.min(rows.len())]
        .iter()
        .rposition(|&b| b == b'\n')
    {
        Some(i) => i + 1,
        None => rows
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rows.len(), |i| i + 1),
    }
}

/// Streams the job's NDJSON rows as a chunked body, following the file
/// while the job is live. Rows are released whole-line (a torn tail
/// mid-append is held back until its newline lands), in task order,
/// skipping the first `from` — which is what makes an interrupted
/// client resumable: count the rows you got, reconnect with `?from=K`.
///
/// Between reads the stream sleeps on the job's row generation, which
/// moves when a row lands, when the state changes, and on drain. Each
/// row sent adds one to `rows_streamed`.
fn stream_rows<W: Write>(
    job: &Arc<Job>,
    from: usize,
    out: &mut W,
    keep_alive: bool,
    shutdown: &AtomicBool,
    rows_streamed: &Counter,
) -> io::Result<()> {
    let total = job.spec.task_count();
    job.touch(); // streaming counts as use for LRU eviction
    let path = job.rows_path();
    let mut body = ChunkedBody::start(out, 200, "application/x-ndjson", keep_alive)?;
    let mut file = None;
    let mut bytes = Vec::new();
    let mut offset = 0u64; // end of the last complete row read
    let mut seen = 0usize; // complete rows observed in the file
    loop {
        // order matters: sample the generation and the state *before*
        // reading, so a row landing or the job finishing after the read
        // moves the generation and the wait below returns at once
        let generation = job.rows_generation();
        let state = job.state();
        if file.is_none() {
            file = open_rows(&path)?;
        }
        bytes.clear();
        if let Some(f) = file.as_mut() {
            // re-read from the last complete row: a resumed sink may
            // truncate a torn tail before appending again
            f.seek(SeekFrom::Start(offset))?;
            f.read_to_end(&mut bytes)?;
        }
        let complete_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut rest = &bytes[..complete_len];
        while seen < from && !rest.is_empty() {
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .expect("rows end in newlines")
                + 1;
            rest = &rest[end..];
            seen += 1;
        }
        // the complete rows of one read go out as one chunk, or as a few
        // when they pass the cap, cut only between rows
        while !rest.is_empty() {
            let run = row_run(rest, ROWS_CHUNK_MAX);
            let rows = rest[..run].iter().filter(|&&b| b == b'\n').count();
            body.chunk(&rest[..run])?;
            rows_streamed.add(rows as u64);
            seen += rows;
            rest = &rest[run..];
        }
        offset += complete_len as u64;
        if seen >= total {
            break;
        }
        match state {
            // sampled before the read: that read saw every row a
            // finished job will ever write
            JobState::Done | JobState::Failed(_) => break,
            // a draining server must not pin this connection open: end
            // the stream cleanly, the client resumes with ?from=K
            _ if shutdown.load(Ordering::Relaxed) => break,
            _ => job.wait_rows(generation, ROWS_WAIT_MAX),
        }
    }
    body.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Mutex;
    use std::thread::JoinHandle;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("seg_serve_api").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(seed: u64, replicas: u32) -> SweepRequest {
        SweepRequest::from_json(
            &Json::parse(&format!(
                r#"{{"side": 24, "horizon": 1, "tau": [0.4, 0.45],
                    "replicas": {replicas}, "seed": {seed}}}"#
            ))
            .unwrap(),
        )
        .unwrap()
    }

    /// A response sink the test thread can watch while a stream writes.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    /// The body of a complete response (panics when it is cut short or
    /// bytes follow it).
    fn dechunk(raw: &[u8]) -> Vec<u8> {
        let mut rest = raw;
        let response = crate::http::read_response(&mut rest, crate::http::MAX_RESPONSE_BODY)
            .expect("a complete response");
        assert!(rest.is_empty(), "bytes after the last chunk");
        response.body
    }

    /// Starts `stream_rows` on its own thread and returns once the
    /// response head is out, i.e. the stream is following the job.
    fn follow(job: &Arc<Job>, stop: Arc<AtomicBool>) -> (Shared, JoinHandle<io::Result<()>>) {
        let out = Shared::default();
        let (job, mut writer) = (job.clone(), out.clone());
        let stream = std::thread::spawn(move || {
            stream_rows(&job, 0, &mut writer, false, &stop, &Counter::default())
        });
        while out.len() == 0 {
            std::thread::yield_now();
        }
        (out, stream)
    }

    /// The stream's result, once it ends within `max`.
    fn ended(stream: JoinHandle<io::Result<()>>, max: Duration, what: &str) -> io::Result<()> {
        let deadline = Instant::now() + max;
        while !stream.is_finished() {
            assert!(
                Instant::now() < deadline,
                "stream still waiting after {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        stream.join().expect("stream thread panicked")
    }

    #[test]
    fn a_live_stream_keeps_up_with_the_job_and_serves_the_sink_bytes() {
        let mgr = JobManager::new(tmp("live"), 1).unwrap();
        let (job, _) = mgr
            .submit_as(request(41, 300), None, None)
            .unwrap()
            .unwrap();
        // the stream starts while the job is queued and has no file
        let (out, stream) = follow(&job, Arc::new(AtomicBool::new(false)));
        std::thread::scope(|s| {
            let runner = s.spawn(|| mgr.run_job_for_test(&job));
            // a stream woken only by state changes would grow at most
            // twice before the job ends: on its first read and on the
            // wake for `Running`
            let (mut grew, mut len) = (0, out.len());
            while !runner.is_finished() {
                let now = out.len();
                if now > len && job.state() == JobState::Running {
                    grew += 1;
                }
                len = now;
                std::thread::yield_now();
            }
            runner.join().unwrap();
            assert!(grew >= 3, "the stream grew {grew} times while the job ran");
        });
        ended(stream, ROWS_WAIT_MAX / 2, "the job finished").unwrap();
        let rows = std::fs::read(job.rows_path()).unwrap();
        assert_eq!(rows.iter().filter(|&&b| b == b'\n').count(), 600);
        assert_eq!(dechunk(&out.bytes()), rows);
    }

    #[test]
    fn a_stream_ends_when_its_job_fails() {
        let mgr = JobManager::new(tmp("fail"), 1).unwrap();
        let (job, _) = mgr.submit_as(request(43, 24), None, None).unwrap().unwrap();
        // a row of some other sweep makes the job's sink refuse the file
        std::fs::write(job.rows_path(), "{\"foreign\":1}\n").unwrap();
        let (out, stream) = follow(&job, Arc::new(AtomicBool::new(false)));
        mgr.run_job_for_test(&job);
        assert!(matches!(job.state(), JobState::Failed(_)));
        ended(stream, ROWS_WAIT_MAX / 2, "the job failed").unwrap();
        assert_eq!(dechunk(&out.bytes()), b"{\"foreign\":1}\n");
    }

    #[test]
    fn drain_ends_a_stream_waiting_on_a_job_that_never_writes() {
        let mgr = JobManager::new(tmp("drain"), 1).unwrap();
        let (job, _) = mgr.submit_as(request(42, 24), None, None).unwrap().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (out, stream) = follow(&job, shutdown.clone());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!stream.is_finished(), "stream ended on a queued job");
        // what `POST /v1/shutdown` does
        shutdown.store(true, Ordering::Relaxed);
        mgr.drain();
        ended(stream, ROWS_WAIT_MAX / 2, "drain").unwrap();
        assert!(dechunk(&out.bytes()).is_empty());
    }

    #[test]
    fn a_finished_job_resumes_from_k_in_chunks_of_whole_rows() {
        let mgr = JobManager::new(tmp("from"), 1).unwrap();
        let (job, _) = mgr
            .submit_as(request(44, 300), None, None)
            .unwrap()
            .unwrap();
        mgr.run_job_for_test(&job);
        assert_eq!(job.state(), JobState::Done);
        let rows = std::fs::read(job.rows_path()).unwrap();
        let from = 7;
        let skipped: usize = rows
            .split_inclusive(|&b| b == b'\n')
            .take(from)
            .map(<[u8]>::len)
            .sum();
        let (mut out, counter) = (Vec::new(), Counter::default());
        stream_rows(
            &job,
            from,
            &mut out,
            false,
            &AtomicBool::new(false),
            &counter,
        )
        .unwrap();
        assert_eq!(dechunk(&out), rows[skipped..]);
        assert_eq!(counter.get(), 600 - from as u64);
        // walk the framing: every chunk holds whole rows within the cap,
        // and only the cap splits the one read of a finished job
        let head_end = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let mut rest = &out[head_end..];
        let mut chunks: Vec<&[u8]> = Vec::new();
        loop {
            let line = rest.windows(2).position(|w| w == b"\r\n").unwrap();
            let size = std::str::from_utf8(&rest[..line]).unwrap();
            let size = usize::from_str_radix(size, 16).unwrap();
            let data = &rest[line + 2..line + 2 + size];
            rest = &rest[line + 4 + size..];
            if size == 0 {
                break;
            }
            assert!(data.ends_with(b"\n") && size <= ROWS_CHUNK_MAX);
            chunks.push(data);
        }
        assert!(chunks.len() > 1, "the rows never reached the chunk cap");
        for pair in chunks.windows(2) {
            let next_row = pair[1].iter().position(|&b| b == b'\n').unwrap() + 1;
            assert!(
                pair[0].len() + next_row > ROWS_CHUNK_MAX,
                "a chunk cut early"
            );
        }
    }

    #[test]
    fn an_oversized_multi_type_sweep_is_a_400_with_a_message() {
        let manager = Arc::new(JobManager::new(tmp("multi-cap"), 1).unwrap());
        let ctx = ApiContext {
            manager: manager.clone(),
            fleet: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            local_addr: "127.0.0.1:9".parse().unwrap(),
            started: Instant::now(),
        };
        // 255 count planes of 4096² cells: ~17 GB per replica
        let body = r#"{"side": 4096, "horizon": 1, "tau": 0.4, "variant": "multi:255"}"#;
        let req = Request {
            method: "POST".into(),
            path: "/v1/sweeps".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: false,
        };
        let mut out = Vec::new();
        handle(&req, &mut out, &ctx).unwrap();
        let raw = String::from_utf8(out).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
        let reply = Json::parse(raw.split("\r\n\r\n").nth(1).unwrap()).unwrap();
        let message = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("multi:255 at side 4096"), "{message}");
        assert!(
            manager.jobs_snapshot().is_empty(),
            "a refused sweep made a job"
        );
    }

    #[test]
    fn arbitrary_method_tokens_share_one_metrics_series() {
        let ctx = ApiContext {
            manager: Arc::new(JobManager::new(tmp("methods"), 1).unwrap()),
            fleet: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            local_addr: "127.0.0.1:9".parse().unwrap(),
            started: Instant::now(),
        };
        for i in 0..200 {
            let req = Request {
                method: format!("M{i}"),
                path: "/healthz".into(),
                query: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
                keep_alive: false,
            };
            handle(&req, &mut Vec::new(), &ctx).unwrap();
        }
        let text = seg_obs::metrics().render();
        let methods: std::collections::BTreeSet<&str> = text
            .lines()
            .filter(|l| l.starts_with("serve_http_requests_total{"))
            .filter_map(|l| l.split("method=\"").nth(1)?.split('"').next())
            .collect();
        assert!(methods.len() <= 4, "unbounded method label: {methods:?}");
        assert!(methods.contains("other"), "{methods:?}");
    }

    /// Sends `body` to the upload route as worker `w1`; returns the raw
    /// response.
    fn upload(ctx: &ApiContext, job: &str, body: &str) -> String {
        let req = Request {
            method: "POST".into(),
            path: format!("/v1/jobs/{job}/journal"),
            query: vec![("worker".into(), "w1".into())],
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: false,
        };
        let mut out = Vec::new();
        handle(&req, &mut out, ctx).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn journal_uploads_keep_their_contract() {
        use seg_engine::{header_line, record_line, spec_fingerprint, Engine, Observer};
        let fleet = Arc::new(crate::fleet::FleetRegistry::new(Duration::from_secs(10)));
        let manager = Arc::new(
            JobManager::new(tmp("upload"), 1)
                .unwrap()
                .with_fleet(fleet.clone()),
        );
        let ctx = ApiContext {
            manager: manager.clone(),
            fleet: Some(fleet.clone()),
            shutdown: Arc::new(AtomicBool::new(false)),
            local_addr: "127.0.0.1:9".parse().unwrap(),
            started: Instant::now(),
        };
        let (job, _) = manager
            .submit_as(request(51, 2), None, None)
            .unwrap()
            .unwrap();
        let spec = &job.spec;
        let total = spec.task_count();
        let header = |spec: &seg_engine::SweepSpec| {
            header_line(spec_fingerprint(spec), spec.task_count()) + "\n"
        };
        let result = Engine::new()
            .threads(1)
            .run(spec, &[Observer::TerminalStats]);
        let records: String = result
            .records()
            .iter()
            .map(|r| record_line(r) + "\n")
            .collect();
        let first = record_line(&result.records()[0]);
        let event = r#"{"t_us":1,"unix_us":90,"kind":"event","name":"work.claim","detail":""}"#;
        let span =
            r#"{"t_us":5,"unix_us":99,"kind":"span","name":"work.run","detail":"","dur_us":3}"#;
        let rows = [
            ("empty", String::new(), 200, r#"{"accepted":0}"#),
            ("header only", header(spec), 200, r#"{"accepted":0}"#),
            (
                "header with no newline",
                header(spec).trim_end().to_string(),
                400,
                r#"{"error":"journal has no complete header line"}"#,
            ),
            (
                "foreign fingerprint",
                header(&request(52, 2).build_spec()),
                400,
                r#"{"error":"journal was written by a different spec"}"#,
            ),
            (
                "out-of-range task index",
                header(spec) + r#"{"kind":"record","task":99,"events":1,"metrics":{}}"# + "\n",
                400,
                r#"{"error":"journal line 2: task index 99 out of range"}"#,
            ),
            (
                "interleaved span and event lines",
                format!("{}{event}\n{first}\n{span}\n", header(spec)),
                200,
                r#"{"accepted":1}"#,
            ),
            (
                "a trace line that is not JSON",
                format!("{}x\"kind\":\"span\"\n", header(spec)),
                200,
                r#"{"accepted":0}"#,
            ),
            (
                "duplicate records",
                format!("{}{records}{records}", header(spec)),
                200,
                &format!("{{\"accepted\":{}}}", 2 * total),
            ),
        ];
        for (what, body, status, reply) in rows {
            let raw = upload(&ctx, &job.id, &body);
            assert!(
                raw.starts_with(&format!("HTTP/1.1 {status} ")),
                "{what}: {raw}"
            );
            assert!(raw.ends_with(&format!("\r\n\r\n{reply}")), "{what}: {raw}");
        }
        // the trace lines reached the job verbatim, tagged with the
        // worker, and the one that is not JSON did not
        let trace = job.trace_json();
        let doc = Json::parse(&trace).expect("the trace document is JSON");
        let from_worker = doc
            .get("spans")
            .unwrap()
            .as_list()
            .into_iter()
            .filter(|span| span.get("proc").and_then(Json::as_str) == Some("w1"))
            .count();
        assert_eq!(from_worker, 2, "{trace}");
        for line in [event, span] {
            let tagged = format!("{{\"proc\":\"w1\",{}", &line[1..]);
            assert!(trace.contains(&tagged), "{tagged} missing from {trace}");
        }
        // with a live worker the fleet pass absorbs the uploads: every
        // task lands in the job's journal exactly once
        fleet.register();
        manager.run_job_for_test(&job);
        assert_eq!(job.state(), JobState::Done);
        assert!(
            fleet.take_uploads(&job.id).is_empty(),
            "uploads never absorbed"
        );
        let journal = std::fs::read_to_string(job.dir.join("ck.jsonl")).unwrap();
        let mut tasks: Vec<usize> = seg_engine::read_journal(&journal, spec)
            .unwrap()
            .records
            .iter()
            .map(|r| r.task.task_index)
            .collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..total).collect::<Vec<_>>());
    }
}
