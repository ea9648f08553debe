//! The fleet worker: the client half of `segsim serve --fleet`.
//!
//! `segsim work --join COORD_ADDR` runs [`run_worker`]: register with
//! the coordinator, poll for an [`Assignment`](crate::fleet::Assignment)
//! (the claim poll doubles as a heartbeat), run exactly the assigned
//! task indices through the ordinary [`Engine`],
//! and stream the resulting shard journal back as NDJSON. Because
//! replica seeds derive from task indices alone, the records a worker
//! returns are bit-identical to what the coordinator would have
//! computed itself — the fleet changes *where* replicas run, never what
//! they say.
//!
//! The client is deliberately thin: a blocking `Connection: close` HTTP
//! call per interaction on [`std::net::TcpStream`], no state beyond the
//! worker id. Every exchange carries a connect deadline, a write
//! deadline and one read budget for the whole response, reads that
//! response with the server's own bounded [`read_response`], and rides a
//! jittered-exponential retry loop (`call_retrying`) that
//! honors `Retry-After` on 429/503 and counts
//! `work_retries_total{op=...}`, so flaky networks and coordinator
//! backpressure degrade throughput instead of killing workers.
//! Crash-safety falls out of the server protocol — a worker
//! that dies or hangs mid-assignment simply stops heartbeating, and the
//! coordinator re-partitions its share among the survivors
//! ([`seg_shard::repartition`]). Uploads are split into
//! [`UPLOAD_BATCH_BYTES`] batches (each a self-contained journal with
//! its own header line) so they stay under the server's request-body
//! cap.
//!
//! Observability (see `docs/OBSERVABILITY.md`): a worker adopts the
//! trace id each claim carries, records its `work.claim`/`work.run`
//! spans under it, and ships them with the journal upload so the
//! coordinator can merge one cross-process timeline per job
//! (`GET /v1/jobs/:id/trace`). Heartbeat and claim bodies report the
//! engine's throughput gauges, which the coordinator re-exports as
//! `fleet_worker_*{worker=...}`; `--metrics-addr` additionally exposes
//! the worker's own `/metrics` + `/healthz` + `/v1/metrics/history`
//! (and starts the [`mod@seg_obs::history`] scraper feeding the latter)
//! through the server's connection loop, with its handler bound and
//! request deadline, and `--trace-out` exports its trace ring as JSONL.

use crate::http::{
    read_response, write_all_vectored, write_json as http_write_json, write_response,
    DeadlineStream, Request, Response, MAX_RESPONSE_BODY,
};
use crate::jobs::SweepRequest;
use crate::server::{serve_connections, ServeConfig};
use seg_engine::{header_line, record_line, spec_fingerprint, Engine, Observer};
use seg_obs::{json_number, json_string, Json, TraceContext};
use std::cell::Cell;
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Upload bodies are flushed at this size so a big share never trips
/// the server's `--max-body` cap (default 1 MiB). Each batch is a
/// complete journal; the coordinator deduplicates by task index.
pub(crate) const UPLOAD_BATCH_BYTES: usize = 512 * 1024;

/// How often the heartbeat thread stamps while an assignment runs.
/// Each sleep is jittered ±10% so a fleet of workers started together
/// does not beat in lockstep against the coordinator.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(300);

/// Consecutive failed coordinator *exchanges* before the worker gives
/// up and exits cleanly (the coordinator is gone, not coming back).
/// Each exchange already retries [`RETRY_ATTEMPTS`] times internally,
/// so this only trips on a sustained outage.
const MAX_CONSECUTIVE_FAILURES: u32 = 5;

/// Per-exchange transport deadlines: a coordinator that cannot accept
/// a connection within [`CONNECT_TIMEOUT`], or take one write or
/// deliver its whole response within [`IO_TIMEOUT`], counts as a failed
/// attempt and the call is retried.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(15);

/// Attempts per exchange in [`call_retrying`]: transport errors and
/// backpressure responses (429/503) back off exponentially with full
/// jitter, `BACKOFF_START_MS << attempt` capped at [`BACKOFF_CAP_MS`],
/// honoring a server-sent `Retry-After` when one is present.
const RETRY_ATTEMPTS: u32 = 8;
const BACKOFF_START_MS: u64 = 50;
const BACKOFF_CAP_MS: u64 = 2_000;

/// What `segsim work` parsed from its command line.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`HOST:PORT`).
    pub coordinator: String,
    /// Engine threads per assignment (`0` = the engine's default).
    pub threads: usize,
    /// Claim-poll interval while idle.
    pub poll: Duration,
    /// Fault injection: claim an assignment, then hang without
    /// heartbeats (testing only — exercises coordinator re-dispatch).
    pub fault_hang: bool,
    /// Address to expose the worker's own `/metrics` + `/healthz` on
    /// (`--metrics-addr`); `None` = no listener.
    pub metrics_addr: Option<String>,
    /// JSONL trace export (`--trace-out`); `None` = in-memory ring only.
    pub trace_out: Option<PathBuf>,
}

impl WorkerConfig {
    /// A worker joining `coordinator` with default knobs.
    pub fn new(coordinator: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            coordinator: coordinator.into(),
            threads: 0,
            poll: Duration::from_millis(250),
            fault_hang: false,
            metrics_addr: None,
            trace_out: None,
        }
    }
}

/// One blocking HTTP exchange: connect, send the request in one write
/// with Nagle off, read the full response through [`read_response`]
/// under the [`MAX_RESPONSE_BODY`] cap.
/// `extra_headers` are appended to the request head verbatim — the
/// fleet uses this to carry `x-seg-trace` on every in-trace request.
/// The connect deadline, a per-write deadline and one [`IO_TIMEOUT`]
/// budget for every read of the exchange (a [`DeadlineStream`], armed
/// before the request is sent) bound the exchange, so a wedged
/// coordinator — or a fault-injection proxy swallowing or dribbling
/// bytes — surfaces as a timeout error instead of a hang.
fn call(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<Response> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("{addr} resolved to no address")))?;
    let stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = DeadlineStream::new(stream);
    reader.arm(IO_TIMEOUT);
    let extra: String = extra_headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n{extra}content-length: {}\r\n\r\n",
        body.len()
    );
    write_all_vectored(
        &mut writer,
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body)],
    )?;
    read_response(&mut BufReader::new(reader), MAX_RESPONSE_BODY).map_err(io::Error::other)
}

/// Full-jitter milliseconds in `[0, ms]` from a thread-local xorshift
/// state (no external RNG crates; seeded from the clock once per
/// thread). Randomness here only de-synchronizes retry storms — it
/// never touches simulation results, which stay seed-deterministic.
fn jitter_ms(ms: u64) -> u64 {
    thread_local! {
        static STATE: Cell<u64> = Cell::new(
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e37_79b9)
                | 1,
        );
    }
    let x = STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x
    });
    if ms == 0 {
        0
    } else {
        x % (ms + 1)
    }
}

/// [`call`] wrapped in bounded retries: transport errors and
/// backpressure responses (429/503) sleep — `Retry-After` if the server
/// sent one, else full-jittered exponential backoff — and try again, up
/// to [`RETRY_ATTEMPTS`] times. Every retry increments
/// `work_retries_total{op=...}` so chaos (and real overload) is visible
/// on the worker's own `/metrics`. Any other status returns
/// immediately: protocol outcomes like 404 (re-register) are the
/// caller's business, not the transport layer's.
fn call_retrying(
    op: &'static str,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<Response> {
    let retries = seg_obs::metrics().counter(
        "work_retries_total",
        "coordinator exchanges retried after a transport error or 429/503 backpressure",
        &[("op", op)],
    );
    let mut backoff_ms = BACKOFF_START_MS;
    let mut attempt = 1;
    loop {
        let outcome = call(addr, method, path, body, extra_headers);
        let wait = match &outcome {
            Ok(resp) if resp.status == 429 || resp.status == 503 => resp
                .header("retry-after")
                .and_then(|s| s.parse::<u64>().ok())
                .map(|s| Duration::from_secs(s.min(60)))
                .unwrap_or_else(|| Duration::from_millis(jitter_ms(backoff_ms))),
            Ok(_) => return outcome,
            Err(_) => Duration::from_millis(jitter_ms(backoff_ms)),
        };
        if attempt >= RETRY_ATTEMPTS {
            // out of attempts: surface the last outcome as-is (the
            // caller sees the final 429/503 or the transport error)
            return outcome;
        }
        retries.inc();
        std::thread::sleep(wait);
        backoff_ms = (backoff_ms * 2).min(BACKOFF_CAP_MS);
        attempt += 1;
    }
}

fn parse_json(body: &[u8]) -> io::Result<Json> {
    let text =
        std::str::from_utf8(body).map_err(|_| io::Error::other("non-UTF-8 response body"))?;
    Json::parse(text).map_err(io::Error::other)
}

/// The throughput report a worker sends as its heartbeat/claim body:
/// the `engine_replicas_per_sec` / `engine_events_per_sec` gauges the
/// engine sets on every replica completion, read back from the
/// process-wide registry. The coordinator federates these into
/// `fleet_worker_*{worker=...}`.
fn stats_body() -> String {
    let m = seg_obs::metrics();
    let replicas = m.gauge(
        "engine_replicas_per_sec",
        "fresh replicas per second of the most recent progress sample",
        &[],
    );
    let events = m.gauge(
        "engine_events_per_sec",
        "dynamics events per second of the most recent progress sample",
        &[],
    );
    format!(
        "{{\"replicas_per_sec\":{},\"events_per_sec\":{}}}",
        json_number(replicas.get()),
        json_number(events.get())
    )
}

/// Answers one request on the worker's own observability listener:
/// `GET /metrics` (Prometheus text), `GET /healthz`, and the same
/// `GET /v1/metrics/history` the coordinator answers — the worker runs
/// its own [`mod@seg_obs::history`] scraper, so its engine gauges are
/// queryable as time series too. Same contracts as the coordinator's
/// endpoints, minus everything job-related.
fn metrics_route(req: &Request, out: &mut TcpStream) -> io::Result<bool> {
    let keep = req.keep_alive;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => write_response(
            out,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            seg_obs::metrics().render().as_bytes(),
            keep,
        )?,
        ("GET", "/healthz") => http_write_json(out, 200, "{\"status\":\"ok\"}", keep)?,
        ("GET", "/v1/metrics/history") => match crate::api::metrics_history_body(req) {
            Ok(body) => http_write_json(out, 200, &body, keep)?,
            Err(e) => http_write_json(
                out,
                400,
                &format!("{{\"error\":{}}}", json_string(&e)),
                keep,
            )?,
        },
        _ => http_write_json(out, 404, "{\"error\":\"no such endpoint\"}", keep)?,
    }
    Ok(keep)
}

fn register(addr: &str) -> io::Result<String> {
    // retried for transport errors and backpressure only — a 404 comes
    // back immediately and stays fatal, so a worker pointed at a
    // non-fleet server fails fast with a useful message
    let Response { status, body, .. } =
        call_retrying("register", addr, "POST", "/v1/workers/register", b"{}", &[])?;
    if status != 200 {
        return Err(io::Error::other(format!(
            "register failed with status {status} (is the server running with --fleet?)"
        )));
    }
    parse_json(&body)?
        .get("worker_id")
        .and_then(|j| j.as_str().map(String::from))
        .ok_or_else(|| io::Error::other("register response carried no worker_id"))
}

/// Runs one assignment and uploads its journal in batches.
fn run_assignment(cfg: &WorkerConfig, id: &str, claim: &Json) -> io::Result<()> {
    let job = claim
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| io::Error::other("claim carried no job id"))?
        .to_string();
    let epoch = claim.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    let tasks: Vec<usize> = claim
        .get("tasks")
        .map(|t| {
            t.as_list()
                .iter()
                .filter_map(|j| j.as_u64().map(|v| v as usize))
                .collect()
        })
        .unwrap_or_default();
    // adopt the coordinator's trace context: everything recorded while
    // this assignment runs carries the job's trace id, parented under
    // the coordinator's serve.job span
    let trace = claim.get("trace").and_then(Json::as_str).map(String::from);
    let _ctx = trace.as_ref().map(|t| {
        let mut ctx = TraceContext::new(t.clone());
        if let Some(p) = claim.get("parent_span").and_then(Json::as_str) {
            ctx = ctx.with_parent(p);
        }
        ctx.bind()
    });
    seg_obs::tracer().event(
        "work.claim",
        format!("job {job} epoch {epoch}: {} task(s)", tasks.len()),
    );
    println!(
        "work: claimed job {job} epoch {epoch} ({} task(s))",
        tasks.len()
    );
    io::stdout().flush().ok();

    if cfg.fault_hang {
        println!("work: injected fault: hanging without heartbeats");
        io::stdout().flush().ok();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    let request = claim
        .get("request")
        .ok_or_else(|| io::Error::other("claim carried no request document"))?;
    let spec = SweepRequest::from_json(request)
        .map_err(io::Error::other)?
        .build_spec();

    // heartbeat while the sweep runs so the coordinator keeps us live;
    // each beat carries the engine's current throughput gauges for the
    // coordinator to federate
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let stop = stop.clone();
        let addr = cfg.coordinator.clone();
        let path = format!("/v1/workers/{id}/heartbeat");
        let trace = trace.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let headers: Vec<(&str, &str)> = trace
                    .as_deref()
                    .map(|t| vec![("x-seg-trace", t)])
                    .unwrap_or_default();
                let _ = call_retrying(
                    "heartbeat",
                    &addr,
                    "POST",
                    &path,
                    stats_body().as_bytes(),
                    &headers,
                );
                // ±10% jitter so a fleet's heartbeats spread out instead
                // of arriving in lockstep every interval
                let base = HEARTBEAT_EVERY.as_millis() as u64;
                let low = base - base / 10;
                std::thread::sleep(Duration::from_millis(low + jitter_ms(base / 5)));
            }
        })
    };

    let mut engine = Engine::new().task_subset(tasks.iter().copied());
    if cfg.threads > 0 {
        engine = engine.threads(cfg.threads);
    }
    // the job's observers are fixed (see JobManager::execute) — a worker
    // must measure identically or the merged rows would differ
    let result = {
        // scoped so the span's record lands in the ring before the
        // trace snapshot below ships with the final upload batch
        let _span = seg_obs::tracer().span("work.run", format!("job {job} epoch {epoch}"));
        engine.run(&spec, &[Observer::TerminalStats])
    };

    let header = {
        let mut h = header_line(spec_fingerprint(&spec), spec.task_count());
        h.push('\n');
        h
    };
    let path = format!("/v1/jobs/{job}/journal?worker={id}&epoch={epoch}");
    let mut batch = header.clone();
    let mut uploaded = 0usize;
    let flush_batch = |batch: &mut String, uploaded: &mut usize, n: usize| -> io::Result<()> {
        let headers: Vec<(&str, &str)> = trace
            .as_deref()
            .map(|t| vec![("x-seg-trace", t)])
            .unwrap_or_default();
        let Response { status, body, .. } = call_retrying(
            "upload",
            &cfg.coordinator,
            "POST",
            &path,
            batch.as_bytes(),
            &headers,
        )?;
        if status != 200 {
            return Err(io::Error::other(format!(
                "journal upload rejected with status {status}: {}",
                String::from_utf8_lossy(&body)
            )));
        }
        *uploaded += n;
        batch.clear();
        batch.push_str(&header);
        Ok(())
    };
    let mut in_batch = 0usize;
    for rec in result.records() {
        batch.push_str(&record_line(rec));
        batch.push('\n');
        in_batch += 1;
        if batch.len() >= UPLOAD_BATCH_BYTES {
            flush_batch(&mut batch, &mut uploaded, in_batch)?;
            in_batch = 0;
        }
    }
    // ship this assignment's slice of the distributed trace with the
    // final batch — the coordinator passes span/event lines through to
    // the job's merged timeline
    if let Some(t) = &trace {
        for ev in seg_obs::tracer().snapshot_trace(t) {
            batch.push_str(&ev.to_json());
            batch.push('\n');
            if batch.len() >= UPLOAD_BATCH_BYTES {
                flush_batch(&mut batch, &mut uploaded, in_batch)?;
                in_batch = 0;
            }
        }
    }
    flush_batch(&mut batch, &mut uploaded, in_batch)?;
    stop.store(true, Ordering::Relaxed);
    beat.join().ok();
    println!("work: uploaded {uploaded} record(s) for job {job} epoch {epoch}");
    io::stdout().flush().ok();
    Ok(())
}

/// The worker main loop: register, then claim/run/upload until the
/// coordinator goes away.
///
/// Prints one line per lifecycle step to stdout (`work: registered…`,
/// `work: claimed…`, `work: uploaded…`) so tests and operators can
/// follow along. Every coordinator exchange rides `call_retrying`, so
/// transient faults (dropped connections, 429/503 backpressure) are
/// absorbed with jittered backoff and show up as
/// `work_retries_total{op=...}` rather than as failures. Exits `Ok`
/// once `MAX_CONSECUTIVE_FAILURES` exchanges in a row exhaust their
/// retries — the coordinator shut down, which is the normal end of a
/// worker's life. A failed assignment (upload retries exhausted, a
/// malformed claim) is abandoned, not fatal: the coordinator's
/// staleness re-dispatch hands the share to another worker, and this
/// one goes back to polling.
///
/// # Errors
///
/// Registration failures (e.g. the server is not in `--fleet` mode —
/// the 404 is deliberately not retried so misconfiguration fails fast)
/// and claim responses outside the protocol.
pub fn run_worker(cfg: &WorkerConfig) -> io::Result<()> {
    if let Some(path) = &cfg.trace_out {
        seg_obs::tracer().set_output(path)?;
        println!("work: tracing to {}", path.display());
        io::stdout().flush().ok();
    }
    if let Some(addr) = &cfg.metrics_addr {
        // the worker's history endpoint needs the scraper running;
        // build info + uptime anchor the series like on the coordinator
        seg_obs::register_process_metrics(env!("CARGO_PKG_VERSION"));
        seg_obs::history().start(Duration::from_secs(1));
        // `:0` picks an ephemeral port; the printed line is how tests and
        // operators learn it
        let listener = TcpListener::bind(addr)?;
        println!("work: metrics on http://{}", listener.local_addr()?);
        io::stdout().flush().ok();
        // the server's connection loop, handler pool and request deadline;
        // a small body cap, since nothing legitimate POSTs bodies here
        let defaults = ServeConfig::default();
        std::thread::spawn(move || {
            let never = AtomicBool::new(false);
            serve_connections(
                &listener,
                defaults.conn_threads,
                16 * 1024,
                defaults.request_timeout,
                &never,
                &metrics_route,
            )
        });
    }
    let assignments = seg_obs::metrics().counter(
        "work_assignments_total",
        "fleet assignments this worker has claimed",
        &[],
    );
    let mut id = register(&cfg.coordinator)?;
    println!("work: registered as {id} with http://{}", cfg.coordinator);
    io::stdout().flush().ok();
    let mut failures = 0u32;
    loop {
        let claim_path = format!("/v1/workers/{id}/claim");
        match call_retrying(
            "claim",
            &cfg.coordinator,
            "POST",
            &claim_path,
            stats_body().as_bytes(),
            &[],
        ) {
            Err(_) => {
                failures += 1;
                if failures >= MAX_CONSECUTIVE_FAILURES {
                    println!("work: coordinator unreachable, exiting");
                    return Ok(());
                }
                std::thread::sleep(cfg.poll);
            }
            Ok(resp) if resp.status == 404 => {
                // the coordinator restarted and forgot us: re-register
                failures = 0;
                id = register(&cfg.coordinator)?;
                println!("work: re-registered as {id}");
                io::stdout().flush().ok();
            }
            Ok(resp) if resp.status == 200 => {
                failures = 0;
                let claim = parse_json(&resp.body)?;
                if claim.get("idle").is_some() {
                    std::thread::sleep(cfg.poll);
                } else {
                    assignments.inc();
                    // an assignment that dies mid-flight (upload retries
                    // exhausted, malformed claim) is not the end of the
                    // worker: abandon it — staleness re-dispatch gets the
                    // share to someone else — and keep polling
                    if let Err(err) = run_assignment(cfg, &id, &claim) {
                        eprintln!("work: assignment abandoned: {err}");
                        std::thread::sleep(cfg.poll);
                    }
                }
            }
            Ok(resp) => {
                return Err(io::Error::other(format!(
                    "claim failed with status {}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body)
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Serves `route` on an ephemeral loopback port through the
    /// server's connection loop, with a `deadline` per request.
    fn serve_on_loopback<H>(deadline: Duration, route: H) -> String
    where
        H: Fn(&Request, &mut TcpStream) -> io::Result<bool> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let never = AtomicBool::new(false);
            serve_connections(&listener, 2, 1024, deadline, &never, &route)
        });
        addr
    }

    /// A canned server: each request is answered with the next scripted
    /// response, then the connection closes.
    fn scripted_server(responses: Vec<String>) -> String {
        let responses = std::sync::Mutex::new(responses.into_iter());
        serve_on_loopback(Duration::from_secs(5), move |_, out| {
            if let Some(response) = responses.lock().unwrap().next() {
                out.write_all(response.as_bytes())?;
            }
            Ok(false)
        })
    }

    fn retries_for(op: &'static str) -> u64 {
        seg_obs::metrics()
            .counter(
                "work_retries_total",
                "coordinator exchanges retried after a transport error or 429/503 backpressure",
                &[("op", op)],
            )
            .get()
    }

    #[test]
    fn jitter_stays_within_bounds() {
        for ms in [0u64, 1, 7, 1000] {
            for _ in 0..64 {
                assert!(jitter_ms(ms) <= ms);
            }
        }
    }

    #[test]
    fn backpressure_is_retried_until_the_server_relents() {
        let addr = scripted_server(vec![
            "HTTP/1.1 429 Too Many Requests\r\nretry-after: 0\r\ncontent-length: 0\r\n\r\n"
                .to_string(),
            "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n".to_string(),
            "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok".to_string(),
        ]);
        let before = retries_for("test_backpressure");
        let resp = call_retrying("test_backpressure", &addr, "POST", "/x", b"{}", &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"ok");
        assert_eq!(retries_for("test_backpressure") - before, 2);
    }

    #[test]
    fn protocol_statuses_are_not_retried() {
        let addr = scripted_server(vec![
            "HTTP/1.1 404 Not Found\r\nretry-after: 30\r\ncontent-length: 0\r\n\r\n".to_string(),
        ]);
        let before = retries_for("test_protocol");
        let resp = call_retrying("test_protocol", &addr, "POST", "/x", b"{}", &[]).unwrap();
        assert_eq!(resp.status, 404, "404 must come back to the caller");
        assert_eq!(
            retries_for("test_protocol"),
            before,
            "a protocol status must not burn retry attempts"
        );
    }

    #[test]
    fn surfaced_retry_after_rides_the_response() {
        let addr = scripted_server(vec![
            "HTTP/1.1 200 OK\r\nretry-after: 7\r\ncontent-length: 0\r\n\r\n".to_string(),
        ]);
        let resp = call_retrying("test_header", &addr, "GET", "/x", b"", &[]).unwrap();
        assert_eq!(resp.header("retry-after"), Some("7"));
    }

    #[test]
    fn a_partial_head_is_closed_at_the_request_deadline() {
        let addr = serve_on_loopback(Duration::from_millis(200), metrics_route);
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\n")
            .unwrap();
        let started = std::time::Instant::now();
        let mut rest = Vec::new();
        // the loop drops the connection without a reply: EOF, or a reset
        let _ = stream.read_to_end(&mut rest);
        assert!(rest.is_empty(), "got {:?}", String::from_utf8_lossy(&rest));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "closed only after {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn the_metrics_route_answers_400_to_a_malformed_request_line() {
        let addr = serve_on_loopback(Duration::from_secs(5), metrics_route);
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "got {reply:?}");
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "got {reply:?}");
    }
}
