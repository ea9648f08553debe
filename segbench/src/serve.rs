//! The `serve_mix` workload: an in-process `seg_serve::Server` on
//! loopback under two closed-loop clients, one connection per request.
//!
//! - The *writer* submits distinct small sweeps and follows each job's
//!   row stream to its last row.
//! - The *reader* alternates cache-hit resubmits and full row re-streams
//!   of a job set warmed before timing.

use crate::sweep::{traced_job, Layers};
use crate::trace::{self, Span};
use crate::{fnv1a, ms, peak_rss_mb, quantile, Report, THREADS, WORK_ROOT};
use seg_engine::{derive_replica_seed, Engine, Observer, StreamingSink, SweepSpec};
use seg_serve::{Json, ServeConfig, Server, SweepRequest};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replicas of one writer job (one row each): enough that a job is still
/// running when its row stream is first read, so each job's latency
/// includes the same number of the server's row-poll intervals.
const WRITER_REPLICAS: u32 = 64;
/// Warmed jobs the reader cycles through, and their replicas.
const WARM_JOBS: u64 = 8;
const WARM_REPLICAS: u32 = 256;
/// Server setups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Client span job ids start here, clear of the in-process job ids.
const CLIENT_JOB: u64 = 1 << 40;

/// A request body; the seed keeps 53 bits, which a JSON number holds
/// exactly.
fn body(seed: u64, replicas: u32) -> String {
    let seed = seed >> 11;
    format!("{{\"side\":24,\"horizon\":1,\"tau\":0.42,\"replicas\":{replicas},\"seed\":{seed}}}")
}

/// One HTTP exchange as the client saw it.
struct Exchange {
    status: u16,
    body: Vec<u8>,
    /// Bytes received, head and chunk framing included.
    wire: usize,
    /// When the first complete row (newline) of the body arrived.
    first_row: Option<Instant>,
}

/// A one-shot request (`connection: close`); chunked bodies are decoded
/// as they arrive.
fn exchange(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Exchange> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut r = BufReader::new(stream);
    let mut wire = 0;
    let mut line = String::new();
    let mut status = 0;
    let mut chunked = false;
    let mut length = None;
    loop {
        line.clear();
        let n = r.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response head",
            ));
        }
        wire += n;
        let l = line.trim_end().to_ascii_lowercase();
        if status == 0 {
            status = l
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "status line"))?;
        } else if l.is_empty() {
            break;
        } else if l == "transfer-encoding: chunked" {
            chunked = true;
        } else if let Some(v) = l.strip_prefix("content-length:") {
            length = v.trim().parse::<usize>().ok();
        }
    }
    let mut body = Vec::new();
    let mut first_row = None;
    if chunked {
        loop {
            line.clear();
            wire += r.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "chunk size"))?;
            let mut chunk = vec![0; size + 2];
            r.read_exact(&mut chunk)?;
            wire += chunk.len();
            if size == 0 {
                break;
            }
            chunk.truncate(size);
            if first_row.is_none() && chunk.contains(&b'\n') {
                first_row = Some(Instant::now());
            }
            body.extend_from_slice(&chunk);
        }
    } else if let Some(n) = length {
        body.resize(n, 0);
        r.read_exact(&mut body)?;
        wire += n;
    } else {
        wire += r.read_to_end(&mut body)?;
    }
    Ok(Exchange {
        status,
        body,
        wire,
        first_row,
    })
}

/// Pulls `"field":"value"` out of a JSON response.
fn str_field(body: &[u8], field: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let key = format!("\"{field}\":\"");
    let start = text.find(&key)? + key.len();
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_string())
}

fn rows(body: &[u8]) -> usize {
    body.iter().filter(|&&b| b == b'\n').count()
}

struct Running {
    addr: String,
    handle: JoinHandle<io::Result<()>>,
}

/// Binds a server on an ephemeral loopback port and waits for its first
/// `/healthz` 200; returns it with the time that took.
fn start(data_dir: &Path) -> io::Result<(Running, Duration)> {
    let t0 = Instant::now();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: data_dir.to_path_buf(),
        // the server's defaults on a 2-core machine, fixed: two job
        // workers of one engine thread each
        workers: THREADS as u32,
        engine_threads: 1,
        ..Default::default()
    })?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    loop {
        match exchange(&addr, "GET", "/healthz", "") {
            Ok(x) if x.status == 200 => break,
            _ if t0.elapsed() > Duration::from_secs(30) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server never healthy",
                ))
            }
            _ => std::thread::yield_now(),
        }
    }
    Ok((Running { addr, handle }, t0.elapsed()))
}

fn stop(server: Running) -> io::Result<()> {
    exchange(&server.addr, "POST", "/v1/shutdown", "")?;
    server
        .handle
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))?
}

/// A submitted job followed to its last row.
struct Job {
    request: String,
    id: String,
    submit: (Instant, Instant),
    /// Rows request sent, first row received, last row received.
    rows: (Instant, Option<Instant>, Instant),
    digest: u64,
}

fn run_job(addr: &str, request: String, replicas: u32) -> Result<Job, String> {
    let t0 = Instant::now();
    let submitted = exchange(addr, "POST", "/v1/sweeps", &request).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    if submitted.status != 202 {
        return Err(format!("submit answered {}", submitted.status));
    }
    let id = str_field(&submitted.body, "id").ok_or("no job id")?;
    let streamed =
        exchange(addr, "GET", &format!("/v1/jobs/{id}/rows"), "").map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    if streamed.status != 200 || rows(&streamed.body) != replicas as usize {
        return Err(format!(
            "row stream answered {} with {} rows",
            streamed.status,
            rows(&streamed.body)
        ));
    }
    Ok(Job {
        request,
        id,
        submit: (t0, t1),
        rows: (t1, streamed.first_row, t2),
        digest: fnv1a(&streamed.body),
    })
}

/// What the reader measured.
#[derive(Default)]
struct Reads {
    hits: Vec<f64>,
    streams: Vec<f64>,
    rows: usize,
    wire: usize,
    spans: Vec<Span>,
}

/// Runs `serve_mix` for `budget` and reports its metrics.
pub fn run(dir: &Path, seed: u64, budget: Duration, traced: bool) -> Report {
    let mut report = Report::default();
    // several starts for a steady `setup_s`; the last serves the workload
    // and the others stop together, so their drains cost one wait
    let mut setups = Vec::new();
    let mut servers = Vec::new();
    for i in 0..SETUPS {
        match start(&dir.join(format!("data-{i}"))) {
            Ok((s, took)) => {
                setups.push(took.as_secs_f64());
                servers.push(s);
            }
            Err(e) => report.check(false, || format!("setup {i}: {e}")),
        }
    }
    let Some(server) = servers.pop() else {
        return report;
    };
    let stopped: Vec<io::Result<()>> = std::thread::scope(|scope| {
        let stops: Vec<_> = servers
            .into_iter()
            .map(|s| scope.spawn(|| stop(s)))
            .collect();
        stops
            .into_iter()
            .map(|h| h.join().expect("stop thread"))
            .collect()
    });
    for outcome in stopped {
        report.check(outcome.is_ok(), || {
            format!("setup server shutdown: {outcome:?}")
        });
    }
    let addr = server.addr.clone();

    // warm the reader's job set; these rows are its reference bytes
    let mut warmed = Vec::new();
    for i in 0..WARM_JOBS {
        let request = body(derive_replica_seed(seed, i, 1), WARM_REPLICAS);
        match run_job(&addr, request, WARM_REPLICAS) {
            Ok(job) => warmed.push(job),
            Err(e) => report.check(false, || format!("warm job {i}: {e}")),
        }
    }

    let stop_flag = AtomicBool::new(false);
    let (writes, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut jobs = Vec::new();
            let mut spans = Vec::new();
            let mut errors = Vec::new();
            let mut j = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                let request = body(derive_replica_seed(seed, j, 0), WRITER_REPLICAS);
                match run_job(&addr, request, WRITER_REPLICAS) {
                    Ok(job) => {
                        // traced runs record client spans on odd jobs only,
                        // so that `trace.overhead` compares the two halves
                        if traced && jobs.len() % 2 == 1 {
                            client_spans(jobs.len() as u64, &job, &mut spans);
                        }
                        jobs.push(job);
                    }
                    Err(e) => errors.push(format!("writer job {j}: {e}")),
                }
                j += 1;
            }
            (jobs, spans, errors)
        });
        let reader = scope.spawn(|| {
            let mut reads = Reads::default();
            let mut errors = Vec::new();
            let mut i = 0usize;
            while !stop_flag.load(Ordering::Relaxed) && !warmed.is_empty() {
                let w = i % warmed.len();
                let t0 = Instant::now();
                let (name, outcome) = if i.is_multiple_of(2) {
                    let x = exchange(&addr, "POST", "/v1/sweeps", &warmed[w].request);
                    let ok = x.as_ref().is_ok_and(|x| {
                        x.status == 200
                            && std::str::from_utf8(&x.body)
                                .is_ok_and(|b| b.contains("\"cached\":true"))
                    });
                    ("client.cache_hit", x.map(|x| (ok, x)))
                } else {
                    let path = format!("/v1/jobs/{}/rows", warmed[w].id);
                    let x = exchange(&addr, "GET", &path, "");
                    let ok = x
                        .as_ref()
                        .is_ok_and(|x| x.status == 200 && fnv1a(&x.body) == warmed[w].digest);
                    ("client.restream", x.map(|x| (ok, x)))
                };
                let t1 = Instant::now();
                match outcome {
                    Ok((true, x)) => {
                        if name == "client.cache_hit" {
                            reads.hits.push(ms(t1 - t0));
                        } else {
                            reads.streams.push(ms(t1 - t0));
                            reads.rows += rows(&x.body);
                            reads.wire += x.wire;
                        }
                        if traced {
                            reads.spans.push(Span {
                                name,
                                job: CLIENT_JOB + 1,
                                trace: i as u64,
                                id: 0,
                                parent: None,
                                start: t0,
                                end: t1,
                            });
                        }
                    }
                    Ok((false, x)) => {
                        errors.push(format!("reader {name} {i}: status {}", x.status))
                    }
                    Err(e) => errors.push(format!("reader {name} {i}: {e}")),
                }
                i += 1;
            }
            (reads, errors)
        });
        std::thread::sleep(budget);
        stop_flag.store(true, Ordering::Relaxed);
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let ((jobs, writer_spans, write_errors), (reads, read_errors)) = (writes, reads);
    for e in write_errors.iter().chain(&read_errors) {
        report.check(false, || e.clone());
    }
    for _ in 0..reads.hits.len() + reads.streams.len() {
        report.check(true, String::new);
    }
    if let Err(e) = stop(server) {
        report.check(false, || format!("shutdown: {e}"));
    }

    // served rows must equal the same spec run in-process through
    // `StreamingSink::jsonl`; traced runs do that through the traced loop
    let mut layers = Layers::default();
    for (n, job) in warmed.iter().chain(&jobs).enumerate() {
        let outcome = in_process_digest(&job.request, dir, n as u64, traced.then_some(&mut layers));
        let ok = outcome.as_ref().is_ok_and(|&d| d == job.digest);
        report.check(ok, || {
            format!("served job {n}: rows differ from in-process rows ({outcome:?})")
        });
    }

    let latency: Vec<f64> = jobs.iter().map(|j| ms(j.rows.2 - j.submit.0)).collect();
    if traced {
        layers.report("serve_mix", &mut report);
        let submits: Vec<f64> = jobs.iter().map(|j| ms(j.submit.1 - j.submit.0)).collect();
        let first: Vec<f64> = jobs
            .iter()
            .filter_map(|j| j.rows.1.map(|f| ms(f - j.rows.0)))
            .collect();
        report.metric("transport.submit_p50_ms", quantile(&submits, 0.5), "ms");
        report.metric("transport.first_row_p50_ms", quantile(&first, 0.5), "ms");
        report.metric(
            "transport.stream_p50_ms",
            quantile(&reads.streams, 0.5),
            "ms",
        );
        report.metric(
            "transport.cache_hit_p50_ms",
            quantile(&reads.hits, 0.5),
            "ms",
        );
        report.metric(
            "transport.cache_hit_p99_ms",
            quantile(&reads.hits, 0.99),
            "ms",
        );
        let rows_per_stream = f64::from(WARM_REPLICAS);
        report.metric(
            "transport.rows_per_s",
            rows_per_stream * 1e3 / quantile(&reads.streams, 0.5),
            "1/s",
        );
        report.metric(
            "transport.bytes_per_row",
            reads.wire as f64 / reads.rows.max(1) as f64,
            "B",
        );
        // odd writer jobs recorded spans, even ones did not
        let half =
            |parity| -> Vec<f64> { latency.iter().skip(parity).step_by(2).copied().collect() };
        let overhead = 1.0 - quantile(&half(0), 0.5) / quantile(&half(1), 0.5);
        report.metric("trace.overhead", overhead, "fraction");
        let mut spans = writer_spans;
        spans.extend(reads.spans);
        spans.extend(layers.spans);
        let path = Path::new(WORK_ROOT).join("trace-serve_mix.jsonl");
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("segbench: writing {}: {e}", path.display());
        }
    } else {
        let job_p50 = quantile(&latency, 0.5);
        report.metric("setup_s", quantile(&setups, 0.5), "s");
        report.metric(
            "replicas_per_s",
            f64::from(WRITER_REPLICAS) * 1e3 / job_p50,
            "1/s",
        );
        report.metric("jobs_per_s", 1e3 / job_p50, "1/s");
        report.metric("job_p50_ms", job_p50, "ms");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    report
}

fn spec_of(request: &str) -> Result<SweepSpec, String> {
    Ok(SweepRequest::from_json(&Json::parse(request)?)?.build_spec())
}

/// Runs a served request's spec in-process with a JSONL stream, as the
/// server's job worker does, and returns the rows' digest.
fn in_process_digest(
    request: &str,
    dir: &Path,
    n: u64,
    layers: Option<&mut Layers>,
) -> Result<u64, String> {
    let spec = spec_of(request)?;
    let ck = dir.join(format!("check-{n}.jsonl"));
    let out = dir.join(format!("check-{n}-rows.jsonl"));
    let sink = StreamingSink::jsonl(&out, &spec, false).map_err(|e| e.to_string())?;
    match layers {
        Some(layers) => layers.add(traced_job(&spec, n, &ck, &sink, 0)?),
        None => {
            Engine::new()
                .threads(THREADS)
                .run_full(&spec, &[Observer::TerminalStats], Some(&ck), Some(&sink))
                .map_err(|e| e.to_string())?;
        }
    }
    let digest = fnv1a(&std::fs::read(&out).map_err(|e| e.to_string())?);
    let _ = std::fs::remove_file(&ck);
    let _ = std::fs::remove_file(&out);
    Ok(digest)
}

/// Records writer job `j`'s client spans.
fn client_spans(j: u64, job: &Job, spans: &mut Vec<Span>) {
    let span = |name, id, parent, start, end| Span {
        name,
        job: CLIENT_JOB,
        trace: j,
        id,
        parent,
        start,
        end,
    };
    spans.push(span("client.job", 0, None, job.submit.0, job.rows.2));
    spans.push(span(
        "client.submit",
        1,
        Some(0),
        job.submit.0,
        job.submit.1,
    ));
    spans.push(span("client.rows", 2, Some(0), job.rows.0, job.rows.2));
    if let Some(first) = job.rows.1 {
        spans.push(span("client.first_row", 3, Some(2), job.rows.0, first));
    }
}
