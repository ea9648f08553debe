//! The service guarantees, tested with real `segsim serve` processes
//! over loopback HTTP: row streams byte-identical to the batch CLI, the
//! fingerprint cache, journal-backed resume across a `kill -9`, clean
//! rejection of malformed/oversized requests, and ≥ 8 concurrent
//! streaming clients without deadlock or row interleaving.
//!
//! Server stderr goes to `serve-<tag>.log` under `SERVE_TEST_LOG_DIR`
//! (or the test temp dir), which CI uploads on failure.

mod support;

use self_organized_segregation::seg_serve::http::{read_response, MAX_RESPONSE_BODY};
use std::fs;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};
use support::{
    http, http_with, json_str_field, log_path, poll_until_state, run_sweep, sample_value, tmp_dir,
    validate_exposition, wait_for_log, ServerProc,
};

/// The request body mirroring `sweep_flags` below.
const SMALL_BODY: &str = r#"{"side": 24, "horizon": 1, "tau": [0.4, 0.45],
    "variant": ["paper", "noise:0.02"], "replicas": 2, "seed": 11, "max_events": 400}"#;

fn small_sweep_flags(out: &Path) -> Vec<String> {
    [
        "--side",
        "24",
        "--horizon",
        "1",
        "--tau",
        "0.4,0.45",
        "--variant",
        "paper,noise:0.02",
        "--replicas",
        "2",
        "--seed",
        "11",
        "--max-events",
        "400",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--out".to_string(), out.display().to_string()])
    .collect()
}

#[test]
fn round_trip_streams_cli_identical_rows_and_caches_resubmits() {
    let dir = tmp_dir("round_trip");
    let reference = dir.join("ref.jsonl");
    run_sweep(&small_sweep_flags(&reference));
    let reference = fs::read(&reference).unwrap();

    let mut server = ServerProc::start("round_trip", &dir.join("data"), 2);
    let addr = server.addr.clone();

    let (status, _, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"{\"status\":\"ok\""));

    let (status, _, body) = http(&addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("\"cached\":false"));
    let id = json_str_field(&body, "id").expect("job id");

    // the row stream follows the live job and ends when it completes —
    // byte-identical to `segsim sweep --out`
    let (status, head, rows) = http(&addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    assert_eq!(status, 200);
    assert!(head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked"));
    assert_eq!(rows, reference, "served rows differ from CLI rows");
    poll_until_state(&addr, &id, "done", Duration::from_secs(60));

    // resubmitting the identical spec hits the fingerprint cache
    let (status, _, body) = http(&addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"cached\":true"), "not cached: {text}");
    assert!(text.contains("\"state\":\"done\""));

    // ?from=K resumes mid-stream: exactly the suffix after K rows
    let (_, _, tail) = http(&addr, "GET", &format!("/v1/jobs/{id}/rows?from=2"), "");
    let suffix: Vec<u8> = reference
        .split_inclusive(|&b| b == b'\n')
        .skip(2)
        .flatten()
        .copied()
        .collect();
    assert_eq!(tail, suffix, "?from=2 is not the 2-row suffix");

    // unknown ids and endpoints are clean 404s
    assert_eq!(http(&addr, "GET", "/v1/jobs/ffffffffffffffff", "").0, 404);
    assert_eq!(http(&addr, "GET", "/nope", "").0, 404);
    assert_eq!(http(&addr, "GET", "/v1/sweeps", "").0, 405);

    // graceful shutdown: drains and exits 0
    let (status, _, _) = http(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(
        server.wait_exit(Duration::from_secs(30)),
        "server did not drain after /v1/shutdown"
    );
}

#[test]
fn killed_server_resumes_the_job_from_its_journal() {
    let dir = tmp_dir("kill_resume");
    // enough replicas that the job is reliably mid-flight when killed
    let body = r#"{"side": 32, "horizon": 1, "tau": 0.42, "replicas": 200,
        "seed": 7, "max_events": 300}"#;
    let flags: Vec<String> = [
        "--side",
        "32",
        "--horizon",
        "1",
        "--tau",
        "0.42",
        "--replicas",
        "200",
        "--seed",
        "7",
        "--max-events",
        "300",
    ]
    .into_iter()
    .map(String::from)
    .chain([
        "--out".to_string(),
        dir.join("ref.jsonl").display().to_string(),
    ])
    .collect();
    run_sweep(&flags);
    let reference = fs::read(dir.join("ref.jsonl")).unwrap();

    let data = dir.join("data");
    let mut server = ServerProc::start("kill_resume", &data, 1);
    let (status, _, body_out) = http(&server.addr, "POST", "/v1/sweeps", body);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body_out));
    let id = json_str_field(&body_out, "id").expect("job id");

    // wait until at least one replica is journaled, then kill -9
    let ck = data.join("jobs").join(&id).join("ck.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let journaled = fs::read_to_string(&ck)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if journaled >= 2 {
            break; // header + at least one record
        }
        assert!(Instant::now() < deadline, "no replica journaled in time");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill();
    let journal_lines_at_kill = fs::read_to_string(&ck).unwrap().lines().count();
    assert!(journal_lines_at_kill >= 2);

    // a fresh process over the same data dir re-enqueues and resumes
    let server = ServerProc::start("kill_resume", &data, 1);
    poll_until_state(&server.addr, &id, "done", Duration::from_secs(120));
    let (_, _, rows) = http(&server.addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    assert_eq!(rows, reference, "post-restart rows differ from CLI rows");
    // stderr lands asynchronously: poll with a deadline instead of
    // asserting on a single racy read
    wait_for_log(&server.log, "resuming from", Duration::from_secs(30));
    wait_for_log(&server.log, "recovered", Duration::from_secs(30));
}

#[test]
fn malformed_oversized_and_invalid_requests_are_rejected_cleanly() {
    let dir = tmp_dir("rejects");
    let server = ServerProc::start("rejects", &dir.join("data"), 1);
    let addr = &server.addr;

    let (status, _, body) = http(addr, "POST", "/v1/sweeps", "this is not json");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", r#"{"side": 24}"#);
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("needs side, horizon and tau"));
    let (status, _, _) = http(
        addr,
        "POST",
        "/v1/sweeps",
        r#"{"side": 24, "horizon": 1, "tau": 1.5}"#,
    );
    assert_eq!(status, 400);
    let (status, _, _) = http(
        addr,
        "POST",
        "/v1/sweeps",
        r#"{"side": 24, "horizon": 1, "tau": 0.4, "bogus": true}"#,
    );
    assert_eq!(status, 400);

    // an oversized body is refused without reading it
    let huge = "x".repeat(2 * 1024 * 1024);
    let (status, _, _) = http(addr, "POST", "/v1/sweeps", &huge);
    assert_eq!(status, 413);

    // the server is still healthy afterwards
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn eight_concurrent_clients_stream_identical_rows_live() {
    let dir = tmp_dir("concurrent");
    let body = r#"{"side": 32, "horizon": 1, "tau": 0.42, "replicas": 60,
        "seed": 3, "max_events": 300}"#;
    let flags: Vec<String> = [
        "--side",
        "32",
        "--horizon",
        "1",
        "--tau",
        "0.42",
        "--replicas",
        "60",
        "--seed",
        "3",
        "--max-events",
        "300",
    ]
    .into_iter()
    .map(String::from)
    .chain([
        "--out".to_string(),
        dir.join("ref.jsonl").display().to_string(),
    ])
    .collect();
    run_sweep(&flags);
    let reference = fs::read(dir.join("ref.jsonl")).unwrap();

    let server = ServerProc::start("concurrent", &dir.join("data"), 1);
    let addr = server.addr.clone();
    let (status, _, out) = http(&addr, "POST", "/v1/sweeps", body);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&out));
    let id = json_str_field(&out, "id").expect("job id");

    // 8 clients tail the live job concurrently; every stream must end
    // complete, in order, and byte-identical — no interleaving, no
    // deadlock
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let id = id.clone();
            std::thread::spawn(move || http(&addr, "GET", &format!("/v1/jobs/{id}/rows"), ""))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (status, _, rows) = h.join().expect("client thread");
        assert_eq!(status, 200, "client {i}");
        assert_eq!(rows, reference, "client {i} got different bytes");
    }
    poll_until_state(&addr, &id, "done", Duration::from_secs(60));
}

#[test]
fn metrics_endpoint_exposes_valid_prometheus_text_under_load() {
    let dir = tmp_dir("metrics");
    let server = ServerProc::start("metrics", &dir.join("data"), 2);
    let addr = &server.addr;

    let (status, _, body) = http(addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json_str_field(&body, "id").expect("job id");

    // scrape mid-load: the job was just submitted, so the document must
    // already be well-formed while the engine is running
    let (status, head, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "wrong exposition content type:\n{head}"
    );
    validate_exposition(&String::from_utf8(body).expect("utf-8 exposition"));

    // stream the rows (counts into serve_rows_streamed_total), finish
    // the job, and hit the cache once
    let (_, _, rows) = http(addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    let row_count = rows.iter().filter(|&&b| b == b'\n').count() as f64;
    assert!(row_count >= 8.0, "expected the 8-task sweep's rows");
    poll_until_state(addr, &id, "done", Duration::from_secs(60));
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"cached\":true"));

    let (_, _, body) = http(addr, "GET", "/metrics", "");
    let text = String::from_utf8(body).expect("utf-8 exposition");
    let samples = validate_exposition(&text);

    // the counters reflect exactly what this test just did
    let (_, _, submits) = sample_value(
        &samples,
        "serve_http_requests_total",
        &[
            "endpoint=\"/v1/sweeps\"",
            "method=\"POST\"",
            "status=\"202\"",
        ],
    )
    .expect("a 202 submit was counted");
    assert!(*submits >= 1.0, "submit count {submits}");
    let (_, _, hits) = sample_value(&samples, "serve_cache_hits_total", &[]).expect("hit counter");
    assert!(*hits >= 1.0, "cache hit not counted");
    let (_, _, misses) =
        sample_value(&samples, "serve_cache_misses_total", &[]).expect("miss counter");
    assert!(*misses >= 1.0, "fresh submit not counted as a miss");
    let (_, _, streamed) =
        sample_value(&samples, "serve_rows_streamed_total", &[]).expect("rows counter");
    assert!(
        *streamed >= row_count,
        "rows streamed {streamed} < rows received {row_count}"
    );
    let (_, _, replicas) =
        sample_value(&samples, "engine_replicas_total", &[]).expect("engine counter");
    assert!(*replicas >= 8.0, "engine ran {replicas} replicas");

    // the request histogram is cumulative and self-consistent
    let (_, _, inf) = sample_value(
        &samples,
        "serve_http_request_seconds_bucket",
        &["endpoint=\"/v1/sweeps\"", "le=\"+Inf\""],
    )
    .expect("+Inf bucket");
    let (_, _, count) = sample_value(
        &samples,
        "serve_http_request_seconds_count",
        &["endpoint=\"/v1/sweeps\""],
    )
    .expect("histogram count");
    assert_eq!(*inf, *count, "+Inf bucket must equal the sample count");
    assert!(*count >= 2.0, "both submits should be timed");
}

/// Reads one response off a held keep-alive connection with the
/// service's own reader, returning `(status, body)`.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
    let response = read_response(reader, MAX_RESPONSE_BODY).expect("one response");
    (response.status, response.body)
}

/// `segsim serve` flags that hold every job in flight for two seconds
/// before it runs: a fleet coordinator that no worker joins waits out
/// its fleet timeout with the job "running", then runs the job locally
/// (the same bytes as a plain server). Tests that must observe a job in
/// flight use these, so what they see does not depend on how fast
/// replicas run.
const HOLD_JOBS: [&str; 3] = ["--fleet", "--fleet-timeout", "2"];

#[test]
fn healthz_reports_draining_once_shutdown_begins() {
    let dir = tmp_dir("draining");
    let mut server = ServerProc::start("draining", &dir.join("data"), 1);
    let addr = server.addr.clone();

    // a held keep-alive connection straddles the shutdown
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write!(
        writer,
        "GET /healthz HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    let (status, body) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&body).contains("\"status\":\"ok\""),
        "pre-drain healthz: {}",
        String::from_utf8_lossy(&body)
    );

    let (status, _, _) = http(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);

    // the same connection now sees the drain: 503 + "draining", so a
    // load balancer rotates the instance out while it finishes
    write!(
        writer,
        "GET /healthz HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    let (status, body) = read_one_response(&mut reader);
    assert_eq!(status, 503, "draining healthz must be unready");
    assert!(
        String::from_utf8_lossy(&body).contains("\"status\":\"draining\""),
        "draining healthz: {}",
        String::from_utf8_lossy(&body)
    );
    assert!(
        server.wait_exit(Duration::from_secs(30)),
        "server did not drain after /v1/shutdown"
    );
}

#[test]
fn admission_enforces_quotas_keys_and_queue_backpressure() {
    let dir = tmp_dir("admission");
    let keys = dir.join("keys.txt");
    fs::write(&keys, "# test tiers\nalpha 10\nanonymous 1\n").unwrap();
    let server = ServerProc::start_with(
        "admission",
        &dir.join("data"),
        1,
        &[
            &[
                "--api-keys",
                &keys.display().to_string(),
                "--max-queue",
                "1",
            ][..],
            &HOLD_JOBS,
        ]
        .concat(),
    );
    let addr = &server.addr;

    // an unknown key is refused outright
    let (status, _, body) = http_with(
        addr,
        "POST",
        "/v1/sweeps",
        &[("x-api-key", "nope")],
        &job_body(1),
    );
    assert_eq!(status, 401, "{}", String::from_utf8_lossy(&body));

    // the anonymous tier holds 1 in-flight job: the first is admitted,
    // a second fresh spec bounces with 429 + Retry-After
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(1));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    // once the single worker holds it the queue is empty again, so the
    // quota gate, not --max-queue, is what refuses the next spec
    let id = json_str_field(&body, "id").expect("job id");
    poll_until_state(addr, &id, "running", Duration::from_secs(30));
    let (status, head, body) = http(addr, "POST", "/v1/sweeps", &job_body(2));
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "429 without Retry-After:\n{head}"
    );
    assert!(
        String::from_utf8_lossy(&body).contains("quota"),
        "unexpected rejection body: {}",
        String::from_utf8_lossy(&body)
    );

    // joining the job already in flight is not a fresh admission
    let (status, _, _) = http(addr, "POST", "/v1/sweeps", &job_body(1));
    assert!(
        status == 200 || status == 202,
        "in-flight join was rejected with {status}"
    );

    // a keyed client has its own tier; with the single worker busy the
    // first keyed job queues (depth 1), and the next hits --max-queue
    let (status, _, body) = http_with(
        addr,
        "POST",
        "/v1/sweeps",
        &[("x-api-key", "alpha")],
        &job_body(3),
    );
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let (status, head, body) = http_with(
        addr,
        "POST",
        "/v1/sweeps",
        &[("x-api-key", "alpha")],
        &job_body(4),
    );
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert!(
        head.to_ascii_lowercase().contains("retry-after:"),
        "queue-full 429 without Retry-After:\n{head}"
    );
    assert!(
        String::from_utf8_lossy(&body).contains("queue"),
        "unexpected rejection body: {}",
        String::from_utf8_lossy(&body)
    );

    // rejections are visible per reason on /metrics
    let (_, _, body) = http(addr, "GET", "/metrics", "");
    let samples = validate_exposition(&String::from_utf8(body).expect("utf-8 exposition"));
    for reason in ["quota", "queue_full", "unknown_key"] {
        let label = format!("reason=\"{reason}\"");
        let (_, _, v) = sample_value(&samples, "serve_admission_rejected_total", &[&label])
            .unwrap_or_else(|| panic!("no {label} sample"));
        assert!(*v >= 1.0, "{reason} rejection not counted");
    }
}

#[test]
fn a_concurrent_burst_past_the_queue_is_shed_with_retry_after() {
    // one job worker and a 4-deep queue take a 16-submit burst from 8
    // threads: every submit is admitted (202) or shed (429 +
    // Retry-After), never anything else, and at least one is shed
    let dir = tmp_dir("overload");
    let server = ServerProc::start_with(
        "overload",
        &dir.join("data"),
        1,
        &[&["--max-queue", "4"][..], &HOLD_JOBS].concat(),
    );
    let addr = &server.addr;
    let (burst, threads) = (16u64, 8u64);
    let shed: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut shed = 0;
                    for seed in (t..burst).step_by(threads as usize) {
                        let (status, head, body) =
                            http(addr, "POST", "/v1/sweeps", &job_body(9000 + seed));
                        match status {
                            202 => {}
                            429 => {
                                assert!(
                                    head.to_ascii_lowercase().contains("retry-after:"),
                                    "429 without Retry-After:\n{head}"
                                );
                                shed += 1;
                            }
                            other => panic!(
                                "burst submit got {other}: {}",
                                String::from_utf8_lossy(&body)
                            ),
                        }
                    }
                    shed
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert!(
        shed >= 1,
        "a {burst}-submit burst against a 4-deep queue shed nothing"
    );
}

#[test]
fn delete_removes_finished_jobs_but_refuses_running_ones() {
    let dir = tmp_dir("delete");
    let reference = dir.join("ref.jsonl");
    run_sweep(&small_sweep_flags(&reference));
    let reference = fs::read(&reference).unwrap();

    let server = ServerProc::start_with("delete", &dir.join("data"), 2, &HOLD_JOBS);
    let addr = &server.addr;

    let (status, _, body) = http(addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json_str_field(&body, "id").expect("job id");
    poll_until_state(addr, &id, "done", Duration::from_secs(60));

    // a running job cannot be deleted out from under its worker
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(5));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let running = json_str_field(&body, "id").expect("job id");
    let (status, _, body) = http(addr, "DELETE", &format!("/v1/jobs/{running}"), "");
    assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));

    // the finished job deletes cleanly and is forgotten
    let (status, _, body) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("\"deleted\":true"));
    assert_eq!(http(addr, "GET", &format!("/v1/jobs/{id}"), "").0, 404);
    assert_eq!(http(addr, "DELETE", &format!("/v1/jobs/{id}"), "").0, 404);

    // deletion is cache-miss-on-resubmit: the same spec recomputes the
    // identical bytes
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("\"cached\":false"));
    poll_until_state(addr, &id, "done", Duration::from_secs(60));
    let (_, _, rows) = http(addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    assert_eq!(rows, reference, "recomputed rows differ from CLI rows");
}

#[test]
fn data_max_bytes_evicts_oldest_done_jobs_and_keeps_the_bound() {
    let dir = tmp_dir("evict");

    // probe pass: measure one finished job's on-disk footprint
    let probe_data = dir.join("probe");
    {
        let server = ServerProc::start("evict-probe", &probe_data, 1);
        let (status, _, body) = http(&server.addr, "POST", "/v1/sweeps", &job_body(101));
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
        let id = json_str_field(&body, "id").expect("job id");
        poll_until_state(&server.addr, &id, "done", Duration::from_secs(60));
    }
    let probe_jobs = probe_data.join("jobs");
    let job_dir = fs::read_dir(&probe_jobs)
        .unwrap()
        .next()
        .expect("one probe job")
        .unwrap()
        .path();
    let job_bytes: u64 = fs::read_dir(&job_dir)
        .unwrap()
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();
    assert!(job_bytes > 0, "probe job left no bytes");
    let bound = job_bytes * 7 / 2; // room for ~3 finished jobs

    let server = ServerProc::start_with(
        "evict",
        &dir.join("data"),
        1,
        &["--data-max-bytes", &bound.to_string()],
    );
    let addr = &server.addr;

    // first job: grab its rows before anything can evict it
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(101));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let first_id = json_str_field(&body, "id").expect("job id");
    poll_until_state(addr, &first_id, "done", Duration::from_secs(60));
    let (_, _, first_rows) = http(addr, "GET", &format!("/v1/jobs/{first_id}/rows"), "");
    assert!(!first_rows.is_empty());

    // five more distinct finished jobs push the dir well past the bound
    for seed in 102..=106 {
        let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(seed));
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
        let id = json_str_field(&body, "id").expect("job id");
        poll_until_state(addr, &id, "done", Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(10)); // distinct idle ages
    }

    let (_, _, body) = http(addr, "GET", "/metrics", "");
    let samples = validate_exposition(&String::from_utf8(body).expect("utf-8 exposition"));
    let (_, _, evicted) =
        sample_value(&samples, "serve_jobs_evicted_total", &[]).expect("eviction counter");
    assert!(*evicted >= 1.0, "nothing was evicted under the byte bound");
    let (_, _, data_bytes) =
        sample_value(&samples, "serve_data_bytes", &[]).expect("data-bytes gauge");
    assert!(
        *data_bytes <= bound as f64,
        "data dir at {data_bytes} bytes exceeds the {bound}-byte bound"
    );

    // the oldest-idle job is gone — and resubmitting it recomputes the
    // byte-identical rows (eviction is a cache miss, not data loss)
    assert_eq!(
        http(addr, "GET", &format!("/v1/jobs/{first_id}"), "").0,
        404
    );
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(101));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("\"cached\":false"));
    poll_until_state(addr, &first_id, "done", Duration::from_secs(60));
    let (_, _, rows) = http(addr, "GET", &format!("/v1/jobs/{first_id}/rows"), "");
    assert_eq!(rows, first_rows, "recomputed rows differ after eviction");
}

#[test]
fn an_unbounded_server_keeps_its_data_bytes_gauge_current() {
    let dir = tmp_dir("data-bytes");
    let data = dir.join("data");
    let server = ServerProc::start("data-bytes", &data, 1);
    let addr = &server.addr;
    for seed in 301..=303 {
        let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(seed));
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
        let id = json_str_field(&body, "id").expect("job id");
        poll_until_state(addr, &id, "done", Duration::from_secs(60));
    }
    let walked: u64 = fs::read_dir(data.join("jobs"))
        .unwrap()
        .flat_map(|job| fs::read_dir(job.unwrap().path()).unwrap())
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();
    assert!(walked > 0, "finished jobs left no bytes");
    // with no --job-ttl or --data-max-bytes, completions skip the
    // lifecycle pass and the 500 ms sweeper publishes the total
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, _, body) = http(addr, "GET", "/metrics", "");
        let samples = validate_exposition(&String::from_utf8(body).expect("utf-8 exposition"));
        let (_, _, published) =
            sample_value(&samples, "serve_data_bytes", &[]).expect("data-bytes gauge");
        if *published == walked as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "serve_data_bytes reads {published}, the data dir holds {walked}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A small distinct-by-seed job.
fn job_body(seed: u64) -> String {
    format!(
        r#"{{"side": 24, "horizon": 1, "tau": 0.4, "replicas": 2, "seed": {seed}, "max_events": 150}}"#
    )
}

#[test]
fn dashboard_serves_html_with_charts_for_jobs_with_history() {
    let dir = tmp_dir("dashboard");
    let server = ServerProc::start("dashboard", &dir.join("data"), 1);
    let addr = &server.addr;

    // an empty server still renders a complete page
    let (status, head, body) = http(addr, "GET", "/dashboard", "");
    assert_eq!(status, 200);
    assert!(head
        .to_ascii_lowercase()
        .contains("content-type: text/html"));
    let text = String::from_utf8(body).expect("utf-8 html");
    assert!(text.starts_with("<!DOCTYPE html>"), "not an HTML document");
    assert!(text.contains("</html>"), "page truncated");
    assert!(text.contains("No jobs yet"), "empty state missing");

    let (status, _, body) = http(addr, "POST", "/v1/sweeps", SMALL_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json_str_field(&body, "id").expect("job id");
    poll_until_state(addr, &id, "done", Duration::from_secs(60));

    let (status, _, body) = http(addr, "GET", "/dashboard", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8 html");
    assert!(text.contains(&id), "job id missing from dashboard");
    let svgs = text.matches("<svg").count();
    assert!(
        svgs >= 2,
        "want the job's replicas/s and events/s charts, found {svgs} <svg>"
    );
    assert!(text.contains("</html>"), "page truncated");
}

/// Polls `GET /alerts` until the rule table reports `want`, returning
/// the matching body.
fn poll_alert_state(addr: &str, want: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, _, body) = http(addr, "GET", "/alerts", "");
        assert_eq!(status, 200, "alerts poll failed");
        let text = String::from_utf8(body).expect("utf-8 alerts");
        if text.contains(&format!("\"state\":\"{want}\"")) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for alert state {want}: {text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extracts the `(unix_us, total)` sequence from a counter series in a
/// `/v1/metrics/history` response.
fn counter_points(text: &str) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for chunk in text.split("{\"unix_us\":").skip(1) {
        let us: u64 = chunk[..chunk.find(',').expect("point fields")]
            .parse()
            .expect("unix_us");
        let rest = &chunk[chunk.find("\"total\":").expect("counter point") + 8..];
        let end = rest.find([',', '}']).expect("total delimiter");
        out.push((us, rest[..end].parse().expect("total")));
    }
    out
}

#[test]
fn alerts_fire_and_resolve_while_history_tiers_stay_consistent() {
    let dir = tmp_dir("alerts");
    let rules = dir.join("alerts.rules");
    fs::write(
        &rules,
        "# deliberately fires whenever a job is active\n\
         serve_active_jobs value >= 1 for 200ms\n",
    )
    .unwrap();
    // the history JSONL sits next to the server log so CI uploads it as
    // an artifact when this test fails
    let history_out = log_path("alerts").with_file_name("alerts-history.jsonl");
    let _ = fs::remove_file(&history_out);

    let server = ServerProc::start_with(
        "alerts",
        &dir.join("data"),
        2,
        &[
            &[
                "--history-scrape-ms",
                "50",
                "--alerts",
                &rules.display().to_string(),
                "--metrics-history-out",
                &history_out.display().to_string(),
            ][..],
            &HOLD_JOBS,
        ]
        .concat(),
    );
    let addr = &server.addr;

    // the rule loads inactive: nothing is running yet
    let text = poll_alert_state(addr, "inactive", Duration::from_secs(10));
    assert!(text.contains("serve_active_jobs"), "rule missing: {text}");

    // a held job keeps serve_active_jobs >= 1 for two seconds, well
    // past the rule's 200ms hold
    let (status, _, body) = http(addr, "POST", "/v1/sweeps", &job_body(9));
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json_str_field(&body, "id").expect("job id");
    poll_alert_state(addr, "firing", Duration::from_secs(30));

    // the job drains, the gauge falls back to zero, the alert resolves
    poll_until_state(addr, &id, "done", Duration::from_secs(60));
    poll_alert_state(addr, "inactive", Duration::from_secs(30));

    // both transitions are counted in the exposition
    let (_, _, body) = http(addr, "GET", "/metrics", "");
    let samples = validate_exposition(&String::from_utf8(body).expect("utf-8 exposition"));
    for state in ["firing", "resolved"] {
        let (_, _, v) = sample_value(
            &samples,
            "obs_alerts_transitions_total",
            &[&format!("state=\"{state}\"")],
        )
        .unwrap_or_else(|| panic!("no {state} transition sample"));
        assert!(*v >= 1.0, "{state} transitions not counted: {v}");
    }

    // tier-0 history of the request counter the alert polling drove:
    // monotone timestamps, non-decreasing totals. The scraper keeps
    // sampling the series after the job is done, so wait for ten
    // samples rather than trusting the job to run long enough
    let path = "/v1/metrics/history?name=serve_http_requests_total&labels=endpoint=/alerts&res=1s";
    let deadline = Instant::now() + Duration::from_secs(30);
    let fine = loop {
        let (status, _, body) = http(addr, "GET", path, "");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let fine = counter_points(&String::from_utf8(body).expect("utf-8 history"));
        if fine.len() >= 10 {
            break fine;
        }
        assert!(
            Instant::now() < deadline,
            "too few tier-0 samples: {}",
            fine.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    for w in fine.windows(2) {
        assert!(w[1].0 > w[0].0, "tier-0 timestamps not monotone: {w:?}");
        assert!(w[1].1 >= w[0].1, "tier-0 counter total decreased: {w:?}");
    }

    // the 10s tier is an exact subsample: wherever the tiers overlap in
    // time the counter totals agree, so roll-up conserves them
    let path = "/v1/metrics/history?name=serve_http_requests_total&labels=endpoint=/alerts&res=10s";
    let (status, _, body) = http(addr, "GET", path, "");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let coarse = counter_points(&String::from_utf8(body).expect("utf-8 history"));
    assert!(!coarse.is_empty(), "10s tier never rolled up");
    for w in coarse.windows(2) {
        assert!(w[1].0 > w[0].0, "tier-1 timestamps not monotone: {w:?}");
        assert!(w[1].1 >= w[0].1, "tier-1 counter total decreased: {w:?}");
    }
    let fine_at: std::collections::HashMap<u64, u64> = fine.iter().copied().collect();
    let mut overlapped = 0;
    for (us, total) in &coarse {
        if let Some(t) = fine_at.get(us) {
            overlapped += 1;
            assert_eq!(t, total, "tiers disagree on the total at {us}");
        }
    }
    assert!(overlapped >= 1, "the tiers share no timestamps");

    // every scraped sample was also persisted for restart replay
    let jsonl = fs::read_to_string(&history_out).expect("history JSONL");
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains("serve_http_requests_total")),
        "history JSONL missing the scraped request counter"
    );
}
