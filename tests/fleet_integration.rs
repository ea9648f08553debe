//! The fleet guarantee, tested with real processes under fault
//! injection: a coordinator (`segsim serve --fleet`) plus three
//! `segsim work` workers — one killed with SIGKILL mid-job, one hanging
//! after its claim without heartbeats — must still finish the job with
//! result rows **byte-identical** to `segsim sweep --out`,
//! re-dispatching the dead workers' shares to the survivor
//! (`fleet_shard_redispatch_total ≥ 1`), with no duplicate
//! (point, replica) row.
//!
//! Server stderr and worker stdout go under `SERVE_TEST_LOG_DIR` (CI
//! uploads them on failure), as do both processes' `--trace-out` JSONL
//! files — the fleet run also asserts the *observability* contract:
//! one trace id spans coordinator and worker, `GET /v1/jobs/:id/trace`
//! merges spans from at least two processes, the worker's own
//! `--metrics-addr` listener answers `/metrics` + `/healthz` mid-run,
//! and the coordinator federates worker throughput into
//! `fleet_worker_*{worker=...}` gauges.

mod support;

use std::collections::HashSet;
use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;
use support::{
    http, json_str_field, log_path, poll_until_state, run_sweep, sample_value, tmp_dir,
    validate_exposition, wait_for_log, wait_for_workers, ServerProc, WorkerProc, SEGSIM,
};

/// A job big enough that workers are reliably mid-share when one is
/// killed: 120 tasks, a few seconds of debug-build compute.
const JOB_BODY: &str = r#"{"side": 32, "horizon": 1, "tau": 0.42, "replicas": 120,
    "seed": 7, "max_events": 1500}"#;

fn job_sweep_flags(out: &std::path::Path) -> Vec<String> {
    [
        "--side",
        "32",
        "--horizon",
        "1",
        "--tau",
        "0.42",
        "--replicas",
        "120",
        "--seed",
        "7",
        "--max-events",
        "1500",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--out".to_string(), out.display().to_string()])
    .collect()
}

#[test]
fn fleet_with_killed_and_hung_workers_stays_byte_identical() {
    let dir = tmp_dir("fleet");
    let reference = dir.join("ref.jsonl");
    run_sweep(&job_sweep_flags(&reference));
    let reference = fs::read(&reference).unwrap();

    let coord_trace = log_path("fleet-trace-coordinator");
    let survivor_trace = log_path("fleet-trace-survivor");
    for p in [&coord_trace, &survivor_trace] {
        let _ = fs::remove_file(p);
    }
    let mut server = ServerProc::start_with(
        "fleet",
        &dir.join("data"),
        1,
        &[
            "--fleet",
            "--fleet-timeout",
            "2",
            "--trace-out",
            &coord_trace.display().to_string(),
        ],
    );
    let addr = server.addr.clone();

    // fleet endpoints are live; a bogus worker id is told to re-register
    let (status, _, _) = http(&addr, "POST", "/v1/workers/w999/heartbeat", "{}");
    assert_eq!(status, 404);

    // three workers: one will hang after claiming (no heartbeats), one
    // will be SIGKILLed mid-share, one survives and finishes the job
    let _hung = WorkerProc::start("fleet", 1, &addr, &["--fault", "hang"]);
    let mut victim = WorkerProc::start("fleet", 2, &addr, &[]);
    // worker logs append across runs; a stale "metrics on" line from an
    // earlier run would point at a dead port
    let _ = fs::remove_file(log_path("fleet-worker3"));
    let survivor = WorkerProc::start(
        "fleet",
        3,
        &addr,
        &[
            "--metrics-addr",
            "127.0.0.1:0",
            "--trace-out",
            &survivor_trace.display().to_string(),
        ],
    );
    wait_for_workers(&addr, 3, Duration::from_secs(10));

    // the survivor's own observability listener answers on the
    // ephemeral port it printed at startup
    let metrics_line = wait_for_log(
        &survivor.log,
        "work: metrics on http://",
        Duration::from_secs(10),
    );
    let worker_metrics_addr = metrics_line
        .lines()
        .filter_map(|l| l.strip_prefix("work: metrics on http://"))
        .next_back()
        .expect("metrics address line")
        .trim()
        .to_string();
    let (status, _, body) = http(&worker_metrics_addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (status, _, body) = http(&worker_metrics_addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let worker_metrics = String::from_utf8(body).expect("utf-8 exposition");
    validate_exposition(&worker_metrics);
    assert!(
        worker_metrics.contains("work_assignments_total"),
        "worker /metrics misses its own families:\n{worker_metrics}"
    );

    let (status, _, body) = http(&addr, "POST", "/v1/sweeps", JOB_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json_str_field(&body, "id").expect("job id");
    let trace_id = json_str_field(&body, "trace_id").expect("job trace id");

    // SIGKILL the victim as soon as it has claimed a share — its tasks
    // must be re-dispatched, never lost
    wait_for_log(&victim.log, "work: claimed job", Duration::from_secs(30));
    victim.kill9();

    // mid-run: worker claim/heartbeat stats are federated into
    // per-worker gauges on the coordinator's exposition
    let (_, _, body) = http(&addr, "GET", "/metrics", "");
    let text = String::from_utf8(body).expect("utf-8 exposition");
    let samples = validate_exposition(&text);
    assert!(
        samples
            .iter()
            .any(|(n, l, _)| n == "fleet_worker_replicas_per_sec" && l.contains("worker=")),
        "no federated fleet_worker_replicas_per_sec gauge:\n{text}"
    );
    assert!(
        samples
            .iter()
            .any(|(n, l, _)| n == "fleet_worker_events_per_sec" && l.contains("worker=")),
        "no federated fleet_worker_events_per_sec gauge:\n{text}"
    );

    poll_until_state(&addr, &id, "done", Duration::from_secs(300));

    // the correlated timeline: spans from both sides of the fleet under
    // the job's single trace id, merged in wall-clock order
    let (status, _, body) = http(&addr, "GET", &format!("/v1/jobs/{id}/trace"), "");
    assert_eq!(status, 200);
    let trace_doc = String::from_utf8(body).expect("utf-8 trace");
    assert!(
        trace_doc.contains(&format!("\"trace_id\":\"{trace_id}\"")),
        "trace document carries the wrong id: {trace_doc}"
    );
    assert!(
        trace_doc.contains("\"proc\":\"coordinator\""),
        "no coordinator spans in {trace_doc}"
    );
    let worker_procs: HashSet<&str> = trace_doc
        .split("\"proc\":\"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .filter(|p| *p != "coordinator")
        .collect();
    assert!(
        !worker_procs.is_empty(),
        "no worker-side spans in {trace_doc}"
    );
    let stamps: Vec<u64> = trace_doc
        .split("\"unix_us\":")
        .skip(1)
        .filter_map(|s| {
            s.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .collect();
    assert!(stamps.len() >= 2, "too few spans in {trace_doc}");
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "trace timeline not sorted by unix_us"
    );

    // both processes exported the shared trace id to their JSONL files
    for (proc, path) in [("coordinator", &coord_trace), ("survivor", &survivor_trace)] {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{proc} trace file {}: {e}", path.display()));
        assert!(
            text.contains(&trace_id),
            "{proc} trace JSONL never mentions trace id {trace_id}:\n{text}"
        );
    }

    // the merged rows are byte-identical to the single-process CLI run
    let (status, _, rows) = http(&addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    assert_eq!(status, 200);
    assert_eq!(rows, reference, "fleet rows differ from CLI rows");

    // belt and braces on top of byte-identity: every (point, replica)
    // pair appears exactly once — no dead worker's share ran twice into
    // the output
    let text = std::str::from_utf8(&rows).expect("utf-8 rows");
    let mut seen = HashSet::new();
    for line in text.lines() {
        let point = line.split("\"point\":").nth(1).and_then(|s| {
            s.split(&[',', '}'][..])
                .next()
                .map(|v| v.trim().to_string())
        });
        let replica = line.split("\"replica\":").nth(1).and_then(|s| {
            s.split(&[',', '}'][..])
                .next()
                .map(|v| v.trim().to_string())
        });
        let key = (point.expect("point field"), replica.expect("replica field"));
        assert!(seen.insert(key.clone()), "duplicate row for {key:?}");
    }
    assert_eq!(seen.len(), 120, "expected one row per task");

    // the survivor did real fleet work, and the dead/hung shares were
    // re-dispatched at least once
    wait_for_log(&survivor.log, "work: uploaded", Duration::from_secs(30));
    let (_, _, body) = http(&addr, "GET", "/metrics", "");
    let samples = validate_exposition(&String::from_utf8(body).expect("utf-8 exposition"));
    let (_, _, redispatched) = sample_value(&samples, "fleet_shard_redispatch_total", &[])
        .expect("redispatch counter exported");
    assert!(
        *redispatched >= 1.0,
        "no share was re-dispatched (counter {redispatched})"
    );
    let (_, _, uploaded) =
        sample_value(&samples, "fleet_journal_records_total", &[]).expect("upload counter");
    assert!(*uploaded >= 1.0, "no fleet upload was accepted");

    // clean shutdown with workers still attached
    let (status, _, _) = http(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(
        server.wait_exit(Duration::from_secs(30)),
        "coordinator did not drain after /v1/shutdown"
    );
}

#[test]
fn fleet_endpoints_are_404_when_fleet_mode_is_off() {
    let dir = tmp_dir("fleet_off");
    let server = ServerProc::start("fleet_off", &dir.join("data"), 1);
    for (method, path) in [
        ("POST", "/v1/workers/register"),
        ("POST", "/v1/workers/w1/heartbeat"),
        ("POST", "/v1/workers/w1/claim"),
        ("GET", "/v1/workers"),
        ("POST", "/v1/jobs/abcd/journal"),
    ] {
        let (status, _, body) = http(&server.addr, method, path, "{}");
        assert_eq!(
            status,
            404,
            "{method} {path}: {}",
            String::from_utf8_lossy(&body)
        );
    }
    // and a worker pointed at a non-fleet server fails fast with a
    // useful message instead of looping
    let out = Command::new(SEGSIM)
        .args(["work", "--join", &server.addr])
        .output()
        .expect("spawn segsim work");
    assert!(!out.status.success(), "worker should refuse a 404 register");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--fleet"),
        "unhelpful error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The worker's `--metrics-addr` listener runs on the server's
/// connection loop: a malformed request line gets a 400, and idle
/// connections beyond the handler pool wait in its bounded queue and
/// the OS backlog instead of each pinning a thread of their own.
#[test]
fn worker_metrics_listener_answers_400_and_bounds_its_threads() {
    let dir = tmp_dir("fleet_listener");
    let server = ServerProc::start_with("fleet_listener", &dir.join("data"), 1, &["--fleet"]);
    let _ = fs::remove_file(log_path("fleet_listener-worker1"));
    let worker = WorkerProc::start(
        "fleet_listener",
        1,
        &server.addr,
        &["--metrics-addr", "127.0.0.1:0"],
    );
    let line = wait_for_log(
        &worker.log,
        "work: metrics on http://",
        Duration::from_secs(10),
    );
    let addr = line
        .lines()
        .filter_map(|l| l.strip_prefix("work: metrics on http://"))
        .next_back()
        .expect("metrics address line")
        .trim()
        .to_string();

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "got {reply:?}");

    let threads = || -> usize {
        let status = fs::read_to_string(format!("/proc/{}/status", worker.child.id()))
            .expect("worker /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("Threads line")
    };
    let before = threads();
    let idle: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    let during = threads();
    assert!(
        during < before + 16,
        "{} idle connections grew the worker from {before} to {during} threads",
        idle.len()
    );
    drop(idle);
    let (status, _, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "the listener is still serving");
}
