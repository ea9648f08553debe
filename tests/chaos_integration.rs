//! The transport-resilience guarantee, tested with real processes: a
//! coordinator (`segsim serve --fleet`) and two `segsim work` workers
//! whose every coordinator exchange rides a fault-injection proxy
//! ([`support::chaos::ChaosProxy`]) that drops, delays, and truncates
//! connections on a seeded schedule. The job must still finish with
//! result rows **byte-identical** to `segsim sweep --out`, no
//! duplicate `(point, replica)` row, the workers' retry loop visible as
//! `work_retries_total > 0` on a worker's own `/metrics` listener, and
//! the coordinator must still drain cleanly on `POST /v1/shutdown`.
//!
//! Server stderr and worker stdout land under `SERVE_TEST_LOG_DIR` so
//! CI can upload them when the scenario fails.

mod support;

use std::collections::HashSet;
use std::fs;
use std::time::Duration;
use support::chaos::ChaosProxy;
use support::{
    http, json_str_field, poll_until_state, run_sweep, tmp_dir, validate_exposition, wait_for_log,
    wait_for_workers, ServerProc, WorkerProc,
};

/// Same spec as the fleet test: 120 tasks, a few seconds of
/// debug-build compute — long enough that the proxy injects faults
/// into claims, heartbeats, and uploads alike.
const JOB_BODY: &str = r#"{"side": 32, "horizon": 1, "tau": 0.42, "replicas": 120,
    "seed": 11, "max_events": 1500}"#;

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
        "11",
        "--max-events",
        "1500",
    ]
    .into_iter()
    .map(String::from)
    .chain(["--out".to_string(), out.display().to_string()])
    .collect()
}

#[test]
fn fleet_behind_a_chaotic_network_stays_byte_identical() {
    let dir = tmp_dir("chaos");
    let reference = dir.join("ref.jsonl");
    run_sweep(&job_sweep_flags(&reference));
    let reference = fs::read(&reference).unwrap();

    let mut server = ServerProc::start_with(
        "chaos",
        &dir.join("data"),
        1,
        &["--fleet", "--fleet-timeout", "2"],
    );
    let addr = server.addr.clone();

    // each worker reaches the coordinator only through its own lossy
    // proxy (a per-worker proxy keeps each fault schedule aligned with
    // one worker's connection order); the test talks to the coordinator
    // directly so its own assertions never race a fault. The observed
    // worker's seed is chosen so its first draw is a Drop — its very
    // first exchange (the register) fails and must be retried, making
    // the work_retries_total assertion below deterministic.
    let proxy = ChaosProxy::start(addr.clone(), 0xDEAD);
    let proxy2 = ChaosProxy::start(addr.clone(), 0xC0FFEE);
    let _ = fs::remove_file(support::log_path("chaos-worker1"));
    let observed = WorkerProc::start("chaos", 1, &proxy.addr, &["--metrics-addr", "127.0.0.1:0"]);
    let _plain = WorkerProc::start("chaos", 2, &proxy2.addr, &[]);
    wait_for_workers(&addr, 2, Duration::from_secs(30));

    let (status, _, body) = http(&addr, "POST", "/v1/sweeps", JOB_BODY);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = json_str_field(&body, "id").expect("job id");

    poll_until_state(&addr, &id, "done", Duration::from_secs(300));

    // the merged rows are byte-identical to the single-process CLI run
    let (status, _, rows) = http(&addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    assert_eq!(status, 200);
    assert_eq!(rows, reference, "chaos-fleet rows differ from CLI rows");

    // belt and braces on top of byte-identity: retried uploads must
    // never smuggle a share in twice
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

    // the proxies really did inject faults, and the observed worker's
    // transport really did absorb them: work_retries_total on its own
    // listener (its schedule starts with a dropped register, so at
    // least one retry is guaranteed)
    assert!(
        proxy.injected() >= 1 && proxy2.injected() >= 1,
        "a seeded schedule injected no fault — the test proved nothing \
         (observed {}, plain {})",
        proxy.injected(),
        proxy2.injected()
    );
    let metrics_line = wait_for_log(
        &observed.log,
        "work: metrics on http://",
        Duration::from_secs(10),
    );
    let metrics_addr = metrics_line
        .lines()
        .filter_map(|l| l.strip_prefix("work: metrics on http://"))
        .next_back()
        .expect("metrics address line")
        .trim()
        .to_string();
    let (status, _, body) = http(&metrics_addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let exposition = String::from_utf8(body).expect("utf-8 exposition");
    let samples = validate_exposition(&exposition);
    let retries: f64 = samples
        .iter()
        .filter(|(n, _, _)| n == "work_retries_total")
        .map(|(_, _, v)| v)
        .sum();
    assert!(
        retries >= 1.0,
        "no retry was recorded under fault injection:\n{exposition}"
    );

    // a chaotic network must not cost the coordinator its clean drain
    let (status, _, _) = http(&addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert!(
        server.wait_exit(Duration::from_secs(30)),
        "coordinator did not drain after /v1/shutdown"
    );
}
