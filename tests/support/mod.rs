//! Helpers shared by the `segsim serve` / fleet integration tests:
//! spawning real server processes on ephemeral ports, one-shot HTTP
//! exchanges, deadline-based log polling, and Prometheus exposition
//! parsing. Each test binary uses a subset, hence the allow.
#![allow(dead_code)]

pub mod chaos;

use self_organized_segregation::seg_obs::Json;
use self_organized_segregation::seg_serve::http::{read_response, MAX_RESPONSE_BODY};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The binary under test.
pub const SEGSIM: &str = env!("CARGO_BIN_EXE_segsim");

/// A fresh per-test scratch directory.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("segsim_serve_integration")
        .join(tag);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Where a scenario's server stderr goes: `serve-<tag>.log` under
/// `SERVE_TEST_LOG_DIR` (which CI uploads on failure) or the temp dir.
pub fn log_path(tag: &str) -> PathBuf {
    let dir = std::env::var_os("SERVE_TEST_LOG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("segsim_serve_integration"));
    fs::create_dir_all(&dir).unwrap();
    dir.join(format!("serve-{tag}.log"))
}

/// A running `segsim serve` process bound to an ephemeral port.
pub struct ServerProc {
    pub child: Child,
    pub addr: String,
    pub log: PathBuf,
}

impl ServerProc {
    /// Starts the server on port 0 and reads the bound address off its
    /// first stdout line. Stderr appends to the per-tag log so restarts
    /// of one scenario share a file.
    pub fn start(tag: &str, data_dir: &Path, workers: u32) -> ServerProc {
        ServerProc::start_with(tag, data_dir, workers, &[])
    }

    /// [`ServerProc::start`] with extra `segsim serve` flags (fleet
    /// tests pass `--fleet`, `--fleet-timeout`, ...).
    pub fn start_with(tag: &str, data_dir: &Path, workers: u32, extra: &[&str]) -> ServerProc {
        let log = log_path(tag);
        let log_file = fs::File::options()
            .create(true)
            .append(true)
            .open(&log)
            .unwrap();
        let mut child = Command::new(SEGSIM)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--data",
                &data_dir.display().to_string(),
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .expect("spawn segsim serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("server printed nothing")
            .expect("read server stdout");
        let addr = first
            .strip_prefix("serve: listening on http://")
            .unwrap_or_else(|| panic!("unexpected first line: {first}"))
            .to_string();
        ServerProc { child, addr, log }
    }

    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits (bounded) for the process to exit on its own, returning
    /// whether it exited successfully.
    pub fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => return status.success(),
                None if Instant::now() > deadline => return false,
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A running `segsim work` process with its stdout in a log file.
pub struct WorkerProc {
    pub child: Child,
    pub log: PathBuf,
}

impl WorkerProc {
    /// Starts a worker joined to `coordinator` with a fast 50 ms claim
    /// poll; `extra` appends further `segsim work` flags.
    pub fn start(tag: &str, n: usize, coordinator: &str, extra: &[&str]) -> WorkerProc {
        let log = log_path(&format!("{tag}-worker{n}"));
        let log_file = fs::File::options()
            .create(true)
            .append(true)
            .open(&log)
            .unwrap();
        let child = Command::new(SEGSIM)
            .args([
                "work",
                "--join",
                coordinator,
                "--poll-ms",
                "50",
                "--threads",
                "1",
            ])
            .args(extra)
            .stdout(Stdio::from(log_file))
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn segsim work");
        WorkerProc { child, log }
    }

    /// SIGKILL — the worker gets no chance to upload or say goodbye.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill9();
    }
}

/// Polls `GET /v1/workers` until `n` workers are registered.
pub fn wait_for_workers(addr: &str, n: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, _, body) = http(addr, "GET", "/v1/workers", "");
        assert_eq!(status, 200, "worker listing failed");
        let count = String::from_utf8_lossy(&body).matches("\"id\":").count();
        if count >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "only {count}/{n} workers registered in time: {}",
            String::from_utf8_lossy(&body)
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Polls `path` until its content contains `needle`, with a deadline —
/// log lines land asynchronously (stderr buffering, scheduler delays),
/// so a single read races the writer. Returns the content that matched;
/// panics with the final content on timeout.
pub fn wait_for_log(path: &Path, needle: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let text = fs::read_to_string(path).unwrap_or_default();
        if text.contains(needle) {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "log {} never contained {needle:?} within {timeout:?}:\n{text}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A one-shot HTTP exchange (`Connection: close`), returning
/// `(status, header lines, body)` with chunked bodies decoded. The
/// response goes through the service's own bounded reader.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, Vec<u8>) {
    http_with(addr, method, path, &[], body)
}

/// [`http`] with extra request headers (e.g. `x-api-key`).
pub fn http_with(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let extra: String = headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n{extra}content-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    // best-effort: a server rejecting an oversized body responds and
    // closes without reading it, which makes this write fail with EPIPE
    let _ = stream.write_all(body.as_bytes());
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader, MAX_RESPONSE_BODY).expect("read response");
    // the exchange ends when the server closes the connection, after the
    // bookkeeping (request metrics) that follows its reply
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "bytes after the response");
    let head = response
        .headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    (response.status, head, response.body)
}

/// A string field of a JSON response body.
pub fn json_str_field(body: &[u8], field: &str) -> Option<String> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get(field)?.as_str().map(String::from)
}

pub fn poll_until_state(addr: &str, id: &str, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, _, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "status poll failed");
        let state = json_str_field(&body, "state").expect("state field");
        if state == want {
            return;
        }
        assert!(
            state != "failed",
            "job failed while waiting for {want}: {}",
            String::from_utf8_lossy(&body)
        );
        assert!(
            Instant::now() < deadline,
            "timed out waiting for state {want} (currently {state})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `segsim sweep` with the given flags, panicking on failure.
pub fn run_sweep(flags: &[String]) {
    let out = Command::new(SEGSIM)
        .arg("sweep")
        .args(flags)
        .output()
        .expect("spawn segsim sweep");
    assert!(
        out.status.success(),
        "segsim sweep failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Splits one Prometheus sample line into `(name, labels, value)`.
pub fn parse_sample(line: &str) -> (String, String, f64) {
    let (head, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|e| panic!("bad sample value in {line:?}: {e}"));
    match head.split_once('{') {
        Some((name, rest)) => {
            let labels = rest.strip_suffix('}').expect("labels close");
            (name.to_string(), labels.to_string(), value)
        }
        None => (head.to_string(), String::new(), value),
    }
}

/// Validates a full exposition document line by line and returns every
/// sample as `(name, labels, value)`.
pub fn validate_exposition(text: &str) -> Vec<(String, String, f64)> {
    let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().expect("comment kind");
            let name = parts
                .next()
                .unwrap_or_else(|| panic!("bare comment: {line:?}"));
            assert!(parts.next().is_some(), "HELP/TYPE without text: {line:?}");
            match kind {
                "HELP" => {}
                "TYPE" => {
                    assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
                }
                other => panic!("unknown comment kind {other} in {line:?}"),
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line);
        // every sample belongs to a TYPEd family (histogram samples get
        // _bucket/_sum/_count suffixes on the family name)
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .filter(|f| typed.contains(*f))
            .unwrap_or(&name);
        assert!(typed.contains(family), "sample {name} precedes its # TYPE");
        samples.push((name, labels, value));
    }
    samples
}

pub fn sample_value<'a>(
    samples: &'a [(String, String, f64)],
    name: &str,
    labels_contain: &[&str],
) -> Option<&'a (String, String, f64)> {
    samples
        .iter()
        .find(|(n, l, _)| n == name && labels_contain.iter().all(|want| l.contains(want)))
}
