//! Simulation as a service, end to end in one process: boot a server on
//! an ephemeral port, submit a sweep over HTTP, stream the result rows,
//! hit the fingerprint cache, drain.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```
//!
//! This is the programmatic counterpart of `segsim serve` + `curl`; the
//! endpoints and schema are documented in `docs/SERVING.md`.

use self_organized_segregation::seg_obs::Json;
use self_organized_segregation::seg_serve::http::{read_response, MAX_RESPONSE_BODY};
use self_organized_segregation::seg_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// One `Connection: close` HTTP exchange, returning the response body
/// (de-chunked) as read by the service's own HTTP reader.
fn http(addr: &str, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let response =
        read_response(&mut BufReader::new(stream), MAX_RESPONSE_BODY).expect("read response");
    String::from_utf8(response.body).expect("UTF-8 body")
}

fn main() {
    // bind first so we learn the ephemeral port, then serve on a thread
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        data_dir: std::env::temp_dir().join("serve_quickstart"),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // submit the JSON equivalent of:
    //   segsim sweep --side 32 --horizon 1 --tau 0.4,0.45 --replicas 2 --seed 7
    let submit = http(
        &addr,
        "POST",
        "/v1/sweeps",
        r#"{"side": 32, "horizon": 1, "tau": [0.4, 0.45], "replicas": 2, "seed": 7}"#,
    );
    println!("submitted: {submit}");
    let doc = Json::parse(&submit).expect("JSON status document");
    let id = doc.get("id").and_then(Json::as_str).expect("job id");

    // the rows endpoint follows the live job and ends when it completes;
    // rows are byte-identical to `segsim sweep --out rows.jsonl`
    let rows = http(&addr, "GET", &format!("/v1/jobs/{id}/rows"), "");
    let ndjson: Vec<&str> = rows.lines().collect();
    println!("streamed {} result rows; first:", ndjson.len());
    println!("  {}", ndjson.first().expect("at least one row"));

    // an identical resubmission is served from the fingerprint cache
    let again = http(
        &addr,
        "POST",
        "/v1/sweeps",
        r#"{"side": 32, "horizon": 1, "tau": [0.4, 0.45], "replicas": 2, "seed": 7}"#,
    );
    let cached = Json::parse(&again).expect("JSON status document");
    assert_eq!(
        cached.get("cached"),
        Some(&Json::Bool(true)),
        "expected a cache hit"
    );
    println!("resubmission was a cache hit (no recomputation)");

    // graceful shutdown: drain the workers, flush journals, exit
    http(&addr, "POST", "/v1/shutdown", "");
    handle.join().expect("server thread");
    println!("server drained cleanly");
}
