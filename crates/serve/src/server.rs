//! The server shell: socket, bounded connection pool, job workers,
//! graceful shutdown.
//!
//! Two thread pools with distinct purposes:
//!
//! - **connection handlers** (`conn_threads` of them) read requests and
//!   write responses; the accept loop feeds them through a *bounded*
//!   channel, so a flood of connections backpressures into the OS
//!   accept queue instead of spawning without limit;
//! - **job workers** (`workers` of them) pop the job queue and run
//!   sweeps on the engine, each with its own engine thread budget.
//!
//! The connection half is `serve_connections`, which takes its request
//! handler as an argument: `segsim work --metrics-addr` serves its
//! observability endpoints through the same loop, with the same
//! handler bound, request deadline and 400/413/500 replies.
//!
//! Shutdown (`POST /v1/shutdown`) drains in order: the accept loop
//! stops, connection handlers finish their current exchange, running
//! sweeps stop claiming replicas (the ones in flight are journaled by
//! the engine as always), and [`Server::run`] returns. Nothing is lost:
//! queued and half-done jobs resume from their journals on the next
//! start.

use crate::admission::AdmissionControl;
use crate::api::{self, ApiContext};
use crate::fleet::FleetRegistry;
use crate::http::{read_request, write_json, DeadlineStream, HttpError, Request};
use crate::jobs::JobManager;
use seg_analysis::parallel::default_threads;
use seg_obs::json_string;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything `segsim serve` is configured by.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// `HOST:PORT` to bind; port `0` picks a free port (the bound
    /// address is printed on stdout and available from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Job workers: how many sweeps run concurrently.
    pub workers: u32,
    /// Engine threads per job; `0` divides
    /// [`default_threads`] by the worker count.
    pub engine_threads: usize,
    /// Where jobs, journals and results live (created if missing).
    pub data_dir: PathBuf,
    /// Connection-handler threads (the concurrent-client budget).
    pub conn_threads: usize,
    /// Request-body cap in bytes; larger submissions get 413.
    pub max_body: usize,
    /// Attach the process-wide [`seg_obs`] tracer to this JSONL file
    /// (`--trace-out`); `None` keeps tracing in-memory only.
    pub trace_out: Option<PathBuf>,
    /// Fleet mode (`--fleet`): accept `segsim work` workers and
    /// dispatch each job's tasks to them (see `docs/FLEET.md`).
    pub fleet: bool,
    /// How long a worker may go without a heartbeat before its share is
    /// re-dispatched (`--fleet-timeout SECS`); also how long a job waits
    /// for a first worker before running locally.
    pub fleet_timeout: Duration,
    /// Whole-request read deadline (`--request-timeout SECS`): head +
    /// body must arrive within this, so a slow-loris client cannot pin
    /// a connection handler by dribbling bytes.
    pub request_timeout: Duration,
    /// API-key file for per-client admission quotas (`--api-keys FILE`,
    /// format in `docs/SERVING.md`); `None` leaves one open anonymous
    /// tier.
    pub api_keys: Option<PathBuf>,
    /// Queue-depth backpressure threshold (`--max-queue N`): fresh
    /// submissions beyond this get 429 + `Retry-After`.
    pub max_queue: usize,
    /// Evict finished jobs idle past this (`--job-ttl SECS`).
    pub job_ttl: Option<Duration>,
    /// LRU byte bound on the data dir (`--data-max-bytes N`).
    pub data_max_bytes: Option<u64>,
    /// Persist metrics history as append-only JSONL
    /// (`--metrics-history-out FILE`); replayed on restart so
    /// `/v1/metrics/history` and the dashboard charts survive a bounce.
    pub metrics_history_out: Option<PathBuf>,
    /// Alert-rule file (`--alerts FILE`, grammar in
    /// `docs/OBSERVABILITY.md`); rules are evaluated after each history
    /// scrape and exposed on `GET /alerts`.
    pub alerts: Option<PathBuf>,
    /// History scrape cadence (`--history-scrape-ms MS`). The tier
    /// labels (`1s`/`10s`/`60s`) describe the default 1 s cadence.
    pub history_scrape: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            workers: 2,
            engine_threads: 0,
            data_dir: PathBuf::from("segsim-serve"),
            conn_threads: 16,
            max_body: 1024 * 1024,
            trace_out: None,
            fleet: false,
            fleet_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(30),
            api_keys: None,
            max_queue: crate::admission::DEFAULT_MAX_QUEUE,
            job_ttl: None,
            data_max_bytes: None,
            metrics_history_out: None,
            alerts: None,
            history_scrape: Duration::from_secs(1),
        }
    }
}

/// A bound-but-not-yet-serving instance: lets callers learn the
/// ephemeral port before entering the accept loop (what
/// `examples/serve_quickstart.rs` does).
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServeConfig,
    /// `config.engine_threads` with `0` resolved to the auto value.
    engine_threads: usize,
    manager: Arc<JobManager>,
    fleet: Option<Arc<FleetRegistry>>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the socket, prepares the data directory, and recovers the
    /// jobs a previous process left behind (finished ones become cache
    /// entries, unfinished ones re-enqueue and will resume from their
    /// checkpoint journals).
    ///
    /// # Errors
    ///
    /// Any I/O error from binding or from the data directory.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if let Some(path) = &config.trace_out {
            seg_obs::tracer().set_output(path)?;
            eprintln!("serve: tracing to {}", path.display());
        }
        seg_obs::register_process_metrics(env!("CARGO_PKG_VERSION"));
        if let Some(path) = &config.metrics_history_out {
            let replayed = seg_obs::history().set_output(path)?;
            eprintln!(
                "serve: metrics history to {} ({replayed} sample(s) replayed)",
                path.display()
            );
        }
        if let Some(path) = &config.alerts {
            let engine = seg_obs::AlertEngine::from_file(path)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            eprintln!(
                "serve: {} alert rule(s) from {}",
                engine.len(),
                path.display()
            );
            seg_obs::history().set_alerts(engine);
        }
        seg_obs::history().start(config.history_scrape);
        let workers = config.workers.max(1);
        let engine_threads = if config.engine_threads == 0 {
            (default_threads() / workers as usize).max(1)
        } else {
            config.engine_threads
        };
        let fleet = config
            .fleet
            .then(|| Arc::new(FleetRegistry::new(config.fleet_timeout)));
        let admission = AdmissionControl::new(config.max_queue, config.api_keys.as_deref())?;
        if config.api_keys.is_some() {
            eprintln!(
                "serve: admission quotas from {}",
                config.api_keys.as_deref().expect("is_some").display()
            );
        }
        let mut manager = JobManager::new(config.data_dir.clone(), engine_threads)?
            .with_admission(Arc::new(admission))
            .with_lifecycle(config.job_ttl, config.data_max_bytes);
        if let Some(f) = &fleet {
            eprintln!(
                "serve: fleet mode on (worker timeout {:.0?})",
                config.fleet_timeout
            );
            manager = manager.with_fleet(f.clone());
        }
        let manager = Arc::new(manager);
        let (finished, requeued) = manager.recover()?;
        if finished + requeued > 0 {
            eprintln!(
                "serve: recovered {finished} finished and {requeued} unfinished job(s) from {}",
                config.data_dir.display()
            );
        }
        // trim whatever a previous (unbounded) process left behind and
        // seed the serve_data_bytes gauge
        manager.enforce_lifecycle();
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            config,
            engine_threads,
            manager,
            fleet,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a shutdown request drains the instance.
    ///
    /// The first stdout line is always
    /// `serve: listening on http://HOST:PORT` — scripts (and the
    /// integration tests) parse it to find an ephemerally bound port.
    ///
    /// # Errors
    ///
    /// Any I/O error from the accept loop.
    pub fn run(self) -> io::Result<()> {
        let Server {
            listener,
            local_addr,
            config,
            engine_threads,
            manager,
            fleet,
            shutdown,
        } = self;
        println!("serve: listening on http://{local_addr}");
        io::stdout().flush()?;
        eprintln!(
            "serve: {} job worker(s) x {} engine thread(s), {} connection handler(s), data in {}",
            config.workers.max(1),
            engine_threads,
            config.conn_threads.max(1),
            config.data_dir.display()
        );
        let ctx = ApiContext {
            manager: manager.clone(),
            fleet,
            shutdown: shutdown.clone(),
            local_addr,
            started: Instant::now(),
        };

        let mut job_workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let manager = manager.clone();
            job_workers.push(
                std::thread::Builder::new()
                    .name(format!("job-worker-{i}"))
                    .spawn(move || manager.worker_loop())
                    .expect("spawn job worker"),
            );
        }

        // the lifecycle sweeper: TTL and byte-bound eviction also run
        // between completions, so an idle server still honors its bounds
        let sweeper = {
            let manager = manager.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("lifecycle-sweeper".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(500));
                        manager.enforce_lifecycle();
                    }
                })
                .expect("spawn lifecycle sweeper")
        };

        serve_connections(
            &listener,
            config.conn_threads,
            config.max_body,
            config.request_timeout,
            &shutdown,
            &|req, out| api::handle(req, out, &ctx),
        );
        manager.drain(); // idempotent; covers shutdown paths that raced
        for w in job_workers {
            let _ = w.join();
        }
        let _ = sweeper.join();
        eprintln!("serve: drained, journals flushed");
        Ok(())
    }
}

/// A request handler of [`serve_connections`]: answers one request and
/// returns whether the connection may stay open.
pub(crate) type Handler<'a> = dyn Fn(&Request, &mut TcpStream) -> io::Result<bool> + Sync + 'a;

/// Serves `listener` until `shutdown` is set, answering each request
/// with `handler`.
///
/// Connections flow through a bounded queue to `handlers` threads: when
/// every handler is busy and the queue is full, the accept loop itself
/// blocks, and further clients wait in the OS backlog — idle
/// connections never add threads. Each request (head and body) must
/// arrive within `request_timeout`; bodies over `max_body` get 413,
/// malformed requests 400, a panicking handler 500. Once `shutdown` is
/// set (and the accept loop is woken by one more connection), queued
/// connections drain and every handler thread is joined.
pub(crate) fn serve_connections(
    listener: &TcpListener,
    handlers: usize,
    max_body: usize,
    request_timeout: Duration,
    shutdown: &AtomicBool,
    handler: &Handler,
) {
    let (tx, rx) = sync_channel::<TcpStream>(64);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for i in 0..handlers.max(1) {
            std::thread::Builder::new()
                .name(format!("conn-{i}"))
                .spawn_scoped(scope, || {
                    connection_worker(&rx, max_body, request_timeout, shutdown, handler)
                })
                .expect("spawn connection handler");
        }
        for stream in listener.incoming() {
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            match stream {
                Ok(s) => {
                    if tx.send(s).is_err() {
                        break; // every handler is gone; nothing to do
                    }
                }
                Err(e) => eprintln!("serve: accept failed: {e}"),
            }
        }
        eprintln!(
            "serve: draining ({} connection handler(s) finishing)",
            handlers.max(1)
        );
        drop(tx); // handlers drain the queue, then see the hangup
    });
}

fn connection_worker(
    rx: &Mutex<Receiver<TcpStream>>,
    max_body: usize,
    request_timeout: Duration,
    shutdown: &AtomicBool,
    handler: &Handler,
) {
    let active = seg_obs::metrics().gauge(
        "serve_active_connections",
        "connections currently held by a handler",
        &[],
    );
    loop {
        let stream = match rx.lock().expect("connection queue poisoned").recv() {
            Ok(s) => s,
            Err(_) => return, // accept loop hung up and the queue is empty
        };
        active.inc();
        let outcome = handle_connection(stream, max_body, request_timeout, shutdown, handler);
        active.dec();
        if let Err(e) = outcome {
            eprintln!("serve: connection error: {e}");
        }
    }
}

/// Runs the keep-alive request loop of one connection.
fn handle_connection(
    stream: TcpStream,
    max_body: usize,
    request_timeout: Duration,
    shutdown: &AtomicBool,
    handler: &Handler,
) -> io::Result<()> {
    // writes stay on a generous per-write timeout (row streams follow
    // live jobs and may run for minutes); reads get a whole-request
    // deadline below so a slow-loris client cannot pin this handler
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    // every response and row chunk is one write: send it at once rather
    // than let Nagle hold it for the ACK of the previous one
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(DeadlineStream::new(stream.try_clone()?));
    let mut writer = stream;
    loop {
        reader.get_mut().arm(request_timeout);
        match read_request(&mut reader, max_body) {
            Ok(None) => return Ok(()), // clean close between requests
            Ok(Some(req)) => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handler(&req, &mut writer)
                }));
                match outcome {
                    // a draining server closes even willing keep-alive
                    // connections between requests, or a steady poller
                    // could stall the drain indefinitely — but the peer
                    // may have sent another request before it could see
                    // the drain, so serve at most one more on a short
                    // deadline instead of resetting it mid-flight
                    Ok(Ok(true)) => {
                        if shutdown.load(Ordering::Relaxed) {
                            reader.get_mut().arm(Duration::from_millis(200));
                            if let Ok(Some(req)) = read_request(&mut reader, max_body) {
                                let _ =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        handler(&req, &mut writer)
                                    }));
                            }
                            return Ok(());
                        }
                        continue;
                    }
                    Ok(Ok(false)) => return Ok(()),
                    Ok(Err(e)) => return Err(e),
                    Err(_) => {
                        // a handler bug must not take the server down
                        let _ =
                            write_json(&mut writer, 500, "{\"error\":\"internal error\"}", false);
                        return Ok(());
                    }
                }
            }
            Err(HttpError::Malformed(m)) => {
                let _ = write_json(
                    &mut writer,
                    400,
                    &format!("{{\"error\":{}}}", json_string(&m)),
                    false,
                );
                return Ok(());
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                let _ = write_json(
                    &mut writer,
                    413,
                    &format!(
                        "{{\"error\":\"body of {declared} bytes exceeds the {limit}-byte limit\"}}"
                    ),
                    false,
                );
                // drain (bounded) what the client already sent before
                // closing: unread bytes at close make the kernel RST the
                // connection, which can discard the 413 still sitting in
                // the client's receive buffer
                let mut remaining = declared.min(16 * 1024 * 1024);
                let mut sink = [0u8; 16 * 1024];
                while remaining > 0 {
                    let want = sink.len().min(remaining as usize);
                    match std::io::Read::read(&mut reader, &mut sink[..want]) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => remaining -= n as u64,
                    }
                }
                return Ok(());
            }
            Err(HttpError::Io(_)) => return Ok(()), // peer went away
        }
    }
}

/// Binds and serves in one call — the `segsim serve` entry point.
///
/// # Errors
///
/// As [`Server::bind`] and [`Server::run`].
pub fn serve(config: ServeConfig) -> io::Result<()> {
    Server::bind(config)?.run()
}
