//! Simulation as a service: the network front end of the segregation
//! harness.
//!
//! Every earlier layer of this workspace is a batch binary — to get the
//! paper's quantities you run `segsim sweep` and wait. This crate turns
//! the same machinery into a long-lived service: `segsim serve` accepts
//! sweep requests over HTTP, schedules them on the
//! [`seg_engine`] worker pool, and streams result rows back while they
//! compute. It is std-only like everything else here — the HTTP/1.1
//! layer is hand-rolled on [`std::net::TcpListener`], and JSON is read
//! with [`seg_obs::Json`], the workspace's one JSON parser.
//!
//! The service leans on the engine's determinism guarantees instead of
//! inventing its own semantics:
//!
//! - **jobs are content-addressed** — the job id is the hex
//!   [`spec_fingerprint`](seg_engine::spec_fingerprint) of the request's
//!   [`SweepSpec`](seg_engine::SweepSpec), so resubmitting an identical
//!   spec *is* the cache lookup, and nothing ever recomputes a finished
//!   sweep;
//! - **results are the engine's streaming-sink bytes** — a job's row
//!   stream is byte-identical to `segsim sweep --stream --out` under the
//!   same parameters (asserted in `tests/serve_integration.rs`);
//! - **crash recovery is checkpoint resume** — a killed server finds its
//!   unfinished jobs on disk at the next start and resumes them from
//!   their journals, re-running only what was in flight;
//! - **graceful shutdown is a drain** — running sweeps stop claiming
//!   replicas ([`Engine::cancel_flag`](seg_engine::Engine::cancel_flag)),
//!   in-flight replicas are journaled, and the process exits with
//!   nothing lost;
//! - **a fleet is just remote shards** — under `--fleet` the server
//!   becomes a coordinator: each job's missing tasks are re-partitioned
//!   ([`seg_shard::repartition`]) among live `segsim work` processes,
//!   the shard journals they upload are merged into the job's
//!   checkpoint, and the final local resume+stream pass keeps the rows
//!   byte-identical even when workers are killed mid-job
//!   (`tests/fleet_integration.rs` proves it; protocol in
//!   `docs/FLEET.md`).
//!
//! Endpoints, the request schema, curl examples and the capacity knobs
//! are documented in `docs/SERVING.md`. Start programmatically with
//! [`Server::bind`] (ephemeral ports) or [`serve`] (blocking), or from
//! the command line:
//!
//! ```text
//! segsim serve --addr 127.0.0.1:8080 --workers 2 --data runs/serve
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod api;
pub mod dashboard;
pub mod fleet;
pub mod http;
pub mod jobs;
pub mod lifecycle;
pub mod server;
pub mod worker;

pub use admission::{AdmissionControl, Rejection};
pub use api::ApiContext;
pub use fleet::{Assignment, EpochHealth, FleetRegistry};
pub use http::{ChunkedBody, DeadlineStream, HttpError, Request};
pub use jobs::{Job, JobManager, JobState, SchedulingSnapshot, SubmitOutcome, SweepRequest};
pub use lifecycle::DeleteOutcome;
pub use seg_obs::Json;
pub use server::{serve, ServeConfig, Server};
pub use worker::{run_worker, WorkerConfig};
