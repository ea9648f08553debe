//! The observability substrate shared by the engine and the serve
//! front end (fleet coordinator and workers included).
//!
//! Two small, std-only pieces:
//!
//! - [`mod@metrics`] — a process-wide [`Registry`] of [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s (p50/p99 readout),
//!   rendered on demand in the Prometheus text exposition format
//!   (`GET /metrics` in `segsim serve` is exactly
//!   [`Registry::render`] of [`metrics()`]);
//! - [`trace`] — a lock-cheap span/event [`Tracer`] writing into a
//!   bounded in-memory ring, with optional JSONL export
//!   (`segsim serve --trace-out FILE`, `segsim work --trace-out FILE`)
//!   and cross-process correlation: bind a [`TraceContext`] around a
//!   unit of work and every record carries its `trace_id` (plus a
//!   wall-clock `unix_us` column so JSONL from several processes
//!   merges into one timeline — see `docs/OBSERVABILITY.md`);
//! - [`mod@history`] — a tiered time-series store: a scraper thread
//!   snapshots the registry at a fixed cadence into per-series
//!   fixed-capacity rings (1s×300 → 10s×360 → 60s×360 at the default
//!   cadence), with optional append-only JSONL persistence that
//!   replays on restart (`segsim serve --metrics-history-out FILE`,
//!   `GET /v1/metrics/history`);
//! - [`mod@json`] — the workspace's one JSON reader ([`Json`], a
//!   bounded-depth parser) and the string escaper and number formatter
//!   every hand-written JSON writer shares;
//! - [`alerts`] — threshold and SLO rules (`segsim serve --alerts
//!   FILE`, `GET /alerts`) evaluated against history after each
//!   scrape, with `for`-duration hysteresis, firing/resolved trace
//!   events, `obs_alerts_transitions_total{rule,state}`, and
//!   per-SLO burn-rate gauges.
//!
//! Everything is updated through atomics or a single short-lived mutex,
//! so instrumenting a hot seam (the engine's per-replica completion
//! hook, the serve HTTP layer) costs a handful of atomic adds — the
//! kernel regression gate (`bench_kernel --check`) stays green with the
//! instrumentation on, which is the overhead budget this crate is held
//! to.
//!
//! # Quickstart
//!
//! ```
//! use seg_obs::{metrics, Histogram};
//!
//! let requests = metrics().counter("doc_requests_total", "requests served", &[]);
//! requests.inc();
//! let lat = metrics().histogram(
//!     "doc_request_seconds",
//!     "request latency",
//!     &[("endpoint", "/demo")],
//!     Histogram::LATENCY_BUCKETS,
//! );
//! lat.observe(0.004);
//! let text = metrics().render();
//! assert!(text.contains("doc_requests_total 1"));
//! assert!(text.contains("doc_request_seconds_bucket{endpoint=\"/demo\",le=\"0.005\"} 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod history;
pub mod json;
pub mod metrics;
pub mod trace;

pub use alerts::AlertEngine;
pub use history::{history, History};
pub use json::{json_number, json_string, parse_json_string, Json};
pub use metrics::{
    metrics, register_process_metrics, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    SeriesSnapshot, SeriesValue,
};
pub use trace::{mint_trace_id, tracer, ContextGuard, Span, TraceContext, TraceEvent, Tracer};
