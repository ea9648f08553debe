//! Parallel sweep & replica orchestration for the segregation
//! reproduction.
//!
//! Every experiment in this workspace has the same shape: run the model
//! (or one of its variants) over a grid of parameters, several replicas
//! per point, measure each replica, aggregate, and write the results
//! somewhere. This crate owns that shape end-to-end so the experiment
//! binaries declare *what* to run instead of hand-rolling loops:
//!
//! - [`SweepSpec`] — a declarative description of the parameter grid
//!   (sides × horizons × τ × densities × variants, or explicit linked
//!   points), replicas, master seed, and event budget;
//! - [`Engine`] — a work-claiming thread pool (std threads only) that
//!   runs replicas concurrently with per-replica RNG streams derived by
//!   splitting the master seed, so results are **bit-identical at any
//!   thread count**;
//! - [`Observer`] — pluggable per-replica measurements: terminal
//!   statistics ([`seg_core::metrics`]), snapshots
//!   ([`seg_analysis::ppm`]), or custom closures with a replica-seeded
//!   RNG;
//! - [`Sink`] — structured CSV / JSON-Lines output plus aggregated
//!   summaries through [`seg_analysis::stats`] and
//!   [`seg_analysis::bootstrap`];
//! - [`Checkpoint`] — a JSON-Lines journal of completed replicas, so a
//!   multi-hour sweep killed mid-run resumes where it left off
//!   (`--checkpoint FILE`) with bit-identical output;
//! - [`ShardIndex`] — one sweep partitioned across OS processes/hosts
//!   (`--shard I/M`), each journaling its share next to the checkpoint
//!   path; rerunning without `--shard` merges the journals and
//!   reproduces the single-process output byte for byte;
//! - [`StreamingSink`] — rows appended in task order as replicas
//!   finish, so long sweeps are `tail -f`-able and resumable mid-file;
//! - progress and throughput reporting (replicas/s, events/s) — printed
//!   to stderr ([`Engine::progress`]) or delivered live to an
//!   [`Engine::on_progress`] callback — plus cooperative cancellation
//!   ([`Engine::cancel_flag`]), which together form the programmatic
//!   job-submission API `segsim serve` schedules on: build a
//!   [`SweepSpec`], call [`Engine::run_full`] with a checkpoint and a
//!   streaming sink, read progress from the callback, drain with the
//!   flag.
//!
//! # Quickstart
//!
//! ```
//! use seg_engine::{Engine, Observer, SweepSpec};
//!
//! // τ-sweep on a 48² torus, 3 replicas per τ, deterministic seeds
//! let spec = SweepSpec::builder()
//!     .side(48)
//!     .horizon(2)
//!     .taus([0.40, 0.45])
//!     .replicas(3)
//!     .master_seed(0x5E67_2017)
//!     .build();
//! let result = Engine::new().run(&spec, &[Observer::TerminalStats]);
//! for s in result.summarize("largest_cluster") {
//!     println!("tau = {}: largest cluster {:.1}", s.point.tau, s.summary.mean);
//! }
//! # assert_eq!(result.records().len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod checkpoint;
mod cli;
mod observe;
mod replica;
mod run;
mod sink;
mod spec;

pub use checkpoint::{
    find_shard_journals, header_line, read_journal, record_line, shard_journal_path,
    spec_fingerprint, Checkpoint, CheckpointError, Journal, JournalError,
};
pub use cli::{EngineArgs, ENGINE_USAGE};
pub use observe::Observer;
pub use replica::{FinalState, ReplicaRecord};
pub use run::{Engine, PointSummary, SweepProgress, SweepResult, ThroughputReport};
pub use sink::{expected_metric_columns, write_summary_csv, Sink, StreamingSink};
pub use spec::{
    derive_replica_seed, ReplicaTask, SeedMode, ShardIndex, SweepPoint, SweepSpec,
    SweepSpecBuilder, Variant,
};
