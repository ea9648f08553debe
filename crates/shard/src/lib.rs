//! The dynamic half of splitting one sweep across processes, used by
//! the `segsim serve --fleet` coordinator.
//!
//! The static half needs no crate of its own: `seg_engine`'s
//! [`ShardIndex`](seg_engine::ShardIndex) is arithmetic on the task
//! index, any engine-backed binary run with `--shard I/M --checkpoint
//! dir/ck.jsonl` journals its share next to the base path, and the
//! merge is the same command rerun without `--shard` (the resume absorbs
//! every shard journal and runs only the leftovers). A fleet instead
//! re-splits whatever is still missing among the live workers:
//!
//! - [`repartition`] — split a run's *missing* task set among whatever
//!   workers are live, round-robin, so a dead worker's share is simply
//!   part of the next missing set;
//! - [`ingest_journal`] — absorb a shard journal a worker streams back
//!   over any transport, validated against the spec.
//!
//! # Quickstart
//!
//! ```
//! use seg_engine::{Engine, SweepSpec};
//! use seg_shard::repartition;
//!
//! let spec = SweepSpec::builder()
//!     .side(32).horizon(1).taus([0.40, 0.45])
//!     .replicas(2).master_seed(7).build();
//! // a worker ran tasks 0 and 2, then died; the rest is split anew
//! let done = Engine::new().task_subset([0, 2]).run(&spec, &[]);
//! let missing = done.missing_task_indices();
//! assert_eq!(missing, vec![1, 3]);
//! assert_eq!(repartition(&missing, 2), vec![vec![1], vec![3]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod steal;

pub use steal::{ingest_journal, repartition, IngestedJournal};
