//! # Self-organized Segregation on the Grid — reproduction
//!
//! A full Rust reproduction of Omidvar & Franceschetti, *Self-organized
//! Segregation on the Grid* (PODC 2017 / J. Stat. Phys. 170(4), 2018):
//! the Schelling/Glauber segregation model on the torus, its exact
//! event-driven dynamics, the paper's analytical machinery (radical
//! regions, firewalls, good/bad-block renormalization), the percolation
//! substrates its proofs rely on, and an experiment harness regenerating
//! every figure.
//!
//! This facade crate re-exports the workspace's public API so examples
//! and downstream users can depend on a single crate:
//!
//! - [`seg_core`] — the model and its analysis (start at
//!   [`seg_core::ModelConfig`]);
//! - [`seg_grid`] — torus geometry, spin fields, windows, blocks;
//! - [`seg_theory`] — the paper's closed-form constants and exponents;
//! - [`seg_percolation`] — site percolation, chemical distance, FPP;
//! - [`seg_analysis`] — statistics, fits and image/CSV output;
//! - [`seg_engine`] — parallel sweep & replica orchestration (start at
//!   [`seg_engine::SweepSpec`]);
//! - [`seg_shard`] — the fleet's dynamic split: re-partition a sweep's
//!   missing tasks among live workers ([`seg_shard::repartition`]); the
//!   static split is [`seg_engine::ShardIndex`] (`--shard I/M`), and the
//!   shard journals workers upload are read by
//!   [`seg_engine::read_journal`];
//! - [`seg_serve`] — simulation as a service: `segsim serve` accepts
//!   sweep requests over HTTP, schedules them on the engine with a
//!   fingerprint-keyed result cache, and streams rows back (start at
//!   [`seg_serve::ServeConfig`]);
//! - [`seg_obs`] — std-only observability: the process-wide metrics
//!   registry behind `GET /metrics` and the span/event tracer behind
//!   `--trace-out` (start at [`seg_obs::metrics()`]).
//!
//! # Quickstart
//!
//! ```
//! use self_organized_segregation::prelude::*;
//!
//! // Figure 1 parameters (scaled down): τ = 0.42, horizon w = 10 ⇒ N = 441
//! let mut sim = ModelConfig::new(128, 4, 0.42).seed(7).build();
//! sim.run_to_stable(1_000_000);
//! assert!(sim.is_stable());
//! let stats = config_stats(&sim);
//! assert!(stats.happy_fraction == 1.0); // τ < 1/2: everyone ends happy
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use seg_analysis;
pub use seg_core;
pub use seg_engine;
pub use seg_grid;
pub use seg_obs;
pub use seg_percolation;
pub use seg_serve;
pub use seg_shard;
pub use seg_theory;

/// The most common imports, bundled.
pub mod prelude {
    pub use seg_analysis::ppm::{figure1_frame, type_frame};
    pub use seg_analysis::regression::{exponential_fit, linear_fit};
    pub use seg_analysis::stats::Summary;
    pub use seg_core::metrics::{config_stats, interface_length, largest_same_type_cluster};
    pub use seg_core::regions::{
        almost_monochromatic_region, expected_monochromatic_size, monochromatic_region,
    };
    pub use seg_core::{Intolerance, ModelConfig, RunReport, Simulation};
    pub use seg_engine::{
        Checkpoint, CheckpointError, Engine, Observer, SeedMode, ShardIndex, Sink, StreamingSink,
        SweepPoint, SweepSpec, Variant,
    };
    pub use seg_grid::rng::Xoshiro256pp;
    pub use seg_grid::{AgentType, Neighborhood, Point, PrefixSums, Torus, TypeField};
    pub use seg_serve::{serve, ServeConfig, SweepRequest};
    pub use seg_theory::constants::{classify, tau1, tau2, Regime};
    pub use seg_theory::exponents::{exponent_a, exponent_b};
    pub use seg_theory::trigger::f_trigger;
}
