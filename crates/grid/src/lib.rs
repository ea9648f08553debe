//! Torus lattice substrate for the self-organized segregation model.
//!
//! This crate provides the geometric and bookkeeping layers that the
//! segregation dynamics of Omidvar & Franceschetti, *Self-organized
//! Segregation on the Grid* (PODC 2017), are built on:
//!
//! - [`Torus`] — the `n × n` grid embedded on a torus, with wrap-around
//!   coordinate algebra and the l∞ / l1 / Euclidean metrics used throughout
//!   the paper;
//! - [`Neighborhood`] — l∞ balls ("neighborhoods of radius ρ", §II-A);
//! - [`TypeField`] — the ±1 agent-type field with Bernoulli(p) sampling;
//! - [`PrefixSums`] — wrap-aware 2-D prefix sums giving O(1) counts of `+1`
//!   agents in any rectangle or l∞ ball;
//! - [`WindowCounts`] — incremental per-agent neighborhood counts, updated in
//!   O((2w+1)²) per flip — the hot path of the dynamics; its fused kernel
//!   [`WindowCounts::apply_flip_fused`] also reclassifies every touched
//!   agent in the same pass, walking each window row as at most two
//!   contiguous runs and reading one precomputed [`Transition`] of the
//!   [`ClassTable`] per cell;
//! - [`box_filter`] and [`for_each_window_run`] — the window machinery
//!   shared by every grid dynamics: the O(n²) separable box filter that
//!   builds window counts (one plane per type for the `k`-type model), and
//!   the walk over a flip window's row runs that its flip kernels use;
//! - [`IndexedSet`] — the O(1) insert/remove/sample index set behind every
//!   incrementally-maintained agent set of the dynamics layers;
//! - [`RankedSet`] — a bitset with O(log n) rank and select, which keeps
//!   the 2-D Kawasaki dynamics' unhappy agents of each type in scan order;
//! - [`BlockGrid`] — the renormalization into `m`-blocks used by the paper's
//!   good/bad-block percolation arguments (§IV-B);
//! - [`Annulus`] — the annular firewall geometry of Lemma 9;
//! - [`rng`] — a small deterministic xoshiro256++ generator so that every
//!   stochastic component of the reproduction is seedable and reproducible
//!   without external dependencies.
//!
//! # Example
//!
//! ```
//! use seg_grid::{Torus, TypeField, WindowCounts, rng::Xoshiro256pp};
//!
//! let torus = Torus::new(64);
//! let mut rng = Xoshiro256pp::seed_from_u64(7);
//! let field = TypeField::random(torus, 0.5, &mut rng);
//! let counts = WindowCounts::new(&field, 2); // horizon w = 2, N = 25
//! let u = torus.point(10, 20);
//! assert_eq!(
//!     counts.plus_count(u) + counts.minus_count(u),
//!     counts.neighborhood_size()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annulus;
mod block;
mod field;
mod indexed_set;
mod neighborhood;
mod prefix;
mod ranked_set;
pub mod rng;
mod torus;
mod window;

pub use annulus::Annulus;
pub use block::{BlockCoord, BlockGrid};
pub use field::{AgentType, TypeField};
pub use indexed_set::IndexedSet;
pub use neighborhood::Neighborhood;
pub use prefix::PrefixSums;
pub use ranked_set::RankedSet;
pub use torus::{Point, Torus};
pub use window::{
    box_filter, for_each_window_run, window_fits, ClassTable, TrackedSet, Transition, WindowCounts,
};
