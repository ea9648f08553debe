//! Percolation substrate for the segregation reproduction.
//!
//! The proofs in *Self-organized Segregation on the Grid* lean on three
//! classical percolation results; this crate implements the underlying
//! processes so the reproduction can measure them directly:
//!
//! - [`site`] / [`cluster`] — Bernoulli site percolation on the square
//!   lattice: open clusters, spanning, the subcritical exponential decay of
//!   the cluster radius (Grimmett, Theorem 5.4 → the paper's Theorem 5 and
//!   Lemma 14);
//! - [`chemical`] — chemical distance `D(0, x)` on the open cluster and its
//!   proportionality to `‖x‖₁` in the supercritical regime (Garet–Marchand
//!   → the paper's Theorem 4 and Lemma 13);
//! - [`fpp`] — first-passage percolation with i.i.d. site passage times and
//!   the `√k`-scale concentration of `T_k` (Kesten → the paper's Theorem 3
//!   and Lemma 7);
//! - [`union_find`] — the disjoint-set forest used by the cluster labelers
//!   (and re-used by `seg-core`'s segregation metrics).
//!
//! # Example
//!
//! ```
//! use seg_percolation::site::SiteLattice;
//! use seg_grid::rng::Xoshiro256pp;
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(1);
//! let lat = SiteLattice::random(64, 64, 0.7, &mut rng);
//! let clusters = lat.clusters();
//! assert!(clusters.largest_size() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bond;
pub mod chemical;
pub mod cluster;
pub mod finite_size;
pub mod fpp;
pub mod site;
pub mod theta;
pub mod union_find;
