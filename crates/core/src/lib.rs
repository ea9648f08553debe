//! The Schelling/Glauber segregation model of Omidvar & Franceschetti,
//! *Self-organized Segregation on the Grid* (PODC 2017).
//!
//! Two types of agents sit on an `n × n` torus; each has an extended Moore
//! neighborhood of radius `w` (size `N = (2w+1)²`) and a common intolerance
//! `τ`. Agents carry i.i.d. rate-1 Poisson clocks; when an unhappy agent's
//! clock rings it flips its type iff the flip makes it happy (Glauber
//! dynamics in an open system). This crate implements the exact process,
//! the paper's analytical objects, and the baselines it is compared
//! against:
//!
//! - [`config`] / [`intolerance`] — model parameters; integer happiness
//!   thresholds (`τ = ⌈τ̃N⌉/N`), flip feasibility, super-unhappiness;
//! - [`sim`] — [`sim::Simulation`]: event-driven dynamics with exponential
//!   waiting times, O(N) per flip, exact termination detection;
//! - [`lyapunov`] — the monotone potential that certifies termination;
//! - [`regions`] — monochromatic and almost-monochromatic regions `M(u)`,
//!   `M'(u)` of §II-A;
//! - [`radical`] — radical regions and the scan that finds them
//!   (Lemmas 20–22);
//! - [`firewall`] — annular firewalls (Lemma 9);
//! - [`chemical`] — the chemical firewall of §IV-B built end-to-end
//!   (good/bad blocks, enclosing rings);
//! - [`race`] — Lemma 10's firewall-formation race, measured;
//! - [`metrics`] — unhappy counts, interface length, same-type clusters;
//! - [`trace`] — time-series sampling of a running simulation;
//! - [`variants`] — flip-when-unhappy, ε-noise, and 2-D Kawasaki swap
//!   baselines;
//! - [`interval`] — the §V two-sided comfort variant;
//! - [`multi`] — the k-type (Potts-like) extension of §I-A;
//! - [`ring`] — the 1-D ring models of Brandt et al. and Barmpalias et
//!   al. that the paper's introduction builds on.
//!
//! # Quickstart
//!
//! ```
//! use seg_core::config::ModelConfig;
//!
//! let mut sim = ModelConfig::new(128, 4, 0.45).seed(7).build();
//! let report = sim.run_to_stable(1_000_000);
//! assert!(report.terminated);
//! assert_eq!(sim.unhappy_count(), sim.flippable_count()); // τ < 1/2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chemical;
pub mod config;
mod dynamics;
pub mod exact;
pub mod firewall;
pub mod interval;
pub mod intolerance;
pub mod ising;
pub mod lyapunov;
pub mod metrics;
pub mod multi;
pub mod race;
pub mod radical;
pub mod regions;
pub mod ring;
pub mod sim;
pub mod trace;
pub mod variants;

pub use config::ModelConfig;
pub use intolerance::Intolerance;
pub use sim::{RunReport, Simulation};
