//! Closed-form constants and exponents from *Self-organized Segregation on the
//! Grid* (Omidvar & Franceschetti, PODC 2017).
//!
//! Everything stated in the paper as a formula lives here so that the
//! experiment harnesses can print the theoretical curves next to measured
//! data:
//!
//! - [`entropy`] — the binary entropy function `H` of Eq. (2);
//! - [`constants`] — the phase boundaries `τ1 ≈ 0.4330` (Eq. 1) and
//!   `τ2 = 11/32 = 0.34375` (Eq. 3), and the interval widths of Figure 2;
//! - [`trigger`] — the triggering threshold `f(τ)` of Eq. (10) / Figure 6;
//! - [`exponents`] — the exponent multipliers `a(τ)` and `b(τ)` of
//!   Theorems 1–2 / Figure 3;
//! - [`binomial`] — log-space binomial tails; the exact unhappiness
//!   probability `p_u` and its `2^{−[1−H(τ')]N}/√N` sandwich (Lemma 19),
//!   and the radical-region probability of Lemma 20.
//!
//! # Example
//!
//! ```
//! use seg_theory::constants::{tau1, tau2};
//! let t1 = tau1();
//! assert!((t1 - 0.433).abs() < 1e-3);
//! assert_eq!(tau2(), 11.0 / 32.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod constants;
pub mod entropy;
pub mod exponents;
pub mod trigger;
