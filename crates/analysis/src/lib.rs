//! Statistics and output helpers for the segregation experiments.
//!
//! - [`stats`] — summary statistics (mean/variance/stderr, normal CIs,
//!   quantiles);
//! - [`regression`] — ordinary least squares and log-linear exponential
//!   fits (used to extract empirical growth exponents);
//! - [`series`] — aligned-table printing for the experiment harnesses;
//! - [`ppm`] — portable-pixmap output for Figure 1's four-color frames;
//! - [`csv`] — a minimal CSV writer for experiment data.
//!
//! # Example
//!
//! ```
//! use seg_analysis::stats::Summary;
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean, 2.5);
//! assert_eq!(s.n, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod csv;
pub mod parallel;
pub mod ppm;
pub mod regression;
pub mod series;
pub mod stats;
pub mod svg;
