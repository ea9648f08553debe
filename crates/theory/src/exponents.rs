//! Exponent multipliers `a(τ)` and `b(τ)` of Theorems 1–2 — Figure 3.
//!
//! Theorems 1 and 2 sandwich the expected size of the largest
//! (almost-)monochromatic region containing an arbitrary agent:
//!
//! ```text
//! 2^{a(τ)·N − o(N)}  ≤  E[M]  ≤  2^{b(τ)·N + o(N)},
//! ```
//!
//! with (proofs of Theorems 1 and 2, Eqs. 12 and 21)
//!
//! ```text
//! a(τ) = [1 − (2ε' + ε'²)]·[1 − H(τ')],
//! b(τ) = (3/2)·(1 + ε')²·[1 − H(τ')],      ε' > f(τ),
//! ```
//!
//! where `τ' = (τN − 2)/(N − 1) → τ`. Both are decreasing in τ below `1/2`
//! and mirror-symmetric above — the paper's "tolerance paradox": moving τ
//! *away* from one half (more tolerance) yields *larger* expected
//! segregated regions.

use crate::constants::tau2;
use crate::entropy::binary_entropy;
use crate::trigger::f_trigger;

/// The folded intolerance: `min(τ, 1−τ)`, implementing the paper's
/// symmetry argument (§IV-C).
#[inline]
pub fn fold(tau: f64) -> f64 {
    if tau > 0.5 {
        1.0 - tau
    } else {
        tau
    }
}

/// Lower-bound exponent `a(τ)` (Eq. 12/21), evaluated in the `N → ∞`
/// limit with the infimal `ε' = f(τ)`.
///
/// # Panics
///
/// Panics if the folded `τ` is not in `(τ2, 1/2)` — outside that range the
/// theorems don't apply.
///
/// # Example
///
/// ```
/// use seg_theory::exponents::exponent_a;
/// // tolerance paradox: exponent grows as τ moves away from 1/2
/// assert!(exponent_a(0.44) > exponent_a(0.48));
/// // symmetric about 1/2
/// assert!((exponent_a(0.44) - exponent_a(0.56)).abs() < 1e-14);
/// ```
pub fn exponent_a(tau: f64) -> f64 {
    let (t, eps) = folded_with_trigger(tau, "a");
    (1.0 - (2.0 * eps + eps * eps)) * (1.0 - binary_entropy(t))
}

/// Upper-bound exponent `b(τ)` (proof of Theorem 1), `N → ∞` limit with
/// `ε' = f(τ)`.
///
/// # Panics
///
/// Panics if the folded `τ` is not in `(τ2, 1/2)`.
///
/// # Example
///
/// ```
/// use seg_theory::exponents::{exponent_a, exponent_b};
/// let tau = 0.45;
/// assert!(exponent_b(tau) > exponent_a(tau)); // a valid sandwich
/// ```
pub fn exponent_b(tau: f64) -> f64 {
    let (t, eps) = folded_with_trigger(tau, "b");
    1.5 * (1.0 + eps) * (1.0 + eps) * (1.0 - binary_entropy(t))
}

/// The folded `τ` and the infimal `ε' = f(τ)` of exponent `which`.
///
/// # Panics
///
/// Panics if the folded `τ` is not in `(τ2, 1/2)`.
fn folded_with_trigger(tau: f64, which: &str) -> (f64, f64) {
    let t = fold(tau);
    assert!(
        t > tau2() && t < 0.5,
        "{which}(tau) defined for folded tau in (tau2, 1/2); got {tau}"
    );
    (t, f_trigger(tau))
}

/// A row of the Figure 3 dataset.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExponentPoint {
    /// Intolerance τ.
    pub tau: f64,
    /// Trigger threshold `f(τ)` (the `ε'` used).
    pub eps: f64,
    /// Lower exponent `a(τ)`.
    pub a: f64,
    /// Upper exponent `b(τ)`.
    pub b: f64,
}

/// Samples the Figure 3 curves on `steps` points of `(τ2, 1/2)`,
/// excluding the endpoints.
///
/// # Panics
///
/// Panics if `steps < 2`.
pub fn figure3_series(steps: usize) -> Vec<ExponentPoint> {
    assert!(steps >= 2, "need at least two sample points");
    let lo = tau2();
    let hi = 0.5;
    (1..=steps)
        .map(|i| {
            let tau = lo + (hi - lo) * i as f64 / (steps as f64 + 1.0);
            let eps = f_trigger(tau);
            ExponentPoint {
                tau,
                eps,
                a: exponent_a(tau),
                b: exponent_b(tau),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::tau1;

    #[test]
    fn sandwich_valid_everywhere() {
        for p in figure3_series(50) {
            assert!(p.a > 0.0, "a({}) = {}", p.tau, p.a);
            assert!(p.b > p.a, "b({}) = {} !> a = {}", p.tau, p.b, p.a);
        }
    }

    #[test]
    fn a_decreasing_below_half() {
        let pts = figure3_series(50);
        for w in pts.windows(2) {
            assert!(
                w[1].a < w[0].a,
                "a not decreasing between {} and {}",
                w[0].tau,
                w[1].tau
            );
        }
    }

    #[test]
    fn b_decreasing_below_half() {
        let pts = figure3_series(50);
        for w in pts.windows(2) {
            assert!(w[1].b < w[0].b);
        }
    }

    #[test]
    fn symmetry_about_half() {
        for tau in [0.36, 0.40, 0.45, 0.49] {
            assert!((exponent_a(tau) - exponent_a(1.0 - tau)).abs() < 1e-14);
            assert!((exponent_b(tau) - exponent_b(1.0 - tau)).abs() < 1e-14);
        }
    }

    #[test]
    fn magnitude_near_half_is_small() {
        // as τ → 1/2, 1 − H(τ) → 0 hence both exponents vanish
        assert!(exponent_a(0.4999) < 1e-4);
        assert!(exponent_b(0.4999) < 1e-4);
    }

    #[test]
    fn values_at_tau1_finite_and_ordered() {
        let t1 = tau1();
        let a = exponent_a(t1 + 1e-6);
        let b = exponent_b(t1 + 1e-6);
        assert!(a > 0.0 && b > a);
    }

    #[test]
    #[should_panic(expected = "defined for folded tau")]
    fn a_rejects_out_of_range() {
        let _ = exponent_a(0.2);
    }
}
