//! The triggering threshold `f(τ)` of Eq. (10) — Figure 6.
//!
//! Lemma 5: a radical region of radius `(1 + ε')w` is expandable w.h.p.
//! provided `ε' > f(τ)`. As τ decreases toward `τ2` agents become more
//! tolerant and a larger unhappy nucleus is required, so `f` grows; at
//! `τ → 1/2⁻` an arbitrarily small nucleus suffices and `f → 0`.

use crate::constants::tau2;

/// `f(τ)` of Eq. (10):
///
/// ```text
///         3(τ−1/2) + √( 9(τ−1/2)² − 7(τ−1/2)(3τ+1/2) )
/// f(τ) = ------------------------------------------------
///                        2(3τ + 1/2)
/// ```
///
/// Valid (real and in `[0, 1/2)`) for `τ ∈ (τ2, 1/2)`; by the paper's
/// symmetry argument the mirrored value applies on `(1/2, 1−τ2)`, and this
/// function accepts both branches.
///
/// # Panics
///
/// Panics if `τ` is outside `(τ2, 1−τ2)` or equals `1/2` is fine — `f(1/2)
/// = 0` is the continuous limit and is returned exactly.
///
/// # Example
///
/// ```
/// use seg_theory::trigger::f_trigger;
/// assert_eq!(f_trigger(0.5), 0.0);
/// assert!(f_trigger(0.40) > f_trigger(0.45)); // more tolerance, bigger nucleus
/// ```
pub fn f_trigger(tau: f64) -> f64 {
    let t = if tau > 0.5 { 1.0 - tau } else { tau };
    assert!(
        t > tau2() - 1e-12 && t <= 0.5,
        "f(tau) is defined on (tau2, 1-tau2); got tau = {tau}"
    );
    let d = t - 0.5; // ≤ 0 on this branch
    let disc = 9.0 * d * d - 7.0 * d * (3.0 * t + 0.5);
    debug_assert!(disc >= -1e-12, "negative discriminant at tau = {tau}");
    (3.0 * d + disc.max(0.0).sqrt()) / (2.0 * (3.0 * t + 0.5))
}

/// The inequality of Lemma 5 before the algebra: with nucleus radius factor
/// `ε'`, the worst-case count of `(-1)` agents in a corner agent's
/// neighborhood must fall below `τN`. Returns the left-hand side minus the
/// right-hand side, scaled by `1/N` (negative means the cascade closes).
///
/// Exposed so tests can confirm `f(τ)` is exactly the boundary of this
/// inequality.
pub fn lemma5_margin(tau: f64, eps: f64) -> f64 {
    // Area fraction of the corner agent's neighborhood shared with the
    // radical region; (-1) density τ there (Prop. 1), density 1/2 outside
    // (Lemma 18), minus the τ·ε'² nucleus that has already flipped.
    let s = (1.5 + eps) * (1.5 + eps) / 4.0;
    tau * s + 0.5 * (1.0 - s) - tau * eps * eps - tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{tau1, tau2};

    #[test]
    fn f_vanishes_at_one_half() {
        assert_eq!(f_trigger(0.5), 0.0);
        // f(τ) ~ √(7(1/2 − τ)/4) near 1/2 — a square-root cusp, so the
        // approach to zero is slow: f(0.4999) ≈ 0.0093.
        assert!(f_trigger(0.4999).abs() < 0.02);
        assert!(f_trigger(0.499_999_9) < 1e-3);
    }

    #[test]
    fn f_monotone_decreasing_in_tau() {
        let mut prev = f64::INFINITY;
        for i in 0..=40 {
            let tau = tau2() + 1e-6 + (0.5 - tau2() - 2e-6) * i as f64 / 40.0;
            let v = f_trigger(tau);
            assert!(v < prev + 1e-12, "f not decreasing at tau = {tau}");
            prev = v;
        }
    }

    #[test]
    fn f_below_one_half_on_segregation_interval() {
        // The paper notes f(τ) < 1/2 for τ ∈ (τ2, 1/2).
        for i in 1..50 {
            let tau = tau2() + (0.5 - tau2()) * i as f64 / 50.0;
            let v = f_trigger(tau);
            assert!((0.0..0.5).contains(&v), "f({tau}) = {v}");
        }
    }

    #[test]
    fn symmetric_branches_agree() {
        for tau in [0.36, 0.40, 0.45, 0.49] {
            assert!((f_trigger(tau) - f_trigger(1.0 - tau)).abs() < 1e-14);
        }
    }

    #[test]
    fn f_is_root_of_lemma5_margin() {
        // At ε' = f(τ) the Lemma 5 inequality is tight: margin ≈ 0.
        for tau in [0.36, 0.40, tau1(), 0.45, 0.48] {
            let eps = f_trigger(tau);
            let m = lemma5_margin(tau, eps);
            assert!(m.abs() < 1e-10, "margin at tau={tau}: {m}");
            // slightly larger ε' must close the inequality (negative margin)
            assert!(lemma5_margin(tau, eps + 1e-3) < 0.0);
        }
    }

    #[test]
    fn figure6_magnitudes() {
        // Figure 6: f rises from 0 at τ = 1/2 to ≈ 0.296 at τ2 = 11/32.
        let at_tau2 = f_trigger(tau2() + 1e-9);
        assert!((0.28..0.32).contains(&at_tau2), "f(tau2) = {at_tau2}");
        assert!(f_trigger(0.45) < 0.2);
    }

    #[test]
    #[should_panic(expected = "defined on")]
    fn f_rejects_below_tau2() {
        let _ = f_trigger(0.3);
    }
}
