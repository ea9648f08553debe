//! Property-based tests for the closed-form theory layer.

use proptest::prelude::*;
use seg_theory::binomial::{binomial_cdf, binomial_pmf};
use seg_theory::constants::{tau1, tau2};
use seg_theory::entropy::binary_entropy;
use seg_theory::exponents::{exponent_a, exponent_b, fold};
use seg_theory::trigger::{f_trigger, lemma5_margin};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Entropy is concave: midpoint value above the chord.
    #[test]
    fn entropy_concavity(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let mid = binary_entropy(0.5 * (a + b));
        let chord = 0.5 * (binary_entropy(a) + binary_entropy(b));
        prop_assert!(mid >= chord - 1e-12);
    }

    /// The binomial CDF is monotone in k and in −p.
    #[test]
    fn cdf_monotonicity(n in 1u64..150, p in 0.05f64..0.95, k in 0u64..150) {
        let k = k.min(n);
        let c = binomial_cdf(n, p, k);
        if k > 0 {
            prop_assert!(c + 1e-12 >= binomial_cdf(n, p, k - 1));
        }
        // increasing p moves mass right: lower tail shrinks
        let c_hi = binomial_cdf(n, (p + 0.04).min(0.99), k);
        prop_assert!(c_hi <= c + 1e-9);
        let _ = binomial_pmf(n, p, k);
    }

    /// f(τ) is the exact root of the Lemma 5 margin, and the margin is
    /// strictly decreasing in ε' beyond it.
    #[test]
    fn trigger_is_margin_root(tau_frac in 0.0f64..1.0) {
        let t2 = tau2();
        let tau = t2 + 1e-6 + (0.5 - t2 - 2e-6) * tau_frac;
        let f = f_trigger(tau);
        prop_assert!(lemma5_margin(tau, f).abs() < 1e-9);
        prop_assert!(lemma5_margin(tau, f + 0.02) < 0.0);
    }

    /// Exponents: a < b on the whole interval (τ2, 1/2), both positive,
    /// both symmetric under folding.
    #[test]
    fn exponent_sandwich(tau_frac in 0.0f64..1.0) {
        let t2 = tau2();
        let tau = t2 + 1e-6 + (0.5 - t2 - 2e-6) * tau_frac;
        let a = exponent_a(tau);
        let b = exponent_b(tau);
        prop_assert!(a > 0.0);
        prop_assert!(b > a);
        let mirrored = 1.0 - tau;
        prop_assert!((exponent_a(mirrored) - a).abs() < 1e-12);
        prop_assert!((exponent_b(mirrored) - b).abs() < 1e-12);
        // folding 1−τ reproduces τ up to f64 rounding of the subtraction
        prop_assert!((fold(mirrored) - fold(tau)).abs() < 1e-12);
    }
}

#[test]
fn boundary_constants_bracket() {
    // deterministic sanity on top of the proptests
    assert!(0.25 < tau2() && tau2() < tau1() && tau1() < 0.5);
}
