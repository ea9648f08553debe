//! The phase boundaries `τ1` and `τ2` (Eqs. 1 and 3, Figure 2).

use crate::entropy::{binary_entropy, bisect};

/// `τ1 ≈ 0.4330`: the unique solution in `(3/8, 1/2)` of Eq. (1),
///
/// ```text
/// (3/4)·[1 − H(4τ/3)] − [1 − H(τ)] = 0.
/// ```
///
/// For `τ ∈ (τ1, 1/2)` (and symmetrically `(1/2, 1−τ1)`) the paper shows
/// the expected size of the largest *monochromatic* region containing an
/// arbitrary agent is exponential in `N` (Theorem 1).
///
/// # Example
///
/// ```
/// use seg_theory::constants::tau1;
/// assert!((tau1() - 0.4330).abs() < 5e-4);
/// ```
pub fn tau1() -> f64 {
    // At τ = 3/8 (where 4τ/3 = 1/2 kills the first term) the residual is
    // −[1 − H(3/8)] < 0; at τ → 1/2 it tends to (3/4)[1 − H(2/3)] > 0.
    // The root between them is τ1.
    bisect(tau1_residual, 0.376, 0.4999)
}

/// The left-hand side of Eq. (1): zero exactly at [`tau1`].
fn tau1_residual(tau: f64) -> f64 {
    0.75 * (1.0 - binary_entropy(4.0 * tau / 3.0)) - (1.0 - binary_entropy(tau))
}

/// `τ2 = 11/32 = 0.34375`: the relevant root of Eq. (3),
/// `1024·τ² − 384·τ + 11 = 0` (the other root, `1/32`, lies outside the
/// model's interesting range).
///
/// For `τ ∈ (τ2, τ1]` (and symmetrically `[1−τ1, 1−τ2)`) the paper shows
/// the expected size of the largest *almost monochromatic* region is
/// exponential in `N` (Theorem 2).
pub fn tau2() -> f64 {
    // 1024 τ² − 384 τ + 11 = 0 ⇒ τ = (384 ± 320)/2048 ∈ {11/32, 1/32}.
    11.0 / 32.0
}

/// Width of the monochromatic-segregation interval `(τ1, 1/2)` plus its
/// mirror image — the paper's "size ≈ 0.134" (grey region of Figure 2).
pub fn monochromatic_interval_width() -> f64 {
    2.0 * (0.5 - tau1())
}

/// Width of the full segregation interval `(τ2, 1/2)` plus its mirror —
/// the paper's "size ≈ 0.312" (grey plus black region of Figure 2).
pub fn total_interval_width() -> f64 {
    2.0 * (0.5 - tau2())
}

/// Classification of an intolerance value against the paper's phase
/// diagram (Figure 2 plus the cited boundary results).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// `τ ≤ 1/4` (or `τ ≥ 3/4`): the initial configuration is static
    /// w.h.p. (Barmpalias et al. \[26\], cited in §I-A).
    StaticWhp,
    /// `τ ∈ (1/4, τ2]` (or mirrored): behavior unknown (§V).
    Unknown,
    /// `τ ∈ (τ2, τ1]` (or mirrored): exponential *almost monochromatic*
    /// regions in expectation (Theorem 2).
    AlmostSegregation,
    /// `τ ∈ (τ1, 1/2)` (or mirrored): exponential *monochromatic* regions
    /// in expectation (Theorem 1).
    Segregation,
    /// `τ = 1/2`: open in two dimensions (§I-B).
    Open,
}

/// Classifies `τ` into the paper's regimes. Symmetric about `1/2`.
///
/// # Panics
///
/// Panics if `τ` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use seg_theory::constants::{classify, Regime};
/// assert_eq!(classify(0.42), Regime::AlmostSegregation);
/// assert_eq!(classify(0.45), Regime::Segregation);
/// assert_eq!(classify(0.58), Regime::AlmostSegregation); // mirrored
/// assert_eq!(classify(0.2), Regime::StaticWhp);
/// assert_eq!(classify(0.5), Regime::Open);
/// ```
pub fn classify(tau: f64) -> Regime {
    assert!((0.0..=1.0).contains(&tau), "tau {tau} outside [0,1]");
    if tau == 0.5 {
        return Regime::Open;
    }
    let t = if tau > 0.5 { 1.0 - tau } else { tau };
    if t <= 0.25 {
        Regime::StaticWhp
    } else if t <= tau2() {
        Regime::Unknown
    } else if t <= tau1() {
        Regime::AlmostSegregation
    } else {
        Regime::Segregation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau1_matches_paper_value() {
        let t1 = tau1();
        assert!((t1 - 0.433).abs() < 1e-3, "tau1 = {t1}");
        assert!(tau1_residual(t1).abs() < 1e-10);
    }

    #[test]
    fn tau1_residual_signs() {
        assert!(tau1_residual(0.38) < 0.0);
        assert!(tau1_residual(0.49) > 0.0);
    }

    #[test]
    fn tau2_is_exact_root_of_eq3() {
        for root in [tau2(), 1.0 / 32.0] {
            assert_eq!(1024.0 * root * root - 384.0 * root + 11.0, 0.0);
        }
    }

    #[test]
    fn interval_widths_match_figure2() {
        assert!((monochromatic_interval_width() - 0.134).abs() < 2e-3);
        assert!((total_interval_width() - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn ordering_of_boundaries() {
        assert!(0.25 < tau2());
        assert!(tau2() < tau1());
        assert!(tau1() < 0.5);
    }

    #[test]
    fn classify_covers_all_regimes_symmetrically() {
        for (tau, want) in [
            (0.1, Regime::StaticWhp),
            (0.25, Regime::StaticWhp),
            (0.3, Regime::Unknown),
            (0.35, Regime::AlmostSegregation),
            (0.43, Regime::AlmostSegregation),
            (0.44, Regime::Segregation),
            (0.499, Regime::Segregation),
            (0.5, Regime::Open),
        ] {
            assert_eq!(classify(tau), want, "tau = {tau}");
            if tau != 0.5 {
                assert_eq!(classify(1.0 - tau), want, "mirror of tau = {tau}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn classify_rejects_out_of_range() {
        let _ = classify(-0.1);
    }
}
