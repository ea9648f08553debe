//! The binary entropy function `H` (Eq. 2) and helpers.

/// Binary entropy `H(x) = −x·log2(x) − (1−x)·log2(1−x)`, with the standard
/// continuous extension `H(0) = H(1) = 0`.
///
/// # Panics
///
/// Panics if `x` is outside `[0, 1]` or is NaN.
///
/// # Example
///
/// ```
/// use seg_theory::entropy::binary_entropy;
/// assert_eq!(binary_entropy(0.5), 1.0);
/// assert_eq!(binary_entropy(0.0), 0.0);
/// ```
pub fn binary_entropy(x: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&x),
        "entropy argument {x} outside [0,1]"
    );
    if x == 0.0 || x == 1.0 {
        return 0.0;
    }
    -(x * x.log2()) - (1.0 - x) * (1.0 - x).log2()
}

/// Generic bisection root finder on `[lo, hi]`; requires a sign change.
/// Used by the paper-constant solver [`crate::constants::tau1`].
///
/// # Panics
///
/// Panics if `f(lo)` and `f(hi)` have the same sign, or if the interval is
/// empty or not finite.
pub(crate) fn bisect(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64) -> f64 {
    assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad interval");
    let (mut lo, mut hi) = (lo, hi);
    let (flo, fhi) = (f(lo), f(hi));
    assert!(
        flo.signum() != fhi.signum(),
        "no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
    );
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_endpoints_and_symmetry() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert_eq!(binary_entropy(0.5), 1.0);
        for x in [0.1, 0.2, 0.3, 0.47] {
            assert!((binary_entropy(x) - binary_entropy(1.0 - x)).abs() < 1e-14);
        }
    }

    #[test]
    fn entropy_strictly_increasing_below_half() {
        let mut prev = -1.0;
        for i in 0..=50 {
            let x = i as f64 / 100.0;
            let h = binary_entropy(x);
            assert!(h > prev, "H not increasing at {x}");
            prev = h;
        }
    }

    #[test]
    fn entropy_known_value() {
        // H(1/4) = 2 - (3/4) log2 3
        let expect = 2.0 - 0.75 * 3f64.log2();
        assert!((binary_entropy(0.25) - expect).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn entropy_rejects_out_of_range() {
        let _ = binary_entropy(1.5);
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn bisect_finds_roots_of_monotone_cubics() {
        // every root in [-3, 3] is bracketed by the sign change on [-5, 5]
        for i in 0..=60 {
            let root = -3.0 + 0.1 * i as f64;
            let found = bisect(|x| (x - root) * ((x - root).powi(2) + 1.0), -5.0, 5.0);
            assert!((found - root).abs() < 1e-9, "root {root}: found {found}");
        }
    }

    #[test]
    #[should_panic(expected = "no sign change")]
    fn bisect_requires_sign_change() {
        let _ = bisect(|x| x * x + 1.0, -1.0, 1.0);
    }
}
