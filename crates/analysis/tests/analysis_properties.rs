//! Property-based tests for the analysis crate.

use proptest::prelude::*;
use seg_analysis::bootstrap::bootstrap_mean_ci;
use seg_analysis::regression::{exponential_fit, linear_fit};
use seg_analysis::stats::{quantile, Summary};
use seg_grid::rng::Xoshiro256pp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OLS recovers an exact line from any ≥ 2 distinct-x points.
    #[test]
    fn ols_exact_recovery(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        xs in prop::collection::vec(-50.0f64..50.0, 2..30),
    ) {
        // de-duplicate x to guarantee sxx > 0
        let mut xs = xs;
        xs.sort_by(|a, b| a.total_cmp(b));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        prop_assume!(xs.len() >= 2);
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let f = linear_fit(&xs, &ys);
        prop_assert!((f.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((f.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        prop_assert!(f.r_squared > 1.0 - 1e-9);
    }

    /// Exponential fit inverts its own model.
    #[test]
    fn exponential_roundtrip(rate in -2.0f64..2.0, amp in 0.1f64..50.0) {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| amp * (rate * x).exp2()).collect();
        let f = exponential_fit(&xs, &ys);
        prop_assert!((f.rate - rate).abs() < 1e-7);
        prop_assert!((f.amplitude - amp).abs() / amp < 1e-7);
    }

    /// Summary invariants: min ≤ mean ≤ max, variance ≥ 0.
    #[test]
    fn summary_invariants(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.variance >= 0.0);
    }

    /// Quantiles are monotone in q and bounded by the extremes.
    #[test]
    fn quantile_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..60), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, qa);
        let b = quantile(&xs, qb);
        prop_assert!(a <= b + 1e-9);
        prop_assert!(quantile(&xs, 0.0) <= a + 1e-9);
        prop_assert!(b <= quantile(&xs, 1.0) + 1e-9);
    }

    /// Bootstrap CI brackets the sample mean and shrinks with more data.
    #[test]
    fn bootstrap_brackets(seed in any::<u64>(), n in 5usize..80) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.next_f64() * 10.0).collect();
        let ci = bootstrap_mean_ci(&xs, 0.9, 200, &mut rng);
        prop_assert!(ci.lo <= ci.mean + 1e-9 && ci.mean <= ci.hi + 1e-9);
    }
}
