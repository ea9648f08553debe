//! Property-based tests for the model crate.

use proptest::prelude::*;
use seg_core::interval::ComfortBand;
use seg_core::intolerance::Intolerance;
use seg_core::multi::MultiSim;
use seg_core::ring::RingSim;
use seg_core::ModelConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §IV-C mirror identity in exact integer arithmetic: for a threshold
    /// `K ≥ (N+2)/2` (the τ > 1/2 regime), the *super-unhappy* agents —
    /// the only ones that act — are exactly the agents that a τ̄ < 1/2
    /// model with the reflected threshold `K̄ = N − K + 2` would flip:
    /// `S < K ∧ N−S+1 ≥ K  ⟺  S < K̄`, and below one half flippable
    /// coincides with unhappy. This is the paper's "super-unhappy agents
    /// act in the same way as unhappy agents do for τ < 1/2", with the
    /// `+2/N` of τ̄ appearing as the `+2` in `K̄`.
    #[test]
    fn super_unhappy_mirror(side in 1u32..10, k_raw in 0u32..500, s_raw in 1u32..500) {
        let n = (2 * side + 1) * (2 * side + 1);
        let s = 1 + s_raw % n;
        // restrict to the τ > 1/2 regime: K in [(N+2)/2, N]
        let k_lo = n.div_ceil(2) + 1;
        let k = k_lo + k_raw % (n - k_lo + 1);
        let k_bar = n + 2 - k;
        let high = Intolerance::from_threshold(n, k);
        let low = Intolerance::from_threshold(n, k_bar);
        prop_assert_eq!(
            high.is_super_unhappy(s),
            low.is_flippable(s),
            "n={} K={} K̄={} S={}", n, k, k_bar, s
        );
        // and below one half, flippable ⇔ unhappy
        prop_assert_eq!(low.is_flippable(s), !low.is_happy(s));
    }

    /// The paper's model is the τ_hi = 1 slice of the comfort band.
    #[test]
    fn band_generalizes_intolerance(side in 1u32..8, tau in 0.0f64..=1.0, s_raw in 1u32..400) {
        let n = (2 * side + 1) * (2 * side + 1);
        let s = 1 + s_raw % n;
        let band = ComfortBand::new(n, tau, 1.0);
        let intol = Intolerance::new(n, tau);
        prop_assert_eq!(band.is_content(s), intol.is_happy(s));
        prop_assert_eq!(band.is_flippable(s), intol.is_flippable(s));
    }

    /// Termination within the Lyapunov bound for arbitrary (τ, seed).
    #[test]
    fn termination_within_lyapunov_bound(seed in any::<u64>(), tau in 0.05f64..0.95) {
        let mut sim = ModelConfig::new(20, 1, tau).seed(seed).build();
        let bound = seg_core::lyapunov::max_remaining_flips(&sim);
        let report = sim.run_to_stable(u64::MAX);
        prop_assert!(report.terminated);
        prop_assert!(report.flips <= bound);
    }

    /// Stable states of the 2-type multi-model and the reference model
    /// agree on the happiness predicate (k = 2 reduction).
    #[test]
    fn multi_two_types_stabilizes_all_happy(seed in any::<u64>()) {
        let mut m = MultiSim::random(24, 1, 2, 0.4, seed);
        prop_assert!(m.run(1_000_000));
        prop_assert_eq!(m.unhappy_count(), 0);
    }

    /// Ring run lengths always partition the ring, before and after
    /// dynamics.
    #[test]
    fn ring_runs_partition(seed in any::<u64>(), tau in 0.2f64..0.48) {
        let mut r = RingSim::random(300, 3, tau, 0.5, seed);
        prop_assert_eq!(r.run_lengths().iter().sum::<usize>(), 300);
        r.run_to_stable(1_000_000);
        prop_assert_eq!(r.run_lengths().iter().sum::<usize>(), 300);
    }

    /// Flips conserve nothing in the open system but stay on the torus:
    /// plus totals change by exactly ±1 per flip.
    #[test]
    fn flip_changes_total_by_one(seed in any::<u64>(), tau in 0.3f64..0.49) {
        let mut sim = ModelConfig::new(24, 1, tau).seed(seed).build();
        for _ in 0..50 {
            let before = sim.field().plus_total() as i64;
            match sim.step() {
                Some(_) => {
                    let after = sim.field().plus_total() as i64;
                    prop_assert_eq!((after - before).abs(), 1);
                }
                None => break,
            }
        }
    }
}

/// Integer thresholds are the exact `⌈τN⌉` and `⌊τN⌋` of integer
/// arithmetic, even where the float product `τ·N` lands a rounding error
/// away from an integer (`0.56 · 25 = 14.000000000000002`):
/// - every integer threshold `k` of every window `N = (2w+1)²`, `w ≤ 30`,
///   survives the round trip through its rational `τ = k/N`;
/// - every 3-decimal `τ` at `w ≤ 12` gives `⌈τN⌉` for [`Intolerance`] and
///   the band's lower end, and `⌊τN⌋` for the band's upper end.
#[test]
fn thresholds_are_exact_integer_ceilings_and_floors() {
    for w in 0..=30u32 {
        let n = (2 * w + 1) * (2 * w + 1);
        for k in 0..=n {
            let tau = Intolerance::from_threshold(n, k).tau();
            assert_eq!(Intolerance::new(n, tau).threshold(), k, "N={n} k={k}");
            let band = ComfortBand::new(n, tau, tau);
            assert_eq!((band.lo(), band.hi()), (k, k), "N={n} k={k}");
        }
    }
    for w in 0..=12u32 {
        let n = (2 * w + 1) * (2 * w + 1);
        for m in 0..=1000u32 {
            let tau = f64::from(m) / 1000.0;
            let ceil = (m * n).div_ceil(1000);
            let floor = m * n / 1000;
            assert_eq!(Intolerance::new(n, tau).threshold(), ceil, "N={n} τ={tau}");
            assert_eq!(ComfortBand::new(n, tau, 1.0).lo(), ceil, "N={n} τ={tau}");
            assert_eq!(ComfortBand::new(n, 0.0, tau).hi(), floor, "N={n} τ={tau}");
        }
    }
}
