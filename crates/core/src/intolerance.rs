//! Integer happiness thresholds (§II-A) and flip feasibility.

/// `τ·N` as a float, snapped to the integer it denotes when it lies
/// within rounding error of one, so that `ceil`/`floor` of it are exact.
///
/// `τ` itself is a rounded decimal and the product rounds again, so `τ·N`
/// can miss the integer it denotes by a few ulps: `0.56 · 25` evaluates to
/// `14.000000000000002`, whose plain `ceil` is 15, not `⌈14⌉ = 14`. Both
/// errors are relative and below `f64::EPSILON` each, so a distance of at
/// most `4ε·τN` to the nearest integer means "that integer". Any `τ` with a
/// few decimals lies much farther than that from every other integer:
/// a 3-decimal `τ` with `N ≤ 10⁶` misses a non-integer `τN` by ≥ 1/1000.
pub(crate) fn scaled_count(tau: f64, n_size: u32) -> f64 {
    let x = tau * n_size as f64;
    let nearest = x.round();
    if (x - nearest).abs() <= 4.0 * f64::EPSILON * nearest.max(1.0) {
        nearest
    } else {
        x
    }
}

/// The intolerance parameter in its exact integer form.
///
/// The paper sets `τ = ⌈τ̃N⌉ / N` where `τ̃ ∈ [0, 1]` and `N = (2w+1)²`:
/// the integer `τN = ⌈τ̃N⌉` is the minimum number of same-type agents
/// (self included) in an agent's neighborhood that make it happy. All hot
/// paths work with the integer threshold — never floating point.
///
/// # Example
///
/// ```
/// use seg_core::Intolerance;
/// let intol = Intolerance::new(441, 0.42); // w = 10, Figure 1 parameters
/// assert_eq!(intol.threshold(), 186); // ⌈0.42 · 441⌉
/// assert!(intol.is_happy(186));
/// assert!(!intol.is_happy(185));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Intolerance {
    n_size: u32,
    threshold: u32,
}

impl Intolerance {
    /// Builds the threshold `⌈τ̃ · N⌉` for a neighborhood of size `N`,
    /// exact also where the float product `τ̃ · N` lands a rounding error
    /// away from an integer (`⌈0.56 · 25⌉ = 14`).
    ///
    /// # Panics
    ///
    /// Panics if `τ̃` is outside `[0, 1]` or `n_size == 0`.
    pub fn new(n_size: u32, tau_tilde: f64) -> Self {
        assert!(n_size > 0, "neighborhood size must be positive");
        assert!(
            (0.0..=1.0).contains(&tau_tilde),
            "intolerance must lie in [0, 1], got {tau_tilde}"
        );
        let threshold = scaled_count(tau_tilde, n_size).ceil() as u32;
        Intolerance { n_size, threshold }
    }

    /// Builds directly from an integer threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold > n_size`.
    pub fn from_threshold(n_size: u32, threshold: u32) -> Self {
        assert!(threshold <= n_size, "threshold exceeds neighborhood size");
        Intolerance { n_size, threshold }
    }

    /// The neighborhood size `N`.
    #[inline]
    pub fn neighborhood_size(&self) -> u32 {
        self.n_size
    }

    /// The integer threshold `τN`.
    #[inline]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The rational intolerance `τ = τN / N`.
    #[inline]
    pub fn tau(&self) -> f64 {
        self.threshold as f64 / self.n_size as f64
    }

    /// Happiness: `s(u) ≥ τ`, i.e. same-type count ≥ `τN`.
    #[inline]
    pub fn is_happy(&self, same_count: u32) -> bool {
        same_count >= self.threshold
    }

    /// Same-type count after the agent itself flips: the `N − S` agents of
    /// the (new) same type plus the agent itself.
    #[inline]
    fn same_count_after_flip(&self, same_count: u32) -> u32 {
        debug_assert!(same_count >= 1, "same count includes the agent itself");
        self.n_size - same_count + 1
    }

    /// Whether an *unhappy* agent's flip would make it happy. The paper's
    /// dynamics flip exactly these agents: for `τ < 1/2` every unhappy
    /// agent qualifies, for `τ > 1/2` only the *super-unhappy* do (§IV-C).
    #[inline]
    pub(crate) fn flip_makes_happy(&self, same_count: u32) -> bool {
        self.is_happy(self.same_count_after_flip(same_count))
    }

    /// Whether the agent is *flippable* under the paper's rule: unhappy
    /// and made happy by flipping.
    #[inline]
    pub fn is_flippable(&self, same_count: u32) -> bool {
        !self.is_happy(same_count) && self.flip_makes_happy(same_count)
    }

    /// §IV-C's super-unhappy test for `τ > 1/2`: an unhappy agent that can
    /// potentially become happy once it flips — identical to
    /// [`Intolerance::is_flippable`]; exposed under the paper's name.
    #[inline]
    pub fn is_super_unhappy(&self, same_count: u32) -> bool {
        self.is_flippable(same_count)
    }

    /// The paper's rule as a `(tracked, unhappy)` classifier of the
    /// same-type count, from which the dynamics build the class table of
    /// the fused flip kernel
    /// ([`seg_grid::WindowCounts::apply_flip_fused`]): tracked =
    /// flippable, unhappy = `S < τN`.
    #[inline]
    pub fn classify(&self, same_count: u32) -> (bool, bool) {
        // s = 0 is unreachable (an agent counts itself); guard it so
        // building a class table never evaluates flip arithmetic on it
        (
            same_count >= 1 && self.is_flippable(same_count),
            !self.is_happy(same_count),
        )
    }
}

impl std::fmt::Display for Intolerance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "τ = {}/{} ≈ {:.4}",
            self.threshold,
            self.n_size,
            self.tau()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_grid::{AgentType, ClassTable};

    #[test]
    fn threshold_is_ceiling() {
        assert_eq!(Intolerance::new(9, 0.5).threshold(), 5); // ⌈4.5⌉
        assert_eq!(Intolerance::new(9, 4.0 / 9.0).threshold(), 4);
        assert_eq!(Intolerance::new(441, 0.42).threshold(), 186);
        assert_eq!(Intolerance::new(25, 0.0).threshold(), 0);
        assert_eq!(Intolerance::new(25, 1.0).threshold(), 25);
    }

    #[test]
    fn happiness_boundary() {
        let i = Intolerance::new(25, 0.4); // threshold 10
        assert!(i.is_happy(10));
        assert!(i.is_happy(25));
        assert!(!i.is_happy(9));
    }

    #[test]
    fn flip_arithmetic() {
        let i = Intolerance::new(25, 0.4);
        // S = 8: after flip same count = 25 − 8 + 1 = 18 ≥ 10 → flippable
        assert_eq!(i.same_count_after_flip(8), 18);
        assert!(i.is_flippable(8));
        // S = 10: happy, not flippable
        assert!(!i.is_flippable(10));
    }

    #[test]
    fn below_half_unhappy_iff_flippable() {
        // For τ < 1/2 a flip always helps (§II-A observation 1).
        for n in [9u32, 25, 49, 441] {
            for thr in 1..=(n / 2) {
                let i = Intolerance::from_threshold(n, thr);
                for s in 1..=n {
                    assert_eq!(i.is_flippable(s), !i.is_happy(s), "n={n} thr={thr} s={s}");
                }
            }
        }
    }

    #[test]
    fn above_half_flip_may_not_help() {
        // τ > 1/2: an agent with a balanced neighborhood is unhappy both
        // ways (§II-A observation 1).
        let i = Intolerance::from_threshold(25, 18);
        let s = 13;
        assert!(!i.is_happy(s));
        assert!(!i.flip_makes_happy(s)); // 25 − 13 + 1 = 13 < 18
        assert!(!i.is_super_unhappy(s));
        // a strongly outnumbered agent is super-unhappy
        let s2 = 4;
        assert!(i.is_super_unhappy(s2)); // 25 − 4 + 1 = 22 ≥ 18
    }

    #[test]
    fn class_table_matches_predicates() {
        for (n, tau) in [(25u32, 0.4), (25, 0.6), (49, 0.42), (9, 0.5)] {
            let i = Intolerance::new(n, tau);
            let ct = ClassTable::build_same_count(n, |s| i.classify(s));
            for s in 1..=n {
                // a Plus agent with S pluses, a Minus agent with N−S pluses
                for (ty, pc) in [(AgentType::Plus, s), (AgentType::Minus, n - s)] {
                    assert_eq!(ct.tracked(ty, pc), i.is_flippable(s), "n={n} τ={tau} s={s}");
                    assert_eq!(ct.unhappy(ty, pc), !i.is_happy(s), "n={n} τ={tau} s={s}");
                }
            }
        }
    }

    #[test]
    fn tau_roundtrip() {
        let i = Intolerance::new(441, 0.42);
        assert!((i.tau() - 186.0 / 441.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "intolerance must lie")]
    fn rejects_bad_tau() {
        let _ = Intolerance::new(9, 1.2);
    }

    #[test]
    #[should_panic(expected = "threshold exceeds")]
    fn rejects_bad_threshold() {
        let _ = Intolerance::from_threshold(9, 10);
    }
}
