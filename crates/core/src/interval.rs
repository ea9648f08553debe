//! The two-sided comfort variant proposed in the paper's concluding
//! remarks (§V): agents are "uncomfortable being both a minority or a
//! majority in a largely segregated area".
//!
//! An agent is *content* iff its same-type fraction lies in `[τ_lo, τ_hi]`.
//! Discontent agents flip when the flip would make them content. Unlike
//! the one-sided model this process need not terminate (the Lyapunov
//! argument fails: a flip can decrease alignment), so the runner is
//! budget-capped and reports whether a stable state was reached.

use crate::dynamics::GridDynamics;
use crate::intolerance::scaled_count;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{IndexedSet, Point, Torus, TypeField};

/// Integer two-sided comfort thresholds over a neighborhood of size `N`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ComfortBand {
    n_size: u32,
    lo: u32,
    hi: u32,
}

impl ComfortBand {
    /// Builds `[⌈τ_lo·N⌉, ⌊τ_hi·N⌋]`, exact also where a float product
    /// `τ·N` lands a rounding error away from an integer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ τ_lo ≤ τ_hi ≤ 1`.
    pub fn new(n_size: u32, tau_lo: f64, tau_hi: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tau_lo) && (0.0..=1.0).contains(&tau_hi) && tau_lo <= tau_hi,
            "need 0 ≤ τ_lo ≤ τ_hi ≤ 1"
        );
        ComfortBand {
            n_size,
            lo: scaled_count(tau_lo, n_size).ceil() as u32,
            hi: scaled_count(tau_hi, n_size).floor() as u32,
        }
    }

    /// Lower integer threshold.
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// Upper integer threshold.
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// Content iff `lo ≤ S ≤ hi`.
    #[inline]
    pub fn is_content(&self, same_count: u32) -> bool {
        (self.lo..=self.hi).contains(&same_count)
    }

    /// Whether a discontent agent's flip would make it content.
    #[inline]
    fn flip_makes_content(&self, same_count: u32) -> bool {
        self.is_content(self.n_size - same_count + 1)
    }

    /// Eligible to flip: discontent, and the flip restores comfort.
    #[inline]
    pub fn is_flippable(&self, same_count: u32) -> bool {
        !self.is_content(same_count) && self.flip_makes_content(same_count)
    }

    /// The band as a `(tracked, unhappy)` classifier of the same-type
    /// count: tracked = flippable under this band, unhappy = discontent.
    #[inline]
    pub fn classify(&self, same_count: u32) -> (bool, bool) {
        (self.is_flippable(same_count), !self.is_content(same_count))
    }
}

/// The §V two-sided model: the grid-dynamics core under a
/// [`ComfortBand`], flipping a uniformly chosen band-flippable agent per
/// step (no clock).
#[derive(Clone, Debug)]
pub struct IntervalSim {
    core: GridDynamics,
    band: ComfortBand,
}

impl IntervalSim {
    /// Builds over an explicit field.
    ///
    /// # Panics
    ///
    /// Panics if the band is sized for a different `N` than the window, or
    /// if the window does not fit the torus.
    pub fn from_field(
        field: TypeField,
        horizon: u32,
        band: ComfortBand,
        rng: Xoshiro256pp,
    ) -> Self {
        IntervalSim {
            core: GridDynamics::new(field, horizon, band.n_size, |s| band.classify(s), rng),
            band,
        }
    }

    /// Samples a Bernoulli(1/2) field and builds the model.
    pub fn random(n: u32, horizon: u32, tau_lo: f64, tau_hi: f64, seed: u64) -> Self {
        let torus = Torus::new(n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = TypeField::random(torus, 0.5, &mut rng);
        let band = ComfortBand::new((2 * horizon + 1) * (2 * horizon + 1), tau_lo, tau_hi);
        IntervalSim::from_field(field, horizon, band, rng)
    }

    /// Current configuration.
    pub fn field(&self) -> &TypeField {
        &self.core.field
    }

    /// The comfort band.
    pub fn band(&self) -> ComfortBand {
        self.band
    }

    /// Flips so far.
    pub fn flips(&self) -> u64 {
        self.core.flips
    }

    /// Number of currently flippable (discontent-and-fixable) agents.
    pub fn flippable_count(&self) -> usize {
        self.core.tracked.len()
    }

    /// The flippable agents, by cell index, in the order a step samples
    /// them.
    pub fn flippable_set(&self) -> &IndexedSet {
        &self.core.tracked
    }

    /// Number of discontent agents (either side of the band). Maintained
    /// incrementally by the fused flip kernel, so this is O(1).
    #[inline]
    pub fn discontent_count(&self) -> usize {
        self.core.unhappy
    }

    /// Full consistency audit of the counts, the flippable set and the
    /// discontent total against [`ComfortBand::classify`]. O(n²·N); for
    /// tests and debugging.
    pub fn audit(&self) -> bool {
        self.core.audit(|s| self.band.classify(s))
    }

    /// One step: flips a uniformly chosen flippable agent. `None` when no
    /// agent can improve (stable for this rule).
    pub fn step(&mut self) -> Option<Point> {
        let at = self.core.sample()?;
        self.core.flip(at);
        Some(at)
    }

    /// Runs until no flippable agent remains or the budget is exhausted;
    /// returns `true` on a stable state. (This rule has no termination
    /// guarantee — budget exhaustion is a real outcome.)
    pub fn run(&mut self, max_flips: u64) -> bool {
        for _ in 0..max_flips {
            if self.step().is_none() {
                return true;
            }
        }
        self.core.tracked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::largest_same_type_cluster;

    #[test]
    fn band_logic() {
        let b = ComfortBand::new(25, 0.4, 0.8); // [10, 20]
        assert_eq!((b.lo(), b.hi()), (10, 20));
        assert!(b.is_content(10) && b.is_content(20));
        assert!(!b.is_content(9) && !b.is_content(21));
        // S = 23 (too much majority): flip gives 25−23+1 = 3, still out
        assert!(!b.flip_makes_content(23));
        // S = 5: flip gives 21, out by one; S = 6 → 20, content
        assert!(!b.is_flippable(5));
        assert!(b.is_flippable(6));
    }

    #[test]
    fn one_sided_band_matches_paper_model() {
        // τ_hi = 1 recovers the paper's rule exactly
        let b = ComfortBand::new(49, 0.42, 1.0);
        let i = crate::intolerance::Intolerance::new(49, 0.42);
        for s in 1..=49 {
            assert_eq!(b.is_content(s), i.is_happy(s), "s = {s}");
            assert_eq!(b.is_flippable(s), i.is_flippable(s), "s = {s}");
        }
    }

    #[test]
    fn majority_discomfort_limits_coarsening() {
        // one-sided control: heavy coarsening
        let mut one = IntervalSim::random(96, 2, 0.44, 1.0, 7);
        one.run(5_000_000);
        let cluster_one = largest_same_type_cluster(one.field());
        // two-sided: agents flee segregated (high-majority) areas too, so
        // giant single-type clusters are suppressed
        let mut two = IntervalSim::random(96, 2, 0.44, 0.80, 7);
        two.run(5_000_000);
        let cluster_two = largest_same_type_cluster(two.field());
        assert!(
            cluster_two < cluster_one,
            "majority discomfort should suppress giant clusters: {cluster_two} vs {cluster_one}"
        );
    }

    #[test]
    fn full_band_is_immediately_stable() {
        let mut sim = IntervalSim::random(48, 2, 0.0, 1.0, 3);
        assert_eq!(sim.flippable_count(), 0);
        assert!(sim.run(10));
        assert_eq!(sim.flips(), 0);
    }

    #[test]
    fn bookkeeping_consistent_after_steps() {
        let mut sim = IntervalSim::random(48, 2, 0.4, 0.85, 5);
        sim.run(2_000);
        assert!(sim.audit(), "incremental bookkeeping diverged");
    }

    #[test]
    #[should_panic(expected = "τ_lo ≤ τ_hi")]
    fn inverted_band_panics() {
        let _ = ComfortBand::new(25, 0.8, 0.4);
    }
}
