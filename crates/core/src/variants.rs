//! Model variants and baselines (§I-A's discussion).
//!
//! The paper assumes Glauber dynamics with flips that only happen when
//! they make the flipper happy ([`Simulation`]). §I-A lists the nearby
//! variants studied in the literature; this module implements them as
//! baselines:
//!
//! - [`UpdateRule::FlipWhenUnhappy`] — unhappy agents flip regardless of
//!   the outcome ("swap (or flip) regardless");
//! - [`UpdateRule::Noise`] — an unhappy agent whose flip would not make it
//!   happy flips anyway with probability ε ("a small probability of
//!   acting differently than what the general rule prescribes");
//! - [`KawasakiSim`] — the closed-system swap dynamics (2-D analogue of
//!   the Kawasaki ring model of Brandt et al.).
//!
//! For τ < ½ every unhappy agent's flip makes it happy, so both rules are
//! the paper's process there; they differ from it only for τ > ½.

use crate::dynamics::GridDynamics;
use crate::intolerance::Intolerance;
use crate::sim::Simulation;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, IndexedSet, Point, RankedSet, TypeField};

/// The local update rule of a [`VariantSim`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum UpdateRule {
    /// Flip whenever unhappy.
    FlipWhenUnhappy,
    /// Flip iff unhappy and the flip makes the agent happy (the paper's
    /// rule), but an acting agent the rule holds back flips anyway with
    /// probability ε.
    Noise(f64),
}

/// A Glauber-type simulation under a configurable [`UpdateRule`]: the
/// grid-dynamics core tracking the unhappy agents, one of which acts per
/// step (a ring of its clock). Flippability is tested when it acts.
#[derive(Clone, Debug)]
pub struct VariantSim {
    /// Tracked = unhappy (eligible to act).
    core: GridDynamics,
    intol: Intolerance,
    rule: UpdateRule,
}

/// The variants' classes: tracked and unhappy are both `S < τN`.
fn unhappy_class(intol: Intolerance) -> impl Fn(u32) -> (bool, bool) {
    move |s| {
        let unhappy = !intol.is_happy(s);
        (unhappy, unhappy)
    }
}

impl VariantSim {
    /// Builds the variant simulation over an explicit field.
    ///
    /// # Panics
    ///
    /// Panics if ε is outside `[0, 1]` for [`UpdateRule::Noise`], or on
    /// window/intolerance mismatches as in [`Simulation::from_field`].
    pub fn from_field(
        field: TypeField,
        horizon: u32,
        intol: Intolerance,
        rule: UpdateRule,
        rng: Xoshiro256pp,
    ) -> Self {
        if let UpdateRule::Noise(eps) = rule {
            assert!((0.0..=1.0).contains(&eps), "noise ε must lie in [0, 1]");
        }
        let n_size = intol.neighborhood_size();
        VariantSim {
            core: GridDynamics::new(field, horizon, n_size, unhappy_class(intol), rng),
            intol,
            rule,
        }
    }

    /// The current configuration.
    pub fn field(&self) -> &TypeField {
        &self.core.field
    }

    /// The unhappy agents, in the order a step samples them.
    pub fn unhappy_set(&self) -> &IndexedSet {
        &self.core.tracked
    }

    /// Total flips so far.
    pub fn flips(&self) -> u64 {
        self.core.flips
    }

    /// Number of currently unhappy agents.
    pub fn unhappy_count(&self) -> usize {
        self.core.unhappy
    }

    /// One ring of an unhappy agent's clock: acts per the rule. Returns
    /// the acted-on agent, or `None` if no agent is unhappy.
    ///
    /// Under `Noise` a ring may be a no-op (the chosen unhappy agent
    /// cannot improve and the ε-coin says no) — the paper's discrete-time
    /// description, no-ops included.
    pub fn step(&mut self) -> Option<Point> {
        let at = self.core.sample()?;
        let flip = match self.rule {
            UpdateRule::FlipWhenUnhappy => true,
            UpdateRule::Noise(eps) => {
                // the ε-coin is drawn only when the paper's rule says no
                self.intol.flip_makes_happy(self.core.same_count(at))
                    || self.core.rng.next_bool(eps)
            }
        };
        if flip {
            self.core.flip(at);
        }
        Some(at)
    }

    /// Full consistency audit of the counts, the set of agents eligible
    /// to act (the unhappy ones) and the unhappy total against the
    /// intolerance. O(n²·N); for tests and debugging.
    pub fn audit(&self) -> bool {
        self.core.audit(unhappy_class(self.intol))
    }

    /// Runs for at most `max_steps` rings; returns the number of *flips*
    /// performed. Under `FlipWhenUnhappy` and `Noise` the process may
    /// never stabilize — the step cap is the only terminator.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        let f0 = self.flips();
        for _ in 0..max_steps {
            if self.step().is_none() {
                break;
            }
        }
        self.flips() - f0
    }
}

/// The closed-system Kawasaki swap dynamics: two unhappy agents of
/// opposite types exchange positions iff the swap makes both happy. The
/// total count of each type is conserved (§I-A's "closed" model).
///
/// The grid-dynamics core keeps the unhappy agents of each type in a
/// [`RankedSet`], so an attempt draws the `k`-th unhappy agent of a type
/// in scan order in O(log n): the agents a whole-torus scan would list,
/// picked by the same two RNG draws. An attempt is decided from the two
/// agents' counts before anything moves, and an accepted swap costs two
/// flips of the fused kernel.
#[derive(Clone, Debug)]
pub struct KawasakiSim {
    /// Tracked = unhappy, kept per type.
    core: GridDynamics<[RankedSet; 2]>,
    intol: Intolerance,
    swaps: u64,
    failed_attempts: u64,
}

impl KawasakiSim {
    /// The swap dynamics over an explicit field: the state
    /// [`KawasakiSim::new`] takes over from a [`Simulation`] built from
    /// the same field, intolerance and RNG, without classifying the
    /// paper's flippable set first.
    ///
    /// # Panics
    ///
    /// On window/intolerance mismatches as in [`Simulation::from_field`].
    pub fn from_field(
        field: TypeField,
        horizon: u32,
        intol: Intolerance,
        rng: Xoshiro256pp,
    ) -> Self {
        let n_size = intol.neighborhood_size();
        KawasakiSim {
            core: GridDynamics::new(field, horizon, n_size, unhappy_class(intol), rng),
            intol,
            swaps: 0,
            failed_attempts: 0,
        }
    }

    /// Takes over a [`Simulation`]'s configuration, counts and RNG state
    /// (its Glauber stepper is not used).
    pub fn new(sim: Simulation) -> Self {
        let intol = sim.intolerance();
        KawasakiSim {
            core: sim
                .core
                .retrack(intol.neighborhood_size(), unhappy_class(intol)),
            intol,
            swaps: 0,
            failed_attempts: 0,
        }
    }

    /// The current configuration.
    pub fn field(&self) -> &TypeField {
        &self.core.field
    }

    /// The unhappy agents, `[Minus, Plus]`, each in scan order.
    pub fn unhappy_sets(&self) -> &[RankedSet; 2] {
        &self.core.tracked
    }

    /// Completed swaps.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Rejected swap attempts.
    pub fn failed_attempts(&self) -> u64 {
        self.failed_attempts
    }

    /// Attempts one swap: samples an unhappy agent of each type uniformly
    /// and swaps iff both become happy. Returns `Some(true)` on a swap,
    /// `Some(false)` on a rejected attempt, `None` when one side has no
    /// unhappy agents (the process is stuck/stable).
    pub fn try_swap(&mut self) -> Option<bool> {
        let [minus, plus] = &self.core.tracked;
        if plus.is_empty() || minus.is_empty() {
            return None;
        }
        let rng = &mut self.core.rng;
        let a = plus.select(rng.next_below(plus.len() as u64) as usize);
        let b = minus.select(rng.next_below(minus.len() as u64) as usize);
        let torus = self.core.field.torus();
        let (a, b) = (torus.from_index(a), torus.from_index(b));
        if self.swap_makes_both_happy(a, b) {
            // swapping opposite types == flipping both
            self.core.flip(a);
            self.core.flip(b);
            self.swaps += 1;
            Some(true)
        } else {
            self.failed_attempts += 1;
            Some(false)
        }
    }

    /// Whether swapping the `Plus` agent at `a` with the `Minus` agent at
    /// `b` leaves both happy. After the swap `a` counts the minus agents
    /// of its window plus itself, less `b` if `b` is in that window (and
    /// then `a` is in `b`'s); symmetrically for `b`.
    fn swap_makes_both_happy(&self, a: Point, b: Point) -> bool {
        let counts = &self.core.counts;
        let near = u32::from(self.core.field.torus().linf_distance(a, b) <= counts.horizon());
        let s_a = counts.minus_count(a) + 1 - near;
        let s_b = counts.plus_count(b) + 1 - near;
        self.intol.is_happy(s_a) && self.intol.is_happy(s_b)
    }

    /// Runs until `max_attempts` attempts have been made or no opposite
    /// unhappy pair exists. Returns the number of successful swaps.
    pub fn run(&mut self, max_attempts: u64) -> u64 {
        let s0 = self.swaps;
        for _ in 0..max_attempts {
            if self.try_swap().is_none() {
                break;
            }
        }
        self.swaps - s0
    }

    /// Full consistency audit: the counts, both unhappy sets and the
    /// unhappy total against the intolerance, and every member's rank
    /// and select against a scan of the torus. O(n²·N); for tests and
    /// debugging.
    pub fn audit(&self) -> bool {
        if !self.core.audit(unhappy_class(self.intol)) {
            return false;
        }
        let field = &self.core.field;
        [AgentType::Minus, AgentType::Plus].into_iter().all(|ty| {
            let set = &self.core.tracked[ty as usize];
            let scan: Vec<usize> = (0..field.torus().len())
                .filter(|&i| {
                    field.get_index(i) == ty
                        && !self
                            .intol
                            .is_happy(self.core.counts.same_count_index(i, ty))
                })
                .collect();
            set.len() == scan.len()
                && scan
                    .iter()
                    .enumerate()
                    .all(|(k, &i)| set.select(k) == i && set.rank(i) == k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use proptest::prelude::*;
    use seg_grid::Torus;

    /// The whole-torus-scan Kawasaki dynamics `KawasakiSim` replaced, kept
    /// as its reference: each attempt lists both types' unhappy agents in
    /// scan order, draws one of each, flips both and reverts unless both
    /// are happy.
    struct ScanKawasaki {
        sim: Simulation,
    }

    impl ScanKawasaki {
        fn unhappy_of(&self, ty: AgentType) -> Vec<Point> {
            let t = self.sim.torus();
            t.points()
                .filter(|p| self.sim.field().get(*p) == ty && !self.sim.is_happy(*p))
                .collect()
        }

        fn try_swap(&mut self) -> Option<bool> {
            let plus = self.unhappy_of(AgentType::Plus);
            let minus = self.unhappy_of(AgentType::Minus);
            if plus.is_empty() || minus.is_empty() {
                return None;
            }
            let rng = &mut self.sim.core.rng;
            let a = plus[rng.next_below(plus.len() as u64) as usize];
            let b = minus[rng.next_below(minus.len() as u64) as usize];
            self.sim.force_flip_at(a);
            self.sim.force_flip_at(b);
            if self.sim.is_happy(a) && self.sim.is_happy(b) {
                Some(true)
            } else {
                self.sim.force_flip_at(a);
                self.sim.force_flip_at(b);
                Some(false)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The ranked select picks the agents the scan picked, attempt by
        /// attempt, through random swap/reject sequences on random fields
        /// (densities away from ½, windows up to the torus side), and the
        /// per-type sets and ranks stay equal to a fresh scan.
        #[test]
        fn ranked_select_matches_the_scan(
            seed in any::<u64>(),
            n in 9u32..28,
            w in 1u32..5,
            tau in 0.25f64..0.7,
            density in 0.3f64..0.7,
            attempts in 1usize..300,
        ) {
            let w = w.min((n - 1) / 2);
            let build = || ModelConfig::new(n, w, tau).initial_density(density).seed(seed).build();
            let mut scan = ScanKawasaki { sim: build() };
            let mut k = KawasakiSim::new(build());
            for attempt in 0..attempts {
                let expected = scan.try_swap();
                prop_assert_eq!(k.try_swap(), expected, "attempt {}", attempt);
                if expected.is_none() {
                    break;
                }
            }
            prop_assert!(k.field().as_slice() == scan.sim.field().as_slice());
            prop_assert!(k.audit(), "audit failed");
        }
    }

    fn variant(n: u32, w: u32, tau: f64, rule: UpdateRule, seed: u64) -> VariantSim {
        let torus = Torus::new(n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = TypeField::random(torus, 0.5, &mut rng);
        let intol = Intolerance::new((2 * w + 1) * (2 * w + 1), tau);
        VariantSim::from_field(field, w, intol, rule, rng)
    }

    #[test]
    fn flip_when_unhappy_keeps_churning_above_half() {
        // at τ > 1/2 unconditional flips can cycle; the run cap terminates
        let mut v = variant(32, 2, 0.6, UpdateRule::FlipWhenUnhappy, 4);
        let flips = v.run(20_000);
        assert!(flips > 0, "unconditional rule must flip");
    }

    #[test]
    fn noise_injects_disorder() {
        // at τ > 1/2 some unhappy agents cannot improve: the paper's rule
        // (ε = 0) leaves them, the ε-coin flips some of them anyway
        let mut quiet = variant(32, 2, 0.55, UpdateRule::Noise(0.0), 6);
        quiet.run(100_000);
        let mut noisy = variant(32, 2, 0.55, UpdateRule::Noise(0.5), 6);
        noisy.run(100_000);
        assert!(noisy.flips() > quiet.flips());
    }

    #[test]
    fn kawasaki_conserves_type_counts() {
        let sim = ModelConfig::new(48, 2, 0.45).seed(9).build();
        let plus_before = sim.field().plus_total();
        let mut k = KawasakiSim::new(sim);
        k.run(2_000);
        assert_eq!(
            k.field().plus_total(),
            plus_before,
            "Kawasaki dynamics is closed"
        );
    }

    #[test]
    fn kawasaki_swaps_make_both_happy() {
        let sim = ModelConfig::new(48, 2, 0.4).seed(11).build();
        let mut k = KawasakiSim::new(sim);
        let mut checked = 0;
        for _ in 0..500 {
            let before = k.field().clone();
            match k.try_swap() {
                Some(true) => {
                    // the two agents that moved are happy where they landed
                    let t = before.torus();
                    let moved: Vec<Point> = t
                        .points()
                        .filter(|&p| before.get(p) != k.field().get(p))
                        .collect();
                    assert_eq!(moved.len(), 2);
                    for p in moved {
                        let s = k.core.same_count(p);
                        assert!(k.intol.is_happy(s), "{p} unhappy after its swap");
                    }
                    checked += 1;
                }
                Some(false) => assert_eq!(before.as_slice(), k.field().as_slice()),
                None => break,
            }
        }
        assert!(checked > 0, "no swap happened");
        assert!(k.audit());
    }

    #[test]
    #[should_panic(expected = "noise ε")]
    fn variant_rejects_bad_noise() {
        let _ = variant(16, 1, 0.4, UpdateRule::Noise(1.5), 0);
    }
}
