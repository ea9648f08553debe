//! The grid-dynamics core shared by the two-type processes on the torus.
//!
//! The paper's process ([`Simulation`](crate::sim::Simulation)), the §I-A
//! variants ([`VariantSim`](crate::variants::VariantSim)) and the §V
//! comfort band ([`IntervalSim`](crate::interval::IntervalSim)) run one
//! jump chain: sample an agent from a tracked set, maybe flip it, repair
//! the bookkeeping. They differ only in how the same-type count `S`
//! classifies an agent — *tracked* (eligible to be sampled) and *unhappy*
//! (counted) — and in what a sampled agent does. The §I-A Kawasaki swap
//! ([`KawasakiSim`](crate::variants::KawasakiSim)) runs on the same core
//! with its unhappy agents kept per type in ranked sets, from which it
//! draws one agent of each type. [`GridDynamics`] owns everything but
//! the rule.

use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, ClassTable, IndexedSet, Point, TrackedSet, TypeField, WindowCounts};

/// A configuration, its window counts, the tracked set and unhappy count
/// of one rule, the RNG and the flip counter.
///
/// The rule enters as its window size `N` and `classify(same_count) ->
/// (tracked, unhappy)`. `classify` is evaluated for every `S ∈ 0..=N` when
/// the class table is built, so it must tolerate the unreachable `S = 0`.
/// The processes read the fields; only [`GridDynamics::flip`] writes the
/// configuration, and every flip goes through the fused kernel, which
/// keeps the tracked set and the unhappy count exact in O(N).
///
/// The tracked set is an [`IndexedSet`] for the processes that sample a
/// uniform tracked agent, and per-type ranked sets (`[RankedSet; 2]`) for
/// the Kawasaki swap, which draws the `k`-th unhappy agent of each type
/// in scan order.
#[derive(Clone, Debug)]
pub(crate) struct GridDynamics<T = IndexedSet> {
    pub(crate) field: TypeField,
    pub(crate) counts: WindowCounts,
    /// The rule's classes, precomputed for the fused flip kernel.
    classes: ClassTable,
    /// Agents whose class has [`ClassTable::TRACKED`] set.
    pub(crate) tracked: T,
    /// Incrementally-maintained number of unhappy agents.
    pub(crate) unhappy: usize,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) flips: u64,
}

impl<T: TrackedSet> GridDynamics<T> {
    /// Counts every window of `field` and classifies every agent.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the torus (see
    /// [`WindowCounts::new`]) or the rule is sized for another `N`.
    pub(crate) fn new(
        field: TypeField,
        horizon: u32,
        n_size: u32,
        classify: impl FnMut(u32) -> (bool, bool),
        rng: Xoshiro256pp,
    ) -> Self {
        let counts = WindowCounts::new(&field, horizon);
        Self::from_counts(field, counts, n_size, classify, rng, 0)
    }

    /// The core over `counts`, which must count `field`'s windows: one
    /// pass over the torus classifies every agent from the class table
    /// ([`ClassTable::classify_all`]) and the tracked set is filled in
    /// bulk ([`TrackedSet::collect`]).
    fn from_counts(
        field: TypeField,
        counts: WindowCounts,
        n_size: u32,
        classify: impl FnMut(u32) -> (bool, bool),
        rng: Xoshiro256pp,
        flips: u64,
    ) -> Self {
        let classes = class_table(&counts, n_size, classify);
        let (tracked, unhappy) = classes.classify_all(field.as_slice(), &counts);
        let tracked = T::collect(field.as_slice(), &tracked);
        GridDynamics {
            classes,
            tracked,
            unhappy,
            field,
            counts,
            rng,
            flips,
        }
    }

    /// The same configuration, counts, RNG state and flip count under
    /// another rule, which may keep another kind of tracked set.
    ///
    /// # Panics
    ///
    /// Panics if the rule is sized for another `N`.
    pub(crate) fn retrack<U: TrackedSet>(
        self,
        n_size: u32,
        classify: impl FnMut(u32) -> (bool, bool),
    ) -> GridDynamics<U> {
        GridDynamics::from_counts(
            self.field,
            self.counts,
            n_size,
            classify,
            self.rng,
            self.flips,
        )
    }

    /// Replaces the rule and reclassifies every agent, in index order and
    /// one by one, so the tracked set keeps the order of the members that
    /// stay.
    ///
    /// # Panics
    ///
    /// Panics if the rule is sized for another `N`.
    pub(crate) fn reclassify(&mut self, n_size: u32, classify: impl FnMut(u32) -> (bool, bool)) {
        self.classes = class_table(&self.counts, n_size, classify);
        self.unhappy = 0;
        for i in 0..self.field.torus().len() {
            let ty = self.field.get_index(i);
            let c = self.classes.class(ty, self.counts.plus_count_index(i));
            if c & ClassTable::TRACKED != 0 {
                self.tracked.insert(i, ty);
            } else {
                self.tracked.remove(i, ty);
            }
            self.unhappy += usize::from(c & ClassTable::UNHAPPY != 0);
        }
    }

    /// Same-type count `S(u)` of the agent at `u`.
    #[inline]
    pub(crate) fn same_count(&self, u: Point) -> u32 {
        self.counts.same_count(u, self.field.get(u))
    }

    /// Flips the agent at `at` and repairs the counts, the tracked set and
    /// the unhappy count in one pass over its window. Returns the agent's
    /// new type.
    #[inline]
    pub(crate) fn flip(&mut self, at: Point) -> AgentType {
        let new_type = self.field.flip(at);
        self.flips += 1;
        let delta = self.counts.apply_flip_fused(
            at,
            new_type,
            &self.field,
            &self.classes,
            &mut self.tracked,
        );
        self.unhappy = (self.unhappy as i64 + delta) as usize;
        new_type
    }

    /// Full consistency audit: recomputes the counts from the field, and
    /// tracked membership and the unhappy total from `classify` (not from
    /// the class table), and compares. O(n²·N); for tests and debugging.
    pub(crate) fn audit(&self, mut classify: impl FnMut(u32) -> (bool, bool)) -> bool {
        if !self.counts.verify_against(&self.field) {
            return false;
        }
        let mut unhappy = 0;
        for i in 0..self.field.torus().len() {
            let (tracked, is_unhappy) =
                classify(self.counts.same_count_index(i, self.field.get_index(i)));
            if tracked != self.tracked.contains(i) {
                return false;
            }
            unhappy += usize::from(is_unhappy);
        }
        unhappy == self.unhappy
    }
}

impl GridDynamics {
    /// A uniformly chosen tracked agent: one RNG draw, or `None` and no
    /// draw when the set is empty.
    // always: with the core generic, `#[inline]` alone left it a call
    // out of `Simulation::step`
    #[inline(always)]
    pub(crate) fn sample(&mut self) -> Option<Point> {
        let i = self.tracked.sample(&mut self.rng)?;
        Some(self.field.torus().from_index(i))
    }
}

/// The class table of a rule sized for `n_size` over `counts`' windows.
fn class_table(
    counts: &WindowCounts,
    n_size: u32,
    classify: impl FnMut(u32) -> (bool, bool),
) -> ClassTable {
    assert_eq!(
        n_size,
        counts.neighborhood_size(),
        "the rule must match the window size"
    );
    ClassTable::build_same_count(n_size, classify)
}
