//! The grid-dynamics core shared by the two-type processes on the torus.
//!
//! The paper's process ([`Simulation`](crate::sim::Simulation)), the §I-A
//! variants ([`VariantSim`](crate::variants::VariantSim)) and the §V
//! comfort band ([`IntervalSim`](crate::interval::IntervalSim)) run one
//! jump chain: sample an agent from a tracked set, maybe flip it, repair
//! the bookkeeping. They differ only in how the same-type count `S`
//! classifies an agent — *tracked* (eligible to be sampled) and *unhappy*
//! (counted) — and in what a sampled agent does. [`GridDynamics`] owns
//! everything but that rule.

use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, ClassTable, IndexedSet, Point, TypeField, WindowCounts};

/// A configuration, its window counts, the tracked set and unhappy count
/// of one rule, the RNG and the flip counter.
///
/// The rule enters as its window size `N` and `classify(same_count) ->
/// (tracked, unhappy)`. `classify` is evaluated for every `S ∈ 0..=N` when
/// the class table is built, so it must tolerate the unreachable `S = 0`.
/// The processes read the fields; only [`GridDynamics::flip`] writes the
/// configuration, and every flip goes through the fused kernel, which
/// keeps the tracked set and the unhappy count exact in O(N).
#[derive(Clone, Debug)]
pub(crate) struct GridDynamics {
    pub(crate) field: TypeField,
    pub(crate) counts: WindowCounts,
    /// The rule's classes, precomputed for the fused flip kernel.
    classes: ClassTable,
    /// Agents whose class has [`ClassTable::TRACKED`] set.
    pub(crate) tracked: IndexedSet,
    /// Incrementally-maintained number of unhappy agents.
    pub(crate) unhappy: usize,
    pub(crate) rng: Xoshiro256pp,
    pub(crate) flips: u64,
}

impl GridDynamics {
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
        let mut core = GridDynamics {
            classes: class_table(&counts, n_size, classify),
            tracked: IndexedSet::new(field.torus().len()),
            unhappy: 0,
            field,
            counts,
            rng,
            flips: 0,
        };
        core.classify_all();
        core
    }

    /// Replaces the rule and reclassifies every agent.
    ///
    /// # Panics
    ///
    /// Panics if the rule is sized for another `N`.
    pub(crate) fn reclassify(&mut self, n_size: u32, classify: impl FnMut(u32) -> (bool, bool)) {
        self.classes = class_table(&self.counts, n_size, classify);
        self.classify_all();
    }

    /// The classify pass over the torus, in index order: tracked
    /// membership and the unhappy total, from the class table.
    fn classify_all(&mut self) {
        self.unhappy = 0;
        for i in 0..self.field.torus().len() {
            let c = self
                .classes
                .class(self.field.get_index(i), self.counts.plus_count_index(i));
            if c & ClassTable::TRACKED != 0 {
                self.tracked.insert(i);
            } else {
                self.tracked.remove(i);
            }
            self.unhappy += usize::from(c & ClassTable::UNHAPPY != 0);
        }
    }

    /// Same-type count `S(u)` of the agent at `u`.
    #[inline]
    pub(crate) fn same_count(&self, u: Point) -> u32 {
        self.counts.same_count(u, self.field.get(u))
    }

    /// A uniformly chosen tracked agent: one RNG draw, or `None` and no
    /// draw when the set is empty.
    #[inline]
    pub(crate) fn sample(&mut self) -> Option<Point> {
        let i = self.tracked.sample(&mut self.rng)?;
        Some(self.field.torus().from_index(i))
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
