//! Multi-type (Potts-like) extension of the model — §I-A notes variants
//! with "multiple agent types" (e.g. Schulze's multi-cultural model).
//!
//! `k ≥ 2` agent types live on the torus; an agent is happy iff the
//! fraction of its own type in its neighborhood is at least τ. When an
//! unhappy agent acts, it may switch to any type that would make it happy
//! (the open-system/Glauber reading: the agent leaves and a newcomer of a
//! locally viable type takes the spot); among happy-making types it picks
//! the most numerous in its neighborhood, breaking ties by smallest type
//! id. With `k = 2` this coincides with the paper's model.

use crate::intolerance::Intolerance;
use crate::metrics::Clusters;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{box_filter, for_each_window_run, window_fits, IndexedSet, Point, Torus};

/// Class bits: happy; eligible (unhappy, with a happy-making type).
const HAPPY: u8 = 1;
const ELIGIBLE: u8 = 2;

/// A `k`-type Glauber segregation model: `k` planes of window counts, each
/// the [`box_filter`] of one type's indicator, updated along the flip
/// window's row runs ([`for_each_window_run`]) like the two-type kernel.
#[derive(Clone, Debug)]
pub struct MultiSim {
    torus: Torus,
    horizon: u32,
    k: u8,
    types: Vec<u8>,
    /// counts[t * n² + i] = number of type-t agents in cell i's window
    counts: Vec<u32>,
    intol: Intolerance,
    flippable: IndexedSet,
    /// class[i] = the [`HAPPY`] and [`ELIGIBLE`] bits of cell i
    class: Vec<u8>,
    /// Number of cells without [`HAPPY`].
    unhappy: usize,
    rng: Xoshiro256pp,
    flips: u64,
}

impl MultiSim {
    /// Samples a uniform random `k`-type field.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, the window does not fit, or τ̃ is not a
    /// probability.
    pub fn random(n: u32, horizon: u32, k: u8, tau_tilde: f64, seed: u64) -> Self {
        assert!(k >= 2, "need at least two types");
        let torus = Torus::new(n);
        assert!(window_fits(n, horizon), "window diameter exceeds grid side");
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let types: Vec<u8> = (0..torus.len())
            .map(|_| rng.next_below(k as u64) as u8)
            .collect();
        let n_size = (2 * horizon + 1) * (2 * horizon + 1);
        let intol = Intolerance::new(n_size, tau_tilde);
        let mut sim = MultiSim {
            torus,
            horizon,
            k,
            counts: Vec::with_capacity(torus.len() * k as usize),
            types,
            intol,
            flippable: IndexedSet::new(0),
            class: Vec::new(),
            unhappy: 0,
            rng,
            flips: 0,
        };
        sim.rebuild();
        sim
    }

    /// Recounts every type's plane with the box filter, then classifies
    /// every agent in one pass with no branch per cell and fills the
    /// flippable set in bulk, in index order ([`IndexedSet::from_words`]).
    fn rebuild(&mut self) {
        let (torus, w) = (self.torus, self.horizon);
        self.counts.clear();
        for t in 0..self.k {
            box_filter(torus, w, &self.types, |&ty| ty == t, &mut self.counts);
        }
        let mut class = vec![0; torus.len()];
        let mut eligible = vec![0u64; torus.len().div_ceil(64)];
        let mut unhappy = 0;
        for (i, c) in class.iter_mut().enumerate() {
            *c = self.class_of(i);
            unhappy += usize::from(*c & HAPPY == 0);
            eligible[i / 64] |= u64::from((*c & ELIGIBLE) >> 1) << (i % 64);
        }
        self.flippable = IndexedSet::from_words(torus.len(), &eligible);
        self.class = class;
        self.unhappy = unhappy;
    }

    /// The class bits of cell `i`, with no data-dependent branch: happy
    /// at `thr` own-type agents, eligible if unhappy and some other type
    /// plus the agent reaches `thr`.
    #[inline(always)]
    fn class_of(&self, i: usize) -> u8 {
        let (me, plane) = (usize::from(self.types[i]), self.torus.len());
        let thr = self.intol.threshold();
        let happy = self.counts[me * plane + i] >= thr;
        let mut viable = false;
        for t in 0..usize::from(self.k) {
            viable |= (t != me) & (self.counts[t * plane + i] + 1 >= thr);
        }
        u8::from(happy) * HAPPY + u8::from(!happy & viable) * ELIGIBLE
    }

    /// Reclassifies cell `i` ([`MultiSim::class_of`]). Moves the unhappy
    /// total by the happy bit's change and writes `flippable` only where
    /// eligibility changed.
    #[inline(always)]
    fn reclassify(&mut self, i: usize) {
        let now = self.class_of(i);
        let was = self.class[i];
        debug_assert_eq!(self.flippable.contains(i), was & ELIGIBLE != 0, "cell {i}");
        self.unhappy = self.unhappy + usize::from(was & HAPPY) - usize::from(now & HAPPY);
        self.class[i] = now;
        match ((was ^ now) & ELIGIBLE != 0, now & ELIGIBLE != 0) {
            (true, true) => self.flippable.insert(i),
            (true, false) => self.flippable.remove(i),
            (false, _) => {}
        }
    }

    /// Recomputes the counts, class bits, unhappy total and flippable set
    /// from the types and reports whether the maintained ones equal them.
    pub fn audit(&self) -> bool {
        let mut fresh = self.clone();
        fresh.rebuild();
        fresh.counts == self.counts
            && fresh.class == self.class
            && fresh.unhappy == self.unhappy
            && fresh.flippable.sorted() == self.flippable.sorted()
    }

    /// Flips so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The type of the agent at `p`.
    pub fn type_at(&self, p: Point) -> u8 {
        self.types[self.torus.index(p)]
    }

    /// A type that would make the agent at cell `i` happy after a switch
    /// (own-type count gains 1 for the agent itself), preferring the most
    /// numerous; `None` if no type works.
    fn best_retype(&self, i: usize) -> Option<u8> {
        let me = self.types[i] as usize;
        let mut best: Option<(u32, u8)> = None;
        for (t, c) in self.counts[i..]
            .iter()
            .step_by(self.torus.len())
            .enumerate()
        {
            // after switching, own count = current count of t + 1 (self)
            let own = c + 1;
            if t != me && self.intol.is_happy(own) && best.is_none_or(|b| own > b.0) {
                best = Some((own, t as u8));
            }
        }
        best.map(|(_, t)| t)
    }

    /// Number of unhappy agents — O(1), maintained incrementally by
    /// [`MultiSim::step`] instead of rescanning every cell.
    pub fn unhappy_count(&self) -> usize {
        self.unhappy
    }

    /// The agents eligible to act, by cell index, in the order a step
    /// samples them.
    pub fn flippable_set(&self) -> &IndexedSet {
        &self.flippable
    }

    /// Each cell's class: bit 0 set when the agent is happy, bit 1 when
    /// it is eligible to act (unhappy, with a type that would make it
    /// happy).
    pub fn class_bits(&self) -> &[u8] {
        &self.class
    }

    /// Number of agents eligible to act.
    pub fn flippable_count(&self) -> usize {
        self.flippable.len()
    }

    /// One step: a uniformly chosen eligible agent switches to its best
    /// happy-making type. `None` when stable.
    ///
    /// Each window row run first moves two count slices (old type −1, new
    /// type +1), then reclassifies its cells in order. A class depends only
    /// on the cell's own counts and type, so the flippable set sees the
    /// insert/remove sequence of a count pass, then a row-major classify.
    pub fn step(&mut self) -> Option<Point> {
        let i = self.flippable.sample(&mut self.rng)?;
        let new_t = self
            .best_retype(i)
            .expect("flippable set only holds eligible agents");
        let old_t = usize::from(self.types[i]);
        self.types[i] = new_t;
        self.flips += 1;
        let plane = self.torus.len();
        let (old, new) = (old_t * plane, usize::from(new_t) * plane);
        let at = self.torus.from_index(i);
        for_each_window_run(self.torus, self.horizon, at, |run| {
            for c in &mut self.counts[old + run.start..old + run.end] {
                *c -= 1;
            }
            for c in &mut self.counts[new + run.start..new + run.end] {
                *c += 1;
            }
            for v in run {
                self.reclassify(v);
            }
        });
        Some(at)
    }

    /// Runs until stable or the budget is exhausted; `true` on stability.
    pub fn run(&mut self, max_flips: u64) -> bool {
        for _ in 0..max_flips {
            if self.step().is_none() {
                return true;
            }
        }
        self.flippable.is_empty()
    }

    /// Per-type totals across the torus.
    pub fn type_totals(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.k as usize];
        self.types.iter().for_each(|&t| out[t as usize] += 1);
        out
    }

    /// Size of the largest same-type 4-connected cluster.
    pub fn largest_cluster(&self) -> usize {
        Clusters::scan(self.torus.side() as usize, &self.types).largest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Count of type-`t` agents in the ball around `p`.
    fn count_of(sim: &MultiSim, p: Point, t: u8) -> u32 {
        sim.counts[usize::from(t) * sim.torus.len() + sim.torus.index(p)]
    }

    /// The two-pass step `MultiSim::step` replaced, kept as its reference:
    /// one `Torus::offset` walk over the window moves every count, a
    /// second reclassifies every window cell and inserts or removes it
    /// unconditionally.
    struct TwoPassMulti {
        sim: MultiSim,
    }

    impl TwoPassMulti {
        fn step(&mut self) -> Option<Point> {
            let sim = &mut self.sim;
            let i = sim.flippable.sample(&mut sim.rng)?;
            let new_t = sim.best_retype(i).expect("eligible");
            let at = sim.torus.from_index(i);
            let old_t = sim.types[i] as usize;
            sim.types[i] = new_t;
            sim.flips += 1;
            let plane = sim.torus.len();
            let w = sim.horizon as i64;
            for dy in -w..=w {
                for dx in -w..=w {
                    let vi = sim.torus.index(sim.torus.offset(at, dx, dy));
                    sim.counts[old_t * plane + vi] -= 1;
                    sim.counts[new_t as usize * plane + vi] += 1;
                }
            }
            for dy in -w..=w {
                for dx in -w..=w {
                    let vi = sim.torus.index(sim.torus.offset(at, dx, dy));
                    let me = sim.types[vi] as usize;
                    let h = sim.intol.is_happy(sim.counts[me * plane + vi]);
                    if h != (sim.class[vi] & HAPPY != 0) {
                        if h {
                            sim.unhappy -= 1;
                        } else {
                            sim.unhappy += 1;
                        }
                    }
                    let eligible = !h && sim.best_retype(vi).is_some();
                    sim.class[vi] = u8::from(h) * HAPPY + u8::from(eligible) * ELIGIBLE;
                    if eligible {
                        sim.flippable.insert(vi);
                    } else {
                        sim.flippable.remove(vi);
                    }
                }
            }
            Some(at)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused step acts on the agents the two-pass step acted on,
        /// step by step, on random k, w, τ and sides (windows up to the
        /// side), and leaves the same types, counts, classes, unhappy
        /// total and flippable set, in the same set order.
        #[test]
        fn fused_step_matches_the_two_pass_step(
            seed in any::<u64>(),
            n in 3u32..26,
            w in 1u32..6,
            k in 2u8..7,
            tau in 0.15f64..0.7,
            steps in 1usize..400,
        ) {
            let w = w.min((n - 1) / 2);
            let mut fused = MultiSim::random(n, w, k, tau, seed);
            let mut two_pass = TwoPassMulti { sim: fused.clone() };
            for step in 0..steps {
                let expected = two_pass.step();
                prop_assert_eq!(fused.step(), expected, "step {}", step);
                if expected.is_none() {
                    break;
                }
            }
            let reference = &two_pass.sim;
            prop_assert_eq!(&fused.types, &reference.types);
            prop_assert_eq!(&fused.counts, &reference.counts);
            prop_assert_eq!(&fused.class, &reference.class);
            prop_assert_eq!(fused.unhappy, reference.unhappy);
            prop_assert_eq!(
                fused.flippable.iter().collect::<Vec<_>>(),
                reference.flippable.iter().collect::<Vec<_>>()
            );
            prop_assert!(fused.audit(), "audit failed");
        }
    }

    #[test]
    fn counts_sum_to_neighborhood_size() {
        let sim = MultiSim::random(32, 2, 3, 0.4, 1);
        let nsize = sim.intol.neighborhood_size();
        for i in 0..sim.torus.len() {
            let total: u32 = (0..sim.k)
                .map(|t| count_of(&sim, sim.torus.from_index(i), t))
                .sum();
            assert_eq!(total, nsize);
        }
    }

    #[test]
    fn two_types_terminate_and_segregate() {
        let mut sim = MultiSim::random(64, 2, 2, 0.44, 3);
        let before = sim.largest_cluster();
        assert!(
            sim.run(10_000_000),
            "k = 2 is the paper's model: terminates"
        );
        assert_eq!(sim.unhappy_count(), 0);
        assert!(sim.largest_cluster() > 3 * before);
    }

    #[test]
    fn two_types_classify_as_the_papers_model() {
        // k = 2 is the paper's model: mapped to a two-type field, every
        // cell's happy bit and eligibility are the paper's predicates of
        // its same-type count, before and along a trajectory
        use seg_grid::{AgentType, TypeField, WindowCounts};
        for (tau, seed) in [(0.40, 1), (0.45, 2), (0.55, 3), (0.60, 4)] {
            let mut sim = MultiSim::random(32, 2, 2, tau, seed);
            for round in 0..4 {
                let types = sim
                    .types
                    .iter()
                    .map(|&t| {
                        if t == 1 {
                            AgentType::Plus
                        } else {
                            AgentType::Minus
                        }
                    })
                    .collect();
                let field = TypeField::from_types(sim.torus, types);
                let counts = WindowCounts::new(&field, sim.horizon);
                for i in 0..sim.torus.len() {
                    let s = counts.same_count_index(i, field.get_index(i));
                    let at = format!("τ={tau} round={round} cell={i} S={s}");
                    assert_eq!(sim.class[i] & HAPPY != 0, sim.intol.is_happy(s), "{at}");
                    assert_eq!(sim.flippable.contains(i), sim.intol.is_flippable(s), "{at}");
                }
                for _ in 0..100 {
                    sim.step();
                }
            }
        }
    }

    #[test]
    fn three_types_with_low_tau_stabilize() {
        // with k = 3 the typical own-type fraction is 1/3; τ = 0.3 keeps
        // most agents happy and the rest fixable
        let mut sim = MultiSim::random(64, 2, 3, 0.30, 5);
        let stable = sim.run(20_000_000);
        assert!(stable, "three-type model should stabilize at τ = 0.30");
        assert_eq!(sim.unhappy_count(), 0);
    }

    /// Every window's per-type counts, one `Torus::offset` per cell of
    /// each window.
    fn naive_counts(sim: &MultiSim) -> Vec<u32> {
        let (t, k, w) = (sim.torus, sim.k as usize, i64::from(sim.horizon));
        let mut counts = vec![0; t.len() * k];
        let plane = t.len();
        for i in 0..t.len() {
            let p = t.from_index(i);
            for dy in -w..=w {
                for dx in -w..=w {
                    let q = t.offset(p, dx, dy);
                    counts[sim.types[t.index(q)] as usize * plane + i] += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn box_filter_counts_match_a_naive_count() {
        // the last two windows span the whole torus side
        for (n, w, k, seed) in [(24, 1, 4, 1), (17, 3, 3, 2), (9, 4, 5, 3), (13, 6, 2, 4)] {
            let sim = MultiSim::random(n, w, k, 0.35, seed);
            assert_eq!(sim.counts, naive_counts(&sim), "n={n} w={w} k={k}");
        }
    }

    #[test]
    fn step_keeps_counts_consistent() {
        for (n, w, k, tau, seed) in [(24, 1, 4, 0.35, 9), (9, 4, 3, 0.4, 8), (20, 3, 5, 0.25, 2)] {
            let mut sim = MultiSim::random(n, w, k, tau, seed);
            for _ in 0..200 {
                if sim.step().is_none() {
                    break;
                }
                assert!(sim.audit(), "n={n} w={w} k={k}: audit failed");
            }
            // a naive per-cell count as the reference for the box filter
            assert_eq!(
                sim.counts,
                naive_counts(&sim),
                "incremental counts diverged"
            );
        }
    }

    #[test]
    fn audit_catches_stale_state() {
        let sim = MultiSim::random(16, 1, 3, 0.4, 3);
        assert!(sim.audit());
        let mut stale = sim.clone();
        stale.counts[5] += 1;
        assert!(!stale.audit(), "stale count");
        let mut stale = sim.clone();
        stale.unhappy += 1;
        assert!(!stale.audit(), "stale unhappy total");
        let mut stale = sim.clone();
        let i = (0..sim.torus.len())
            .find(|&i| sim.class[i] & ELIGIBLE == 0)
            .unwrap();
        stale.flippable.insert(i);
        assert!(!stale.audit(), "stale flippable set");
    }

    #[test]
    fn maintained_unhappy_count_matches_a_rescan_along_a_trajectory() {
        let mut sim = MultiSim::random(20, 2, 3, 0.4, 17);
        for step in 0..300 {
            let rescan = sim
                .torus
                .points()
                .filter(|&p| !sim.intol.is_happy(count_of(&sim, p, sim.type_at(p))))
                .count();
            assert_eq!(sim.unhappy_count(), rescan, "diverged at step {step}");
            if sim.step().is_none() {
                break;
            }
        }
    }

    #[test]
    fn totals_track_population() {
        let sim = MultiSim::random(32, 2, 5, 0.3, 2);
        let totals = sim.type_totals();
        assert_eq!(totals.iter().sum::<usize>(), 1024);
        assert_eq!(totals.len(), 5);
        // roughly uniform
        for &t in &totals {
            assert!(t > 120 && t < 300, "totals = {totals:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two types")]
    fn one_type_panics() {
        let _ = MultiSim::random(16, 1, 1, 0.4, 0);
    }

    #[test]
    #[should_panic(expected = "window diameter")]
    fn wrapping_horizon_is_refused() {
        let _ = MultiSim::random(16, 1 << 31, 3, 0.45, 0);
    }
}
