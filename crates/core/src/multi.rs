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
use seg_grid::{window_fits, AgentType, IndexedSet, Point, Torus, TypeField, WindowCounts};

/// A `k`-type Glauber segregation model.
#[derive(Clone, Debug)]
pub struct MultiSim {
    torus: Torus,
    horizon: u32,
    k: u8,
    types: Vec<u8>,
    /// counts[i * k + t] = number of type-t agents in the ball around cell i
    counts: Vec<u32>,
    intol: Intolerance,
    flippable: IndexedSet,
    /// happy[i] mirrors `is_happy_at(i)`, maintained incrementally so
    /// `unhappy_count` never rescans (the k-type analogue of the 2-type
    /// `ClassTable` bookkeeping).
    happy: Vec<bool>,
    /// Number of `false` entries in `happy`.
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
            counts: vec![0; torus.len() * k as usize],
            types,
            intol,
            flippable: IndexedSet::new(torus.len()),
            happy: vec![false; torus.len()],
            unhappy: 0,
            rng,
            flips: 0,
        };
        sim.rebuild();
        sim
    }

    /// Recounts every window, type by type with the separable box filter
    /// of [`WindowCounts::new`] over the type's indicator field, and
    /// reclassifies every agent.
    fn rebuild(&mut self) {
        let k = self.k as usize;
        for t in 0..self.k {
            let indicator = TypeField::from_types(
                self.torus,
                self.types
                    .iter()
                    .map(|&ty| {
                        if ty == t {
                            AgentType::Plus
                        } else {
                            AgentType::Minus
                        }
                    })
                    .collect(),
            );
            let windows = WindowCounts::new(&indicator, self.horizon);
            for (i, c) in self
                .counts
                .iter_mut()
                .skip(t as usize)
                .step_by(k)
                .enumerate()
            {
                *c = windows.plus_count_index(i);
            }
        }
        self.unhappy = 0;
        for i in 0..self.torus.len() {
            let h = self.is_happy_at(i);
            self.happy[i] = h;
            if !h {
                self.unhappy += 1;
            }
            if !h && self.best_retype(i).is_some() {
                self.flippable.insert(i);
            } else {
                self.flippable.remove(i);
            }
        }
    }

    /// Number of types.
    pub fn type_count(&self) -> u8 {
        self.k
    }

    /// Flips so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The type of the agent at `p`.
    pub fn type_at(&self, p: Point) -> u8 {
        self.types[self.torus.index(p)]
    }

    /// Count of type-`t` agents in the ball around `p`.
    pub fn count_of(&self, p: Point, t: u8) -> u32 {
        self.counts[self.torus.index(p) * self.k as usize + t as usize]
    }

    /// Whether the agent at cell `i` is happy, computed from the counts
    /// (the maintained `happy` vector caches exactly this).
    fn is_happy_at(&self, i: usize) -> bool {
        let me = self.types[i] as usize;
        self.intol.is_happy(self.counts[i * self.k as usize + me])
    }

    /// A type that would make the agent at cell `i` happy after a switch
    /// (own-type count gains 1 for the agent itself), preferring the most
    /// numerous; `None` if no type works.
    fn best_retype(&self, i: usize) -> Option<u8> {
        let k = self.k as usize;
        let me = self.types[i] as usize;
        let mut best: Option<(u32, u8)> = None;
        for t in 0..k {
            if t == me {
                continue;
            }
            // after switching, own count = current count of t + 1 (self)
            let own = self.counts[i * k + t] + 1;
            if self.intol.is_happy(own) {
                let cand = (own, t as u8);
                best = Some(match best {
                    None => cand,
                    Some(b) if cand.0 > b.0 => cand,
                    Some(b) => b,
                });
            }
        }
        best.map(|(_, t)| t)
    }

    /// Number of unhappy agents — O(1), maintained incrementally by
    /// [`MultiSim::step`] instead of rescanning every cell.
    pub fn unhappy_count(&self) -> usize {
        self.unhappy
    }

    /// Number of agents eligible to act.
    pub fn flippable_count(&self) -> usize {
        self.flippable.len()
    }

    /// One step: a uniformly chosen eligible agent switches to its best
    /// happy-making type. `None` when stable.
    pub fn step(&mut self) -> Option<Point> {
        let i = self.flippable.sample(&mut self.rng)?;
        let new_t = self
            .best_retype(i)
            .expect("flippable set only holds eligible agents");
        let at = self.torus.from_index(i);
        let old_t = self.types[i] as usize;
        self.types[i] = new_t;
        self.flips += 1;
        let k = self.k as usize;
        let w = self.horizon as i64;
        for dy in -w..=w {
            for dx in -w..=w {
                let v = self.torus.offset(at, dx, dy);
                let vi = self.torus.index(v);
                self.counts[vi * k + old_t] -= 1;
                self.counts[vi * k + new_t as usize] += 1;
            }
        }
        for dy in -w..=w {
            for dx in -w..=w {
                let v = self.torus.offset(at, dx, dy);
                let vi = self.torus.index(v);
                // only cells inside the window saw their counts (or, for
                // the actor, their type) change, so reclassifying them
                // keeps the happy vector and unhappy counter exact
                let h = self.is_happy_at(vi);
                if h != self.happy[vi] {
                    self.happy[vi] = h;
                    if h {
                        self.unhappy -= 1;
                    } else {
                        self.unhappy += 1;
                    }
                }
                if !h && self.best_retype(vi).is_some() {
                    self.flippable.insert(vi);
                } else {
                    self.flippable.remove(vi);
                }
            }
        }
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
        for &t in &self.types {
            out[t as usize] += 1;
        }
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

    #[test]
    fn counts_sum_to_neighborhood_size() {
        let sim = MultiSim::random(32, 2, 3, 0.4, 1);
        let k = sim.k as usize;
        let nsize = sim.intol.neighborhood_size();
        for i in 0..sim.torus.len() {
            let total: u32 = (0..k).map(|t| sim.counts[i * k + t]).sum();
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
                    assert_eq!(sim.happy[i], sim.intol.is_happy(s), "{at}");
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
        for i in 0..t.len() {
            let p = t.from_index(i);
            for dy in -w..=w {
                for dx in -w..=w {
                    let q = t.offset(p, dx, dy);
                    counts[i * k + sim.types[t.index(q)] as usize] += 1;
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
        let mut sim = MultiSim::random(24, 1, 4, 0.35, 9);
        for _ in 0..200 {
            if sim.step().is_none() {
                break;
            }
        }
        // a naive per-cell count, then a rebuild, as references
        let snapshot = sim.counts.clone();
        assert_eq!(snapshot, naive_counts(&sim), "incremental counts diverged");
        let happy_snapshot = sim.happy.clone();
        let unhappy_snapshot = sim.unhappy_count();
        let flippable_snapshot: Vec<bool> = (0..sim.torus.len())
            .map(|i| sim.flippable.contains(i))
            .collect();
        sim.rebuild();
        assert_eq!(snapshot, sim.counts, "rebuilt counts diverged");
        assert_eq!(happy_snapshot, sim.happy, "happy vector diverged");
        assert_eq!(
            unhappy_snapshot,
            sim.unhappy_count(),
            "unhappy counter diverged"
        );
        let rebuilt: Vec<bool> = (0..sim.torus.len())
            .map(|i| sim.flippable.contains(i))
            .collect();
        assert_eq!(flippable_snapshot, rebuilt, "eligibility diverged");
    }

    #[test]
    fn maintained_unhappy_count_matches_a_rescan_along_a_trajectory() {
        let mut sim = MultiSim::random(20, 2, 3, 0.4, 17);
        for step in 0..300 {
            let rescan = (0..sim.torus.len())
                .filter(|&i| !sim.is_happy_at(i))
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
