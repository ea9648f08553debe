//! The exact event-driven Glauber dynamics (§II-A).

use crate::dynamics::GridDynamics;
use crate::intolerance::Intolerance;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, IndexedSet, Point, Torus, TypeField, WindowCounts};

/// Summary of a [`Simulation::run_to_stable`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunReport {
    /// Number of flips performed during this call.
    pub flips: u64,
    /// Whether the process reached a stable state (no flippable agents).
    pub terminated: bool,
    /// Continuous time elapsed during this call.
    pub elapsed_time: f64,
}

/// A single flip event, as recorded by [`Simulation::step`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlipEvent {
    /// The agent that flipped.
    pub at: Point,
    /// Its type after the flip.
    pub new_type: AgentType,
    /// Continuous time of the event.
    pub time: f64,
}

/// The paper's process, simulated exactly.
///
/// Every agent carries a rate-1 Poisson clock; a ring flips the agent iff
/// it is unhappy and the flip makes it happy. Rings of non-flippable
/// agents change nothing, so the simulation integrates them out: with `F`
/// flippable agents the time to the next effective event is `Exp(F)` and
/// the flipping agent is uniform over the flippable set — exactly the law
/// of the embedded jump chain of the paper's continuous-time process.
///
/// A flip touches the `(2w+1)²` neighborhoods containing it; each step is
/// O(N).
///
/// # Example
///
/// ```
/// use seg_core::ModelConfig;
/// let mut sim = ModelConfig::new(64, 2, 0.4).seed(11).build();
/// let before = sim.unhappy_count();
/// sim.run_to_stable(100_000);
/// assert_eq!(sim.flippable_count(), 0);
/// let after = sim.unhappy_count();
/// assert!(after <= before);
/// ```
#[derive(Clone, Debug)]
pub struct Simulation {
    /// Tracked = flippable under `intol`.
    pub(crate) core: GridDynamics,
    intol: Intolerance,
    time: f64,
}

impl Simulation {
    /// Builds a simulation from an explicit initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the intolerance is sized for a different `N` than the
    /// window, or if the window does not fit the torus (see
    /// [`WindowCounts::new`]).
    pub fn from_field(
        field: TypeField,
        horizon: u32,
        intol: Intolerance,
        rng: Xoshiro256pp,
    ) -> Self {
        let n_size = intol.neighborhood_size();
        Simulation {
            core: GridDynamics::new(field, horizon, n_size, |s| intol.classify(s), rng),
            intol,
            time: 0.0,
        }
    }

    /// The torus.
    #[inline]
    pub fn torus(&self) -> Torus {
        self.core.field.torus()
    }

    /// The horizon `w`.
    #[inline]
    pub fn horizon(&self) -> u32 {
        self.core.counts.horizon()
    }

    /// The intolerance.
    #[inline]
    pub fn intolerance(&self) -> Intolerance {
        self.intol
    }

    /// The current configuration.
    #[inline]
    pub fn field(&self) -> &TypeField {
        &self.core.field
    }

    /// The per-agent neighborhood counts.
    #[inline]
    pub fn counts(&self) -> &WindowCounts {
        &self.core.counts
    }

    /// Continuous time elapsed since the initial configuration.
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total flips since the initial configuration.
    #[inline]
    pub fn flips(&self) -> u64 {
        self.core.flips
    }

    /// Same-type count `S(u)` of the agent at `u`.
    #[inline]
    pub fn same_count(&self, u: Point) -> u32 {
        self.core.same_count(u)
    }

    /// Whether the agent at `u` is happy.
    #[inline]
    pub fn is_happy(&self, u: Point) -> bool {
        self.intol.is_happy(self.same_count(u))
    }

    /// Number of currently unhappy agents. Maintained incrementally by the
    /// fused flip kernel, so this is O(1).
    #[inline]
    pub fn unhappy_count(&self) -> usize {
        self.core.unhappy
    }

    /// Number of currently flippable agents (unhappy and improvable). The
    /// process is stable iff this is zero.
    #[inline]
    pub fn flippable_count(&self) -> usize {
        self.core.tracked.len()
    }

    /// The flippable agents, by cell index, in the order a step samples
    /// them.
    pub fn flippable_set(&self) -> &IndexedSet {
        &self.core.tracked
    }

    /// Whether the process has reached a stable state.
    #[inline]
    pub fn is_stable(&self) -> bool {
        self.core.tracked.is_empty()
    }

    /// Performs one effective event: advances the exponential clock, flips
    /// a uniformly chosen flippable agent, and updates all affected
    /// bookkeeping. Returns `None` when stable.
    pub fn step(&mut self) -> Option<FlipEvent> {
        let f = self.flippable_count();
        let at = self.core.sample()?;
        self.time += self.core.rng.next_exponential(f as f64);
        Some(self.force_flip_at(at))
    }

    /// Flips the agent at `at` unconditionally and repairs all bookkeeping.
    ///
    /// Exposed for the baseline variants and for constructing the paper's
    /// geometric scenarios (e.g. the flip schedules of Lemma 5); the
    /// paper's own dynamics only ever flips flippable agents via
    /// [`Simulation::step`].
    pub fn force_flip_at(&mut self, at: Point) -> FlipEvent {
        FlipEvent {
            at,
            new_type: self.core.flip(at),
            time: self.time,
        }
    }

    /// Runs until stable or until `max_flips` more flips have occurred.
    pub fn run_to_stable(&mut self, max_flips: u64) -> RunReport {
        let t0 = self.time;
        let f0 = self.flips();
        while self.flips() - f0 < max_flips && self.step().is_some() {}
        RunReport {
            flips: self.flips() - f0,
            terminated: self.is_stable(),
            elapsed_time: self.time - t0,
        }
    }

    /// Full consistency audit of the counts, the flippable set and the
    /// unhappy total against [`Intolerance::classify`]. O(n²·N); for tests
    /// and debugging.
    pub fn audit(&self) -> bool {
        self.core.audit(|s| self.intol.classify(s))
    }

    /// Replaces the intolerance mid-run and rebuilds the flippable set —
    /// the "time-varying intolerance" variant mentioned in §I-A.
    ///
    /// # Panics
    ///
    /// Panics if the new intolerance is sized for a different `N`.
    pub fn set_intolerance(&mut self, intol: Intolerance) {
        self.core
            .reclassify(intol.neighborhood_size(), |s| intol.classify(s));
        self.intol = intol;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::ModelConfig;

    #[test]
    fn uniform_field_is_immediately_stable() {
        let mut sim = ModelConfig::new(32, 2, 0.45)
            .initial_density(1.0)
            .seed(3)
            .build();
        assert!(sim.is_stable());
        let r = sim.run_to_stable(100);
        assert!(r.terminated);
        assert_eq!(r.flips, 0);
    }

    #[test]
    fn step_decreases_or_preserves_flippable_invariants() {
        let mut sim = ModelConfig::new(48, 2, 0.45).seed(5).build();
        for _ in 0..200 {
            if sim.step().is_none() {
                break;
            }
        }
        assert!(sim.audit(), "bookkeeping diverged");
    }

    #[test]
    fn run_to_stable_terminates_below_half() {
        let mut sim = ModelConfig::new(48, 2, 0.4).seed(9).build();
        let r = sim.run_to_stable(1_000_000);
        assert!(r.terminated, "τ < 1/2 must terminate");
        assert_eq!(sim.unhappy_count(), 0, "all agents happy for τ < 1/2");
        assert!(sim.audit());
    }

    #[test]
    fn run_to_stable_terminates_above_half() {
        let mut sim = ModelConfig::new(48, 2, 0.55).seed(10).build();
        let r = sim.run_to_stable(5_000_000);
        assert!(r.terminated, "flippable set must empty out");
        // For τ > 1/2 unhappy-but-unimprovable agents may persist.
        assert!(sim.flippable_count() == 0);
        assert!(sim.audit());
    }

    #[test]
    fn time_advances_monotonically() {
        let mut sim = ModelConfig::new(48, 2, 0.45).seed(6).build();
        let mut last = 0.0;
        for _ in 0..100 {
            match sim.step() {
                Some(ev) => {
                    assert!(ev.time >= last);
                    last = ev.time;
                }
                None => break,
            }
        }
        assert_eq!(sim.time(), last);
    }

    #[test]
    fn flips_only_make_flippers_happy() {
        let mut sim = ModelConfig::new(48, 3, 0.42).seed(12).build();
        for _ in 0..300 {
            let before = sim.clone();
            match sim.step() {
                Some(ev) => {
                    assert!(
                        !before.is_happy(ev.at),
                        "flipped agent must have been unhappy"
                    );
                    assert!(sim.is_happy(ev.at), "flip must make the agent happy");
                }
                None => break,
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = ModelConfig::new(32, 2, 0.44).seed(seed).build();
            sim.run_to_stable(100_000);
            (sim.flips(), sim.field().plus_total())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn set_intolerance_rebuilds_flippable_set() {
        // anneal: start tolerant (static), then raise τ into the
        // segregation window — activity must ignite.
        let mut sim = ModelConfig::new(48, 2, 0.2).seed(21).build();
        sim.run_to_stable(1_000);
        assert!(sim.is_stable());
        sim.set_intolerance(crate::intolerance::Intolerance::new(25, 0.44));
        assert!(sim.flippable_count() > 0, "raised τ must create work");
        assert!(sim.audit());
        let r = sim.run_to_stable(10_000_000);
        assert!(r.terminated && r.flips > 0);
    }

    #[test]
    #[should_panic(expected = "match the window size")]
    fn set_intolerance_rejects_wrong_n() {
        let mut sim = ModelConfig::new(48, 2, 0.4).seed(0).build();
        sim.set_intolerance(crate::intolerance::Intolerance::new(49, 0.4));
    }
}
