//! Regression and property tests for the fused flip kernel and the
//! incrementally-maintained ring/Kawasaki agent sets.
//!
//! The golden table below was recorded from the pre-fusion two-pass
//! implementation (apply counts, then reclassify the window in a second
//! walk). The fused kernel must reproduce those trajectories *bit for
//! bit*: it performs the same insert/remove sequence on the flippable
//! set, so every seeded run samples the same agents in the same order.

use proptest::prelude::*;
use seg_core::interval::IntervalSim;
use seg_core::ring::{RingKawasaki, RingSim};
use seg_core::variants::{UpdateRule, VariantSim};
use seg_core::{Intolerance, ModelConfig};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Torus, TypeField};

/// `(n, w, tau, seed, terminated, flips, plus_total)` recorded from the
/// pre-PR implementation with `run_to_stable(2_000_000)`.
const GOLDEN: &[(u32, u32, f64, u64, bool, u64, usize)] = &[
    (32, 1, 0.44, 1, true, 220, 569),
    (32, 1, 0.44, 2, true, 227, 495),
    (32, 1, 0.44, 3, true, 205, 512),
    (32, 2, 0.44, 1, true, 395, 654),
    (32, 2, 0.44, 2, true, 374, 490),
    (32, 2, 0.44, 3, true, 413, 668),
    (48, 2, 0.55, 1, true, 1500, 646),
    (48, 2, 0.55, 2, true, 1537, 1349),
    (48, 2, 0.55, 3, true, 1541, 731),
    (48, 3, 0.42, 1, true, 1046, 866),
    (48, 3, 0.42, 2, true, 1046, 1132),
    (48, 3, 0.42, 3, true, 1076, 1266),
    (64, 4, 0.45, 1, true, 2591, 2070),
    (64, 4, 0.45, 2, true, 2420, 2866),
    (64, 4, 0.45, 3, true, 2243, 1104),
];

#[test]
fn fused_kernel_reproduces_pre_fusion_goldens() {
    for &(n, w, tau, seed, terminated, flips, plus_total) in GOLDEN {
        let mut sim = ModelConfig::new(n, w, tau).seed(seed).build();
        let r = sim.run_to_stable(2_000_000);
        assert_eq!(
            (r.terminated, sim.flips(), sim.field().plus_total()),
            (terminated, flips, plus_total),
            "trajectory diverged for n={n} w={w} τ={tau} seed={seed}"
        );
    }
}

/// Brute-force flippable indices of a ring, from public state only.
fn ring_flippable_brute(sim: &RingSim) -> Vec<usize> {
    let types = sim.types();
    let n = types.len();
    let nsize = sim.intolerance().neighborhood_size() as usize;
    let w = (nsize - 1) / 2;
    (0..n)
        .filter(|&i| {
            let s = (0..nsize)
                .filter(|&d| types[(i + n + d - w) % n] == types[i])
                .count() as u32;
            sim.intolerance().is_flippable(s)
        })
        .collect()
}

/// Brute-force unhappy indices of the given type.
fn ring_unhappy_brute(sim: &RingSim, ty: AgentType) -> Vec<usize> {
    let types = sim.types();
    let n = types.len();
    let nsize = sim.intolerance().neighborhood_size() as usize;
    let w = (nsize - 1) / 2;
    (0..n)
        .filter(|&i| {
            if types[i] != ty {
                return false;
            }
            let s = (0..nsize)
                .filter(|&d| types[(i + n + d - w) % n] == types[i])
                .count() as u32;
            !sim.intolerance().is_happy(s)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) The fused kernel leaves the full audit true after arbitrary
    /// mixes of dynamics steps and forced (schedule-style) flips, and the
    /// O(1) unhappy counter matches a brute-force recount.
    #[test]
    fn fused_kernel_audit_after_random_flips(
        seed in any::<u64>(),
        w in 1u32..4,
        tau in 0.2f64..0.7,
        steps in 1usize..120,
    ) {
        let mut sim = ModelConfig::new(24, w, tau).seed(seed).build();
        let t = sim.torus();
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for k in 0..steps {
            if k % 3 == 0 {
                // forced flip at a pseudo-random site (Lemma-5-style
                // schedules flip non-flippable agents too)
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = ((state >> 33) % t.len() as u64) as usize;
                sim.force_flip_at(t.from_index(i));
            } else if sim.step().is_none() {
                break;
            }
        }
        prop_assert!(sim.audit(), "audit failed after {steps} mixed flips");
        let brute_unhappy = t.points().filter(|p| !sim.is_happy(*p)).count();
        prop_assert_eq!(sim.unhappy_count(), brute_unhappy);
    }

    /// (a) The variants sharing the fused kernel keep their tracked sets
    /// exact too: `VariantSim` (tracked = unhappy) under both engine
    /// rules, and `IntervalSim` (tracked = band-flippable).
    #[test]
    fn variant_and_interval_audit_after_random_steps(
        seed in any::<u64>(),
        w in 1u32..4,
        tau in 0.2f64..0.7,
        tau_hi in 0.6f64..1.0,
        steps in 1u64..300,
    ) {
        let nsize = (2 * w + 1) * (2 * w + 1);
        for rule in [UpdateRule::FlipWhenUnhappy, UpdateRule::Noise(0.1)] {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let field = TypeField::random(Torus::new(24), 0.5, &mut rng);
            let mut sim = VariantSim::from_field(field, w, Intolerance::new(nsize, tau), rule, rng);
            sim.run(steps);
            prop_assert!(sim.audit(), "{rule:?} audit failed after {steps} steps");
        }
        let mut sim = IntervalSim::random(24, w, tau.min(tau_hi), tau_hi, seed);
        sim.run(steps);
        prop_assert!(sim.audit(), "interval audit failed after {steps} steps");
    }

    /// (b) The ring's maintained flippable set always equals the
    /// brute-force recomputation after random step sequences.
    #[test]
    fn ring_flippable_set_matches_brute_force(
        seed in any::<u64>(),
        w in 1u32..6,
        tau in 0.2f64..0.6,
        steps in 0usize..200,
    ) {
        let mut sim = RingSim::random(120, w, tau, 0.5, seed);
        prop_assert_eq!(sim.flippable(), ring_flippable_brute(&sim));
        for _ in 0..steps {
            if sim.step().is_none() {
                break;
            }
        }
        prop_assert_eq!(sim.flippable(), ring_flippable_brute(&sim));
        prop_assert_eq!(sim.flippable_count(), ring_flippable_brute(&sim).len());
    }

    /// (b) The Kawasaki unhappy-per-type sets equal the brute-force
    /// recomputation after random accept/reject sequences, and rejected
    /// attempts leave the configuration untouched.
    #[test]
    fn kawasaki_sets_match_brute_force(
        seed in any::<u64>(),
        w in 1u32..5,
        tau in 0.3f64..0.55,
        attempts in 0usize..150,
    ) {
        let inner = RingSim::random(120, w, tau, 0.5, seed);
        let mut k = RingKawasaki::new(inner);
        for _ in 0..attempts {
            let before = k.ring().types().to_vec();
            match k.try_swap() {
                Some(true) => {}
                Some(false) => {
                    prop_assert_eq!(
                        before, k.ring().types().to_vec(),
                        "rejected swap mutated the configuration"
                    );
                }
                None => break,
            }
        }
        prop_assert_eq!(k.unhappy_plus(), ring_unhappy_brute(k.ring(), AgentType::Plus));
        prop_assert_eq!(k.unhappy_minus(), ring_unhappy_brute(k.ring(), AgentType::Minus));
        // the inner Glauber set stayed consistent through Kawasaki moves
        prop_assert_eq!(k.ring().flippable(), ring_flippable_brute(k.ring()));
    }
}
