//! Regression and property tests for the fused flip kernel and the
//! incrementally-maintained ring/Kawasaki agent sets.
//!
//! The first golden table was recorded from the pre-fusion two-pass
//! implementation (apply counts, then reclassify the window in a second
//! walk). The fused kernel must reproduce those trajectories *bit for
//! bit*: it performs the same insert/remove sequence on the flippable
//! set, so every seeded run samples the same agents in the same order.
//! The later tables were recorded from the fused kernel before it moved
//! to transition tables and row runs. They cover the paper's large-N
//! regime (w = 8), windows as wide as the torus, where every window row
//! wraps, and `VariantSim` / `IntervalSim` at w ≥ 4; their path digests
//! pin every acted-on site, not only the end state.

use proptest::prelude::*;
use seg_core::interval::{ComfortBand, IntervalSim};
use seg_core::multi::MultiSim;
use seg_core::ring::{RingKawasaki, RingSim};
use seg_core::variants::{KawasakiSim, UpdateRule, VariantSim};
use seg_core::{Intolerance, ModelConfig};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, ClassTable, Point, Torus, Transition, TypeField};

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

/// FNV-1a over the sequence of sites a run acted on: two runs agree on
/// it only if they sampled the same agents in the same order.
fn path_digest(mut step: impl FnMut() -> Option<Point>, budget: u64) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut steps = 0;
    while steps < budget {
        let Some(p) = step() else { break };
        for v in [p.x, p.y] {
            h = (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
        }
        steps += 1;
    }
    (steps, h)
}

/// `(n, w, tau, seed, flips, plus_total, unhappy, path)` of the paper's
/// process run to a stable state, recorded before the kernel switched
/// to transition tables and row runs. The first rows are the paper's
/// large-N regime (w = 8); the rest have a window as wide as the torus
/// (2w + 1 = n), so a window row splits at every offset but zero.
#[allow(clippy::type_complexity)]
const GOLDEN_WIDE: &[(u32, u32, f64, u64, u64, usize, usize, u64)] = &[
    (128, 8, 0.42, 1, 7884, 4144, 0, 0x5a2bc9fd94fb8d1a),
    (128, 8, 0.42, 2, 7863, 11654, 0, 0x31cfefea9ce1991c),
    (128, 8, 0.44, 1, 8768, 5290, 0, 0x7023bf15511705ee),
    (128, 8, 0.44, 2, 8109, 8126, 0, 0xe0ce2d01348330ab),
    (9, 4, 0.49, 1, 38, 81, 0, 0xa15f48a87db95b15),
    (9, 4, 0.49, 2, 38, 0, 0, 0xdf15fb1b691c36fa),
    (13, 6, 0.50, 1, 78, 169, 0, 0x96e9de0137e9f6c7),
    (17, 8, 0.49, 1, 141, 289, 0, 0x0e55e32dfa5ca586),
    (17, 8, 0.49, 2, 131, 289, 0, 0x86519d4158d7d989),
];

#[test]
fn kernel_reproduces_large_and_torus_wide_window_goldens() {
    for &(n, w, tau, seed, flips, plus_total, unhappy, path) in GOLDEN_WIDE {
        let mut sim = ModelConfig::new(n, w, tau).seed(seed).build();
        let (steps, digest) = path_digest(|| sim.step().map(|e| e.at), u64::MAX);
        assert!(
            sim.audit(),
            "audit failed for n={n} w={w} τ={tau} seed={seed}"
        );
        assert_eq!(
            (
                steps,
                sim.flips(),
                sim.field().plus_total(),
                sim.unhappy_count(),
                digest
            ),
            (flips, flips, plus_total, unhappy, path),
            "trajectory diverged for n={n} w={w} τ={tau} seed={seed}"
        );
    }
}

/// `((n, w, tau, density, seed), (flips, plus_total, unhappy, path))` of
/// the paper's process above ½ run to a stable state, recorded before the
/// kernel skipped quiet row runs. Above ½ each flip direction has four
/// plus counts where a class changes (two below ½), and stuck agents stay
/// unhappy at the end. The first rows are w ∈ {4, 8} on large tori; then
/// windows as wide as the torus (from a minority start, or no agent could
/// flip) and windows two cells narrower than it, where every row run
/// wraps.
#[allow(clippy::type_complexity)]
const GOLDEN_ABOVE_HALF: &[((u32, u32, f64, f64, u64), (u64, usize, usize, u64))] = &[
    (
        (64, 4, 0.55, 0.50, 1),
        (2656, 1565, 122, 0x9e7100b08a20a8ce),
    ),
    (
        (64, 4, 0.60, 0.50, 1),
        (1887, 2730, 360, 0xe7fc4f57d0387180),
    ),
    (
        (128, 8, 0.55, 0.50, 1),
        (9549, 8187, 457, 0x97e0ab2f940e9229),
    ),
    ((128, 8, 0.60, 0.50, 1), (8144, 0, 0, 0xa321a66161674ea9)),
    ((9, 4, 0.55, 0.30, 1), (26, 0, 0, 0x6b1d065b2574940d)),
    ((17, 8, 0.60, 0.35, 1), (102, 0, 0, 0xa93d317ee34c931e)),
    ((11, 4, 0.55, 0.50, 1), (56, 121, 0, 0x393c0f74d55cde8f)),
    ((21, 8, 0.55, 0.50, 1), (218, 441, 0, 0x1f92242db6ad0a1c)),
];

#[test]
fn kernel_reproduces_above_half_wide_window_goldens() {
    for &((n, w, tau, p, seed), expected) in GOLDEN_ABOVE_HALF {
        let mut sim = ModelConfig::new(n, w, tau)
            .initial_density(p)
            .seed(seed)
            .build();
        let (steps, digest) = path_digest(|| sim.step().map(|e| e.at), u64::MAX);
        assert!(
            sim.audit(),
            "audit failed for n={n} w={w} τ={tau} p={p} seed={seed}"
        );
        assert_eq!(sim.flips(), steps);
        let got = (steps, sim.field().plus_total(), sim.unhappy_count(), digest);
        assert_eq!(
            got, expected,
            "trajectory diverged for n={n} w={w} τ={tau} p={p} seed={seed}"
        );
    }
}

/// `((n, w, tau, noise, seed), (steps, flips, plus_total, unhappy, path))`
/// of `VariantSim` after at most `steps` rings: flip-when-unhappy when
/// `noise` is `None`, else the noisy paper rule. Recorded with the
/// goldens above; the last rows have a torus-wide window.
#[allow(clippy::type_complexity)]
const GOLDEN_VARIANT: &[(
    (u32, u32, f64, Option<f64>, u64),
    (u64, u64, usize, usize, u64),
)] = &[
    (
        (64, 4, 0.55, None, 1),
        (7089, 7089, 4096, 0, 0x5d7095c6505b7928),
    ),
    (
        (64, 4, 0.55, Some(0.05), 1),
        (20000, 3657, 2600, 115, 0xd8747b0f9d785a17),
    ),
    (
        (64, 8, 0.60, None, 1),
        (20000, 20000, 2019, 4096, 0xcaee33c484ccf6fa),
    ),
    (
        (64, 8, 0.60, Some(0.05), 1),
        (20000, 991, 2112, 4096, 0xfc98f6f8b5e07f2a),
    ),
    (
        (17, 8, 0.60, None, 1),
        (5000, 5000, 152, 289, 0x66c3464cd3d5d8ee),
    ),
    (
        (17, 8, 0.60, Some(0.05), 1),
        (5000, 230, 152, 289, 0x85adec3d9f3a310b),
    ),
];

#[test]
fn variant_sim_reproduces_wide_window_goldens() {
    for &((n, w, tau, noise, seed), expected) in GOLDEN_VARIANT {
        let rule = noise.map_or(UpdateRule::FlipWhenUnhappy, UpdateRule::Noise);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = TypeField::random(Torus::new(n), 0.5, &mut rng);
        let nsize = (2 * w + 1) * (2 * w + 1);
        let mut sim = VariantSim::from_field(field, w, Intolerance::new(nsize, tau), rule, rng);
        let (steps, digest) = path_digest(|| sim.step(), expected.0);
        assert!(
            sim.audit(),
            "{rule:?} audit failed for n={n} w={w} τ={tau} seed={seed}"
        );
        let got = (
            steps,
            sim.flips(),
            sim.field().plus_total(),
            sim.unhappy_count(),
            digest,
        );
        assert_eq!(
            got, expected,
            "{rule:?} trajectory diverged for n={n} w={w} τ={tau} seed={seed}"
        );
    }
}

/// Path digest of `VariantSim` under `rule` from the field of `seed`.
fn variant_path(n: u32, w: u32, tau: f64, rule: UpdateRule, seed: u64, budget: u64) -> (u64, u64) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let field = TypeField::random(Torus::new(n), 0.5, &mut rng);
    let nsize = (2 * w + 1) * (2 * w + 1);
    let mut sim = VariantSim::from_field(field, w, Intolerance::new(nsize, tau), rule, rng);
    path_digest(|| sim.step(), budget)
}

/// For τ < ½ an unhappy agent with `S < τN` has `N − S + 1 > τN` after
/// flipping, so every unhappy agent is flippable: flip-when-unhappy and
/// the noisy paper rule (whose ε-coin is drawn only when a flip would not
/// help) are one process and walk the same path from one seed. Above ½
/// stuck agents exist and the paths part.
#[test]
fn variant_rules_coincide_below_half_and_part_above() {
    for (n, w, tau, seed) in [
        (32, 1, 0.44, 1),
        (48, 2, 0.44, 2),
        (48, 2, 0.49, 3),
        (64, 4, 0.45, 4),
    ] {
        let unhappy = variant_path(n, w, tau, UpdateRule::FlipWhenUnhappy, seed, u64::MAX);
        let noise = variant_path(n, w, tau, UpdateRule::Noise(0.1), seed, u64::MAX);
        assert!(unhappy.0 > 0, "n={n} w={w} τ={tau}: no step taken");
        assert_eq!(unhappy, noise, "n={n} w={w} τ={tau} seed={seed}");
    }
    for seed in 1..=3 {
        let unhappy = variant_path(48, 2, 0.55, UpdateRule::FlipWhenUnhappy, seed, 5_000);
        let noise = variant_path(48, 2, 0.55, UpdateRule::Noise(0.1), seed, 5_000);
        assert_ne!(unhappy, noise, "τ = 0.55 seed={seed}");
    }
}

/// `((n, w, tau_lo, tau_hi, seed), (flips, plus_total, discontent, path))`
/// of `IntervalSim` run to a stable state. Recorded with the goldens
/// above; the last row has a torus-wide window.
#[allow(clippy::type_complexity)]
const GOLDEN_INTERVAL: &[((u32, u32, f64, f64, u64), (u64, usize, usize, u64))] = &[
    (
        (64, 4, 0.40, 0.80, 1),
        (1510, 2659, 2817, 0xe966087dee1f0ba7),
    ),
    (
        (64, 8, 0.45, 0.60, 1),
        (1825, 3024, 4092, 0xbc3d45a0123b5ac2),
    ),
    (
        (64, 8, 0.40, 0.52, 1),
        (1767, 2050, 1075, 0x0ca715e0dd3bdba1),
    ),
    ((17, 8, 0.35, 0.49, 2), (10, 148, 148, 0xb234576b36c8adeb)),
];

#[test]
fn interval_sim_reproduces_wide_window_goldens() {
    for &((n, w, lo, hi, seed), expected) in GOLDEN_INTERVAL {
        let mut sim = IntervalSim::random(n, w, lo, hi, seed);
        let (steps, digest) = path_digest(|| sim.step(), u64::MAX);
        assert!(
            sim.audit(),
            "audit failed for n={n} w={w} band=[{lo}, {hi}] seed={seed}"
        );
        assert_eq!(sim.flips(), steps);
        let got = (
            steps,
            sim.field().plus_total(),
            sim.discontent_count(),
            digest,
        );
        assert_eq!(
            got, expected,
            "trajectory diverged for n={n} w={w} band=[{lo}, {hi}] seed={seed}"
        );
    }
}

/// FNV-1a over a field's types in index order.
fn field_digest(field: &TypeField) -> u64 {
    field
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &t| {
            (h ^ t as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `((n, w, tau, seed, budget), (stuck, swaps, failed_attempts,
/// plus_total, field digest))` of the 2-D `KawasakiSim` after at most
/// `budget` attempts from `ModelConfig::new(n, w, tau).seed(seed)`;
/// `stuck` when `try_swap` returned `None` first. Recorded from the
/// whole-torus-scan implementation. τ sits on both sides of ½, w ∈ {1,
/// 2, 4}; the last rows have a window one or two cells short of the
/// torus side.
#[allow(clippy::type_complexity)]
const GOLDEN_KAWASAKI: &[((u32, u32, f64, u64, u64), (bool, u64, u64, usize, u64))] = &[
    (
        (32, 1, 0.44, 1, 3000),
        (true, 96, 0, 517, 0xf87c0ab374f9f9f6),
    ),
    (
        (32, 1, 0.60, 3, 3000),
        (false, 217, 2783, 513, 0x99a632fa2775a880),
    ),
    (
        (24, 1, 0.25, 6, 3000),
        (true, 15, 0, 296, 0x3d0bc70c5d619c9b),
    ),
    (
        (32, 2, 0.44, 1, 3000),
        (true, 168, 0, 517, 0x952e1d4fc97f31a8),
    ),
    (
        (40, 2, 0.40, 2, 100),
        (false, 100, 0, 790, 0x6b33dc3f76d19f45),
    ),
    (
        (40, 2, 0.55, 4, 3000),
        (false, 486, 2514, 801, 0x81506dfb9d2c3020),
    ),
    (
        (48, 4, 0.45, 1, 2000),
        (true, 554, 0, 1156, 0x012b1195776b6967),
    ),
    (
        (48, 4, 0.58, 2, 2000),
        (false, 80, 1920, 1152, 0x35f03e7b69364b07),
    ),
    (
        (10, 4, 0.52, 1, 400),
        (false, 2, 398, 52, 0x073e9df5c3181f31),
    ),
    ((11, 4, 0.49, 2, 400), (true, 31, 0, 57, 0xa0cabf10eed937f8)),
    (
        (11, 4, 0.52, 1, 400),
        (false, 12, 388, 65, 0x4a7043915af7f95c),
    ),
];

#[test]
fn kawasaki_reproduces_scan_goldens() {
    for &((n, w, tau, seed, budget), expected) in GOLDEN_KAWASAKI {
        let mut k = KawasakiSim::new(ModelConfig::new(n, w, tau).seed(seed).build());
        let mut attempts = 0;
        let mut stuck = false;
        while attempts < budget {
            if k.try_swap().is_none() {
                stuck = true;
                break;
            }
            attempts += 1;
        }
        let got = (
            stuck,
            k.swaps(),
            k.failed_attempts(),
            k.field().plus_total(),
            field_digest(k.field()),
        );
        assert_eq!(
            got, expected,
            "trajectory diverged for n={n} w={w} τ={tau} seed={seed}"
        );
    }
}

/// `((n, w, k, tau, seed, budget), (stable, flips, unhappy_count,
/// flippable_count, per-type totals, type digest))` of `MultiSim::random(n,
/// w, k, tau, seed)` after `run(budget)`; the digest is FNV-1a over the
/// final types in index order. Recorded from the two-pass step (apply
/// every count, then reclassify the window in a second walk). τ spans
/// 0.25–0.6, k ∈ {2, 3, 5}, w ∈ {1, 2, 4}; two runs are cut by their
/// budget, and the rows on sides 3, 5 and 9 have windows as wide as the
/// side (one of them stable from the start).
#[allow(clippy::type_complexity)]
const GOLDEN_MULTI: &[(
    (u32, u32, u8, f64, u64, u64),
    (bool, u64, usize, usize, &[usize], u64),
)] = &[
    (
        (32, 1, 2, 0.44, 1, 5000),
        (true, 240, 0, 0, &[571, 453], 0x75ea0e1dbf07c3c2),
    ),
    (
        (32, 1, 3, 0.30, 2, 5000),
        (true, 232, 0, 0, &[340, 390, 294], 0x3107c2d18f7744e7),
    ),
    (
        (24, 2, 3, 0.40, 3, 5000),
        (true, 313, 1, 0, &[180, 143, 253], 0x9a8052798cfaf2be),
    ),
    (
        (40, 2, 5, 0.25, 4, 5000),
        (
            true,
            986,
            0,
            0,
            &[370, 473, 288, 171, 298],
            0xef147ce988828405,
        ),
    ),
    (
        (32, 2, 3, 0.55, 5, 300),
        (false, 300, 424, 81, &[381, 238, 405], 0xa6d1943764c27067),
    ),
    (
        (48, 4, 3, 0.35, 6, 3000),
        (true, 1456, 0, 0, &[444, 953, 907], 0xd72e021a40d961ae),
    ),
    (
        (40, 4, 2, 0.60, 7, 3000),
        (true, 738, 108, 0, &[1272, 328], 0xc045f5343ffcf5ef),
    ),
    (
        (48, 1, 5, 0.30, 13, 200),
        (
            false,
            200,
            856,
            856,
            &[488, 446, 445, 419, 506],
            0x971bc89182182b10,
        ),
    ),
    (
        (9, 4, 3, 0.40, 8, 500),
        (true, 47, 0, 0, &[0, 0, 81], 0x82792160122b9745),
    ),
    (
        (9, 4, 5, 0.25, 9, 500),
        (true, 0, 81, 0, &[19, 13, 19, 11, 19], 0x018c8a930049c1cb),
    ),
    (
        (9, 4, 5, 0.25, 14, 500),
        (true, 59, 0, 0, &[0, 0, 0, 81, 0], 0x467e9ac919cc84c2),
    ),
    (
        (9, 4, 2, 0.55, 17, 500),
        (true, 37, 0, 0, &[81, 0], 0x0edbe9edbe9a769f),
    ),
    (
        (17, 4, 2, 0.50, 12, 2000),
        (true, 150, 0, 0, &[153, 136], 0x55a3f6d0614a8867),
    ),
    (
        (5, 2, 2, 0.55, 10, 200),
        (true, 8, 0, 0, &[25, 0], 0xd4657f55662f817f),
    ),
    (
        (5, 2, 3, 0.40, 11, 200),
        (true, 14, 0, 0, &[0, 0, 25], 0x552506313e2c9d45),
    ),
    (
        (3, 1, 3, 0.50, 16, 100),
        (true, 5, 0, 0, &[9, 0, 0], 0xe604823a249029bf),
    ),
];

#[test]
fn multi_reproduces_goldens() {
    for &((n, w, k, tau, seed, budget), (stable, flips, unhappy, flippable, totals, digest)) in
        GOLDEN_MULTI
    {
        let mut sim = MultiSim::random(n, w, k, tau, seed);
        let got_stable = sim.run(budget);
        let t = Torus::new(n);
        let got_digest = t.points().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ u64::from(sim.type_at(p))).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (
                got_stable,
                sim.flips(),
                sim.unhappy_count(),
                sim.flippable_count(),
                sim.type_totals(),
                got_digest
            ),
            (stable, flips, unhappy, flippable, totals.to_vec(), digest),
            "trajectory diverged for n={n} w={w} k={k} τ={tau} seed={seed}"
        );
    }
}

/// Every per-direction transition entry of `ct` is the step between the
/// two classes it joins: `up[ty][pc] = transition(class(ty, pc),
/// class(ty, pc + 1))`, `down` likewise with `pc - 1`.
fn assert_transitions_step_classes(ct: &ClassTable, what: &str) {
    let n = ct.n_size();
    for ty in [AgentType::Minus, AgentType::Plus] {
        for pc in 0..n {
            let up = Transition::between(ct.class(ty, pc), ct.class(ty, pc + 1));
            let down = Transition::between(ct.class(ty, pc + 1), ct.class(ty, pc));
            assert_eq!(
                ct.transition(ty, pc, AgentType::Plus),
                up,
                "{what} {ty:?} pc={pc}"
            );
            assert_eq!(
                ct.transition(ty, pc + 1, AgentType::Minus),
                down,
                "{what} {ty:?} pc={}",
                pc + 1
            );
        }
    }
}

#[test]
fn transition_tables_step_intolerance_and_band_classes() {
    for w in [1u32, 2, 4, 8] {
        let nsize = (2 * w + 1) * (2 * w + 1);
        for tau in [0.2, 0.42, 0.5, 0.55, 0.8] {
            let intol = Intolerance::new(nsize, tau);
            let ct = ClassTable::build_same_count(nsize, |s| intol.classify(s));
            assert_transitions_step_classes(&ct, &format!("N={nsize} τ={tau}"));
        }
        for (lo, hi) in [(0.3, 0.7), (0.45, 0.6), (0.4, 0.52), (0.0, 1.0)] {
            let band = ComfortBand::new(nsize, lo, hi);
            let ct = ClassTable::build_same_count(nsize, |s| band.classify(s));
            assert_transitions_step_classes(&ct, &format!("N={nsize} band=[{lo}, {hi}]"));
        }
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
