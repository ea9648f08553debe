//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use self_organized_segregation::prelude::*;
use self_organized_segregation::seg_core::lyapunov;
use self_organized_segregation::seg_grid::Neighborhood;
use self_organized_segregation::seg_percolation::union_find::UnionFind;
use self_organized_segregation::seg_theory::binomial;
use self_organized_segregation::seg_theory::entropy::binary_entropy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Torus metrics are genuine metrics and respect wrap-around symmetry.
    #[test]
    fn torus_metric_axioms(
        n in 2u32..200,
        ax in 0i64..400, ay in 0i64..400,
        bx in 0i64..400, by in 0i64..400,
        cx in 0i64..400, cy in 0i64..400,
    ) {
        let t = Torus::new(n);
        let (a, b, c) = (t.point(ax, ay), t.point(bx, by), t.point(cx, cy));
        // symmetry
        prop_assert_eq!(t.linf_distance(a, b), t.linf_distance(b, a));
        prop_assert_eq!(t.l1_distance(a, b), t.l1_distance(b, a));
        // identity
        prop_assert_eq!(t.linf_distance(a, a), 0);
        // triangle inequality
        prop_assert!(t.linf_distance(a, c) <= t.linf_distance(a, b) + t.linf_distance(b, c));
        prop_assert!(t.l1_distance(a, c) <= t.l1_distance(a, b) + t.l1_distance(b, c));
        // norm comparison
        prop_assert!(t.linf_distance(a, b) <= t.l1_distance(a, b));
        // translation invariance
        let shift = |p: Point| t.offset(p, 13, -7);
        prop_assert_eq!(t.linf_distance(a, b), t.linf_distance(shift(a), shift(b)));
    }

    /// Prefix sums agree with brute-force ball counts everywhere.
    #[test]
    fn prefix_sums_correct(seed in any::<u64>(), n in 4u32..40, r in 0u32..12) {
        let t = Torus::new(n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let f = TypeField::random(t, 0.5, &mut rng);
        let ps = PrefixSums::new(&f);
        let c = t.point((seed % n as u64) as i64, ((seed >> 8) % n as u64) as i64);
        let ball = Neighborhood::new(t, c, r);
        let brute = ball
            .points()
            .filter(|p| f.get(*p) == AgentType::Plus)
            .count() as u64;
        prop_assert_eq!(ps.plus_in(&ball), brute);
    }

    /// The simulation's incremental bookkeeping never diverges from a
    /// from-scratch recomputation, for any τ.
    #[test]
    fn simulation_bookkeeping_sound(
        seed in any::<u64>(),
        tau in 0.05f64..0.95,
        steps in 0u64..400,
    ) {
        let mut sim = ModelConfig::new(32, 2, tau).seed(seed).build();
        sim.run_to_stable(steps);
        prop_assert!(sim.audit());
    }

    /// Every legal flip strictly increases the Lyapunov potential; hence
    /// termination (§II-A).
    #[test]
    fn lyapunov_strictly_monotone(seed in any::<u64>(), tau in 0.2f64..0.8) {
        let mut sim = ModelConfig::new(24, 1, tau).seed(seed).build();
        let mut phi = lyapunov::potential(&sim);
        for _ in 0..100 {
            if sim.step().is_none() { break; }
            let next = lyapunov::potential(&sim);
            prop_assert!(next > phi, "Φ must strictly increase: {} → {}", phi, next);
            phi = next;
        }
    }

    /// Stable states are genuinely stable: re-running changes nothing.
    #[test]
    fn stability_is_absorbing(seed in any::<u64>(), tau in 0.3f64..0.7) {
        let mut sim = ModelConfig::new(24, 1, tau).seed(seed).build();
        sim.run_to_stable(1_000_000);
        prop_assert!(sim.is_stable());
        let snapshot: Vec<AgentType> = sim.field().as_slice().to_vec();
        sim.run_to_stable(1_000);
        prop_assert_eq!(snapshot, sim.field().as_slice().to_vec());
    }

    /// For τ < 1/2, stable means every agent is happy (flip always helps).
    #[test]
    fn below_half_stable_means_happy(seed in any::<u64>(), tau in 0.05f64..0.49) {
        let mut sim = ModelConfig::new(24, 1, tau).seed(seed).build();
        sim.run_to_stable(1_000_000);
        prop_assert!(sim.is_stable());
        prop_assert_eq!(sim.unhappy_count(), 0);
    }

    /// Monochromatic regions behave monotonically: radius never exceeds
    /// the torus cap, the witnessing ball contains the agent and is
    /// actually monochromatic. On sides ≤ 24 both regions are also the
    /// largest: `M(u)` (binary search over radii, which rests on the
    /// monotonicity argument of `seg_core::regions`) and `M'(u)` (upward
    /// radius scan) match a brute-force scan of every ball containing `u`,
    /// on random fields and on fields with a planted monochromatic square.
    #[test]
    fn region_witness_is_valid(
        seed in any::<u64>(),
        n in 8u32..48,
        planted in any::<bool>(),
        bound_pick in 0usize..3,
    ) {
        let t = Torus::new(n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut f = TypeField::random(t, 0.5, &mut rng);
        if planted {
            let c = t.from_index(rng.next_below(t.len() as u64) as usize);
            let r = rng.next_below(u64::from(n / 2)) as u32;
            let ty = f.get(c);
            for p in Neighborhood::new(t, c, r).points() {
                f.set(p, ty);
            }
        }
        let ps = PrefixSums::new(&f);
        let u = t.from_index((seed % t.len() as u64) as usize);
        let r = monochromatic_region(&f, &ps, u);
        prop_assert!(r.radius <= (n - 1) / 2);
        let ball = Neighborhood::new(t, r.center, r.radius);
        prop_assert!(ball.contains(u));
        prop_assert!(ps.is_monochromatic(&ball));
        prop_assert_eq!(r.size, (2 * r.radius as u64 + 1) * (2 * r.radius as u64 + 1));
        if n <= 24 {
            let cap = (n - 1) / 2;
            // the largest radius of any ball containing u that passes
            let brute = |pass: &dyn Fn(&Neighborhood) -> bool| -> u32 {
                (0..=cap)
                    .rev()
                    .find(|&rho| {
                        t.points().any(|c| {
                            let ball = Neighborhood::new(t, c, rho);
                            ball.contains(u) && pass(&ball)
                        })
                    })
                    .unwrap_or(0)
            };
            prop_assert_eq!(r.radius, brute(&|b| ps.is_monochromatic(b)));
            let bound = [0.0, 0.05, 0.25][bound_pick];
            let a = almost_monochromatic_region(&f, &ps, u, bound, cap);
            prop_assert_eq!(a.radius, brute(&|b| ps.minority_ratio(b) <= bound));
            let witness = Neighborhood::new(t, a.center, a.radius);
            prop_assert!(witness.contains(u));
            prop_assert!(ps.minority_ratio(&witness) <= bound);
        }
    }

    /// Binary entropy: bounds, symmetry, strict interior positivity.
    #[test]
    fn entropy_properties(x in 0.0f64..=1.0) {
        let h = binary_entropy(x);
        prop_assert!((0.0..=1.0).contains(&h));
        prop_assert!((h - binary_entropy(1.0 - x)).abs() < 1e-12);
        if x > 0.01 && x < 0.99 {
            prop_assert!(h > 0.0);
        }
    }

    /// Binomial CDF is a genuine CDF and matches the PMF sum.
    #[test]
    fn binomial_cdf_consistent(n in 1u64..200, p in 0.01f64..0.99, k in 0u64..200) {
        let k = k.min(n);
        let cdf = binomial::binomial_cdf(n, p, k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&cdf));
        if k > 0 {
            prop_assert!(cdf >= binomial::binomial_cdf(n, p, k - 1) - 1e-12);
        }
        let direct: f64 = (0..=k).map(|i| binomial::binomial_pmf(n, p, i)).sum();
        prop_assert!((cdf - direct).abs() < 1e-9);
    }

    /// Union-find: connectivity is an equivalence relation and sizes are
    /// consistent after arbitrary unions.
    #[test]
    fn union_find_equivalence(pairs in prop::collection::vec((0usize..50, 0usize..50), 0..100)) {
        let mut uf = UnionFind::new(50);
        for (a, b) in &pairs {
            uf.union(*a, *b);
        }
        // reflexive + size accounting
        let mut total = 0;
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            prop_assert!(uf.connected(i, i));
            let root = uf.find(i);
            if seen.insert(root) {
                total += uf.component_size(i);
            }
        }
        prop_assert_eq!(total, 50);
        prop_assert_eq!(seen.len(), uf.component_count());
        // symmetry + transitivity on sampled triples
        for (a, b) in pairs.iter().take(20) {
            prop_assert_eq!(uf.connected(*a, *b), uf.connected(*b, *a));
        }
    }

    /// The metrics-history tier roll-up (seg_obs::history): every ring
    /// stays within its capacity, per-tier timestamps never go
    /// backwards, the cumulative counter total in every tier equals
    /// the raw total at that tier's latest roll-up boundary (no
    /// increments lost by downsampling), and gauges keep their
    /// boundary value.
    #[test]
    fn history_downsampling_invariants(increments in prop::collection::vec(0u64..100, 1..700)) {
        use self_organized_segregation::seg_obs::history::{History, SeriesId, Value, TIERS};
        let h = History::new();
        let counter_id = SeriesId { name: "prop_total".to_string(), labels: vec![] };
        let gauge_id = SeriesId { name: "prop_gauge".to_string(), labels: vec![] };
        let mut totals = Vec::with_capacity(increments.len());
        let mut sum = 0u64;
        for inc in &increments {
            sum += inc;
            totals.push(sum);
            h.record(counter_id.clone(), Value::Counter { total: sum, rate: *inc as f64 });
            h.record(gauge_id.clone(), Value::Gauge(sum as f64));
        }
        let k = increments.len() as u64;
        for (tier, (every, cap)) in TIERS.iter().enumerate() {
            let series = h.query("prop_total", None, tier);
            let boundary = k - k % every; // latest raw index copied into this tier
            if boundary == 0 {
                prop_assert!(series.is_empty() || series[0].1.is_empty());
                continue;
            }
            let samples = &series[0].1;
            prop_assert!(samples.len() <= *cap, "tier {} over capacity", tier);
            prop_assert!(
                samples.windows(2).all(|w| w[0].unix_us <= w[1].unix_us),
                "tier {} timestamps went backwards", tier
            );
            let expected = totals[boundary as usize - 1];
            match samples.last().unwrap().value {
                Value::Counter { total, .. } =>
                    prop_assert_eq!(total, expected, "tier {} lost counter increments", tier),
                v => prop_assert!(false, "tier {} not a counter: {:?}", tier, v),
            }
            match h.query("prop_gauge", None, tier)[0].1.last().unwrap().value {
                Value::Gauge(v) =>
                    prop_assert!((v - expected as f64).abs() < 1e-9,
                        "tier {} gauge is not last-value", tier),
                v => prop_assert!(false, "tier {} not a gauge: {:?}", tier, v),
            }
        }
    }

    /// Replaying the JSONL persistence log reconstructs every tier of
    /// every series exactly (the roll-up is keyed on raw-sample count,
    /// not wall time, so a restarted process continues the same tiers).
    #[test]
    fn history_jsonl_replay_reconstructs_tiers(values in prop::collection::vec(0u64..1000, 1..150)) {
        use self_organized_segregation::seg_obs::history::{History, SeriesId, Value, TIERS};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "seg_hist_replay_{}_{}.jsonl",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&path);

        let first = History::new();
        prop_assert_eq!(first.set_output(&path).unwrap(), 0);
        let counter_id = SeriesId { name: "replay_total".to_string(), labels: vec![] };
        let gauge_id = SeriesId {
            name: "replay_gauge".to_string(),
            labels: vec![("k".to_string(), "v".to_string())],
        };
        let mut sum = 0u64;
        for v in &values {
            sum += v;
            first.record(counter_id.clone(), Value::Counter { total: sum, rate: *v as f64 });
            first.record(gauge_id.clone(), Value::Gauge(*v as f64));
        }

        let second = History::new();
        prop_assert_eq!(second.set_output(&path).unwrap(), 2 * values.len());
        for name in ["replay_total", "replay_gauge"] {
            for tier in 0..TIERS.len() {
                prop_assert_eq!(
                    first.query(name, None, tier),
                    second.query(name, None, tier),
                    "tier {} of {} diverged after replay", tier, name
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Intolerance integer arithmetic: is_flippable ⇔ definition, and
    /// τ < 1/2 ⇒ unhappy = flippable.
    #[test]
    fn intolerance_flip_logic(n_side in 1u32..12, tau in 0.0f64..=1.0, s in 1u32..300) {
        let n = (2 * n_side + 1) * (2 * n_side + 1);
        let s = s.min(n);
        let i = Intolerance::new(n, tau);
        let happy = s >= i.threshold();
        let after = n - s + 1;
        prop_assert_eq!(i.is_happy(s), happy);
        prop_assert_eq!(i.is_flippable(s), !happy && after >= i.threshold());
        if (i.threshold() as f64) <= (n as f64 + 1.0) / 2.0 && !happy {
            prop_assert!(i.is_flippable(s), "flip always helps below half");
        }
    }
}
