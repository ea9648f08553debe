//! Property-based tests for the grid substrate.

use proptest::prelude::*;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Neighborhood, Point, PrefixSums, Torus, TypeField, WindowCounts};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ball intersection counts agree with brute force for arbitrary
    /// centers/radii, including wrapping and whole-torus balls.
    #[test]
    fn intersection_matches_brute_force(
        n in 3u32..40,
        ax in 0i64..64, ay in 0i64..64, ra in 0u32..24,
        bx in 0i64..64, by in 0i64..64, rb in 0u32..24,
    ) {
        let t = Torus::new(n);
        let a = Neighborhood::new(t, t.point(ax, ay), ra);
        let b = Neighborhood::new(t, t.point(bx, by), rb);
        let brute = a.points().filter(|p| b.contains(*p)).count();
        prop_assert_eq!(a.intersection_len(&b), brute);
        // symmetry
        prop_assert_eq!(b.intersection_len(&a), brute);
    }

    /// A ball's point set has exactly `len()` unique members, all within
    /// the radius.
    #[test]
    fn ball_points_consistent(n in 2u32..40, cx in 0i64..64, cy in 0i64..64, r in 0u32..30) {
        let t = Torus::new(n);
        let c = t.point(cx, cy);
        let ball = Neighborhood::new(t, c, r);
        let pts: Vec<Point> = ball.points().collect();
        prop_assert_eq!(pts.len(), ball.len());
        let unique: std::collections::HashSet<_> = pts.iter().collect();
        prop_assert_eq!(unique.len(), pts.len());
        for p in &pts {
            prop_assert!(t.linf_distance(c, *p) <= r || 2 * r + 1 >= n);
        }
    }

    /// Window counts equal prefix-sum ball counts at every cell.
    #[test]
    fn window_equals_prefix(seed in any::<u64>(), n in 5u32..30, w_raw in 0u32..6) {
        let t = Torus::new(n);
        let w = w_raw.min((n - 1) / 2);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let f = TypeField::random(t, 0.5, &mut rng);
        let wc = WindowCounts::new(&f, w);
        let ps = PrefixSums::new(&f);
        for i in (0..t.len()).step_by(7) {
            let p = t.from_index(i);
            let ball = Neighborhood::new(t, p, w);
            prop_assert_eq!(wc.plus_count(p) as u64, ps.plus_in(&ball));
        }
    }

    /// A random flip sequence keeps incremental window counts exact.
    #[test]
    fn window_incremental_sound(seed in any::<u64>(), n in 5u32..24, flips in 0usize..40) {
        let t = Torus::new(n);
        let w = ((n - 1) / 2).min(3);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut f = TypeField::random(t, 0.5, &mut rng);
        let mut wc = WindowCounts::new(&f, w);
        for _ in 0..flips {
            let p = t.from_index(rng.next_below(t.len() as u64) as usize);
            let new = f.flip(p);
            wc.apply_flip(p, new);
        }
        prop_assert!(wc.verify_against(&f));
    }

    /// Prefix rectangle counts are additive under horizontal splits.
    #[test]
    fn rect_split_additive(
        seed in any::<u64>(),
        n in 4u32..32,
        ox in 0i64..32, oy in 0i64..32,
        w1 in 1u32..16, w2 in 1u32..16, h in 1u32..16,
    ) {
        let t = Torus::new(n);
        prop_assume!(w1 + w2 <= n && h <= n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let f = TypeField::random(t, 0.4, &mut rng);
        let ps = PrefixSums::new(&f);
        let o = t.point(ox, oy);
        let left = ps.plus_in_rect(o, w1, h);
        let right = ps.plus_in_rect(t.offset(o, w1 as i64, 0), w2, h);
        let whole = ps.plus_in_rect(o, w1 + w2, h);
        prop_assert_eq!(left + right, whole);
    }

    /// The RNG's bounded sampler is within range and total_cmp-safe.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1000) {
        let mut r = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(r.next_below(bound) < bound);
            let f = r.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// Field flips are involutive and plus totals track exactly.
    #[test]
    fn field_flip_involution(seed in any::<u64>(), n in 2u32..20, idx in 0usize..400) {
        let t = Torus::new(n);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut f = TypeField::random(t, 0.5, &mut rng);
        let p = t.from_index(idx % t.len());
        let before = f.get(p);
        let total_before = f.plus_total();
        f.flip(p);
        f.flip(p);
        prop_assert_eq!(f.get(p), before);
        prop_assert_eq!(f.plus_total(), total_before);
        let _ = AgentType::Plus; // keep the import used under cfg variations
    }
}
