//! Property-based tests for the grid substrate.

use proptest::prelude::*;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{
    AgentType, ClassTable, IndexedSet, Neighborhood, Point, PrefixSums, RankedSet, Torus,
    TrackedSet, Transition, TypeField, WindowCounts,
};

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

/// A tracked set as the two-pass reference below maintains it.
trait ReferenceSet: TrackedSet + Clone {
    /// The members in the order a sampler sees them.
    fn members(&self) -> Vec<Vec<usize>>;
    /// Cell `i` changed type from `old` to `new` and keeps its membership.
    fn retyped(&mut self, i: usize, old: AgentType, new: AgentType);
}

impl ReferenceSet for IndexedSet {
    fn members(&self) -> Vec<Vec<usize>> {
        vec![self.iter().collect()]
    }

    fn retyped(&mut self, _: usize, _: AgentType, _: AgentType) {}
}

impl ReferenceSet for [RankedSet; 2] {
    fn members(&self) -> Vec<Vec<usize>> {
        self.iter()
            .map(|s| (0..s.len()).map(|k| s.select(k)).collect())
            .collect()
    }

    fn retyped(&mut self, i: usize, old: AgentType, new: AgentType) {
        if self[old as usize].contains(i) {
            self[old as usize].remove(i);
            self[new as usize].insert(i);
        }
    }
}

/// A classifier of the same-type count `s` over `0..=n`: `base` below
/// the first change point, then XOR-ed with each `(s_k, toggle)` from
/// `s_k` on. A toggle is a non-zero `(tracked, unhappy)` bit pair, so
/// every change point moves a class.
fn stepped_rule(base: u8, changes: &[(u32, u8)]) -> impl Fn(u32) -> (bool, bool) + '_ {
    move |s| {
        let class = changes
            .iter()
            .filter(|&&(at, _)| s >= at)
            .fold(base, |c, &(_, toggle)| c ^ toggle);
        (class & 1 != 0, class & 2 != 0)
    }
}

/// How many plus counts a flip to `new_type` steps some agent across a
/// class boundary from, counting only the states a stepped agent can be
/// in: its window holds itself and the flipped agent's old type.
fn loud_len(ct: &ClassTable, new_type: AgentType) -> usize {
    let n = ct.n_size();
    (0..=n)
        .filter(|&pc| {
            [AgentType::Minus, AgentType::Plus].into_iter().any(|ty| {
                let pluses = [ty, new_type.flipped()]
                    .iter()
                    .filter(|&&t| t == AgentType::Plus)
                    .count() as u32;
                let reachable = pc >= pluses && n - pc >= 2 - pluses;
                let class = ct.class(ty, pc);
                reachable && ct.transition(ty, pc, new_type) != Transition::between(class, class)
            })
        })
        .count()
}

/// Random flips through the fused kernel against the two-pass reference
/// (count update, then a row-major reclassification sweep of the window):
/// the same members in the same order, and the same unhappy total, after
/// every flip.
fn fused_matches_two_pass<S: ReferenceSet>(
    field: &TypeField,
    w: u32,
    ct: &ClassTable,
    sites: &[usize],
) -> Result<(), String> {
    let t = field.torus();
    let mut f_ref = field.clone();
    let mut wc_ref = WindowCounts::new(&f_ref, w);
    let mut set_ref = S::empty(t.len());
    for i in 0..t.len() {
        let ty = f_ref.get_index(i);
        if ct.tracked(ty, wc_ref.plus_count_index(i)) {
            set_ref.insert(i, ty);
        }
    }
    let (mut f, mut wc, mut set) = (f_ref.clone(), wc_ref.clone(), set_ref.clone());
    let mut unhappy = (0..t.len())
        .filter(|&i| ct.unhappy(f.get_index(i), wc.plus_count_index(i)))
        .count() as i64;
    for (k, &site) in sites.iter().enumerate() {
        let p = t.from_index(site);
        let new = f_ref.flip(p);
        wc_ref.apply_flip(p, new);
        set_ref.retyped(site, new.flipped(), new);
        let r = i64::from(w);
        for dy in -r..=r {
            for dx in -r..=r {
                let v = t.index(t.offset(p, dx, dy));
                let ty = f_ref.get_index(v);
                if ct.tracked(ty, wc_ref.plus_count_index(v)) {
                    set_ref.insert(v, ty);
                } else {
                    set_ref.remove(v, ty);
                }
            }
        }
        f.flip(p);
        unhappy += wc.apply_flip_fused(p, new, &f, ct, &mut set);
        if set.members() != set_ref.members() {
            return Err(format!("tracked set diverged at flip {k} (site {site})"));
        }
        let brute = (0..t.len())
            .filter(|&i| ct.unhappy(f.get_index(i), wc.plus_count_index(i)))
            .count() as i64;
        if unhappy != brute {
            return Err(format!("unhappy {unhappy} != {brute} at flip {k}"));
        }
    }
    if !wc.verify_against(&f) {
        return Err("counts diverged".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused kernel, quiet-run check included, against the two-pass
    /// update for class tables stepped over S at random: none, one and
    /// three change points, i.e. no loud counts, at most
    /// `ClassTable::MAX_LOUD` and more, per flip direction. Windows are
    /// narrower and wider than the check's threshold (w = 16 has row runs
    /// longer than one 32-cell gather block), on tori as narrow as the
    /// window, and fields are near monochrome or balanced, so every
    /// reachable count, 0 and N included, comes up.
    #[test]
    fn fused_kernel_matches_two_pass_for_any_class_table(
        seed in any::<u64>(),
        w_pick in 0usize..5,
        extra_side in 0u32..7,
        density_pick in 0usize..3,
        base in 0u8..4,
        guard in 0u8..4,
        toggles in prop::collection::vec(1u8..4, 3..4),
        offsets in prop::collection::vec(0u32..1000, 3..4),
        centres in prop::collection::vec(0usize..2, 3..4),
    ) {
        let w = [4u32, 5, 6, 8, 16][w_pick];
        let side = 2 * w + 1 + extra_side * (w / 4);
        let n = (2 * w + 1) * (2 * w + 1);
        let p = [0.005, 0.5, 0.995][density_pick];
        // change points where counts sit: around the same-type count of
        // a typical Plus (pN) or Minus ((1 − p)N) agent, within ±2√N
        let spread = 4 * (f64::from(n).sqrt() as u32) + 1;
        let changes: Vec<(u32, u8)> = (0..3)
            .map(|k| {
                let centre = (if centres[k] == 0 { p } else { 1.0 - p } * f64::from(n)) as u32;
                let s = (centre + offsets[k] % spread).saturating_sub(spread / 2);
                (s.clamp(2, n), toggles[k])
            })
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let field = TypeField::random(Torus::new(side), p, &mut rng);
        // each site flips and flips back, so both directions step the
        // same windows, near monochrome ones included
        let sites: Vec<usize> = (0..20)
            .map(|_| rng.next_below(u64::from(side * side)) as usize)
            .flat_map(|site| [site, site])
            .collect();
        for used in [0, 1, 3] {
            let mut points = changes[..used].to_vec();
            points.sort_unstable();
            points.dedup_by_key(|c| c.0);
            let distinct = points.len();
            // a class change between S = 0 and 1, as a rule guarding the
            // unreachable S = 0 has: no stepped agent crosses it
            if guard != 0 {
                points.insert(0, (1, guard));
            }
            let ct = ClassTable::build_same_count(n, stepped_rule(base, &points));
            let louds = [AgentType::Minus, AgentType::Plus].map(|ty| loud_len(&ct, ty));
            let max = louds[0].max(louds[1]);
            match distinct {
                0 => prop_assert_eq!(max, 0),
                1 => prop_assert!((1..=ClassTable::MAX_LOUD).contains(&max), "{louds:?}"),
                2 => {}
                _ => prop_assert!(max > ClassTable::MAX_LOUD, "{louds:?} from {points:?}"),
            }
            let what = format!("w={w} side={side} p={p} changes={points:?} loud={louds:?}");
            let indexed = fused_matches_two_pass::<IndexedSet>(&field, w, &ct, &sites);
            prop_assert!(indexed.is_ok(), "IndexedSet, {what}: {indexed:?}");
            let ranked = fused_matches_two_pass::<[RankedSet; 2]>(&field, w, &ct, &sites);
            prop_assert!(ranked.is_ok(), "[RankedSet; 2], {what}: {ranked:?}");
        }
    }
}
