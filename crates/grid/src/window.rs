//! Incremental per-agent neighborhood counts — the dynamics hot path.

use crate::{AgentType, IndexedSet, Point, Torus, TypeField};

/// A per-type lookup table classifying an agent by the number of `+1`
/// agents in its window: `class[type][plus_count] → {tracked?, unhappy?}`.
///
/// The dynamics layers derive one table from their happiness rule
/// (`Intolerance`, comfort bands, …) and hand it to
/// [`WindowCounts::apply_flip_fused`], which then classifies every cell a
/// flip touches with two array loads instead of re-running the threshold
/// arithmetic. Two independent bits are stored per entry:
///
/// - [`ClassTable::TRACKED`] — the agent belongs in the caller's
///   incrementally-maintained [`IndexedSet`] (e.g. *flippable* for the
///   paper's rule, *unhappy* for the flip-when-unhappy variant);
/// - [`ClassTable::UNHAPPY`] — the agent is unhappy/discontent, used to
///   maintain unhappy counts incrementally.
///
/// The three paper classes *flippable* / *happy* / *stuck* correspond to
/// `TRACKED|UNHAPPY`, `0`, and `UNHAPPY` respectively under the paper's
/// rule.
#[derive(Clone, Debug)]
pub struct ClassTable {
    n_size: u32,
    /// `bits[(ty as usize) * (N + 1) + plus_count]`; `Minus` rows first.
    bits: Box<[u8]>,
}

impl ClassTable {
    /// Bit 0: the agent belongs in the tracked [`IndexedSet`].
    pub const TRACKED: u8 = 1;
    /// Bit 1: the agent is unhappy (counts toward the unhappy total).
    pub const UNHAPPY: u8 = 2;

    /// Builds a table for windows of size `n_size` from a classifier
    /// `classify(type, plus_count) -> (tracked, unhappy)` evaluated over
    /// every `plus_count ∈ 0..=n_size`.
    ///
    /// Entries for impossible states (a `Plus` agent with `plus_count = 0`,
    /// a `Minus` agent with `plus_count = N` — the agent counts itself) are
    /// built but never read by the fused kernel.
    pub fn build(n_size: u32, mut classify: impl FnMut(AgentType, u32) -> (bool, bool)) -> Self {
        let stride = n_size as usize + 1;
        let mut bits = vec![0u8; 2 * stride].into_boxed_slice();
        for ty in [AgentType::Minus, AgentType::Plus] {
            for pc in 0..=n_size {
                let (tracked, unhappy) = classify(ty, pc);
                bits[(ty as usize) * stride + pc as usize] =
                    u8::from(tracked) * Self::TRACKED + u8::from(unhappy) * Self::UNHAPPY;
            }
        }
        ClassTable { n_size, bits }
    }

    /// Builds a table from a *same-type-count* classifier: the type →
    /// plus-count mapping (`S = plus_count` for a `Plus` agent, `S = N −
    /// plus_count` for a `Minus` agent) is applied here, once, so callers
    /// state their rule purely in terms of `S`. `classify(s)` is evaluated
    /// for every `s ∈ 0..=N`; `s = 0` is unreachable in live states (an
    /// agent counts itself) and its entries are never read by the fused
    /// kernel, but `classify` must tolerate it.
    pub fn build_same_count(n_size: u32, mut classify: impl FnMut(u32) -> (bool, bool)) -> Self {
        Self::build(n_size, |ty, pc| {
            let s = match ty {
                AgentType::Plus => pc,
                AgentType::Minus => n_size - pc,
            };
            classify(s)
        })
    }

    /// The window size `N` the table was built for.
    #[inline]
    pub fn n_size(&self) -> u32 {
        self.n_size
    }

    /// The raw class bits for an agent of type `ty` whose window holds
    /// `plus_count` `+1` agents.
    #[inline]
    pub fn class(&self, ty: AgentType, plus_count: u32) -> u8 {
        self.bits[(ty as usize) * (self.n_size as usize + 1) + plus_count as usize]
    }

    /// Whether the agent belongs in the tracked set.
    #[inline]
    pub fn tracked(&self, ty: AgentType, plus_count: u32) -> bool {
        self.class(ty, plus_count) & Self::TRACKED != 0
    }

    /// Whether the agent is unhappy.
    #[inline]
    pub fn unhappy(&self, ty: AgentType, plus_count: u32) -> bool {
        self.class(ty, plus_count) & Self::UNHAPPY != 0
    }
}

/// For every agent `u`, the number of `+1` agents in its neighborhood
/// `N(u)` (the l∞ ball of radius `w` centered at `u`, self included).
///
/// Built in O(n²) with a separable box filter, and updated in O((2w+1)²)
/// when an agent flips: exactly the balls containing the flipped site are
/// touched. The same-type count `S(u)` of §II-A follows as
/// [`WindowCounts::same_count`].
///
/// # Example
///
/// ```
/// use seg_grid::{Torus, TypeField, AgentType, WindowCounts};
/// let t = Torus::new(32);
/// let mut f = TypeField::uniform(t, AgentType::Plus);
/// let mut wc = WindowCounts::new(&f, 3); // N = 49
/// let u = t.point(4, 4);
/// assert_eq!(wc.plus_count(u), 49);
/// // flip the center and propagate
/// f.flip(u);
/// wc.apply_flip(u, AgentType::Minus);
/// assert_eq!(wc.plus_count(u), 48);
/// ```
#[derive(Clone, Debug)]
pub struct WindowCounts {
    torus: Torus,
    horizon: u32,
    /// plus[i] = number of `+1` agents in the ball of radius `horizon`
    /// centered at the i-th cell.
    plus: Vec<u32>,
}

impl WindowCounts {
    /// Builds the counts for the given field and horizon `w`.
    ///
    /// # Panics
    ///
    /// Panics if the window diameter `2w + 1` exceeds the torus side (the
    /// paper takes `w ∈ O(√log n)`, far below that).
    pub fn new(field: &TypeField, horizon: u32) -> Self {
        let torus = field.torus();
        let n = torus.side() as usize;
        assert!(
            2 * horizon < torus.side(),
            "window diameter {} exceeds torus side {}",
            2 * horizon + 1,
            torus.side()
        );
        let w = horizon as usize;
        // Separable box filter with wrap-around: horizontal sliding sums
        // along each row, then vertical sliding sums of whole rows. The
        // window's entering and leaving indices advance by one per step,
        // so they wrap with a compare instead of a division.
        let wrap = |i: usize| if i >= n { i - n } else { i };
        let mut horiz = vec![0u32; n * n];
        for (types, out) in field
            .as_slice()
            .chunks_exact(n)
            .zip(horiz.chunks_exact_mut(n))
        {
            let is_plus = |x: usize| u32::from(types[x] == AgentType::Plus);
            let mut s: u32 = (0..=2 * w).map(|dx| is_plus(wrap(dx + n - w))).sum();
            out[0] = s;
            let (mut enter, mut leave) = (wrap(w + 1), wrap(n - w));
            for o in &mut out[1..] {
                s = s + is_plus(enter) - is_plus(leave);
                *o = s;
                enter = wrap(enter + 1);
                leave = wrap(leave + 1);
            }
        }
        let row = |y: usize| &horiz[y * n..(y + 1) * n];
        let mut plus = vec![0u32; n * n];
        for dy in 0..=2 * w {
            for (p, h) in plus[..n].iter_mut().zip(row(wrap(dy + n - w))) {
                *p += h;
            }
        }
        let (mut enter, mut leave) = (wrap(w + 1), wrap(n - w));
        for y in 1..n {
            let (done, rest) = plus.split_at_mut(y * n);
            let above = &done[(y - 1) * n..];
            for (((p, a), e), l) in rest[..n]
                .iter_mut()
                .zip(above)
                .zip(row(enter))
                .zip(row(leave))
            {
                *p = a + e - l;
            }
            enter = wrap(enter + 1);
            leave = wrap(leave + 1);
        }
        WindowCounts {
            torus,
            horizon,
            plus,
        }
    }

    /// The horizon `w`.
    #[inline]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The neighborhood size `N = (2w + 1)²`.
    #[inline]
    pub fn neighborhood_size(&self) -> u32 {
        let d = 2 * self.horizon + 1;
        d * d
    }

    /// The underlying torus.
    #[inline]
    pub fn torus(&self) -> Torus {
        self.torus
    }

    /// Number of `+1` agents in `N(u)`.
    #[inline]
    pub fn plus_count(&self, u: Point) -> u32 {
        self.plus[self.torus.index(u)]
    }

    /// Number of `+1` agents in the neighborhood of the i-th cell.
    #[inline]
    pub fn plus_count_index(&self, i: usize) -> u32 {
        self.plus[i]
    }

    /// Number of `-1` agents in `N(u)`.
    #[inline]
    pub fn minus_count(&self, u: Point) -> u32 {
        self.neighborhood_size() - self.plus_count(u)
    }

    /// Same-type count `S(u)` for an agent of type `t` at `u` (§II-A's
    /// numerator of `s(u)`; includes the agent itself).
    #[inline]
    pub fn same_count(&self, u: Point, t: AgentType) -> u32 {
        match t {
            AgentType::Plus => self.plus_count(u),
            AgentType::Minus => self.minus_count(u),
        }
    }

    /// Same-type count by linear index.
    #[inline]
    pub fn same_count_index(&self, i: usize, t: AgentType) -> u32 {
        match t {
            AgentType::Plus => self.plus[i],
            AgentType::Minus => self.neighborhood_size() - self.plus[i],
        }
    }

    /// Propagates a flip of the agent at `z` to the counts.
    ///
    /// `new_type` is the type of the agent *after* the flip. Exactly the
    /// `(2w+1)²` cells whose ball contains `z` are updated.
    pub fn apply_flip(&mut self, z: Point, new_type: AgentType) {
        let delta: u32 = match new_type {
            AgentType::Plus => 1,
            AgentType::Minus => 0u32.wrapping_sub(1),
        };
        let n = self.torus.side();
        let d = 2 * self.horizon + 1;
        // wrap once per flip; walk the window with carry-style increments
        let x0 = self.torus.wrap(z.x as i64 - self.horizon as i64);
        let mut y = self.torus.wrap(z.y as i64 - self.horizon as i64);
        for _ in 0..d {
            let row = y as usize * n as usize;
            let mut x = x0;
            for _ in 0..d {
                let cell = &mut self.plus[row + x as usize];
                *cell = cell.wrapping_add(delta);
                x += 1;
                if x == n {
                    x = 0;
                }
            }
            y += 1;
            if y == n {
                y = 0;
            }
        }
    }

    /// The fused flip kernel: one pass over the `(2w+1)²` window that both
    /// propagates the count delta **and** reclassifies every touched agent
    /// against `classes`, feeding the caller's `tracked` set in row-major
    /// window order. Returns the net change in the number of unhappy
    /// agents, so callers can maintain their unhappy totals incrementally.
    ///
    /// `field` must already reflect the flip (i.e. `field.get(z) ==
    /// new_type`); the flipped agent's *old* class is evaluated with its
    /// old type, every other agent keeps its type across the flip.
    ///
    /// `tracked` must hold exactly the cells whose class before the flip
    /// has [`ClassTable::TRACKED`] set (debug builds assert it per touched
    /// cell). The set is then only written where that bit changes: the
    /// skipped writes were no-ops, so the effective insert/remove sequence
    /// is exactly that of [`WindowCounts::apply_flip`] followed by a
    /// row-major classification sweep over the window, and trajectories
    /// that sample from `tracked` are bit-identical to the unfused
    /// two-pass update.
    pub fn apply_flip_fused(
        &mut self,
        z: Point,
        new_type: AgentType,
        field: &TypeField,
        classes: &ClassTable,
        tracked: &mut IndexedSet,
    ) -> i64 {
        debug_assert_eq!(field.get(z), new_type, "field must be flipped first");
        debug_assert_eq!(classes.n_size(), self.neighborhood_size());
        let delta: u32 = match new_type {
            AgentType::Plus => 1,
            AgentType::Minus => 0u32.wrapping_sub(1),
        };
        let n = self.torus.side();
        let d = 2 * self.horizon + 1;
        let zi = self.torus.index(z);
        let old_type = new_type.flipped();
        let x0 = self.torus.wrap(z.x as i64 - self.horizon as i64);
        let mut y = self.torus.wrap(z.y as i64 - self.horizon as i64);
        let mut unhappy_delta: i64 = 0;
        for _ in 0..d {
            let row = y as usize * n as usize;
            let mut x = x0;
            for _ in 0..d {
                let i = row + x as usize;
                let old_pc = self.plus[i];
                let new_pc = old_pc.wrapping_add(delta);
                self.plus[i] = new_pc;
                let ty = field.get_index(i);
                let ty_before = if i == zi { old_type } else { ty };
                let was = classes.class(ty_before, old_pc);
                let now = classes.class(ty, new_pc);
                unhappy_delta += i64::from(now >> 1) - i64::from(was >> 1);
                debug_assert_eq!(
                    tracked.contains(i),
                    was & ClassTable::TRACKED != 0,
                    "tracked set out of sync with the class table at cell {i}"
                );
                // membership already equals `was`'s bit, so an unchanged
                // bit would make the insert/remove a no-op
                if (now ^ was) & ClassTable::TRACKED != 0 {
                    if now & ClassTable::TRACKED != 0 {
                        tracked.insert(i);
                    } else {
                        tracked.remove(i);
                    }
                }
                x += 1;
                if x == n {
                    x = 0;
                }
            }
            y += 1;
            if y == n {
                y = 0;
            }
        }
        unhappy_delta
    }

    /// Recomputes from scratch and asserts agreement — a debugging aid used
    /// by tests and the simulation's `audit` mode.
    pub fn verify_against(&self, field: &TypeField) -> bool {
        let fresh = WindowCounts::new(field, self.horizon);
        fresh.plus == self.plus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::Neighborhood;

    fn brute_counts(field: &TypeField, w: u32) -> Vec<u32> {
        let t = field.torus();
        (0..t.len())
            .map(|i| {
                let ball = Neighborhood::new(t, t.from_index(i), w);
                ball.points()
                    .filter(|p| field.get(*p) == AgentType::Plus)
                    .count() as u32
            })
            .collect()
    }

    #[test]
    fn build_matches_brute_force() {
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        for side in 1..=19u32 {
            let t = Torus::new(side);
            let f = TypeField::random(t, 0.5, &mut rng);
            for w in (0..side).take_while(|w| 2 * w < side) {
                let wc = WindowCounts::new(&f, w);
                assert_eq!(wc.plus, brute_counts(&f, w), "side = {side}, w = {w}");
            }
        }
    }

    #[test]
    fn flip_update_matches_rebuild() {
        let t = Torus::new(19);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut f = TypeField::random(t, 0.5, &mut rng);
        let mut wc = WindowCounts::new(&f, 3);
        for k in 0..50 {
            let p = t.from_index(rng.next_below(t.len() as u64) as usize);
            let new = f.flip(p);
            wc.apply_flip(p, new);
            if k % 10 == 0 {
                assert!(wc.verify_against(&f), "divergence after flip {k}");
            }
        }
        assert!(wc.verify_against(&f));
    }

    #[test]
    fn same_count_sums_to_neighborhood_size() {
        let t = Torus::new(13);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let f = TypeField::random(t, 0.3, &mut rng);
        let wc = WindowCounts::new(&f, 2);
        for p in t.points() {
            let s_plus = wc.same_count(p, AgentType::Plus);
            let s_minus = wc.same_count(p, AgentType::Minus);
            assert_eq!(s_plus + s_minus, wc.neighborhood_size());
        }
    }

    #[test]
    fn uniform_field_counts_full() {
        let t = Torus::new(9);
        let f = TypeField::uniform(t, AgentType::Plus);
        let wc = WindowCounts::new(&f, 4);
        for p in t.points() {
            assert_eq!(wc.plus_count(p), 81);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds torus side")]
    fn oversized_window_panics() {
        let t = Torus::new(8);
        let f = TypeField::uniform(t, AgentType::Plus);
        let _ = WindowCounts::new(&f, 4); // 2*4+1 = 9 > 8
    }

    /// A `τ = 0.4`-style table over N = 25: tracked = flippable.
    fn example_table() -> ClassTable {
        let n = 25u32;
        let thr = 10u32;
        ClassTable::build(n, |ty, pc| {
            let s = match ty {
                AgentType::Plus => pc,
                AgentType::Minus => n - pc,
            };
            let happy = s >= thr;
            let improvable = n - s + 1 >= thr;
            (!happy && improvable, !happy)
        })
    }

    #[test]
    fn class_table_bits() {
        let ct = example_table();
        assert_eq!(ct.n_size(), 25);
        // a Plus agent with 12 pluses around it: happy
        assert!(!ct.tracked(AgentType::Plus, 12) && !ct.unhappy(AgentType::Plus, 12));
        // a Plus agent with 5 pluses: unhappy, flip gives 25-5+1 = 21 ≥ 10
        assert!(ct.tracked(AgentType::Plus, 5) && ct.unhappy(AgentType::Plus, 5));
        // a Minus agent with 20 pluses: S = 5, same classification
        assert_eq!(ct.class(AgentType::Minus, 20), ct.class(AgentType::Plus, 5));
    }

    #[test]
    fn fused_kernel_matches_two_pass_update() {
        let t = Torus::new(19);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let ct = example_table();
        // reference: field + counts updated with apply_flip, set rebuilt
        // by a row-major window sweep after each flip
        let mut f_ref = TypeField::random(t, 0.5, &mut rng);
        let mut wc_ref = WindowCounts::new(&f_ref, 2);
        let mut set_ref = IndexedSet::new(t.len());
        for i in 0..t.len() {
            if ct.tracked(f_ref.get_index(i), wc_ref.plus_count_index(i)) {
                set_ref.insert(i);
            }
        }
        let mut f = f_ref.clone();
        let mut wc = wc_ref.clone();
        let mut set = set_ref.clone();
        let mut unhappy = (0..t.len())
            .filter(|&i| ct.unhappy(f.get_index(i), wc.plus_count_index(i)))
            .count() as i64;
        for _ in 0..200 {
            let p = t.from_index(rng.next_below(t.len() as u64) as usize);
            // reference: two passes
            let new_ref = f_ref.flip(p);
            wc_ref.apply_flip(p, new_ref);
            let w = 2i64;
            for dy in -w..=w {
                for dx in -w..=w {
                    let v = t.offset(p, dx, dy);
                    let vi = t.index(v);
                    if ct.tracked(f_ref.get_index(vi), wc_ref.plus_count_index(vi)) {
                        set_ref.insert(vi);
                    } else {
                        set_ref.remove(vi);
                    }
                }
            }
            // fused: one pass
            let new = f.flip(p);
            unhappy += wc.apply_flip_fused(p, new, &f, &ct, &mut set);
            assert!(wc.verify_against(&f));
            // identical membership AND identical internal order
            let a: Vec<usize> = set.iter().collect();
            let b: Vec<usize> = set_ref.iter().collect();
            assert_eq!(a, b, "fused set diverged from two-pass set");
            let brute_unhappy = (0..t.len())
                .filter(|&i| ct.unhappy(f.get_index(i), wc.plus_count_index(i)))
                .count() as i64;
            assert_eq!(unhappy, brute_unhappy, "incremental unhappy count diverged");
        }
    }

    #[test]
    fn fused_kernel_wraps_across_edges() {
        // flips at the corner exercise the wrap-around fast paths
        let t = Torus::new(9);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut f = TypeField::random(t, 0.5, &mut rng);
        let mut wc = WindowCounts::new(&f, 4); // window diameter 9 = side
        let ct = ClassTable::build(81, |ty, pc| {
            let s = match ty {
                AgentType::Plus => pc,
                AgentType::Minus => 81 - pc,
            };
            (s < 33, s < 33)
        });
        let mut set = IndexedSet::new(t.len());
        for i in 0..t.len() {
            if ct.tracked(f.get_index(i), wc.plus_count_index(i)) {
                set.insert(i);
            }
        }
        for corner in [t.point(0, 0), t.point(8, 8), t.point(0, 8), t.point(8, 0)] {
            let new = f.flip(corner);
            wc.apply_flip_fused(corner, new, &f, &ct, &mut set);
            assert!(wc.verify_against(&f), "corner {corner} diverged");
        }
    }
}
