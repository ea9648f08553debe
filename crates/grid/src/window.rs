//! Incremental per-agent neighborhood counts — the dynamics hot path.

use crate::{AgentType, IndexedSet, Point, RankedSet, Torus, TypeField};
use std::ops::Range;

/// Whether a window of horizon `w` (diameter `2w + 1`) fits a torus of
/// side `n`, i.e. `2w + 1 ≤ n` — compared in `u64`, so a huge `w` cannot
/// wrap `2w` back under the side. Every constructor and request
/// validator of a windowed process checks this one predicate.
pub fn window_fits(side: u32, horizon: u32) -> bool {
    2 * u64::from(horizon) < u64::from(side)
}

/// The cells a dynamics process tracks — those whose [`ClassTable`] class
/// has [`ClassTable::TRACKED`] set — as the fused flip kernel maintains
/// them.
///
/// The kernel tells the set each cell's type, so a set may keep its
/// members by type ([`RankedSet`] pairs, for example); a plain set
/// ignores it. Only the flipped cell changes type, and it alone goes
/// through [`TrackedSet::retype`].
pub trait TrackedSet {
    /// An empty set over the cells `0..capacity`.
    fn empty(capacity: usize) -> Self;

    /// Whether cell `i` is in the set.
    fn contains(&self, i: usize) -> bool;

    /// Cell `i`, of type `ty`, becomes tracked.
    fn insert(&mut self, i: usize, ty: AgentType);

    /// Cell `i`, of type `ty`, stops being tracked.
    fn remove(&mut self, i: usize, ty: AgentType);

    /// Cell `i` flipped to `new_type`, and `step` takes its tracked bit
    /// from the old type's class to the new type's. The default writes
    /// the set only when the bit changes, which is right for a set that
    /// ignores types.
    // always: with the kernel instantiated with and without the quiet-run
    // check, `#[inline]` alone left it a call
    #[inline(always)]
    fn retype(&mut self, i: usize, new_type: AgentType, step: Transition) {
        if step.tracked_changed() {
            if step.tracked() {
                self.insert(i, new_type);
            } else {
                self.remove(i, new_type.flipped());
            }
        }
    }
}

impl TrackedSet for IndexedSet {
    #[inline]
    fn empty(capacity: usize) -> Self {
        IndexedSet::new(capacity)
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        IndexedSet::contains(self, i)
    }

    #[inline]
    fn insert(&mut self, i: usize, _ty: AgentType) {
        IndexedSet::insert(self, i);
    }

    #[inline]
    fn remove(&mut self, i: usize, _ty: AgentType) {
        IndexedSet::remove(self, i);
    }
}

/// Tracked cells kept by type: `[Minus members, Plus members]`, each in
/// ascending index order, so a process can draw the `k`-th tracked cell
/// of either type in O(log n).
impl TrackedSet for [RankedSet; 2] {
    fn empty(capacity: usize) -> Self {
        [RankedSet::new(capacity), RankedSet::new(capacity)]
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self[0].contains(i) || self[1].contains(i)
    }

    #[inline]
    fn insert(&mut self, i: usize, ty: AgentType) {
        self[ty as usize].insert(i);
    }

    #[inline]
    fn remove(&mut self, i: usize, ty: AgentType) {
        self[ty as usize].remove(i);
    }

    #[inline(always)]
    fn retype(&mut self, i: usize, new_type: AgentType, step: Transition) {
        // tracked before the step, under the old type
        if step.tracked() != step.tracked_changed() {
            self[new_type.flipped() as usize].remove(i);
        }
        if step.tracked() {
            self[new_type as usize].insert(i);
        }
    }
}

/// A per-type lookup table classifying an agent by the number of `+1`
/// agents in its window: `class[type][plus_count] → {tracked?, unhappy?}`.
///
/// The dynamics core (`seg_core::dynamics::GridDynamics`) derives one
/// table from its process's happiness rule (`Intolerance`, comfort bands,
/// …) and hands it to [`WindowCounts::apply_flip_fused`]. Two independent bits are stored
/// per entry:
///
/// - [`ClassTable::TRACKED`] — the agent belongs in the caller's
///   incrementally-maintained [`TrackedSet`] (e.g. *flippable* for the
///   paper's rule, *unhappy* for the flip-when-unhappy variant);
/// - [`ClassTable::UNHAPPY`] — the agent is unhappy/discontent, used to
///   maintain unhappy counts incrementally.
///
/// The three paper classes *flippable* / *happy* / *stuck* correspond to
/// `TRACKED|UNHAPPY`, `0`, and `UNHAPPY` respectively under the paper's
/// rule.
///
/// A flip moves every other agent in its window by one count in the same
/// direction, so the table also precomputes, per direction, the
/// [`Transition`] from `class(ty, pc)` to `class(ty, pc ± 1)`: the kernel
/// then classifies a touched agent with one array load.
///
/// Most of those transitions are *quiet*: the tracked bit stays and the
/// unhappy count does not move. Per direction the table also lists the
/// *loud* plus counts, where the transition of either type is not quiet,
/// so the kernel can pass over a window row that holds none of them with
/// a plain count add. The list leaves out the states no stepped agent is
/// in: its window holds itself and the flipped agent's old type, so a
/// flip to `Plus` steps a `Plus` agent from `1..N` and a `Minus` agent
/// from `0..N−1`, and a flip to `Minus` a `Plus` agent from `2..=N` and a
/// `Minus` agent from `1..N`. Counted in, they would make every
/// monochrome window, and for many rules every run, read as loud. The
/// list holds at most [`ClassTable::MAX_LOUD`] counts and is absent for a
/// direction with more; the kernel then classifies every cell, as it does
/// for any rule. The paper's rule has two loud counts per direction below
/// ½ (where an agent turns happy or unhappy) and four above, where
/// flippable and unhappy part.
#[derive(Clone, Debug)]
pub struct ClassTable {
    n_size: u32,
    /// `bits[(ty as usize) * (N + 1) + plus_count]`; `Minus` rows first.
    bits: Box<[u8]>,
    /// `up[k]` is the transition from `bits[k]` to the same type's class
    /// at `plus_count + 1` (a nearby agent flipped to `Plus`); same layout
    /// as `bits`.
    up: Box<[Transition]>,
    /// `down[k]`: from `bits[k]` to the class at `plus_count − 1`.
    down: Box<[Transition]>,
    /// The loud plus counts of a flip to `Minus` and to `Plus`, indexed by
    /// the new type and padded with `u32::MAX`, which no count reaches;
    /// `None` for a direction with more than [`ClassTable::MAX_LOUD`].
    loud: [Option<[u32; ClassTable::MAX_LOUD]>; 2],
}

impl ClassTable {
    /// Bit 0: the agent belongs in the caller's [`TrackedSet`].
    pub const TRACKED: u8 = 1;
    /// Bit 1: the agent is unhappy (counts toward the unhappy total).
    pub const UNHAPPY: u8 = 2;
    /// The most loud plus counts a flip direction may have for the kernel
    /// to skip quiet window rows. Two, the paper's rule below ½: above ½
    /// its four loud counts put about one row in five at a class boundary
    /// (w = 8), and checking for them and stepping those rows saved
    /// nothing over the table walk.
    pub const MAX_LOUD: usize = 2;

    /// Builds a table for windows of size `n_size` from a classifier
    /// `classify(type, plus_count) -> (tracked, unhappy)` evaluated over
    /// every `plus_count ∈ 0..=n_size`.
    ///
    /// Entries for impossible states (a `Plus` agent with `plus_count = 0`,
    /// a `Minus` agent with `plus_count = N` — the agent counts itself) are
    /// built but never read by the fused kernel. The transitions out of
    /// the range (up from `N`, down from `0`) are built as no-ops.
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
        let last = n_size as usize;
        let mut up = Vec::with_capacity(bits.len());
        let mut down = Vec::with_capacity(bits.len());
        for row in bits.chunks_exact(stride) {
            for pc in 0..stride {
                up.push(Transition::between(row[pc], row[(pc + 1).min(last)]));
                down.push(Transition::between(row[pc], row[pc.saturating_sub(1)]));
            }
        }
        // a flip to Minus steps down from a Plus agent, and one to Plus up
        let loud = [
            loud_counts(&down, n_size, AgentType::Plus),
            loud_counts(&up, n_size, AgentType::Minus),
        ];
        ClassTable {
            n_size,
            bits,
            up: up.into(),
            down: down.into(),
            loud,
        }
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

    /// The precomputed [`Transition`] of an agent of type `ty` whose window
    /// holds `plus_count` `+1` agents when another agent in it flips to
    /// `new_type`: from `class(ty, plus_count)` to `class(ty, plus_count ±
    /// 1)`, `+` for a flip to `Plus`. The kernel reads it per touched cell.
    #[inline]
    pub fn transition(&self, ty: AgentType, plus_count: u32, new_type: AgentType) -> Transition {
        self.transitions(new_type)[(ty as usize) * (self.n_size as usize + 1) + plus_count as usize]
    }

    /// The per-direction transition table for a flip to `new_type`.
    #[inline]
    fn transitions(&self, new_type: AgentType) -> &[Transition] {
        match new_type {
            AgentType::Plus => &self.up,
            AgentType::Minus => &self.down,
        }
    }
}

/// The plus counts at which a step by `steps` (one direction's
/// transitions, `Minus` rows then `Plus` rows of `N + 1`) is not quiet for
/// an agent of either type, padded with `u32::MAX`; `None` if there are
/// more than [`ClassTable::MAX_LOUD`]. Only the counts an agent the kernel
/// steps can hold are read: its window holds itself and the flipped agent,
/// which was of type `flipped_from`.
fn loud_counts(
    steps: &[Transition],
    n_size: u32,
    flipped_from: AgentType,
) -> Option<[u32; ClassTable::MAX_LOUD]> {
    let stride = n_size as usize + 1;
    let is_loud = |ty: AgentType, pc: u32| {
        let plus = u32::from(ty == AgentType::Plus) + u32::from(flipped_from == AgentType::Plus);
        let reachable = pc >= plus && pc + (2 - plus) <= n_size;
        reachable && !steps[(ty as usize) * stride + pc as usize].is_quiet()
    };
    let mut loud = [u32::MAX; ClassTable::MAX_LOUD];
    let mut len = 0;
    for pc in 0..=n_size {
        if is_loud(AgentType::Minus, pc) || is_loud(AgentType::Plus, pc) {
            *loud.get_mut(len)? = pc;
            len += 1;
        }
    }
    Some(loud)
}

/// What one step of an agent's plus count does to its [`ClassTable`]
/// class, packed into a byte: the new tracked bit, whether it changed, and
/// the change in unhappiness. The fused kernel reads one per touched cell.
///
/// # Example
///
/// ```
/// use seg_grid::{AgentType, ClassTable, Transition};
/// // unhappy and tracked below 3 same-type agents out of N = 9
/// let ct = ClassTable::build_same_count(9, |s| (s < 3, s < 3));
/// // a Minus agent with 6 pluses around it (S = 3) gains a plus: S = 2
/// let step = ct.transition(AgentType::Minus, 6, AgentType::Plus);
/// let classes = (ct.class(AgentType::Minus, 6), ct.class(AgentType::Minus, 7));
/// assert_eq!(step, Transition::between(classes.0, classes.1));
/// assert_eq!(classes, (0, ClassTable::TRACKED | ClassTable::UNHAPPY));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition(u8);

impl Transition {
    /// Bit 0: tracked after the step.
    const TRACKED: u8 = 1;
    /// Bit 1: the tracked bit changed.
    const CHANGED: u8 = 2;
    /// Bits 2–3 hold the unhappy delta plus one, in `0..=2`.
    const UNHAPPY_SHIFT: u8 = 2;

    /// The transition between two [`ClassTable::class`] values.
    #[inline]
    pub fn between(was: u8, now: u8) -> Self {
        let unhappy = |class: u8| (class & ClassTable::UNHAPPY) >> 1;
        let changed = (was ^ now) & ClassTable::TRACKED;
        let unhappy_biased = 1 + unhappy(now) - unhappy(was);
        Transition(
            (now & ClassTable::TRACKED)
                | (changed * Self::CHANGED)
                | (unhappy_biased << Self::UNHAPPY_SHIFT),
        )
    }

    /// Whether the agent is tracked after the step.
    #[inline]
    fn tracked(self) -> bool {
        self.0 & Self::TRACKED != 0
    }

    /// Whether the tracked bit changed, i.e. the tracked set needs an
    /// insert or a remove.
    #[inline]
    fn tracked_changed(self) -> bool {
        self.0 & Self::CHANGED != 0
    }

    /// The change in the number of unhappy agents plus one, in `0..=2`,
    /// so a kernel can sum it unsigned.
    #[inline]
    fn unhappy_biased(self) -> u32 {
        u32::from(self.0 >> Self::UNHAPPY_SHIFT)
    }

    /// Whether the step leaves both the tracked bit and the unhappy count
    /// as they were.
    fn is_quiet(self) -> bool {
        !self.tracked_changed() && self.unhappy_biased() == 1
    }

    /// Applies the tracked-bit change of cell `i`, of type `ty`, to
    /// `tracked`, whose membership must equal the bit before the step.
    #[inline]
    fn apply<T: TrackedSet>(self, i: usize, ty: AgentType, tracked: &mut T) {
        debug_assert_eq!(
            tracked.contains(i),
            self.tracked() != self.tracked_changed(),
            "tracked set out of sync with the class table at cell {i}"
        );
        // an unchanged bit would make the insert/remove a no-op
        if self.tracked_changed() {
            if self.tracked() {
                tracked.insert(i, ty);
            } else {
                tracked.remove(i, ty);
            }
        }
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
        let mut plus = Vec::new();
        box_filter(
            torus,
            horizon,
            field.as_slice(),
            |&t| t == AgentType::Plus,
            &mut plus,
        );
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
        let delta = count_delta(new_type);
        for_each_window_run(self.torus, self.horizon, z, |run| {
            for c in &mut self.plus[run] {
                *c = c.wrapping_add(delta);
            }
        });
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
    /// Every agent but the flipped one keeps its type and sees its count
    /// move one step in the flip's direction, so it costs one load from
    /// that direction's [`Transition`] table. The flipped agent changes
    /// type too and is classified with two [`ClassTable::class`] loads.
    /// The window is walked as [`for_each_window_run`]'s row runs.
    ///
    /// Quiet runs: when the window is at least 13 cells wide (w ≥ 6) and
    /// `classes` lists this direction's loud plus counts, each run first
    /// gets its delta in one vectorised pass that also notes whether any
    /// old count was loud (see [`ClassTable`]). A run with none changes no
    /// class: it writes nothing to `tracked` and adds nothing to the
    /// unhappy count. A run that holds one has its loud cells gathered
    /// and stepped through the transition table, from their old counts
    /// and in index order. Narrower windows, whose runs are too short and
    /// too often loud for the check to pay, and tables with more loud
    /// counts take the table walk for every run, compiled as it was
    /// without the check.
    ///
    /// `tracked` must hold exactly the cells whose class before the flip
    /// has [`ClassTable::TRACKED`] set (debug builds assert it per
    /// reclassified cell). The set is then only written where that bit
    /// changes: the skipped writes were no-ops, so the effective
    /// insert/remove sequence is exactly that of
    /// [`WindowCounts::apply_flip`] followed by a row-major classification
    /// sweep over the window, and trajectories that sample from `tracked`
    /// are bit-identical to the unfused two-pass update.
    pub fn apply_flip_fused<T: TrackedSet>(
        &mut self,
        z: Point,
        new_type: AgentType,
        field: &TypeField,
        classes: &ClassTable,
        tracked: &mut T,
    ) -> i64 {
        debug_assert_eq!(field.get(z), new_type, "field must be flipped first");
        debug_assert_eq!(classes.n_size(), self.neighborhood_size());
        let steps = Steps {
            table: classes.transitions(new_type),
            stride: classes.n_size() as usize + 1,
            delta: count_delta(new_type),
            loud: [u32::MAX; ClassTable::MAX_LOUD],
        };
        let wide = 2 * self.horizon + 1 >= QUIET_MIN_WIDTH;
        let unhappy_biased = match classes.loud[new_type as usize].filter(|_| wide) {
            Some(loud) => self.quiet_walk(
                z,
                new_type,
                field,
                classes,
                Steps { loud, ..steps },
                tracked,
            ),
            None => self.fused_walk::<T, false>(z, new_type, field, classes, steps, tracked),
        };
        i64::from(unhappy_biased) - i64::from(self.neighborhood_size())
    }

    /// The walk with the quiet-run check, kept out of line so that the
    /// narrow-window kernel compiles as it did without it.
    #[inline(never)]
    fn quiet_walk<T: TrackedSet>(
        &mut self,
        z: Point,
        new_type: AgentType,
        field: &TypeField,
        classes: &ClassTable,
        steps: Steps<'_>,
        tracked: &mut T,
    ) -> u32 {
        self.fused_walk::<T, true>(z, new_type, field, classes, steps, tracked)
    }

    /// [`WindowCounts::apply_flip_fused`]'s walk, with the quiet-run check
    /// when `QUIET`; returns the window's Σ (unhappy delta + 1).
    #[inline(always)]
    fn fused_walk<T: TrackedSet, const QUIET: bool>(
        &mut self,
        z: Point,
        new_type: AgentType,
        field: &TypeField,
        classes: &ClassTable,
        steps: Steps<'_>,
        tracked: &mut T,
    ) -> u32 {
        let zi = self.torus.index(z);
        let types = field.as_slice();
        let mut unhappy_biased: u32 = 0;
        let plus = &mut self.plus;
        for_each_window_run(self.torus, self.horizon, z, |run| {
            if !run.contains(&zi) {
                unhappy_biased += steps.run::<T, QUIET>(plus, types, run, tracked);
                return;
            }
            unhappy_biased += steps.run::<T, QUIET>(plus, types, run.start..zi, tracked);
            let old_pc = plus[zi];
            plus[zi] = old_pc.wrapping_add(steps.delta);
            let was = classes.class(new_type.flipped(), old_pc);
            let t = Transition::between(was, classes.class(new_type, plus[zi]));
            unhappy_biased += t.unhappy_biased();
            debug_assert_eq!(
                tracked.contains(zi),
                was & ClassTable::TRACKED != 0,
                "tracked set out of sync with the class table at cell {zi}"
            );
            tracked.retype(zi, new_type, t);
            unhappy_biased += steps.run::<T, QUIET>(plus, types, zi + 1..run.end, tracked);
        });
        unhappy_biased
    }

    /// Recomputes from scratch and asserts agreement — a debugging aid used
    /// by tests and the simulation's `audit` mode.
    pub fn verify_against(&self, field: &TypeField) -> bool {
        let fresh = WindowCounts::new(field, self.horizon);
        fresh.plus == self.plus
    }
}

/// The narrowest window (`2w + 1` cells) whose flips check their row
/// runs for loud counts before classifying them. Measured on the paper's
/// rule below ½ (replayed trajectories, 128² torus), the check costs
/// about 10% at w = 4, where a fifth of the runs are loud, reads between
/// −10% and +9% at w = 5 from run to run, and saves about 15% at w = 6
/// and 25–30% at w = 7 and 8.
const QUIET_MIN_WIDTH: u32 = 13;

/// The count change a flip to `new_type` makes in every window holding
/// it, as a wrapping `u32` delta.
#[inline]
fn count_delta(new_type: AgentType) -> u32 {
    match new_type {
        AgentType::Plus => 1,
        AgentType::Minus => 0u32.wrapping_sub(1),
    }
}

/// The per-direction transition table of one flip, for the agents whose
/// type it leaves unchanged.
#[derive(Clone, Copy)]
struct Steps<'a> {
    /// [`ClassTable::transitions`] for the flip's direction.
    table: &'a [Transition],
    /// `N + 1`, the length of one type's row of `table`.
    stride: usize,
    /// The wrapping count delta of the flip.
    delta: u32,
    /// The direction's loud plus counts, padded with `u32::MAX`; read only
    /// by the quiet-run check.
    loud: [u32; ClassTable::MAX_LOUD],
}

impl Steps<'_> {
    /// Steps the cells of one contiguous `run` of the counts `plus` and
    /// the field `types`; returns the run's Σ (unhappy delta + 1). With
    /// `QUIET`, only the run's loud cells are classified.
    // inlined into each of the kernel's three calls: the per-run call
    // cost shows at w = 1, where a run is one to three cells
    #[inline(always)]
    fn run<T: TrackedSet, const QUIET: bool>(
        &self,
        plus: &mut [u32],
        types: &[AgentType],
        run: Range<usize>,
        tracked: &mut T,
    ) -> u32 {
        let first = run.start;
        let cells = &mut plus[run.clone()];
        let types = &types[run];
        if QUIET {
            // a biased 1 per quiet cell; the loud ones are stepped below
            let mut biased = cells.len() as u32;
            if !self.add_and_probe(cells) {
                return biased;
            }
            // gather the loud cells' offsets without a branch per cell,
            // then step them from their old counts in index order
            const BLOCK: usize = 32;
            for (b, block) in cells.chunks(BLOCK).enumerate() {
                let mut loud_at = [0u8; BLOCK];
                let mut found = 0;
                for (k, &pc) in block.iter().enumerate() {
                    // found ≤ k < BLOCK: the modulo only spares a bounds check
                    loud_at[found % BLOCK] = k as u8;
                    found += self.is_loud(pc.wrapping_sub(self.delta)) as usize;
                }
                for &k in &loud_at[..found] {
                    let i = b * BLOCK + usize::from(k);
                    let (old, ty) = (cells[i].wrapping_sub(self.delta), types[i]);
                    let t = self.table[(ty as usize) * self.stride + old as usize];
                    biased = biased + t.unhappy_biased() - 1;
                    t.apply(first + i, ty, tracked);
                }
            }
            return biased;
        }
        let mut biased = 0;
        for (k, (pc, &ty)) in cells.iter_mut().zip(types).enumerate() {
            let t = self.table[(ty as usize) * self.stride + *pc as usize];
            *pc = pc.wrapping_add(self.delta);
            biased += t.unhappy_biased();
            t.apply(first + k, ty, tracked);
        }
        biased
    }

    /// Adds the delta to every count of `cells`; returns whether any old
    /// count was loud. Branch-free over four-cell chunks, so each chunk is
    /// one vector compare-and-add.
    #[inline(always)]
    fn add_and_probe(&self, cells: &mut [u32]) -> bool {
        const LANES: usize = 4;
        let n = cells.len();
        let mut hits = [0u32; LANES];
        if n < LANES {
            for c in cells {
                hits[0] |= self.is_loud(*c);
                *c = c.wrapping_add(self.delta);
            }
            return hits[0] != 0;
        }
        // the last four cells, read before any add: stepping them after
        // the whole chunks rewrites the cells those chunks share with them
        // to the same value, so no run leaves a scalar tail
        let mut last = [0u32; LANES];
        last.copy_from_slice(&cells[n - LANES..]);
        for chunk in cells.chunks_exact_mut(LANES) {
            for j in 0..LANES {
                hits[j] |= self.is_loud(chunk[j]);
                chunk[j] = chunk[j].wrapping_add(self.delta);
            }
        }
        for j in 0..LANES {
            hits[j] |= self.is_loud(last[j]);
            last[j] = last[j].wrapping_add(self.delta);
        }
        cells[n - LANES..].copy_from_slice(&last);
        (hits[0] | hits[1] | hits[2] | hits[3]) != 0
    }

    /// 1 if `count` is one of the loud counts, else 0.
    #[inline(always)]
    fn is_loud(&self, count: u32) -> u32 {
        // spelled out, not looped over `loud`, so that the vector lanes
        // hold cells rather than loud counts
        let [l0, l1] = self.loud;
        u32::from(count == l0) | u32::from(count == l1)
    }
}

/// Appends to `out` one plane of window counts: entry `i` is the number
/// of cells `c` of the row-major grid `cells` with `counted(c)` in the l∞
/// ball of radius `w` around cell `i`. O(n²): a separable box filter with
/// wrap-around, horizontal sliding sums along each row, then vertical
/// sliding sums of whole rows. Panics unless the window fits the torus.
pub fn box_filter<T>(
    torus: Torus,
    horizon: u32,
    cells: &[T],
    counted: impl Fn(&T) -> bool,
    out: &mut Vec<u32>,
) {
    let n = torus.side() as usize;
    assert!(
        window_fits(torus.side(), horizon),
        "window diameter {} exceeds torus side {}",
        2 * u64::from(horizon) + 1,
        torus.side()
    );
    debug_assert_eq!(cells.len(), n * n);
    let w = horizon as usize;
    // the window's entering and leaving indices advance by one per step,
    // so they wrap with a compare instead of a division
    let wrap = |i: usize| if i >= n { i - n } else { i };
    let mut horiz = vec![0u32; n * n];
    for (row, sums) in cells.chunks_exact(n).zip(horiz.chunks_exact_mut(n)) {
        let is_in = |x: usize| u32::from(counted(&row[x]));
        let mut s: u32 = (0..=2 * w).map(|dx| is_in(wrap(dx + n - w))).sum();
        sums[0] = s;
        let (mut enter, mut leave) = (wrap(w + 1), wrap(n - w));
        for o in &mut sums[1..] {
            s = s + is_in(enter) - is_in(leave);
            *o = s;
            enter = wrap(enter + 1);
            leave = wrap(leave + 1);
        }
    }
    let row = |y: usize| &horiz[y * n..(y + 1) * n];
    let base = out.len();
    out.resize(base + n * n, 0);
    let out = &mut out[base..];
    for (x, p) in out[..n].iter_mut().enumerate() {
        *p = (0..=2 * w).map(|dy| row(wrap(dy + n - w))[x]).sum();
    }
    let (mut enter, mut leave) = (wrap(w + 1), wrap(n - w));
    for y in 1..n {
        let (done, rest) = out.split_at_mut(y * n);
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
}

/// Calls `f` with the index ranges of the `(2w+1)²` window centred at `z`
/// in row-major window order: each window row is one contiguous range of
/// the row-major grid, or two where it wraps past the torus edge.
/// [`WindowCounts::apply_flip_fused`] and the `k`-type model's step walk
/// their flip windows with it.
#[inline]
pub fn for_each_window_run(torus: Torus, horizon: u32, z: Point, mut f: impl FnMut(Range<usize>)) {
    let n = torus.side() as usize;
    let d = 2 * horizon as usize + 1;
    let x0 = torus.wrap(i64::from(z.x) - i64::from(horizon)) as usize;
    let mut y = torus.wrap(i64::from(z.y) - i64::from(horizon)) as usize;
    // columns x0..end of each row, then 0..wrapped past the edge
    let end = (x0 + d).min(n);
    let wrapped = x0 + d - end;
    for _ in 0..d {
        let row = y * n;
        f(row + x0..row + end);
        if wrapped > 0 {
            f(row..row + wrapped);
        }
        y += 1;
        if y == n {
            y = 0;
        }
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
    fn window_fit_never_wraps() {
        assert!(window_fits(16, 7));
        assert!(!window_fits(16, 8));
        assert!(!window_fits(16, 1 << 31)); // 2w wraps to 0 in u32
        assert!(!window_fits(16, u32::MAX));
        assert!(window_fits(u32::MAX, u32::MAX / 2));
        assert!(!window_fits(0, 0));
    }

    #[test]
    #[should_panic(expected = "window diameter")]
    fn wrapping_horizon_is_refused() {
        let f = TypeField::uniform(Torus::new(16), AgentType::Plus);
        let _ = WindowCounts::new(&f, 1 << 31);
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

    /// A `τ = thr/N`-style table: tracked = flippable.
    fn threshold_table(n: u32, thr: u32) -> ClassTable {
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

    /// A `τ = 0.4`-style table over N = 25.
    fn example_table() -> ClassTable {
        threshold_table(25, 10)
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
    fn transition_packs_tracked_and_unhappy_changes() {
        let classes = [0, ClassTable::TRACKED, ClassTable::UNHAPPY, 3];
        for was in classes {
            for now in classes {
                let t = Transition::between(was, now);
                assert_eq!(t.tracked(), now & ClassTable::TRACKED != 0);
                assert_eq!(t.tracked_changed(), (was ^ now) & ClassTable::TRACKED != 0);
                let unhappy = |c: u8| u32::from(c & ClassTable::UNHAPPY != 0);
                assert_eq!(t.unhappy_biased() + unhappy(was), 1 + unhappy(now));
            }
        }
    }

    #[test]
    fn transition_tables_step_the_class_table() {
        let banded = ClassTable::build_same_count(81, |s| (!(33..=70).contains(&s), s < 40));
        let empty = ClassTable::build(0, |_, _| (true, false));
        for ct in [example_table(), banded, empty] {
            let n = ct.n_size();
            for ty in [AgentType::Minus, AgentType::Plus] {
                let class = |pc| ct.class(ty, pc);
                for pc in 0..=n {
                    // stepping out of 0..=N is impossible and built as a no-op
                    let up = Transition::between(class(pc), class((pc + 1).min(n)));
                    let down = Transition::between(class(pc), class(pc.saturating_sub(1)));
                    assert_eq!(
                        ct.transition(ty, pc, AgentType::Plus),
                        up,
                        "N={n} {ty:?} pc={pc}"
                    );
                    assert_eq!(
                        ct.transition(ty, pc, AgentType::Minus),
                        down,
                        "N={n} {ty:?} pc={pc}"
                    );
                }
            }
        }
    }

    #[test]
    fn loud_counts_of_the_paper_rule() {
        // below ½ (k = 122 of N = 289) an agent crosses a class boundary
        // only where it turns happy or unhappy: S from k − 1 to k and back
        let n = 289;
        let below = threshold_table(n, 122);
        let up = [121, n - 122]; // Plus at S = k − 1, Minus at S = k
        let down = [122, n - 121]; // Plus at S = k, Minus at S = k − 1
        assert_eq!(below.loud[AgentType::Plus as usize], Some(up));
        assert_eq!(below.loud[AgentType::Minus as usize], Some(down));
        // above ½ flippable and unhappy part: four counts, over the limit
        let above = threshold_table(n, 159);
        assert_eq!(above.loud, [None, None]);
        // a rule whose class changes only where no stepped agent is
        let edges = ClassTable::build_same_count(n, |s| (s == 0, s == 0));
        assert_eq!(edges.loud, [Some([u32::MAX; 2]); 2]);
    }

    #[test]
    fn fused_kernel_matches_two_pass_update() {
        // the last two windows are as wide as the torus: every row run of
        // a flip off column w wraps
        for (side, w, thr) in [(19u32, 2u32, 10u32), (5, 2, 10), (11, 5, 50)] {
            fused_kernel_matches_two_pass_update_on(side, w, thr);
        }
    }

    fn fused_kernel_matches_two_pass_update_on(side: u32, w: u32, thr: u32) {
        let t = Torus::new(side);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let ct = threshold_table((2 * w + 1) * (2 * w + 1), thr);
        // reference: field + counts updated with apply_flip, set rebuilt
        // by a row-major window sweep after each flip
        let mut f_ref = TypeField::random(t, 0.5, &mut rng);
        let mut wc_ref = WindowCounts::new(&f_ref, w);
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
            let w = i64::from(w);
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
            assert_eq!(
                a, b,
                "fused set diverged from two-pass set (side {side}, w {w})"
            );
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
