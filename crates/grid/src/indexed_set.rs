//! A dense index set with O(1) insert, remove and uniform sampling.

use crate::rng::Xoshiro256pp;

/// A set of cell indices over a fixed universe `0..capacity` with O(1)
/// insert, remove, membership and uniform sampling.
///
/// This is the bookkeeping structure behind every incrementally-maintained
/// agent set of the dynamics layer: the *flippable* agents of the 2-D
/// simulation, the active/unhappy sets of the variants, and the ring
/// models' flippable and unhappy-per-type sets. Insertion order determines
/// iteration and sampling order, so two runs that perform the same
/// insert/remove sequence sample identically — the property the
/// simulations rely on for bit-identical seeded trajectories.
///
/// # Example
///
/// ```
/// use seg_grid::{rng::Xoshiro256pp, IndexedSet};
/// let mut s = IndexedSet::new(8);
/// s.insert(3);
/// s.insert(5);
/// s.remove(3);
/// assert_eq!(s.len(), 1);
/// let mut rng = Xoshiro256pp::seed_from_u64(1);
/// assert_eq!(s.sample(&mut rng), Some(5));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexedSet {
    items: Vec<u32>,
    /// position of each index in `items`, or `u32::MAX` when absent.
    pos: Vec<u32>,
}

impl IndexedSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexedSet {
            items: Vec::new(),
            pos: vec![u32::MAX; capacity],
        }
    }

    /// The set of the set bits of `words` (bit `i % 64` of word `i / 64`
    /// is cell `i`) over `0..capacity`, in ascending order: what
    /// inserting them one by one into an empty set in that order builds.
    /// Only members are visited, by their set bits. Bits at or past
    /// `capacity` must be clear.
    ///
    /// ```
    /// use seg_grid::IndexedSet;
    /// let s = IndexedSet::from_words(70, &[0b10010, 1 << 3]);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 67]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `words` does not cover exactly `0..capacity`.
    pub fn from_words(capacity: usize, words: &[u64]) -> Self {
        assert!(capacity <= u32::MAX as usize, "too many cells for u32 ids");
        assert_eq!(words.len(), capacity.div_ceil(64), "one word per 64 cells");
        // room for the members alone: the universe's worth would add a
        // large allocation per set that most sets never fill
        let members = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut items = Vec::with_capacity(members);
        let mut pos = vec![u32::MAX; capacity];
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                pos[i] = items.len() as u32;
                items.push(i as u32);
                bits &= bits - 1;
            }
        }
        IndexedSet { items, pos }
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.pos[i] != u32::MAX
    }

    /// Inserts `i`; a no-op when already present.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        if self.pos[i] == u32::MAX {
            self.pos[i] = self.items.len() as u32;
            self.items.push(i as u32);
        }
    }

    /// Removes `i` (swap-remove); a no-op when absent.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let p = self.pos[i];
        if p == u32::MAX {
            return;
        }
        let last = *self.items.last().expect("non-empty when pos is set");
        self.items[p as usize] = last;
        self.pos[last as usize] = p;
        self.items.pop();
        self.pos[i] = u32::MAX;
    }

    /// Removes every element, keeping the capacity.
    pub fn clear(&mut self) {
        for &i in &self.items {
            self.pos[i as usize] = u32::MAX;
        }
        self.items.clear();
    }

    /// Samples a uniform element, or `None` when empty. Consumes one RNG
    /// draw iff the set is non-empty.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> Option<usize> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.next_below(self.items.len() as u64) as usize] as usize)
        }
    }

    /// Iterates the elements in internal (insertion/swap) order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.items.iter().map(|i| *i as usize)
    }

    /// The elements in ascending order (for presentation and tests; the
    /// internal order is what sampling uses).
    pub fn sorted(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.iter().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = IndexedSet::new(10);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(7);
        s.insert(3); // idempotent
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(7));
        s.remove(3);
        assert!(!s.contains(3));
        s.remove(3); // idempotent
        assert_eq!(s.len(), 1);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(s.sample(&mut rng), Some(7));
    }

    #[test]
    fn clear_resets_membership() {
        let mut s = IndexedSet::new(5);
        for i in 0..5 {
            s.insert(i);
        }
        s.clear();
        assert!(s.is_empty());
        assert!((0..5).all(|i| !s.contains(i)));
        s.insert(2);
        assert_eq!(s.sorted(), vec![2]);
    }

    #[test]
    fn word_built_sets_equal_ascending_inserts() {
        for capacity in [0, 1, 7, 64, 100] {
            let mut inserted = IndexedSet::new(capacity);
            let mut words = vec![0u64; capacity.div_ceil(64)];
            for i in (0..capacity).filter(|i| (i * 7 + 3) % 5 < 2) {
                inserted.insert(i);
                words[i / 64] |= 1 << (i % 64);
            }
            assert_eq!(IndexedSet::from_words(capacity, &words), inserted);
        }
    }

    #[test]
    fn sorted_is_ascending() {
        let mut s = IndexedSet::new(10);
        for i in [9, 1, 5, 3] {
            s.insert(i);
        }
        assert_eq!(s.sorted(), vec![1, 3, 5, 9]);
    }
}
