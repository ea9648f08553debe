//! A bitset over cell indices with O(log n) rank and select.

/// A set of cell indices over a fixed universe `0..capacity`, kept in
/// ascending index order, with O(1) membership and O(log n) insert,
/// remove, [`rank`](RankedSet::rank) and [`select`](RankedSet::select).
///
/// One bit per cell, plus a Fenwick tree over the popcounts of the
/// 64-bit words. `select(k)` is the `k`-th smallest member, so a uniform
/// draw `k` picks the same cell as indexing a list of the members built
/// by scanning the universe in order — the property the 2-D Kawasaki
/// dynamics relies on to sample exactly as its whole-torus scan did.
/// Unlike [`IndexedSet`](crate::IndexedSet), the sampling order does not
/// depend on the order of inserts and removes.
///
/// # Example
///
/// ```
/// use seg_grid::RankedSet;
/// let mut s = RankedSet::new(200);
/// for i in [150, 3, 64] {
///     s.insert(i);
/// }
/// assert_eq!(s.select(1), 64);
/// assert_eq!(s.rank(150), 2);
/// s.remove(3);
/// assert_eq!((s.len(), s.select(0)), (2, 64));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankedSet {
    capacity: usize,
    words: Vec<u64>,
    /// 1-based Fenwick tree: `tree[j]` sums the popcounts of words
    /// `j − lowbit(j) .. j`.
    tree: Vec<u32>,
    len: usize,
}

impl RankedSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        RankedSet {
            capacity,
            words: vec![0; words],
            tree: vec![0; words + 1],
            len: 0,
        }
    }

    /// The set whose members are the set bits of `words` (bit `i % 64`
    /// of word `i / 64` is cell `i`), with its Fenwick tree built in
    /// O(words): each node adds its sum into its parent once. Bits at or
    /// past `capacity` must be clear.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not cover exactly `0..capacity`.
    pub(crate) fn from_words(capacity: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), capacity.div_ceil(64), "one word per 64 cells");
        let mut tree = vec![0u32; words.len() + 1];
        let mut len = 0;
        for j in 1..tree.len() {
            let ones = words[j - 1].count_ones();
            len += ones as usize;
            tree[j] += ones;
            let parent = j + (j & j.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[j];
            }
        }
        RankedSet {
            capacity,
            words,
            tree,
            len,
        }
    }

    /// Number of elements currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.capacity, "index {i} outside 0..{}", self.capacity);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `i`; a no-op when already present.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        if !self.contains(i) {
            self.words[i / 64] |= 1 << (i % 64);
            self.len += 1;
            self.add(i / 64, 1);
        }
    }

    /// Removes `i`; a no-op when absent.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        if self.contains(i) {
            self.words[i / 64] &= !(1 << (i % 64));
            self.len -= 1;
            self.add(i / 64, u32::MAX);
        }
    }

    /// Adds the wrapping `delta` to word `word`'s popcount in the tree.
    #[inline]
    fn add(&mut self, word: usize, delta: u32) {
        let mut j = word + 1;
        while j < self.tree.len() {
            self.tree[j] = self.tree[j].wrapping_add(delta);
            j += j & j.wrapping_neg();
        }
    }

    /// The number of members smaller than `i`, for `i ≤ capacity`.
    pub fn rank(&self, i: usize) -> usize {
        assert!(
            i <= self.capacity,
            "index {i} outside 0..={}",
            self.capacity
        );
        let (word, bit) = (i / 64, i % 64);
        let mut r = 0;
        let mut j = word;
        while j > 0 {
            r += self.tree[j] as usize;
            j &= j - 1;
        }
        if bit > 0 {
            r += (self.words[word] & ((1 << bit) - 1)).count_ones() as usize;
        }
        r
    }

    /// The `k`-th smallest member (0-based): the inverse of
    /// [`rank`](RankedSet::rank) on members.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ len()`.
    pub fn select(&self, k: usize) -> usize {
        assert!(k < self.len, "select({k}) in a set of {}", self.len);
        // descend the tree to the word holding the member: `word` counts
        // whole words passed, `rest` the members still to skip
        let mut word = 0;
        let mut rest = k as u32;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = word + step;
            if next < self.tree.len() && self.tree[next] <= rest {
                word = next;
                rest -= self.tree[next];
            }
            step /= 2;
        }
        word * 64 + select_in_word(self.words[word], rest)
    }
}

/// The position of the `r`-th set bit (0-based) of `bits`, which has more
/// than `r` set bits: a binary search on the popcounts of halves.
#[inline]
fn select_in_word(mut bits: u64, mut r: u32) -> usize {
    let mut pos = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let low = (bits & ((1 << half) - 1)).count_ones();
        if r >= low {
            r -= low;
            bits >>= half;
            pos += half;
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    /// Checks every rank and select of `s` against the sorted `members`.
    fn assert_ranks(s: &RankedSet, members: &[usize], what: &str) {
        assert_eq!(s.len(), members.len(), "{what}: len");
        for (k, &m) in members.iter().enumerate() {
            assert_eq!(s.select(k), m, "{what}: select({k})");
            assert_eq!(s.rank(m), k, "{what}: rank({m})");
            assert_eq!(s.rank(m + 1), k + 1, "{what}: rank({})", m + 1);
        }
        for i in 0..s.capacity {
            assert_eq!(s.contains(i), members.binary_search(&i).is_ok());
            assert_eq!(
                s.rank(i),
                members.partition_point(|&m| m < i),
                "{what}: rank({i})"
            );
        }
        assert_eq!(s.rank(s.capacity), members.len(), "{what}: rank(capacity)");
    }

    #[test]
    fn rank_and_select_at_word_and_tree_boundaries() {
        // one word short of full, full, one bit into a second word, and
        // an odd torus (9² and 17²): a tree with a partial last word
        for cap in [1usize, 63, 64, 65, 81, 129, 289, 1000] {
            let mut s = RankedSet::new(cap);
            assert_ranks(&s, &[], &format!("empty {cap}"));
            let all: Vec<usize> = (0..cap).collect();
            for &i in &all {
                s.insert(i);
            }
            assert_ranks(&s, &all, &format!("full {cap}"));
            // the boundary cells alone: 0, 62, 63, 64, 127, 128, cap − 1
            let edges: Vec<usize> = [0, 62, 63, 64, 127, 128, cap - 1]
                .into_iter()
                .filter(|&i| i < cap)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for &i in &all {
                if edges.binary_search(&i).is_err() {
                    s.remove(i);
                }
            }
            assert_ranks(&s, &edges, &format!("edges {cap}"));
        }
    }

    #[test]
    fn random_inserts_and_removes_match_a_sorted_list() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for cap in [63usize, 64, 65, 23 * 23, 4096 + 3] {
            let mut s = RankedSet::new(cap);
            let mut members = std::collections::BTreeSet::new();
            for round in 0..2000 {
                let i = rng.next_below(cap as u64) as usize;
                if rng.next_bool(0.5) {
                    s.insert(i);
                    members.insert(i);
                } else {
                    s.remove(i);
                    members.remove(&i);
                }
                if round % 250 == 0 {
                    let sorted: Vec<usize> = members.iter().copied().collect();
                    assert_ranks(&s, &sorted, &format!("cap {cap} round {round}"));
                }
            }
        }
    }

    #[test]
    fn word_built_sets_equal_inserted_ones() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for cap in [0usize, 1, 63, 64, 65, 23 * 23, 4096 + 3] {
            let mut inserted = RankedSet::new(cap);
            let mut words = vec![0u64; cap.div_ceil(64)];
            for i in 0..cap {
                if rng.next_bool(0.3) {
                    inserted.insert(i);
                    words[i / 64] |= 1 << (i % 64);
                }
            }
            assert_eq!(RankedSet::from_words(cap, words), inserted, "cap {cap}");
        }
    }

    #[test]
    fn inserts_and_removes_are_idempotent() {
        let mut s = RankedSet::new(70);
        s.insert(65);
        s.insert(65);
        assert_eq!(s.len(), 1);
        s.remove(3);
        s.remove(65);
        s.remove(65);
        assert!(s.is_empty());
        assert_eq!(s.rank(70), 0);
    }

    #[test]
    #[should_panic(expected = "select(2) in a set of 2")]
    fn select_past_the_end_panics() {
        let mut s = RankedSet::new(10);
        s.insert(1);
        s.insert(9);
        let _ = s.select(2);
    }
}
