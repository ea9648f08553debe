//! Renormalization of the grid into `m`-blocks (§IV of the paper).
//!
//! The paper repeatedly renormalizes `G_n` into blocks — `w`-blocks for the
//! first-passage-percolation speed bound (Lemma 7), `6w³`- and `2w³`-blocks
//! for the chemical firewall (§IV-B) — and then runs percolation-style
//! arguments on the block lattice. [`BlockGrid`] is that renormalized
//! lattice: a partition of the torus into `side × side` square tiles.

use crate::{Point, PrefixSums, Torus};

/// Coordinates of a block in the renormalized lattice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockCoord {
    /// Block column.
    pub bx: u32,
    /// Block row.
    pub by: u32,
}

/// A partition of a torus into square blocks of a given side ("m-blocks"
/// with `m = side`; the paper calls a neighborhood of radius `m/2` an
/// m-block, i.e. tile side `m+1` for even tiling — we parameterize directly
/// by tile side and expose the paper's conventions in `seg-core`).
///
/// The block lattice is itself a torus when `n` is divisible by the side;
/// otherwise the last row/column of blocks is truncated and the lattice is
/// treated as a rectangle (sufficient for all the paper's arguments, which
/// take place well inside exponentially larger neighborhoods).
///
/// # Example
///
/// ```
/// use seg_grid::{Torus, BlockGrid};
/// let t = Torus::new(100);
/// let bg = BlockGrid::new(t, 10);
/// assert_eq!(bg.blocks_per_side(), 10);
/// assert_eq!(bg.len(), 100);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockGrid {
    torus: Torus,
    block_side: u32,
    blocks_per_side: u32,
}

impl BlockGrid {
    /// Partitions `torus` into blocks of side `block_side`.
    ///
    /// # Panics
    ///
    /// Panics if `block_side` is zero or exceeds the torus side.
    pub fn new(torus: Torus, block_side: u32) -> Self {
        assert!(block_side > 0, "block side must be positive");
        assert!(
            block_side <= torus.side(),
            "block side {} exceeds torus side {}",
            block_side,
            torus.side()
        );
        BlockGrid {
            torus,
            block_side,
            blocks_per_side: torus.side() / block_side,
        }
    }

    /// Number of whole blocks per axis.
    #[inline]
    pub fn blocks_per_side(&self) -> u32 {
        self.blocks_per_side
    }

    /// Total number of whole blocks.
    #[inline]
    pub fn len(&self) -> usize {
        (self.blocks_per_side as usize) * (self.blocks_per_side as usize)
    }

    /// Whether there are no whole blocks (block side larger than torus).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks_per_side == 0
    }

    /// Top-left cell of a block.
    ///
    /// # Panics
    ///
    /// Panics if the block coordinates are out of range.
    fn origin_of(&self, b: BlockCoord) -> Point {
        assert!(
            b.bx < self.blocks_per_side && b.by < self.blocks_per_side,
            "block {b:?} out of range ({} per side)",
            self.blocks_per_side
        );
        self.torus.point(
            (b.bx * self.block_side) as i64,
            (b.by * self.block_side) as i64,
        )
    }

    /// Linear index of a block (row-major).
    #[inline]
    pub fn block_index(&self, b: BlockCoord) -> usize {
        (b.by as usize) * (self.blocks_per_side as usize) + (b.bx as usize)
    }

    /// Inverse of [`BlockGrid::block_index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    fn block_from_index(&self, i: usize) -> BlockCoord {
        assert!(i < self.len(), "block index {i} out of bounds");
        BlockCoord {
            bx: (i % self.blocks_per_side as usize) as u32,
            by: (i / self.blocks_per_side as usize) as u32,
        }
    }

    /// Classifies every block as *good* or *bad* per §IV-B: a block is good
    /// when for every sub-rectangle `I` in a probe family, the count `W_I`
    /// of `-1` agents deviates from `N_I/2` by less than `deviation(N_I)`.
    ///
    /// The paper's `I` ranges over all intersections of a `w`-block with an
    /// m-block; probing all of them is Θ(m⁴) per block, so we probe the
    /// standard monotone family (all prefixes in both axes), which detects
    /// the same atypical blocks up to constants — each intersection is a
    /// difference of four prefixes, so a deviation in some intersection
    /// forces a deviation of a quarter the size in some prefix.
    ///
    /// Returns a row-major vector of booleans, `true` = good.
    pub fn classify_good(
        &self,
        ps: &PrefixSums,
        mut deviation: impl FnMut(u64) -> f64,
    ) -> Vec<bool> {
        let m = self.block_side;
        let mut out = vec![true; self.len()];
        for (i, flag) in out.iter_mut().enumerate() {
            let b = self.block_from_index(i);
            let o = self.origin_of(b);
            let mut good = true;
            'probe: for h in 1..=m {
                for w_ in 1..=m {
                    let cells = (h as u64) * (w_ as u64);
                    let plus = ps.plus_in_rect(o, w_, h);
                    let minus = cells - plus;
                    let dev = (minus as f64) - (cells as f64) / 2.0;
                    if dev.abs() >= deviation(cells) {
                        good = false;
                        break 'probe;
                    }
                }
            }
            *flag = good;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentType, TypeField};

    #[test]
    fn classify_good_flags_skewed_blocks() {
        let t = Torus::new(32);
        // left half all plus (balanced? no: monochromatic = maximally skewed)
        let f = TypeField::from_fn(t, |p| {
            if p.x < 16 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        let ps = PrefixSums::new(&f);
        let bg = BlockGrid::new(t, 8);
        // Tolerate deviations below sqrt scale: every monochromatic block is bad.
        let flags = bg.classify_good(&ps, |cells| (cells as f64).sqrt());
        assert!(flags.iter().all(|g| !g), "all blocks are fully skewed");
    }

    #[test]
    fn classify_good_accepts_checkerboard() {
        let t = Torus::new(32);
        let f = TypeField::from_fn(t, |p| {
            if (p.x + p.y) % 2 == 0 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        let ps = PrefixSums::new(&f);
        let bg = BlockGrid::new(t, 8);
        // checkerboard prefix deviations are at most 1/2 cell row → allow 2.
        let flags = bg.classify_good(&ps, |_| 2.0);
        assert!(flags.iter().all(|g| *g));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_side_panics() {
        let t = Torus::new(10);
        let _ = BlockGrid::new(t, 0);
    }
}
