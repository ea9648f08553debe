//! The chemical firewall construction of §IV-B (Lemma 13).
//!
//! For `τ ∈ (τ2, τ1]` the annular firewall may fail — tolerant agents do
//! not flip easily — so the paper renormalizes the grid into blocks,
//! classifies them *good* (all probed sub-counts within `N^{1/2+ε}` of
//! balance) or *bad*, and builds the firewall as a cycle of good blocks:
//! since good blocks occur with probability above the site-percolation
//! threshold, a cycle of good blocks around the nucleus exists w.h.p.,
//! and by Garet–Marchand its length is proportional to its radius. This
//! module runs that construction concretely: classify blocks, scan the
//! block rings around the center outward for one made entirely of good
//! blocks, and report its length.

use seg_grid::{BlockCoord, BlockGrid, PrefixSums};

/// Result of a chemical-path search around a center block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChemicalPath {
    /// The enclosing cycle of good blocks (in ring order).
    pub cycle: Vec<BlockCoord>,
    /// A path of good blocks from the cycle to the center block
    /// (inclusive of its cycle endpoint, exclusive of the center).
    pub spoke: Vec<BlockCoord>,
    /// The ring radius (in blocks) at which the cycle was found.
    pub ring_radius: u32,
}

impl ChemicalPath {
    /// Total number of blocks in the structure (cycle + spoke) — the
    /// quantity Lemma 13 wants proportional to the radius.
    pub fn len(&self) -> usize {
        self.cycle.len() + self.spoke.len()
    }

    /// Whether the structure is empty (no cycle found).
    pub fn is_empty(&self) -> bool {
        self.cycle.is_empty()
    }
}

/// Classifies blocks as good/bad with the paper's `N^{1/2+ε}` deviation
/// allowance (probing prefix sub-rectangles; see
/// [`BlockGrid::classify_good`] for why that family suffices).
pub fn classify_blocks(grid: &BlockGrid, ps: &PrefixSums, eps: f64) -> Vec<bool> {
    grid.classify_good(ps, move |cells| (cells as f64).powf(0.5 + eps))
}

/// Searches ring radii `min_radius..=max_radius` (in blocks) around
/// `center` for a full ring of good blocks (every block at l∞ block
/// distance exactly `r` is good); on success also finds a spoke of good
/// blocks... the ring-of-good-blocks is a *stronger* requirement than a
/// cycle through good blocks, so success certifies the Lemma 13 object.
///
/// Returns `None` when no ring radius in the range is entirely good.
pub fn find_chemical_path(
    grid: &BlockGrid,
    good: &[bool],
    center: BlockCoord,
    min_radius: u32,
    max_radius: u32,
) -> Option<ChemicalPath> {
    let m = grid.blocks_per_side() as i64;
    let at = |bx: i64, by: i64| -> BlockCoord {
        BlockCoord {
            bx: (((bx % m) + m) % m) as u32,
            by: (((by % m) + m) % m) as u32,
        }
    };
    let is_good = |b: BlockCoord| good[grid.block_index(b)];
    'radii: for r in min_radius..=max_radius {
        if 2 * (r as i64) + 1 >= m {
            break;
        }
        let r = r as i64;
        let (cx, cy) = (center.bx as i64, center.by as i64);
        let mut ring = Vec::new();
        // walk the ring in order: top row, right column, bottom row, left column
        for dx in -r..=r {
            ring.push(at(cx + dx, cy - r));
        }
        for dy in (-r + 1)..=r {
            ring.push(at(cx + r, cy + dy));
        }
        for dx in ((-r)..r).rev() {
            ring.push(at(cx + dx, cy + r));
        }
        for dy in ((-r + 1)..r).rev() {
            ring.push(at(cx - r, cy + dy));
        }
        for b in &ring {
            if !is_good(*b) {
                continue 'radii;
            }
        }
        // spoke: straight line from the ring's top block toward the center,
        // accepting only good blocks (the center block itself is the
        // radical nucleus and need not be good)
        let mut spoke = Vec::new();
        for dy in (-r + 1)..0 {
            let b = at(cx, cy + dy);
            if !is_good(b) {
                // a blocked straight spoke is fine: the cycle alone
                // certifies the firewall; report what we have
                break;
            }
            spoke.push(b);
        }
        return Some(ChemicalPath {
            cycle: ring,
            spoke,
            ring_radius: r as u32,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_grid::rng::Xoshiro256pp;
    use seg_grid::{Torus, TypeField};

    #[test]
    fn balanced_field_blocks_are_good_and_ring_exists() {
        let t = Torus::new(240);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let field = TypeField::random(t, 0.5, &mut rng);
        let ps = PrefixSums::new(&field);
        let grid = BlockGrid::new(t, 12); // 20×20 blocks
        let good = classify_blocks(&grid, &ps, 0.35);
        let frac = good.iter().filter(|g| **g).count() as f64 / good.len() as f64;
        assert!(
            frac > 0.7,
            "balanced Bernoulli blocks should mostly be good; frac = {frac}"
        );
        let center = BlockCoord { bx: 10, by: 10 };
        let path = find_chemical_path(&grid, &good, center, 2, 8);
        assert!(path.is_some(), "a good ring should exist near criticality");
        let p = path.unwrap();
        assert_eq!(p.cycle.len(), (8 * p.ring_radius) as usize);
        assert!(!p.is_empty());
    }

    #[test]
    fn skewed_field_blocks_are_bad() {
        let t = Torus::new(120);
        let field = TypeField::from_fn(t, |p| {
            if p.x < 60 {
                seg_grid::AgentType::Plus
            } else {
                seg_grid::AgentType::Minus
            }
        });
        let ps = PrefixSums::new(&field);
        let grid = BlockGrid::new(t, 12);
        let good = classify_blocks(&grid, &ps, 0.1);
        assert!(
            good.iter().all(|g| !g),
            "monochromatic blocks are maximally unbalanced"
        );
        let path = find_chemical_path(&grid, &good, BlockCoord { bx: 5, by: 5 }, 1, 4);
        assert!(path.is_none());
    }

    #[test]
    fn path_length_proportional_to_radius() {
        // all-good lattice: the first ring found is min_radius, length 8r
        let t = Torus::new(200);
        let grid = BlockGrid::new(t, 10);
        let good = vec![true; grid.len()];
        for r in 1..=6u32 {
            let p = find_chemical_path(&grid, &good, BlockCoord { bx: 10, by: 10 }, r, r)
                .expect("all-good lattice always has the ring");
            assert_eq!(p.cycle.len(), (8 * r) as usize);
            assert_eq!(p.ring_radius, r);
            assert_eq!(p.spoke.len(), (r - 1) as usize);
        }
    }

    #[test]
    fn ring_blocks_are_unique_and_adjacent() {
        let t = Torus::new(200);
        let grid = BlockGrid::new(t, 10);
        let good = vec![true; grid.len()];
        let p = find_chemical_path(&grid, &good, BlockCoord { bx: 10, by: 10 }, 3, 3).unwrap();
        let unique: std::collections::HashSet<_> = p.cycle.iter().collect();
        assert_eq!(unique.len(), p.cycle.len(), "no block repeats");
        let m = grid.blocks_per_side();
        let step = |a: u32, b: u32| ((a + m - b) % m).min((b + m - a) % m);
        for i in 0..p.cycle.len() {
            let (a, b) = (p.cycle[i], p.cycle[(i + 1) % p.cycle.len()]);
            assert_eq!(
                step(a.bx, b.bx) + step(a.by, b.by),
                1,
                "consecutive ring blocks must be 4-adjacent"
            );
        }
    }
}
