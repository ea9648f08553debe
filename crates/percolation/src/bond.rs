//! Bernoulli *bond* percolation on the square lattice.
//!
//! Kesten's concentration theorem (the paper's Theorem 3) is "originally
//! stated for bond percolation" (§IV-A); this module provides that
//! original setting — open/closed edges, clusters, spanning — alongside
//! the site model.

use crate::union_find::UnionFind;
use seg_grid::rng::Xoshiro256pp;

/// A `width × height` patch of `Z²` with independently open *edges*.
///
/// Horizontal edge `(x, y)–(x+1, y)` is indexed `h(x, y)`; vertical edge
/// `(x, y)–(x, y+1)` is `v(x, y)`. `p_c(bond, Z²) = 1/2` exactly
/// (Kesten's theorem), which the tests exercise.
#[derive(Clone, Debug)]
pub struct BondLattice {
    width: u32,
    height: u32,
    /// open horizontal edges, (width−1) × height, row-major
    horizontal: Vec<bool>,
    /// open vertical edges, width × (height−1), row-major
    vertical: Vec<bool>,
}

impl BondLattice {
    /// Samples i.i.d. Bernoulli(`p`) edges.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability or either dimension is < 2.
    pub fn random(width: u32, height: u32, p: f64, rng: &mut Xoshiro256pp) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(width >= 2 && height >= 2, "need at least a 2×2 patch");
        let h_count = (width as usize - 1) * height as usize;
        let v_count = width as usize * (height as usize - 1);
        BondLattice {
            width,
            height,
            horizontal: (0..h_count).map(|_| rng.next_bool(p)).collect(),
            vertical: (0..v_count).map(|_| rng.next_bool(p)).collect(),
        }
    }

    /// Builds from explicit edge predicates.
    pub fn from_fn(
        width: u32,
        height: u32,
        mut horizontal: impl FnMut(u32, u32) -> bool,
        mut vertical: impl FnMut(u32, u32) -> bool,
    ) -> Self {
        assert!(width >= 2 && height >= 2, "need at least a 2×2 patch");
        let mut h = Vec::with_capacity((width as usize - 1) * height as usize);
        for y in 0..height {
            for x in 0..width - 1 {
                h.push(horizontal(x, y));
            }
        }
        let mut v = Vec::with_capacity(width as usize * (height as usize - 1));
        for y in 0..height - 1 {
            for x in 0..width {
                v.push(vertical(x, y));
            }
        }
        BondLattice {
            width,
            height,
            horizontal: h,
            vertical: v,
        }
    }

    /// Patch width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Patch height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Whether the horizontal edge `(x, y)–(x+1, y)` is open.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    fn h_open(&self, x: u32, y: u32) -> bool {
        assert!(x + 1 < self.width && y < self.height, "edge out of range");
        self.horizontal[(y as usize) * (self.width as usize - 1) + x as usize]
    }

    /// Whether the vertical edge `(x, y)–(x, y+1)` is open.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    fn v_open(&self, x: u32, y: u32) -> bool {
        assert!(x < self.width && y + 1 < self.height, "edge out of range");
        self.vertical[(y as usize) * (self.width as usize) + x as usize]
    }

    #[inline]
    fn site(&self, x: u32, y: u32) -> usize {
        (y as usize) * (self.width as usize) + x as usize
    }

    /// Union-find over the open-edge connectivity.
    fn components(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.width as usize * self.height as usize);
        for y in 0..self.height {
            for x in 0..self.width {
                if x + 1 < self.width && self.h_open(x, y) {
                    uf.union(self.site(x, y), self.site(x + 1, y));
                }
                if y + 1 < self.height && self.v_open(x, y) {
                    uf.union(self.site(x, y), self.site(x, y + 1));
                }
            }
        }
        uf
    }

    /// Size of the largest open cluster (in sites).
    pub fn largest_cluster(&self) -> usize {
        let mut uf = self.components();
        (0..self.width as usize * self.height as usize)
            .map(|i| uf.component_size(i))
            .max()
            .unwrap_or(0)
    }

    /// Whether an open path joins the left edge to the right edge.
    pub fn spans_horizontally(&self) -> bool {
        let mut uf = self.components();
        for yl in 0..self.height {
            for yr in 0..self.height {
                if uf.connected(self.site(0, yl), self.site(self.width - 1, yr)) {
                    return true;
                }
            }
        }
        false
    }

    /// Monte-Carlo spanning probability at `p` on an `n × n` patch.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn spanning_probability(n: u32, p: f64, trials: u32, rng: &mut Xoshiro256pp) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let mut hits = 0;
        for _ in 0..trials {
            if BondLattice::random(n, n, p, rng).spans_horizontally() {
                hits += 1;
            }
        }
        hits as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_open_spans_and_is_one_cluster() {
        let lat = BondLattice::from_fn(8, 8, |_, _| true, |_, _| true);
        assert!(lat.spans_horizontally());
        assert_eq!(lat.largest_cluster(), 64);
    }

    #[test]
    fn all_closed_are_singletons() {
        let lat = BondLattice::from_fn(8, 8, |_, _| false, |_, _| false);
        assert!(!lat.spans_horizontally());
        assert_eq!(lat.largest_cluster(), 1);
    }

    #[test]
    fn single_open_row_spans() {
        let lat = BondLattice::from_fn(8, 8, |_, y| y == 3, |_, _| false);
        assert!(lat.spans_horizontally());
        assert_eq!(lat.largest_cluster(), 8);
    }

    #[test]
    fn vertical_edges_do_not_span_horizontally() {
        let lat = BondLattice::from_fn(8, 8, |_, _| false, |_, _| true);
        assert!(!lat.spans_horizontally());
        assert_eq!(lat.largest_cluster(), 8); // a full column
    }

    #[test]
    fn bond_pc_is_one_half() {
        // Kesten's exact result: p_c(bond) = 1/2. The spanning probability
        // on a finite box should cross 1/2 near p = 0.5.
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let below = BondLattice::spanning_probability(40, 0.40, 60, &mut rng);
        let above = BondLattice::spanning_probability(40, 0.60, 60, &mut rng);
        assert!(below < 0.25, "p = 0.40 should rarely span: {below}");
        assert!(above > 0.75, "p = 0.60 should usually span: {above}");
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn oob_edge_panics() {
        let lat = BondLattice::from_fn(4, 4, |_, _| true, |_, _| true);
        let _ = lat.h_open(3, 0);
    }
}
