//! Bernoulli site percolation on a rectangular patch of the square lattice.

use crate::cluster::ClusterSet;
use crate::union_find::UnionFind;
use seg_grid::rng::Xoshiro256pp;

/// A `width × height` patch of `Z²` whose sites are independently *open*
/// with probability `p` — the site-percolation model compared against the
/// renormalized good/bad-block lattice in §IV-B of the paper.
///
/// Adjacency is von Neumann (4-neighbor), matching the m-path definition
/// (§IV-B: "horizontally or vertically adjacent").
///
/// # Example
///
/// ```
/// use seg_percolation::site::SiteLattice;
/// let lat = SiteLattice::from_fn(8, 8, |x, y| (x + y) % 2 == 0);
/// assert_eq!(lat.open_count(), 32);
/// // a checkerboard has no 4-adjacent open pairs: all clusters singletons
/// assert_eq!(lat.clusters().largest_size(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SiteLattice {
    width: u32,
    height: u32,
    open: Vec<bool>,
}

impl SiteLattice {
    /// Samples i.i.d. Bernoulli(`p`) occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a probability or either dimension is zero.
    pub fn random(width: u32, height: u32, p: f64, rng: &mut Xoshiro256pp) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(width > 0 && height > 0, "dimensions must be positive");
        let open = (0..(width as usize * height as usize))
            .map(|_| rng.next_bool(p))
            .collect();
        SiteLattice {
            width,
            height,
            open,
        }
    }

    /// Builds occupancy from a predicate on coordinates.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> bool) -> Self {
        assert!(width > 0 && height > 0, "dimensions must be positive");
        let mut open = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                open.push(f(x, y));
            }
        }
        SiteLattice {
            width,
            height,
            open,
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

    /// Total number of sites.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// Whether the patch has no sites (never true; see constructors).
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Row-major site index.
    #[inline]
    pub fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + (x as usize)
    }

    /// Whether site `(x, y)` is open.
    #[inline]
    pub fn is_open(&self, x: u32, y: u32) -> bool {
        self.open[self.index(x, y)]
    }

    /// Number of open sites.
    pub fn open_count(&self) -> usize {
        self.open.iter().filter(|o| **o).count()
    }

    /// Labels the open clusters under 4-adjacency.
    pub fn clusters(&self) -> ClusterSet {
        let mut uf = UnionFind::new(self.len());
        let (w, h) = (self.width as usize, self.height as usize);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if !self.open[i] {
                    continue;
                }
                if x + 1 < w && self.open[i + 1] {
                    uf.union(i, i + 1);
                }
                if y + 1 < h && self.open[i + w] {
                    uf.union(i, i + w);
                }
            }
        }
        ClusterSet::from_union_find(self, uf)
    }

    /// Whether an open cluster connects the left edge to the right edge —
    /// the standard finite-box criterion used to estimate `p_c ≈ 0.5927`.
    pub fn spans_horizontally(&self) -> bool {
        let mut uf = UnionFind::new(self.len() + 2);
        let left = self.len();
        let right = self.len() + 1;
        let (w, h) = (self.width as usize, self.height as usize);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if !self.open[i] {
                    continue;
                }
                if x == 0 {
                    uf.union(i, left);
                }
                if x == w - 1 {
                    uf.union(i, right);
                }
                if x + 1 < w && self.open[i + 1] {
                    uf.union(i, i + 1);
                }
                if y + 1 < h && self.open[i + w] {
                    uf.union(i, i + w);
                }
            }
        }
        uf.connected(left, right)
    }

    /// Monte-Carlo estimate of the horizontal spanning probability at
    /// occupation `p` on an `n × n` box, over `trials` samples.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn spanning_probability(n: u32, p: f64, trials: u32, rng: &mut Xoshiro256pp) -> f64 {
        assert!(trials > 0, "need at least one trial");
        let mut hits = 0u32;
        for _ in 0..trials {
            if SiteLattice::random(n, n, p, rng).spans_horizontally() {
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
    fn full_lattice_single_cluster_spans() {
        let lat = SiteLattice::from_fn(10, 10, |_, _| true);
        assert!(lat.spans_horizontally());
        let cs = lat.clusters();
        assert_eq!(cs.largest_size(), 100);
        assert_eq!(cs.cluster_count(), 1);
    }

    #[test]
    fn empty_lattice_no_clusters() {
        let lat = SiteLattice::from_fn(10, 10, |_, _| false);
        assert!(!lat.spans_horizontally());
        assert_eq!(lat.clusters().cluster_count(), 0);
        assert_eq!(lat.open_count(), 0);
    }

    #[test]
    fn single_column_does_not_span_horizontally() {
        let lat = SiteLattice::from_fn(10, 10, |x, _| x == 5);
        assert!(!lat.spans_horizontally());
    }

    #[test]
    fn single_row_spans() {
        let lat = SiteLattice::from_fn(10, 10, |_, y| y == 3);
        assert!(lat.spans_horizontally());
    }

    #[test]
    fn diagonal_does_not_connect_under_von_neumann() {
        let lat = SiteLattice::from_fn(4, 4, |x, y| x == y);
        let cs = lat.clusters();
        assert_eq!(cs.cluster_count(), 4, "diagonal sites are not 4-adjacent");
    }

    #[test]
    fn random_density_matches_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let lat = SiteLattice::random(100, 100, 0.6, &mut rng);
        let frac = lat.open_count() as f64 / lat.len() as f64;
        assert!((frac - 0.6).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn spanning_monotone_in_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let low = SiteLattice::spanning_probability(32, 0.45, 60, &mut rng);
        let high = SiteLattice::spanning_probability(32, 0.75, 60, &mut rng);
        assert!(high > low, "low = {low}, high = {high}");
        assert!(high > 0.9);
        assert!(low < 0.3);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let _ = SiteLattice::random(4, 4, -0.5, &mut rng);
    }
}
