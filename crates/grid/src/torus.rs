//! The `n × n` grid graph embedded on a torus (§II-A of the paper).

use std::fmt;

/// A point of the torus, with coordinates already reduced modulo `n`.
///
/// Constructed through [`Torus::point`] or [`Torus::from_index`]; the
/// reduction invariant (`x < n`, `y < n`) is maintained by those
/// constructors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// Column coordinate, in `0..n`.
    pub x: u32,
    /// Row coordinate, in `0..n`.
    pub y: u32,
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// The `n × n` grid graph `G_n` embedded on the torus `T = [0, n) × [0, n)`.
///
/// All arithmetic over coordinates is performed modulo `n`, exactly as in
/// §II-A: `(x, y) = (x + n, y) = (x, y + n)`.
///
/// `Torus` is a tiny `Copy` value; it carries only the side length and is
/// passed around freely to interpret indices and coordinates.
///
/// # Example
///
/// ```
/// use seg_grid::Torus;
/// let t = Torus::new(10);
/// let a = t.point(9, 0);
/// let b = t.point(0, 9);
/// // wrap-around: the two corners are adjacent in l∞ distance
/// assert_eq!(t.linf_distance(a, b), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Torus {
    n: u32,
}

impl Torus {
    /// Creates a torus of side `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if `n * n` overflows `u32` (`n > 65535`).
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "torus side must be positive");
        assert!(n <= 65_535, "torus side must fit u32 cell indices");
        Torus { n }
    }

    /// Side length `n`.
    #[inline]
    pub fn side(&self) -> u32 {
        self.n
    }

    /// Total number of vertices `n²`.
    #[inline]
    pub fn len(&self) -> usize {
        (self.n as usize) * (self.n as usize)
    }

    /// Whether the torus has no vertices. Always `false` (side `n ≥ 1`), but
    /// provided for API completeness alongside [`Torus::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reduces a possibly-unreduced signed coordinate modulo `n`.
    ///
    /// Coordinates within one period of range (`-n ≤ c < 2n`) — the common
    /// case in flip loops, where offsets are bounded by the window radius —
    /// take a branch-free add/sub fast path with no division; anything
    /// farther falls back to the double-remainder reduction.
    #[inline]
    pub fn wrap(&self, c: i64) -> u32 {
        let n = self.n as i64;
        if -n <= c && c < 2 * n {
            let c = c + i64::from(c < 0) * n;
            let c = c - i64::from(c >= n) * n;
            c as u32
        } else {
            (((c % n) + n) % n) as u32
        }
    }

    /// Constructs the point `(x mod n, y mod n)`.
    #[inline]
    pub fn point(&self, x: i64, y: i64) -> Point {
        Point {
            x: self.wrap(x),
            y: self.wrap(y),
        }
    }

    /// Row-major linear index of a point.
    #[inline]
    pub fn index(&self, p: Point) -> usize {
        (p.y as usize) * (self.n as usize) + (p.x as usize)
    }

    /// Inverse of [`Torus::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn from_index(&self, i: usize) -> Point {
        assert!(
            i < self.len(),
            "index {i} out of bounds for torus {}",
            self.n
        );
        Point {
            x: (i % self.n as usize) as u32,
            y: (i / self.n as usize) as u32,
        }
    }

    /// Translates `p` by the (possibly negative) offset `(dx, dy)`.
    #[inline]
    pub fn offset(&self, p: Point, dx: i64, dy: i64) -> Point {
        self.point(p.x as i64 + dx, p.y as i64 + dy)
    }

    /// Distance between two circle coordinates (1-D torus metric).
    #[inline]
    pub(crate) fn circle_distance(&self, a: u32, b: u32) -> u32 {
        let d = (a as i64 - b as i64).unsigned_abs() as u32 % self.n;
        d.min(self.n - d)
    }

    /// l∞ (Chebyshev) distance on the torus; the paper's neighborhoods are
    /// balls in this metric.
    #[inline]
    pub fn linf_distance(&self, a: Point, b: Point) -> u32 {
        self.circle_distance(a.x, b.x)
            .max(self.circle_distance(a.y, b.y))
    }

    /// l1 (Manhattan) distance on the torus; used by the chemical-distance
    /// and bad-cluster-radius arguments (Theorems 4 and 5).
    #[inline]
    pub fn l1_distance(&self, a: Point, b: Point) -> u32 {
        self.circle_distance(a.x, b.x) + self.circle_distance(a.y, b.y)
    }

    /// Euclidean distance on the torus; the firewall annulus `A_r(u)` of
    /// Lemma 9 is defined in this metric.
    #[inline]
    pub fn euclidean_distance(&self, a: Point, b: Point) -> f64 {
        let dx = self.circle_distance(a.x, b.x) as f64;
        let dy = self.circle_distance(a.y, b.y) as f64;
        (dx * dx + dy * dy).sqrt()
    }

    /// Iterator over all points in row-major order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let t = *self;
        (0..self.len()).map(move |i| t.from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_reduces_negative_and_large() {
        let t = Torus::new(10);
        assert_eq!(t.wrap(-1), 9);
        assert_eq!(t.wrap(10), 0);
        assert_eq!(t.wrap(25), 5);
        assert_eq!(t.wrap(-25), 5);
    }

    #[test]
    fn wrap_fast_path_agrees_with_reference_over_two_periods() {
        // the add/sub fast path covers [-n, 2n); sweep well past it on
        // both sides so the boundary handoff to the `%` fallback is hit
        for n in [1u32, 2, 3, 7, 10, 64, 101] {
            let t = Torus::new(n);
            let ni = n as i64;
            for c in (-2 * ni - 3)..=(2 * ni + 3) {
                let reference = c.rem_euclid(ni) as u32;
                assert_eq!(t.wrap(c), reference, "n={n} c={c}");
            }
        }
    }

    #[test]
    fn offset_agrees_with_reference_over_two_periods() {
        let t = Torus::new(9);
        let p = t.point(4, 7);
        for d in -18i64..=18 {
            let q = t.offset(p, d, -d);
            assert_eq!(q.x, (4 + d).rem_euclid(9) as u32);
            assert_eq!(q.y, (7 - d).rem_euclid(9) as u32);
        }
    }

    #[test]
    fn index_roundtrip() {
        let t = Torus::new(7);
        for i in 0..t.len() {
            assert_eq!(t.index(t.from_index(i)), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_index_out_of_bounds_panics() {
        let t = Torus::new(3);
        let _ = t.from_index(9);
    }

    #[test]
    fn circle_distance_is_symmetric_and_wraps() {
        let t = Torus::new(10);
        assert_eq!(t.circle_distance(0, 9), 1);
        assert_eq!(t.circle_distance(9, 0), 1);
        assert_eq!(t.circle_distance(2, 7), 5);
        assert_eq!(t.circle_distance(3, 3), 0);
    }

    #[test]
    fn linf_distance_examples() {
        let t = Torus::new(100);
        let a = t.point(0, 0);
        assert_eq!(t.linf_distance(a, t.point(3, 4)), 4);
        assert_eq!(t.linf_distance(a, t.point(99, 99)), 1);
        assert_eq!(t.linf_distance(a, t.point(50, 0)), 50);
    }

    #[test]
    fn l1_distance_examples() {
        let t = Torus::new(100);
        let a = t.point(0, 0);
        assert_eq!(t.l1_distance(a, t.point(3, 4)), 7);
        assert_eq!(t.l1_distance(a, t.point(99, 99)), 2);
    }

    #[test]
    fn euclidean_distance_wraps() {
        let t = Torus::new(10);
        let a = t.point(0, 0);
        let b = t.point(9, 9);
        assert!((t.euclidean_distance(a, b) - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn points_iterates_every_vertex_once() {
        let t = Torus::new(6);
        let pts: Vec<_> = t.points().collect();
        assert_eq!(pts.len(), 36);
        let mut seen = std::collections::HashSet::new();
        for p in pts {
            assert!(seen.insert(p));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_side_panics() {
        let _ = Torus::new(0);
    }
}
