//! l∞ ball neighborhoods (`N_ρ` in the paper, §II-A).

use crate::{Point, Torus};

/// A neighborhood of radius `ρ`: the set of all agents with l∞ distance at
/// most `ρ` from a central node (§II-A). The neighborhood *of an agent* is
/// the ball of radius equal to the horizon `w` centered at it, of size
/// `N = (2w + 1)²`.
///
/// On a torus of side `n`, a ball of radius `ρ ≥ n/2` covers the whole
/// torus in that axis; the iteration below deduplicates by clamping the
/// diameter at `n`.
///
/// # Example
///
/// ```
/// use seg_grid::{Torus, Neighborhood};
/// let t = Torus::new(100);
/// let ball = Neighborhood::new(t, t.point(5, 5), 10); // horizon w = 10
/// assert_eq!(ball.len(), 441); // the paper's Figure 1 neighborhood size
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Neighborhood {
    torus: Torus,
    center: Point,
    radius: u32,
}

impl Neighborhood {
    /// Ball of the given radius centered at `center`.
    pub fn new(torus: Torus, center: Point, radius: u32) -> Self {
        Neighborhood {
            torus,
            center,
            radius,
        }
    }

    /// The center node.
    #[inline]
    pub fn center(&self) -> Point {
        self.center
    }

    /// The radius `ρ`.
    #[inline]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The underlying torus.
    #[inline]
    pub fn torus(&self) -> Torus {
        self.torus
    }

    /// Side length of the ball as a subset of the torus: `min(2ρ+1, n)`.
    #[inline]
    pub fn side(&self) -> u32 {
        (2 * self.radius + 1).min(self.torus.side())
    }

    /// Number of agents in the ball (`N = (2ρ+1)²` when `2ρ+1 ≤ n`).
    #[inline]
    pub fn len(&self) -> usize {
        let s = self.side() as usize;
        s * s
    }

    /// Whether the ball is empty. Never true (it always contains its
    /// center), but provided alongside [`Neighborhood::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `p` belongs to the ball.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.torus.linf_distance(self.center, p) <= self.radius
    }

    /// Iterates all points of the ball in row-major order of offsets.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        let side = self.side() as i64;
        let half = side / 2;
        // When the ball wraps the whole torus in an axis, side = n and we
        // enumerate each point exactly once.
        let lo_y = self.center.y as i64 - half;
        let lo_x = self.center.x as i64 - half;
        let t = self.torus;
        let full = side == t.side() as i64;
        (0..side).flat_map(move |dy| {
            (0..side).map(move |dx| {
                if full {
                    t.point(dx, dy)
                } else {
                    t.point(lo_x + dx, lo_y + dy)
                }
            })
        })
    }

    /// Number of agents in the intersection of this ball with `other`.
    ///
    /// Lemma 5's geometry reasons about the overlap `N''(u)` between the
    /// neighborhood of a corner agent and the radical region; this method
    /// computes such overlaps exactly.
    pub fn intersection_len(&self, other: &Neighborhood) -> usize {
        debug_assert_eq!(self.torus, other.torus);
        let t = self.torus;
        let overlap_axis = |a: u32, ra: u32, b: u32, rb: u32| -> u64 {
            let sa = (2 * ra + 1).min(t.side());
            let sb = (2 * rb + 1).min(t.side());
            if sa == t.side() {
                return sb as u64;
            }
            if sb == t.side() {
                return sa as u64;
            }
            // Arcs [a−ra, a+ra] and [b−rb, b+rb] on the circle Z_n. Two
            // arcs can meet on *both* sides of the circle (when their
            // lengths sum past n), so account for the near overlap (center
            // distance d) and the far overlap (distance n − d) separately.
            let n = t.side() as u64;
            let d = t.circle_distance(a, b) as u64;
            let (ra, rb) = (ra as u64, rb as u64);
            let reach = ra + rb;
            let near = if d <= reach { reach - d + 1 } else { 0 };
            let far_d = n - d;
            let far = if d > 0 && far_d <= reach {
                reach - far_d + 1
            } else {
                0
            };
            (near + far).min(2 * ra + 1).min(2 * rb + 1).min(n)
        };
        let ox = overlap_axis(self.center.x, self.radius, other.center.x, other.radius);
        let oy = overlap_axis(self.center.y, self.radius, other.center.y, other.radius);
        (ox * oy) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_formula() {
        let t = Torus::new(101);
        for r in [0u32, 1, 2, 5, 10] {
            let nb = Neighborhood::new(t, t.point(50, 50), r);
            assert_eq!(nb.len(), ((2 * r + 1) * (2 * r + 1)) as usize);
            assert_eq!(nb.points().count(), nb.len());
        }
    }

    #[test]
    fn points_all_within_radius_and_unique() {
        let t = Torus::new(20);
        let c = t.point(1, 18);
        let nb = Neighborhood::new(t, c, 3);
        let pts: Vec<_> = nb.points().collect();
        assert_eq!(pts.len(), 49);
        let mut seen = std::collections::HashSet::new();
        for p in pts {
            assert!(t.linf_distance(c, p) <= 3);
            assert!(seen.insert(p), "duplicate point {p:?}");
            assert!(nb.contains(p));
        }
    }

    #[test]
    fn ball_covering_whole_torus_has_n_squared_points() {
        let t = Torus::new(7);
        let nb = Neighborhood::new(t, t.point(3, 3), 10);
        assert_eq!(nb.len(), 49);
        let mut seen = std::collections::HashSet::new();
        for p in nb.points() {
            assert!(seen.insert(p));
        }
        assert_eq!(seen.len(), 49);
    }

    #[test]
    fn intersection_concentric() {
        let t = Torus::new(101);
        let c = t.point(50, 50);
        let big = Neighborhood::new(t, c, 10);
        let small = Neighborhood::new(t, c, 4);
        assert_eq!(big.intersection_len(&small), small.len());
    }

    #[test]
    fn intersection_disjoint() {
        let t = Torus::new(101);
        let a = Neighborhood::new(t, t.point(10, 10), 3);
        let b = Neighborhood::new(t, t.point(40, 40), 3);
        assert_eq!(a.intersection_len(&b), 0);
    }

    #[test]
    fn intersection_matches_brute_force() {
        let t = Torus::new(23);
        let cases = [
            ((0, 0), 3, (2, 21), 4),
            ((5, 5), 2, (8, 5), 2),
            ((0, 11), 5, (22, 1), 5),
            ((3, 3), 11, (10, 10), 1), // first ball covers whole torus
        ];
        for ((ax, ay), ra, (bx, by), rb) in cases {
            let a = Neighborhood::new(t, t.point(ax, ay), ra);
            let b = Neighborhood::new(t, t.point(bx, by), rb);
            let brute = a.points().filter(|p| b.contains(*p)).count();
            assert_eq!(
                a.intersection_len(&b),
                brute,
                "case a=({ax},{ay})r{ra} b=({bx},{by})r{rb}"
            );
        }
    }

    #[test]
    fn corner_agent_overlap_matches_lemma5_geometry() {
        // Lemma 5: the shared region between the neighborhood of a corner
        // agent of N_{w/2} and the radical region N_{(1+e)w} has scaling
        // factor (3/2 + e)^2 / (4 (1+e)^2) + O(1/sqrt(N)).
        let t = Torus::new(1001);
        let w = 40u32;
        let eps = 0.25f64;
        let rr = (((1.0 + eps) * w as f64).round()) as u32;
        let c = t.point(500, 500);
        let corner = t.point(500 + w as i64 / 2, 500 + w as i64 / 2);
        let radical = Neighborhood::new(t, c, rr);
        let agent = Neighborhood::new(t, corner, w);
        let overlap = agent.intersection_len(&radical) as f64;
        // γ'' is the overlap scaled by the *radical region* size (Lemma 5).
        let radical_size = ((2 * rr + 1) * (2 * rr + 1)) as f64;
        let gamma = overlap / radical_size;
        let predicted = (1.5 + eps) * (1.5 + eps) / (4.0 * (1.0 + eps) * (1.0 + eps));
        assert!(
            (gamma - predicted).abs() < 0.05,
            "gamma = {gamma}, predicted = {predicted}"
        );
    }
}
