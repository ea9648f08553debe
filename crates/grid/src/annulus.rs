//! Annular firewall geometry (Lemma 9 of the paper).

use crate::{Point, Torus};

/// The annulus `A_r(u) = { y : r − √2·w ≤ ‖u − y‖ ≤ r }` of Lemma 9: the
/// set of agents at Euclidean distance between `r − √2·w` and `r` from a
/// center. Once such an annulus becomes monochromatic it remains static and
/// shields its interior from the outside configuration — the paper's
/// *firewall*.
///
/// # Example
///
/// ```
/// use seg_grid::{Torus, Annulus};
/// let t = Torus::new(200);
/// let a = Annulus::new(t, t.point(100, 100), 30.0, 3);
/// assert!(a.len() > 0);
/// for p in a.points() {
///     let d = t.euclidean_distance(t.point(100, 100), p);
///     assert!(d <= 30.0 && d >= 30.0 - 2f64.sqrt() * 3.0);
/// }
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Annulus {
    torus: Torus,
    center: Point,
    outer_radius: f64,
    horizon: u32,
}

impl Annulus {
    /// Annulus of outer radius `r` and width `√2·w` centered at `center`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive/finite, or if the annulus does not fit
    /// in the torus (diameter `2r ≥ n`).
    pub fn new(torus: Torus, center: Point, outer_radius: f64, horizon: u32) -> Self {
        assert!(
            outer_radius.is_finite() && outer_radius > 0.0,
            "outer radius must be positive"
        );
        assert!(
            2.0 * outer_radius < torus.side() as f64,
            "annulus of radius {} does not fit torus of side {}",
            outer_radius,
            torus.side()
        );
        Annulus {
            torus,
            center,
            outer_radius,
            horizon,
        }
    }

    /// The center.
    #[inline]
    pub fn center(&self) -> Point {
        self.center
    }

    /// The outer radius `r`.
    #[inline]
    pub fn outer_radius(&self) -> f64 {
        self.outer_radius
    }

    /// The inner radius `r − √2·w`.
    #[inline]
    fn inner_radius(&self) -> f64 {
        (self.outer_radius - std::f64::consts::SQRT_2 * self.horizon as f64).max(0.0)
    }

    /// Whether `p` belongs to the annulus.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        let d = self.torus.euclidean_distance(self.center, p);
        d <= self.outer_radius && d >= self.inner_radius()
    }

    /// Whether `p` lies strictly inside the inner circle (the protected
    /// interior).
    #[inline]
    fn is_interior(&self, p: Point) -> bool {
        self.torus.euclidean_distance(self.center, p) < self.inner_radius()
    }

    /// Whether `p` lies strictly outside the outer circle.
    #[inline]
    pub fn is_exterior(&self, p: Point) -> bool {
        self.torus.euclidean_distance(self.center, p) > self.outer_radius
    }

    /// All points of the annulus.
    pub fn points(&self) -> Vec<Point> {
        let r = self.outer_radius.ceil() as i64;
        let mut v = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let p = self.torus.offset(self.center, dx, dy);
                if self.contains(p) {
                    v.push(p);
                }
            }
        }
        v
    }

    /// All points of the interior disc.
    pub fn interior_points(&self) -> Vec<Point> {
        let r = self.inner_radius().ceil() as i64;
        let mut v = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let p = self.torus.offset(self.center, dx, dy);
                if self.is_interior(p) {
                    v.push(p);
                }
            }
        }
        v
    }

    /// Number of points in the annulus.
    pub fn len(&self) -> usize {
        self.points().len()
    }

    /// Whether the annulus contains no lattice points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_into_interior_annulus_exterior() {
        let t = Torus::new(120);
        let c = t.point(60, 60);
        let a = Annulus::new(t, c, 25.0, 4);
        for p in t.points() {
            let zones = [a.contains(p), a.is_interior(p), a.is_exterior(p)];
            assert_eq!(
                zones.iter().filter(|z| **z).count(),
                1,
                "point {p:?} in {zones:?}"
            );
        }
    }

    #[test]
    fn annulus_width_scales_with_horizon() {
        let t = Torus::new(200);
        let c = t.point(100, 100);
        let narrow = Annulus::new(t, c, 40.0, 1);
        let wide = Annulus::new(t, c, 40.0, 8);
        assert!(wide.len() > narrow.len());
        assert!((wide.inner_radius() - (40.0 - 8.0 * 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn area_close_to_continuum() {
        let t = Torus::new(300);
        let a = Annulus::new(t, t.point(150, 150), 60.0, 5);
        let expected = std::f64::consts::PI * (60.0f64.powi(2) - a.inner_radius().powi(2));
        let got = a.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "lattice {got} vs continuum {expected}"
        );
    }

    #[test]
    fn interior_points_are_inside() {
        let t = Torus::new(100);
        let c = t.point(50, 50);
        let a = Annulus::new(t, c, 20.0, 3);
        for p in a.interior_points() {
            assert!(a.is_interior(p));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_annulus_panics() {
        let t = Torus::new(50);
        let _ = Annulus::new(t, t.point(0, 0), 30.0, 2);
    }
}
