//! Radical regions (§III, Lemmas 20–22).
//!
//! A *radical region* `N_{(1+ε')w}` is a ball of radius `(1+ε')w` holding
//! fewer than `τ̂·(1+ε')²N` agents of type `(-1)`; the paper deflates `τ`
//! to `τ̂ = τ·[1 − 1/(τ·N^{1/2−ε})]`, which tends to `τ` as `N → ∞`. Such
//! a region contains an unhappy region at its center w.h.p. (Lemma 4) and,
//! for `ε' > f(τ)`, can be made to expand (Lemma 5). Radical regions are
//! the paper's segregation nuclei; `exp_unhappy_probability` counts them
//! in frozen random fields against the probability of Lemma 20.

use crate::intolerance::Intolerance;
use seg_grid::{Neighborhood, Point, PrefixSums};

/// Parameters of the radical-region analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadicalParams {
    /// Horizon `w`.
    pub horizon: u32,
    /// The geometric enlargement `ε'` (must exceed `f(τ)` for Lemma 5 to
    /// apply).
    pub eps_prime: f64,
}

impl RadicalParams {
    /// Standard parameters: `ε' = f(τ) + margin`.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 0` or τ is outside `(τ2, 1−τ2)`.
    pub fn for_tau(horizon: u32, tau: f64, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative");
        RadicalParams {
            horizon,
            eps_prime: seg_theory::trigger::f_trigger(tau) + margin,
        }
    }

    /// Radius of the radical region, `⌈(1+ε')w⌉`.
    pub fn radical_radius(&self) -> u32 {
        ((1.0 + self.eps_prime) * self.horizon as f64).ceil() as u32
    }

    /// The deficiency threshold on minus-agents without the `τ̂`
    /// deflation: `⌊τ·(size of region)⌋`, the `N → ∞` limit of the
    /// paper's threshold. (At the small `N` a scan can reach, the deflation
    /// can exceed `τ` entirely and leave threshold 0.)
    pub fn minus_threshold_plain(&self, intol: Intolerance) -> u64 {
        let radius = self.radical_radius();
        let region_size = (2 * radius as u64 + 1) * (2 * radius as u64 + 1);
        // ⌊(τN/N)·size⌋ in integers: the float product can land a rounding
        // error below an integer and floor one too low
        u64::from(intol.threshold()) * region_size / u64::from(intol.neighborhood_size())
    }
}

/// Whether the ball of radius `(1+ε')w` at `center` is a radical region of
/// type `(+1)` — i.e. holds fewer than `threshold` `(-1)` agents (Lemma 4's
/// setup; swap types for the mirror notion).
fn is_radical_region(
    ps: &PrefixSums,
    params: RadicalParams,
    center: Point,
    threshold: u64,
) -> bool {
    let ball = Neighborhood::new(ps.torus(), center, params.radical_radius());
    ps.minus_in(&ball) < threshold
}

/// Scans the whole grid for radical regions with minus-count threshold
/// `threshold` (e.g. [`RadicalParams::minus_threshold_plain`]); returns
/// their centers.
///
/// (Lemma 22 predicts about
/// `n² · 2^{−[1−H(τ'')](1+ε')²N}` of them in the initial configuration —
/// astronomically rare for large `N`, observable for small horizons.)
pub fn find_radical_regions(ps: &PrefixSums, params: RadicalParams, threshold: u64) -> Vec<Point> {
    ps.torus()
        .points()
        .filter(|c| is_radical_region(ps, params, *c, threshold))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_grid::{AgentType, Torus, TypeField};

    fn plus_heavy_field(n: u32, center: Point, radius: u32, minus_fraction_in: f64) -> TypeField {
        // deterministic striped pattern: inside the ball, make roughly a
        // fraction `minus_fraction_in` of agents Minus; outside, half/half.
        let t = Torus::new(n);
        TypeField::from_fn(t, |p| {
            let d = t.linf_distance(center, p);
            if d <= radius {
                // spread minus sites evenly with a modular rule
                let k = (p.x as u64 * 31 + p.y as u64 * 17) % 100;
                if (k as f64) < minus_fraction_in * 100.0 {
                    AgentType::Minus
                } else {
                    AgentType::Plus
                }
            } else if (p.x + p.y) % 2 == 0 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        })
    }

    #[test]
    fn radical_region_detected_when_minus_deficient() {
        let n = 96;
        let w = 4;
        let tau = 0.45;
        let params = RadicalParams::for_tau(w, tau, 0.05);
        let t = Torus::new(n);
        let center = t.point(48, 48);
        // far fewer minus agents than τ inside the radical ball
        let field = plus_heavy_field(n, center, params.radical_radius(), 0.10);
        let ps = PrefixSums::new(&field);
        let intol = Intolerance::new((2 * w + 1) * (2 * w + 1), tau);
        let threshold = params.minus_threshold_plain(intol);
        assert!(is_radical_region(&ps, params, center, threshold));
        // a balanced region is not radical
        let far = t.point(0, 0);
        assert!(!is_radical_region(&ps, params, far, threshold));
    }

    #[test]
    fn find_radical_regions_returns_cluster_near_center() {
        let n = 96;
        let w = 4;
        let tau = 0.45;
        let params = RadicalParams::for_tau(w, tau, 0.05);
        let t = Torus::new(n);
        let center = t.point(48, 48);
        let field = plus_heavy_field(n, center, params.radical_radius() + 2, 0.05);
        let ps = PrefixSums::new(&field);
        let intol = Intolerance::new((2 * w + 1) * (2 * w + 1), tau);
        let found = find_radical_regions(&ps, params, params.minus_threshold_plain(intol));
        assert!(!found.is_empty());
        assert!(
            found
                .iter()
                .any(|c| t.linf_distance(*c, center) <= params.radical_radius()),
            "a radical center should be near the constructed deficiency"
        );
    }

    #[test]
    fn radical_radius_scales_with_eps() {
        let a = RadicalParams {
            horizon: 10,
            eps_prime: 0.1,
        };
        let b = RadicalParams {
            horizon: 10,
            eps_prime: 0.4,
        };
        assert!(b.radical_radius() > a.radical_radius());
        assert_eq!(a.radical_radius(), 11);
        assert_eq!(b.radical_radius(), 14);
    }
}
