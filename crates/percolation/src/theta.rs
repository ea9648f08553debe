//! Percolation probability `θ(p)` and pair connectivity.
//!
//! Lemma 13 lower-bounds the two-point connection probability by `θ(p)²`
//! through the FKG inequality. This module estimates `θ(p)` (the chance
//! the origin joins a "giant" cluster — on a finite box, a cluster
//! touching the boundary) and the pair connectivity `P(0 ↔ x)`, so that
//! inequality can be observed numerically.

use crate::site::SiteLattice;
use seg_grid::rng::Xoshiro256pp;
use std::collections::VecDeque;

/// Whether the center of a `(2m+1)²` box connects to the box boundary
/// through open sites — the finite-volume proxy for `0 ↔ ∞`.
fn center_reaches_boundary(lat: &SiteLattice) -> bool {
    let (w, h) = (lat.width(), lat.height());
    let (cx, cy) = (w / 2, h / 2);
    if !lat.is_open(cx, cy) {
        return false;
    }
    let mut seen = vec![false; lat.len()];
    let idx = |x: u32, y: u32| (y as usize) * (w as usize) + x as usize;
    seen[idx(cx, cy)] = true;
    let mut queue = VecDeque::from([(cx, cy)]);
    while let Some((x, y)) = queue.pop_front() {
        if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
            return true;
        }
        for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
            let (nx, ny) = (x as i64 + dx, y as i64 + dy);
            if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                continue;
            }
            let (nx, ny) = (nx as u32, ny as u32);
            if !seen[idx(nx, ny)] && lat.is_open(nx, ny) {
                seen[idx(nx, ny)] = true;
                queue.push_back((nx, ny));
            }
        }
    }
    false
}

/// Monte-Carlo estimate of `θ(p)` on a `(2m+1)²` box.
///
/// Converges to the true `θ(p)` from above as `m → ∞`; vanishes below
/// `p_c ≈ 0.5927` and is positive above.
///
/// # Panics
///
/// Panics if `trials == 0` or `p` is not a probability.
pub fn theta_estimate(m: u32, p: f64, trials: u32, rng: &mut Xoshiro256pp) -> f64 {
    assert!(trials > 0, "need at least one trial");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let side = 2 * m + 1;
    let mut hits = 0u32;
    for _ in 0..trials {
        let lat = SiteLattice::random(side, side, p, rng);
        if center_reaches_boundary(&lat) {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// Monte-Carlo estimate of the pair connectivity `P(0 ↔ x)` for `x` at
/// horizontal distance `k` from the center, in a box with margin `k`.
///
/// # Panics
///
/// Panics if `trials == 0` or `k == 0`.
pub fn pair_connectivity(k: u32, p: f64, trials: u32, rng: &mut Xoshiro256pp) -> f64 {
    assert!(trials > 0 && k > 0, "need trials > 0 and k > 0");
    let margin = k.max(4);
    let width = k + 2 * margin + 1;
    let height = 2 * margin + 1;
    let mut hits = 0u32;
    for _ in 0..trials {
        let lat = SiteLattice::random(width, height, p, rng);
        let bfs = crate::chemical::ChemicalDistances::from_source(&lat, margin, margin);
        if bfs.get(margin + k, margin).is_some() {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_zero_when_closed_one_when_open() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(theta_estimate(10, 0.0, 20, &mut rng), 0.0);
        assert_eq!(theta_estimate(10, 1.0, 20, &mut rng), 1.0);
    }

    #[test]
    fn theta_transition_across_pc() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let sub = theta_estimate(24, 0.45, 200, &mut rng);
        let sup = theta_estimate(24, 0.75, 200, &mut rng);
        assert!(sub < 0.1, "θ below pc should be tiny: {sub}");
        assert!(sup > 0.5, "θ above pc should be large: {sup}");
    }

    #[test]
    fn fkg_pair_bound_theta_squared() {
        // Lemma 13's step: P(0 ↔ x) ≥ θ(p)² (by FKG). Check empirically
        // at a supercritical p with tolerance for finite-box effects.
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let p = 0.8;
        let theta = theta_estimate(24, p, 300, &mut rng);
        let pair = pair_connectivity(20, p, 300, &mut rng);
        assert!(
            pair >= theta * theta - 0.1,
            "FKG bound violated: pair = {pair}, θ² = {}",
            theta * theta
        );
    }

    #[test]
    fn pair_connectivity_decreases_with_distance_below_pc() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let near = pair_connectivity(4, 0.45, 400, &mut rng);
        let far = pair_connectivity(16, 0.45, 400, &mut rng);
        assert!(
            far < near,
            "subcritical connectivity must decay: {near} → {far}"
        );
        assert!(far < 0.05);
    }

    #[test]
    fn center_reaches_boundary_on_cross() {
        let lat = SiteLattice::from_fn(9, 9, |x, y| x == 4 || y == 4);
        assert!(center_reaches_boundary(&lat));
        let isolated = SiteLattice::from_fn(9, 9, |x, y| x == 4 && y == 4);
        assert!(!center_reaches_boundary(&isolated));
    }
}
