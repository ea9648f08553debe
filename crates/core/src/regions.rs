//! Monochromatic and almost-monochromatic regions (§II-A, "Segregation").
//!
//! The *monochromatic region* of an agent `u` is the largest-radius
//! neighborhood (l∞ ball, any center) that contains `u` and only agents of
//! a single type. The *almost monochromatic region* relaxes "single type"
//! to a minority/majority ratio at most `e^{−εN}`.
//!
//! `M(u)` is monotone in the radius — an all-same ball of radius `ρ`
//! containing `u` contains an all-same ball of radius `ρ − 1` containing
//! `u` (shrink toward `u`) — so it is found by binary search with an
//! O(ρ²) center scan per probe. The almost-monochromatic criterion is not
//! monotone, so [`almost_monochromatic_region`] scans radii upward and
//! returns the largest passing one (with a cap); the `exp_theorem2_almost`
//! row of `docs/EXPERIMENTS.md` notes the difference.

use seg_grid::{Neighborhood, Point, PrefixSums, Torus, TypeField};

/// A measured region around an agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Radius ρ of the ball.
    pub radius: u32,
    /// Center of a witnessing ball.
    pub center: Point,
    /// Number of agents in the ball, `(2ρ+1)²`.
    pub size: u64,
}

fn ball_size(radius: u32) -> u64 {
    let d = 2 * radius as u64 + 1;
    d * d
}

/// Largest radius such that *some* l∞ ball of that radius containing `u`
/// satisfies `pass`; assumes the predicate is monotone under the
/// shrink-toward-`u` operation (true for monochromaticity).
fn monotone_region(
    torus: Torus,
    ps: &PrefixSums,
    u: Point,
    mut pass: impl FnMut(&PrefixSums, &Neighborhood) -> bool,
) -> Region {
    let max_radius = (torus.side() - 1) / 2;
    let witness = |ps: &PrefixSums,
                   rho: u32,
                   pass: &mut dyn FnMut(&PrefixSums, &Neighborhood) -> bool|
     -> Option<Point> {
        let r = rho as i64;
        for dy in -r..=r {
            for dx in -r..=r {
                let c = torus.offset(u, dx, dy);
                if pass(ps, &Neighborhood::new(torus, c, rho)) {
                    return Some(c);
                }
            }
        }
        None
    };
    // radius 0 always passes for monochromaticity-like predicates
    let mut best = Region {
        radius: 0,
        center: u,
        size: 1,
    };
    if witness(ps, 0, &mut pass).is_none() {
        return best;
    }
    let (mut lo, mut hi) = (0u32, max_radius);
    // invariant: lo passes, hi+1 fails (or hi is the global cap)
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        match witness(ps, mid, &mut pass) {
            Some(c) => {
                lo = mid;
                best = Region {
                    radius: mid,
                    center: c,
                    size: ball_size(mid),
                };
            }
            None => hi = mid - 1,
        }
    }
    best
}

/// The monochromatic region `M(u)`: the largest single-type l∞ ball
/// containing `u`. Monotone, exact.
///
/// # Example
///
/// ```
/// use seg_grid::{Torus, TypeField, AgentType, PrefixSums};
/// use seg_core::regions::monochromatic_region;
/// let t = Torus::new(32);
/// let f = TypeField::uniform(t, AgentType::Plus);
/// let ps = PrefixSums::new(&f);
/// let r = monochromatic_region(&f, &ps, t.point(5, 5));
/// assert_eq!(r.radius, 15); // the torus cap (n−1)/2
/// ```
pub fn monochromatic_region(field: &TypeField, ps: &PrefixSums, u: Point) -> Region {
    let torus = field.torus();
    monotone_region(torus, ps, u, |ps, ball| ps.is_monochromatic(ball))
}

/// The almost-monochromatic region `M'(u)`: the largest l∞ ball containing
/// `u` whose minority/majority ratio is at most `ratio_bound`. Scans radii
/// `0..=cap` upward and returns the largest passing radius (the criterion
/// is not monotone; the scan is exact up to the cap).
///
/// # Panics
///
/// Panics if `ratio_bound` is negative or NaN.
pub fn almost_monochromatic_region(
    field: &TypeField,
    ps: &PrefixSums,
    u: Point,
    ratio_bound: f64,
    cap: u32,
) -> Region {
    assert!(
        ratio_bound >= 0.0 && ratio_bound.is_finite(),
        "ratio bound must be a finite non-negative number"
    );
    let torus = field.torus();
    let cap = cap.min((torus.side() - 1) / 2);
    let mut best = Region {
        radius: 0,
        center: u,
        size: 1,
    };
    for rho in 1..=cap {
        let r = rho as i64;
        let mut found = None;
        'scan: for dy in -r..=r {
            for dx in -r..=r {
                let c = torus.offset(u, dx, dy);
                let ball = Neighborhood::new(torus, c, rho);
                if ps.minority_ratio(&ball) <= ratio_bound {
                    found = Some(c);
                    break 'scan;
                }
            }
        }
        if let Some(c) = found {
            best = Region {
                radius: rho,
                center: c,
                size: ball_size(rho),
            };
        }
    }
    best
}

/// The paper's almost-monochromatic ratio bound `e^{−εN}` (§II-A).
pub fn paper_ratio_bound(n_size: u32, eps: f64) -> f64 {
    (-eps * n_size as f64).exp()
}

/// Monte-Carlo estimate of `E[M]`: the mean monochromatic-region *size*
/// over `samples` uniformly drawn agents.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn expected_monochromatic_size(
    field: &TypeField,
    ps: &PrefixSums,
    samples: u32,
    rng: &mut seg_grid::rng::Xoshiro256pp,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let torus = field.torus();
    let mut total = 0u64;
    for _ in 0..samples {
        let u = torus.from_index(rng.next_below(torus.len() as u64) as usize);
        total += monochromatic_region(field, ps, u).size;
    }
    total as f64 / samples as f64
}

/// The full per-agent region-size distribution over sampled agents —
/// the data behind the paper's §V open question: is the *expectation*
/// exponential because *most* agents sit in large regions, or because an
/// exponentially small fraction sit in astronomically large ones?
///
/// Returns the sampled sizes, sorted ascending.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn region_size_distribution(
    field: &TypeField,
    ps: &PrefixSums,
    samples: u32,
    rng: &mut seg_grid::rng::Xoshiro256pp,
) -> Vec<u64> {
    assert!(samples > 0, "need at least one sample");
    let torus = field.torus();
    let mut sizes: Vec<u64> = (0..samples)
        .map(|_| {
            let u = torus.from_index(rng.next_below(torus.len() as u64) as usize);
            monochromatic_region(field, ps, u).size
        })
        .collect();
    sizes.sort_unstable();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_grid::rng::Xoshiro256pp;
    use seg_grid::AgentType;

    fn square_field(n: u32, half_side: u32) -> TypeField {
        // a (2h+1)×(2h+1) block of Plus centered at (n/2, n/2) in a Minus sea
        let t = Torus::new(n);
        let c = t.point(n as i64 / 2, n as i64 / 2);
        TypeField::from_fn(t, |p| {
            if t.linf_distance(c, p) <= half_side {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        })
    }

    #[test]
    fn exact_square_is_recovered() {
        let f = square_field(64, 5);
        let ps = PrefixSums::new(&f);
        let t = f.torus();
        let c = t.point(32, 32);
        let r = monochromatic_region(&f, &ps, c);
        assert_eq!(r.radius, 5);
        assert_eq!(r.size, 121);
    }

    #[test]
    fn off_center_agent_still_inside_region() {
        let f = square_field(64, 5);
        let ps = PrefixSums::new(&f);
        let t = f.torus();
        // agent at the corner of the block: the largest mono ball through it
        // is still radius 5 (centered at the block center)
        let corner = t.point(32 + 5, 32 + 5);
        let r = monochromatic_region(&f, &ps, corner);
        assert_eq!(r.radius, 5);
        // an agent just outside sits in the Minus sea: its ball is bounded
        // by the distance to the block
        let sea = t.point(32 + 7, 32);
        let r2 = monochromatic_region(&f, &ps, sea);
        assert!(r2.radius >= 1, "the sea is wide");
    }

    #[test]
    fn region_in_sea_is_large() {
        let f = square_field(128, 3);
        let ps = PrefixSums::new(&f);
        let t = f.torus();
        let far = t.point(0, 0); // far from the block (which is at 64,64)
        let r = monochromatic_region(&f, &ps, far);
        assert!(
            r.radius >= 20,
            "sea region should be much larger than the block; got {}",
            r.radius
        );
    }

    #[test]
    fn uniform_field_hits_torus_cap() {
        let t = Torus::new(31);
        let f = TypeField::uniform(t, AgentType::Minus);
        let ps = PrefixSums::new(&f);
        let r = monochromatic_region(&f, &ps, t.point(4, 9));
        assert_eq!(r.radius, 15);
    }

    #[test]
    fn checkerboard_region_is_trivial() {
        let t = Torus::new(32);
        let f = TypeField::from_fn(t, |p| {
            if (p.x + p.y) % 2 == 0 {
                AgentType::Plus
            } else {
                AgentType::Minus
            }
        });
        let ps = PrefixSums::new(&f);
        let r = monochromatic_region(&f, &ps, t.point(7, 7));
        assert_eq!(r.radius, 0);
        assert_eq!(r.size, 1);
    }

    #[test]
    fn almost_region_tolerates_sparse_minority() {
        let t = Torus::new(64);
        // Plus sea with a single Minus defect near the agent
        let f = TypeField::from_fn(t, |p| {
            if p.x == 30 && p.y == 30 {
                AgentType::Minus
            } else {
                AgentType::Plus
            }
        });
        let ps = PrefixSums::new(&f);
        let u = t.point(32, 32);
        let strict = monochromatic_region(&f, &ps, u);
        // strict region is clipped by the defect in some directions but can
        // still grow by recentering; almost-region with 1% tolerance must be
        // at least as large
        let lax = almost_monochromatic_region(&f, &ps, u, 0.01, 31);
        assert!(lax.radius >= strict.radius);
        // with ratio bound 1 everything passes up to the cap
        let all = almost_monochromatic_region(&f, &ps, u, 1.0, 10);
        assert_eq!(all.radius, 10);
    }

    #[test]
    fn almost_region_ratio_zero_equals_monochromatic() {
        let f = square_field(64, 4);
        let ps = PrefixSums::new(&f);
        let t = f.torus();
        let u = t.point(32, 32);
        let strict = monochromatic_region(&f, &ps, u);
        let zero = almost_monochromatic_region(&f, &ps, u, 0.0, 31);
        assert_eq!(strict.radius, zero.radius);
    }

    #[test]
    fn paper_ratio_bound_decays() {
        assert!(paper_ratio_bound(441, 0.01) < paper_ratio_bound(121, 0.01));
        assert!((paper_ratio_bound(100, 0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn distribution_is_sorted_and_consistent_with_mean() {
        let t = Torus::new(64);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let f = TypeField::random(t, 0.5, &mut rng);
        let ps = PrefixSums::new(&f);
        let sizes = region_size_distribution(&f, &ps, 80, &mut rng);
        assert_eq!(sizes.len(), 80);
        for w in sizes.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // every size is an odd square
        for s in &sizes {
            let side = (*s as f64).sqrt().round() as u64;
            assert_eq!(side * side, *s);
            assert_eq!(side % 2, 1);
        }
    }

    #[test]
    fn expected_size_on_random_field_is_small() {
        let t = Torus::new(64);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let f = TypeField::random(t, 0.5, &mut rng);
        let ps = PrefixSums::new(&f);
        let m = expected_monochromatic_size(&f, &ps, 50, &mut rng);
        // in a Bernoulli(1/2) field mono regions are O(1)
        assert!(m < 12.0, "E[M] = {m} too large for a random field");
        assert!(m >= 1.0);
    }
}
