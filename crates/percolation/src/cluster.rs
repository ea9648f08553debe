//! Open-cluster statistics, including the subcritical radius tail
//! (Grimmett's Theorem 5.4 — the paper's Theorem 5, used in Lemma 14).

use crate::site::SiteLattice;
use crate::union_find::UnionFind;
use seg_grid::rng::Xoshiro256pp;

/// The labeled open clusters of a [`SiteLattice`].
#[derive(Clone, Debug)]
pub struct ClusterSet {
    /// Size of each cluster, indexed by id.
    sizes: Vec<usize>,
    /// l1 radius of each cluster around its first-seen site.
    radii: Vec<u32>,
}

impl ClusterSet {
    /// Builds the set from a lattice and a populated union-find.
    pub(crate) fn from_union_find(lat: &SiteLattice, mut uf: UnionFind) -> Self {
        let w = lat.width() as usize;
        let mut root_to_id: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut sizes = Vec::new();
        let mut anchors: Vec<(i64, i64)> = Vec::new();
        let mut radii = Vec::new();
        for y in 0..lat.height() {
            for x in 0..lat.width() {
                let i = (y as usize) * w + x as usize;
                if !lat.is_open(x, y) {
                    continue;
                }
                let root = uf.find(i);
                let id = *root_to_id.entry(root).or_insert_with(|| {
                    sizes.push(0);
                    anchors.push((x as i64, y as i64));
                    radii.push(0);
                    sizes.len() - 1
                });
                sizes[id] += 1;
                let (ax, ay) = anchors[id];
                let r = (x as i64 - ax).unsigned_abs() + (y as i64 - ay).unsigned_abs();
                radii[id] = radii[id].max(r as u32);
            }
        }
        ClusterSet { sizes, radii }
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest cluster (0 if there are none).
    pub fn largest_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// l1 radius of each cluster measured from its first-seen (anchor)
    /// site — an upper-bound proxy for the paper's
    /// `sup{Δ(0, x) : x ∈ cluster}` radius, exact when the anchor is the
    /// cluster's origin site.
    pub fn radii(&self) -> &[u32] {
        &self.radii
    }
}

/// One sample of the origin-cluster radius experiment of
/// [`origin_radius_tail`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RadiusSample {
    /// Whether the origin site was open.
    pub origin_open: bool,
    /// l1 radius of the origin's cluster (0 if the origin is closed).
    pub radius: u32,
}

/// Samples the radius of the *origin's* open cluster in a `(2m+1)²` box at
/// occupation `p`, repeated `trials` times.
///
/// For `p < p_c`, Grimmett's Theorem 5.4 gives
/// `P(radius ≥ k) < e^{−kψ(p)}` with `ψ(p) > 0` — the exponential tail the
/// paper uses (via Lemma 14) to bound bad-block clusters. The harness
/// `exp_bad_cluster_decay` fits `ψ` from these samples.
///
/// # Panics
///
/// Panics if `trials == 0` or `p` is not a probability.
pub fn origin_radius_tail(
    m: u32,
    p: f64,
    trials: u32,
    rng: &mut Xoshiro256pp,
) -> Vec<RadiusSample> {
    assert!(trials > 0, "need at least one trial");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let side = 2 * m + 1;
    let mut out = Vec::with_capacity(trials as usize);
    for _ in 0..trials {
        let lat = SiteLattice::random(side, side, p, rng);
        if !lat.is_open(m, m) {
            out.push(RadiusSample {
                origin_open: false,
                radius: 0,
            });
            continue;
        }
        // BFS from the center, tracking max l1 distance.
        let w = side as usize;
        let mut seen = vec![false; lat.len()];
        let start = (m as usize) * w + m as usize;
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([(m as i64, m as i64)]);
        let mut radius = 0u32;
        while let Some((x, y)) = queue.pop_front() {
            let d = (x - m as i64).unsigned_abs() + (y - m as i64).unsigned_abs();
            radius = radius.max(d as u32);
            for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                let (nx, ny) = (x + dx, y + dy);
                if nx < 0 || ny < 0 || nx >= side as i64 || ny >= side as i64 {
                    continue;
                }
                let ni = (ny as usize) * w + nx as usize;
                if !seen[ni] && lat.is_open(nx as u32, ny as u32) {
                    seen[ni] = true;
                    queue.push_back((nx, ny));
                }
            }
        }
        out.push(RadiusSample {
            origin_open: true,
            radius,
        });
    }
    out
}

/// Empirical tail `P(radius ≥ k)` for `k = 0..=k_max` from radius samples
/// (conditional on nothing: closed origins count as radius 0, matching the
/// event `A_k` of Theorem 5 which requires an open path from the origin).
pub fn empirical_radius_tail(samples: &[RadiusSample], k_max: u32) -> Vec<f64> {
    let n = samples.len() as f64;
    (0..=k_max)
        .map(|k| {
            samples
                .iter()
                .filter(|s| s.origin_open && s.radius >= k)
                .count() as f64
                / n
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_sizes_on_two_bars() {
        let lat = SiteLattice::from_fn(7, 5, |x, y| (y == 1 || y == 3) && x < 6);
        let cs = lat.clusters();
        assert_eq!(cs.cluster_count(), 2);
        assert_eq!(cs.sizes(), &[6, 6]);
        assert_eq!(cs.largest_size(), 6);
    }

    #[test]
    fn radius_of_a_bar_cluster() {
        let lat = SiteLattice::from_fn(9, 3, |x, y| y == 1 && x < 9);
        let cs = lat.clusters();
        // anchor is (0, 1); farthest site (8, 1) at l1 distance 8
        assert_eq!(cs.radii(), &[8]);
    }

    #[test]
    fn origin_radius_zero_when_isolated() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let samples = origin_radius_tail(5, 0.0, 10, &mut rng);
        assert!(samples.iter().all(|s| !s.origin_open && s.radius == 0));
    }

    #[test]
    fn origin_radius_full_box() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let samples = origin_radius_tail(4, 1.0, 5, &mut rng);
        // radius of the full box from center: l1 distance to the corner = 8
        assert!(samples.iter().all(|s| s.origin_open && s.radius == 8));
    }

    #[test]
    fn subcritical_tail_decays_fast() {
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        let samples = origin_radius_tail(20, 0.3, 400, &mut rng);
        let tail = empirical_radius_tail(&samples, 12);
        // tail[0] ≈ p = 0.3; by k = 12 essentially zero far below pc
        assert!((tail[0] - 0.3).abs() < 0.07, "tail[0] = {}", tail[0]);
        assert!(tail[12] < 0.02, "tail[12] = {}", tail[12]);
        // monotone non-increasing
        for w in tail.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn supercritical_tail_stays_fat() {
        let mut rng = Xoshiro256pp::seed_from_u64(34);
        let samples = origin_radius_tail(20, 0.8, 200, &mut rng);
        let tail = empirical_radius_tail(&samples, 15);
        assert!(
            tail[15] > 0.5,
            "supercritical radius should reach the box edge"
        );
    }
}
