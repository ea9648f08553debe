//! Deterministic workloads and timers for the flip-kernel benchmarks.
//!
//! Driven by the `bench_kernel` binary (absolute flips/s written to
//! `BENCH_kernel.json`, the tracked perf baseline). Workloads are fully
//! deterministic: one 2-D case drives
//! [`seg_core::Simulation::force_flip_at`] with an LCG point stream
//! (random sites, so this isolates the count walk), the other runs
//! [`seg_core::Simulation::step`] to stability from seeded fields (the
//! real path, where most touched cells keep their class); the ring cases
//! run the real dynamics to stability from seeded initial conditions.

use seg_core::ring::{RingKawasaki, RingSim};
use seg_core::{ModelConfig, Simulation};
use seg_obs::Json;
use std::time::{Duration, Instant};

/// Grid side for the 2-D kernel workload.
pub const TWOD_SIDE: u32 = 256;
/// Horizons measured by the 2-D kernel workload.
pub const TWOD_HORIZONS: [u32; 4] = [1, 2, 4, 8];
/// Horizons measured by the 2-D real-path workload.
pub const TWOD_STEP_HORIZONS: [u32; 2] = [1, 8];
/// Ring length for the 1-D workloads.
pub const RING_N: usize = 2000;
/// Ring horizon for the 1-D workloads.
pub const RING_W: u32 = 8;
/// Intolerance for all workloads (the segregating regime).
pub const TAU: f64 = 0.45;

/// Per-realization cap on Kawasaki swap attempts. `try_swap` returns
/// `None` only when an unhappy set empties; a configuration can instead
/// absorb into endless rejections (pairs remain, no swap helps), so an
/// uncapped drive could spin forever. Typical realizations at these
/// parameters stick within a few hundred attempts.
pub const KAWASAKI_MAX_ATTEMPTS: u64 = 100_000;

/// A splitmix-style stream of cell indices below `universe`.
#[derive(Clone, Debug)]
struct FlipStream {
    state: u64,
    universe: u64,
}

impl FlipStream {
    /// A deterministic stream over `0..universe`.
    fn new(seed: u64, universe: u64) -> Self {
        FlipStream {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            universe,
        }
    }

    /// The next pseudo-random index.
    #[inline]
    fn next_index(&mut self) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.state >> 33) % self.universe) as usize
    }
}

/// The 2-D simulation the kernel workload flips in.
fn twod_sim(w: u32) -> Simulation {
    ModelConfig::new(TWOD_SIDE, w, TAU).seed(1).build()
}

/// A fresh ring realization for the 1-D Glauber workload.
fn ring_sim(seed: u64) -> RingSim {
    RingSim::random(RING_N, RING_W, TAU, 0.5, seed)
}

/// Measures 2-D kernel throughput: `force_flip_at` on an LCG point
/// stream for at least `budget`, returning flips per second.
pub fn measure_twod_flips(w: u32, budget: Duration) -> f64 {
    let mut sim = twod_sim(w);
    let t = sim.torus();
    let mut stream = FlipStream::new(7, t.len() as u64);
    // warm up caches and branch predictors
    for _ in 0..1000 {
        let i = stream.next_index();
        sim.force_flip_at(t.from_index(i));
    }
    let mut flips = 0u64;
    let batch = 4096u64;
    let t0 = Instant::now();
    loop {
        for _ in 0..batch {
            let i = stream.next_index();
            sim.force_flip_at(t.from_index(i));
        }
        flips += batch;
        if t0.elapsed() >= budget {
            break;
        }
    }
    flips as f64 / t0.elapsed().as_secs_f64()
}

/// Measures 2-D real-path throughput: `step` until stable over fresh
/// seeded fields, returning flips per second (setup excluded from the
/// clock).
pub fn measure_twod_steps(w: u32, budget: Duration) -> f64 {
    let mut flips = 0u64;
    let mut timed = Duration::ZERO;
    let mut seed = 0u64;
    while timed < budget {
        let mut sim = ModelConfig::new(TWOD_SIDE, w, TAU).seed(seed).build();
        seed += 1;
        let t0 = Instant::now();
        while sim.step().is_some() {}
        timed += t0.elapsed();
        flips += sim.flips();
    }
    flips as f64 / timed.as_secs_f64()
}

/// Measures ring Glauber throughput: full runs to stability over fresh
/// seeded realizations, returning effective steps per second (setup
/// excluded from the clock).
pub fn measure_ring_steps(budget: Duration) -> f64 {
    let mut steps = 0u64;
    let mut timed = Duration::ZERO;
    let mut seed = 0u64;
    while timed < budget {
        let mut sim = ring_sim(seed);
        seed += 1;
        let f0 = sim.flips();
        let t0 = Instant::now();
        while sim.step().is_some() {}
        timed += t0.elapsed();
        steps += sim.flips() - f0;
    }
    steps as f64 / timed.as_secs_f64()
}

/// Measures ring Kawasaki throughput: swap attempts until the process
/// sticks (or [`KAWASAKI_MAX_ATTEMPTS`]), over fresh seeded
/// realizations, returning attempts per second.
pub fn measure_kawasaki_attempts(budget: Duration) -> f64 {
    let mut attempts = 0u64;
    let mut timed = Duration::ZERO;
    let mut seed = 0u64;
    while timed < budget {
        let mut k = RingKawasaki::new(ring_sim(seed));
        seed += 1;
        let t0 = Instant::now();
        for _ in 0..KAWASAKI_MAX_ATTEMPTS {
            if k.try_swap().is_none() {
                break;
            }
            attempts += 1;
        }
        timed += t0.elapsed();
    }
    attempts as f64 / timed.as_secs_f64()
}

/// How many times `bench_kernel` measures each metric. It records and
/// gates on the median, which one slow run cannot move.
pub const REPEATS: usize = 3;

/// The median and range of repeated measurements of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The middle sample (upper middle for an even count).
    pub median: f64,
    /// The slowest sample.
    pub min: f64,
    /// The fastest sample.
    pub max: f64,
}

impl Spread {
    /// Runs `measure` [`REPEATS`] times.
    pub fn measure(mut measure: impl FnMut() -> f64) -> Spread {
        Spread::of((0..REPEATS).map(|_| measure()).collect())
    }

    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(mut samples: Vec<f64>) -> Spread {
        samples.sort_by(f64::total_cmp);
        Spread {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// A metric of a `BENCH_kernel.json` document (its `metrics` object).
pub fn baseline_metric(baseline: &Json, key: &str) -> Option<f64> {
    baseline.get("metrics")?.get(key)?.as_f64()
}

/// Compares each metric's median with `baseline` (a `BENCH_kernel.json`
/// document): a metric regresses when its median is below `tolerance ×`
/// its baseline value. Returns one report line per metric and whether
/// any regressed; metrics missing from the baseline are skipped.
pub fn check(metrics: &[(String, Spread)], baseline: &Json, tolerance: f64) -> (Vec<String>, bool) {
    let mut failed = false;
    let lines = metrics
        .iter()
        .map(|(k, s)| match baseline_metric(baseline, k) {
            Some(base) => {
                let ok = s.median >= tolerance * base;
                failed |= !ok;
                format!(
                    "{k}: median {:.0} vs baseline {base:.0} ({}%) {}",
                    s.median,
                    (100.0 * s.median / base).round(),
                    if ok { "ok" } else { "REGRESSION" }
                )
            }
            None => format!("{k}: not in baseline, skipped"),
        })
        .collect();
    (lines, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_median_and_range() {
        let s = Spread::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        // one slow run does not move the gated value
        assert_eq!(Spread::of(vec![100.0, 48.0, 99.0]).median, 99.0);
    }

    #[test]
    fn check_fails_against_a_doubled_baseline() {
        let text = include_str!("../../../BENCH_kernel.json");
        let baseline = &Json::parse(text).unwrap();
        let keys = [
            "twod_flips_per_s_w1",
            "twod_flips_per_s_w8",
            "twod_steps_per_s_w8",
            "ring_steps_per_s_n2000",
        ];
        // medians at 90% of the committed baseline, one slow sample each
        let metrics: Vec<(String, Spread)> = keys
            .iter()
            .map(|k| {
                let base = baseline_metric(baseline, k).expect("committed metric");
                (
                    k.to_string(),
                    Spread::of(vec![0.9 * base, 0.3 * base, base]),
                )
            })
            .collect();
        let (lines, failed) = check(&metrics, baseline, 0.5);
        assert!(!failed, "{lines:?}");
        // every baseline value doubled: the same medians are at 45%
        let mut doubled = text.to_string();
        for k in keys {
            let base = baseline_metric(baseline, k).unwrap();
            doubled = doubled.replace(
                &format!("\"{k}\": {base:.1}"),
                &format!("\"{k}\": {:.1}", 2.0 * base),
            );
        }
        let (lines, failed) = check(&metrics, &Json::parse(&doubled).unwrap(), 0.5);
        assert!(failed, "{lines:?}");
        assert!(lines.iter().all(|l| l.ends_with("REGRESSION")), "{lines:?}");
        let (lines, _) = check(&metrics, &Json::Obj(Vec::new()), 0.5);
        assert!(lines.iter().all(|l| l.ends_with("skipped")), "{lines:?}");
    }

    #[test]
    fn flip_stream_is_deterministic_and_in_range() {
        let mut a = FlipStream::new(3, 100);
        let mut b = FlipStream::new(3, 100);
        for _ in 0..50 {
            let x = a.next_index();
            assert_eq!(x, b.next_index());
            assert!(x < 100);
        }
    }

    #[test]
    fn measurements_produce_positive_rates() {
        let budget = Duration::from_millis(10);
        assert!(measure_twod_flips(1, budget) > 0.0);
        assert!(measure_twod_steps(1, budget) > 0.0);
        assert!(measure_ring_steps(budget) > 0.0);
        assert!(measure_kawasaki_attempts(budget) > 0.0);
    }
}
