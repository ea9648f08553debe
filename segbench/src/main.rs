//! End-to-end and per-layer benchmark of the segregation sweeps and the
//! sweep service.
//!
//! ```text
//! segbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `sweep_small`, `sweep_kernel`, `sweep_variants` (batch
//! sweeps on the engine) and `serve_mix` (an in-process server under two
//! closed-loop clients). `--trace 0` measures the end-to-end metrics;
//! `--trace 1` runs the traced loop and reports the per-layer metrics.
//! The last line of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! See `segbench/README.md` for the workloads and the metric map.

mod serve;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The seed the recorded row digests (see [`sweep::GOLDEN_DIGESTS`]) are
/// taken at; every run also checks its workload's reference job at it.
const DEFAULT_SEED: u64 = 1;

/// Engine threads and client connections: the 2-core machine the
/// benchmark was defined on. Fixed, so that runs on the same machine
/// compare whatever its core count.
const THREADS: usize = 2;

/// Scratch space inside the working directory (the checkout the
/// benchmark runs from): per-run directories, removed when the run ends,
/// and the last traced run's spans of each workload.
const WORK_ROOT: &str = ".segbench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one checked operation; a failed check is reported on stderr.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("segbench: check failed: {}", what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN/inf; a non-finite value is a broken run
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let correct =
            self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite());
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// The `q`-quantile (nearest rank) of a sample, in the sample's unit.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// 64-bit FNV-1a: the row digest recorded for each sweep workload.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The machine's CPU time counters (`/proc/stat`): (stolen, total) ticks.
/// On a virtual machine, time stolen by the host slows every wall-clock
/// metric; runs print their steal share so noisy runs can be told apart.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn work_dir(workload: &str) -> PathBuf {
    Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("segbench: {e}");
            eprintln!("usage: segbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let dir = work_dir(&args.workload);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let ticks = cpu_ticks();
    let report = match args.workload.as_str() {
        "serve_mix" => serve::run(&dir, args.seed, budget, args.trace),
        name => match sweep::workload(name) {
            Some(w) => sweep::run(&w, &dir, args.seed, budget, args.trace),
            None => {
                eprintln!(
                    "segbench: unknown workload {name} (sweep_small, sweep_kernel, \
                     sweep_variants, serve_mix)"
                );
                let _ = std::fs::remove_dir_all(&dir);
                std::process::exit(2);
            }
        },
    };
    let _ = std::fs::remove_dir_all(&dir);
    let steal = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    eprintln!(
        "segbench: {} seed {} trace {} finished in {:.1} s ({:.1}% of CPU time stolen by the host)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64(),
        100.0 * steal
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    println!("{}", report.json());
}
