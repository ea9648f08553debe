//! Kernel throughput baseline: measures the fused 2-D flip kernel (on
//! random sites and on the real `step` path) and the O(1)-step ring
//! dynamics, writes `BENCH_kernel.json`, and optionally
//! gates against a committed baseline.
//!
//! ```text
//! bench_kernel [--quick] [--out PATH] [--check BASELINE] [--tolerance F]
//! ```
//!
//! - `--quick` — 0.2 s per metric instead of 1.5 s (CI smoke budget);
//! - `--out PATH` — where to write the JSON (default `BENCH_kernel.json`);
//! - `--check BASELINE` — after measuring, compare each metric against the
//!   committed baseline JSON and exit non-zero if any throughput fell
//!   below `tolerance × baseline` (default tolerance 0.5, i.e. fail only
//!   on a >50% regression — machine-to-machine noise passes);
//! - `--tolerance F` — the regression factor for `--check`.
//!
//! See `docs/PERFORMANCE.md` for how the baseline is tracked across PRs.

use seg_bench::kernel;
use std::time::Duration;

struct Args {
    quick: bool,
    out: String,
    check: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_kernel.json".to_string(),
        check: None,
        tolerance: 0.5,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out"),
            "--check" => args.check = Some(value("--check")),
            "--tolerance" => {
                args.tolerance = value("--tolerance").parse().unwrap_or_else(|e| {
                    eprintln!("bad --tolerance: {e}");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_kernel [--quick] [--out PATH] [--check BASELINE] [--tolerance F]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Extracts `"key": <number>` from a flat JSON document we wrote
/// ourselves (no nesting of the same key, numbers unquoted).
fn extract_metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args = parse_args();
    let budget = if args.quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1500)
    };
    println!(
        "bench_kernel: {} mode, {} per metric",
        if args.quick { "quick" } else { "full" },
        format_args!("{:.1}s", budget.as_secs_f64()),
    );

    let mut metrics: Vec<(String, f64)> = Vec::new();
    for w in kernel::TWOD_HORIZONS {
        let rate = kernel::measure_twod_flips(w, budget);
        println!("  2-D fused flip kernel   w={w}: {rate:>12.0} flips/s");
        metrics.push((format!("twod_flips_per_s_w{w}"), rate));
    }
    for w in kernel::TWOD_STEP_HORIZONS {
        let rate = kernel::measure_twod_steps(w, budget);
        println!("  2-D step to stability   w={w}: {rate:>12.0} flips/s");
        metrics.push((format!("twod_steps_per_s_w{w}"), rate));
    }
    let ring = kernel::measure_ring_steps(budget);
    println!(
        "  ring Glauber       n={}: {ring:>12.0} steps/s",
        kernel::RING_N
    );
    metrics.push((format!("ring_steps_per_s_n{}", kernel::RING_N), ring));
    let kaw = kernel::measure_kawasaki_attempts(budget);
    println!(
        "  ring Kawasaki      n={}: {kaw:>12.0} attempts/s",
        kernel::RING_N
    );
    metrics.push((
        format!("ring_kawasaki_attempts_per_s_n{}", kernel::RING_N),
        kaw,
    ));

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"bench_kernel/v1\",\n");
    json.push_str(&format!("  \"quick\": {},\n", args.quick));
    json.push_str(&format!(
        "  \"params\": {{\"twod_side\": {}, \"ring_n\": {}, \"ring_w\": {}, \"tau\": {}}},\n",
        kernel::TWOD_SIDE,
        kernel::RING_N,
        kernel::RING_W,
        kernel::TAU
    ));
    json.push_str("  \"metrics\": {\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let sep = if i + 1 == metrics.len() { "" } else { "," };
        json.push_str(&format!("    \"{k}\": {v:.1}{sep}\n"));
    }
    json.push_str("  }\n}\n");
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&args.out, &json).expect("write bench JSON");
    println!("wrote {}", args.out);

    if let Some(baseline_path) = args.check {
        let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let mut failed = false;
        println!(
            "checking against {baseline_path} (tolerance {:.2}):",
            args.tolerance
        );
        for (k, v) in &metrics {
            match extract_metric(&baseline, k) {
                Some(base) => {
                    let floor = args.tolerance * base;
                    let ok = *v >= floor;
                    println!(
                        "  {k}: {v:.0} vs baseline {base:.0} ({}%) {}",
                        (100.0 * v / base).round(),
                        if ok { "ok" } else { "REGRESSION" }
                    );
                    failed |= !ok;
                }
                None => println!("  {k}: not in baseline, skipped"),
            }
        }
        if failed {
            eprintln!(
                "throughput regressed more than {:.0}%",
                100.0 * (1.0 - args.tolerance)
            );
            std::process::exit(1);
        }
        println!("all metrics within tolerance");
    }
}
