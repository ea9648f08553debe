//! Kernel throughput baseline: measures the fused 2-D flip kernel (on
//! random sites and on the real `step` path) and the O(1)-step ring
//! dynamics, writes `BENCH_kernel.json`, and optionally
//! gates against a committed baseline.
//!
//! ```text
//! bench_kernel [--quick] [--out PATH] [--check BASELINE] [--tolerance F]
//! ```
//!
//! Each metric is measured [`kernel::REPEATS`] times; the JSON records the
//! median and stdout prints the min/max spread next to it.
//!
//! - `--quick` — 0.2 s per run instead of 1.5 s (CI smoke budget);
//! - `--out PATH` — where to write the JSON (default `BENCH_kernel.json`);
//! - `--check BASELINE` — after measuring, compare each metric's median
//!   against the committed baseline JSON and exit non-zero if any fell
//!   below `tolerance × baseline` (default tolerance 0.5, i.e. fail only
//!   on a >50% regression — machine-to-machine noise passes). The
//!   baseline must not be the `--out` file, which the run would overwrite
//!   before comparing it with itself: that exits 2 before measuring;
//! - `--tolerance F` — the regression factor for `--check`.
//!
//! See `docs/PERFORMANCE.md` for how the baseline is tracked across PRs.

use seg_bench::kernel::{self, Spread};
use std::time::Duration;

const USAGE: &str = "usage: bench_kernel [--quick] [--out PATH] [--check BASELINE] [--tolerance F]";

#[derive(Debug)]
struct Args {
    quick: bool,
    out: String,
    check: Option<String>,
    tolerance: f64,
}

/// Parses the flags; `Ok(None)` asks for the usage text.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        quick: false,
        out: "BENCH_kernel.json".to_string(),
        check: None,
        tolerance: 0.5,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}; see --help")),
        }
    }
    if let Some(check) = &args.check {
        if same_file(check, &args.out) {
            return Err(format!(
                "--check {check} is the --out file: the run would overwrite the \
                 baseline and compare it with itself; pass another --out"
            ));
        }
    }
    Ok(Some(args))
}

/// Whether two paths name one file: equal as written, or resolving to
/// the same existing file.
fn same_file(a: &str, b: &str) -> bool {
    a == b
        || matches!(
            (std::fs::canonicalize(a), std::fs::canonicalize(b)),
            (Ok(x), Ok(y)) if x == y
        )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let budget = if args.quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1500)
    };
    println!(
        "bench_kernel: {} mode, {:.1}s per run, median of {} runs per metric",
        if args.quick { "quick" } else { "full" },
        budget.as_secs_f64(),
        kernel::REPEATS,
    );

    let mut metrics: Vec<(String, Spread)> = Vec::new();
    let mut record = |name: String, what: &str, unit: &str, measure: &mut dyn FnMut() -> f64| {
        let s = Spread::measure(measure);
        println!(
            "  {what:<26} {:>12.0} {unit} (min {:.0}, max {:.0})",
            s.median, s.min, s.max
        );
        metrics.push((name, s));
    };
    for w in kernel::TWOD_HORIZONS {
        record(
            format!("twod_flips_per_s_w{w}"),
            &format!("2-D fused flip kernel w={w}"),
            "flips/s",
            &mut || kernel::measure_twod_flips(w, budget),
        );
    }
    for w in kernel::TWOD_STEP_HORIZONS {
        record(
            format!("twod_steps_per_s_w{w}"),
            &format!("2-D step to stability w={w}"),
            "flips/s",
            &mut || kernel::measure_twod_steps(w, budget),
        );
    }
    let n = kernel::RING_N;
    record(
        format!("ring_steps_per_s_n{n}"),
        &format!("ring Glauber n={n}"),
        "steps/s",
        &mut || kernel::measure_ring_steps(budget),
    );
    record(
        format!("ring_kawasaki_attempts_per_s_n{n}"),
        &format!("ring Kawasaki n={n}"),
        "attempts/s",
        &mut || kernel::measure_kawasaki_attempts(budget),
    );

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
        json.push_str(&format!("    \"{k}\": {:.1}{sep}\n", v.median));
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
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| seg_obs::Json::parse(&text))
            .unwrap_or_else(|e| {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                std::process::exit(2);
            });
        println!(
            "checking medians against {baseline_path} (tolerance {:.2}):",
            args.tolerance
        );
        let (lines, failed) = kernel::check(&metrics, &baseline, args.tolerance);
        for line in lines {
            println!("  {line}");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_baseline_equal_to_the_output_is_refused() {
        // the default --out is BENCH_kernel.json
        for line in [
            "--check BENCH_kernel.json",
            "--quick --check BENCH_kernel.json --tolerance 0.5",
            "--out k.json --check k.json",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("is the --out file"), "{line}: {err}");
        }
        // two spellings of one existing file
        let dir = std::env::temp_dir().join(format!("bench_kernel_args_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("k.json");
        std::fs::write(&file, "{}").unwrap();
        let other = dir.join(".").join("k.json");
        let line = format!("--out {} --check {}", file.display(), other.display());
        assert!(parse(&line).is_err(), "{line}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_paths_and_plain_runs_parse() {
        let args = parse("--quick --out out/k.json --check BENCH_kernel.json --tolerance 0.4")
            .unwrap()
            .unwrap();
        assert!(args.quick);
        assert_eq!(args.out, "out/k.json");
        assert_eq!(args.check.as_deref(), Some("BENCH_kernel.json"));
        assert_eq!(args.tolerance, 0.4);
        assert_eq!(parse("").unwrap().unwrap().out, "BENCH_kernel.json");
        assert!(parse("--help").unwrap().is_none());
        assert!(parse("--tolerance x").is_err());
        assert!(parse("--out").is_err());
        assert!(parse("--bogus").is_err());
    }
}
