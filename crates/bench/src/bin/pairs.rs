//! Alternating paired runs of two benchmark commands: the committed way
//! to compare a change against its parent on one host.
//!
//! ```text
//! pairs --parent 'CMD ARGS..' --change 'CMD ARGS..' [--pairs K] [--metrics BENCHMARK.json]
//! ```
//!
//! Runs the two commands alternately for `K` pairs (default 10), the
//! parent first in odd pairs and the change first in even ones, so a
//! drift in the host's speed falls on both sides alike. Each command is
//! split on whitespace (no shell quoting) and must print its metrics as
//! a JSON object with a `metrics` member on a stdout line of its own,
//! the last such line counting: segbench's last line
//! (`{"name": {"value": ..}}`) and bench_kernel's (`{"name": ..}`) both
//! do. A segbench run that reads `"correct":false` stops the driver,
//! since a timing of wrong output compares nothing.
//!
//! For every metric it prints the parent's median and quartiles, the
//! change's median, the median of the per-pair change/parent ratios, the
//! pairs the change won, and the exact one-sided sign-test p of that
//! many wins (9 of 10 gives 11/1024 ≈ 0.011). Which way is better comes
//! from the `better` fields of `--metrics` (the repository's
//! `BENCHMARK.json`); a metric it does not list is better higher when
//! its name holds `per_s` (a rate), lower otherwise. A tie is not a
//! win.
//!
//! It measures nothing itself: host speed is the latent confounder of
//! every absolute reading, and pairing blocks on it.

use seg_obs::Json;
use std::process::Command;

const USAGE: &str = "usage: pairs --parent 'CMD ARGS..' --change 'CMD ARGS..' [--pairs K] \
                     [--metrics BENCHMARK.json]";

#[derive(Debug)]
struct Args {
    parent: Vec<String>,
    change: Vec<String>,
    pairs: usize,
    metrics: Option<String>,
}

/// Parses the flags; `Ok(None)` asks for the usage text.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let (mut parent, mut change, mut pairs, mut metrics) = (None, None, 10, None);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let words =
            |cmd: String| -> Vec<String> { cmd.split_whitespace().map(str::to_string).collect() };
        match a.as_str() {
            "--parent" => parent = Some(words(value("--parent")?)),
            "--change" => change = Some(words(value("--change")?)),
            "--pairs" => {
                pairs = value("--pairs")?
                    .parse()
                    .ok()
                    .filter(|&k| k > 0)
                    .ok_or("--pairs takes a positive integer")?
            }
            "--metrics" => metrics = Some(value("--metrics")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}; see --help")),
        }
    }
    let command = |cmd: Option<Vec<String>>, flag: &str| match cmd {
        Some(words) if !words.is_empty() => Ok(words),
        _ => Err(format!("{flag} is required")),
    };
    Ok(Some(Args {
        parent: command(parent, "--parent")?,
        change: command(change, "--change")?,
        pairs,
        metrics,
    }))
}

/// The metrics of one run's stdout, in their order of appearance.
fn read_metrics(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = stdout
        .lines()
        .rev()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Json::parse(l.trim()).ok())
        .find(|j| j.get("metrics").is_some())
        .ok_or("no stdout line is a JSON object with \"metrics\"")?;
    if doc.get("correct") == Some(&Json::Bool(false)) {
        return Err("the run reads \"correct\":false".into());
    }
    let Some(Json::Obj(members)) = doc.get("metrics") else {
        return Err("\"metrics\" is not an object".into());
    };
    members
        .iter()
        .map(|(name, m)| {
            m.as_f64()
                .or_else(|| m.get("value")?.as_f64())
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no number"))
        })
        .collect()
}

/// Runs one command to completion and reads its metrics.
fn run(cmd: &[String]) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(&cmd[0])
        .args(&cmd[1..])
        .output()
        .map_err(|e| format!("{}: {e}", cmd[0]))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{} exited with {}: {}",
            cmd.join(" "),
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    read_metrics(&stdout).map_err(|e| format!("{}: {e}", cmd.join(" ")))
}

/// Whether more is better, per name: the `better` fields of a
/// BENCHMARK.json-shaped document.
fn declared_directions(doc: &Json) -> Vec<(String, bool)> {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|list| match doc.get(list) {
            Some(Json::Arr(items)) => Some(items),
            _ => None,
        })
        .flatten()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            Some((name.to_string(), m.get("better")?.as_str()? == "higher"))
        })
        .collect()
}

/// The default direction of an undeclared metric: rates are better
/// higher, times, sizes and shares lower.
fn higher_is_better(name: &str) -> bool {
    name.contains("per_s")
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics (`q = 0.5` is the median).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The exact one-sided sign-test p: the chance of at least `wins`
/// heads in `n` fair coin flips.
fn sign_test_p(wins: usize, n: usize) -> f64 {
    let mut choose = 1.0; // C(n, k), built up from k = 0
    let mut tail = 0.0;
    for k in 0..=n {
        if k >= wins {
            tail += choose;
        }
        choose = choose * (n - k) as f64 / (k + 1) as f64;
    }
    tail / 2f64.powi(n as i32)
}

/// One metric's paired comparison.
#[derive(Debug, PartialEq)]
struct Comparison {
    parent_median: f64,
    parent_q1: f64,
    parent_q3: f64,
    change_median: f64,
    ratio_median: f64,
    wins: usize,
    p: f64,
}

/// Compares paired readings; `parent[i]` and `change[i]` are pair `i`.
fn compare(parent: &[f64], change: &[f64], higher_better: bool) -> Comparison {
    let ratios: Vec<f64> = parent.iter().zip(change).map(|(p, c)| c / p).collect();
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if higher_better { c > p } else { c < p })
        .count();
    Comparison {
        parent_median: quantile(parent, 0.5),
        parent_q1: quantile(parent, 0.25),
        parent_q3: quantile(parent, 0.75),
        change_median: quantile(change, 0.5),
        ratio_median: quantile(&ratios, 0.5),
        wins,
        p: sign_test_p(wins, parent.len()),
    }
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
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let declared = match &args.metrics {
        None => Vec::new(),
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(doc) => declared_directions(&doc),
            Err(e) => {
                eprintln!("--metrics {path}: {e}");
                std::process::exit(2);
            }
        },
    };
    let mut readings: Vec<[Vec<(String, f64)>; 2]> = Vec::new();
    for pair in 0..args.pairs {
        // odd pairs (counting from 1) run the parent first
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut got: [Vec<(String, f64)>; 2] = Default::default();
        for side in order {
            let cmd = if side == 0 {
                &args.parent
            } else {
                &args.change
            };
            got[side] = run(cmd).unwrap_or_else(|e| {
                eprintln!("pairs: pair {}: {e}", pair + 1);
                std::process::exit(1);
            });
        }
        eprintln!(
            "pairs: pair {}/{} done ({} first)",
            pair + 1,
            args.pairs,
            if order[0] == 0 { "parent" } else { "change" }
        );
        readings.push(got);
    }

    println!(
        "pairs: K={} alternating pairs\nparent: {}\nchange: {}",
        args.pairs,
        args.parent.join(" "),
        args.change.join(" ")
    );
    println!(
        "{:<34} {:>6} {:>34} {:>12} {:>7} {:>6} {:>7}",
        "metric", "better", "parent median [Q1 – Q3]", "change", "ratio", "won", "p"
    );
    for (name, _) in &readings[0][0] {
        let side = |s: usize| -> Option<Vec<f64>> {
            readings
                .iter()
                .map(|r| r[s].iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect()
        };
        let (Some(parent), Some(change)) = (side(0), side(1)) else {
            println!("{name:<34} (missing from some run)");
            continue;
        };
        let higher = declared
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| higher_is_better(name), |(_, h)| *h);
        let c = compare(&parent, &change, higher);
        println!(
            "{name:<34} {:>6} {:>34} {:>12} {:>7.3} {:>6} {:>7.4}",
            if higher { "higher" } else { "lower" },
            format!(
                "{} [{} – {}]",
                seg_bench::fmt_g(c.parent_median),
                seg_bench::fmt_g(c.parent_q1),
                seg_bench::fmt_g(c.parent_q3)
            ),
            seg_bench::fmt_g(c.change_median),
            c.ratio_median,
            format!("{}/{}", c.wins, args.pairs),
            c.p,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split(' ').map(str::to_string).collect()
    }

    #[test]
    fn nine_of_ten_wins_is_p_0_011() {
        assert_eq!(sign_test_p(9, 10), 11.0 / 1024.0);
        assert_eq!(sign_test_p(10, 10), 1.0 / 1024.0);
        assert_eq!(sign_test_p(0, 10), 1.0);
        assert_eq!(sign_test_p(8, 10), 56.0 / 1024.0);
        assert_eq!(sign_test_p(2, 3), 0.5);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn wins_follow_the_direction_and_ties_lose() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [12.0, 11.0, 10.0, 9.0];
        let up = compare(&parent, &change, true);
        assert_eq!(up.wins, 2);
        assert_eq!(up.ratio_median, 1.05);
        assert_eq!((up.parent_median, up.change_median), (10.0, 10.5));
        assert_eq!(up.p, 11.0 / 16.0);
        assert_eq!(compare(&parent, &change, false).wins, 1);
    }

    #[test]
    fn metrics_come_from_the_last_json_line_of_either_harness() {
        let segbench = "log line\n{\"correct\":true,\"metrics\":{\"jobs_per_s\":\
                        {\"value\":2.5,\"unit\":\"1/s\"},\"setup_s\":{\"value\":0.1}}}\n";
        assert_eq!(
            read_metrics(segbench).unwrap(),
            [
                ("jobs_per_s".to_string(), 2.5),
                ("setup_s".to_string(), 0.1)
            ]
        );
        let kernel = "{\"metrics\":{\"a\":1}}\n{\"schema\":\"bench_kernel/v1\",\
                      \"metrics\":{\"twod_flips_per_s_w1\":3.0}}\nwrote k.json\n";
        assert_eq!(
            read_metrics(kernel).unwrap(),
            [("twod_flips_per_s_w1".to_string(), 3.0)]
        );
        let wrong = "{\"correct\":false,\"metrics\":{\"x\":{\"value\":1}}}";
        assert!(read_metrics(wrong).unwrap_err().contains("correct"));
        assert!(read_metrics("no json here").is_err());
    }

    #[test]
    fn directions_come_from_the_benchmark_declaration_first() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","better":"lower"}],
                "per_layer":[{"name":"trace.coverage","better":"higher"}]}"#,
        )
        .unwrap();
        assert_eq!(
            declared_directions(&doc),
            [
                ("setup_s".to_string(), false),
                ("trace.coverage".to_string(), true)
            ]
        );
        assert!(higher_is_better("twod_steps_per_s_w8"));
        assert!(higher_is_better("transport.rows_per_s"));
        assert!(!higher_is_better("job_p50_ms"));
    }

    #[test]
    fn flags_parse_and_refuse() {
        let a = parse_args(&argv(
            "--parent a/segbench --workload x --change b/segbench --pairs 4",
        ));
        assert!(a.is_err(), "an unquoted command leaves stray words");
        let a = parse_args(&[
            "--parent".into(),
            "a/segbench --workload x".into(),
            "--change".into(),
            "b/segbench --workload x".into(),
            "--pairs".into(),
            "4".into(),
        ])
        .unwrap()
        .unwrap();
        assert_eq!(a.parent, ["a/segbench", "--workload", "x"]);
        assert_eq!(a.pairs, 4);
        assert!(parse_args(&argv("--parent a"))
            .unwrap_err()
            .contains("--change"));
        assert!(parse_args(&argv("--parent a --change b --pairs 0")).is_err());
        assert!(parse_args(&argv("--help")).unwrap().is_none());
    }
}
