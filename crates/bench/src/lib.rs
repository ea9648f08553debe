//! Shared helpers for the experiment harness binaries of the segregation
//! reproduction, and the kernel benchmark workloads ([`kernel`]).
//!
//! Each binary in `src/bin/` regenerates one figure or result of the
//! paper — `docs/EXPERIMENTS.md` at the repository root maps every
//! binary to the theorem/figure/claim it reproduces, its flags, expected
//! runtime and outputs. All binaries run on `seg_engine` (a `SweepSpec`
//! plus observers; no hand-rolled parameter/seed loops) and share the
//! unified `--threads/--seed/--out/--replicas/--checkpoint/--shard`
//! interface — which also means every one of them can run as one worker
//! of a multi-process sharded sweep (`--shard I/M`, merged by rerunning
//! without the flag).
//! This library holds the logic they share: the base seed, flag parsing,
//! checkpoint-aware sweep running, and banner printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;

/// The base seed used by all harness binaries (printed in every banner so
/// runs are reproducible).
pub const BASE_SEED: u64 = 0x5E67_2017;

/// Standard horizons for N-scaling sweeps: `N = 9, 25, 49, 81, 121`.
pub const SCALING_HORIZONS: [u32; 5] = [1, 2, 3, 4, 5];

/// Prints the standard experiment banner.
pub fn banner(id: &str, paper_artifact: &str, params: &str) {
    println!("=== {id} — reproduces {paper_artifact} ===");
    println!("params: {params}");
    println!("seed:   {BASE_SEED:#x}");
    println!();
}

/// Parses the engine's unified flags (`--threads`, `--seed`, `--out`,
/// `--replicas`, `--checkpoint`, `--shard`) for a harness
/// binary, printing usage and exiting on `--help`, on an unknown flag,
/// or on a malformed value. Every engine-backed binary accepts exactly
/// this interface.
pub fn usage_or_die(bin: &str, args: &[String]) -> seg_engine::EngineArgs {
    let (engine_args, rest) = usage_or_die_with_rest(bin, "", args);
    if let Some(extra) = rest.first() {
        eprintln!(
            "unknown flag {extra}\nusage: cargo run --release -p seg-bench --bin {bin} -- {}",
            seg_engine::ENGINE_USAGE
        );
        std::process::exit(2);
    }
    engine_args
}

/// [`usage_or_die`] for binaries with extra arguments of their own:
/// returns the unconsumed arguments for binary-specific parsing, and
/// prepends `extra_usage` to the engine flags in the usage line.
pub fn usage_or_die_with_rest(
    bin: &str,
    extra_usage: &str,
    args: &[String],
) -> (seg_engine::EngineArgs, Vec<String>) {
    let sep = if extra_usage.is_empty() { "" } else { " " };
    let usage = format!(
        "usage: cargo run --release -p seg-bench --bin {bin} -- {extra_usage}{sep}{}",
        seg_engine::ENGINE_USAGE
    );
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    match seg_engine::EngineArgs::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Runs one sweep of a harness binary through the engine, honoring the
/// unified flags (including `--checkpoint` journaling/resume and the
/// `--out` rows). `name` labels the sweep for binaries that run more than
/// one — each gets its own derived journal and rows file; single-sweep
/// binaries pass `""` to use the `--checkpoint` and `--out` paths as-is. A checkpoint that cannot be used (corrupt
/// file, changed flags) is a clean exit, not a panic.
///
/// Under `--shard I/M` the returned result would be *partial*, and the
/// analysis code after this call — positional tables, fits, bootstrap
/// CIs — assumes every point has replicas. So a shard worker's job ends
/// here: once its share of the sweep is journaled, the process exits
/// successfully instead of returning. (For binaries that run several
/// sweeps, invoke the worker again once the other shards catch up — each
/// already-complete sweep then resumes instantly from the journals and
/// the run proceeds to the next one. The final analysis/output run is
/// the same command without `--shard`.)
pub fn run_sweep(
    engine_args: &seg_engine::EngineArgs,
    name: &str,
    spec: &seg_engine::SweepSpec,
    observers: &[seg_engine::Observer],
) -> seg_engine::SweepResult {
    match engine_args.run_named(name, spec, observers) {
        Ok(result) => {
            if !result.is_complete() {
                let shard = engine_args
                    .shard
                    .expect("only --shard runs produce partial results");
                let label = if name.is_empty() { "the sweep" } else { name };
                println!(
                    "shard {shard}: {} of {} replicas of {label} journaled; run the \
                     remaining shards, then rerun without --shard to analyze",
                    result.records().len(),
                    spec.task_count(),
                );
                std::process::exit(0);
            }
            result
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Formats a float in compact scientific-ish notation for table cells.
pub fn fmt_g(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_g_ranges() {
        assert_eq!(fmt_g(0.0), "0");
        assert_eq!(fmt_g(0.5), "0.5000");
        assert!(fmt_g(1e9).contains('e'));
        assert!(fmt_g(1e-9).contains('e'));
    }
}
