//! `segsim` — the command-line interface to the segregation model. It has
//! three modes, `sweep`, `serve` and `work`, and every replica it runs
//! goes through [`seg_engine`]; a command line that names no mode is a
//! usage error.
//!
//! Parameter sweep (the [`seg_engine`] mode):
//!
//! ```text
//! segsim sweep --side 128,256 --horizon 2,4 --tau 0.42,0.45 [--density P,..]
//!        [--variant paper,noise:0.01,...] [--max-events N] [--snapshots DIR]
//!        [--summary FILE.csv] [--threads N] [--seed S] [--out FILE.csv] [--replicas K]
//! ```
//!
//! Expands the comma-separated axes into a grid, runs every replica on a
//! worker pool with per-replica deterministic seeding, prints per-point
//! summaries and throughput, and optionally writes per-replica rows
//! (`--out`, CSV or `.jsonl`) and per-point aggregates (`--summary`).
//! One run of the process is a one-replica sweep: `--replicas 1`
//! prints its final statistics (`--max-events 0` the initial state's)
//! and `--snapshots DIR` writes its Figure 1 frame.
//!
//! With `--shard I/M --checkpoint FILE`, one invocation is worker `I`
//! of an `M`-process sweep, journaling its share next to `FILE`; after
//! all shards ran, the same command without `--shard` merges the
//! journals and its table/`--out`/`--summary` output is
//! **byte-identical** to a single-process `segsim sweep` run.
//!
//! Simulation as a service (the [`seg_serve`] mode):
//!
//! ```text
//! segsim serve [--addr HOST:PORT] [--workers N] [--threads T]
//!        [--data DIR] [--conn-threads C] [--max-body BYTES]
//! ```
//!
//! A long-lived HTTP service over the same engine: `POST /v1/sweeps`
//! submits the JSON equivalent of `segsim sweep`'s flags, jobs are
//! cached by spec fingerprint, `GET /v1/jobs/:id/rows` streams result
//! rows (byte-identical to `segsim sweep --out`), and a killed
//! server resumes unfinished jobs from their checkpoint journals on the
//! next start. See `docs/SERVING.md`.
//!
//! Distributed serve fleet (`segsim serve --fleet`):
//!
//! ```text
//! segsim serve --fleet [--fleet-timeout SECS] ...
//! segsim work --join HOST:PORT [--threads N] [--poll-ms MS]
//! ```
//!
//! With `--fleet` the server becomes a coordinator: each job's missing
//! tasks are re-partitioned among the live `segsim work` processes, the
//! shard journals they upload merge into the job's checkpoint, and the
//! rows stay byte-identical even when workers are killed mid-job. See
//! `docs/FLEET.md`.

use self_organized_segregation::prelude::*;
use self_organized_segregation::seg_analysis::series::Table;
use self_organized_segregation::seg_engine::{
    write_summary_csv, EngineArgs, SweepResult, ENGINE_USAGE,
};
use self_organized_segregation::seg_serve::{run_worker, WorkerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

// The mode lines end in a literal newline rather than `\n\`: a `\`
// continuation would also strip the next line's indentation.
const USAGE: &str = "usage: segsim sweep --side N,.. --horizon W,.. --tau T,.. [--density P,..] \
[--variant V,..] [--max-events N] [--snapshots DIR] [--summary FILE.csv] <engine flags>
       segsim serve [--addr HOST:PORT] [--workers N] [--threads T] [--data DIR] \
[--conn-threads C] [--max-body BYTES] [--trace-out FILE.jsonl] \
[--metrics-history-out FILE.jsonl] [--alerts FILE] [--history-scrape-ms MS] \
[--api-keys FILE] [--max-queue N] [--job-ttl SECS] [--data-max-bytes BYTES] \
[--request-timeout SECS] [--fleet] [--fleet-timeout SECS]
       segsim work --join HOST:PORT [--threads N] [--poll-ms MS] \
[--metrics-addr HOST:PORT] [--trace-out FILE.jsonl]\n\
\n\
variants: paper | flip-when-unhappy | noise:EPS | kawasaki | ring-glauber | \
ring-kawasaki | two-sided:TAU_HI | multi:K\n\
\n\
`sweep` accepts the engine flags every harness binary shares; `--shard I/M` \
turns one invocation into worker I of an M-process sweep (journals merged by \
rerunning without --shard). An illegal sweep (2W+1 > N, T, P or EPS outside [0, 1], \
T > TAU_HI, K < 2) is refused before any replica runs. One run is a one-replica \
sweep: `segsim sweep ... --replicas 1` prints its final statistics (add \
--max-events 0 for the initial state) and --snapshots DIR writes its frame; \
`fig1_snapshots` draws Figure 1's frames, `exp_coarsening` the evolution over \
time and `exp_region_distribution` the monochromatic-region samples.\n\
`serve` runs the sweep engine as an HTTP service (default 127.0.0.1:8080): \
POST /v1/sweeps submits the JSON equivalent of `sweep` flags (the same \
sweeps are legal, capped at side 4096 and 1M tasks), jobs are \
cached by spec fingerprint under --data, GET /v1/jobs/ID/rows streams rows \
byte-identical to `sweep --out`, POST /v1/shutdown drains. \
--api-keys/--max-queue gate admission (429 + Retry-After when over quota \
or queue), --job-ttl/--data-max-bytes bound the cache (finished jobs are \
evicted oldest-idle first, never a running one). GET /v1/metrics/history \
serves scraped time series (persist/replay with --metrics-history-out), \
GET /alerts the state of --alerts rules. See docs/SERVING.md.\n\
`serve --fleet` turns the server into a coordinator that dispatches each \
job's tasks to `segsim work` processes and re-partitions a dead worker's \
share among the survivors; `work --join` registers with such a \
coordinator, runs claimed task shares, and uploads shard journals. The \
merged rows stay byte-identical to a single-process sweep. See docs/FLEET.md.";

/// Options of the `sweep` subcommand not covered by [`EngineArgs`].
#[derive(Clone, Debug, PartialEq)]
struct SweepOptions {
    /// The axis flags plus `--replicas`/`--seed`: the same request the
    /// serve API parses from a JSON body, built the same way.
    request: SweepRequest,
    /// The spec `request` builds.
    spec: SweepSpec,
    snapshots: Option<PathBuf>,
    summary: Option<PathBuf>,
}

fn parse_list<T: FromStr>(name: &str, raw: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    raw.split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("{name}: {e}")))
        .collect()
}

/// Parses the `sweep` flags and builds their spec, so an illegal sweep
/// is refused here, before any replica runs.
fn parse_sweep_args(args: &[String]) -> Result<(SweepOptions, EngineArgs), String> {
    let (engine_args, rest) = EngineArgs::parse(args)?;
    let mut request = SweepRequest {
        sides: Vec::new(),
        horizons: Vec::new(),
        taus: Vec::new(),
        densities: Vec::new(),
        variants: Vec::new(),
        replicas: engine_args.replica_count(1),
        seed: engine_args.master_seed(0),
        max_events: None,
    };
    let (mut snapshots, mut summary) = (None, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--side" => request.sides = parse_list("--side", value("--side")?)?,
            "--horizon" => request.horizons = parse_list("--horizon", value("--horizon")?)?,
            "--tau" => request.taus = parse_list("--tau", value("--tau")?)?,
            "--density" => request.densities = parse_list("--density", value("--density")?)?,
            "--variant" => request.variants = parse_list("--variant", value("--variant")?)?,
            "--max-events" => {
                request.max_events = Some(
                    value("--max-events")?
                        .parse()
                        .map_err(|e| format!("--max-events: {e}"))?,
                )
            }
            "--snapshots" => snapshots = Some(PathBuf::from(value("--snapshots")?)),
            "--summary" => summary = Some(PathBuf::from(value("--summary")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}\n{ENGINE_USAGE}")),
        }
    }
    let spec = request.try_build_spec()?;
    let o = SweepOptions {
        request,
        spec,
        snapshots,
        summary,
    };
    Ok((o, engine_args))
}

fn sweep_observers(o: &SweepOptions) -> Vec<Observer> {
    let mut observers = vec![Observer::TerminalStats];
    if let Some(dir) = &o.snapshots {
        observers.push(Observer::Snapshot { dir: dir.clone() });
    }
    observers
}

fn print_point_table(spec: &SweepSpec, result: &SweepResult) {
    let mut table = Table::new(vec![
        "side".into(),
        "w".into(),
        "tau".into(),
        "p".into(),
        "variant".into(),
        "events".into(),
        "unhappy".into(),
        "largest cluster".into(),
    ]);
    for (i, point) in spec.points().iter().enumerate() {
        let mean = |m: &str| {
            result
                .point_mean(i, m)
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
        };
        table.push_row(vec![
            point.side.to_string(),
            point.horizon.to_string(),
            format!("{:.3}", point.tau),
            format!("{:.2}", point.density),
            point.variant.label(),
            mean("events"),
            mean("unhappy"),
            mean("largest_cluster"),
        ]);
    }
    println!("{}", table.render());
}

fn write_summary(o: &SweepOptions, result: &SweepResult) -> Result<(), String> {
    if let Some(path) = &o.summary {
        let names = result.metric_names();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        write_summary_csv(path, result, &names)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("per-point summary written to {}", path.display());
    }
    Ok(())
}

/// Why a mode stopped: its flags were refused (a usage error, exit 2,
/// as in the harness binaries) or its run failed (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

fn run_sweep(args: &[String]) -> Result<(), Failure> {
    let (o, engine_args) = parse_sweep_args(args).map_err(Failure::Usage)?;
    let spec = &o.spec;
    let observers = sweep_observers(&o);
    println!(
        "sweep: {} points × {} replicas = {} runs on {} threads (master seed {:#x})",
        spec.points().len(),
        spec.replicas(),
        spec.task_count(),
        engine_args.threads,
        spec.master_seed(),
    );
    let result = engine_args
        .run(spec, &observers)
        .map_err(|e| Failure::Run(e.to_string()))?;
    print_point_table(spec, &result);

    let t = result.throughput();
    println!(
        "throughput: {:.2} replicas/s, {:.3e} events/s on {} threads ({:.2}s wall)",
        t.replicas_per_sec, t.events_per_sec, t.threads, t.wall_secs
    );
    if !result.is_complete() {
        let shard = engine_args
            .shard
            .expect("partial results only from --shard");
        println!(
            "shard {shard}: partial result ({} of {} tasks journaled); run the other \
             shards, then rerun without --shard to merge",
            result.records().len(),
            spec.task_count(),
        );
        return Ok(()); // a per-shard summary would be partial; skip it
    }
    write_summary(&o, &result).map_err(Failure::Run)
}

/// Parses the `serve` subcommand flags into a [`ServeConfig`].
fn parse_serve_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if config.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--threads" => {
                config.engine_threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--data" => config.data_dir = PathBuf::from(value("--data")?),
            "--conn-threads" => {
                config.conn_threads = value("--conn-threads")?
                    .parse()
                    .map_err(|e| format!("--conn-threads: {e}"))?;
                if config.conn_threads == 0 {
                    return Err("--conn-threads must be at least 1".into());
                }
            }
            "--max-body" => {
                config.max_body = value("--max-body")?
                    .parse()
                    .map_err(|e| format!("--max-body: {e}"))?
            }
            "--trace-out" => config.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-history-out" => {
                config.metrics_history_out = Some(PathBuf::from(value("--metrics-history-out")?))
            }
            "--alerts" => config.alerts = Some(PathBuf::from(value("--alerts")?)),
            "--history-scrape-ms" => {
                let ms: u64 = value("--history-scrape-ms")?
                    .parse()
                    .map_err(|e| format!("--history-scrape-ms: {e}"))?;
                if ms == 0 {
                    return Err("--history-scrape-ms must be at least 1".into());
                }
                config.history_scrape = std::time::Duration::from_millis(ms);
            }
            "--fleet" => config.fleet = true,
            "--fleet-timeout" => {
                let secs: f64 = value("--fleet-timeout")?
                    .parse()
                    .map_err(|e| format!("--fleet-timeout: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--fleet-timeout must be positive".into());
                }
                config.fleet_timeout = std::time::Duration::from_secs_f64(secs);
            }
            "--api-keys" => config.api_keys = Some(PathBuf::from(value("--api-keys")?)),
            "--max-queue" => {
                config.max_queue = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?;
                if config.max_queue == 0 {
                    return Err("--max-queue must be at least 1".into());
                }
            }
            "--job-ttl" => {
                let secs: f64 = value("--job-ttl")?
                    .parse()
                    .map_err(|e| format!("--job-ttl: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--job-ttl must be positive".into());
                }
                config.job_ttl = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--data-max-bytes" => {
                let bytes: u64 = value("--data-max-bytes")?
                    .parse()
                    .map_err(|e| format!("--data-max-bytes: {e}"))?;
                if bytes == 0 {
                    return Err("--data-max-bytes must be at least 1".into());
                }
                config.data_max_bytes = Some(bytes);
            }
            "--request-timeout" => {
                let secs: f64 = value("--request-timeout")?
                    .parse()
                    .map_err(|e| format!("--request-timeout: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--request-timeout must be positive".into());
                }
                config.request_timeout = std::time::Duration::from_secs_f64(secs);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if !config.fleet && config.fleet_timeout != ServeConfig::default().fleet_timeout {
        return Err("--fleet-timeout only makes sense with --fleet".into());
    }
    Ok(config)
}

/// Parses the `serve` subcommand flags and runs the service until it is
/// drained via `POST /v1/shutdown`.
fn run_serve(args: &[String]) -> Result<(), Failure> {
    let config = parse_serve_args(args).map_err(Failure::Usage)?;
    serve(config).map_err(|e| Failure::Run(format!("serve: {e}")))
}

/// Parses the `work` subcommand flags and joins a fleet coordinator.
fn run_work(args: &[String]) -> Result<(), Failure> {
    let config = parse_work_args(args).map_err(Failure::Usage)?;
    run_worker(&config).map_err(|e| Failure::Run(format!("work: {e}")))
}

/// Parses the `work` subcommand flags into a [`WorkerConfig`].
fn parse_work_args(args: &[String]) -> Result<WorkerConfig, String> {
    let mut join: Option<String> = None;
    let mut config = WorkerConfig::new(String::new());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--join" => join = Some(value("--join")?.clone()),
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--poll-ms" => {
                let ms: u64 = value("--poll-ms")?
                    .parse()
                    .map_err(|e| format!("--poll-ms: {e}"))?;
                if ms == 0 {
                    return Err("--poll-ms must be at least 1".into());
                }
                config.poll = std::time::Duration::from_millis(ms);
            }
            "--metrics-addr" => config.metrics_addr = Some(value("--metrics-addr")?.clone()),
            "--trace-out" => config.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            // undocumented on purpose: fault injection for the fleet
            // integration tests (claim, then hang without heartbeats)
            "--fault" => match value("--fault")?.as_str() {
                "hang" => config.fault_hang = true,
                other => return Err(format!("unknown fault {other:?} (supported: hang)")),
            },
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    config.coordinator =
        join.ok_or_else(|| format!("work mode needs --join HOST:PORT\n{USAGE}"))?;
    Ok(config)
}

/// A mode's entry point, given the arguments after the mode word.
type Mode = fn(&[String]) -> Result<(), Failure>;

/// The mode the first argument names. Any other first argument, or
/// none, is refused with the usage, which says how `segsim sweep` runs
/// one replica and which harness binaries draw its frames, its
/// evolution and its region samples.
fn select_mode(args: &[String]) -> Result<Mode, String> {
    match args.first().map(String::as_str) {
        Some("sweep") => Ok(run_sweep),
        Some("serve") => Ok(run_serve),
        Some("work") => Ok(run_work),
        Some(word) if !word.starts_with('-') => Err(format!("unknown mode {word}\n{USAGE}")),
        _ => Err(format!(
            "segsim needs a mode: sweep, serve or work\n{USAGE}"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\nengine flags: {ENGINE_USAGE}");
        return ExitCode::SUCCESS;
    }
    let run = select_mode(&args).map_err(Failure::Usage);
    match run.and_then(|run| run(&args[1..])) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    /// With no flags there is no default run: the refusal names the
    /// engine-backed commands for one replica, its frames, its evolution
    /// and its region samples.
    #[test]
    fn defaults_when_no_flags() {
        let err = select_mode(&[]).expect_err("no mode is refused");
        for home in [
            "segsim sweep",
            "--replicas 1",
            "--max-events 0",
            "--snapshots DIR",
            "fig1_snapshots",
            "exp_coarsening",
            "exp_region_distribution",
        ] {
            assert!(err.contains(home), "{home} missing from:\n{err}");
        }
    }

    /// A flag where the mode word belongs is refused, whether or not a
    /// mode accepts it.
    #[test]
    fn rejects_unknown_flag() {
        for line in [
            "--bogus 1",
            "--side 16 --horizon 1 --tau 0.45",
            "--trace t.csv",
        ] {
            let err = select_mode(&args(line)).expect_err(line);
            assert!(
                err.starts_with("segsim needs a mode: sweep, serve or work\nusage: segsim sweep"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn rejects_missing_value() {
        for line in ["--side", "--side 16 --horizon 1 --tau 0.45 --max-events"] {
            let err = parse_sweep_args(&args(line)).unwrap_err();
            assert!(err.contains("needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_oversized_horizon() {
        let err = parse_sweep_args(&args("--side 9 --horizon 5 --tau 0.4")).unwrap_err();
        assert!(err.contains("window diameter"), "{err}");
    }

    #[test]
    fn rejects_bad_tau() {
        for line in [
            "--side 32 --horizon 1 --tau 1.5",
            "--side 32 --horizon 1 --tau NaN",
        ] {
            let err = parse_sweep_args(&args(line)).unwrap_err();
            assert!(err.contains("tau"), "{line}: {err}");
        }
    }

    #[test]
    fn sweep_parses_lists_and_engine_flags() {
        let (o, e) = parse_sweep_args(&args(
            "--side 64,128 --horizon 2 --tau 0.4,0.45 --variant paper,noise:0.01 \
             --max-events 500 --threads 3 --seed 9 --replicas 4",
        ))
        .unwrap();
        assert_eq!(o.request.sides, vec![64, 128]);
        assert_eq!(o.request.taus, vec![0.4, 0.45]);
        assert_eq!(
            o.request.variants,
            vec![Variant::Paper, Variant::Noise(0.01)]
        );
        assert_eq!(o.request.max_events, Some(500));
        assert_eq!(e.threads, 3);
        assert_eq!(e.seed, Some(9));
        assert_eq!(e.replicas, Some(4));
    }

    #[test]
    fn sweep_requires_the_three_axes() {
        assert!(parse_sweep_args(&args("--side 64 --horizon 2")).is_err());
    }

    /// Illegal sweeps are refused by the parse, before any replica runs,
    /// with a message naming the broken rule.
    #[test]
    fn sweep_refuses_illegal_points_before_running() {
        for (line, needle) in [
            (
                "--side 32 --horizon 1 --tau 0.45 --variant two-sided:0.3",
                "two-sided",
            ),
            (
                "--side 32 --horizon 1 --tau 0.45 --variant two-sided:NaN",
                "two-sided",
            ),
            (
                "--side 32 --horizon 1 --tau 0.45 --variant noise:2",
                "noise",
            ),
            (
                "--side 16 --horizon 2147483648 --tau 0.45",
                "window diameter",
            ),
            ("--side 32 --horizon 1 --tau 0.45 --density NaN", "density"),
        ] {
            let err = parse_sweep_args(&args(line)).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// The CLI and the serve API map equal parameters to one spec
    /// fingerprint, and refuse the same illegal sweeps. Sides stay
    /// within the service's caps, which the CLI does not apply.
    #[test]
    fn sweep_flags_and_request_json_build_the_same_spec() {
        use self_organized_segregation::seg_engine::spec_fingerprint;
        use self_organized_segregation::seg_serve::Json;
        let mut built = 0;
        for (flags, body) in [
            (
                "--side 32 --horizon 1 --tau 0.4",
                r#"{"side": 32, "horizon": 1, "tau": 0.4}"#,
            ),
            (
                "--side 32,48 --horizon 1,2 --tau 0.42,0.45 --density 0.4,0.5 \
                 --variant paper,noise:0.01,two-sided:0.9,multi:3,kawasaki \
                 --replicas 3 --seed 9 --max-events 500",
                r#"{"side": [32, 48], "horizon": [1, 2], "tau": [0.42, 0.45],
                    "density": [0.4, 0.5],
                    "variant": ["paper", "noise:0.01", "two-sided:0.9", "multi:3", "kawasaki"],
                    "replicas": 3, "seed": 9, "max_events": 500}"#,
            ),
            (
                "--side 64 --horizon 3 --tau 0.3 --variant ring-glauber,ring-kawasaki --seed 0",
                r#"{"side": 64, "horizon": 3, "tau": 0.3,
                    "variant": ["ring-glauber", "ring-kawasaki"], "seed": 0}"#,
            ),
            (
                "--side 16 --horizon 7 --tau 0,1 --density 0,1 --variant noise:1,noise:0",
                r#"{"side": 16, "horizon": 7, "tau": [0, 1], "density": [0, 1],
                    "variant": ["noise:1", "noise:0"]}"#,
            ),
            // refused by both
            (
                "--side 32 --horizon 1 --tau 0.45 --variant two-sided:0.3",
                r#"{"side": 32, "horizon": 1, "tau": 0.45, "variant": "two-sided:0.3"}"#,
            ),
            (
                "--side 32 --horizon 1 --tau 0.45 --variant noise:2",
                r#"{"side": 32, "horizon": 1, "tau": 0.45, "variant": "noise:2"}"#,
            ),
            (
                "--side 16 --horizon 2147483648 --tau 0.45",
                r#"{"side": 16, "horizon": 2147483648, "tau": 0.45}"#,
            ),
            (
                "--side 16 --horizon 8 --tau 0.45",
                r#"{"side": 16, "horizon": 8, "tau": 0.45}"#,
            ),
            (
                "--side 0 --horizon 0 --tau 0.45",
                r#"{"side": 0, "horizon": 0, "tau": 0.45}"#,
            ),
            (
                "--side 32 --horizon 1 --tau 1.5",
                r#"{"side": 32, "horizon": 1, "tau": 1.5}"#,
            ),
            (
                "--side 32 --horizon 1 --tau 0.4 --density -0.1",
                r#"{"side": 32, "horizon": 1, "tau": 0.4, "density": -0.1}"#,
            ),
            (
                "--side 32 --horizon 1 --tau 0.4 --variant multi:1",
                r#"{"side": 32, "horizon": 1, "tau": 0.4, "variant": "multi:1"}"#,
            ),
            ("--side 32 --horizon 1", r#"{"side": 32, "horizon": 1}"#),
            ("", "{}"),
        ] {
            let cli = parse_sweep_args(&args(flags)).map(|(o, _)| spec_fingerprint(&o.spec));
            let api = SweepRequest::from_json(&Json::parse(body).unwrap())
                .map(|r| spec_fingerprint(&r.build_spec()));
            match (&cli, &api) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{flags}");
                    built += 1;
                }
                (Err(_), Err(_)) => {}
                _ => panic!("{flags}: CLI {cli:?} but API {api:?}"),
            }
        }
        assert_eq!(built, 4, "the four legal sweeps must build");
    }

    /// `shard` is not a mode: with or without `--workers`, and with a
    /// nested `--shard`, it is a usage error rather than a run.
    #[test]
    fn shard_mode_requires_workers_and_rejects_nested_shard() {
        for line in [
            "shard --side 32 --horizon 1 --tau 0.4",
            "shard --workers 2 --side 32 --horizon 1 --tau 0.4",
            "shard --workers 2 --side 32 --horizon 1 --tau 0.4 --shard 0/2 --checkpoint c.jsonl",
        ] {
            let err = select_mode(&args(line)).expect_err(line);
            assert!(
                err.starts_with("unknown mode shard\nusage:"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn sweep_rejects_unknown_variant() {
        assert!(
            parse_sweep_args(&args("--side 64 --horizon 2 --tau 0.4 --variant bogus")).is_err()
        );
    }

    #[test]
    fn serve_parses_the_hardening_flags() {
        let c = parse_serve_args(&args(
            "--addr 127.0.0.1:0 --workers 3 --api-keys keys.txt --max-queue 16 \
             --job-ttl 3600 --data-max-bytes 1048576 --request-timeout 10",
        ))
        .unwrap();
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.workers, 3);
        assert_eq!(c.api_keys, Some(PathBuf::from("keys.txt")));
        assert_eq!(c.max_queue, 16);
        assert_eq!(c.job_ttl, Some(std::time::Duration::from_secs(3600)));
        assert_eq!(c.data_max_bytes, Some(1_048_576));
        assert_eq!(c.request_timeout, std::time::Duration::from_secs(10));
    }

    #[test]
    fn serve_defaults_leave_hardening_off() {
        let c = parse_serve_args(&[]).unwrap();
        assert_eq!(c.api_keys, None);
        assert_eq!(c.job_ttl, None);
        assert_eq!(c.data_max_bytes, None);
    }

    #[test]
    fn serve_rejects_degenerate_hardening_values() {
        assert!(parse_serve_args(&args("--max-queue 0")).is_err());
        assert!(parse_serve_args(&args("--data-max-bytes 0")).is_err());
        assert!(parse_serve_args(&args("--job-ttl -1")).is_err());
        assert!(parse_serve_args(&args("--request-timeout 0")).is_err());
        assert!(parse_serve_args(&args("--fleet-timeout 2")).is_err());
    }
}
