//! Shared command-line flags for engine-backed binaries.
//!
//! Every harness binary that runs sweeps accepts the same flags with
//! the same defaults, so moving between experiments never means
//! relearning the interface:
//!
//! ```text
//! --threads N        worker threads        (default: all cores, capped at 8)
//! --seed S           master seed           (default: the experiment's base seed)
//! --out FILE.csv     per-replica CSV sink  (default: none — print tables only)
//! --replicas K       replicas per point    (default: experiment-specific)
//! --checkpoint FILE  journal completed replicas to FILE and resume from it
//! --shard I/M        run only shard I of M (requires --checkpoint)
//! ```
//!
//! `--out` rows append in task order as replicas finish, so the file on
//! disk is always a prefix of the finished one (see
//! [`StreamingSink`](crate::StreamingSink)).
//!
//! With `--checkpoint`, a killed sweep rerun under the same flags skips
//! every replica already journaled (see [`crate::checkpoint`]); binaries
//! that run several sweeps derive one journal and one `--out` file per
//! sweep from the flags' paths via [`EngineArgs::run_named`].
//!
//! With `--shard I/M`, the binary becomes one worker of an M-process
//! sweep: it runs only the tasks shard `I` owns, journaling them to a
//! shard journal next to the `--checkpoint` path. Run all M shards
//! (any mix of hosts sharing the checkpoint directory), then rerun the
//! same command *without* `--shard` to merge: the resume absorbs every
//! shard journal, runs any leftovers, and emits output byte-identical
//! to a single-process run. A killed shard loses only its in-flight
//! replicas: rerunning it (or the merge) picks up where its journal
//! ends.

use crate::checkpoint::CheckpointError;
use crate::observe::Observer;
use crate::run::{Engine, SweepResult};
use crate::sink::{expected_metric_columns, Sink};
use crate::spec::{ShardIndex, SweepSpec};
use seg_analysis::parallel::default_threads;
use std::path::{Path, PathBuf};

/// Derives the sibling of `path` tagged with `name`:
/// `dir/stem.ext` → `dir/stem-name.ext`. An empty `name` returns the
/// path unchanged. Binaries that run several sweeps use this one
/// derivation for both their per-sweep checkpoint journals
/// ([`EngineArgs::run_named`]) and their per-sweep sink files, so the
/// two families of outputs always correspond.
pub(crate) fn tag_path(path: &Path, name: &str, default_stem: &str, default_ext: &str) -> PathBuf {
    if name.is_empty() {
        return path.to_path_buf();
    }
    let stem = path
        .file_stem()
        .map_or_else(|| default_stem.into(), |s| s.to_string_lossy().into_owned());
    let ext = path
        .extension()
        .map_or_else(|| default_ext.into(), |e| e.to_string_lossy().into_owned());
    path.with_file_name(format!("{stem}-{name}.{ext}"))
}

/// The parsed common flags.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineArgs {
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Master seed, when given on the command line.
    pub seed: Option<u64>,
    /// Per-replica output file (`.jsonl` selects JSON Lines, anything
    /// else CSV).
    pub(crate) out: Option<PathBuf>,
    /// Replicas per point, when given on the command line.
    pub replicas: Option<u32>,
    /// Checkpoint journal for resumable sweeps.
    pub(crate) checkpoint: Option<PathBuf>,
    /// Run only one shard of the task list (`--shard I/M`), journaling
    /// to a shard journal next to the `--checkpoint` path.
    pub shard: Option<ShardIndex>,
}

impl Default for EngineArgs {
    fn default() -> Self {
        EngineArgs {
            threads: default_threads(),
            seed: None,
            out: None,
            replicas: None,
            checkpoint: None,
            shard: None,
        }
    }
}

/// Help-text fragment describing the common flags (append to a binary's
/// usage line).
pub const ENGINE_USAGE: &str = "[--threads N] [--seed S] [--out FILE.csv|FILE.jsonl] \
[--replicas K] [--checkpoint FILE.jsonl] [--shard I/M]";

impl EngineArgs {
    /// Parses the common flags out of `args`, returning the parsed flags
    /// and the arguments that were not consumed (for binary-specific
    /// parsing).
    ///
    /// `--help` is not interpreted here — it lands in the unconsumed
    /// arguments for the caller to handle (see `seg_bench::usage_or_die`).
    ///
    /// # Errors
    ///
    /// A human-readable message for a malformed value or a missing value.
    pub fn parse(args: &[String]) -> Result<(EngineArgs, Vec<String>), String> {
        let mut out = EngineArgs::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--threads" => {
                    out.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                    if out.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--seed" => {
                    out.seed = Some(
                        value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--out" => out.out = Some(PathBuf::from(value("--out")?)),
                "--checkpoint" => out.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--shard" => {
                    out.shard = Some(
                        value("--shard")?
                            .parse()
                            .map_err(|e| format!("--shard I/M: {e}"))?,
                    )
                }
                "--replicas" => {
                    let k: u32 = value("--replicas")?
                        .parse()
                        .map_err(|e| format!("--replicas: {e}"))?;
                    if k == 0 {
                        return Err("--replicas must be at least 1".into());
                    }
                    out.replicas = Some(k);
                }
                other => rest.push(other.to_string()),
            }
        }
        if out.shard.is_some() && out.checkpoint.is_none() {
            return Err(
                "--shard needs --checkpoint: the shard journals next to that path are \
                 how the shards get merged"
                    .into(),
            );
        }
        Ok((out, rest))
    }

    /// An [`Engine`] configured from these flags (progress on when a sink
    /// or checkpoint is requested, since those runs tend to be the long
    /// ones; sharded when `--shard` was given).
    pub(crate) fn engine(&self) -> Engine {
        let engine = Engine::new()
            .threads(self.threads)
            .progress(self.out.is_some() || self.checkpoint.is_some());
        match self.shard {
            Some(shard) => engine.shard(shard),
            None => engine,
        }
    }

    /// The sink `--out` selects for the sweep `name` (`.jsonl` extension
    /// selects JSON Lines, anything else CSV). A non-empty `name` tags the
    /// path the way [`EngineArgs::run_named`] tags the checkpoint
    /// (`rows.csv` → `rows-name.csv`).
    pub(crate) fn sink(&self, name: &str) -> Option<Sink> {
        self.out.as_ref().map(|p| {
            if p.extension().is_some_and(|e| e == "jsonl") {
                Sink::Jsonl(tag_path(p, name, "rows", "jsonl"))
            } else {
                Sink::Csv(tag_path(p, name, "rows", "csv"))
            }
        })
    }

    /// Runs one sweep under these flags: builds the engine; journals
    /// to/resumes from `--checkpoint`; restricts to `--shard`'s tasks
    /// (the result is then partial — see [`SweepResult::is_complete`]);
    /// appends the `--out` rows as replicas finish.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the checkpoint or the `--out` sink
    /// cannot be used (see [`Engine::run_with_checkpoint`]).
    pub fn run(
        &self,
        spec: &SweepSpec,
        observers: &[Observer],
    ) -> Result<SweepResult, CheckpointError> {
        self.run_named("", spec, observers)
    }

    /// [`EngineArgs::run`] for binaries that run several sweeps: a
    /// non-empty `name` derives a per-sweep journal from the
    /// `--checkpoint` path (`ckpt.jsonl` → `ckpt-name.jsonl`) and a
    /// per-sweep output from the `--out` path (`EngineArgs::sink`), so
    /// each sweep resumes independently and writes its own rows.
    ///
    /// The CSV header is the sweep's declared metric columns
    /// ([`expected_metric_columns`]), whatever the replicas produce. A
    /// run that finds no journal at the `--checkpoint` path writes
    /// `--out` afresh; one that resumes a journal appends after the
    /// file's last complete row. A partial (`--shard`) run writes no
    /// rows: the canonical rows come from the merge run, and a partial
    /// file at the same path would only masquerade as them.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the checkpoint or the `--out` sink
    /// cannot be used.
    pub fn run_named(
        &self,
        name: &str,
        spec: &SweepSpec,
        observers: &[Observer],
    ) -> Result<SweepResult, CheckpointError> {
        let checkpoint: Option<PathBuf> = self
            .checkpoint
            .as_ref()
            .map(|p| tag_path(p, name, "checkpoint", "jsonl"));
        let stream = self
            .sink(name)
            .filter(|_| self.shard.is_none())
            .map(|sink| {
                let columns = expected_metric_columns(spec, observers)
                    .expect("every observer declares its metric columns");
                let resume = checkpoint.as_deref().is_some_and(Path::exists);
                sink.stream(spec, &columns, resume)
                    .map_err(|source| CheckpointError::Sink {
                        path: sink.path().to_path_buf(),
                        source,
                    })
            })
            .transpose()?;
        let result =
            self.engine()
                .run_full(spec, observers, checkpoint.as_deref(), stream.as_ref())?;
        if let Some(stream) = stream {
            println!("per-replica rows written to {}", stream.path().display());
        }
        Ok(result)
    }

    /// The master seed: the command-line value, or the given default.
    pub fn master_seed(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The replica count: the command-line value, or the given default.
    pub fn replica_count(&self, default: u32) -> u32 {
        self.replicas.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_when_absent() {
        let (a, rest) = EngineArgs::parse(&[]).unwrap();
        assert_eq!(a, EngineArgs::default());
        assert!(rest.is_empty());
        assert_eq!(a.master_seed(42), 42);
        assert_eq!(a.replica_count(3), 3);
        assert!(a.sink("").is_none());
    }

    #[test]
    fn parses_all_flags_and_passes_rest_through() {
        let (a, rest) = EngineArgs::parse(&args(
            "--threads 2 --tau 0.4 --seed 9 --out x.csv --replicas 5",
        ))
        .unwrap();
        assert_eq!(a.threads, 2);
        assert_eq!(a.seed, Some(9));
        assert_eq!(a.replicas, Some(5));
        assert_eq!(rest, args("--tau 0.4"));
        assert_eq!(a.sink(""), Some(Sink::Csv(PathBuf::from("x.csv"))));
        assert_eq!(
            a.sink("alpha"),
            Some(Sink::Csv(PathBuf::from("x-alpha.csv")))
        );
    }

    #[test]
    fn jsonl_extension_selects_jsonl() {
        let (a, _) = EngineArgs::parse(&args("--out rows.jsonl")).unwrap();
        assert_eq!(a.sink(""), Some(Sink::Jsonl(PathBuf::from("rows.jsonl"))));
    }

    #[test]
    fn rejects_zero_threads_and_replicas() {
        assert!(EngineArgs::parse(&args("--threads 0")).is_err());
        assert!(EngineArgs::parse(&args("--replicas 0")).is_err());
        assert!(EngineArgs::parse(&args("--seed")).is_err());
        assert!(EngineArgs::parse(&args("--checkpoint")).is_err());
    }

    #[test]
    fn shard_parses_and_needs_checkpoint() {
        let (a, _) = EngineArgs::parse(&args("--checkpoint ck.jsonl --shard 1/3")).unwrap();
        assert_eq!(a.shard, Some(ShardIndex::new(1, 3)));
        assert!(EngineArgs::parse(&args("--shard 1/3")).is_err());
        // `--stream` is no flag of ours: it falls through to the caller,
        // whose usage error refuses it
        let (_, rest) = EngineArgs::parse(&args(
            "--checkpoint ck.jsonl --shard 0/2 --stream --out r.jsonl",
        ))
        .unwrap();
        assert_eq!(rest, args("--stream"));
        // `auto/M` is not a shard index; the error names the syntax
        let err = EngineArgs::parse(&args("--checkpoint ck.jsonl --shard auto/2")).unwrap_err();
        assert!(err.contains("--shard I/M"), "got: {err}");
    }

    #[test]
    fn checkpoint_flag_parses_and_enables_progress() {
        let (a, _) = EngineArgs::parse(&args("--checkpoint ck.jsonl")).unwrap();
        assert_eq!(a.checkpoint, Some(PathBuf::from("ck.jsonl")));
        let (b, _) = EngineArgs::parse(&[]).unwrap();
        assert!(b.checkpoint.is_none());
    }

    #[test]
    fn streamed_csv_is_byte_identical_to_buffered_csv() {
        use crate::observe::Observer;
        use crate::run::Engine;
        use crate::spec::Variant;
        let dir = std::env::temp_dir().join("seg_engine_cli_stream_csv");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // a mixed-variant sweep: the column union spans variants
        let spec = SweepSpec::builder()
            .side(24)
            .horizon(1)
            .tau(0.42)
            .variants([Variant::Paper, Variant::RingGlauber, Variant::Kawasaki])
            .replicas(2)
            .max_events(500)
            .master_seed(13)
            .build();
        let observers = [Observer::TerminalStats];
        let streamed = dir.join("rows.csv");
        let (a, _) = EngineArgs::parse(&[
            "--out".to_string(),
            streamed.to_string_lossy().into_owned(),
            "--threads".to_string(),
            "2".to_string(),
        ])
        .unwrap();
        a.run(&spec, &observers).unwrap();
        let buffered = dir.join("buffered.csv");
        let result = Engine::new().threads(1).run(&spec, &observers);
        Sink::Csv(buffered.clone()).write(&result).unwrap();
        assert_eq!(
            std::fs::read(&buffered).unwrap(),
            std::fs::read(&streamed).unwrap(),
            "streamed CSV differs from buffered CSV"
        );
    }

    #[test]
    fn streamed_csv_works_with_a_named_custom_observer() {
        use crate::observe::Observer;
        use crate::run::Engine;
        let dir = std::env::temp_dir().join("seg_engine_cli_stream_custom_named");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = SweepSpec::builder()
            .side(24)
            .horizon(1)
            .tau(0.42)
            .replicas(2)
            .max_events(500)
            .master_seed(13)
            .build();
        let make_observers = || {
            [Observer::custom_named(["zeta_score"], |task, _, _| {
                vec![("zeta_score".into(), task.replica as f64 * 0.5)]
            })]
        };
        let streamed = dir.join("rows.csv");
        let (a, _) = EngineArgs::parse(&[
            "--out".to_string(),
            streamed.to_string_lossy().into_owned(),
            "--threads".to_string(),
            "2".to_string(),
        ])
        .unwrap();
        a.run(&spec, &make_observers()).unwrap();
        let buffered = dir.join("buffered.csv");
        let result = Engine::new().threads(1).run(&spec, &make_observers());
        Sink::Csv(buffered.clone()).write(&result).unwrap();
        assert_eq!(
            std::fs::read(&buffered).unwrap(),
            std::fs::read(&streamed).unwrap(),
            "streamed CSV differs from buffered CSV"
        );
        let header = std::fs::read_to_string(&streamed).unwrap();
        assert!(
            header.lines().next().unwrap().contains("zeta_score"),
            "declared column missing from header"
        );
    }

    #[test]
    fn run_named_rows_match_across_shard_merge_and_torn_resume() {
        use crate::observe::Observer;
        let dir = std::env::temp_dir().join("seg_engine_cli_named_rows");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepSpec::builder()
            .side(24)
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(2)
            .max_events(500)
            .master_seed(21)
            .build();
        for ext in ["csv", "jsonl"] {
            let mode_dir = |mode: &str| dir.join(format!("{mode}-{ext}"));
            let run = |mode: &str, extra: &str| -> Option<Vec<u8>> {
                let out = mode_dir(mode).join(format!("rows.{ext}"));
                let mut flags = args(&format!("--threads 2 {extra} --out"));
                flags.push(out.to_string_lossy().into_owned());
                let (a, _) = EngineArgs::parse(&flags).unwrap();
                a.run_named("alpha", &spec, &[Observer::TerminalStats])
                    .unwrap();
                assert!(!out.exists(), "{mode} run wrote the untagged path");
                std::fs::read(mode_dir(mode).join(format!("rows-alpha.{ext}"))).ok()
            };
            let fresh = run("fresh", "").expect("a fresh run writes its tagged rows");
            let ck = format!(
                "--checkpoint {}",
                mode_dir("resumed").join("ck.jsonl").display()
            );
            // a shard's rows are partial: it writes none
            let shard = format!("{ck} --shard 0/2");
            assert_eq!(run("resumed", &shard), None, "a --shard run wrote rows");
            // with no journal at the checkpoint path the merge run writes
            // --out afresh, over whatever stale file is there
            let tagged = mode_dir("resumed").join(format!("rows-alpha.{ext}"));
            std::fs::write(&tagged, "stale\n").unwrap();
            assert_eq!(run("resumed", &ck), Some(fresh.clone()));
            // tear the last row, as a kill mid-append would: resuming the
            // journal appends after the last complete row
            std::fs::write(&tagged, &fresh[..fresh.len() - 5]).unwrap();
            assert_eq!(
                run("resumed", &ck),
                Some(fresh),
                "fresh and resumed .{ext} rows differ"
            );
        }
    }

    #[test]
    fn run_named_resumes_per_sweep_journals() {
        let dir = std::env::temp_dir().join("seg_engine_cli_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.jsonl");
        let _ = std::fs::remove_file(dir.join("ck-alpha.jsonl"));
        let (a, _) = EngineArgs::parse(&[
            "--checkpoint".to_string(),
            ck.to_string_lossy().into_owned(),
            "--threads".to_string(),
            "2".to_string(),
        ])
        .unwrap();
        let spec = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.4)
            .replicas(2)
            .master_seed(5)
            .build();
        let first = a.run_named("alpha", &spec, &[]).unwrap();
        assert!(dir.join("ck-alpha.jsonl").exists());
        // resumed run reads everything back from the journal
        let second = a.run_named("alpha", &spec, &[]).unwrap();
        for (x, y) in first.records().iter().zip(second.records()) {
            assert_eq!(x.events, y.events);
            assert_eq!(x.metrics, y.metrics);
        }
    }

    #[test]
    fn csv_header_is_the_declared_column_set() {
        use crate::observe::Observer;
        let dir = std::env::temp_dir().join("seg_engine_cli_declared_header");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SweepSpec::builder()
            .side(24)
            .horizon(1)
            .tau(0.42)
            .replicas(2)
            .max_events(500)
            .master_seed(13)
            .build();
        // no replica produces the declared `never`, and its column is
        // there all the same: the header depends on the flags alone
        let observers = [Observer::custom_named(
            ["never", "zeta_score"],
            |task, _, _| vec![("zeta_score".into(), task.replica as f64)],
        )];
        let out = dir.join("rows.csv");
        let mut flags = args("--threads 2 --out");
        flags.push(out.to_string_lossy().into_owned());
        let (a, _) = EngineArgs::parse(&flags).unwrap();
        a.run(&spec, &observers).unwrap();
        let columns = expected_metric_columns(&spec, &observers).unwrap();
        assert!(columns.iter().any(|c| c == "never"));
        let text = std::fs::read_to_string(&out).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            format!(
                "point,replica,seed,side,horizon,tau,density,variant,{}",
                columns.join(",")
            )
        );
    }
}
