//! The engine: schedules a sweep's replicas across worker threads and
//! aggregates the results.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::observe::Observer;
use crate::replica::{run_replica, PhaseTimes, ReplicaRecord};
use crate::sink::StreamingSink;
use crate::spec::{ShardIndex, SweepPoint, SweepSpec};
use seg_analysis::bootstrap::{bootstrap_mean_ci, BootstrapCi};
use seg_analysis::parallel::{default_threads, parallel_map_halting};
use seg_analysis::stats::Summary;
use seg_grid::rng::Xoshiro256pp;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A live progress sample of a running sweep, delivered to
/// [`Engine::on_progress`] each time a replica completes.
///
/// `done` counts every record the run holds so far (resumed ones
/// included); `total` is what `done` reaches when this run finishes (the
/// whole sweep, or just the owned share of a [shard](Engine::shard)
/// run). The rates cover the *fresh* work of this run only — resumed
/// records cost no wall time, so they are excluded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepProgress {
    /// Records available so far (resumed + freshly completed).
    pub done: usize,
    /// Records this run will hold when it finishes.
    pub total: usize,
    /// Records that were resumed from a checkpoint (never re-run).
    pub resumed: usize,
    /// Wall-clock seconds since the run started.
    pub wall_secs: f64,
    /// Freshly completed replicas per wall-clock second.
    pub replicas_per_sec: f64,
    /// Effective dynamics events (flips/swaps) per wall-clock second.
    pub events_per_sec: f64,
}

impl SweepProgress {
    /// The stderr progress line for this sample — the single formatting
    /// path behind [`Engine::progress`], kept as a method so services
    /// rendering their own progress match the CLI byte for byte.
    pub(crate) fn stderr_line(&self) -> String {
        format!(
            "sweep: {}/{} replicas  ({:.1} replicas/s, {:.2e} events/s)",
            self.done, self.total, self.replicas_per_sec, self.events_per_sec
        )
    }
}

/// A progress callback: called on whichever worker thread finished the
/// replica, so it must be cheap and thread-safe.
pub(crate) type ProgressFn = dyn Fn(SweepProgress) + Send + Sync;

/// Handles into the process-wide [`seg_obs`] registry, registered once
/// per run and bumped from the per-replica completion hook. The hook
/// runs once per *replica* (not per dynamics event), so the cost is a
/// few atomic adds well outside the kernel hot loop.
struct EngineMetrics {
    replicas: Arc<seg_obs::Counter>,
    events: Arc<seg_obs::Counter>,
    checkpoint_writes: Arc<seg_obs::Counter>,
    replicas_per_sec: Arc<seg_obs::Gauge>,
    events_per_sec: Arc<seg_obs::Gauge>,
    /// `engine_phase_nanoseconds_total{phase}` for setup, dynamics,
    /// observers and persist, in that order.
    phases: [Arc<seg_obs::Counter>; 4],
}

impl EngineMetrics {
    fn register() -> Self {
        let m = seg_obs::metrics();
        m.counter(
            "engine_sweeps_started_total",
            "sweep runs started by this process",
            &[],
        )
        .inc();
        EngineMetrics {
            replicas: m.counter(
                "engine_replicas_total",
                "replicas completed (fresh work only, resumed records excluded)",
                &[],
            ),
            events: m.counter(
                "engine_events_total",
                "effective dynamics events (flips/swaps) simulated",
                &[],
            ),
            checkpoint_writes: m.counter(
                "engine_checkpoint_writes_total",
                "replica records appended to checkpoint journals",
                &[],
            ),
            replicas_per_sec: m.gauge(
                "engine_replicas_per_sec",
                "fresh replicas per second of the most recent progress sample",
                &[],
            ),
            events_per_sec: m.gauge(
                "engine_events_per_sec",
                "dynamics events per second of the most recent progress sample",
                &[],
            ),
            phases: ["setup", "dynamics", "observers", "persist"].map(|phase| {
                m.counter(
                    "engine_phase_nanoseconds_total",
                    "wall time replicas spent per phase, summed over worker threads",
                    &[("phase", phase)],
                )
            }),
        }
    }

    /// Adds one replica's phase times, and the time its journal line
    /// and row took to persist.
    fn add_phases(&self, times: &PhaseTimes, persist: Duration) {
        let nanos = [
            times.setup,
            times.dynamics,
            times.observers,
            persist.as_nanos() as u64,
        ];
        for (counter, n) in self.phases.iter().zip(nanos) {
            counter.add(n);
        }
    }

    fn observe(&self, sample: &SweepProgress, replica_events: u64) {
        self.replicas.inc();
        self.events.add(replica_events);
        self.replicas_per_sec.set(sample.replicas_per_sec);
        self.events_per_sec.set(sample.events_per_sec);
    }
}

/// Which of a sweep's tasks an [`Engine`] runs, when not all of them.
#[derive(Clone, Debug)]
enum Selection {
    /// One static shard's round-robin share ([`Engine::shard`]).
    Shard(ShardIndex),
    /// Explicit task indices, sorted and deduplicated
    /// ([`Engine::task_subset`]).
    Tasks(Arc<Vec<usize>>),
}

impl Selection {
    fn selects(&self, task: usize) -> bool {
        match self {
            Selection::Shard(s) => s.owns(task),
            Selection::Tasks(t) => t.binary_search(&task).is_ok(),
        }
    }
}

/// Runs [`SweepSpec`]s on a worker pool.
///
/// Replicas are distributed dynamically (each idle worker claims the next
/// task), so long and short replicas share the pool without static
/// imbalance. Because every replica's RNG stream derives from its indices
/// (see [`crate::spec::derive_replica_seed`]), the result records are
/// identical at any thread count — only the wall clock changes.
///
/// # Example
///
/// ```
/// use seg_engine::{Engine, SweepSpec};
/// let spec = SweepSpec::builder()
///     .side(32)
///     .horizon(1)
///     .taus([0.40, 0.45])
///     .replicas(2)
///     .master_seed(7)
///     .build();
/// let result = Engine::new().threads(2).run(&spec, &[]);
/// assert_eq!(result.records().len(), 4);
/// ```
#[derive(Clone)]
pub struct Engine {
    threads: usize,
    progress: bool,
    selection: Option<Selection>,
    on_progress: Option<Arc<ProgressFn>>,
    cancel: Option<Arc<AtomicBool>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("progress", &self.progress)
            .field("selection", &self.selection)
            .field("on_progress", &self.on_progress.as_ref().map(|_| ".."))
            .field("cancel", &self.cancel)
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine using the default worker count
    /// ([`seg_analysis::parallel::default_threads`]) and no progress
    /// output.
    pub fn new() -> Self {
        Engine {
            threads: default_threads(),
            progress: false,
            selection: None,
            on_progress: None,
            cancel: None,
        }
    }

    /// Sets the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Enables live progress lines on stderr (replicas done, replicas/s,
    /// events/s).
    pub fn progress(mut self, enabled: bool) -> Self {
        self.progress = enabled;
        self
    }

    /// Installs a live progress callback: `f` receives a
    /// [`SweepProgress`] sample each time a replica completes, on the
    /// worker thread that ran it. This is the programmatic counterpart
    /// of [`Engine::progress`]'s stderr lines — services and dashboards
    /// read live replicas/s here instead of parsing output. The callback
    /// must be cheap; heavy consumers should copy the sample out and
    /// return.
    pub fn on_progress<F>(mut self, f: F) -> Self
    where
        F: Fn(SweepProgress) + Send + Sync + 'static,
    {
        self.on_progress = Some(Arc::new(f));
        self
    }

    /// Installs a cooperative cancellation flag. Once the flag turns
    /// `true`, workers stop claiming new replicas; replicas already in
    /// flight finish normally and are journaled/streamed like any other.
    /// The run then returns a *partial* [`SweepResult`]
    /// ([`SweepResult::is_complete`] is `false`) — with a checkpoint,
    /// rerunning the same spec resumes exactly where the cancel cut in.
    /// This is the graceful-shutdown building block `segsim serve`
    /// drains with.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Restricts the engine to one shard of the task list (round-robin
    /// by task index, see [`ShardIndex`]): only owned tasks run, and the
    /// result is *partial* ([`SweepResult::is_complete`] is `false`
    /// unless the other shards' records were resumed from journals).
    /// This is the `--shard i/M` building block for multi-process
    /// sweeps; pair it with a checkpoint so the shards can be merged.
    /// Replaces any earlier [`Engine::task_subset`]: the last call wins.
    pub fn shard(mut self, shard: ShardIndex) -> Self {
        self.selection = Some(Selection::Shard(shard));
        self
    }

    /// Restricts the engine to an *explicit* set of task indices — the
    /// dynamic counterpart of [`Engine::shard`]'s round-robin split.
    /// Fleet workers run exactly the indices a coordinator assigned
    /// (typically a re-partition of a job's missing set, see
    /// `seg_shard::repartition`), and the result is partial unless the
    /// subset covers every task. Indices are sorted and deduplicated;
    /// out-of-range indices simply never match a task. Replaces any
    /// earlier [`Engine::shard`]: the last call wins.
    pub fn task_subset<I: IntoIterator<Item = usize>>(mut self, tasks: I) -> Self {
        let mut v: Vec<usize> = tasks.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        self.selection = Some(Selection::Tasks(Arc::new(v)));
        self
    }

    /// Whether this engine runs task `i` (every task without a selection).
    fn selects(&self, i: usize) -> bool {
        self.selection.as_ref().is_none_or(|s| s.selects(i))
    }

    /// The static shard this engine runs, if [`Engine::shard`] chose one.
    fn static_shard(&self) -> Option<ShardIndex> {
        match self.selection {
            Some(Selection::Shard(s)) => Some(s),
            _ => None,
        }
    }

    /// Runs every replica of the sweep, applying `observers` to each.
    ///
    /// # Panics
    ///
    /// Panics if an observer's output fails ([`Engine::run_full`]
    /// returns that failure instead).
    pub fn run(&self, spec: &SweepSpec, observers: &[Observer]) -> SweepResult {
        self.run_inner(spec, observers, Vec::new(), None, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Engine::run`], journaling every completed replica to the
    /// checkpoint at `path` and skipping the replicas already recorded
    /// there. A sweep killed mid-run resumes where it left off, and the
    /// merged result is bit-identical to an uninterrupted run.
    ///
    /// With a [shard](Engine::shard) configured, `path` is the *base*
    /// journal: this worker appends to its own
    /// [`shard_journal_path`](crate::checkpoint::shard_journal_path)
    /// next to it, absorbing the base and every sibling shard journal
    /// read-only. Without a shard, any sibling shard journals are
    /// absorbed too — which makes an unsharded resume the merge step of
    /// a sharded run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when a journal is corrupt, belongs to a
    /// different spec, or cannot be read — the run does not start.
    /// [`CheckpointError::Io`] when appending to the journal or an
    /// observer's output fails mid-sweep: a sweep that cannot persist
    /// its results is a failed experiment, and no further replica
    /// starts.
    pub fn run_with_checkpoint(
        &self,
        spec: &SweepSpec,
        observers: &[Observer],
        path: &Path,
    ) -> Result<SweepResult, CheckpointError> {
        self.run_full(spec, observers, Some(path), None)
    }

    /// The general entry point all the `run*` conveniences delegate to:
    /// optional checkpoint journaling/resume and an optional
    /// [`StreamingSink`] that receives every record (resumed ones
    /// included) in task order as soon as it is available.
    ///
    /// A streaming sink cannot be combined with a [shard](Engine::shard)
    /// or [subset](Engine::task_subset) run that leaves tasks out: the
    /// sink releases rows strictly in task order, and such a run never
    /// completes the tasks in between, so nearly every row would be
    /// parked forever. The combination is rejected up front.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when a journal cannot be used (see
    /// [`Engine::run_with_checkpoint`]), or [`CheckpointError::Sink`]
    /// for the partial run + stream combination and when appending to
    /// the streaming sink fails, [`CheckpointError::Io`] when appending
    /// to the journal or an observer's output fails. A failure mid-sweep
    /// starts no further replica, and the first one is returned.
    pub fn run_full(
        &self,
        spec: &SweepSpec,
        observers: &[Observer],
        checkpoint: Option<&Path>,
        stream: Option<&StreamingSink>,
    ) -> Result<SweepResult, CheckpointError> {
        if let Some(stream) = stream {
            let total = spec.task_count();
            let selected = (0..total).filter(|&i| self.selects(i)).count();
            if selected < total {
                return Err(CheckpointError::Sink {
                    path: stream.path().to_path_buf(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!(
                            "streaming releases rows in task order, which {selected} of \
                             {total} tasks alone never complete; stream the merge run instead"
                        ),
                    ),
                });
            }
        }
        match checkpoint {
            None => self.run_inner(spec, observers, Vec::new(), None, stream),
            Some(path) => {
                let (completed, journal) =
                    Checkpoint::resume_sharded(path, spec, self.static_shard())?;
                let resumed = completed.iter().flatten().count();
                if self.progress && resumed > 0 {
                    eprintln!(
                        "sweep: resuming from {} ({resumed}/{} replicas already done)",
                        path.display(),
                        spec.task_count()
                    );
                }
                self.run_inner(spec, observers, completed, Some(&journal), stream)
            }
        }
    }

    fn run_inner(
        &self,
        spec: &SweepSpec,
        observers: &[Observer],
        completed: Vec<Option<ReplicaRecord>>,
        journal: Option<&Checkpoint>,
        stream: Option<&StreamingSink>,
    ) -> Result<SweepResult, CheckpointError> {
        let sink_error = |stream: &StreamingSink, source| CheckpointError::Sink {
            path: stream.path().to_path_buf(),
            source,
        };
        let tasks = spec.tasks();
        let total = tasks.len();
        let mut slots = if completed.is_empty() {
            vec![None; total]
        } else {
            completed
        };
        if let Some(stream) = stream {
            // resumed records stream out immediately (in task order; the
            // sink skips whatever an earlier run already wrote)
            for rec in slots.iter().flatten() {
                stream.append(rec).map_err(|e| sink_error(stream, e))?;
            }
        }
        let pending: Vec<usize> = (0..total)
            .filter(|&i| slots[i].is_none() && self.selects(i))
            .collect();
        if self.progress {
            if let Some(shard) = self.static_shard() {
                eprintln!(
                    "sweep: shard {shard} owns {} of {total} tasks ({} still to run)",
                    shard.task_count(total),
                    pending.len()
                );
            }
        }
        let started = Instant::now();
        let initial = slots.iter().flatten().count();
        let target = initial + pending.len();
        let done = AtomicUsize::new(initial);
        let events = AtomicU64::new(0);
        let last_print = Mutex::new(Instant::now());
        let obs = EngineMetrics::register();
        let failed = OnceLock::new();
        let fresh = parallel_map_halting(
            pending.len(),
            self.threads,
            |i| match run_replica(&tasks[pending[i]], observers) {
                Ok(done) => Some(done),
                Err(e) => {
                    let _ = failed.set(CheckpointError::Io(e));
                    None
                }
            },
            |_, ran: &Option<(ReplicaRecord, PhaseTimes)>| {
                let Some((rec, times)) = ran else {
                    return;
                };
                let persist = Instant::now();
                if let Some(journal) = journal {
                    if let Err(e) = journal.append(rec) {
                        let _ = failed.set(CheckpointError::Io(e));
                        return;
                    }
                    obs.checkpoint_writes.inc();
                }
                if let Some(stream) = stream {
                    if let Err(e) = stream.append(rec) {
                        let _ = failed.set(sink_error(stream, e));
                    }
                }
                obs.add_phases(times, persist.elapsed());
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                let e = events.fetch_add(rec.events, Ordering::Relaxed) + rec.events;
                let secs = started.elapsed().as_secs_f64().max(1e-9);
                let sample = SweepProgress {
                    done: d,
                    total: target,
                    resumed: initial,
                    wall_secs: secs,
                    replicas_per_sec: (d - initial) as f64 / secs,
                    events_per_sec: e as f64 / secs,
                };
                obs.observe(&sample, rec.events);
                if let Some(cb) = &self.on_progress {
                    cb(sample);
                }
                if self.progress {
                    let mut last = last_print.lock().expect("progress lock");
                    if d == target || last.elapsed().as_millis() >= 500 {
                        *last = Instant::now();
                        eprintln!("{}", sample.stderr_line());
                    }
                }
            },
            || {
                failed.get().is_some()
                    || self
                        .cancel
                        .as_ref()
                        .is_some_and(|c| c.load(Ordering::Relaxed))
            },
        );
        if let Some(e) = failed.into_inner() {
            return Err(e);
        }
        for (slot, ran) in pending.into_iter().zip(fresh) {
            slots[slot] = ran.flatten().map(|(rec, _)| rec);
        }
        Ok(SweepResult {
            spec: spec.clone(),
            records: slots.into_iter().flatten().collect(),
            total_tasks: total,
            threads: self.threads,
            wall_secs: started.elapsed().as_secs_f64(),
        })
    }
}

/// Replica-throughput figures for a finished sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputReport {
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Replicas finished per wall-clock second.
    pub replicas_per_sec: f64,
    /// Effective dynamics events (flips/swaps) per wall-clock second.
    pub events_per_sec: f64,
}

/// Per-point aggregate of one metric across replicas.
#[derive(Clone, Debug)]
pub struct PointSummary {
    /// Index of the point in the spec.
    pub point_index: usize,
    /// The parameters.
    pub point: SweepPoint,
    /// Summary statistics of the metric over the point's replicas.
    pub summary: Summary,
}

/// All records of a finished sweep, in task order.
///
/// A run restricted to one [shard](Engine::shard), or stopped early via
/// [`Engine::cancel_flag`], yields a *partial* result: only the records
/// that ran (or were resumed from journals) are present, still in task
/// order. [`SweepResult::is_complete`] says whether every task of the
/// spec has a record; aggregation methods operate on whatever is
/// present.
#[derive(Clone, Debug)]
pub struct SweepResult {
    spec: SweepSpec,
    records: Vec<ReplicaRecord>,
    total_tasks: usize,
    threads: usize,
    wall_secs: f64,
}

impl SweepResult {
    /// The spec this result answers.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Every available replica record, ordered by task index
    /// (point-major). Complete runs have one per task; shard runs only
    /// the shard's share (plus whatever was resumed).
    pub fn records(&self) -> &[ReplicaRecord] {
        &self.records
    }

    /// Whether every task of the spec has a record (always true outside
    /// shard and cancelled runs).
    pub fn is_complete(&self) -> bool {
        self.records.len() == self.total_tasks
    }

    /// How many of the spec's tasks have no record yet (0 outside shard
    /// and cancelled runs).
    pub(crate) fn missing_tasks(&self) -> usize {
        self.total_tasks - self.records.len()
    }

    /// The task indices with no record yet, ascending — the work-stealing
    /// input: a fleet coordinator re-partitions exactly this set among
    /// live workers (see `seg_shard::repartition`). Empty for complete
    /// runs. Records are held in task order, so this is a single merge
    /// walk.
    pub fn missing_task_indices(&self) -> Vec<usize> {
        let mut missing = Vec::with_capacity(self.missing_tasks());
        let mut recs = self.records.iter().peekable();
        for i in 0..self.total_tasks {
            match recs.peek() {
                Some(r) if r.task.task_index == i => {
                    recs.next();
                }
                _ => missing.push(i),
            }
        }
        missing
    }

    /// The available records of one point (all of them in a complete
    /// run; the shard's share otherwise).
    pub(crate) fn point_records(&self, point_index: usize) -> &[ReplicaRecord] {
        let lo = self
            .records
            .partition_point(|r| r.task.point_index < point_index);
        let hi = self
            .records
            .partition_point(|r| r.task.point_index <= point_index);
        &self.records[lo..hi]
    }

    /// Throughput of the finished sweep.
    pub fn throughput(&self) -> ThroughputReport {
        let secs = self.wall_secs.max(1e-9);
        let events: u64 = self.records.iter().map(|r| r.events).sum();
        ThroughputReport {
            wall_secs: self.wall_secs,
            threads: self.threads,
            replicas_per_sec: self.records.len() as f64 / secs,
            events_per_sec: events as f64 / secs,
        }
    }

    /// Values of one metric across a point's replicas (replicas missing
    /// the metric are skipped).
    pub fn metric_values(&self, point_index: usize, metric: &str) -> Vec<f64> {
        self.point_records(point_index)
            .iter()
            .filter_map(|r| r.metric(metric))
            .collect()
    }

    /// Mean of one metric across a point's replicas, or `None` when no
    /// replica produced it — the one-number aggregate the harness tables
    /// are built from.
    pub fn point_mean(&self, point_index: usize, metric: &str) -> Option<f64> {
        let vals = self.metric_values(point_index, metric);
        if vals.is_empty() {
            None
        } else {
            Some(Summary::from_slice(&vals).mean)
        }
    }

    /// Per-point summaries of one metric, in point order. Points where no
    /// replica produced the metric are omitted.
    pub fn summarize(&self, metric: &str) -> Vec<PointSummary> {
        (0..self.spec.points().len())
            .filter_map(|i| {
                let vals = self.metric_values(i, metric);
                if vals.is_empty() {
                    return None;
                }
                Some(PointSummary {
                    point_index: i,
                    point: self.spec.points()[i],
                    summary: Summary::from_slice(&vals),
                })
            })
            .collect()
    }

    /// Percentile-bootstrap confidence interval of one metric's mean at
    /// one point. The resampling RNG derives from the master seed and the
    /// point index, so intervals are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if the point has no values for the metric (see
    /// [`seg_analysis::bootstrap::bootstrap_mean_ci`] for the other
    /// preconditions).
    pub fn bootstrap_ci(
        &self,
        point_index: usize,
        metric: &str,
        level: f64,
        resamples: u32,
    ) -> BootstrapCi {
        let vals = self.metric_values(point_index, metric);
        let mut rng = Xoshiro256pp::seed_from_u64(
            self.spec.master_seed() ^ (point_index as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        );
        bootstrap_mean_ci(&vals, level, resamples, &mut rng)
    }

    /// The union of metric names across all records, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .records
            .iter()
            .flat_map(|r| r.metrics.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Variant;

    fn small_spec() -> SweepSpec {
        SweepSpec::builder()
            .side(32)
            .horizon(1)
            .taus([0.40, 0.45])
            .replicas(3)
            .master_seed(11)
            .build()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_failing_sink_append_is_an_error_not_a_panic() {
        // every write to /dev/full fails, and a JSONL sink writes nothing
        // before its first row
        let spec = small_spec();
        let sink = StreamingSink::jsonl(Path::new("/dev/full"), &spec, false).unwrap();
        let err = Engine::new()
            .threads(2)
            .run_full(&spec, &[], None, Some(&sink))
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Sink { .. }), "got: {err}");
    }

    #[test]
    fn a_failing_observer_is_an_error_and_starts_no_further_replica() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = calls.clone();
        // an undeclared metric is an observer output failure
        let rogue = Observer::custom_named(["alpha"], move |_, _, _| {
            counted.fetch_add(1, Ordering::Relaxed);
            vec![("rogue".into(), 1.0)]
        });
        let err = Engine::new()
            .threads(1)
            .run_full(&small_spec(), &[rogue], None, None)
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "got: {err}");
        assert!(err.to_string().contains("observer output failed"), "{err}");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "replicas ran past the failure"
        );
    }

    #[test]
    fn run_produces_one_record_per_task() {
        let spec = small_spec();
        let result = Engine::new().threads(2).run(&spec, &[]);
        assert_eq!(result.records().len(), spec.task_count());
        for (i, r) in result.records().iter().enumerate() {
            assert_eq!(r.task.task_index, i);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let spec = small_spec();
        let a = Engine::new().threads(1).run(&spec, &[]);
        let b = Engine::new().threads(4).run(&spec, &[]);
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x.task.seed, y.task.seed);
            assert_eq!(x.events, y.events);
            assert_eq!(x.metrics, y.metrics);
        }
    }

    #[test]
    fn summaries_group_by_point() {
        let spec = small_spec();
        let result = Engine::new().threads(2).run(&spec, &[]);
        let sums = result.summarize("events");
        assert_eq!(sums.len(), 2);
        assert!(sums.iter().all(|s| s.summary.n == 3));
        assert_eq!(sums[0].point.tau, 0.40);
        assert_eq!(sums[1].point.tau, 0.45);
    }

    #[test]
    fn point_mean_matches_summary() {
        let spec = small_spec();
        let result = Engine::new().threads(2).run(&spec, &[]);
        let sums = result.summarize("events");
        assert_eq!(result.point_mean(0, "events"), Some(sums[0].summary.mean));
        assert_eq!(result.point_mean(0, "no_such_metric"), None);
    }

    #[test]
    fn throughput_reports_positive_rates() {
        let result = Engine::new().threads(2).run(&small_spec(), &[]);
        let t = result.throughput();
        assert!(t.replicas_per_sec > 0.0);
        assert!(t.events_per_sec >= 0.0);
        assert_eq!(t.threads, 2);
    }

    #[test]
    fn bootstrap_ci_is_reproducible() {
        let spec = small_spec();
        let result = Engine::new().threads(2).run(&spec, &[]);
        let a = result.bootstrap_ci(0, "events", 0.95, 200);
        let b = result.bootstrap_ci(0, "events", 0.95, 200);
        assert_eq!(a, b);
        assert!(a.lo <= a.mean && a.mean <= a.hi);
    }

    #[test]
    fn shard_run_is_partial_and_owns_its_tasks() {
        let spec = small_spec(); // 2 points × 3 replicas = 6 tasks
        let full = Engine::new().threads(1).run(&spec, &[]);
        let shard = Engine::new()
            .threads(2)
            .shard(ShardIndex::new(1, 2))
            .run(&spec, &[]);
        assert!(!shard.is_complete());
        assert_eq!(shard.missing_tasks(), 3);
        assert_eq!(shard.records().len(), 3);
        for rec in shard.records() {
            assert_eq!(rec.task.task_index % 2, 1);
            // identical to the same task of the full run
            let reference = &full.records()[rec.task.task_index];
            assert_eq!(rec.events, reference.events);
            assert_eq!(rec.metrics, reference.metrics);
        }
        // aggregation works on the partial record set
        assert_eq!(shard.point_records(0).len(), 1);
        assert_eq!(shard.point_records(1).len(), 2);
        assert!(shard.point_mean(0, "events").is_some());
    }

    #[test]
    fn sharded_workers_plus_unsharded_resume_reproduce_the_full_run() {
        let spec = small_spec();
        let dir = std::env::temp_dir().join("seg_engine_shard_merge");
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("ck.jsonl");
        for i in 0..3 {
            let partial = Engine::new()
                .threads(1)
                .shard(ShardIndex::new(i, 3))
                .run_with_checkpoint(&spec, &[], &base)
                .unwrap();
            // each worker absorbs the journals written before it, so
            // running the shards back-to-back grows the record set by
            // one shard's share per run (2 tasks each here)
            assert_eq!(partial.records().len(), 2 * (i as usize + 1));
            assert_eq!(partial.is_complete(), i == 2);
        }
        // the unsharded resume absorbs every shard journal: nothing left
        // to run, and the merged records equal an uninterrupted run's
        let merged = Engine::new()
            .threads(2)
            .run_with_checkpoint(&spec, &[], &base)
            .unwrap();
        assert!(merged.is_complete());
        let reference = Engine::new().threads(1).run(&spec, &[]);
        assert_eq!(merged.records().len(), reference.records().len());
        for (a, b) in merged.records().iter().zip(reference.records()) {
            assert_eq!(a.task.seed, b.task.seed);
            assert_eq!(a.events, b.events);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn task_subset_runs_exactly_the_assigned_indices() {
        let spec = small_spec(); // 6 tasks
        let full = Engine::new().threads(1).run(&spec, &[]);
        let subset = Engine::new()
            .threads(2)
            .task_subset([4, 1, 1, 99]) // unsorted, duplicated, out of range
            .run(&spec, &[]);
        assert!(!subset.is_complete());
        assert_eq!(subset.records().len(), 2);
        assert_eq!(subset.missing_task_indices(), vec![0, 2, 3, 5]);
        for rec in subset.records() {
            assert!([1, 4].contains(&rec.task.task_index));
            let reference = &full.records()[rec.task.task_index];
            assert_eq!(rec.events, reference.events);
            assert_eq!(rec.metrics, reference.metrics);
        }
    }

    #[test]
    fn the_last_task_selection_wins() {
        let spec = small_spec(); // 6 tasks
        let ran = |engine: Engine| -> Vec<usize> {
            let result = engine.threads(1).run(&spec, &[]);
            result.records().iter().map(|r| r.task.task_index).collect()
        };
        let subset_last = Engine::new().shard(ShardIndex::new(0, 2)).task_subset([1]);
        assert_eq!(ran(subset_last), vec![1]);
        let shard_last = Engine::new().task_subset([1]).shard(ShardIndex::new(0, 2));
        assert_eq!(ran(shard_last), vec![0, 2, 4]);
    }

    #[test]
    fn missing_task_indices_match_missing_count() {
        let spec = small_spec();
        let full = Engine::new().threads(1).run(&spec, &[]);
        assert!(full.missing_task_indices().is_empty());
        let shard = Engine::new()
            .threads(1)
            .shard(ShardIndex::new(0, 2))
            .run(&spec, &[]);
        let missing = shard.missing_task_indices();
        assert_eq!(missing.len(), shard.missing_tasks());
        assert_eq!(missing, vec![1, 3, 5]);
    }

    #[test]
    fn partial_subset_plus_stream_is_rejected_up_front() {
        let spec = small_spec();
        let dir = std::env::temp_dir().join("seg_engine_subset_stream");
        let _ = std::fs::remove_dir_all(&dir);
        let stream =
            crate::sink::StreamingSink::jsonl(&dir.join("rows.jsonl"), &spec, false).unwrap();
        let err = Engine::new()
            .task_subset([0, 2])
            .run_full(&spec, &[], None, Some(&stream))
            .unwrap_err();
        assert!(
            err.to_string().contains("task order"),
            "unexpected error: {err}"
        );
        // a subset covering every task streams fine
        let all = Engine::new()
            .task_subset(0..spec.task_count())
            .run_full(&spec, &[], None, Some(&stream))
            .unwrap();
        assert!(all.is_complete());
    }

    #[test]
    fn shard_plus_stream_is_rejected_up_front() {
        let spec = small_spec();
        let dir = std::env::temp_dir().join("seg_engine_shard_stream");
        let _ = std::fs::remove_dir_all(&dir);
        let stream =
            crate::sink::StreamingSink::jsonl(&dir.join("rows.jsonl"), &spec, false).unwrap();
        let err = Engine::new()
            .shard(ShardIndex::new(0, 2))
            .run_full(&spec, &[], None, Some(&stream))
            .unwrap_err();
        assert!(
            err.to_string().contains("task order"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn progress_callback_sees_every_completion_and_final_totals() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = small_spec(); // 6 tasks
        let calls = Arc::new(AtomicUsize::new(0));
        let last = Arc::new(Mutex::new(None::<SweepProgress>));
        let (c, l) = (calls.clone(), last.clone());
        let result = Engine::new()
            .threads(2)
            .on_progress(move |p| {
                c.fetch_add(1, Ordering::Relaxed);
                let mut slot = l.lock().unwrap();
                if slot.is_none_or(|prev| p.done >= prev.done) {
                    *slot = Some(p);
                }
            })
            .run(&spec, &[]);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        let p = last.lock().unwrap().expect("at least one sample");
        assert_eq!(p.done, 6);
        assert_eq!(p.total, 6);
        assert_eq!(p.resumed, 0);
        assert!(p.replicas_per_sec > 0.0);
        assert!(result.is_complete());
    }

    #[test]
    fn cancelled_run_is_partial_and_resumes_from_its_checkpoint() {
        use std::sync::atomic::AtomicBool;
        let spec = small_spec();
        let dir = std::env::temp_dir().join("seg_engine_cancel");
        let _ = std::fs::remove_dir_all(&dir);
        let ck = dir.join("ck.jsonl");
        // cancel after the second completion: the run stops claiming
        let flag = Arc::new(AtomicBool::new(false));
        let f = flag.clone();
        let partial = Engine::new()
            .threads(1)
            .on_progress(move |p| {
                if p.done >= 2 {
                    f.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            })
            .cancel_flag(flag)
            .run_with_checkpoint(&spec, &[], &ck)
            .unwrap();
        assert!(!partial.is_complete());
        assert!(partial.records().len() >= 2);
        assert!(partial.missing_tasks() > 0);
        // resuming without the flag finishes the rest, byte-identically
        let resumed = Engine::new()
            .threads(2)
            .run_with_checkpoint(&spec, &[], &ck)
            .unwrap();
        assert!(resumed.is_complete());
        let reference = Engine::new().threads(1).run(&spec, &[]);
        for (a, b) in resumed.records().iter().zip(reference.records()) {
            assert_eq!(a.task.seed, b.task.seed);
            assert_eq!(a.events, b.events);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn stderr_line_text_is_unchanged_by_the_metrics_rerouting() {
        // The historical format, byte for byte: two spaces before the
        // paren, one decimal for replicas/s, `{:.2e}` for events/s.
        let sample = SweepProgress {
            done: 37,
            total: 120,
            resumed: 5,
            wall_secs: 2.0,
            replicas_per_sec: 12.34,
            events_per_sec: 34_000.0,
        };
        assert_eq!(
            sample.stderr_line(),
            "sweep: 37/120 replicas  (12.3 replicas/s, 3.40e4 events/s)"
        );
    }

    #[test]
    fn runs_feed_the_process_metrics_registry() {
        let m = seg_obs::metrics();
        let replicas = m.counter("engine_replicas_total", "", &[]);
        let events = m.counter("engine_events_total", "", &[]);
        let sweeps = m.counter("engine_sweeps_started_total", "", &[]);
        let (r0, e0, s0) = (replicas.get(), events.get(), sweeps.get());
        let result = Engine::new().threads(2).run(&small_spec(), &[]);
        // Other tests in this binary run sweeps concurrently, so assert
        // deltas as lower bounds only.
        assert!(replicas.get() >= r0 + result.records().len() as u64);
        let run_events: u64 = result.records().iter().map(|r| r.events).sum();
        assert!(events.get() >= e0 + run_events);
        assert!(sweeps.get() > s0);
    }

    #[test]
    fn checkpointed_runs_count_journal_writes() {
        let m = seg_obs::metrics();
        let writes = m.counter("engine_checkpoint_writes_total", "", &[]);
        let w0 = writes.get();
        let dir = std::env::temp_dir().join("seg_engine_obs_ck");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        Engine::new()
            .threads(1)
            .run_with_checkpoint(&spec, &[], &dir.join("ck.jsonl"))
            .unwrap();
        assert!(writes.get() >= w0 + spec.task_count() as u64);
    }

    #[test]
    fn ring_points_skip_grid_metrics() {
        let spec = SweepSpec::builder()
            .side(200)
            .horizon(2)
            .tau(0.3)
            .variant(Variant::RingGlauber)
            .max_events(10_000)
            .build();
        let result = Engine::new().threads(1).run(&spec, &[]);
        assert!(result.summarize("mean_run").len() == 1);
        assert!(result.summarize("interface").is_empty());
    }
}
