//! The batch-sweep workloads: jobs run on the engine (untraced) or on
//! the benchmark's own traced loop over the same public calls.

use crate::trace::{self, Span};
use crate::{fnv1a, ms, peak_rss_mb, quantile, Report, DEFAULT_SEED, THREADS, WORK_ROOT};
use seg_analysis::parallel::parallel_map;
use seg_core::interval::IntervalSim;
use seg_core::multi::MultiSim;
use seg_core::variants::{KawasakiSim, UpdateRule, VariantSim};
use seg_core::{Intolerance, ModelConfig};
use seg_engine::{
    derive_replica_seed, expected_metric_columns, header_line, spec_fingerprint, Checkpoint,
    Engine, FinalState, Observer, ReplicaRecord, ReplicaTask, Sink, StreamingSink, SweepPoint,
    SweepResult, SweepSpec, Variant,
};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{Torus, TypeField};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// FNV-1a digest of the CSV rows of each sweep workload's job 0 at
/// [`DEFAULT_SEED`]. Every run recomputes it; a mismatch means the
/// program's output bytes changed.
pub const GOLDEN_DIGESTS: [(&str, u64); 3] = [
    ("sweep_small", 0x5344_f89b_e9dd_37c3),
    ("sweep_kernel", 0x36e0_0510_a36b_90be),
    ("sweep_variants", 0x5ba2_edda_9363_3add),
];

/// One sweep workload: the spec of its job `k`, and whether rows stream
/// to disk as replicas finish (otherwise they are written once, buffered,
/// when the job ends).
pub struct SweepWorkload {
    pub name: &'static str,
    stream: bool,
    spec: fn(master_seed: u64) -> SweepSpec,
}

pub fn workload(name: &str) -> Option<SweepWorkload> {
    let w = match name {
        // tiny replicas: setup, observers and persist dominate
        "sweep_small" => SweepWorkload {
            name: "sweep_small",
            stream: true,
            spec: |seed| {
                SweepSpec::builder()
                    .side(48)
                    .horizon(1)
                    .taus([0.40, 0.42, 0.44, 0.46])
                    .replicas(16)
                    .master_seed(seed)
                    .build()
            },
        },
        // the paper's large-N regime: almost all dynamics
        "sweep_kernel" => SweepWorkload {
            name: "sweep_kernel",
            stream: false,
            spec: |seed| {
                SweepSpec::builder()
                    .side(128)
                    .horizon(8)
                    .taus([0.42, 0.44])
                    .replicas(4)
                    .master_seed(seed)
                    .build()
            },
        },
        // the other act rules and class tables, each on a fixed budget
        // below its natural stopping point, balanced so that no variant
        // takes more than about half of a job
        "sweep_variants" => SweepWorkload {
            name: "sweep_variants",
            stream: false,
            spec: |seed| {
                let mut b = SweepSpec::builder();
                for (variant, budget) in [
                    (Variant::FlipWhenUnhappy, 3_000),
                    (Variant::Noise(0.01), 3_000),
                    (Variant::TwoSided { tau_hi: 0.7 }, 1_500),
                    (Variant::MultiType { k: 3 }, 4_000),
                    (Variant::Kawasaki, 20),
                ] {
                    b = b.point(
                        SweepPoint::new(96, 2, 0.44)
                            .with_variant(variant)
                            .with_budget(budget),
                    );
                }
                b.replicas(2).master_seed(seed).build()
            },
        },
        _ => return None,
    };
    Some(w)
}

/// The per-variant key of the `dynamics.events_per_s.<variant>` metrics.
fn variant_key(v: &Variant) -> &'static str {
    match v {
        Variant::Paper => "paper",
        Variant::FlipWhenUnhappy => "flip-when-unhappy",
        Variant::Noise(_) => "noise",
        Variant::TwoSided { .. } => "two-sided",
        Variant::MultiType { .. } => "multi",
        Variant::Kawasaki => "kawasaki",
        Variant::RingGlauber | Variant::RingKawasaki | Variant::Probe => "other",
    }
}

/// The variants `sweep_variants` runs, in metric order.
pub const VARIANT_METRICS: [(&str, &str); 5] = [
    (
        "flip-when-unhappy",
        "dynamics.events_per_s.flip-when-unhappy",
    ),
    ("noise", "dynamics.events_per_s.noise"),
    ("two-sided", "dynamics.events_per_s.two-sided"),
    ("multi", "dynamics.events_per_s.multi"),
    ("kawasaki", "dynamics.events_per_s.kawasaki"),
];

fn observers() -> [Observer; 1] {
    [Observer::TerminalStats]
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

/// Checks a finished job's records: complete, and every paper replica
/// with τ < 1/2 and no budget ends stable with no unhappy agent.
fn records_ok(spec: &SweepSpec, result: &SweepResult) -> Result<(), String> {
    if !result.is_complete() || result.records().len() != spec.task_count() {
        return Err(format!(
            "{} of {} records",
            result.records().len(),
            spec.task_count()
        ));
    }
    for rec in result.records() {
        let p = rec.task.point;
        if rec.events > rec.task.max_events {
            return Err(format!("task {} overran its budget", rec.task.task_index));
        }
        if p.variant == Variant::Paper && p.tau < 0.5 && rec.task.max_events == u64::MAX {
            let stable =
                rec.metric("terminated") == Some(1.0) && rec.metric("unhappy") == Some(0.0);
            if !stable {
                return Err(format!(
                    "paper task {} (tau {}) ended unstable",
                    rec.task.task_index, p.tau
                ));
            }
        }
    }
    Ok(())
}

/// One job on the engine, as `segsim sweep --checkpoint` runs it.
struct EngineJob {
    /// Spec build and output-sink open.
    setup: Duration,
    /// Engine run to the last row on disk.
    latency: Duration,
    out: PathBuf,
}

fn engine_job(
    w: &SweepWorkload,
    master_seed: u64,
    dir: &Path,
    tag: &str,
) -> Result<EngineJob, String> {
    let ck = dir.join(format!("ck-{tag}.jsonl"));
    let out = dir.join(format!("rows-{tag}.csv"));
    let obs = observers();
    let t0 = Instant::now();
    let spec = (w.spec)(master_seed);
    let stream = if w.stream {
        let cols = expected_metric_columns(&spec, &obs).ok_or("unpredictable columns")?;
        Some(StreamingSink::csv(&out, &spec, &cols, false).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let setup = t0.elapsed();
    let t1 = Instant::now();
    let result = Engine::new()
        .threads(THREADS)
        .run_full(&spec, &obs, Some(&ck), stream.as_ref())
        .map_err(|e| e.to_string())?;
    if !w.stream {
        Sink::Csv(out.clone())
            .write(&result)
            .map_err(|e| e.to_string())?;
    }
    let latency = t1.elapsed();
    records_ok(&spec, &result)?;
    if w.stream {
        // the streamed file must equal the buffered writer's bytes
        let buffered = dir.join(format!("buffered-{tag}.csv"));
        Sink::Csv(buffered.clone())
            .write(&result)
            .map_err(|e| e.to_string())?;
        if read(&buffered) != read(&out) {
            return Err("streamed CSV differs from the buffered CSV".into());
        }
    }
    Ok(EngineJob {
        setup,
        latency,
        out,
    })
}

fn remove_job_files(dir: &Path, tag: &str) {
    for stem in ["ck", "rows", "buffered", "tck", "trows"] {
        for ext in ["jsonl", "csv"] {
            let _ = std::fs::remove_file(dir.join(format!("{stem}-{tag}.{ext}")));
        }
    }
}

/// What a traced job measured.
pub struct TracedJob {
    pub spans: Vec<Span>,
    /// Wall time of the worker pool over the job's replicas.
    pub pool_wall: Duration,
    /// Journal open to the last row on disk.
    pub latency: Duration,
    /// Events and dynamics nanoseconds per variant key.
    pub dynamics: BTreeMap<&'static str, (u64, u64)>,
    /// Journal plus row bytes per record.
    pub bytes_per_record: f64,
}

/// Runs one job through the traced loop: the calls `run_replica` makes
/// and the engine's persist calls, one task at a time on [`THREADS`]
/// workers, with a span around each call. Rows go to `sink`; the journal
/// to `ck`.
pub fn traced_job(
    spec: &SweepSpec,
    job: u64,
    ck: &Path,
    sink: &StreamingSink,
    header_bytes: u64,
) -> Result<TracedJob, String> {
    let obs = observers();
    let t0 = Instant::now();
    let (done, journal) = Checkpoint::resume(ck, spec).map_err(|e| e.to_string())?;
    if done.iter().any(Option::is_some) {
        return Err("the traced job's journal is not fresh".into());
    }
    let tasks = spec.tasks();
    let pool = Instant::now();
    let replicas = parallel_map(tasks.len(), THREADS, |i| {
        traced_replica(&tasks[i], job, &obs, &journal, sink)
    });
    let pool_wall = pool.elapsed();
    let latency = t0.elapsed();
    let mut spans = Vec::with_capacity(tasks.len() * 5);
    let mut dynamics: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for r in replicas {
        let r = r?;
        let d = dynamics.entry(variant_key(&r.variant)).or_default();
        d.0 += r.events;
        d.1 += r.spans[2].nanos();
        spans.extend_from_slice(&r.spans);
    }
    let journal_header = header_line(spec_fingerprint(spec), tasks.len()).len() as u64 + 1;
    let persisted = file_len(ck) + file_len(sink.path());
    let bytes_per_record =
        persisted.saturating_sub(journal_header + header_bytes) as f64 / tasks.len() as f64;
    Ok(TracedJob {
        spans,
        pool_wall,
        latency,
        dynamics,
        bytes_per_record,
    })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

struct TracedReplica {
    /// replica (root), setup, dynamics, observers, persist
    spans: [Span; 5],
    events: u64,
    variant: Variant,
}

/// One replica through the same public calls as
/// `seg_engine::replica::run_replica`, then the engine's persist calls.
fn traced_replica(
    task: &ReplicaTask,
    job: u64,
    observers: &[Observer],
    journal: &Checkpoint,
    sink: &StreamingSink,
) -> Result<TracedReplica, String> {
    let p = task.point;
    let mut metrics = BTreeMap::new();
    let t0 = Instant::now();
    let (state, events, t1, t2) = match p.variant {
        Variant::Paper => {
            let mut sim = ModelConfig::new(p.side, p.horizon, p.tau)
                .initial_density(p.density)
                .seed(task.seed)
                .build();
            let t1 = Instant::now();
            sim.run_to_stable(task.max_events);
            let t2 = Instant::now();
            metrics.insert("sim_time".into(), sim.time());
            metrics.insert("terminated".into(), f64::from(sim.is_stable()));
            let events = sim.flips();
            (FinalState::Grid(sim), events, t1, t2)
        }
        Variant::FlipWhenUnhappy | Variant::Noise(_) => {
            let rule = match p.variant {
                Variant::Noise(eps) => UpdateRule::Noise(eps),
                _ => UpdateRule::FlipWhenUnhappy,
            };
            let mut rng = Xoshiro256pp::seed_from_u64(task.seed);
            let field = TypeField::random(Torus::new(p.side), p.density, &mut rng);
            let nsize = (2 * p.horizon + 1) * (2 * p.horizon + 1);
            let mut sim =
                VariantSim::from_field(field, p.horizon, Intolerance::new(nsize, p.tau), rule, rng);
            let t1 = Instant::now();
            sim.run(task.max_events);
            let t2 = Instant::now();
            let events = sim.flips();
            (FinalState::VariantGrid(sim), events, t1, t2)
        }
        Variant::Kawasaki => {
            let sim = ModelConfig::new(p.side, p.horizon, p.tau)
                .initial_density(p.density)
                .seed(task.seed)
                .build();
            let mut k = KawasakiSim::new(sim);
            let t1 = Instant::now();
            k.run(task.max_events);
            let t2 = Instant::now();
            metrics.insert("failed_attempts".into(), k.failed_attempts() as f64);
            let events = k.swaps();
            (FinalState::Kawasaki(k), events, t1, t2)
        }
        Variant::TwoSided { tau_hi } => {
            let mut sim = IntervalSim::random(p.side, p.horizon, p.tau, tau_hi, task.seed);
            let t1 = Instant::now();
            let stable = sim.run(task.max_events);
            let t2 = Instant::now();
            metrics.insert("terminated".into(), f64::from(stable));
            metrics.insert("discontent".into(), sim.discontent_count() as f64);
            let events = sim.flips();
            (FinalState::TwoSided(sim), events, t1, t2)
        }
        Variant::MultiType { k } => {
            let mut sim = MultiSim::random(p.side, p.horizon, k, p.tau, task.seed);
            let t1 = Instant::now();
            let stable = sim.run(task.max_events);
            let t2 = Instant::now();
            metrics.insert("terminated".into(), f64::from(stable));
            let events = sim.flips();
            (FinalState::Multi(sim), events, t1, t2)
        }
        other => return Err(format!("the traced loop does not run {other}")),
    };
    metrics.insert("events".into(), events as f64);
    let t3 = Instant::now();
    for o in observers {
        o.apply(task, &state, &mut metrics)
            .map_err(|e| e.to_string())?;
    }
    let t4 = Instant::now();
    let rec = ReplicaRecord {
        task: *task,
        events,
        wall_secs: (t4 - t0).as_secs_f64(),
        metrics,
    };
    let t5 = Instant::now();
    journal.append(&rec).map_err(|e| e.to_string())?;
    sink.append(&rec).map_err(|e| e.to_string())?;
    let t6 = Instant::now();
    let trace = task.task_index as u64;
    let span = |name, id, parent, start, end| Span {
        name,
        job,
        trace,
        id,
        parent,
        start,
        end,
    };
    Ok(TracedReplica {
        spans: [
            span("replica", 0, None, t0, t6),
            span("setup", 1, Some(0), t0, t1),
            span("dynamics", 2, Some(0), t1, t2),
            span("observers", 3, Some(0), t3, t4),
            span("persist", 4, Some(0), t5, t6),
        ],
        events,
        variant: p.variant,
    })
}

/// Per-layer totals over every traced job of a run.
#[derive(Default)]
pub struct Layers {
    pub spans: Vec<Span>,
    pub pool_wall: Duration,
    pub dynamics: BTreeMap<&'static str, (u64, u64)>,
    pub bytes: Vec<f64>,
}

impl Layers {
    pub fn add(&mut self, job: TracedJob) {
        self.spans.extend(job.spans);
        self.pool_wall += job.pool_wall;
        for (k, (e, ns)) in job.dynamics {
            let d = self.dynamics.entry(k).or_default();
            d.0 += e;
            d.1 += ns;
        }
        self.bytes.push(job.bytes_per_record);
    }

    /// Reports the setup/dynamics/observers/persist/schedule metrics and
    /// `trace.coverage`, and prints the layer-table row of `label`.
    pub fn report(&self, label: &str, report: &mut Report) {
        let replicas = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .count()
            .max(1) as f64;
        let busy = trace::total(&self.spans, "replica").max(1) as f64;
        let own = trace::self_times(&self.spans);
        let layer = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
        let (setup, dynamics, observers, persist) = (
            layer("setup"),
            layer("dynamics"),
            layer("observers"),
            layer("persist"),
        );
        let us = |ns: f64| ns / replicas / 1e3;
        report.metric("setup.us_per_replica", us(setup), "us");
        report.metric("setup.share", setup / busy, "fraction");
        report.metric("dynamics.us_per_replica", us(dynamics), "us");
        report.metric("dynamics.share", dynamics / busy, "fraction");
        let (events, ns) = self
            .dynamics
            .values()
            .fold((0, 0), |(e, n), (de, dn)| (e + de, n + dn));
        report.metric(
            "dynamics.events_per_s",
            events as f64 / (ns.max(1) as f64 / 1e9),
            "1/s",
        );
        for (key, name) in VARIANT_METRICS {
            // 0 where the workload does not run the variant
            let rate = self
                .dynamics
                .get(key)
                .map_or(0.0, |&(e, ns)| e as f64 / (ns.max(1) as f64 / 1e9));
            report.metric(name, rate, "1/s");
        }
        report.metric("observers.us_per_replica", us(observers), "us");
        report.metric("observers.share", observers / busy, "fraction");
        report.metric("persist.us_per_record", us(persist), "us");
        report.metric("persist.bytes_per_record", quantile(&self.bytes, 0.5), "B");
        report.metric("persist.share", persist / busy, "fraction");
        let capacity = THREADS as f64 * self.pool_wall.as_nanos().max(1) as f64;
        report.metric("schedule.idle_share", 1.0 - busy / capacity, "fraction");
        // the layer spans must account for nearly all of a replica's time,
        // or the shares above do not describe it
        let covered = (setup + dynamics + observers + persist) / busy;
        report.metric("trace.coverage", covered, "fraction");
        report.check(covered >= 0.95, || {
            format!("layer self times cover {covered:.3} of replica busy time")
        });
        println!(
            "layer table ({replicas} replicas traced; shares of replica busy time)\n\
             {:<16} {:>7} {:>9} {:>10} {:>8} {:>11}\n\
             {:<16} {:>6.1}% {:>8.1}% {:>9.1}% {:>7.1}% {:>11.4}",
            "workload",
            "setup",
            "dynamics",
            "observers",
            "persist",
            "ms/replica",
            label,
            100.0 * setup / busy,
            100.0 * dynamics / busy,
            100.0 * observers / busy,
            100.0 * persist / busy,
            busy / replicas / 1e6,
        );
    }
}

/// The transport metrics, which only `serve_mix` measures: batch sweeps
/// have no transport layer and report 0.
pub fn no_transport(report: &mut Report) {
    for name in [
        "transport.submit_p50_ms",
        "transport.first_row_p50_ms",
        "transport.stream_p50_ms",
        "transport.cache_hit_p50_ms",
        "transport.cache_hit_p99_ms",
    ] {
        report.metric(name, 0.0, "ms");
    }
    report.metric("transport.rows_per_s", 0.0, "1/s");
    report.metric("transport.bytes_per_row", 0.0, "B");
}

/// Runs a sweep workload for `budget` and reports its metrics.
pub fn run(w: &SweepWorkload, dir: &Path, seed: u64, budget: Duration, traced: bool) -> Report {
    let mut report = Report::default();
    // warm-up, and the recorded-digest check: job 0 at the default seed
    let reference = derive_replica_seed(DEFAULT_SEED, 0, 0);
    match engine_job(w, reference, dir, "ref") {
        Ok(job) => {
            let digest = fnv1a(&read(&job.out));
            let golden = GOLDEN_DIGESTS
                .iter()
                .find(|(n, _)| *n == w.name)
                .map(|g| g.1);
            eprintln!("segbench: {} reference digest {digest:016x}", w.name);
            report.check(golden == Some(digest), || {
                format!("reference digest {digest:016x}, recorded {golden:016x?}")
            });
        }
        Err(e) => report.check(false, || format!("reference job: {e}")),
    }
    remove_job_files(dir, "ref");

    let started = Instant::now();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut layers = Layers::default();
    let mut k = 0u64;
    while started.elapsed() < budget {
        let master = derive_replica_seed(seed, k, 0);
        let tag = k.to_string();
        if traced {
            // the same spec untraced and traced, alternating which goes
            // first; their rows must be byte-identical
            let (untraced, tracedj) = if k.is_multiple_of(2) {
                let u = engine_job(w, master, dir, &tag);
                (u, traced_csv_job(w, master, k, dir, &tag))
            } else {
                let t = traced_csv_job(w, master, k, dir, &tag);
                (engine_job(w, master, dir, &tag), t)
            };
            match (untraced, tracedj) {
                (Ok(u), Ok((t, out))) => {
                    let same = read(&u.out) == read(&out);
                    report.check(same, || {
                        format!("job {k}: traced rows differ from untraced")
                    });
                    latencies.push(ms(u.latency));
                    traced_latencies.push(ms(t.latency));
                    layers.add(t);
                }
                (Err(e), _) | (_, Err(e)) => report.check(false, || format!("job {k}: {e}")),
            }
        } else {
            match engine_job(w, master, dir, &tag) {
                Ok(job) => {
                    report.check(true, String::new);
                    setups.push(job.setup.as_secs_f64());
                    latencies.push(ms(job.latency));
                }
                Err(e) => report.check(false, || format!("job {k}: {e}")),
            }
        }
        remove_job_files(dir, &tag);
        k += 1;
    }

    let tasks = (w.spec)(0).task_count() as f64;
    if traced {
        layers.report(w.name, &mut report);
        no_transport(&mut report);
        let overhead = 1.0 - quantile(&latencies, 0.5) / quantile(&traced_latencies, 0.5);
        report.metric("trace.overhead", overhead, "fraction");
        let path = Path::new(WORK_ROOT).join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = trace::write_jsonl(&path, &layers.spans) {
            eprintln!("segbench: writing {}: {e}", path.display());
        }
    } else {
        let job_p50 = quantile(&latencies, 0.5);
        report.metric("setup_s", quantile(&setups, 0.5), "s");
        report.metric("replicas_per_s", tasks * 1e3 / job_p50, "1/s");
        report.metric("jobs_per_s", 1e3 / job_p50, "1/s");
        report.metric("job_p50_ms", job_p50, "ms");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    report
}

/// A traced job whose rows go to a CSV stream. Its bytes equal the
/// engine job's, streamed or buffered.
fn traced_csv_job(
    w: &SweepWorkload,
    master_seed: u64,
    job: u64,
    dir: &Path,
    tag: &str,
) -> Result<(TracedJob, PathBuf), String> {
    let spec = (w.spec)(master_seed);
    let cols = expected_metric_columns(&spec, &observers()).ok_or("unpredictable columns")?;
    let out = dir.join(format!("trows-{tag}.csv"));
    let sink = StreamingSink::csv(&out, &spec, &cols, false).map_err(|e| e.to_string())?;
    let header = read(&out).len() as u64;
    let t = traced_job(
        &spec,
        job,
        &dir.join(format!("tck-{tag}.jsonl")),
        &sink,
        header,
    )?;
    Ok((t, out))
}
