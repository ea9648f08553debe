//! A std-only time-series store over the metrics registry: tiered
//! fixed-capacity rings, a fixed-cadence scraper thread, and optional
//! append-only JSONL persistence that survives restart.
//!
//! `/metrics` is a point-in-time scrape; this module is the answer to
//! "what was p99 over the last ten minutes". A scraper thread
//! ([`History::start`]) snapshots the process [`Registry`] at a fixed
//! cadence (`Registry::snapshot` is read-only, so the Prometheus
//! exposition is byte-identical with or without the scraper) and
//! records one [`Sample`] per series per tick:
//!
//! - **counters** keep their cumulative `total` *and* a derived
//!   `rate` (delta over the scrape interval) — the total makes tier
//!   roll-up exactly conservative, the rate is what you plot;
//! - **gauges** keep their last value;
//! - **histograms** keep `p50`/`p99` (interpolated as Prometheus's
//!   `histogram_quantile` does) and the cumulative `count`.
//!
//! # Tiers
//!
//! Each series holds [`TIERS.len()`](TIERS) rings. Tier 0 receives
//! every sample; tier *k* receives every [`TIERS`]`[k].0`-th raw
//! sample (the roll-up is keyed on the *count* of raw samples, not on
//! wall time, so replaying a JSONL log deterministically reconstructs
//! the same tiers). With the default 1 s scrape cadence the tiers read
//! as 1s×300 → 10s×360 → 60s×360: five minutes at full resolution, an
//! hour at 10 s, six hours at a minute. Because a roll-up sample *is*
//! the raw sample at the boundary, a counter's cumulative total is
//! conserved exactly across tiers — the last total in any tier equals
//! the last total of the raw samples it summarizes.
//!
//! # Persistence
//!
//! [`History::set_output`] mirrors
//! [`Tracer::set_output`](crate::trace::Tracer::set_output): append
//! mode, parent directories
//! created, so a restarted process extends the file. Before appending,
//! existing lines are **replayed** into the rings, so the tiers pick up
//! where the previous incarnation left off. Timestamps are
//! `unix_us` — UNIX-epoch microseconds derived from a wall anchor
//! sampled once at creation (the same monotone-within-a-process scheme
//! as trace schema v2), which is what keeps a restarted timeline
//! ordered.
//!
//! # Pushed series
//!
//! Not everything worth plotting belongs in the registry: per-job
//! throughput would grow the `/metrics` label space without bound
//! (job ids are content hashes). [`History::record_gauge`] records a
//! sample for a history-only series directly — same rings, same tiers,
//! same persistence — without registering anything. The serve
//! dashboard's per-job charts ride on this. Such series live until
//! [`History::remove_labeled`] drops them (the server does when a job is
//! deleted or evicted).

use crate::metrics::{render_labels, Registry, SeriesValue};
use crate::Json;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The process-wide history store the scraper thread fills and the
/// `/v1/metrics/history` endpoint queries.
pub fn history() -> &'static History {
    static GLOBAL: OnceLock<History> = OnceLock::new();
    GLOBAL.get_or_init(History::new)
}

/// The downsampling tiers as `(every_nth_raw_sample, capacity)`.
///
/// Tier 0 is raw; tier *k* keeps every `TIERS[k].0`-th raw sample. At
/// the default 1 s scrape cadence: 1s×300, 10s×360, 60s×360.
pub const TIERS: [(u64, usize); 3] = [(1, 300), (10, 360), (60, 360)];

/// The resolution names `?res=` accepts, index-aligned with [`TIERS`].
pub(crate) const TIER_NAMES: [&str; 3] = ["1s", "10s", "60s"];

/// One recorded value, by series kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A counter: cumulative total plus the rate derived from the
    /// previous scrape (0 on the first sample).
    Counter {
        /// The cumulative total at sample time.
        total: u64,
        /// Increase per second since the previous sample.
        rate: f64,
    },
    /// A gauge's value at sample time.
    Gauge(f64),
    /// A histogram reduced to its interpolated quantiles and count.
    Histogram {
        /// The interpolated median (0 while the histogram is empty).
        p50: f64,
        /// The interpolated 99th percentile (0 while empty).
        p99: f64,
        /// Cumulative observation count.
        count: u64,
    },
}

/// One sample of one series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// UNIX-epoch microseconds, derived monotone from the store's wall
    /// anchor (the trace schema v2 scheme).
    pub unix_us: u64,
    /// The recorded value.
    pub value: Value,
}

/// A series identity: family name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesId {
    /// The family name.
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
}

impl SeriesId {
    /// The Prometheus-style rendering: `name` or `name{k="v",...}`, with
    /// the label syntax of the `/metrics` exposition.
    pub fn render(&self) -> String {
        format!("{}{}", self.name, render_labels(&self.labels, None))
    }

    /// Parses the [`SeriesId::render`] form back. `None` on malformed
    /// input (used by JSONL replay, which decodes the line's JSON string
    /// first, so every escaped label character comes back).
    pub(crate) fn parse(text: &str) -> Option<SeriesId> {
        let Some(brace) = text.find('{') else {
            return Some(SeriesId {
                name: text.to_string(),
                labels: Vec::new(),
            });
        };
        let name = text[..brace].to_string();
        let body = text[brace + 1..].strip_suffix('}')?;
        let mut labels = Vec::new();
        let mut rest = body;
        while !rest.is_empty() {
            let eq = rest.find("=\"")?;
            let key = rest[..eq].to_string();
            rest = &rest[eq + 2..];
            // scan to the closing quote, honoring backslash escapes
            let mut value = String::new();
            let mut chars = rest.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, esc)) => value.push(esc),
                        None => return None,
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => value.push(c),
                }
            }
            rest = &rest[end? + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
            labels.push((key, value));
        }
        labels.sort();
        Some(SeriesId { name, labels })
    }
}

/// One series' retained state: the tier rings plus the roll-up and
/// rate bookkeeping.
#[derive(Debug)]
struct SeriesData {
    tiers: Vec<VecDeque<Sample>>,
    /// Raw samples ever recorded — the roll-up key, persisted
    /// implicitly through replay (re-pushing the raw stream recounts
    /// it identically).
    raw_seen: u64,
    /// `(unix_us, total)` of the previous counter sample, for rates.
    last_counter: Option<(u64, u64)>,
}

impl Default for SeriesData {
    fn default() -> SeriesData {
        SeriesData {
            tiers: TIERS.iter().map(|_| VecDeque::new()).collect(),
            raw_seen: 0,
            last_counter: None,
        }
    }
}

impl SeriesData {
    /// Pushes one raw sample through the tier cascade.
    fn push(&mut self, sample: Sample) {
        self.raw_seen += 1;
        for (k, (every, cap)) in TIERS.iter().enumerate() {
            if !self.raw_seen.is_multiple_of(*every) {
                continue;
            }
            let ring = &mut self.tiers[k];
            if ring.len() == *cap {
                ring.pop_front();
            }
            ring.push_back(sample);
        }
    }
}

#[derive(Default)]
struct Inner {
    series: BTreeMap<SeriesId, SeriesData>,
    out: Option<BufWriter<std::fs::File>>,
    scraper_running: bool,
}

/// The tiered time-series store. Use the process-wide [`history()`] in
/// production code; `History::new()` is for tests that need isolation.
pub struct History {
    started: Instant,
    unix_anchor_us: u64,
    inner: Mutex<Inner>,
    /// The alert engine, evaluated after each scrape. Separate lock so
    /// `/alerts` never contends with a scrape in progress; lock order
    /// is always alerts → inner.
    alerts: Mutex<Option<crate::alerts::AlertEngine>>,
}

impl Default for History {
    fn default() -> Self {
        Self::new()
    }
}

impl History {
    /// An empty store with no output file and no scraper.
    pub fn new() -> History {
        History {
            started: Instant::now(),
            unix_anchor_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap_or_default()
                .as_micros() as u64,
            inner: Mutex::new(Inner::default()),
            alerts: Mutex::new(None),
        }
    }

    /// The present instant as anchor-derived UNIX microseconds
    /// (monotone within the process, like the tracer's `unix_us`).
    pub(crate) fn now_us(&self) -> u64 {
        self.unix_anchor_us + self.started.elapsed().as_micros() as u64
    }

    /// Seconds since this store was created (the process-uptime the
    /// scraper exports).
    pub(crate) fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one sample for a series, pushing it through the tier
    /// cascade and appending it to the JSONL sink when one is attached.
    pub fn record(&self, id: SeriesId, value: Value) {
        self.record_at(id, self.now_us(), value, true);
    }

    /// Records a gauge-kind sample for a **history-only** series — one
    /// that never appears on `/metrics`. This is how bounded-history
    /// charts for unbounded label spaces (per-job throughput) are fed
    /// without growing the registry.
    pub fn record_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.record(
            SeriesId {
                name: name.to_string(),
                labels,
            },
            Value::Gauge(value),
        );
    }

    /// Drops every series carrying the label pair `key="value"`, all
    /// tiers, and returns how many went — how a pushed series for an
    /// entity that no longer exists (a deleted job) stops holding
    /// memory. The JSONL sink is append-only and keeps the old lines, so
    /// a replay after restart brings the samples back.
    pub fn remove_labeled(&self, key: &str, value: &str) -> usize {
        let mut inner = self.inner.lock().expect("history poisoned");
        let before = inner.series.len();
        inner
            .series
            .retain(|id, _| !id.labels.iter().any(|(k, v)| k == key && v == value));
        before - inner.series.len()
    }

    fn record_at(&self, id: SeriesId, unix_us: u64, value: Value, persist: bool) {
        let sample = Sample { unix_us, value };
        let mut inner = self.inner.lock().expect("history poisoned");
        if persist {
            if let Some(out) = inner.out.as_mut() {
                let _ = writeln!(out, "{}", sample_json_line(&id, &sample));
                let _ = out.flush();
            }
        }
        let data = inner.series.entry(id).or_default();
        if let Value::Counter { total, .. } = value {
            data.last_counter = Some((unix_us, total));
        }
        data.push(sample);
    }

    /// Snapshots `registry` once: refreshes `process_uptime_seconds`,
    /// records one sample per registered series (computing counter
    /// rates against the previous scrape), then evaluates the attached
    /// alert rules. The scraper thread calls this every tick; tests
    /// call it directly for deterministic cadence.
    pub fn scrape_once(&self, registry: &Registry) {
        registry
            .gauge(
                "process_uptime_seconds",
                "seconds since this process started",
                &[],
            )
            .set(self.uptime_secs());
        let now = self.now_us();
        for s in registry.snapshot() {
            let id = SeriesId {
                name: s.name,
                labels: s.labels,
            };
            let value = match s.value {
                SeriesValue::Counter(total) => {
                    let rate = {
                        let inner = self.inner.lock().expect("history poisoned");
                        match inner.series.get(&id).and_then(|d| d.last_counter) {
                            Some((t0, v0)) if now > t0 && total >= v0 => {
                                (total - v0) as f64 / ((now - t0) as f64 / 1e6)
                            }
                            _ => 0.0,
                        }
                    };
                    Value::Counter { total, rate }
                }
                SeriesValue::Gauge(v) => Value::Gauge(v),
                SeriesValue::Histogram(snap) => Value::Histogram {
                    p50: snap.quantile(0.5).unwrap_or(0.0),
                    p99: snap.quantile(0.99).unwrap_or(0.0),
                    count: snap.count,
                },
            };
            self.record_at(id, now, value, true);
        }
        let mut alerts = self.alerts.lock().expect("alerts poisoned");
        if let Some(engine) = alerts.as_mut() {
            engine.evaluate(self, now);
        }
    }

    /// Starts the scraper thread against the process registry at the
    /// given cadence (first scrape immediately). Idempotent — a second
    /// call is a no-op, so library servers and workers can both ask
    /// for it.
    pub fn start(&'static self, interval: Duration) {
        {
            let mut inner = self.inner.lock().expect("history poisoned");
            if inner.scraper_running {
                return;
            }
            inner.scraper_running = true;
        }
        std::thread::Builder::new()
            .name("metrics-history".into())
            .spawn(move || loop {
                self.scrape_once(crate::metrics());
                std::thread::sleep(interval);
            })
            .expect("spawn metrics-history scraper");
    }

    /// Attaches append-only JSONL persistence, first **replaying** any
    /// samples already in the file so the tiers survive restart (the
    /// roll-up is keyed on raw-sample count, so replay reconstructs
    /// the identical tiers the previous process held — property-tested
    /// in this module). Returns how many lines were replayed.
    ///
    /// # Errors
    ///
    /// Propagates the error when the file (or a parent directory)
    /// cannot be created or read.
    pub fn set_output(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut replayed = 0usize;
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some((id, sample)) = parse_sample_line(line) {
                        self.record_at(id, sample.unix_us, sample.value, false);
                        replayed += 1;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        self.inner.lock().expect("history poisoned").out = Some(BufWriter::new(file));
        Ok(replayed)
    }

    /// Attaches (replacing) the alert engine the scraper evaluates.
    pub fn set_alerts(&self, engine: crate::alerts::AlertEngine) {
        *self.alerts.lock().expect("alerts poisoned") = Some(engine);
    }

    /// The `GET /alerts` document — `{"rules":[]}` when no rule file
    /// was loaded.
    pub fn alerts_json(&self) -> String {
        match self.alerts.lock().expect("alerts poisoned").as_ref() {
            Some(engine) => engine.to_json(),
            None => "{\"rules\":[]}".to_string(),
        }
    }

    /// Every series matching `name` (and, when given, carrying at
    /// least the `labels` pairs) with its tier-`tier` samples, oldest
    /// first.
    pub fn query(
        &self,
        name: &str,
        labels: Option<&[(String, String)]>,
        tier: usize,
    ) -> Vec<(SeriesId, Vec<Sample>)> {
        let tier = tier.min(TIERS.len() - 1);
        let inner = self.inner.lock().expect("history poisoned");
        inner
            .series
            .iter()
            .filter(|(id, _)| {
                id.name == name
                    && labels.is_none_or(|want| {
                        want.iter().all(|pair| id.labels.iter().any(|l| l == pair))
                    })
            })
            .map(|(id, data)| (id.clone(), data.tiers[tier].iter().copied().collect()))
            .collect()
    }

    /// The latest tier-0 sample of every series matching the selector —
    /// what threshold alert rules evaluate.
    pub(crate) fn latest(
        &self,
        name: &str,
        labels: &[(String, String)],
    ) -> Vec<(SeriesId, Sample)> {
        let inner = self.inner.lock().expect("history poisoned");
        inner
            .series
            .iter()
            .filter(|(id, _)| {
                id.name == name
                    && labels
                        .iter()
                        .all(|pair| id.labels.iter().any(|l| l == pair))
            })
            .filter_map(|(id, data)| data.tiers[0].back().map(|s| (id.clone(), *s)))
            .collect()
    }

    /// The tier-0 samples of every matching series newer than
    /// `since_us`, merged and sorted by timestamp — what SLO windows
    /// evaluate.
    pub(crate) fn window(
        &self,
        name: &str,
        labels: &[(String, String)],
        since_us: u64,
    ) -> Vec<Sample> {
        let inner = self.inner.lock().expect("history poisoned");
        let mut out: Vec<Sample> = inner
            .series
            .iter()
            .filter(|(id, _)| {
                id.name == name
                    && labels
                        .iter()
                        .all(|pair| id.labels.iter().any(|l| l == pair))
            })
            .flat_map(|(_, data)| {
                data.tiers[0]
                    .iter()
                    .filter(|s| s.unix_us >= since_us)
                    .copied()
                    .collect::<Vec<Sample>>()
            })
            .collect();
        out.sort_by_key(|s| s.unix_us);
        out
    }

    /// The `GET /v1/metrics/history` document for one query:
    /// `{"name":...,"res":"10s","series":[{"series":"...","points":[...]}]}`.
    /// Points carry `unix_us` plus the kind's fields (`total`+`rate`,
    /// `value`, or `p50`+`p99`+`count`).
    pub fn query_json(
        &self,
        name: &str,
        labels: Option<&[(String, String)]>,
        tier: usize,
    ) -> String {
        let tier = tier.min(TIERS.len() - 1);
        let series = self.query(name, labels, tier);
        let rendered: Vec<String> = series
            .iter()
            .map(|(id, samples)| {
                let points: Vec<String> = samples.iter().map(point_json).collect();
                format!(
                    "{{\"series\":{},\"points\":[{}]}}",
                    crate::json_string(&id.render()),
                    points.join(",")
                )
            })
            .collect();
        format!(
            "{{\"name\":{},\"res\":\"{}\",\"series\":[{}]}}",
            crate::json_string(name),
            TIER_NAMES[tier],
            rendered.join(",")
        )
    }
}

/// Formats an `f64` as JSON (finite; NaN/inf degrade to 0 — history
/// values are rates and quantiles, where 0 is the honest fallback).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A sample value's kind and its fields as JSON members — shared by the
/// query document's points and the persistence lines.
fn value_fields(value: Value) -> (&'static str, String) {
    match value {
        Value::Counter { total, rate } => (
            "counter",
            format!("\"total\":{total},\"rate\":{}", fmt_f64(rate)),
        ),
        Value::Gauge(v) => ("gauge", format!("\"value\":{}", fmt_f64(v))),
        Value::Histogram { p50, p99, count } => (
            "histogram",
            format!(
                "\"p50\":{},\"p99\":{},\"count\":{count}",
                fmt_f64(p50),
                fmt_f64(p99)
            ),
        ),
    }
}

fn point_json(s: &Sample) -> String {
    format!("{{\"unix_us\":{},{}}}", s.unix_us, value_fields(s.value).1)
}

/// One persistence line: `{"unix_us":...,"series":"...","kind":...}`
/// plus the kind's fields — self-describing, grep/jq-friendly, and the
/// exact input [`parse_sample_line`] replays.
fn sample_json_line(id: &SeriesId, s: &Sample) -> String {
    let (kind, fields) = value_fields(s.value);
    format!(
        "{{\"unix_us\":{},\"series\":{},\"kind\":\"{kind}\",{fields}}}",
        s.unix_us,
        crate::json_string(&id.render())
    )
}

/// Parses one [`sample_json_line`] back; `None` for anything else (a
/// truncated tail line after a crash is skipped, not fatal).
fn parse_sample_line(line: &str) -> Option<(SeriesId, Sample)> {
    let doc = Json::parse(line).ok()?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64);
    let unix_us = num("unix_us")? as u64;
    let id = SeriesId::parse(doc.get("series")?.as_str()?)?;
    let value = match doc.get("kind")?.as_str()? {
        "counter" => Value::Counter {
            total: num("total")? as u64,
            rate: num("rate")?,
        },
        "gauge" => Value::Gauge(num("value")?),
        "histogram" => Value::Histogram {
            p50: num("p50")?,
            p99: num("p99")?,
            count: num("count")? as u64,
        },
        _ => return None,
    };
    Some((id, Sample { unix_us, value }))
}

/// Maps a `?res=` query value to a tier index (`1s`/`10s`/`60s`, or a
/// bare tier number). `None` for unknown values.
pub fn tier_for_res(res: &str) -> Option<usize> {
    if let Some(i) = TIER_NAMES.iter().position(|n| *n == res) {
        return Some(i);
    }
    match res.parse::<usize>() {
        Ok(i) if i < TIERS.len() => Some(i),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_series(name: &str) -> SeriesId {
        SeriesId {
            name: name.to_string(),
            labels: Vec::new(),
        }
    }

    #[test]
    fn series_id_renders_and_parses_round_trip() {
        let id = SeriesId {
            name: "x_total".into(),
            labels: vec![
                ("a".into(), "plain".into()),
                ("b".into(), "with \"quotes\" and \\slash\nline".into()),
            ],
        };
        let rendered = id.render();
        assert_eq!(SeriesId::parse(&rendered), Some(id));
        assert_eq!(
            SeriesId::parse("bare_name"),
            Some(gauge_series("bare_name"))
        );
        assert_eq!(SeriesId::parse("broken{"), None);
    }

    #[test]
    fn tier_rollup_conserves_counter_totals_and_bounds_rings() {
        let h = History::new();
        let id = gauge_series("c_total");
        // 700 raw counter samples: tier0 sees the latest 300, tier1
        // every 10th, tier2 every 60th
        for i in 1..=700u64 {
            h.record_at(
                id.clone(),
                1_000_000 + i,
                Value::Counter {
                    total: i * 3,
                    rate: 3.0,
                },
                false,
            );
        }
        for (k, (every, cap)) in TIERS.iter().enumerate() {
            let series = h.query("c_total", None, k);
            assert_eq!(series.len(), 1);
            let samples = &series[0].1;
            assert!(samples.len() <= *cap, "tier {k} over capacity");
            // timestamps monotone
            assert!(samples.windows(2).all(|w| w[0].unix_us < w[1].unix_us));
            // conservation: the last sample in every tier carries the
            // cumulative total of the raw sample at its boundary —
            // the latest multiple of `every`
            let last_boundary = 700 - (700 % every);
            match samples.last().unwrap().value {
                Value::Counter { total, .. } => {
                    assert_eq!(total, last_boundary * 3, "tier {k} lost counter increments")
                }
                v => panic!("not a counter: {v:?}"),
            }
        }
    }

    #[test]
    fn gauges_keep_last_value_per_tier() {
        let h = History::new();
        let id = gauge_series("g");
        for i in 1..=120u64 {
            h.record_at(id.clone(), i, Value::Gauge(i as f64), false);
        }
        // tier1 keeps every 10th raw sample: its last value is the
        // gauge at the latest roll-up boundary (raw sample #120)
        let t1 = &h.query("g", None, 1)[0].1;
        assert_eq!(t1.len(), 12);
        assert_eq!(t1.last().unwrap().value, Value::Gauge(120.0));
        let t2 = &h.query("g", None, 2)[0].1;
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.last().unwrap().value, Value::Gauge(120.0));
    }

    #[test]
    fn scrape_derives_counter_rates_from_totals() {
        let reg = Registry::new();
        let c = reg.counter("req_total", "requests", &[]);
        let h = History::new();
        c.add(10);
        h.scrape_once(&reg);
        std::thread::sleep(Duration::from_millis(20));
        c.add(40);
        h.scrape_once(&reg);
        let samples = &h.query("req_total", None, 0)[0].1;
        assert_eq!(samples.len(), 2);
        let (first, second) = (samples[0].value, samples[1].value);
        match (first, second) {
            (
                Value::Counter {
                    total: t0,
                    rate: r0,
                },
                Value::Counter {
                    total: t1,
                    rate: r1,
                },
            ) => {
                assert_eq!(t0, 10);
                assert_eq!(t1, 50);
                assert_eq!(r0, 0.0, "first sample has no baseline");
                assert!(r1 > 0.0, "rate must be derived: {r1}");
            }
            other => panic!("not counters: {other:?}"),
        }
        // uptime was refreshed as part of the scrape
        let uptime = &h.query("process_uptime_seconds", None, 0)[0].1;
        assert!(matches!(uptime.last().unwrap().value, Value::Gauge(v) if v >= 0.0));
    }

    #[test]
    fn scraping_leaves_the_exposition_byte_identical() {
        let reg = Registry::new();
        reg.counter("a_total", "a", &[]).add(7);
        reg.gauge("b", "b", &[("k", "v")]).set(1.5);
        reg.histogram("c_seconds", "c", &[], &[0.1, 1.0])
            .observe(0.5);
        let before = reg.render();
        let h = History::new();
        h.scrape_once(&reg);
        h.scrape_once(&reg);
        // the scraper reads through Registry::snapshot only; the only
        // registry write is the uptime gauge it owns
        let after = reg.render();
        let strip = |text: &str| {
            text.lines()
                .filter(|l| !l.contains("process_uptime_seconds"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&before), strip(&after));
    }

    #[test]
    fn histogram_samples_reduce_to_quantiles() {
        let reg = Registry::new();
        let hist = reg.histogram("lat_seconds", "l", &[], &[0.1, 1.0]);
        for _ in 0..90 {
            hist.observe(0.05);
        }
        for _ in 0..10 {
            hist.observe(0.5);
        }
        let h = History::new();
        h.scrape_once(&reg);
        let samples = &h.query("lat_seconds", None, 0)[0].1;
        match samples[0].value {
            Value::Histogram { p50, p99, count } => {
                assert_eq!(count, 100);
                assert!((p50 - 0.1 * (50.0 / 90.0)).abs() < 1e-9);
                assert!(p99 > 0.1, "p99 in the second bucket: {p99}");
            }
            v => panic!("not a histogram: {v:?}"),
        }
    }

    #[test]
    fn jsonl_replay_reconstructs_identical_tiers() {
        let dir = std::env::temp_dir().join(format!("seg_obs_history_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("history.jsonl");

        let first = History::new();
        // parent dirs are created, like Tracer::set_output
        assert_eq!(first.set_output(&path).unwrap(), 0);
        let labeled = SeriesId {
            name: "j".into(),
            labels: vec![("job".into(), "abc".into())],
        };
        for i in 1..=75u64 {
            first.record_at(
                gauge_series("c_total"),
                i,
                Value::Counter {
                    total: i,
                    rate: 1.0,
                },
                true,
            );
            first.record_at(labeled.clone(), i, Value::Gauge(i as f64 / 2.0), true);
        }

        // a "restarted" process replays the file: every tier of every
        // series must come back identical
        let second = History::new();
        assert_eq!(second.set_output(&path).unwrap(), 150);
        for name in ["c_total", "j"] {
            for k in 0..TIERS.len() {
                let a = first.query(name, None, k);
                let b = second.query(name, None, k);
                assert_eq!(a, b, "tier {k} of {name} diverged after replay");
            }
        }
        // and the labels survived the round trip
        let by_label = second.query("j", Some(&[("job".to_string(), "abc".to_string())]), 0);
        assert_eq!(by_label.len(), 1);
        // appends extend rather than truncate
        second.record_at(gauge_series("c_total"), 76, Value::Gauge(0.0), true);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 151);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_filters_by_labels_and_renders_json() {
        let h = History::new();
        h.record_gauge("fleet_rps", &[("worker", "w1")], 5.0);
        h.record_gauge("fleet_rps", &[("worker", "w2")], 7.0);
        assert_eq!(h.query("fleet_rps", None, 0).len(), 2);
        let one = h.query("fleet_rps", Some(&[("worker".into(), "w1".into())]), 0);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1[0].value, Value::Gauge(5.0));
        let json = h.query_json("fleet_rps", None, 0);
        assert!(json.starts_with("{\"name\":\"fleet_rps\",\"res\":\"1s\""));
        assert!(json.contains("fleet_rps{worker=\\\"w1\\\"}"));
        assert!(json.contains("\"value\":5"));
    }

    #[test]
    fn remove_labeled_drops_exactly_the_series_carrying_the_pair() {
        let h = History::new();
        for _ in 0..25 {
            h.record_gauge("job_rps", &[("job", "a")], 1.0);
            h.record_gauge("job_eps", &[("job", "a"), ("kind", "x")], 2.0);
        }
        h.record_gauge("job_rps", &[("job", "b")], 3.0);
        h.record_gauge("job_rps", &[("worker", "a")], 4.0);
        h.record_gauge("unlabeled", &[], 5.0);
        assert_eq!(h.remove_labeled("job", "a"), 2);
        assert!(h.query("job_eps", None, 0).is_empty());
        // every tier of the removed series went with it
        for k in 0..TIERS.len() {
            let left = h.query("job_rps", None, k);
            assert!(left
                .iter()
                .all(|(id, _)| !id.labels.contains(&("job".to_string(), "a".to_string()))));
        }
        // same value under another key, other jobs, unlabeled: untouched
        let rps = h.query("job_rps", None, 0);
        assert_eq!(rps.len(), 2);
        assert_eq!(h.query("unlabeled", None, 0).len(), 1);
        assert_eq!(h.remove_labeled("job", "a"), 0);
        // a later sample starts the series afresh
        h.record_gauge("job_rps", &[("job", "a")], 6.0);
        let again = h.query("job_rps", Some(&[("job".into(), "a".into())]), 0);
        assert_eq!(again[0].1.len(), 1);
    }

    #[test]
    fn res_names_map_to_tiers() {
        assert_eq!(tier_for_res("1s"), Some(0));
        assert_eq!(tier_for_res("10s"), Some(1));
        assert_eq!(tier_for_res("60s"), Some(2));
        assert_eq!(tier_for_res("2"), Some(2));
        assert_eq!(tier_for_res("5m"), None);
    }
}
