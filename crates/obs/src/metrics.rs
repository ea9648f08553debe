//! A process-wide metrics registry with Prometheus text exposition.
//!
//! Three instrument kinds, all updated through atomics:
//!
//! - [`Counter`] — monotonically increasing `u64`;
//! - [`Gauge`] — an `f64` that can move both ways (stored as bits in an
//!   `AtomicU64`);
//! - [`Histogram`] — fixed cumulative buckets plus sum and count, with
//!   a prometheus-style interpolated [`quantile`](Histogram::quantile)
//!   readout for p50/p99.
//!
//! Instruments are identified by `(name, labels)`; registering the same
//! pair twice returns the same underlying instrument, so call sites can
//! re-register cheaply instead of threading handles around. The
//! [`Registry::render`] output is the Prometheus text exposition format
//! served verbatim by `GET /metrics`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The process-wide registry every `seg_*` crate instruments into.
///
/// Created lazily on first use; `GET /metrics` renders exactly this.
pub fn metrics() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A monotonically increasing counter.
///
/// Prometheus convention: name it `*_total` and only ever add.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: an `f64` that can go up and down.
///
/// Stored as IEEE-754 bits in an `AtomicU64`; [`set`](Gauge::set) is a
/// plain store, [`add`](Gauge::add) a CAS loop.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with cumulative bucket semantics.
///
/// Bucket `i` counts observations `<= bounds[i]`; an implicit `+Inf`
/// bucket catches the rest, so `bucket_counts` has `bounds.len() + 1`
/// slots. `sum` is the exact sum of observed values (f64 bits in an
/// atomic, CAS-added), which keeps the rendered `_sum`/`_count` pair
/// honest even though the buckets quantize.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A consistent-enough point-in-time copy of a histogram, used for
/// quantile readout and rendering.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Upper bounds, one per finite bucket.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; last slot is `+Inf`.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    /// Default latency buckets in seconds: 250 µs … 10 s, roughly
    /// 1-2.5-5 per decade — wide enough for a local HTTP round trip and
    /// a multi-second sweep alike.
    pub const LATENCY_BUCKETS: &'static [f64] = &[
        0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
        10.0,
    ];

    /// Default payload-size buckets in bytes: 256 B … 4 MiB in powers
    /// of four — sized for NDJSON journal uploads, whose batches cap at
    /// 512 KiB and whose request bodies cap at 1 MiB by default.
    pub const SIZE_BUCKETS: &'static [f64] = &[
        256.0,
        1_024.0,
        4_096.0,
        16_384.0,
        65_536.0,
        262_144.0,
        1_048_576.0,
        4_194_304.0,
    ];

    /// A histogram over the given finite upper bounds (must be sorted,
    /// strictly increasing, and non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// A point-in-time copy of the bucket counts, sum, and count.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated from the buckets with
    /// linear interpolation inside the containing bucket — the same
    /// estimate Prometheus's `histogram_quantile` computes.
    ///
    /// Returns `None` when nothing has been observed. When the quantile
    /// lands in the `+Inf` bucket the highest finite bound is returned
    /// (again matching Prometheus).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                if i == self.bounds.len() {
                    // +Inf bucket: clamp to the highest finite bound.
                    return Some(*self.bounds.last().unwrap());
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = (rank - cumulative as f64) / c as f64;
                return Some(lower + (upper - lower) * into);
            }
            cumulative = next;
        }
        Some(*self.bounds.last().unwrap())
    }
}

/// Labels as sorted `(key, value)` pairs — the identity of an
/// instrument alongside its name.
type LabelSet = Vec<(String, String)>;

/// A point-in-time value of one series, by instrument kind — what
/// [`Registry::snapshot`] hands the history scraper.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// A counter's cumulative total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's full bucket snapshot (quantiles derivable).
    Histogram(HistogramSnapshot),
}

/// One `(name, labels)` series with its current value — the read-only
/// unit [`Registry::snapshot`] returns.
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// The family name (`serve_queue_depth`, ...).
    pub name: String,
    /// The sorted label pairs identifying the series within its family.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SeriesValue,
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    /// label set -> instrument, ordered for stable rendering.
    series: BTreeMap<LabelSet, Instrument>,
}

/// A registry of named instruments, rendered as Prometheus text.
///
/// Use the process-wide [`metrics()`] registry in production code; a
/// fresh `Registry::new()` is for tests that need isolation.
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    fn register<T, F>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: F,
        pick: impl Fn(&Instrument) -> Option<Arc<T>>,
        wrap: impl Fn(Arc<T>) -> Instrument,
    ) -> Arc<T>
    where
        F: FnOnce() -> Arc<T>,
    {
        let key: LabelSet = {
            let mut v: LabelSet = labels
                .iter()
                .map(|(k, val)| (k.to_string(), val.to_string()))
                .collect();
            v.sort();
            v
        };
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        if let Some(existing) = family.series.get(&key) {
            return pick(existing).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different instrument kind")
            });
        }
        let fresh = make();
        family.series.insert(key, wrap(Arc::clone(&fresh)));
        fresh
    }

    /// The counter `name{labels}`, creating it on first registration.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is already registered as a different
    /// instrument kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            || Arc::new(Counter::default()),
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            Instrument::Counter,
        )
    }

    /// The gauge `name{labels}`, creating it on first registration.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is already registered as a different
    /// instrument kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            || Arc::new(Gauge::default()),
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            Instrument::Gauge,
        )
    }

    /// The histogram `name{labels}`, creating it on first registration
    /// with the given bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name{labels}` is already registered as a different
    /// instrument kind, or if `bounds` is invalid (see
    /// [`Histogram::new`]).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &'static [f64],
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            || Arc::new(Histogram::new(bounds)),
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            Instrument::Histogram,
        )
    }

    /// A read-only point-in-time copy of every registered series —
    /// counters as totals, gauges as values, histograms as full bucket
    /// snapshots. This is what the [`history`](mod@crate::history) scraper
    /// consumes each tick; it never mutates any instrument, so the
    /// [`Registry::render`] exposition is unaffected by scraping.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let families = self.families.lock().unwrap();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, instrument) in family.series.iter() {
                let value = match instrument {
                    Instrument::Counter(c) => SeriesValue::Counter(c.get()),
                    Instrument::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                };
                out.push(SeriesSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }

    /// Renders every registered instrument in the Prometheus text
    /// exposition format (`# HELP` / `# TYPE` headers, one sample per
    /// line, histograms as cumulative `_bucket{le=...}` plus `_sum` and
    /// `_count`).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = family
                .series
                .values()
                .next()
                .map(|i| match i {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "histogram",
                })
                .unwrap_or("untyped");
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, instrument) in family.series.iter() {
                // one sample line: `name_suffix{labels,le} value`
                let mut sample = |suffix: &str, le: Option<&str>, value: String| {
                    out.push_str(&format!(
                        "{name}{suffix}{} {value}\n",
                        render_labels(labels, le)
                    ));
                };
                match instrument {
                    Instrument::Counter(c) => sample("", None, c.get().to_string()),
                    Instrument::Gauge(g) => sample("", None, format_value(g.get())),
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, bound) in snap.bounds.iter().enumerate() {
                            cumulative += snap.counts[i];
                            let le = format_value(*bound);
                            sample("_bucket", Some(&le), cumulative.to_string());
                        }
                        cumulative += snap.counts[snap.bounds.len()];
                        sample("_bucket", Some("+Inf"), cumulative.to_string());
                        sample("_sum", None, format_value(snap.sum));
                        sample("_count", None, snap.count.to_string());
                    }
                }
            }
        }
        out
    }
}

/// Registers the process anchor series every long-running binary
/// should expose: `segsim_build_info{version}` (constant 1, the idiom
/// dashboards join against to spot restarts and mixed-version fleets)
/// and `process_uptime_seconds` (kept fresh by the
/// [`history`](mod@crate::history) scraper). Idempotent.
pub fn register_process_metrics(version: &str) {
    let m = metrics();
    m.gauge(
        "segsim_build_info",
        "build metadata as labels; the value is always 1",
        &[("version", version)],
    )
    .set(1.0);
    m.gauge(
        "process_uptime_seconds",
        "seconds since this process started",
        &[],
    );
}

/// `{a="x",le="0.5"}` — or the empty string for a bare sample. The one
/// label renderer: the exposition and history's
/// [`SeriesId::render`](crate::history::SeriesId::render) both use it.
pub(crate) fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Prometheus-friendly float formatting: integers without a trailing
/// `.0`, everything else via the shortest `{}` round trip.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_render() {
        let r = Registry::new();
        let c = r.counter("jobs_total", "jobs submitted", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let text = r.render();
        assert!(text.contains("# HELP jobs_total jobs submitted"));
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 5\n"));
    }

    #[test]
    fn re_registration_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("k", "v")]);
        let b = r.counter("x_total", "x", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1);
        // Different labels -> different series.
        let c = r.counter("x_total", "x", &[("k", "w")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "different instrument kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("mixed", "m", &[]);
        let _ = r.gauge("mixed", "m", &[]);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth", "queue depth", &[]);
        g.set(3.0);
        g.inc();
        g.dec();
        g.add(-0.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
        assert!(r.render().contains("depth 2.5\n"));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.0); // lands in le=1
        h.observe(1.000_001); // lands in le=2
        h.observe(2.0); // lands in le=2
        h.observe(3.5); // lands in le=4
        h.observe(9.0); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - (1.0 + 1.000_001 + 2.0 + 3.5 + 9.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[("ep", "/x")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = r.render();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{ep=\"/x\",le=\"0.1\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{ep=\"/x\",le=\"1\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{ep=\"/x\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_sum{ep=\"/x\"} 5.55\n"));
        assert!(text.contains("lat_seconds_count{ep=\"/x\"} 3\n"));
    }

    #[test]
    fn quantiles_interpolate_linearly_within_a_bucket() {
        // 100 observations uniform in (0, 1]: all land in the le=1.0
        // bucket of [1.0, 2.0]. The interpolated p50 is the bucket
        // midpoint scaled by rank: 0.5 * 1.0 = 0.5.
        let h = Histogram::new(&[1.0, 2.0]);
        for i in 1..=100 {
            h.observe(i as f64 / 100.0);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 0.5).abs() < 1e-9, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 0.99).abs() < 1e-9, "p99 = {p99}");
    }

    #[test]
    fn quantiles_under_a_known_two_bucket_split() {
        // 90 observations <= 0.1, 10 in (0.1, 1.0]: p50 interpolates
        // inside the first bucket (rank 50 of 90 -> 0.1 * 50/90), p99
        // inside the second (rank 99: 9 of the 10 into (0.1, 1.0]).
        let h = Histogram::new(&[0.1, 1.0]);
        for _ in 0..90 {
            h.observe(0.05);
        }
        for _ in 0..10 {
            h.observe(0.5);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 0.1 * (50.0 / 90.0)).abs() < 1e-9, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        let expect = 0.1 + 0.9 * ((99.0 - 90.0) / 10.0);
        assert!(
            (p99 - expect).abs() < 1e-9,
            "p99 = {p99}, expected {expect}"
        );
    }

    #[test]
    fn quantile_in_the_inf_bucket_clamps_to_highest_bound() {
        let h = Histogram::new(&[0.1, 1.0]);
        for _ in 0..10 {
            h.observe(100.0);
        }
        assert_eq!(h.quantile(0.99), Some(1.0));
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[1.0, 0.5]);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let c = r.counter("esc_total", "e", &[("path", "a\"b\\c\nd")]);
        c.inc();
        let text = r.render();
        assert!(text.contains("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = metrics().counter("obs_selftest_total", "self test", &[]);
        metrics()
            .counter("obs_selftest_total", "self test", &[])
            .inc();
        assert!(a.get() >= 1);
    }
}
