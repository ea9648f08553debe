//! Threshold and SLO alert rules evaluated against [`mod@crate::history`].
//!
//! Rules are loaded from a plain-text file (`--alerts FILE`), one rule
//! per line; blank lines and `#` comments are skipped. Two forms:
//!
//! ```text
//! # threshold: SELECTOR [STAT] CMP THRESHOLD [for DURATION]
//! serve_active_jobs value >= 8 for 30s
//! work_task_failures_total rate > 0.5 for 1m
//! serve_http_request_seconds{endpoint="/v1/sweeps"} p99 > 500ms for 10s
//!
//! # SLO: slo SERIES QUANTILE < THRESHOLD over WINDOW budget PCT%
//! slo serve_http_request_seconds p99 < 250ms over 5m budget 1%
//! ```
//!
//! - `SELECTOR` is a series name with optional `{k="v",...}` label
//!   matchers (a series matches when it carries at least those pairs).
//! - `STAT` picks the field of the sampled [`Value`]: `rate` or
//!   `total` for counters, `value` for gauges, `p50`/`p99`/`count`
//!   for histograms. Omitted, it defaults by kind: counter→`rate`,
//!   gauge→`value`, histogram→`p99`.
//! - `CMP` is one of `<` `<=` `>` `>=` `==` `!=`.
//! - `THRESHOLD` is a number, optionally suffixed `ms` or `s`
//!   (both normalize to seconds — the unit of every latency series).
//! - `for DURATION` (`500ms`, `30s`, `5m`; default 0) is the
//!   hysteresis hold: the condition must stay true that long before
//!   the rule fires, so a single bad sample never flaps.
//!
//! Each rule runs the state machine Inactive → Pending → Firing.
//! Pending→Inactive (a breach that recovered before the hold elapsed)
//! is silent. Firing and resolving are *transitions*: each one emits
//! an `alert.firing` / `alert.resolved` trace event and increments
//! `obs_alerts_transitions_total{rule,state}`.
//!
//! An SLO rule watches a latency quantile against an objective over a
//! sliding window and exports its **burn rate** as
//! `obs_slo_burn_rate{rule}`: the fraction of window samples violating
//! the objective, divided by the budgeted fraction. Burn 1.0 means the
//! error budget is being consumed exactly as provisioned; the rule
//! fires while burn ≥ 1.0 (no `for` hold — the window already
//! smooths).

use crate::history::{History, Sample, SeriesId, Value};

/// A comparison operator in a threshold rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    fn parse(text: &str) -> Option<Cmp> {
        Some(match text {
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            "==" => Cmp::Eq,
            "!=" => Cmp::Ne,
            _ => return None,
        })
    }

    fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

/// Which field of a sampled [`Value`] a threshold rule compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stat {
    /// A counter's derived per-second rate (counter default).
    Rate,
    /// A counter's cumulative total.
    Total,
    /// A gauge's value (gauge default).
    GaugeValue,
    /// A histogram's interpolated median.
    P50,
    /// A histogram's interpolated 99th percentile (histogram default).
    P99,
    /// A histogram's cumulative observation count.
    Count,
}

impl Stat {
    fn parse(text: &str) -> Option<Stat> {
        Some(match text {
            "rate" => Stat::Rate,
            "total" => Stat::Total,
            "value" => Stat::GaugeValue,
            "p50" => Stat::P50,
            "p99" => Stat::P99,
            "count" => Stat::Count,
            _ => return None,
        })
    }

    /// Extracts this stat from a sample, defaulting by kind when the
    /// rule named none. `None` when the stat does not apply to the
    /// sampled kind (a `p99` rule against a gauge matches nothing).
    fn extract(this: Option<Stat>, value: Value) -> Option<f64> {
        match (this, value) {
            (None | Some(Stat::Rate), Value::Counter { rate, .. }) => Some(rate),
            (Some(Stat::Total), Value::Counter { total, .. }) => Some(total as f64),
            (None | Some(Stat::GaugeValue), Value::Gauge(v)) => Some(v),
            (None | Some(Stat::P99), Value::Histogram { p99, .. }) => Some(p99),
            (Some(Stat::P50), Value::Histogram { p50, .. }) => Some(p50),
            (Some(Stat::Count), Value::Histogram { count, .. }) => Some(count as f64),
            _ => None,
        }
    }
}

/// The lifecycle of one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RuleState {
    /// Condition false.
    Inactive,
    /// Condition true, but not yet for the `for` hold.
    Pending {
        /// When the current breach began.
        since_us: u64,
    },
    /// Condition held true through the `for` hold.
    Firing {
        /// When the rule transitioned to firing.
        since_us: u64,
    },
}

impl RuleState {
    fn name(self) -> &'static str {
        match self {
            RuleState::Inactive => "inactive",
            RuleState::Pending { .. } => "pending",
            RuleState::Firing { .. } => "firing",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum RuleKind {
    Threshold {
        selector: SeriesId,
        stat: Option<Stat>,
        cmp: Cmp,
        threshold: f64,
        for_us: u64,
    },
    Slo {
        series: String,
        quantile: Stat, // P50 | P99
        threshold: f64,
        window_us: u64,
        budget: f64, // fraction, e.g. 0.01
    },
}

/// One parsed rule plus its evaluation state.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The trimmed source line — the rule's identity in labels, trace
    /// events, and `/alerts`.
    pub(crate) id: String,
    kind: RuleKind,
    /// Current state.
    pub(crate) state: RuleState,
    /// The value the last evaluation compared (worst matching series
    /// for thresholds, burn rate for SLOs); `None` before any sample
    /// matched.
    pub(crate) last_value: Option<f64>,
}

/// Parses `500ms` / `30s` / `5m` into microseconds.
fn parse_duration_us(text: &str) -> Option<u64> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000u64)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000)
    } else if let Some(d) = text.strip_suffix('m') {
        (d, 60_000_000)
    } else {
        return None;
    };
    let n: f64 = digits.parse().ok()?;
    if !n.is_finite() || n < 0.0 {
        return None;
    }
    Some((n * scale as f64) as u64)
}

/// Parses a threshold: a finite bare number, or `ms`/`s`-suffixed
/// seconds. `NaN`, `inf` and overflowing literals such as `1e400` are
/// refused: a rule comparing against them could never fire (or always
/// would).
fn parse_threshold(text: &str) -> Option<f64> {
    let v = if let Some(d) = text.strip_suffix("ms") {
        d.parse::<f64>().ok()? / 1000.0
    } else {
        text.strip_suffix('s').unwrap_or(text).parse().ok()?
    };
    v.is_finite().then_some(v)
}

fn parse_rule(line: &str) -> Result<RuleKind, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.first() == Some(&"slo") {
        // slo SERIES QUANTILE < THRESHOLD over WINDOW budget PCT%
        if tokens.len() != 9 || tokens[3] != "<" || tokens[5] != "over" || tokens[7] != "budget" {
            return Err(
                "slo form: slo SERIES p50|p99 < THRESHOLD over WINDOW budget PCT%".to_string(),
            );
        }
        let quantile = match tokens[2] {
            "p50" => Stat::P50,
            "p99" => Stat::P99,
            q => return Err(format!("slo quantile must be p50 or p99, got {q:?}")),
        };
        let threshold =
            parse_threshold(tokens[4]).ok_or_else(|| format!("bad threshold {:?}", tokens[4]))?;
        let window_us =
            parse_duration_us(tokens[6]).ok_or_else(|| format!("bad window {:?}", tokens[6]))?;
        let pct = tokens[8]
            .strip_suffix('%')
            .and_then(|d| d.parse::<f64>().ok())
            .filter(|p| *p > 0.0 && *p <= 100.0)
            .ok_or_else(|| format!("bad budget {:?} (want e.g. 1%)", tokens[8]))?;
        return Ok(RuleKind::Slo {
            series: tokens[1].to_string(),
            quantile,
            threshold,
            window_us,
            budget: pct / 100.0,
        });
    }
    // SELECTOR [STAT] CMP THRESHOLD [for DURATION]
    if tokens.len() < 3 {
        return Err("threshold form: SELECTOR [STAT] CMP THRESHOLD [for DURATION]".to_string());
    }
    let selector =
        SeriesId::parse(tokens[0]).ok_or_else(|| format!("bad series selector {:?}", tokens[0]))?;
    let mut rest = &tokens[1..];
    let stat = match Stat::parse(rest[0]) {
        Some(s) => {
            rest = &rest[1..];
            Some(s)
        }
        None => None,
    };
    if rest.len() != 2 && rest.len() != 4 {
        return Err("threshold form: SELECTOR [STAT] CMP THRESHOLD [for DURATION]".to_string());
    }
    let cmp = Cmp::parse(rest[0]).ok_or_else(|| format!("bad comparator {:?}", rest[0]))?;
    let threshold =
        parse_threshold(rest[1]).ok_or_else(|| format!("bad threshold {:?}", rest[1]))?;
    let for_us = if rest.len() == 4 {
        if rest[2] != "for" {
            return Err(format!("expected `for`, got {:?}", rest[2]));
        }
        parse_duration_us(rest[3]).ok_or_else(|| format!("bad duration {:?}", rest[3]))?
    } else {
        0
    };
    Ok(RuleKind::Threshold {
        selector,
        stat,
        cmp,
        threshold,
        for_us,
    })
}

/// A set of parsed rules, evaluated by the history scraper after each
/// tick (see [`History::scrape_once`]).
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<Rule>,
}

impl AlertEngine {
    /// Parses a rule file's contents. Blank lines and `#` comments are
    /// skipped; any malformed line fails the whole load with its line
    /// number (a half-loaded alert set is worse than none).
    ///
    /// # Errors
    ///
    /// The first malformed line, as `line N: why`.
    pub fn parse(text: &str) -> Result<AlertEngine, String> {
        let mut rules = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let kind = parse_rule(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            rules.push(Rule {
                id: line.to_string(),
                kind,
                state: RuleState::Inactive,
                last_value: None,
            });
        }
        Ok(AlertEngine { rules })
    }

    /// Loads and parses a rule file.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file, or the first malformed line.
    pub fn from_file(path: &std::path::Path) -> Result<AlertEngine, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        AlertEngine::parse(&text)
    }

    /// How many rules are loaded.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Read access to the rules and their current states.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluates every rule against `history` at `now_us`, running the
    /// Inactive→Pending→Firing machine. Firing and resolving emit
    /// `alert.firing`/`alert.resolved` trace events and increment
    /// `obs_alerts_transitions_total{rule,state}`; SLO rules also
    /// refresh `obs_slo_burn_rate{rule}`.
    pub(crate) fn evaluate(&mut self, history: &History, now_us: u64) {
        for rule in &mut self.rules {
            let (value, breach) = match &rule.kind {
                RuleKind::Threshold {
                    selector,
                    stat,
                    cmp,
                    threshold,
                    ..
                } => {
                    // worst matching series: the one closest to (or
                    // furthest past) the threshold in breach direction
                    let mut worst: Option<f64> = None;
                    for (_, sample) in history.latest(&selector.name, &selector.labels) {
                        if let Some(v) = Stat::extract(*stat, sample.value) {
                            worst = Some(match worst {
                                Some(w) if !more_breaching(*cmp, v, w) => w,
                                _ => v,
                            });
                        }
                    }
                    match worst {
                        Some(v) => (Some(v), cmp.apply(v, *threshold)),
                        None => (None, false),
                    }
                }
                RuleKind::Slo {
                    series,
                    quantile,
                    threshold,
                    window_us,
                    budget,
                } => {
                    let since = now_us.saturating_sub(*window_us);
                    let samples = history.window(series, &[], since);
                    let burn = burn_rate(&samples, *quantile, *threshold, *budget);
                    crate::metrics()
                        .gauge(
                            "obs_slo_burn_rate",
                            "error-budget burn rate per SLO rule (1.0 = budget consumed exactly as provisioned)",
                            &[("rule", &rule.id)],
                        )
                        .set(burn.unwrap_or(0.0));
                    match burn {
                        Some(b) => (Some(b), b >= 1.0),
                        None => (None, false),
                    }
                }
            };
            rule.last_value = value;

            let for_us = match &rule.kind {
                RuleKind::Threshold { for_us, .. } => *for_us,
                RuleKind::Slo { .. } => 0,
            };
            let next = match (rule.state, breach) {
                (RuleState::Inactive, true) if for_us == 0 => {
                    RuleState::Firing { since_us: now_us }
                }
                (RuleState::Inactive, true) => RuleState::Pending { since_us: now_us },
                (RuleState::Inactive, false) => RuleState::Inactive,
                // a breach that recovers before the hold elapses is
                // dropped silently — this is the no-flap guarantee
                (RuleState::Pending { .. }, false) => RuleState::Inactive,
                (RuleState::Pending { since_us }, true) => {
                    if now_us.saturating_sub(since_us) >= for_us {
                        RuleState::Firing { since_us: now_us }
                    } else {
                        RuleState::Pending { since_us }
                    }
                }
                (RuleState::Firing { since_us }, true) => RuleState::Firing { since_us },
                (RuleState::Firing { .. }, false) => RuleState::Inactive,
            };

            let was_firing = matches!(rule.state, RuleState::Firing { .. });
            let is_firing = matches!(next, RuleState::Firing { .. });
            if !was_firing && is_firing {
                transition(&rule.id, "firing", value);
            } else if was_firing && !is_firing {
                transition(&rule.id, "resolved", value);
            }
            rule.state = next;
        }
    }

    /// The `GET /alerts` document: every rule with its state, how long
    /// it has been in it, and the last evaluated value.
    pub(crate) fn to_json(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                let since = match r.state {
                    RuleState::Pending { since_us } | RuleState::Firing { since_us } => {
                        format!(",\"since_us\":{since_us}")
                    }
                    RuleState::Inactive => String::new(),
                };
                let value = match r.last_value {
                    Some(v) if v.is_finite() => format!(",\"value\":{v}"),
                    _ => String::new(),
                };
                format!(
                    "{{\"rule\":{},\"state\":\"{}\"{since}{value}}}",
                    crate::json_string(&r.id),
                    r.state.name()
                )
            })
            .collect();
        format!("{{\"rules\":[{}]}}", rules.join(","))
    }
}

/// Whether `a` is at least as far in the breach direction as `b`.
fn more_breaching(cmp: Cmp, a: f64, b: f64) -> bool {
    match cmp {
        Cmp::Lt | Cmp::Le => a <= b,
        _ => a >= b,
    }
}

/// Burn rate over the window's samples: the fraction violating the
/// quantile objective, divided by the budgeted fraction. `None` while
/// the window holds no histogram samples with observations.
fn burn_rate(samples: &[Sample], quantile: Stat, threshold: f64, budget: f64) -> Option<f64> {
    let mut seen = 0u64;
    let mut violating = 0u64;
    for s in samples {
        if let Value::Histogram { count, .. } = s.value {
            if count == 0 {
                continue;
            }
            let Some(v) = Stat::extract(Some(quantile), s.value) else {
                continue;
            };
            seen += 1;
            if v >= threshold {
                violating += 1;
            }
        }
    }
    if seen == 0 {
        return None;
    }
    Some((violating as f64 / seen as f64) / budget)
}

fn transition(rule: &str, state: &'static str, value: Option<f64>) {
    let detail = match value {
        Some(v) => format!("rule={rule} value={v}"),
        None => format!("rule={rule}"),
    };
    match state {
        "firing" => crate::tracer().event("alert.firing", detail),
        _ => crate::tracer().event("alert.resolved", detail),
    }
    crate::metrics()
        .counter(
            "obs_alerts_transitions_total",
            "alert rule state transitions (firing or resolved)",
            &[("rule", rule), ("state", state)],
        )
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;

    fn transitions(rule: &str, state: &str) -> u64 {
        crate::metrics()
            .counter(
                "obs_alerts_transitions_total",
                "alert rule state transitions (firing or resolved)",
                &[("rule", rule), ("state", state)],
            )
            .get()
    }

    #[test]
    fn parses_the_documented_grammar() {
        let text = "\n# comment\nserve_active_jobs value >= 8 for 30s\n\
                    work_task_failures_total rate > 0.5 for 1m\n\
                    serve_http_request_seconds{endpoint=\"/v1/sweeps\"} p99 > 500ms for 10s\n\
                    queue_depth > 100\n\
                    slo serve_http_request_seconds p99 < 250ms over 5m budget 1%\n";
        let engine = AlertEngine::parse(text).unwrap();
        assert_eq!(engine.len(), 5);
        match &engine.rules()[2].kind {
            RuleKind::Threshold {
                selector,
                stat,
                cmp,
                threshold,
                for_us,
            } => {
                assert_eq!(selector.name, "serve_http_request_seconds");
                assert_eq!(
                    selector.labels,
                    vec![("endpoint".to_string(), "/v1/sweeps".to_string())]
                );
                assert_eq!(*stat, Some(Stat::P99));
                assert_eq!(*cmp, Cmp::Gt);
                assert!((*threshold - 0.5).abs() < 1e-12, "500ms → 0.5s");
                assert_eq!(*for_us, 10_000_000);
            }
            k => panic!("wrong kind: {k:?}"),
        }
        match &engine.rules()[4].kind {
            RuleKind::Slo {
                series,
                quantile,
                threshold,
                window_us,
                budget,
            } => {
                assert_eq!(series, "serve_http_request_seconds");
                assert_eq!(*quantile, Stat::P99);
                assert!((*threshold - 0.25).abs() < 1e-12);
                assert_eq!(*window_us, 300_000_000);
                assert!((*budget - 0.01).abs() < 1e-12);
            }
            k => panic!("wrong kind: {k:?}"),
        }
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = AlertEngine::parse("ok_gauge > 1\nbad_gauge >>> 2\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(AlertEngine::parse("slo x p75 < 1s over 5m budget 1%").is_err());
        assert!(AlertEngine::parse("x > 1 for soon").is_err());
    }

    #[test]
    fn for_duration_hysteresis_does_not_flap_on_a_single_bad_sample() {
        let h = History::new();
        let mut engine = AlertEngine::parse("hyst_gauge value >= 5 for 300ms").unwrap();
        let base = 1_000_000u64;

        // one bad sample, then recovery before the hold elapses
        h.record_gauge("hyst_gauge", &[], 9.0);
        engine.evaluate(&h, base);
        assert!(matches!(engine.rules()[0].state, RuleState::Pending { .. }));
        h.record_gauge("hyst_gauge", &[], 1.0);
        engine.evaluate(&h, base + 100_000);
        assert_eq!(engine.rules()[0].state, RuleState::Inactive);
        assert_eq!(transitions("hyst_gauge value >= 5 for 300ms", "firing"), 0);

        // a sustained breach fires exactly once, then resolves once
        h.record_gauge("hyst_gauge", &[], 9.0);
        engine.evaluate(&h, base + 200_000);
        engine.evaluate(&h, base + 600_000); // 400ms into the breach
        assert!(matches!(engine.rules()[0].state, RuleState::Firing { .. }));
        engine.evaluate(&h, base + 700_000); // still breaching: no new transition
        assert_eq!(transitions("hyst_gauge value >= 5 for 300ms", "firing"), 1);
        h.record_gauge("hyst_gauge", &[], 1.0);
        engine.evaluate(&h, base + 800_000);
        assert_eq!(engine.rules()[0].state, RuleState::Inactive);
        assert_eq!(
            transitions("hyst_gauge value >= 5 for 300ms", "resolved"),
            1
        );
        assert_eq!(engine.rules()[0].last_value, Some(1.0));
    }

    #[test]
    fn zero_hold_rules_fire_immediately_and_resolve() {
        let h = History::new();
        let mut engine = AlertEngine::parse("instant_gauge > 10").unwrap();
        h.record_gauge("instant_gauge", &[], 11.0);
        engine.evaluate(&h, 1);
        assert!(matches!(engine.rules()[0].state, RuleState::Firing { .. }));
        h.record_gauge("instant_gauge", &[], 2.0);
        engine.evaluate(&h, 2);
        assert_eq!(engine.rules()[0].state, RuleState::Inactive);
        let json = engine.to_json();
        assert!(json.contains("\"state\":\"inactive\""));
        assert!(json.contains("\"value\":2"));
    }

    #[test]
    fn threshold_rules_pick_the_worst_matching_series() {
        let h = History::new();
        let mut engine = AlertEngine::parse("multi_gauge{tier=\"a\"} >= 5").unwrap();
        h.record_gauge("multi_gauge", &[("tier", "a"), ("zone", "1")], 2.0);
        h.record_gauge("multi_gauge", &[("tier", "a"), ("zone", "2")], 7.0);
        h.record_gauge("multi_gauge", &[("tier", "b"), ("zone", "3")], 50.0);
        engine.evaluate(&h, 1);
        // tier=b is excluded by the selector; zone=2 is the worst match
        assert!(matches!(engine.rules()[0].state, RuleState::Firing { .. }));
        assert_eq!(engine.rules()[0].last_value, Some(7.0));
    }

    #[test]
    fn missing_series_never_breaches() {
        let h = History::new();
        let mut engine = AlertEngine::parse("no_such_series > 0").unwrap();
        engine.evaluate(&h, 1);
        assert_eq!(engine.rules()[0].state, RuleState::Inactive);
        assert_eq!(engine.rules()[0].last_value, None);
    }

    #[test]
    fn slo_burn_rate_fires_at_budget_exhaustion() {
        use crate::history::{SeriesId, Value};
        let h = History::new();
        let mut engine =
            AlertEngine::parse("slo slo_lat_seconds p99 < 100ms over 5m budget 10%").unwrap();
        let id = SeriesId {
            name: "slo_lat_seconds".into(),
            labels: Vec::new(),
        };
        // 10 window samples, none violating: burn 0, inactive
        for _ in 0..10 {
            h.record(
                id.clone(),
                Value::Histogram {
                    p50: 0.01,
                    p99: 0.05,
                    count: 10,
                },
            );
        }
        engine.evaluate(&h, h.now_us());
        assert_eq!(engine.rules()[0].state, RuleState::Inactive);
        assert_eq!(engine.rules()[0].last_value, Some(0.0));

        // two violating samples out of twelve: ~16.7% > 10% budget → burn > 1
        for _ in 0..2 {
            h.record(
                id.clone(),
                Value::Histogram {
                    p50: 0.2,
                    p99: 0.4,
                    count: 10,
                },
            );
        }
        engine.evaluate(&h, h.now_us());
        assert!(matches!(engine.rules()[0].state, RuleState::Firing { .. }));
        let burn = engine.rules()[0].last_value.unwrap();
        assert!(burn > 1.0 && burn < 2.0, "burn {burn}");
        let gauge = crate::metrics().gauge(
            "obs_slo_burn_rate",
            "error-budget burn rate per SLO rule (1.0 = budget consumed exactly as provisioned)",
            &[("rule", "slo slo_lat_seconds p99 < 100ms over 5m budget 10%")],
        );
        assert!((gauge.get() - burn).abs() < 1e-12);
    }

    #[test]
    fn transitions_emit_trace_events() {
        let h = History::new();
        let mut engine = AlertEngine::parse("trace_evt_gauge > 1").unwrap();
        h.record_gauge("trace_evt_gauge", &[], 5.0);
        engine.evaluate(&h, 1);
        h.record_gauge("trace_evt_gauge", &[], 0.0);
        engine.evaluate(&h, 2);
        let events = crate::tracer().snapshot();
        let fired = events
            .iter()
            .any(|e| e.name == "alert.firing" && e.detail.contains("rule=trace_evt_gauge > 1"));
        let resolved = events
            .iter()
            .any(|e| e.name == "alert.resolved" && e.detail.contains("rule=trace_evt_gauge > 1"));
        assert!(fired, "missing alert.firing event");
        assert!(resolved, "missing alert.resolved event");
    }
}
