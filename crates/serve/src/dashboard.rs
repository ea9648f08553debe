//! `GET /dashboard` — a self-contained HTML status page.
//!
//! One request, one document: no JavaScript, no external assets. The
//! page lists every job with its state and progress, and embeds one
//! [`seg_analysis::svg::LineChart`] per job that has progress history.
//! Every chart is sourced from the unified [`mod@seg_obs::history`] store:
//! the per-job throughput series are pushed there by
//! [`Engine::on_progress`](seg_engine::Engine::on_progress) (as
//! `serve_job_replicas_per_sec{job}` / `serve_job_events_per_sec{job}`),
//! and the fleet panel plots the scraped
//! `fleet_worker_replicas_per_sec{worker}` /
//! `fleet_worker_heartbeat_seconds{worker}` gauges — the same data
//! `GET /v1/metrics/history` serves as JSON. Refreshing the page is the
//! update mechanism (a `<meta http-equiv="refresh">` does it every
//! [`DEFAULT_REFRESH_SECS`] seconds; `?refresh=SECS` tunes it).

use crate::api::ApiContext;
use crate::jobs::JobState;
use seg_analysis::svg::{LineChart, Series};
use seg_obs::history::{Sample, Value};
use std::fmt::Write as _;

/// The meta-refresh cadence when `?refresh=` is absent.
pub(crate) const DEFAULT_REFRESH_SECS: u64 = 2;

/// Projects a history series onto chart points: seconds relative to
/// `t0_us` on the x axis, the gauge value on the y axis (non-gauge
/// samples cannot appear in the series this module queries).
fn gauge_points(samples: &[Sample], t0_us: u64) -> Vec<(f64, f64)> {
    samples
        .iter()
        .filter_map(|s| match s.value {
            Value::Gauge(v) => Some((s.unix_us.saturating_sub(t0_us) as f64 / 1e6, v)),
            _ => None,
        })
        .collect()
}

/// The earliest timestamp across all series — the charts' common x
/// origin.
fn first_us(series: &[(seg_obs::history::SeriesId, Vec<Sample>)]) -> u64 {
    series
        .iter()
        .filter_map(|(_, samples)| samples.first().map(|s| s.unix_us))
        .min()
        .unwrap_or(0)
}

/// Escapes text for an HTML context.
fn escape_html(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the dashboard document for the server's current state,
/// meta-refreshing every `refresh_secs` (the route clamps it to
/// 1–300).
pub(crate) fn render(ctx: &ApiContext, refresh_secs: u64) -> String {
    let counts = ctx.manager.counts();
    let sched = ctx.manager.scheduling();
    let mut page = String::with_capacity(16 * 1024);
    let _ = write!(
        page,
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <meta http-equiv=\"refresh\" content=\"{refresh_secs}\">\n"
    );
    page.push_str(
        "<title>segsim serve</title>\n\
         <style>\n\
         body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }\n\
         h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }\n\
         table { border-collapse: collapse; } td, th { padding: 0.25rem 0.9rem; \
         border-bottom: 1px solid #ddd; text-align: left; font-variant-numeric: tabular-nums; }\n\
         .charts svg { max-width: 100%; height: auto; }\n\
         .state-done { color: #2ca02c; } .state-failed { color: #d62728; }\n\
         .state-running { color: #1f77b4; } .state-queued { color: #888; }\n\
         </style>\n</head>\n<body>\n",
    );
    let _ = write!(
        page,
        "<h1>segsim serve &mdash; {}</h1>\n<p>up {:.0}s &middot; queue depth {} &middot; \
         active jobs {} &middot; cache {} hit / {} miss</p>\n",
        ctx.local_addr,
        ctx.started.elapsed().as_secs_f64(),
        sched.queue_depth,
        sched.active_jobs,
        sched.cache_hits,
        sched.cache_misses,
    );
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    let _ = writeln!(page, "<p>jobs: {}</p>", summary.join(", "));

    if let Some(fleet) = &ctx.fleet {
        render_fleet(&mut page, fleet);
    }

    let jobs = ctx.manager.jobs_snapshot();
    if jobs.is_empty() {
        page.push_str("<p><em>No jobs yet. POST a sweep to /v1/sweeps.</em></p>\n");
    }
    page.push_str(
        "<table>\n<tr><th>job</th><th>state</th><th>progress</th>\
         <th>replicas/s</th><th>events/s</th></tr>\n",
    );
    for job in &jobs {
        let state = job.state();
        let p = job.progress();
        let _ = writeln!(
            page,
            "<tr><td><code>{}</code></td><td class=\"state-{}\">{}</td>\
             <td>{}/{}</td><td>{:.1}</td><td>{:.2e}</td></tr>",
            escape_html(&job.id),
            state.label(),
            match &state {
                JobState::Failed(e) => escape_html(&format!("failed: {e}")),
                s => s.label().to_string(),
            },
            p.done,
            p.total,
            p.replicas_per_sec,
            p.events_per_sec,
        );
    }
    page.push_str("</table>\n<div class=\"charts\">\n");

    let history = seg_obs::history();
    for job in &jobs {
        let labels = [("job".to_string(), job.id.clone())];
        let replicas_series = history.query("serve_job_replicas_per_sec", Some(&labels), 0);
        let events_series = history.query("serve_job_events_per_sec", Some(&labels), 0);
        let t0 = first_us(&replicas_series);
        let replicas: Vec<(f64, f64)> = replicas_series
            .first()
            .map(|(_, samples)| gauge_points(samples, t0))
            .unwrap_or_default();
        let events: Vec<(f64, f64)> = events_series
            .first()
            .map(|(_, samples)| gauge_points(samples, t0))
            .unwrap_or_default();
        if replicas.is_empty() {
            continue; // nothing to plot yet — the row above still shows it
        }
        let _ = writeln!(
            page,
            "<h2>job <code>{}</code> &mdash; throughput</h2>",
            escape_html(&job.id)
        );
        let mut replicas_chart = LineChart::new(
            format!("job {} replicas/s", job.id),
            "wall-clock s",
            "replicas/s",
        );
        replicas_chart.series(Series::new("replicas/s", replicas, 0));
        page.push_str(&replicas_chart.render());
        page.push('\n');
        if !events.is_empty() {
            let mut events_chart = LineChart::new(
                format!("job {} events/s", job.id),
                "wall-clock s",
                "events/s",
            );
            events_chart.series(Series::new("events/s", events, 1));
            page.push_str(&events_chart.render());
            page.push('\n');
        }
    }
    page.push_str("</div>\n</body>\n</html>\n");
    page
}

/// The fleet panel: one table row per known worker (federated from
/// heartbeat/claim stats) plus two charts over the scraped history of
/// the federated gauges — replicas/s and heartbeat age, one series per
/// worker.
fn render_fleet(page: &mut String, fleet: &crate::fleet::FleetRegistry) {
    fleet.live_workers(); // refresh ages before reporting
    let workers = fleet.worker_summaries();
    page.push_str("<h2>fleet</h2>\n");
    if workers.is_empty() {
        page.push_str("<p><em>No fleet workers yet. Start one with segsim work --join.</em></p>\n");
        return;
    }
    page.push_str(
        "<table>\n<tr><th>worker</th><th>state</th><th>heartbeat age</th>\
         <th>replicas/s</th><th>events/s</th></tr>\n",
    );
    for w in &workers {
        let _ = writeln!(
            page,
            "<tr><td><code>{}</code></td><td>{}</td><td>{:.1}s</td>\
             <td>{:.1}</td><td>{:.2e}</td></tr>",
            escape_html(&w.id),
            if w.busy { "busy" } else { "idle" },
            w.age_secs,
            w.replicas_per_sec,
            w.events_per_sec,
        );
    }
    page.push_str("</table>\n<div class=\"charts\">\n");
    let history = seg_obs::history();
    let replicas_series = history.query("fleet_worker_replicas_per_sec", None, 0);
    let age_series = history.query("fleet_worker_heartbeat_seconds", None, 0);
    let t0 = [first_us(&replicas_series), first_us(&age_series)]
        .into_iter()
        .filter(|&t| t > 0)
        .min()
        .unwrap_or(0);
    let mut replicas_chart = LineChart::new("fleet replicas/s", "wall-clock s", "replicas/s");
    let mut age_chart = LineChart::new("fleet heartbeat age", "wall-clock s", "age s");
    let mut plotted = false;
    let worker_label = |id: &seg_obs::history::SeriesId| {
        id.labels
            .iter()
            .find(|(k, _)| k == "worker")
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| id.render())
    };
    for (i, (id, samples)) in replicas_series.iter().enumerate() {
        let points = gauge_points(samples, t0);
        if points.is_empty() {
            continue;
        }
        plotted = true;
        replicas_chart.series(Series::new(worker_label(id), points, i));
    }
    let mut plotted_age = false;
    for (i, (id, samples)) in age_series.iter().enumerate() {
        let points = gauge_points(samples, t0);
        if points.is_empty() {
            continue;
        }
        plotted_age = true;
        age_chart.series(Series::new(worker_label(id), points, i));
    }
    if plotted {
        page.push_str(&replicas_chart.render());
        page.push('\n');
    }
    if plotted_age {
        page.push_str(&age_chart.render());
        page.push('\n');
    }
    page.push_str("</div>\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_escaping_covers_the_special_characters() {
        assert_eq!(
            escape_html(r#"<b>&"x"</b>"#),
            "&lt;b&gt;&amp;&quot;x&quot;&lt;/b&gt;"
        );
    }
}
