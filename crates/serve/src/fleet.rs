//! Fleet mode: the coordinator-side registry of remote workers.
//!
//! Under `segsim serve --fleet`, the server stops running sweeps alone:
//! each job's missing task set is re-partitioned among whatever workers
//! are *live* (heartbeat younger than the fleet timeout) and offered as
//! [`Assignment`]s; `segsim work --join COORD_ADDR` processes claim one,
//! run exactly the assigned task indices, and stream the resulting shard
//! journal back as NDJSON. The registry is deliberately dumb transport
//! state — who is alive, what is offered, what came back; the
//! scheduling loop that consumes it lives in
//! [`JobManager`](crate::jobs::JobManager), and the correctness story
//! (any partition of tasks merges bit-identically) lives in
//! [`seg_shard::repartition`].
//!
//! Failure handling is epoch-based: every re-partition bumps the job's
//! epoch and replaces the *offered* (unclaimed) assignments. A worker
//! that dies or hangs after claiming simply stops heartbeating; once its
//! stamp ages past the timeout the epoch reports
//! [`EpochHealth::Stalled`], the coordinator counts a re-dispatch and
//! re-partitions. Uploads from superseded epochs are still accepted —
//! records are keyed by task index and deduplicated by the scheduling
//! loop, so a slow worker's work is never wasted, only its monopoly.

use seg_engine::ReplicaRecord;
use seg_obs::{json_number, json_string};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How often the coordinator's scheduling loop polls the registry.
pub(crate) const FLEET_POLL: Duration = Duration::from_millis(50);

/// One share of a job's missing tasks, offered to (or claimed by) a
/// worker.
#[derive(Clone, Debug)]
pub(crate) struct Assignment {
    /// The job the tasks belong to.
    pub(crate) job_id: String,
    /// The re-partition round that produced this share.
    pub(crate) epoch: u64,
    /// The job's normalized request document — everything a worker
    /// needs to rebuild the identical [`SweepSpec`](seg_engine::SweepSpec).
    pub(crate) request_json: String,
    /// The task indices to run.
    pub(crate) tasks: Vec<usize>,
    /// The job's distributed trace id — carried to the worker in the
    /// claim response so its spans correlate with the coordinator's.
    pub(crate) trace_id: String,
    /// The coordinator-side span the worker's spans should parent
    /// under (the job's `serve.job` span).
    pub(crate) parent_span_id: Option<String>,
}

/// A point-in-time row about one worker — the dashboard's fleet table.
#[derive(Clone, Debug)]
pub(crate) struct WorkerSummary {
    /// The worker id the coordinator minted at registration.
    pub(crate) id: String,
    /// Seconds since the worker's last heartbeat.
    pub(crate) age_secs: f64,
    /// Whether the worker currently holds an assignment.
    pub(crate) busy: bool,
    /// The worker's last reported engine replicas/s.
    pub(crate) replicas_per_sec: f64,
    /// The worker's last reported engine events/s.
    pub(crate) events_per_sec: f64,
}

#[derive(Debug)]
struct WorkerEntry {
    last_seen: Instant,
    /// The full claimed assignment, kept until its upload lands so a
    /// re-poll after a lost claim *response* gets the same share again
    /// (see [`FleetRegistry::claim`]).
    assignment: Option<Assignment>,
    replicas_per_sec: f64, // last heartbeat-reported stats
    events_per_sec: f64,
}

impl WorkerEntry {
    fn fresh() -> WorkerEntry {
        WorkerEntry {
            last_seen: Instant::now(),
            assignment: None,
            replicas_per_sec: 0.0,
            events_per_sec: 0.0,
        }
    }
}

#[derive(Debug)]
struct Offered {
    assignment: Assignment,
    at: Instant,
}

#[derive(Debug, Default)]
struct FleetState {
    next_id: u64,
    workers: BTreeMap<String, WorkerEntry>,
    offered: VecDeque<Offered>,
    uploads: BTreeMap<String, Vec<ReplicaRecord>>,
}

/// Where one re-partition epoch of a job stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EpochHealth {
    /// Every share was claimed and uploaded; recompute the missing set.
    Complete,
    /// Shares are offered or being worked by live workers.
    Working,
    /// A share is held by a worker whose heartbeat went stale, or sat
    /// unclaimed past the timeout — re-partition among the survivors.
    Stalled,
}

/// The handles fleet mode keeps in the process-wide [`seg_obs`]
/// registry.
#[derive(Debug)]
struct FleetMetrics {
    live: std::sync::Arc<seg_obs::Gauge>,
    redispatch: std::sync::Arc<seg_obs::Counter>,
    uploads: std::sync::Arc<seg_obs::Counter>,
    claim_latency: std::sync::Arc<seg_obs::Histogram>,
}

impl FleetMetrics {
    fn register() -> Self {
        let m = seg_obs::metrics();
        FleetMetrics {
            live: m.gauge(
                "fleet_workers_live",
                "registered workers with a heartbeat younger than the fleet timeout",
                &[],
            ),
            redispatch: m.counter(
                "fleet_shard_redispatch_total",
                "task shares re-partitioned because a worker died or went stale",
                &[],
            ),
            uploads: m.counter(
                "fleet_journal_records_total",
                "replica records accepted from worker journal uploads",
                &[],
            ),
            claim_latency: m.histogram(
                "fleet_claim_seconds",
                "time a share sat offered before a worker claimed it",
                &[],
                seg_obs::Histogram::LATENCY_BUCKETS,
            ),
        }
    }
}

/// The shared worker/assignment/upload state behind the
/// `/v1/workers/*` and `/v1/jobs/:id/journal` endpoints.
#[derive(Debug)]
pub(crate) struct FleetRegistry {
    timeout: Duration,
    state: Mutex<FleetState>,
    obs: FleetMetrics,
}

impl FleetRegistry {
    /// A registry declaring workers stale after `timeout` without a
    /// heartbeat.
    pub(crate) fn new(timeout: Duration) -> FleetRegistry {
        FleetRegistry {
            timeout,
            state: Mutex::new(FleetState::default()),
            obs: FleetMetrics::register(),
        }
    }

    /// The staleness window workers must heartbeat within.
    pub(crate) fn timeout(&self) -> Duration {
        self.timeout
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FleetState> {
        self.state.lock().expect("fleet state poisoned")
    }

    /// Registers a new worker and returns its id (`w1`, `w2`, ...).
    pub(crate) fn register(&self) -> String {
        let mut st = self.lock();
        st.next_id += 1;
        let id = format!("w{}", st.next_id);
        st.workers.insert(id.clone(), WorkerEntry::fresh());
        id
    }

    /// Refreshes a worker's heartbeat; `false` when the id is unknown
    /// (the worker should re-register).
    pub(crate) fn heartbeat(&self, id: &str) -> bool {
        match self.lock().workers.get_mut(id) {
            Some(w) => {
                w.last_seen = Instant::now();
                true
            }
            None => false,
        }
    }

    /// A worker asks for work (doubling as a heartbeat). `None` = the
    /// id is unknown; `Some(None)` = nothing offered right now;
    /// `Some(Some(a))` = the share is now claimed by this worker.
    ///
    /// Claims are **idempotent**: a worker that already holds a share
    /// gets the same share again. This matters on lossy networks — if
    /// the claim *response* is lost in transit the registry has marked
    /// the share claimed but the worker never saw it; without re-issue
    /// the epoch would read `Working` until the worker's heartbeats
    /// went stale too (they don't — heartbeats keep flowing), wedging
    /// the job. Re-running a share a second time is harmless: uploaded
    /// records dedupe by task index.
    pub(crate) fn claim(&self, id: &str) -> Option<Option<Assignment>> {
        let mut st = self.lock();
        match st.workers.get_mut(id) {
            None => return None,
            Some(w) => {
                w.last_seen = Instant::now();
                if let Some(held) = &w.assignment {
                    return Some(Some(held.clone()));
                }
            }
        }
        let offered = st.offered.pop_front();
        match offered {
            None => Some(None),
            Some(o) => {
                // offer-to-claim latency: how long the share waited for
                // a worker — the transport half of an epoch's wall time
                self.obs.claim_latency.observe(o.at.elapsed().as_secs_f64());
                st.workers.get_mut(id).expect("checked above").assignment =
                    Some(o.assignment.clone());
                Some(Some(o.assignment))
            }
        }
    }

    /// Ingests a worker's heartbeat-reported engine stats and re-exports
    /// them as `fleet_worker_*{worker=...}` gauges — the federation half
    /// of `GET /metrics` on the coordinator. Label cardinality is
    /// bounded by the number of worker registrations in the process
    /// lifetime (worker ids are coordinator-minted, never
    /// client-chosen). `false` when the id is unknown.
    pub(crate) fn note_stats(&self, id: &str, replicas_per_sec: f64, events_per_sec: f64) -> bool {
        {
            let mut st = self.lock();
            match st.workers.get_mut(id) {
                None => return false,
                Some(w) => {
                    w.replicas_per_sec = replicas_per_sec;
                    w.events_per_sec = events_per_sec;
                }
            }
        }
        let m = seg_obs::metrics();
        m.gauge(
            "fleet_worker_replicas_per_sec",
            "this worker's last reported engine replica throughput",
            &[("worker", id)],
        )
        .set(replicas_per_sec);
        m.gauge(
            "fleet_worker_events_per_sec",
            "this worker's last reported engine event throughput",
            &[("worker", id)],
        )
        .set(events_per_sec);
        true
    }

    /// Accepts a worker's uploaded records for a job (already parsed and
    /// spec-validated by the caller), clears the worker's claim, and
    /// returns how many records were queued for the scheduling loop.
    pub(crate) fn accept_upload(
        &self,
        worker: &str,
        job_id: &str,
        records: Vec<ReplicaRecord>,
    ) -> usize {
        let n = records.len();
        let mut st = self.lock();
        if let Some(w) = st.workers.get_mut(worker) {
            w.last_seen = Instant::now();
            w.assignment = None;
        }
        st.uploads
            .entry(job_id.to_string())
            .or_default()
            .extend(records);
        self.obs.uploads.add(n as u64);
        n
    }

    /// Drains the records uploaded for a job since the last call.
    pub(crate) fn take_uploads(&self, job_id: &str) -> Vec<ReplicaRecord> {
        self.lock().uploads.remove(job_id).unwrap_or_default()
    }

    /// The ids of workers with a fresh heartbeat, ascending. Also the
    /// metrics sweep: updates the live-worker gauge and each worker's
    /// heartbeat-age gauge (the [`mod@seg_obs::history`] scraper picks both
    /// up — the dashboard's fleet sparklines read them back from the
    /// unified history store), and forgets workers dead for over ten
    /// timeouts.
    pub(crate) fn live_workers(&self) -> Vec<String> {
        let mut st = self.lock();
        let now = Instant::now();
        let forget = self.timeout * 10;
        st.workers
            .retain(|_, w| now.duration_since(w.last_seen) < forget);
        let m = seg_obs::metrics();
        let mut live = Vec::new();
        for (id, w) in &mut st.workers {
            let age = now.duration_since(w.last_seen);
            m.gauge(
                "fleet_worker_heartbeat_seconds",
                "seconds since this worker's last heartbeat",
                &[("worker", id)],
            )
            .set(age.as_secs_f64());
            if age < self.timeout {
                live.push(id.clone());
            }
        }
        self.obs.live.set(live.len() as f64);
        live
    }

    /// One row per known worker for the dashboard's fleet table.
    pub(crate) fn worker_summaries(&self) -> Vec<WorkerSummary> {
        let st = self.lock();
        let now = Instant::now();
        st.workers
            .iter()
            .map(|(id, w)| WorkerSummary {
                id: id.clone(),
                age_secs: now.duration_since(w.last_seen).as_secs_f64(),
                busy: w.assignment.is_some(),
                replicas_per_sec: w.replicas_per_sec,
                events_per_sec: w.events_per_sec,
            })
            .collect()
    }

    /// Whether any worker has ever registered and not been forgotten.
    pub(crate) fn has_worker(&self) -> bool {
        !self.lock().workers.is_empty()
    }

    /// Waits up to the fleet timeout for a first worker to register
    /// (checking `drain` so a shutdown is not held up). Returns whether
    /// a worker is present.
    pub(crate) fn wait_for_worker(&self, drain: &AtomicBool) -> bool {
        let deadline = Instant::now() + self.timeout;
        loop {
            if self.has_worker() {
                return true;
            }
            if drain.load(Ordering::Relaxed) || Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(FLEET_POLL);
        }
    }

    /// Replaces the job's offered shares with a fresh epoch's partition.
    /// Claimed shares are untouched — their workers either upload (the
    /// records dedupe) or go stale (the next health check catches them).
    /// Empty shares are skipped. `trace_id` (and the coordinator-side
    /// parent span, when known) ride on every share so workers bind the
    /// job's distributed trace.
    pub(crate) fn dispatch(
        &self,
        job_id: &str,
        epoch: u64,
        request_json: &str,
        shares: Vec<Vec<usize>>,
        trace_id: &str,
        parent_span_id: Option<&str>,
    ) {
        let mut st = self.lock();
        st.offered.retain(|o| o.assignment.job_id != job_id);
        let at = Instant::now();
        for tasks in shares {
            if tasks.is_empty() {
                continue;
            }
            st.offered.push_back(Offered {
                assignment: Assignment {
                    job_id: job_id.to_string(),
                    epoch,
                    request_json: request_json.to_string(),
                    tasks,
                    trace_id: trace_id.to_string(),
                    parent_span_id: parent_span_id.map(str::to_string),
                },
                at,
            });
        }
    }

    /// Where the job's current epoch stands (see [`EpochHealth`]).
    pub(crate) fn epoch_health(&self, job_id: &str, epoch: u64) -> EpochHealth {
        let st = self.lock();
        let now = Instant::now();
        let offered: Vec<&Offered> = st
            .offered
            .iter()
            .filter(|o| o.assignment.job_id == job_id && o.assignment.epoch == epoch)
            .collect();
        if offered
            .iter()
            .any(|o| now.duration_since(o.at) >= self.timeout)
        {
            return EpochHealth::Stalled; // nobody claimed in time
        }
        let mut claimed = false;
        for w in st.workers.values() {
            if w.assignment
                .as_ref()
                .is_some_and(|a| a.job_id == job_id && a.epoch == epoch)
            {
                if now.duration_since(w.last_seen) >= self.timeout {
                    return EpochHealth::Stalled; // holder went dark
                }
                claimed = true;
            }
        }
        if offered.is_empty() && !claimed {
            EpochHealth::Complete
        } else {
            EpochHealth::Working
        }
    }

    /// Counts one re-dispatch in `fleet_shard_redispatch_total`.
    pub(crate) fn note_redispatch(&self) {
        self.obs.redispatch.inc();
    }

    /// The `GET /v1/workers` document: every known worker with its
    /// heartbeat age and claim state.
    pub(crate) fn workers_json(&self) -> String {
        let st = self.lock();
        let now = Instant::now();
        let entries: Vec<String> = st
            .workers
            .iter()
            .map(|(id, w)| {
                let mut s = format!(
                    "{{\"id\":{},\"age_secs\":{:.3},\"busy\":{},\"replicas_per_sec\":{}",
                    json_string(id),
                    now.duration_since(w.last_seen).as_secs_f64(),
                    w.assignment.is_some(),
                    json_number(w.replicas_per_sec),
                );
                if let Some(a) = &w.assignment {
                    s.push_str(&format!(
                        ",\"job\":{},\"epoch\":{}",
                        json_string(&a.job_id),
                        a.epoch
                    ));
                }
                s.push('}');
                s
            })
            .collect();
        format!(
            "{{\"timeout_secs\":{:.3},\"workers\":[{}]}}",
            self.timeout.as_secs_f64(),
            entries.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(timeout_ms: u64) -> FleetRegistry {
        FleetRegistry::new(Duration::from_millis(timeout_ms))
    }

    #[test]
    fn register_heartbeat_and_claim_cycle() {
        let f = registry(200);
        assert!(!f.has_worker());
        let id = f.register();
        assert_eq!(id, "w1");
        assert!(f.heartbeat(&id));
        assert!(!f.heartbeat("w99"));
        assert!(f.claim(&id).unwrap().is_none());
        assert!(f.claim("w99").is_none());
        f.dispatch("job", 1, "{}", vec![vec![0, 2], vec![1]], "t1", None);
        let a = f.claim(&id).unwrap().unwrap();
        assert_eq!(a.tasks, vec![0, 2]);
        assert_eq!(a.epoch, 1);
        assert_eq!(a.trace_id, "t1");
        assert_eq!(a.parent_span_id, None);
        assert_eq!(f.epoch_health("job", 1), EpochHealth::Working);
        assert_eq!(f.live_workers(), vec!["w1".to_string()]);
    }

    #[test]
    fn stale_claim_holder_stalls_the_epoch() {
        let f = registry(50);
        let id = f.register();
        f.dispatch("job", 1, "{}", vec![vec![0]], "t1", None);
        let _ = f.claim(&id).unwrap().unwrap();
        assert_eq!(f.epoch_health("job", 1), EpochHealth::Working);
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(f.epoch_health("job", 1), EpochHealth::Stalled);
        assert!(f.live_workers().is_empty());
    }

    #[test]
    fn unclaimed_offer_goes_stale_and_dispatch_replaces_offers() {
        let f = registry(50);
        let _ = f.register();
        f.dispatch("job", 1, "{}", vec![vec![0], vec![]], "t1", None);
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(f.epoch_health("job", 1), EpochHealth::Stalled);
        f.dispatch("job", 2, "{}", vec![vec![0]], "t1", None);
        assert_eq!(f.epoch_health("job", 2), EpochHealth::Working);
        // epoch 1's offers are gone; with nothing offered or claimed it
        // reads complete
        assert_eq!(f.epoch_health("job", 1), EpochHealth::Complete);
    }

    #[test]
    fn reclaim_after_a_lost_response_returns_the_held_share() {
        let f = registry(200);
        let id = f.register();
        f.dispatch("job", 1, "{}", vec![vec![0, 1]], "t1", None);
        let first = f.claim(&id).unwrap().unwrap();
        // the response was lost: the worker polls again and must get
        // the same share back, not idle, or the epoch wedges
        let again = f.claim(&id).unwrap().unwrap();
        assert_eq!(again.tasks, first.tasks);
        assert_eq!(again.epoch, first.epoch);
        assert_eq!(again.job_id, first.job_id);
        // the upload clears it; the next claim is genuinely idle
        f.accept_upload(&id, "job", Vec::new());
        assert!(f.claim(&id).unwrap().is_none());
    }

    #[test]
    fn uploads_queue_and_drain_and_clear_the_claim() {
        let f = registry(200);
        let id = f.register();
        f.dispatch("job", 1, "{}", vec![vec![0]], "t1", None);
        let _ = f.claim(&id).unwrap().unwrap();
        assert_eq!(f.accept_upload(&id, "job", Vec::new()), 0);
        assert_eq!(f.epoch_health("job", 1), EpochHealth::Complete);
        assert!(f.take_uploads("job").is_empty());
        assert!(f.workers_json().contains("\"busy\":false"));
    }

    #[test]
    fn worker_stats_federate_into_gauges_and_history() {
        let f = registry(200);
        let id = f.register();
        assert!(!f.note_stats("w99", 1.0, 2.0));
        assert!(f.note_stats(&id, 12.5, 4_000.0));
        let rendered = seg_obs::metrics().render();
        assert!(
            rendered.contains(&format!(
                "fleet_worker_replicas_per_sec{{worker=\"{id}\"}} 12.5"
            )),
            "missing federated gauge in:\n{rendered}"
        );
        assert!(f.workers_json().contains("\"replicas_per_sec\":12.5"));
        // the live_workers sweep refreshes the heartbeat-age gauge, and
        // a history scrape then retains it as a time series — the path
        // the dashboard's fleet sparklines read
        f.live_workers();
        let h = seg_obs::History::new();
        h.scrape_once(seg_obs::metrics());
        let series = h.query(
            "fleet_worker_replicas_per_sec",
            Some(&[("worker".to_string(), id.clone())]),
            0,
        );
        assert_eq!(series.len(), 1);
        assert!(matches!(
            series[0].1.last().unwrap().value,
            seg_obs::history::Value::Gauge(v) if v == 12.5
        ));
        assert_eq!(
            h.query(
                "fleet_worker_heartbeat_seconds",
                Some(&[("worker".to_string(), id.clone())]),
                0,
            )
            .len(),
            1
        );
        // claim latency lands in the fleet_claim_seconds histogram
        let before = seg_obs::metrics()
            .histogram(
                "fleet_claim_seconds",
                "time a share sat offered before a worker claimed it",
                &[],
                seg_obs::Histogram::LATENCY_BUCKETS,
            )
            .snapshot()
            .count;
        f.dispatch("job", 1, "{}", vec![vec![0]], "t1", Some("sp"));
        let a = f.claim(&id).unwrap().unwrap();
        assert_eq!(a.parent_span_id.as_deref(), Some("sp"));
        let after = seg_obs::metrics()
            .histogram(
                "fleet_claim_seconds",
                "time a share sat offered before a worker claimed it",
                &[],
                seg_obs::Histogram::LATENCY_BUCKETS,
            )
            .snapshot()
            .count;
        assert_eq!(after, before + 1);
    }
}
