//! Job lifecycle: explicit deletion, the TTL sweep, and the LRU byte
//! bound on the data directory.
//!
//! The fingerprint cache ([`crate::jobs`]) only ever grows; this module
//! is what keeps a long-lived server's `--data` dir bounded:
//!
//! - `DELETE /v1/jobs/:id` removes a finished job on request;
//! - `--job-ttl SECS` evicts finished jobs nobody has touched for that
//!   long;
//! - `--data-max-bytes N` evicts the least-recently-used finished jobs
//!   until the job directories fit the bound.
//!
//! All three share one invariant: **queued and running jobs are never
//! removed** — eviction only touches `done`/`failed` jobs, whose
//! artifacts are reproducible by construction (a resubmit of the same
//! spec recomputes byte-identical rows, it is simply a cache miss
//! instead of a hit). [`JobManager::enforce_lifecycle`] runs from the
//! server's background sweeper every 500 ms and, when a TTL or a byte
//! bound is set, after every job completion; it keeps
//! `serve_data_bytes` / `serve_jobs_evicted_total` current.
//!
//! Sizing is per finished job: a done or failed job's directory never
//! changes, so it is walked once, the first time the job is seen
//! finished, and its size is remembered on the [`Job`]. Only queued and
//! running jobs are walked on every pass. A removed job also takes its
//! per-job history series with it.

use crate::jobs::{Job, JobManager, JobState};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// What `DELETE /v1/jobs/:id` found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeleteOutcome {
    /// The job and its directory are gone (200).
    Deleted,
    /// No such job (404).
    NotFound,
    /// The job is queued or running — finish or drain first (409).
    Busy,
}

/// Bytes held by the files directly inside a job directory (the layout
/// is flat: `request.json`, `ck.jsonl`, `rows.jsonl`, `done.json`).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// A job directory's size: walked while the job is live, remembered the
/// first time it is seen finished ([`Job::set_state`] forgets it when a
/// failed job's retry goes live again).
fn job_bytes(job: &Job) -> u64 {
    let mut cached = job.finished_bytes.lock().expect("job size poisoned");
    if let Some(bytes) = *cached {
        return bytes;
    }
    // the state is read under the size lock, so a concurrent requeue
    // clears whatever this stores
    let finished = evictable(job);
    let bytes = dir_bytes(&job.dir);
    if finished {
        *cached = Some(bytes);
    }
    bytes
}

/// Only finished jobs may leave: a queued job is still owed to its
/// submitter and a running job's journals are live file handles.
fn evictable(job: &Job) -> bool {
    matches!(job.state(), JobState::Done | JobState::Failed(_))
}

impl JobManager {
    /// Removes a finished job and its directory. Queued/running jobs
    /// are refused ([`DeleteOutcome::Busy`]) — they hold admission
    /// slots and live file handles.
    pub(crate) fn delete(&self, id: &str) -> DeleteOutcome {
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        let Some(job) = jobs.get(id).cloned() else {
            return DeleteOutcome::NotFound;
        };
        if !evictable(&job) {
            return DeleteOutcome::Busy;
        }
        jobs.remove(id);
        // deleting while holding the lock keeps a concurrent resubmit
        // from recreating the directory under our feet
        if let Err(e) = std::fs::remove_dir_all(&job.dir) {
            eprintln!("serve: deleting job {}: {e}", job.id);
        }
        job.forget_history();
        let total: u64 = jobs.values().map(|j| job_bytes(j)).sum();
        self.obs.data_bytes.set(total as f64);
        eprintln!("serve: job {} deleted", job.id);
        DeleteOutcome::Deleted
    }

    /// Applies the TTL sweep and the byte bound, refreshes the
    /// `serve_data_bytes` gauge, and returns the value it published.
    /// Called periodically from the server's sweeper thread, and after
    /// every job completion when a bound is set; walks only the live
    /// jobs' directories.
    pub(crate) fn enforce_lifecycle(&self) -> u64 {
        let mut jobs = self.jobs.lock().expect("jobs poisoned");
        let mut sized: Vec<(Arc<Job>, u64)> =
            jobs.values().map(|j| (j.clone(), job_bytes(j))).collect();
        let mut total: u64 = sized.iter().map(|(_, b)| b).sum();

        let mut evicted: Vec<Arc<Job>> = Vec::new();
        if let Some(ttl) = self.job_ttl {
            sized.retain(|(job, bytes)| {
                if evictable(job) && job.idle_for() > ttl {
                    total -= bytes;
                    evicted.push(job.clone());
                    false
                } else {
                    true
                }
            });
        }
        if let Some(bound) = self.data_max_bytes {
            // least recently used goes first; ties keep map order
            let mut candidates: Vec<(Arc<Job>, u64, Duration)> = sized
                .iter()
                .filter(|(job, _)| evictable(job))
                .map(|(job, bytes)| (job.clone(), *bytes, job.idle_for()))
                .collect();
            candidates.sort_by_key(|(_, _, idle)| std::cmp::Reverse(*idle));
            let mut next = candidates.into_iter();
            while total > bound {
                let Some((job, bytes, _)) = next.next() else {
                    break; // everything left is queued or running
                };
                total -= bytes;
                evicted.push(job);
            }
        }
        for job in &evicted {
            jobs.remove(&job.id);
            if let Err(e) = std::fs::remove_dir_all(&job.dir) {
                eprintln!("serve: evicting job {}: {e}", job.id);
            }
            job.forget_history();
            self.obs.jobs_evicted.inc();
            eprintln!("serve: job {} evicted ({})", job.id, job.state().label());
        }
        self.obs.data_bytes.set(total as f64);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{SubmitOutcome, SweepRequest};
    use seg_obs::Json;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("seg_serve_lifecycle").join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(seed: u64) -> SweepRequest {
        SweepRequest::from_json(
            &Json::parse(&format!(
                r#"{{"side": 24, "horizon": 1, "tau": 0.4, "replicas": 2,
                    "seed": {seed}, "max_events": 150}}"#
            ))
            .unwrap(),
        )
        .unwrap()
    }

    /// Submit + run one job to completion, returning its id and rows.
    fn run_one(mgr: &JobManager, seed: u64) -> (String, Vec<u8>) {
        let (job, outcome) = mgr.submit_as(request(seed), None, None).unwrap().unwrap();
        assert_eq!(outcome, SubmitOutcome::Fresh);
        mgr.run_job_for_test(&job);
        assert_eq!(job.state(), JobState::Done);
        (job.id.clone(), std::fs::read(job.rows_path()).unwrap())
    }

    #[test]
    fn delete_refuses_live_jobs_and_removes_finished_ones() {
        let mgr = JobManager::new(tmp("delete"), 1).unwrap();
        let (queued, _) = mgr.submit_as(request(1), None, None).unwrap().unwrap();
        assert_eq!(mgr.delete(&queued.id), DeleteOutcome::Busy);
        assert_eq!(mgr.delete("ffffffffffffffff"), DeleteOutcome::NotFound);

        let (id, rows) = run_one(&mgr, 2);
        let dir = mgr.get(&id).unwrap().dir.clone();
        assert_eq!(mgr.delete(&id), DeleteOutcome::Deleted);
        assert!(mgr.get(&id).is_none());
        assert!(!dir.exists());

        // a resubmit is a plain cache miss that recomputes identically
        let (job, outcome) = mgr.submit_as(request(2), None, None).unwrap().unwrap();
        assert_eq!(outcome, SubmitOutcome::Fresh);
        mgr.run_job_for_test(&job);
        assert_eq!(std::fs::read(job.rows_path()).unwrap(), rows);
    }

    #[test]
    fn byte_bound_evicts_lru_done_jobs_but_never_live_ones() {
        let dir = tmp("byte_bound");
        // size one finished job, then bound the dir to roughly three
        let probe = JobManager::new(dir.clone(), 1).unwrap();
        let (first_id, first_rows) = run_one(&probe, 0);
        let job_bytes = dir_bytes(&probe.get(&first_id).unwrap().dir);
        assert!(job_bytes > 0);
        drop(probe);

        let bound = job_bytes * 3 + job_bytes / 2;
        let mgr = JobManager::new(dir.clone(), 1)
            .unwrap()
            .with_lifecycle(None, Some(bound));
        mgr.recover().unwrap();

        // a queued job sits in the dir the whole time and must survive
        let (queued, _) = mgr.submit_as(request(100), None, None).unwrap().unwrap();

        for seed in 1..6 {
            // touch order = seed order, so eviction order is too
            std::thread::sleep(Duration::from_millis(5));
            run_one(&mgr, seed);
        }
        let survivors: Vec<String> = mgr.jobs_snapshot().iter().map(|j| j.id.clone()).collect();
        let total: u64 = mgr.jobs_snapshot().iter().map(|j| dir_bytes(&j.dir)).sum();
        assert!(
            total <= bound,
            "data dir holds {total} bytes, bound is {bound}"
        );
        assert!(
            survivors.contains(&queued.id),
            "queued job was evicted: {survivors:?}"
        );
        assert!(
            !survivors.contains(&first_id),
            "oldest done job survived: {survivors:?}"
        );

        // a running job is untouchable even when it breaks the bound
        let running = mgr.jobs_snapshot()[0].clone();
        *running.state.lock().unwrap() = JobState::Running;
        mgr.enforce_lifecycle();
        assert!(
            mgr.get(&running.id).is_some(),
            "running job evicted by the byte bound"
        );
        *running.state.lock().unwrap() = JobState::Done;

        // the evicted first job recomputes byte-identically
        let (job, outcome) = mgr.submit_as(request(0), None, None).unwrap().unwrap();
        assert_eq!(outcome, SubmitOutcome::Fresh, "evicted job still cached");
        mgr.run_job_for_test(&job);
        assert_eq!(
            std::fs::read(job.rows_path()).unwrap(),
            first_rows,
            "recomputed rows differ"
        );
    }

    #[test]
    fn ttl_sweep_reaps_idle_finished_jobs() {
        let mgr = JobManager::new(tmp("ttl"), 1)
            .unwrap()
            .with_lifecycle(Some(Duration::from_millis(30)), None);
        let (id, _) = run_one(&mgr, 7);
        let (fresh_queued, _) = mgr.submit_as(request(8), None, None).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        mgr.enforce_lifecycle();
        assert!(mgr.get(&id).is_none(), "idle done job survived its TTL");
        assert!(
            mgr.get(&fresh_queued.id).is_some(),
            "queued job reaped by TTL"
        );
    }

    /// Bytes under `data_dir/jobs`, walked fresh from disk.
    fn walk(data_dir: &Path) -> u64 {
        std::fs::read_dir(data_dir.join("jobs"))
            .unwrap()
            .map(|e| dir_bytes(&e.unwrap().path()))
            .sum()
    }

    #[test]
    fn published_bytes_match_a_fresh_walk_after_every_lifecycle_step() {
        let dir = tmp("sizes");
        let mut mgr = JobManager::new(dir.clone(), 1).unwrap();
        // completions, plus a queued job that is sized live
        let (first, _) = run_one(&mgr, 200);
        let (second, _) = run_one(&mgr, 201);
        run_one(&mgr, 202);
        mgr.submit_as(request(203), None, None).unwrap().unwrap();
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));

        // a running job is walked on every pass while its journal grows
        let (live, _) = mgr.submit_as(request(205), None, None).unwrap().unwrap();
        live.set_state(JobState::Running);
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));
        std::fs::write(live.dir.join("ck.jsonl"), "grown\n").unwrap();
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));
        live.set_state(JobState::Done);
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));

        assert_eq!(mgr.delete(&first), DeleteOutcome::Deleted);
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));

        // a bound just under the current total evicts the LRU done job
        mgr.data_max_bytes = Some(walk(&dir) - 1);
        mgr.enforce_lifecycle();
        assert!(mgr.get(&second).is_none(), "nothing was evicted");
        mgr.data_max_bytes = None;
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));

        // a job fails on a foreign rows file and is sized as finished...
        let (job, _) = mgr.submit_as(request(204), None, None).unwrap().unwrap();
        std::fs::write(job.rows_path(), "{\"not\":\"this sweep\"}\n").unwrap();
        mgr.run_job_for_test(&job);
        assert!(matches!(job.state(), JobState::Failed(_)));
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));
        // ...then its retry goes live and grows: no stale size survives
        std::fs::remove_file(job.rows_path()).unwrap();
        let (retry, outcome) = mgr.submit_as(request(204), None, None).unwrap().unwrap();
        assert_eq!(outcome, SubmitOutcome::Fresh);
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));
        mgr.run_job_for_test(&retry);
        assert_eq!(retry.state(), JobState::Done);
        assert_eq!(mgr.enforce_lifecycle(), walk(&dir));
    }

    #[test]
    fn deleted_and_evicted_jobs_take_their_history_with_them() {
        let series = |id: &str| {
            let labels = [("job".to_string(), id.to_string())];
            let h = seg_obs::history();
            h.query("serve_job_replicas_per_sec", Some(&labels), 0)
                .len()
                + h.query("serve_job_events_per_sec", Some(&labels), 0).len()
        };
        let mut mgr = JobManager::new(tmp("history"), 1).unwrap();
        let (deleted, _) = run_one(&mgr, 210);
        let (evicted, _) = run_one(&mgr, 211);
        assert_eq!((series(&deleted), series(&evicted)), (2, 2));

        assert_eq!(mgr.delete(&deleted), DeleteOutcome::Deleted);
        assert_eq!((series(&deleted), series(&evicted)), (0, 2));

        mgr.job_ttl = Some(Duration::ZERO);
        mgr.enforce_lifecycle();
        assert!(mgr.get(&evicted).is_none(), "TTL did not evict");
        assert_eq!(series(&evicted), 0);
    }
}
