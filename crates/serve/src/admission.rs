//! Admission control: who may create fresh work, and how much.
//!
//! Two independent gates run inside [`crate::jobs::JobManager::submit_as`],
//! under the jobs lock, so the check and the reject are atomic:
//!
//! - **per-client quota** — each API key (or the anonymous tier) may
//!   hold at most N fresh jobs in flight (queued + running). Cache
//!   hits and joins of already-running jobs are always admitted: they
//!   cost the server nothing new.
//! - **queue-depth backpressure** — once the job queue holds
//!   `max_queue` entries, every fresh submission is refused with
//!   `429 Too Many Requests` and a `Retry-After` hint sized to the
//!   backlog, instead of accepting unboundedly until the disk fills.
//!
//! Key files (`--api-keys FILE`) are one `<key> [max_in_flight]` pair
//! per line, `#` comments and blank lines ignored. The pseudo-key
//! `anonymous` sets the keyless tier's quota; when a key file is
//! present but has no `anonymous` line, keyless clients get
//! [`DEFAULT_ANONYMOUS_QUOTA`]. Without a key file everything runs in
//! one unlimited anonymous tier (the open default the integration
//! tests rely on).
//!
//! Every rejection increments
//! `serve_admission_rejected_total{reason="quota"|"queue_full"|"unknown_key"}`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The keyless tier's in-flight quota when a key file is present but
/// does not spell out an `anonymous` line.
pub(crate) const DEFAULT_ANONYMOUS_QUOTA: u32 = 2;

/// The default queue-depth backpressure threshold (`--max-queue`).
pub(crate) const DEFAULT_MAX_QUEUE: usize = 256;

/// The client label used for requests that carry no `X-Api-Key`.
pub(crate) const ANONYMOUS: &str = "anonymous";

/// The `X-Api-Key` header named a key the key file does not list
/// (the 401 path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownKey;

/// Why a submission was refused admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The client already holds its quota of in-flight jobs (429).
    Quota {
        /// The client's configured in-flight limit.
        limit: u32,
        /// Seconds the client should wait before retrying.
        retry_after: u64,
    },
    /// The job queue is at `max_queue` (429).
    QueueFull {
        /// The queue depth at rejection time.
        depth: usize,
        /// Seconds the client should wait before retrying.
        retry_after: u64,
    },
}

impl Rejection {
    /// The `Retry-After` header value, seconds.
    pub(crate) fn retry_after(&self) -> u64 {
        match self {
            Rejection::Quota { retry_after, .. } | Rejection::QueueFull { retry_after, .. } => {
                *retry_after
            }
        }
    }

    /// The human-readable 429 body message.
    pub(crate) fn message(&self) -> String {
        match self {
            Rejection::Quota { limit, .. } => {
                format!("quota exceeded: at most {limit} in-flight job(s) per client")
            }
            Rejection::QueueFull { depth, .. } => {
                format!("queue full ({depth} job(s) waiting), retry later")
            }
        }
    }
}

/// Per-client quotas plus the queue-depth gate, shared by every
/// connection handler through the job manager.
#[derive(Debug)]
pub struct AdmissionControl {
    /// `key -> max in-flight`; `None` per key means unlimited.
    tiers: BTreeMap<String, Option<u32>>,
    /// The keyless tier's limit (`None` = unlimited, the no-key-file
    /// default).
    anonymous_limit: Option<u32>,
    /// Whether unknown keys are rejected (true iff a key file was
    /// given).
    strict_keys: bool,
    max_queue: usize,
    inflight: Mutex<BTreeMap<String, u32>>,
    obs: AdmissionMetrics,
}

#[derive(Debug)]
struct AdmissionMetrics {
    rejected_quota: Arc<seg_obs::Counter>,
    rejected_queue: Arc<seg_obs::Counter>,
    rejected_key: Arc<seg_obs::Counter>,
}

impl AdmissionMetrics {
    fn register() -> Self {
        let m = seg_obs::metrics();
        let help = "submissions refused by admission control";
        AdmissionMetrics {
            rejected_quota: m.counter(
                "serve_admission_rejected_total",
                help,
                &[("reason", "quota")],
            ),
            rejected_queue: m.counter(
                "serve_admission_rejected_total",
                help,
                &[("reason", "queue_full")],
            ),
            rejected_key: m.counter(
                "serve_admission_rejected_total",
                help,
                &[("reason", "unknown_key")],
            ),
        }
    }
}

impl Default for AdmissionControl {
    /// The open default: one unlimited anonymous tier,
    /// `DEFAULT_MAX_QUEUE` backpressure.
    fn default() -> Self {
        AdmissionControl {
            tiers: BTreeMap::new(),
            anonymous_limit: None,
            strict_keys: false,
            max_queue: DEFAULT_MAX_QUEUE,
            inflight: Mutex::new(BTreeMap::new()),
            obs: AdmissionMetrics::register(),
        }
    }
}

impl AdmissionControl {
    /// Admission with an explicit queue threshold and optional key
    /// file (see the module docs for the file format).
    ///
    /// # Errors
    ///
    /// I/O errors reading the key file, or a line that is not
    /// `<key> [limit]`.
    pub fn new(max_queue: usize, api_keys: Option<&Path>) -> io::Result<AdmissionControl> {
        let mut ctl = AdmissionControl {
            max_queue,
            ..AdmissionControl::default()
        };
        if let Some(path) = api_keys {
            let text = std::fs::read_to_string(path)?;
            ctl.strict_keys = true;
            ctl.anonymous_limit = Some(DEFAULT_ANONYMOUS_QUOTA);
            for (lineno, raw) in text.lines().enumerate() {
                let line = raw.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split_whitespace();
                let key = parts.next().expect("non-empty line").to_string();
                let limit = match parts.next() {
                    None => None,
                    Some(n) => Some(n.parse::<u32>().map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{}:{}: bad quota {n:?} (want <key> [max_in_flight])",
                                path.display(),
                                lineno + 1
                            ),
                        )
                    })?),
                };
                if parts.next().is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{}:{}: want <key> [max_in_flight]",
                            path.display(),
                            lineno + 1
                        ),
                    ));
                }
                if key == ANONYMOUS {
                    ctl.anonymous_limit = limit;
                } else {
                    ctl.tiers.insert(key, limit);
                }
            }
        }
        Ok(ctl)
    }

    /// Maps an `X-Api-Key` header to a client label, rejecting unknown
    /// keys when a key file is configured (the 401 path — counted as
    /// `reason="unknown_key"`).
    ///
    /// # Errors
    ///
    /// [`UnknownKey`] when the key is not in the key file.
    pub fn resolve(&self, api_key: Option<&str>) -> Result<String, UnknownKey> {
        match api_key {
            None => Ok(ANONYMOUS.to_string()),
            Some(key) if !self.strict_keys => {
                // no key file: keys are accepted but everything shares
                // the anonymous tier's (unlimited) quota
                let _ = key;
                Ok(ANONYMOUS.to_string())
            }
            Some(key) if self.tiers.contains_key(key) => Ok(key.to_string()),
            Some(_) => {
                self.obs.rejected_key.inc();
                Err(UnknownKey)
            }
        }
    }

    fn limit_of(&self, client: &str) -> Option<u32> {
        if client == ANONYMOUS {
            self.anonymous_limit
        } else {
            self.tiers.get(client).copied().flatten()
        }
    }

    /// Runs both gates for a would-be-fresh job. On success the
    /// client's in-flight count is incremented; the caller must
    /// `AdmissionControl::release` it when the job leaves the
    /// queued/running states.
    ///
    /// # Errors
    ///
    /// The [`Rejection`] the API layer turns into a 429.
    pub fn admit_fresh(&self, client: &str, queue_depth: usize) -> Result<(), Rejection> {
        if queue_depth >= self.max_queue {
            self.obs.rejected_queue.inc();
            return Err(Rejection::QueueFull {
                depth: queue_depth,
                retry_after: (1 + queue_depth as u64 / 4).clamp(1, 60),
            });
        }
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        let held = inflight.get(client).copied().unwrap_or(0);
        if let Some(limit) = self.limit_of(client) {
            if held >= limit {
                self.obs.rejected_quota.inc();
                return Err(Rejection::Quota {
                    limit,
                    retry_after: 5,
                });
            }
        }
        *inflight.entry(client.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Returns a client's admission slot once its job finishes (or
    /// fails, or is drained).
    pub(crate) fn release(&self, client: &str) {
        let mut inflight = self.inflight.lock().expect("inflight poisoned");
        match inflight.get_mut(client) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                inflight.remove(client);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_file(contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("seg_serve_admission");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("keys_{:x}.txt", {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            contents.hash(&mut h);
            h.finish()
        }));
        std::fs::write(&path, contents).unwrap();
        path
    }

    /// A client's current in-flight count.
    fn held(ctl: &AdmissionControl, client: &str) -> u32 {
        ctl.inflight
            .lock()
            .unwrap()
            .get(client)
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn open_default_admits_everything_up_to_the_queue_bound() {
        let ctl = AdmissionControl::default();
        assert_eq!(ctl.resolve(None).unwrap(), ANONYMOUS);
        assert_eq!(ctl.resolve(Some("whatever")).unwrap(), ANONYMOUS);
        for _ in 0..100 {
            ctl.admit_fresh(ANONYMOUS, 0).unwrap();
        }
        let err = ctl.admit_fresh(ANONYMOUS, DEFAULT_MAX_QUEUE).unwrap_err();
        assert!(matches!(err, Rejection::QueueFull { .. }));
        assert!(err.retry_after() >= 1);
    }

    #[test]
    fn key_file_sets_tiers_and_rejects_unknown_keys() {
        let path = key_file("# team keys\nalpha 3\nbeta   # unlimited\nanonymous 1\n\ngamma 0\n");
        let ctl = AdmissionControl::new(8, Some(&path)).unwrap();
        assert_eq!(ctl.resolve(Some("alpha")).unwrap(), "alpha");
        assert!(ctl.resolve(Some("nope")).is_err());
        assert_eq!(ctl.resolve(None).unwrap(), ANONYMOUS);

        // alpha: three slots, then quota
        for _ in 0..3 {
            ctl.admit_fresh("alpha", 0).unwrap();
        }
        let err = ctl.admit_fresh("alpha", 0).unwrap_err();
        assert!(matches!(err, Rejection::Quota { limit: 3, .. }), "{err:?}");
        ctl.release("alpha");
        ctl.admit_fresh("alpha", 0).unwrap();

        // beta is unlimited; gamma may hold nothing; anonymous got 1
        for _ in 0..50 {
            ctl.admit_fresh("beta", 0).unwrap();
        }
        assert!(ctl.admit_fresh("gamma", 0).is_err());
        ctl.admit_fresh(ANONYMOUS, 0).unwrap();
        assert!(ctl.admit_fresh(ANONYMOUS, 0).is_err());
        assert_eq!(held(&ctl, "beta"), 50);
    }

    #[test]
    fn anonymous_defaults_to_a_small_quota_when_keys_exist() {
        let path = key_file("alpha 3\n");
        let ctl = AdmissionControl::new(8, Some(&path)).unwrap();
        for _ in 0..DEFAULT_ANONYMOUS_QUOTA {
            ctl.admit_fresh(ANONYMOUS, 0).unwrap();
        }
        assert!(ctl.admit_fresh(ANONYMOUS, 0).is_err());
    }

    #[test]
    fn malformed_key_files_are_refused() {
        for bad in ["alpha notanumber\n", "alpha 3 extra\n"] {
            let path = key_file(bad);
            assert!(AdmissionControl::new(8, Some(&path)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn release_never_underflows() {
        let ctl = AdmissionControl::default();
        ctl.release("ghost");
        ctl.admit_fresh("x", 0).unwrap();
        ctl.release("x");
        ctl.release("x");
        assert_eq!(held(&ctl, "x"), 0);
    }
}
