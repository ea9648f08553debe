//! Pluggable per-replica observers.
//!
//! Observers attach measurements (and optional file artifacts) to each
//! replica as it finishes, on the worker thread that ran it. They must be
//! deterministic functions of the replica's final state so that sweep
//! output stays independent of thread count.

use crate::replica::{columns, FinalState};
use crate::spec::ReplicaTask;
use seg_analysis::ppm::{figure1_frame, type_frame};
use seg_grid::rng::Xoshiro256pp;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A custom observer: maps a finished replica to named metric values.
pub(crate) type CustomFn =
    dyn Fn(&ReplicaTask, &FinalState, &mut Xoshiro256pp) -> Vec<(String, f64)> + Send + Sync;

/// What to measure or save for every replica of a sweep.
#[derive(Clone)]
pub enum Observer {
    /// Terminal configuration statistics via [`seg_core::metrics`]:
    /// some of `unhappy`, `happy_fraction`, `interface`,
    /// `largest_cluster` and `plus_fraction`, as the variant's row of the
    /// column table in the engine's `replica` module declares (the paper
    /// variant writes all five, the ring variants and `Probe` none).
    TerminalStats,
    /// Final-configuration snapshot via [`seg_analysis::ppm`], written as
    /// `snap_p{point}_r{replica}.ppm` under `dir` (Figure 1 colors for
    /// the paper variant, plain type colors otherwise).
    Snapshot {
        /// Output directory (created if absent).
        dir: PathBuf,
    },
    /// A caller-supplied measurement, built with
    /// [`Observer::custom_named`]. The closure receives a replica-seeded
    /// RNG so randomized estimators stay deterministic per task.
    ///
    /// The observer declares its metric columns up front, which is what
    /// lets a streaming CSV sink predict its header; the closure may
    /// only insert declared names ([`Observer::apply`] rejects others).
    Custom {
        /// The measurement closure.
        f: Arc<CustomFn>,
        /// Declared metric names.
        names: Arc<[String]>,
    },
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Observer::TerminalStats => f.write_str("TerminalStats"),
            Observer::Snapshot { dir } => f.debug_struct("Snapshot").field("dir", dir).finish(),
            Observer::Custom { names, .. } => f
                .debug_struct("Custom")
                .field("names", names)
                .finish_non_exhaustive(),
        }
    }
}

impl Observer {
    /// Wraps a closure as a [`Observer::Custom`] that declares its
    /// metric names up front, which makes it streamable to CSV
    /// ([`crate::sink::expected_metric_columns`] includes `names` in the
    /// predicted header).
    ///
    /// The declaration is a contract: [`Observer::apply`] fails with
    /// [`io::ErrorKind::InvalidData`] if the closure ever returns a
    /// metric outside `names`, so the streamed header can never silently
    /// drop a column. Declared-but-unproduced names are allowed: their
    /// cells render empty.
    pub fn custom_named<I, F>(names: I, f: F) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
        F: Fn(&ReplicaTask, &FinalState, &mut Xoshiro256pp) -> Vec<(String, f64)>
            + Send
            + Sync
            + 'static,
    {
        Observer::Custom {
            f: Arc::new(f),
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// The metric names this observer adds to a replica of `variant` (an
    /// [`Observer::Custom`] returns its declaration); used to predict
    /// sink columns up front for streaming CSV output. TerminalStats'
    /// names come from the same table its writes go through.
    pub(crate) fn metric_names(&self, variant: &crate::spec::Variant) -> Vec<String> {
        match self {
            Observer::TerminalStats => columns(variant).1.iter().map(|s| s.to_string()).collect(),
            // artifact-only observers add no metrics
            Observer::Snapshot { .. } => vec![],
            Observer::Custom { names, .. } => names.to_vec(),
        }
    }

    /// Applies this observer to a finished replica, inserting its metrics.
    ///
    /// # Errors
    ///
    /// I/O errors from artifact output, and
    /// [`io::ErrorKind::InvalidData`] when a [`Observer::custom_named`]
    /// closure returns a metric outside its declaration.
    pub fn apply(
        &self,
        task: &ReplicaTask,
        state: &FinalState,
        metrics: &mut BTreeMap<String, f64>,
    ) -> io::Result<()> {
        match self {
            Observer::TerminalStats => {
                state.terminal_stats(metrics);
                Ok(())
            }
            Observer::Snapshot { dir } => {
                let image = match state {
                    FinalState::Grid(sim) => Some(figure1_frame(sim)),
                    other => other.field().map(type_frame),
                };
                if let Some(image) = image {
                    std::fs::create_dir_all(dir)?;
                    image.save_ppm(&artifact_path(dir, task, "snap", "ppm"))?;
                }
                Ok(())
            }
            Observer::Custom { f, names } => {
                // salt the replica seed so observer draws never overlap the
                // dynamics' stream
                let mut rng = Xoshiro256pp::seed_from_u64(task.seed ^ 0x0B5E_7AE5_u64);
                for (k, v) in f(task, state, &mut rng) {
                    if !names.iter().any(|d| d == &k) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "custom observer produced undeclared metric `{k}` \
                                 (declared: {names:?}); the declaration is what a \
                                 streaming CSV header was built from"
                            ),
                        ));
                    }
                    metrics.insert(k, v);
                }
                Ok(())
            }
        }
    }
}

fn artifact_path(dir: &Path, task: &ReplicaTask, stem: &str, ext: &str) -> PathBuf {
    dir.join(format!(
        "{stem}_p{}_r{}.{ext}",
        task.point_index, task.replica
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::run_replica;
    use crate::spec::{SweepSpec, Variant};

    #[test]
    fn artifact_observers_add_no_metrics() {
        let v = Variant::Paper;
        assert!(Observer::Snapshot { dir: "x".into() }
            .metric_names(&v)
            .is_empty());
    }

    #[test]
    fn named_custom_observers_declare_their_columns() {
        let o = Observer::custom_named(["alpha", "beta"], |_, _, _| {
            vec![("alpha".into(), 1.0), ("beta".into(), 2.0)]
        });
        assert_eq!(
            o.metric_names(&Variant::Paper),
            vec!["alpha".to_string(), "beta".to_string()]
        );
        let spec = SweepSpec::builder()
            .side(16)
            .horizon(1)
            .tau(0.42)
            .max_events(100)
            .master_seed(3)
            .build();
        let (rec, _) = run_replica(&spec.tasks()[0], &[o]);
        assert_eq!(rec.metrics["alpha"], 1.0);
        assert_eq!(rec.metrics["beta"], 2.0);
    }

    #[test]
    fn undeclared_metrics_from_a_named_custom_observer_are_an_error() {
        let o = Observer::custom_named(["alpha"], |_, _, _| vec![("rogue".into(), 9.0)]);
        let spec = SweepSpec::builder()
            .side(16)
            .horizon(1)
            .tau(0.42)
            .max_events(100)
            .master_seed(3)
            .build();
        let task = spec.tasks()[0];
        let mut metrics = std::collections::BTreeMap::new();
        // the closure ignores the state, so the unit variant suffices
        let err = o
            .apply(&task, &FinalState::Probe, &mut metrics)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rogue"), "got: {err}");
    }
}
