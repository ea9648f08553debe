//! Execution of a single replica and its result record.
//!
//! `run_replica` is three generic calls, timed at their boundaries for
//! the engine's phase counters: *setup* (`FinalState::build`),
//! *dynamics* (`FinalState::run`) and *observers* (`FinalState::record`,
//! then the observers). What differs between variants is stated once each here:
//! construction in `build`, the run in `run`, and metric names in the
//! constants of the `columns` table, which every metric write and the
//! column prediction ([`crate::sink::expected_metric_columns`]) both
//! read. The writes pick their constant by the final state, not through
//! `columns`; a write that picks another variant's constant is caught by
//! `predicted_columns_match_what_every_variant_writes` in
//! `tests/determinism.rs`, which checks each variant alone.

use crate::observe::Observer;
use crate::spec::{ReplicaTask, Variant};
use seg_core::interval::IntervalSim;
use seg_core::metrics::Clusters;
use seg_core::multi::MultiSim;
use seg_core::ring::{RingKawasaki, RingSim};
use seg_core::variants::{KawasakiSim, UpdateRule, VariantSim};
use seg_core::{Intolerance, Simulation};
use seg_grid::rng::Xoshiro256pp;
use seg_grid::{Torus, TypeField};
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// The column every replica records: its effective events.
pub(crate) const EVENTS: [&str; 1] = ["events"];

// The metric columns, named after who writes them; `columns` says which
// are whose.
const NONE: [&str; 0] = [];
const PAPER: [&str; 2] = ["sim_time", "terminated"];
const KAWASAKI: [&str; 1] = ["failed_attempts"];
const RING: [&str; 2] = ["mean_run", "terminated"];
const RING_KAWASAKI: [&str; 1] = ["mean_run"];
const TWO_SIDED: [&str; 2] = ["discontent", "terminated"];
const MULTI: [&str; 1] = ["terminated"];
const PAPER_STATS: [&str; 5] = [
    "unhappy",
    "happy_fraction",
    "interface",
    "largest_cluster",
    "plus_fraction",
];
const FIELD_STATS: [&str; 3] = ["interface", "largest_cluster", "plus_fraction"];
const UNHAPPY_FIELD_STATS: [&str; 4] = ["unhappy", "interface", "largest_cluster", "plus_fraction"];
const MULTI_STATS: [&str; 2] = ["unhappy", "largest_cluster"];

/// The table of metric columns: for each variant, the names its dynamics
/// records besides [`EVENTS`], and the names [`Observer::TerminalStats`]
/// adds for it. The writes in [`FinalState::record`] and
/// [`FinalState::terminal_stats`] name the same constants (see the
/// module doc for what checks that they name the right ones).
pub(crate) fn columns(variant: &Variant) -> (&'static [&'static str], &'static [&'static str]) {
    match variant {
        Variant::Paper => (&PAPER, &PAPER_STATS),
        Variant::FlipWhenUnhappy | Variant::Noise(_) => (&NONE, &UNHAPPY_FIELD_STATS),
        Variant::Kawasaki => (&KAWASAKI, &FIELD_STATS),
        Variant::RingGlauber => (&RING, &NONE),
        Variant::RingKawasaki => (&RING_KAWASAKI, &NONE),
        // TerminalStats counts the discontent agents as `unhappy`
        Variant::TwoSided { .. } => (&TWO_SIDED, &UNHAPPY_FIELD_STATS),
        Variant::MultiType { .. } => (&MULTI, &MULTI_STATS),
        Variant::Probe => (&NONE, &NONE),
    }
}

/// Records `values` under the declared `names`, pairwise. The arrays
/// share their length, so a name added to a constant without its value
/// (or the reverse) does not compile; which constant is passed is not
/// checked here.
fn put<const K: usize>(metrics: &mut BTreeMap<String, f64>, names: &[&str; K], values: [f64; K]) {
    for (name, value) in names.iter().zip(values) {
        metrics.insert((*name).to_string(), value);
    }
}

/// The state of a replica's dynamics: built in setup, advanced by the
/// run, and handed to observers in its final form.
#[derive(Clone, Debug)]
pub enum FinalState {
    /// The paper's process.
    Grid(Simulation),
    /// A [`VariantSim`] run (flip-when-unhappy or noise).
    VariantGrid(VariantSim),
    /// The 2-D Kawasaki swap dynamics.
    Kawasaki(KawasakiSim),
    /// The 1-D Glauber ring.
    Ring(RingSim),
    /// The 1-D Kawasaki ring.
    RingKawasaki(RingKawasaki),
    /// The §V two-sided comfort band.
    TwoSided(IntervalSim),
    /// The k-type extension.
    Multi(MultiSim),
    /// No dynamics ran ([`Variant::Probe`]): observers do all the work.
    Probe,
}

impl FinalState {
    /// The final 2-D configuration, when the variant has one.
    pub fn field(&self) -> Option<&TypeField> {
        match self {
            FinalState::Grid(s) => Some(s.field()),
            FinalState::VariantGrid(s) => Some(s.field()),
            FinalState::Kawasaki(s) => Some(s.field()),
            FinalState::TwoSided(s) => Some(s.field()),
            FinalState::Ring(_)
            | FinalState::RingKawasaki(_)
            | FinalState::Multi(_)
            | FinalState::Probe => None,
        }
    }

    /// The paper-process simulation, when this replica ran one.
    pub fn simulation(&self) -> Option<&Simulation> {
        match self {
            FinalState::Grid(s) => Some(s),
            _ => None,
        }
    }

    /// Setup: the task's variant in its seeded initial state.
    fn build(task: &ReplicaTask) -> FinalState {
        let p = task.point;
        // the seeded field, the RNG after drawing it, and the intolerance:
        // what `ModelConfig::build` draws
        let seeded = || {
            let mut rng = Xoshiro256pp::seed_from_u64(task.seed);
            let field = TypeField::random(Torus::new(p.side), p.density, &mut rng);
            let nsize = (2 * p.horizon + 1) * (2 * p.horizon + 1);
            (field, rng, Intolerance::new(nsize, p.tau))
        };
        let variant_grid = |rule| {
            let (field, rng, tau) = seeded();
            FinalState::VariantGrid(VariantSim::from_field(field, p.horizon, tau, rule, rng))
        };
        let ring = || RingSim::random(p.side as usize, p.horizon, p.tau, p.density, task.seed);
        match p.variant {
            Variant::Paper => {
                let (field, rng, tau) = seeded();
                FinalState::Grid(Simulation::from_field(field, p.horizon, tau, rng))
            }
            Variant::FlipWhenUnhappy => variant_grid(UpdateRule::FlipWhenUnhappy),
            Variant::Noise(eps) => variant_grid(UpdateRule::Noise(eps)),
            Variant::Kawasaki => {
                let (field, rng, tau) = seeded();
                FinalState::Kawasaki(KawasakiSim::from_field(field, p.horizon, tau, rng))
            }
            Variant::RingGlauber => FinalState::Ring(ring()),
            Variant::RingKawasaki => FinalState::RingKawasaki(RingKawasaki::new(ring())),
            Variant::TwoSided { tau_hi } => FinalState::TwoSided(IntervalSim::random(
                p.side, p.horizon, p.tau, tau_hi, task.seed,
            )),
            Variant::MultiType { k } => {
                FinalState::Multi(MultiSim::random(p.side, p.horizon, k, p.tau, task.seed))
            }
            Variant::Probe => FinalState::Probe,
        }
    }

    /// Dynamics: runs to stability or the task's event budget.
    fn run(&mut self, budget: u64) {
        // whether a run stopped stable is read back from the state in
        // `record`, so the runs' own return values go unused
        match self {
            FinalState::Grid(sim) => _ = sim.run_to_stable(budget),
            FinalState::VariantGrid(sim) => _ = sim.run(budget),
            FinalState::Kawasaki(sim) => _ = sim.run(budget),
            FinalState::Ring(ring) => _ = ring.run_to_stable(budget),
            FinalState::RingKawasaki(ring) => _ = ring.run(budget),
            FinalState::TwoSided(sim) => _ = sim.run(budget),
            FinalState::Multi(sim) => _ = sim.run(budget),
            FinalState::Probe => {}
        }
    }

    /// Effective events performed: flips, or swaps for Kawasaki runs.
    fn events(&self) -> u64 {
        match self {
            FinalState::Grid(s) => s.flips(),
            FinalState::VariantGrid(s) => s.flips(),
            FinalState::Kawasaki(s) => s.swaps(),
            FinalState::Ring(s) => s.flips(),
            FinalState::RingKawasaki(s) => s.swaps(),
            FinalState::TwoSided(s) => s.flips(),
            FinalState::Multi(s) => s.flips(),
            FinalState::Probe => 0,
        }
    }

    /// Record: the dynamics' own metrics, under the names [`columns`]
    /// declares for the variant.
    fn record(&self, m: &mut BTreeMap<String, f64>) {
        put(m, &EVENTS, [self.events() as f64]);
        match self {
            FinalState::Grid(s) => put(m, &PAPER, [s.time(), f64::from(s.is_stable())]),
            FinalState::Kawasaki(s) => put(m, &KAWASAKI, [s.failed_attempts() as f64]),
            FinalState::Ring(s) => put(m, &RING, [s.mean_run_length(), f64::from(s.is_stable())]),
            FinalState::RingKawasaki(s) => put(m, &RING_KAWASAKI, [s.ring().mean_run_length()]),
            FinalState::TwoSided(s) => put(
                m,
                &TWO_SIDED,
                [
                    s.discontent_count() as f64,
                    f64::from(s.flippable_count() == 0),
                ],
            ),
            FinalState::Multi(s) => put(m, &MULTI, [f64::from(s.flippable_count() == 0)]),
            FinalState::VariantGrid(_) | FinalState::Probe => {}
        }
    }

    /// [`Observer::TerminalStats`]' metrics, under the names [`columns`]
    /// declares for the variant.
    pub(crate) fn terminal_stats(&self, m: &mut BTreeMap<String, f64>) {
        // interface length, largest cluster and plus fraction
        fn field_stats(field: &TypeField) -> [f64; 3] {
            let clusters = Clusters::of_field(field);
            let n = field.torus().len() as f64;
            [
                clusters.interface_length() as f64,
                clusters.largest() as f64,
                field.plus_total() as f64 / n,
            ]
        }
        fn with_unhappy(unhappy: usize, field: &TypeField) -> [f64; 4] {
            let [interface, largest, plus] = field_stats(field);
            [unhappy as f64, interface, largest, plus]
        }
        match self {
            FinalState::Grid(s) => {
                let [unhappy, interface, largest, plus] =
                    with_unhappy(s.unhappy_count(), s.field());
                let happy = 1.0 - unhappy / s.torus().len() as f64;
                put(m, &PAPER_STATS, [unhappy, happy, interface, largest, plus]);
            }
            FinalState::VariantGrid(s) => put(
                m,
                &UNHAPPY_FIELD_STATS,
                with_unhappy(s.unhappy_count(), s.field()),
            ),
            FinalState::Kawasaki(s) => put(m, &FIELD_STATS, field_stats(s.field())),
            FinalState::TwoSided(s) => put(
                m,
                &UNHAPPY_FIELD_STATS,
                with_unhappy(s.discontent_count(), s.field()),
            ),
            FinalState::Multi(s) => put(
                m,
                &MULTI_STATS,
                [s.unhappy_count() as f64, s.largest_cluster() as f64],
            ),
            FinalState::Ring(_) | FinalState::RingKawasaki(_) | FinalState::Probe => {}
        }
    }
}

/// The result of one replica: its task, the effective events it
/// performed, and a name → value map of measured metrics.
///
/// Everything except `wall_secs` is a pure function of the task (and so
/// identical at any thread count); wall time is measurement-only and is
/// never written to sinks.
#[derive(Clone, Debug)]
pub struct ReplicaRecord {
    /// The task this record answers.
    pub task: ReplicaTask,
    /// Effective events performed (flips, or swaps for Kawasaki runs).
    pub events: u64,
    /// Wall-clock seconds this replica took (excluded from sink output).
    pub wall_secs: f64,
    /// Measured metrics by name, ordered (and therefore serialized)
    /// deterministically.
    pub metrics: BTreeMap<String, f64>,
}

impl ReplicaRecord {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// Nanoseconds one replica spent in each phase of [`run_replica`], for
/// the engine's phase counters; like `wall_secs`, never written to
/// sinks or journals.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseTimes {
    /// Building the seeded initial state.
    pub(crate) setup: u64,
    /// Running the dynamics.
    pub(crate) dynamics: u64,
    /// The dynamics' own metrics plus every observer.
    pub(crate) observers: u64,
}

/// Runs one replica through setup, dynamics and record, and returns
/// its record and the time each phase took.
///
/// # Errors
///
/// The first observer whose output fails (a frame that cannot be
/// written, an undeclared custom metric): the sweep is an experiment
/// run, and a missing output is a failed experiment.
pub(crate) fn run_replica(
    task: &ReplicaTask,
    observers: &[Observer],
) -> io::Result<(ReplicaRecord, PhaseTimes)> {
    let t0 = Instant::now();
    let mut state = FinalState::build(task);
    let t1 = Instant::now();
    state.run(task.max_events);
    let t2 = Instant::now();
    let mut metrics = BTreeMap::new();
    state.record(&mut metrics);
    for o in observers {
        o.apply(task, &state, &mut metrics)
            .map_err(|e| io::Error::new(e.kind(), format!("observer output failed: {e}")))?;
    }
    let t3 = Instant::now();
    let nanos = |from: Instant, to: Instant| (to - from).as_nanos() as u64;
    let record = ReplicaRecord {
        task: *task,
        events: state.events(),
        wall_secs: (t3 - t0).as_secs_f64(),
        metrics,
    };
    let times = PhaseTimes {
        setup: nanos(t0, t1),
        dynamics: nanos(t1, t2),
        observers: nanos(t2, t3),
    };
    Ok((record, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn task_for(variant: Variant, budget: u64) -> ReplicaTask {
        let spec = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.42)
            .variant(variant)
            .max_events(budget)
            .master_seed(5)
            .build();
        spec.tasks()[0]
    }

    #[test]
    fn paper_replica_terminates_and_reports() {
        let (rec, _) = run_replica(&task_for(Variant::Paper, u64::MAX), &[]).unwrap();
        assert_eq!(rec.metric("terminated"), Some(1.0));
        assert_eq!(rec.metric("events"), Some(rec.events as f64));
        assert!(rec.metric("sim_time").unwrap() > 0.0);
    }

    #[test]
    fn replica_is_a_pure_function_of_its_task() {
        let t = task_for(Variant::Paper, 500);
        let (a, _) = run_replica(&t, &[]).unwrap();
        let (b, _) = run_replica(&t, &[]).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn all_variants_execute() {
        for v in [
            Variant::Paper,
            Variant::FlipWhenUnhappy,
            Variant::Noise(0.05),
            Variant::Kawasaki,
            Variant::RingGlauber,
            Variant::RingKawasaki,
            Variant::TwoSided { tau_hi: 0.9 },
            Variant::MultiType { k: 3 },
            Variant::Probe,
        ] {
            let (rec, _) = run_replica(&task_for(v, 2_000), &[]).unwrap();
            assert!(rec.metrics.contains_key("events"), "{v}: missing events");
        }
    }

    #[test]
    fn final_state_exposes_fields_appropriately() {
        let rec_task = task_for(Variant::RingGlauber, 100);
        let mut ring = RingSim::random(32, 1, 0.42, 0.5, rec_task.seed);
        ring.run_to_stable(100);
        assert!(FinalState::Ring(ring).field().is_none());
    }
}
