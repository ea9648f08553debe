//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names *what* to run — a list of parameter points, each
//! executed for a number of replicas — without saying anything about
//! threads or output. The builder composes points two ways:
//!
//! - grid axes ([`SweepSpecBuilder::sides`], `horizons`, `taus`,
//!   `densities`, `variants`) expand to their cartesian product;
//! - explicit points ([`SweepSpecBuilder::point`]) cover linked
//!   parameters a product cannot express (e.g. the Theorem 1 scaling
//!   sweep, where the grid side grows with the horizon).
//!
//! Every replica's RNG seed is derived by [`derive_replica_seed`] from
//! the master seed and the replica's *indices alone*, so a sweep's
//! results are a pure function of its spec — independent of thread count
//! and schedule.

use std::fmt;

/// Which dynamics a point runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Variant {
    /// The paper's rule: flip iff unhappy and the flip makes the agent
    /// happy ([`seg_core::Simulation`]).
    Paper,
    /// Unhappy agents flip regardless of the outcome
    /// ([`seg_core::variants::UpdateRule::FlipWhenUnhappy`]).
    FlipWhenUnhappy,
    /// The paper's rule with ε-noise
    /// ([`seg_core::variants::UpdateRule::Noise`]).
    Noise(f64),
    /// The closed-system 2-D swap dynamics
    /// ([`seg_core::variants::KawasakiSim`]).
    Kawasaki,
    /// The 1-D Glauber ring baseline ([`seg_core::ring::RingSim`]); the
    /// point's `side` is the ring length and `horizon` the window radius.
    RingGlauber,
    /// The 1-D Kawasaki ring baseline
    /// ([`seg_core::ring::RingKawasaki`]).
    RingKawasaki,
    /// The §V two-sided comfort band ([`seg_core::interval::IntervalSim`]):
    /// agents are content only when their same-type fraction lies in
    /// `[τ, τ_hi]`. The point's `tau` is the lower edge `τ_lo`.
    TwoSided {
        /// Upper edge of the comfort band.
        tau_hi: f64,
    },
    /// The k-type (Potts-like) extension of §I-A
    /// ([`seg_core::multi::MultiSim`]); the point's `density` is ignored
    /// (types are drawn uniformly).
    MultiType {
        /// Number of agent types, `k ≥ 2`.
        k: u8,
    },
    /// No dynamics at all: the replica is a vehicle for
    /// [`Observer::Custom`](crate::Observer::Custom) measurements with the
    /// replica-seeded RNG. Substrate experiments (percolation, FPP,
    /// closed-form theory curves) use this to put their sampling on the
    /// engine's scheduling/seeding/sink rails; the point's `side` and
    /// `density` are free parameter slots for the observer to interpret.
    Probe,
}

impl Variant {
    /// The variant's name and, when it has one, its parameter: the one
    /// spelling that [`Variant::label`] and [`Variant::flag`] share.
    fn name_and_parameter(&self) -> (&'static str, Option<&dyn fmt::Display>) {
        match self {
            Variant::Paper => ("paper", None),
            Variant::FlipWhenUnhappy => ("flip-when-unhappy", None),
            Variant::Noise(eps) => ("noise", Some(eps)),
            Variant::Kawasaki => ("kawasaki", None),
            Variant::RingGlauber => ("ring-glauber", None),
            Variant::RingKawasaki => ("ring-kawasaki", None),
            Variant::TwoSided { tau_hi } => ("two-sided", Some(tau_hi)),
            Variant::MultiType { k } => ("multi", Some(k)),
            // not constructible from a flag, so never round-tripped
            Variant::Probe => ("probe", None),
        }
    }

    /// Stable label used in output rows (`noise(0.01)`).
    pub fn label(&self) -> String {
        match self.name_and_parameter() {
            (name, None) => name.into(),
            (name, Some(value)) => format!("{name}({value})"),
        }
    }

    /// The flag spelling that [parses](str::parse) back to this variant
    /// (`noise:EPS`, `two-sided:TAU_HI`, `multi:K`, plain names
    /// otherwise) — what `--variant` takes on the command line and the
    /// serve API takes in request bodies.
    pub fn flag(&self) -> String {
        match self.name_and_parameter() {
            (name, None) => name.into(),
            (name, Some(value)) => format!("{name}:{value}"),
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for Variant {
    type Err = String;

    /// Parses the flag syntax of [`Variant::flag`]. [`Variant::Probe`]
    /// is deliberately not parseable — it only makes sense with a
    /// programmatic [`Observer::Custom`](crate::Observer::Custom).
    fn from_str(raw: &str) -> Result<Self, String> {
        match raw {
            "paper" => Ok(Variant::Paper),
            "flip-when-unhappy" => Ok(Variant::FlipWhenUnhappy),
            "kawasaki" => Ok(Variant::Kawasaki),
            "ring-glauber" => Ok(Variant::RingGlauber),
            "ring-kawasaki" => Ok(Variant::RingKawasaki),
            other => {
                if let Some(eps) = other.strip_prefix("noise:") {
                    let eps: f64 = eps.parse().map_err(|e| format!("noise: {e}"))?;
                    Ok(Variant::Noise(eps))
                } else if let Some(hi) = other.strip_prefix("two-sided:") {
                    let tau_hi: f64 = hi.parse().map_err(|e| format!("two-sided: {e}"))?;
                    Ok(Variant::TwoSided { tau_hi })
                } else if let Some(k) = other.strip_prefix("multi:") {
                    let k: u8 = k.parse().map_err(|e| format!("multi: {e}"))?;
                    if k < 2 {
                        return Err("multi:K needs at least two types".into());
                    }
                    Ok(Variant::MultiType { k })
                } else {
                    Err(format!(
                        "unknown variant {other} (expected paper, flip-when-unhappy, \
                         noise:EPS, kawasaki, ring-glauber, ring-kawasaki, \
                         two-sided:TAU_HI, multi:K)"
                    ))
                }
            }
        }
    }
}

/// One parameter point of a sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Torus side `n` (ring length for the 1-D variants).
    pub side: u32,
    /// Horizon `w` (window radius for the 1-D variants).
    pub horizon: u32,
    /// Intolerance `τ̃`.
    pub tau: f64,
    /// Initial `+1` density `p`.
    pub density: f64,
    /// The dynamics run at this point.
    pub variant: Variant,
    /// Per-point event-budget override. `None` inherits the spec's
    /// [`SweepSpec::max_events`]. Points of one sweep may stop at
    /// different depths of the *same* trajectory by combining budgets
    /// with [`SeedMode::CommonRandomNumbers`] (the staged-snapshot
    /// pattern of `fig1_snapshots`).
    pub(crate) budget: Option<u64>,
}

impl SweepPoint {
    /// A paper-variant point at density 1/2 with no budget override —
    /// the common case; adjust with the `with_*` methods.
    pub fn new(side: u32, horizon: u32, tau: f64) -> Self {
        SweepPoint {
            side,
            horizon,
            tau,
            density: 0.5,
            variant: Variant::Paper,
            budget: None,
        }
    }

    /// Sets the dynamics variant.
    pub fn with_variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Sets this point's event budget, overriding the spec-wide one.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// How replica seeds derive from the master seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SeedMode {
    /// Every `(point, replica)` pair gets its own stream (the default).
    #[default]
    Independent,
    /// Seeds depend on the replica index only, so replica `r` of *every*
    /// point shares one stream — and, for the 2-D variants, one initial
    /// configuration. This is the classic common-random-numbers design
    /// for paired comparisons across points (e.g. update-rule shoot-outs,
    /// τ ↔ 1 − τ symmetry checks), trading stream independence for
    /// variance reduction.
    CommonRandomNumbers,
}

/// One shard of a multi-process sweep: which slice of the task list a
/// worker owns when one [`SweepSpec`] is partitioned across `count`
/// processes (`--shard index/count`).
///
/// The partition is deterministic and round-robin by task index
/// (`task_index % count == index`), so consecutive replicas of one point
/// spread across shards and every shard gets a balanced mix of cheap and
/// expensive points. Because shard ownership is a pure function of the
/// task index, journals written under *different* `count`s still merge
/// correctly — records are keyed by global task index, never by shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardIndex {
    /// This worker's shard number, `0 ≤ index < count`.
    pub(crate) index: u32,
    /// Total number of shards the sweep is split into.
    pub(crate) count: u32,
}

impl ShardIndex {
    /// A validated shard index.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(index < count, "shard index {index} out of range 0..{count}");
        ShardIndex { index, count }
    }

    /// Whether this shard owns the task at `task_index`.
    pub(crate) fn owns(&self, task_index: usize) -> bool {
        task_index as u64 % u64::from(self.count) == u64::from(self.index)
    }

    /// The task indices this shard owns, out of `task_count` total.
    pub fn task_indices(&self, task_count: usize) -> Vec<usize> {
        (self.index as usize..task_count)
            .step_by(self.count as usize)
            .collect()
    }

    /// How many of `task_count` tasks this shard owns.
    pub fn task_count(&self, task_count: usize) -> usize {
        let count = self.count as usize;
        let index = self.index as usize;
        task_count / count + usize::from(task_count % count > index)
    }
}

impl fmt::Display for ShardIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl std::str::FromStr for ShardIndex {
    type Err = String;

    /// Parses the `--shard` syntax `I/M` (e.g. `0/4`): shard `I` of `M`,
    /// zero-based.
    fn from_str(s: &str) -> Result<Self, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("expected I/M (e.g. 0/4), got {s:?}"))?;
        let index: u32 = i.parse().map_err(|e| format!("shard index: {e}"))?;
        let count: u32 = m.parse().map_err(|e| format!("shard count: {e}"))?;
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(ShardIndex { index, count })
    }
}

/// A fully expanded sweep: points × replicas, a master seed, and a
/// per-replica event budget.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    points: Vec<SweepPoint>,
    replicas: u32,
    master_seed: u64,
    max_events: u64,
    seed_mode: SeedMode,
}

/// One unit of work: a parameter point, a replica index, and the seed
/// that replica runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaTask {
    /// Index of this task in [`SweepSpec::tasks`] order.
    pub task_index: usize,
    /// Index of the point in [`SweepSpec::points`].
    pub point_index: usize,
    /// Replica number within the point, `0..replicas`.
    pub(crate) replica: u32,
    /// The parameters.
    pub point: SweepPoint,
    /// The derived RNG seed this replica runs under.
    pub seed: u64,
    /// Budget of effective events (flips/swaps/attempts) for the run.
    pub max_events: u64,
}

impl SweepSpec {
    /// Starts a builder.
    pub fn builder() -> SweepSpecBuilder {
        SweepSpecBuilder::default()
    }

    /// The expanded parameter points, in declaration/product order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Replicas per point.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// The master seed all replica seeds derive from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Per-replica event budget.
    pub fn max_events(&self) -> u64 {
        self.max_events
    }

    /// How replica seeds derive from the master seed.
    pub(crate) fn seed_mode(&self) -> SeedMode {
        self.seed_mode
    }

    /// Total number of replicas in the sweep.
    pub fn task_count(&self) -> usize {
        self.points.len() * self.replicas as usize
    }

    /// Expands to the full task list: for each point, `replicas` tasks
    /// with seeds derived from `(master_seed, point_index, replica)`.
    pub fn tasks(&self) -> Vec<ReplicaTask> {
        let mut out = Vec::with_capacity(self.task_count());
        for (point_index, point) in self.points.iter().enumerate() {
            for replica in 0..self.replicas {
                out.push(ReplicaTask {
                    task_index: out.len(),
                    point_index,
                    replica,
                    point: *point,
                    seed: derive_replica_seed(
                        self.master_seed,
                        match self.seed_mode {
                            SeedMode::Independent => point_index as u64,
                            SeedMode::CommonRandomNumbers => 0,
                        },
                        replica as u64,
                    ),
                    max_events: point.budget.unwrap_or(self.max_events),
                });
            }
        }
        out
    }
}

/// Derives the RNG seed of one replica by mixing the master seed with the
/// replica's coordinates through two rounds of the SplitMix64 finalizer.
///
/// The derivation uses indices only — never thread ids or time — so a
/// sweep's per-replica streams are reproducible bit-for-bit at any thread
/// count, and distinct `(point, replica)` pairs get well-separated
/// streams.
pub fn derive_replica_seed(master_seed: u64, point_index: u64, replica: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let a = mix(master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let b = mix(a ^ point_index
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
        .wrapping_add(1));
    mix(b ^ replica.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7).wrapping_add(1))
}

/// Builder for [`SweepSpec`]. Grid axes multiply; explicit points append.
#[derive(Clone, Debug, Default)]
pub struct SweepSpecBuilder {
    sides: Vec<u32>,
    horizons: Vec<u32>,
    taus: Vec<f64>,
    densities: Vec<f64>,
    variants: Vec<Variant>,
    explicit: Vec<SweepPoint>,
    replicas: Option<u32>,
    master_seed: u64,
    max_events: Option<u64>,
    seed_mode: SeedMode,
}

impl SweepSpecBuilder {
    /// Sets a single grid side (shorthand for [`Self::sides`]).
    pub fn side(self, n: u32) -> Self {
        self.sides([n])
    }

    /// Sets the grid-side axis.
    pub fn sides<I: IntoIterator<Item = u32>>(mut self, ns: I) -> Self {
        self.sides = ns.into_iter().collect();
        self
    }

    /// Sets a single horizon.
    pub fn horizon(self, w: u32) -> Self {
        self.horizons([w])
    }

    /// Sets the horizon axis.
    pub fn horizons<I: IntoIterator<Item = u32>>(mut self, ws: I) -> Self {
        self.horizons = ws.into_iter().collect();
        self
    }

    /// Sets a single intolerance.
    pub fn tau(self, tau: f64) -> Self {
        self.taus([tau])
    }

    /// Sets the intolerance axis.
    pub fn taus<I: IntoIterator<Item = f64>>(mut self, taus: I) -> Self {
        self.taus = taus.into_iter().collect();
        self
    }

    /// Sets the initial-density axis (default `[0.5]`).
    pub fn densities<I: IntoIterator<Item = f64>>(mut self, ps: I) -> Self {
        self.densities = ps.into_iter().collect();
        self
    }

    /// Sets a single variant (default [`Variant::Paper`]).
    pub fn variant(self, v: Variant) -> Self {
        self.variants([v])
    }

    /// Sets the variant axis (default `[Variant::Paper]`).
    pub fn variants<I: IntoIterator<Item = Variant>>(mut self, vs: I) -> Self {
        self.variants = vs.into_iter().collect();
        self
    }

    /// Appends one explicit point (for linked parameters a grid cannot
    /// express). Explicit points come before grid points in the
    /// expansion.
    pub fn point(mut self, point: SweepPoint) -> Self {
        self.explicit.push(point);
        self
    }

    /// Sets the number of replicas per point (default 1; 0 is refused
    /// by [`Self::try_build`]).
    pub fn replicas(mut self, k: u32) -> Self {
        self.replicas = Some(k);
        self
    }

    /// Sets the master seed (default 0).
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the seed-derivation mode (default
    /// [`SeedMode::Independent`]). Use
    /// [`SeedMode::CommonRandomNumbers`] for paired comparisons across
    /// points.
    pub fn seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Sets the per-replica event budget (default unlimited: run to
    /// stability). A budget of 0 is honored literally — the replica's
    /// initial configuration is what gets measured.
    pub fn max_events(mut self, budget: u64) -> Self {
        self.max_events = Some(budget);
        self
    }

    /// Expands the grid and finalizes the spec, or says why the sweep is
    /// illegal. This is the one place that decides which sweeps are
    /// legal — `segsim sweep`, the serve API and every experiment binary
    /// build through it. A sweep is legal when:
    ///
    /// - it has points: explicit ones, or a grid with at least one side,
    ///   one horizon *and* one tau (setting only some axes is an error);
    /// - replicas per point are at least 1;
    /// - every point's window fits its grid, `2w + 1 ≤ n`
    ///   ([`seg_grid::window_fits`], so a huge `w` cannot wrap);
    /// - every τ̃ and every density `p` lies in `[0, 1]`;
    /// - every [`Variant::Noise`] ε lies in `[0, 1]`;
    /// - every [`Variant::TwoSided`] band satisfies `τ ≤ τ_hi ≤ 1`;
    /// - every [`Variant::MultiType`] has `k ≥ 2`.
    ///
    /// NaN fails every range check.
    ///
    /// # Errors
    ///
    /// The first rule broken, as a message naming the offending value.
    pub fn try_build(self) -> Result<SweepSpec, String> {
        let replicas = match self.replicas {
            Some(0) => return Err("replicas must be at least 1".into()),
            Some(k) => k,
            None => 1,
        };
        let mut points = self.explicit;
        if !(self.sides.is_empty() && self.horizons.is_empty() && self.taus.is_empty()) {
            if self.sides.is_empty() || self.horizons.is_empty() || self.taus.is_empty() {
                return Err("a grid sweep needs at least one side, one horizon and one tau".into());
            }
            let densities = if self.densities.is_empty() {
                vec![0.5]
            } else {
                self.densities
            };
            let variants = if self.variants.is_empty() {
                vec![Variant::Paper]
            } else {
                self.variants
            };
            for &side in &self.sides {
                for &horizon in &self.horizons {
                    for &tau in &self.taus {
                        for &density in &densities {
                            for &variant in &variants {
                                points.push(SweepPoint {
                                    side,
                                    horizon,
                                    tau,
                                    density,
                                    variant,
                                    budget: None,
                                });
                            }
                        }
                    }
                }
            }
        }
        if points.is_empty() {
            return Err("sweep describes no points".into());
        }
        points.iter().try_for_each(check_point)?;
        Ok(SweepSpec {
            points,
            replicas,
            master_seed: self.master_seed,
            max_events: self.max_events.unwrap_or(u64::MAX),
            seed_mode: self.seed_mode,
        })
    }

    /// [`Self::try_build`] for callers whose sweep is fixed in code.
    ///
    /// # Panics
    ///
    /// Panics with [`Self::try_build`]'s message if the sweep is illegal.
    pub fn build(self) -> SweepSpec {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The per-point rules of [`SweepSpecBuilder::try_build`].
fn check_point(p: &SweepPoint) -> Result<(), String> {
    let unit = 0.0..=1.0;
    if !seg_grid::window_fits(p.side, p.horizon) {
        return Err(format!(
            "horizon {} too large for side {}: window diameter 2·{}+1 exceeds the side",
            p.horizon, p.side, p.horizon
        ));
    }
    if !unit.contains(&p.tau) {
        return Err(format!("tau {} must lie in [0, 1]", p.tau));
    }
    if !unit.contains(&p.density) {
        return Err(format!("density {} must lie in [0, 1]", p.density));
    }
    match p.variant {
        Variant::Noise(eps) if !unit.contains(&eps) => {
            Err(format!("noise:{eps} needs 0 <= eps <= 1"))
        }
        Variant::TwoSided { tau_hi } if !(unit.contains(&tau_hi) && tau_hi >= p.tau) => {
            Err(format!(
                "two-sided:{tau_hi} needs tau <= tau_hi <= 1 (tau = {})",
                p.tau
            ))
        }
        Variant::MultiType { k } if k < 2 => Err(format!("multi:{k} needs at least two types")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_a_product() {
        let spec = SweepSpec::builder()
            .sides([32, 64])
            .horizons([1, 2, 3])
            .taus([0.4, 0.45])
            .build();
        assert_eq!(spec.points().len(), 2 * 3 * 2);
        assert_eq!(spec.replicas(), 1);
        assert_eq!(spec.task_count(), 12);
    }

    #[test]
    fn explicit_points_precede_grid_points() {
        let p = SweepPoint::new(96, 2, 0.42);
        let spec = SweepSpec::builder()
            .point(p)
            .side(32)
            .horizon(1)
            .tau(0.4)
            .build();
        assert_eq!(spec.points().len(), 2);
        assert_eq!(spec.points()[0], p);
        assert_eq!(spec.points()[1].side, 32);
    }

    #[test]
    fn tasks_enumerate_points_times_replicas() {
        let spec = SweepSpec::builder()
            .sides([32, 48])
            .horizon(1)
            .tau(0.4)
            .replicas(3)
            .master_seed(7)
            .build();
        let tasks = spec.tasks();
        assert_eq!(tasks.len(), 6);
        assert_eq!(tasks[0].point_index, 0);
        assert_eq!(tasks[0].replica, 0);
        assert_eq!(tasks[5].point_index, 1);
        assert_eq!(tasks[5].replica, 2);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.task_index, i);
        }
    }

    #[test]
    fn replica_seeds_are_distinct_and_index_derived() {
        let spec = SweepSpec::builder()
            .sides([32, 48, 64])
            .horizon(1)
            .taus([0.4, 0.45])
            .replicas(8)
            .master_seed(1234)
            .build();
        let seeds: Vec<u64> = spec.tasks().iter().map(|t| t.seed).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "seed collision");
        // re-expansion yields identical seeds
        assert_eq!(
            seeds,
            spec.tasks().iter().map(|t| t.seed).collect::<Vec<_>>()
        );
        // and they are a pure function of (master, point, replica)
        assert_eq!(seeds[0], derive_replica_seed(1234, 0, 0));
        assert_eq!(seeds[9], derive_replica_seed(1234, 1, 1));
    }

    #[test]
    fn master_seed_changes_every_stream() {
        let a: Vec<u64> = (0..50)
            .map(|i| derive_replica_seed(1, i / 5, i % 5))
            .collect();
        let b: Vec<u64> = (0..50)
            .map(|i| derive_replica_seed(2, i / 5, i % 5))
            .collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn default_budget_is_unlimited_but_zero_is_literal() {
        let spec = SweepSpec::builder().side(32).horizon(1).tau(0.4).build();
        assert_eq!(spec.max_events(), u64::MAX);
        let frozen = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.4)
            .max_events(0)
            .build();
        assert_eq!(frozen.max_events(), 0);
    }

    #[test]
    #[should_panic(expected = "no points")]
    fn empty_spec_panics() {
        let _ = SweepSpec::builder().build();
    }

    #[test]
    #[should_panic(expected = "window diameter")]
    fn oversized_window_panics() {
        let _ = SweepSpec::builder().side(8).horizon(4).tau(0.4).build();
    }

    #[test]
    fn try_build_refuses_every_illegal_sweep() {
        let grid = || SweepSpec::builder().side(16).horizon(1).tau(0.45);
        for (builder, needle) in [
            (SweepSpec::builder(), "no points"),
            (SweepSpec::builder().side(16).tau(0.4), "one horizon"),
            (grid().replicas(0), "replicas"),
            (grid().horizon(1 << 31), "window diameter"),
            (grid().horizon(u32::MAX), "window diameter"),
            (grid().tau(f64::NAN), "tau"),
            (grid().tau(-0.1), "tau"),
            (grid().densities([1.5]), "density"),
            (grid().variant(Variant::Noise(2.0)), "noise"),
            (grid().variant(Variant::Noise(f64::NAN)), "noise"),
            (
                grid().variant(Variant::TwoSided { tau_hi: 0.3 }),
                "tau <= tau_hi",
            ),
            (
                grid().variant(Variant::TwoSided { tau_hi: f64::NAN }),
                "tau <= tau_hi",
            ),
            (
                grid().variant(Variant::TwoSided { tau_hi: 1.5 }),
                "tau <= tau_hi",
            ),
            (
                grid().variant(Variant::MultiType { k: 0 }),
                "at least two types",
            ),
            (
                SweepSpec::builder().point(SweepPoint {
                    density: -1.0,
                    ..SweepPoint::new(16, 1, 0.4)
                }),
                "density",
            ),
        ] {
            let err = builder.clone().try_build().unwrap_err();
            assert!(err.contains(needle), "{builder:?}: {err}");
        }
        let edge = grid()
            .variants([Variant::Noise(1.0), Variant::TwoSided { tau_hi: 0.45 }])
            .replicas(2)
            .try_build()
            .unwrap();
        assert_eq!(edge.task_count(), 4);
    }

    #[test]
    fn common_random_numbers_pair_seeds_across_points() {
        let spec = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .taus([0.4, 0.45, 0.6])
            .replicas(2)
            .master_seed(77)
            .seed_mode(SeedMode::CommonRandomNumbers)
            .build();
        let tasks = spec.tasks();
        // replica r of every point shares one seed...
        for r in 0..2u32 {
            let seeds: Vec<u64> = tasks
                .iter()
                .filter(|t| t.replica == r)
                .map(|t| t.seed)
                .collect();
            assert_eq!(seeds.len(), 3);
            assert!(seeds.windows(2).all(|w| w[0] == w[1]));
        }
        // ...and different replicas still differ
        assert_ne!(tasks[0].seed, tasks[1].seed);
    }

    #[test]
    fn variant_labels_are_stable() {
        assert_eq!(Variant::Paper.label(), "paper");
        assert_eq!(Variant::Noise(0.01).label(), "noise(0.01)");
        assert_eq!(Variant::RingKawasaki.to_string(), "ring-kawasaki");
        assert_eq!(Variant::TwoSided { tau_hi: 0.9 }.label(), "two-sided(0.9)");
        assert_eq!(Variant::MultiType { k: 4 }.label(), "multi(4)");
        assert_eq!(Variant::Probe.label(), "probe");
    }

    #[test]
    fn variant_flags_round_trip_through_from_str() {
        for v in [
            Variant::Paper,
            Variant::FlipWhenUnhappy,
            Variant::Noise(0.01),
            Variant::Kawasaki,
            Variant::RingGlauber,
            Variant::RingKawasaki,
            Variant::TwoSided { tau_hi: 0.875 },
            Variant::MultiType { k: 4 },
        ] {
            assert_eq!(v.flag().parse::<Variant>().unwrap(), v);
        }
        for bad in ["bogus", "noise:x", "two-sided:", "multi:1", "multi:x"] {
            assert!(bad.parse::<Variant>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn point_budget_overrides_spec_budget() {
        let spec = SweepSpec::builder()
            .point(SweepPoint::new(32, 1, 0.4).with_budget(7))
            .point(SweepPoint::new(32, 1, 0.4))
            .max_events(1000)
            .build();
        let tasks = spec.tasks();
        assert_eq!(tasks[0].max_events, 7);
        assert_eq!(tasks[1].max_events, 1000);
    }

    #[test]
    #[should_panic(expected = "tau <= tau_hi")]
    fn inverted_comfort_band_panics() {
        let _ = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.5)
            .variant(Variant::TwoSided { tau_hi: 0.4 })
            .build();
    }

    #[test]
    fn shards_partition_the_task_list_exactly() {
        for count in 1..6u32 {
            for task_count in [0usize, 1, 5, 12, 13] {
                let mut seen = vec![0u32; task_count];
                let mut total = 0;
                for index in 0..count {
                    let shard = ShardIndex::new(index, count);
                    let owned = shard.task_indices(task_count);
                    assert_eq!(owned.len(), shard.task_count(task_count));
                    total += owned.len();
                    for i in owned {
                        assert!(shard.owns(i));
                        seen[i] += 1;
                    }
                }
                assert_eq!(total, task_count);
                assert!(seen.iter().all(|&n| n == 1), "a task owned twice or never");
            }
        }
    }

    #[test]
    fn shard_parsing_round_trips_and_rejects_garbage() {
        let s: ShardIndex = "2/5".parse().unwrap();
        assert_eq!(s, ShardIndex::new(2, 5));
        assert_eq!(s.to_string(), "2/5");
        for bad in ["", "3", "5/5", "2/0", "a/4", "1/b", "-1/4"] {
            assert!(bad.parse::<ShardIndex>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_below_count() {
        let _ = ShardIndex::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "at least two types")]
    fn degenerate_multi_type_panics() {
        let _ = SweepSpec::builder()
            .side(32)
            .horizon(1)
            .tau(0.3)
            .variant(Variant::MultiType { k: 1 })
            .build();
    }
}
