//! E16 — the paper's extension directions (§V and §I-A), implemented and
//! measured: the two-sided comfort band, the multi-type model, and
//! time-varying intolerance (annealing).
//!
//! Engine-backed: the band and k-type models are first-class engine
//! variants ([`Variant::TwoSided`], [`Variant::MultiType`]); the annealing
//! schedule — which changes τ mid-run and so is not a single spec point —
//! runs inside a custom observer on [`Variant::Probe`] points, keeping
//! scheduling, seeding and sinks on the engine.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_extensions -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_core::metrics::largest_same_type_cluster;
use seg_core::{Intolerance, ModelConfig};
use seg_engine::{Observer, SweepSpec, Variant};

const ANNEAL_TAUS: [f64; 5] = [0.30, 0.36, 0.40, 0.44, 0.48];

/// The row column holding the flips made up to annealing stage `stage`.
fn flips_column(stage: usize) -> String {
    format!("stage{stage}_flips")
}

/// The row column holding the largest cluster after annealing stage `stage`.
fn largest_column(stage: usize) -> String {
    format!("stage{stage}_largest")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_extensions", &args);
    let replicas = engine_args.replica_count(1);
    banner(
        "E16 exp_extensions",
        "§V/§I-A extensions (two-sided comfort, k types, time-varying τ)",
        "96²–128² grids, w = 2",
    );
    let master = engine_args.master_seed(BASE_SEED);

    // 1. Two-sided comfort band (§V)
    println!("1) two-sided comfort band, τ_lo = 0.44:");
    let band_his = [1.0, 0.9, 0.8];
    let band = run_sweep(
        &engine_args,
        "two-sided",
        &SweepSpec::builder()
            .side(128)
            .horizon(2)
            .tau(0.44)
            .variants(band_his.map(|tau_hi| Variant::TwoSided { tau_hi }))
            .max_events(3_000_000)
            .replicas(replicas)
            .master_seed(master)
            .build(),
        &[Observer::TerminalStats],
    );
    let agents = 128.0 * 128.0;
    let mut t1 = Table::new(vec![
        "tau_hi".into(),
        "stable".into(),
        "flips".into(),
        "largest cluster %".into(),
    ]);
    for (i, tau_hi) in band_his.iter().enumerate() {
        t1.push_row(vec![
            format!("{tau_hi:.1}"),
            format!("{}", band.point_mean(i, "terminated").unwrap_or(0.0) > 0.5),
            format!("{:.0}", band.point_mean(i, "events").unwrap_or(0.0)),
            format!(
                "{:.1}",
                100.0 * band.point_mean(i, "largest_cluster").unwrap_or(0.0) / agents
            ),
        ]);
    }
    println!("{}", t1.render());

    // 2. Multi-type model (§I-A)
    println!("2) k-type model, τ = 0.30, 96², w = 2:");
    let ks = [2u8, 3, 4, 5];
    let multi = run_sweep(
        &engine_args,
        "multi",
        &SweepSpec::builder()
            .side(96)
            .horizon(2)
            .tau(0.30)
            .variants(ks.map(|k| Variant::MultiType { k }))
            .max_events(20_000_000)
            .replicas(replicas)
            .master_seed(master)
            .build(),
        &[Observer::TerminalStats],
    );
    let agents2 = 96.0 * 96.0;
    let mut t2 = Table::new(vec![
        "k".into(),
        "stable".into(),
        "flips".into(),
        "unhappy".into(),
        "largest cluster %".into(),
    ]);
    for (i, k) in ks.iter().enumerate() {
        t2.push_row(vec![
            format!("{k}"),
            format!("{}", multi.point_mean(i, "terminated").unwrap_or(0.0) > 0.5),
            format!("{:.0}", multi.point_mean(i, "events").unwrap_or(0.0)),
            format!("{:.0}", multi.point_mean(i, "unhappy").unwrap_or(0.0)),
            format!(
                "{:.1}",
                100.0 * multi.point_mean(i, "largest_cluster").unwrap_or(0.0) / agents2
            ),
        ]);
    }
    println!("{}", t2.render());

    // 3. Time-varying intolerance: anneal τ upward in stages. The
    // schedule mutates τ mid-run, so the observer owns the staged
    // dynamics; the engine still owns seeding and scheduling.
    println!("3) annealed τ (time-varying intolerance), 128², w = 2:");
    let anneal = run_sweep(
        &engine_args,
        "anneal",
        &SweepSpec::builder()
            .side(128)
            .horizon(2)
            .tau(ANNEAL_TAUS[0])
            .variant(Variant::Probe)
            .replicas(replicas)
            .master_seed(master)
            .build(),
        &[Observer::custom_named(
            (0..ANNEAL_TAUS.len()).flat_map(|stage| [flips_column(stage), largest_column(stage)]),
            |task, _state, _rng| {
                let p = task.point;
                let mut sim = ModelConfig::new(p.side, p.horizon, ANNEAL_TAUS[0])
                    .seed(task.seed)
                    .build();
                let nsize = (2 * p.horizon + 1) * (2 * p.horizon + 1);
                let mut out = Vec::new();
                for (stage, &tau) in ANNEAL_TAUS.iter().enumerate() {
                    sim.set_intolerance(Intolerance::new(nsize, tau));
                    sim.run_to_stable(20_000_000);
                    out.push((flips_column(stage), sim.flips() as f64));
                    out.push((
                        largest_column(stage),
                        largest_same_type_cluster(sim.field()) as f64,
                    ));
                }
                out
            },
        )],
    );
    let mut t3 = Table::new(vec![
        "stage tau".into(),
        "flips so far".into(),
        "largest cluster %".into(),
    ]);
    for (stage, tau) in ANNEAL_TAUS.iter().enumerate() {
        t3.push_row(vec![
            format!("{tau:.2}"),
            format!(
                "{:.0}",
                anneal.point_mean(0, &flips_column(stage)).unwrap_or(0.0)
            ),
            format!(
                "{:.1}",
                100.0 * anneal.point_mean(0, &largest_column(stage)).unwrap_or(0.0) / agents
            ),
        ]);
    }
    println!("{}", t3.render());
    println!(
        "Reading: (1) majority discomfort suppresses giant clusters and can\n\
         destroy termination; (2) more types segregate into smaller mosaics at\n\
         equal τ; (3) slowly annealed intolerance reaches coarser stable states\n\
         than a cold start at the final τ (fewer, farther-apart nuclei per stage)."
    );
}
