//! E13 — the 1-D comparators (\[23\] Brandt et al., \[24\] Barmpalias et
//! al.): static below τ* ≈ 0.35, run lengths exploding with the window
//! size above it, and the Kawasaki/Glauber comparison.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_ring_baseline -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_core::Intolerance;
use seg_engine::{SweepSpec, Variant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_ring_baseline", &args);
    banner(
        "E13 exp_ring_baseline",
        "§I-A baselines (1-D ring: τ* transition, exponential run lengths)",
        "ring n = 40000; τ sweep at w = 8; w sweep at τ = 0.45",
    );
    let n = 40_000;
    let taus = [0.23, 0.29, 0.35, 0.41, 0.47];
    let master = engine_args.master_seed(BASE_SEED);
    let replicas = engine_args.replica_count(1);

    // τ sweep: the two dynamics have very different natural budgets, so
    // they run as two specs over the same τ axis.
    let glauber = run_sweep(
        &engine_args,
        "tau-glauber",
        &SweepSpec::builder()
            .side(n)
            .horizon(8)
            .taus(taus)
            .variant(Variant::RingGlauber)
            .max_events(20_000_000)
            .replicas(replicas)
            .master_seed(master)
            .build(),
        &[],
    );
    let kawasaki = run_sweep(
        &engine_args,
        "tau-kawasaki",
        &SweepSpec::builder()
            .side(n)
            .horizon(8)
            .taus(taus)
            .variant(Variant::RingKawasaki)
            .max_events(300_000)
            .replicas(replicas)
            .master_seed(master ^ 1)
            .build(),
        &[],
    );

    let mut table = Table::new(vec![
        "tau_eff".into(),
        "Glauber flips".into(),
        "mean run".into(),
        "Kawasaki swaps".into(),
        "mean run".into(),
    ]);
    let g_runs = glauber.summarize("mean_run");
    let k_runs = kawasaki.summarize("mean_run");
    for (i, &tau) in taus.iter().enumerate() {
        let eff = Intolerance::new(2 * 8 + 1, tau).tau();
        table.push_row(vec![
            format!("{eff:.3}"),
            format!("{:.0}", glauber.summarize("events")[i].summary.mean),
            format!("{:.2}", g_runs[i].summary.mean),
            format!("{:.0}", kawasaki.summarize("events")[i].summary.mean),
            format!("{:.2}", k_runs[i].summary.mean),
        ]);
    }
    println!("{}", table.render());

    // w sweep at fixed τ: run length growth in the window size
    println!("run-length scaling at τ = 0.45 (Glauber):");
    let horizons = [2u32, 4, 6, 8, 10, 12];
    let scaling = run_sweep(
        &engine_args,
        "w-scaling",
        &SweepSpec::builder()
            .side(n)
            .horizons(horizons)
            .tau(0.45)
            .variant(Variant::RingGlauber)
            .max_events(50_000_000)
            .replicas(replicas)
            .master_seed(master ^ 2)
            .build(),
        &[],
    );
    let mut table2 = Table::new(vec![
        "w".into(),
        "window".into(),
        "mean run".into(),
        "run/window".into(),
    ]);
    for (s, &w) in scaling.summarize("mean_run").iter().zip(&horizons) {
        let run = s.summary.mean;
        table2.push_row(vec![
            format!("{w}"),
            format!("{}", 2 * w + 1),
            format!("{run:.2}"),
            format!("{:.2}", run / (2.0 * w as f64 + 1.0)),
        ]);
    }
    println!("{}", table2.render());
    println!(
        "paper shape check ([24]): below τ* ≈ 0.35 the ring barely moves; above\n\
         it the mean run length grows super-linearly in the window size (the\n\
         exponential-in-(2w+1) regime), for both Glauber and Kawasaki dynamics."
    );

    // --out FILE writes all three sweeps as suffixed siblings
}
