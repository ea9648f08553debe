//! E9 — Lemma 7 / Kesten's Theorem 3: first-passage percolation passage
//! times grow linearly with concentration at the √k scale, which is what
//! bounds the spread speed of unhappiness around a forming firewall.
//!
//! Engine-backed: one [`Variant::Probe`] point per distance `k` (the
//! point's `side`), one `T_k` sample per replica.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_fpp_spread -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::regression::linear_fit;
use seg_analysis::series::Table;
use seg_analysis::stats::Summary;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_engine::{Observer, SweepSpec, Variant};
use seg_percolation::fpp::{sample_tk, PassageTimeDistribution};

const KS: [u32; 7] = [8, 12, 16, 24, 32, 48, 64];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_fpp_spread", &args);
    let trials = engine_args.replica_count(120);
    banner(
        "E9 exp_fpp_spread",
        "Lemma 7 via Kesten's Theorem 3 (T_k linear growth, √k fluctuations)",
        &format!("site FPP, Exp(1) passage times, k = 8..64, {trials} trials per k"),
    );

    let spec = SweepSpec::builder()
        .sides(KS)
        .horizon(0)
        .tau(0.0)
        .variant(Variant::Probe)
        .replicas(trials)
        .master_seed(engine_args.master_seed(BASE_SEED))
        .build();
    let tk_observer = Observer::custom_named(["tk"], |task, _state, rng| {
        let dist = PassageTimeDistribution::Exponential { rate: 1.0 };
        vec![(
            "tk".to_string(),
            sample_tk(task.point.side, dist, 1, rng)[0],
        )]
    });
    let result = run_sweep(&engine_args, "", &spec, &[tk_observer]);

    let mut table = Table::new(vec![
        "k".into(),
        "mean T_k".into(),
        "T_k/k".into(),
        "std".into(),
        "std/sqrt(k)".into(),
    ]);
    let mut ks = Vec::new();
    let mut means = Vec::new();
    for (i, &k) in KS.iter().enumerate() {
        let s = Summary::from_slice(&result.metric_values(i, "tk"));
        ks.push(k as f64);
        means.push(s.mean);
        table.push_row(vec![
            format!("{k}"),
            format!("{:.3}", s.mean),
            format!("{:.4}", s.mean / k as f64),
            format!("{:.3}", s.std_dev()),
            format!("{:.4}", s.std_dev() / (k as f64).sqrt()),
        ]);
    }
    println!("{}", table.render());
    let fit = linear_fit(&ks, &means);
    println!(
        "time constant: T_k ≈ {:.4}·k + {:.3}  (R² = {:.4}) — μ ≈ {:.4}",
        fit.slope, fit.intercept, fit.r_squared, fit.slope
    );
    println!(
        "paper shape check (Thm 3): T_k/k settles to a constant μ and the\n\
         normalized fluctuation std/√k stays bounded (no diffusive blow-up) —\n\
         the concentration Lemma 7 uses to bound T(ρ/2) from below."
    );
}
