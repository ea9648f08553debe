//! E4 — Figure 6: the infimum ε' = f(τ) required to trigger a cascading
//! process (Lemma 5 / Eq. 10).
//!
//! Engine-backed: [`Variant::Probe`] points over the τ axis, a custom
//! observer evaluating `f` and the Lemma 5 margins at each.
//!
//! ```text
//! cargo run --release -p seg-bench --bin fig6_trigger -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_analysis::svg::{LineChart, Series};
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_engine::{Observer, SweepSpec, Variant};
use seg_theory::constants::tau2;
use seg_theory::trigger::{f_trigger, lemma5_margin};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("fig6_trigger", &args);
    banner(
        "E4 fig6_trigger",
        "Figure 6 (the trigger threshold f(τ) of Eq. 10)",
        "f on (τ2, 1/2); margin check that f is exactly the Lemma 5 boundary",
    );

    let lo = tau2();
    let steps = 20;
    let taus: Vec<f64> = (0..=steps)
        .map(|i| (lo + (0.5 - lo) * i as f64 / steps as f64).min(0.4999))
        .collect();
    let spec = SweepSpec::builder()
        .side(1)
        .horizon(0)
        .taus(taus.iter().copied())
        .variant(Variant::Probe)
        .replicas(engine_args.replica_count(1))
        .master_seed(engine_args.master_seed(BASE_SEED))
        .build();
    let trigger_observer = Observer::custom_named(
        ["f", "margin_at_f", "margin_above"],
        |task, _state, _rng| {
            let tau = task.point.tau;
            let f = f_trigger(tau);
            vec![
                ("f".to_string(), f),
                ("margin_at_f".to_string(), lemma5_margin(tau, f)),
                ("margin_above".to_string(), lemma5_margin(tau, f + 0.01)),
            ]
        },
    );
    let result = run_sweep(&engine_args, "", &spec, &[trigger_observer]);

    let mut table = Table::new(vec![
        "tau".into(),
        "f(tau)".into(),
        "margin at f".into(),
        "margin at f+0.01".into(),
    ]);
    for (i, tau) in taus.iter().enumerate() {
        table.push_row(vec![
            format!("{tau:.4}"),
            format!("{:.4}", result.point_mean(i, "f").unwrap_or(f64::NAN)),
            format!(
                "{:+.2e}",
                result.point_mean(i, "margin_at_f").unwrap_or(f64::NAN)
            ),
            format!(
                "{:+.2e}",
                result.point_mean(i, "margin_above").unwrap_or(f64::NAN)
            ),
        ]);
    }
    println!("{}", table.render());

    // the actual Figure 6 as an SVG
    let pts: Vec<(f64, f64)> = (0..=240)
        .map(|i| {
            let tau = (lo + (0.5 - lo) * i as f64 / 240.0).min(0.49999);
            (tau, f_trigger(tau))
        })
        .collect();
    let mut chart = LineChart::new(
        "Figure 6 — infimum ε' = f(τ) to trigger a cascade",
        "intolerance τ",
        "f(τ)",
    );
    chart.series(Series::new("f(τ)", pts, 0));
    std::fs::create_dir_all("target/figures").expect("create figure dir");
    let path = std::path::Path::new("target/figures/fig6_trigger.svg");
    chart.save(path).expect("write SVG");
    println!("figure written to {}", path.display());

    println!(
        "paper shape check (Figure 6): f decreases from ≈ 0.30 at τ2 to 0 at 1/2\n\
         with a square-root cusp; the Lemma 5 margin is ≈ 0 at ε' = f(τ) and\n\
         strictly negative (cascade closes) just above it."
    );
}
