//! E3 — Figure 3: the exponent multipliers a(τ) (lower bound) and b(τ)
//! (upper bound) on `E[M]`, printed as the series the figure plots.
//!
//! Engine-backed: the curves are closed-form, so the sweep runs
//! [`Variant::Probe`] points over the τ axis and a custom observer
//! evaluates `f`, `a`, `b` at each — putting the figure's dataset on the
//! same sink/flag rails as the stochastic experiments.
//!
//! ```text
//! cargo run --release -p seg-bench --bin fig3_exponents -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_analysis::svg::{LineChart, Series};
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_engine::{Observer, SweepSpec, Variant};
use seg_theory::constants::{tau1, tau2};
use seg_theory::exponents::{exponent_a, exponent_b, figure3_series};
use seg_theory::trigger::f_trigger;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("fig3_exponents", &args);
    banner(
        "E3 fig3_exponents",
        "Figure 3 (exponent multipliers a(τ), b(τ))",
        "ε' = f(τ) (the infimum of Lemma 5), N → ∞ limit",
    );

    let taus: Vec<f64> = figure3_series(25).iter().map(|p| p.tau).collect();
    let spec = SweepSpec::builder()
        .side(1)
        .horizon(0)
        .taus(taus.iter().copied())
        .variant(Variant::Probe)
        .replicas(engine_args.replica_count(1))
        .master_seed(engine_args.master_seed(BASE_SEED))
        .build();
    let exponent_observer = Observer::custom_named(["eps", "a", "b"], |task, _state, _rng| {
        let tau = task.point.tau;
        vec![
            ("eps".to_string(), f_trigger(tau)),
            ("a".to_string(), exponent_a(tau)),
            ("b".to_string(), exponent_b(tau)),
        ]
    });
    let result = run_sweep(&engine_args, "", &spec, &[exponent_observer]);

    let mut table = Table::new(vec![
        "tau".into(),
        "f(tau)=eps'".into(),
        "a(tau)".into(),
        "b(tau)".into(),
        "regime".into(),
    ]);
    for (i, tau) in taus.iter().enumerate() {
        let regime = if *tau <= tau1() {
            "almost-mono (Thm 2)"
        } else {
            "mono (Thm 1)"
        };
        table.push_row(vec![
            format!("{tau:.4}"),
            format!("{:.4}", result.point_mean(i, "eps").unwrap_or(f64::NAN)),
            format!("{:.5}", result.point_mean(i, "a").unwrap_or(f64::NAN)),
            format!("{:.5}", result.point_mean(i, "b").unwrap_or(f64::NAN)),
            regime.into(),
        ]);
    }
    println!("{}", table.render());

    // the actual Figure 3 as an SVG
    let pts = figure3_series(120);
    let mut chart = LineChart::new(
        "Figure 3 — exponent multipliers a(τ), b(τ)",
        "intolerance τ",
        "exponent",
    );
    chart.series(Series::new(
        "a(τ) lower bound",
        pts.iter().map(|p| (p.tau, p.a)).collect(),
        0,
    ));
    chart.series(Series::new(
        "b(τ) upper bound",
        pts.iter().map(|p| (p.tau, p.b)).collect(),
        1,
    ));
    std::fs::create_dir_all("target/figures").expect("create figure dir");
    let path = std::path::Path::new("target/figures/fig3_exponents.svg");
    chart.save(path).expect("write SVG");
    println!("figure written to {}", path.display());

    println!(
        "paper shape check (Figure 3): a and b both decrease monotonically on\n\
         (τ2 = {:.4}, 1/2), vanish at τ = 1/2, and b > a everywhere (a valid\n\
         sandwich). By symmetry the curves mirror on (1/2, 1 − τ2).",
        tau2()
    );
}
