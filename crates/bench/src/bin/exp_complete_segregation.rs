//! E12 — §V / Fontes et al. \[27\]: complete segregation never occurs at
//! p = 1/2 in the studied τ range, but at τ = 1/2 it takes over as the
//! initial density p approaches 1.
//!
//! Engine-backed: a density axis at τ = 1/2 plus a single Theorem-1-regime
//! point, replicas as seeds, with a custom observer flagging complete
//! segregation and the surviving minority mass.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_complete_segregation -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_core::metrics::is_completely_segregated;
use seg_engine::{Observer, SweepSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_complete_segregation", &args);
    let replicas = engine_args.replica_count(10);
    banner(
        "E12 exp_complete_segregation",
        "§V remark + Fontes et al. (critical density p* at τ = 1/2)",
        &format!("p sweep at τ = 1/2 on a 96² grid, w = 2, {replicas} seeds per point"),
    );

    let segregation_observer =
        Observer::custom_named(["complete", "minority_frac"], |_task, state, _rng| {
            let field = state.field().expect("2-D variant");
            let plus = field.plus_total();
            let n = field.torus().len();
            vec![
                (
                    "complete".to_string(),
                    f64::from(is_completely_segregated(field)),
                ),
                (
                    "minority_frac".to_string(),
                    plus.min(n - plus) as f64 / n as f64,
                ),
            ]
        });
    let observers = [segregation_observer];
    let densities = [0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99];
    let master = engine_args.master_seed(BASE_SEED);

    let density_sweep = run_sweep(
        &engine_args,
        "density",
        &SweepSpec::builder()
            .side(96)
            .horizon(2)
            .tau(0.5)
            .densities(densities)
            .max_events(50_000_000)
            .replicas(replicas)
            .master_seed(master)
            .build(),
        &observers,
    );

    let mut table = Table::new(vec![
        "p".into(),
        "complete segregation %".into(),
        "mean minority left %".into(),
    ]);
    for (i, p) in densities.iter().enumerate() {
        table.push_row(vec![
            format!("{p:.2}"),
            format!(
                "{:.0}",
                100.0 * density_sweep.point_mean(i, "complete").unwrap_or(0.0)
            ),
            format!(
                "{:.2}",
                100.0 * density_sweep.point_mean(i, "minority_frac").unwrap_or(0.0)
            ),
        ]);
    }
    println!("{}", table.render());

    // And the paper's own regime: p = 1/2, τ in the segregation window
    let regime = run_sweep(
        &engine_args,
        "regime",
        &SweepSpec::builder()
            .side(96)
            .horizon(2)
            .tau(0.45)
            .max_events(50_000_000)
            .replicas(replicas)
            .master_seed(master)
            .build(),
        &observers,
    );
    let complete_runs = regime
        .metric_values(0, "complete")
        .iter()
        .filter(|c| **c > 0.0)
        .count();
    println!(
        "at p = 1/2, τ = 0.45 (Theorem 1 regime): complete segregation in {complete_runs}/{replicas} runs — {}",
        if complete_runs == 0 {
            "as the exponential upper bound implies"
        } else {
            "UNEXPECTED"
        }
    );
    println!(
        "\npaper shape check: a sharp onset of complete segregation as p → 1 at\n\
         τ = 1/2 (Fontes et al.'s p* < 1), and none at p = 1/2 in the paper's\n\
         intolerance range."
    );
}
