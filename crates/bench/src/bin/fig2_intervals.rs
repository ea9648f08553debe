//! E2 — Figure 2: the intolerance intervals with expected exponential
//! (almost-)segregation, plus a simulation probe of each regime.
//!
//! Engine-backed: a single τ-axis sweep over all regimes with
//! [`Observer::TerminalStats`].
//!
//! ```text
//! cargo run --release -p seg-bench --bin fig2_intervals -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_engine::{Observer, SweepSpec};
use seg_theory::constants::{
    classify, monochromatic_interval_width, tau1, tau2, total_interval_width,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("fig2_intervals", &args);
    banner(
        "E2 fig2_intervals",
        "Figure 2 (segregation intervals on the τ axis)",
        "boundaries from Eqs. (1) and (3); probes on a 128² grid, w = 3",
    );

    println!(
        "τ2 = {:.6} (= 11/32, root of 1024τ² − 384τ + 11 = 0)",
        tau2()
    );
    println!("τ1 = {:.6} (root of (3/4)[1 − H(4τ/3)] = 1 − H(τ))", tau1());
    println!(
        "monochromatic interval (τ1, 1−τ1)\\{{1/2}}: width ≈ {:.4}  (paper: ≈ 0.134)",
        monochromatic_interval_width()
    );
    println!(
        "total interval (τ2, 1−τ2)\\{{1/2}}:        width ≈ {:.4}  (paper: ≈ 0.312)",
        total_interval_width()
    );
    println!();

    let n = 128u32;
    let agents = (n * n) as f64;
    let taus = [
        0.15,
        0.25,
        0.30,
        tau2() + 0.01,
        0.40,
        tau1() + 0.01,
        0.46,
        0.49,
        0.50,
        0.51,
        0.54,
        1.0 - tau1() + 0.01,
        0.62,
        1.0 - tau2() + 0.01,
        0.75,
        0.85,
    ];
    let spec = SweepSpec::builder()
        .side(n)
        .horizon(3)
        .taus(taus)
        .max_events(50_000_000)
        .replicas(engine_args.replica_count(1))
        .master_seed(engine_args.master_seed(BASE_SEED))
        .build();
    let result = run_sweep(&engine_args, "", &spec, &[Observer::TerminalStats]);

    let mut table = Table::new(vec![
        "tau".into(),
        "regime (theory)".into(),
        "flips/agent".into(),
        "largest cluster %".into(),
        "unhappy left".into(),
    ]);
    for (i, tau) in taus.iter().enumerate() {
        table.push_row(vec![
            format!("{tau:.4}"),
            format!("{:?}", classify(*tau)),
            format!(
                "{:.3}",
                result.point_mean(i, "events").unwrap_or(0.0) / agents
            ),
            format!(
                "{:.1}",
                100.0 * result.point_mean(i, "largest_cluster").unwrap_or(0.0) / agents
            ),
            format!("{:.0}", result.point_mean(i, "unhappy").unwrap_or(0.0)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper shape check: flip activity and cluster coarsening are confined to\n\
         (τ2, 1−τ2); outside it (Static rows) the configuration barely moves."
    );
}
