//! E5 — Theorem 1: growth of `E[M]` with the neighborhood size `N` at
//! fixed τ ∈ (τ1, 1/2), against the exponent sandwich `[a(τ), b(τ)]`, and
//! the τ ↔ 1 − τ symmetry.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_theorem1_scaling -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K]
//! ```

use seg_analysis::regression::linear_fit;
use seg_analysis::series::Table;
use seg_bench::{banner, fmt_g, run_sweep, usage_or_die, BASE_SEED};
use seg_core::regions::expected_monochromatic_size;
use seg_engine::{Observer, SeedMode, SweepPoint, SweepSpec};
use seg_grid::PrefixSums;
use seg_theory::exponents::{exponent_a, exponent_b};

/// Observer measuring `E[M]` over 60 sampled agents of the stable state.
fn monochromatic_observer() -> Observer {
    Observer::custom_named(["em"], |_task, state, rng| {
        let sim = state.simulation().expect("paper variant");
        let ps = PrefixSums::new(sim.field());
        vec![(
            "em".to_string(),
            expected_monochromatic_size(sim.field(), &ps, 60, rng),
        )]
    })
}

fn scaling_point(w: u32, tau: f64) -> SweepPoint {
    // keep the grid much larger than regions
    SweepPoint::new((48 * w).max(96), w, tau)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_theorem1_scaling", &args);
    let tau = 0.45;
    let replicas = engine_args.replica_count(3);
    banner(
        "E5 exp_theorem1_scaling",
        "Theorem 1 (2^{aN} ≤ E[M] ≤ 2^{bN})",
        &format!("τ = {tau}, horizons w = 2..6, grid side scaled with w, {replicas} replicas"),
    );

    let horizons = [2u32, 3, 4, 5, 6];
    let mut builder = SweepSpec::builder()
        .replicas(replicas)
        .master_seed(engine_args.master_seed(BASE_SEED));
    for &w in &horizons {
        builder = builder.point(scaling_point(w, tau));
    }
    let result = run_sweep(
        &engine_args,
        "scaling",
        &builder.build(),
        &[monochromatic_observer()],
    );

    let mut table = Table::new(vec![
        "w".into(),
        "N".into(),
        "E[M] (sim)".into(),
        "log2 E[M] / N".into(),
        "a(tau)".into(),
        "b(tau)".into(),
    ]);
    let mut ns = Vec::new();
    let mut logs = Vec::new();
    for (s, &w) in result.summarize("em").iter().zip(&horizons) {
        let nsize = (2 * w + 1) * (2 * w + 1);
        ns.push(nsize as f64);
        logs.push(s.summary.mean.log2());
        table.push_row(vec![
            format!("{w}"),
            format!("{nsize}"),
            fmt_g(s.summary.mean),
            format!("{:.4}", s.summary.mean.log2() / nsize as f64),
            format!("{:.4}", exponent_a(tau)),
            format!("{:.4}", exponent_b(tau)),
        ]);
    }
    println!("{}", table.render());
    let fit = linear_fit(&ns, &logs);
    println!(
        "growth fit: log2 E[M] ≈ {:.4}·N + {:.2}  (R² = {:.3})",
        fit.slope, fit.intercept, fit.r_squared
    );
    println!(
        "paper shape check: E[M] increases with N (slope > 0); the theorem's\n\
         asymptotic sandwich is [a, b] = [{:.4}, {:.4}] — finite-w estimates\n\
         carry o(N)/N corrections, so agreement is qualitative at these sizes.",
        exponent_a(tau),
        exponent_b(tau)
    );

    // symmetry spot check: τ and 1 − τ on the same geometry
    let sym_spec = SweepSpec::builder()
        .side(144)
        .horizon(3)
        .taus([tau, 1.0 - tau])
        .replicas(replicas)
        .master_seed(engine_args.master_seed(BASE_SEED) ^ 0x5151)
        // paired seeds: each replica compares τ and 1 − τ on the same
        // initial draw (common random numbers)
        .seed_mode(SeedMode::CommonRandomNumbers)
        .build();
    let sym = run_sweep(
        &engine_args,
        "symmetry",
        &sym_spec,
        &[monochromatic_observer()],
    );
    let em = sym.summarize("em");
    println!(
        "\nsymmetry check (τ = {:.2} vs {:.2}, w = 3): E[M] = {} vs {} (ratio {:.2})",
        tau,
        1.0 - tau,
        fmt_g(em[0].summary.mean),
        fmt_g(em[1].summary.mean),
        em[0].summary.mean / em[1].summary.mean
    );

    let t = result.throughput();
    eprintln!(
        "throughput: {:.2} replicas/s, {:.2e} events/s on {} threads",
        t.replicas_per_sec, t.events_per_sec, t.threads
    );
}
