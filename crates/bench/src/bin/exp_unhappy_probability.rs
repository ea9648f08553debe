//! E7 — Lemmas 19, 20, 22: probabilities in the initial configuration.
//!
//! Compares (i) the exact unhappiness probability `p_u` (binomial tail)
//! against Lemma 19's `Θ(2^{−[1−H(τ')]N}/√N)` envelope and a Monte-Carlo
//! frequency, and (ii) the radical-region probability against Lemma 20's
//! entropy exponent.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_unhappy_probability -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_core::radical::{find_radical_regions, RadicalParams};
use seg_core::{Intolerance, ModelConfig};
use seg_engine::{Observer, SweepPoint, SweepSpec};
use seg_grid::PrefixSums;
use seg_theory::binomial::{
    radical_region_log2_probability, tail_log2_entropy_estimate, unhappy_probability_envelope,
    unhappy_probability_exact,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_unhappy_probability", &args);
    let tau = 0.42;
    banner(
        "E7 exp_unhappy_probability",
        "Lemma 19 (p_u sandwich) and Lemma 20/22 (radical regions)",
        &format!("τ̃ = {tau}, horizons w = 1..8; Monte-Carlo on a 512² grid"),
    );

    // Monte-Carlo frequencies: one zero-event replica per horizon — the
    // engine measures the fresh initial configuration.
    let horizons: Vec<u32> = (1..=8).collect();
    let mut builder = SweepSpec::builder()
        .replicas(engine_args.replica_count(1))
        .master_seed(engine_args.master_seed(BASE_SEED))
        .max_events(0);
    for &w in &horizons {
        builder = builder.point(SweepPoint::new(if w <= 6 { 512 } else { 256 }, w, tau));
    }
    let result = run_sweep(
        &engine_args,
        "",
        &builder.build(),
        &[Observer::TerminalStats],
    );

    let mut table = Table::new(vec![
        "w".into(),
        "N".into(),
        "threshold".into(),
        "p_u exact".into(),
        "envelope".into(),
        "exact/env".into(),
        "MC freq".into(),
    ]);
    for (s, &w) in result.summarize("unhappy").iter().zip(&horizons) {
        let nsize = (2 * w + 1) * (2 * w + 1);
        let intol = Intolerance::new(nsize, tau);
        let exact = unhappy_probability_exact(nsize as u64, intol.threshold() as u64);
        let env = unhappy_probability_envelope(nsize as u64, intol.threshold() as u64);
        let agents = (s.point.side as f64) * (s.point.side as f64);
        let mc = s.summary.mean / agents;
        table.push_row(vec![
            format!("{w}"),
            format!("{nsize}"),
            format!("{}", intol.threshold()),
            format!("{exact:.3e}"),
            format!("{env:.3e}"),
            format!("{:.2}", exact / env),
            format!("{mc:.3e}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper shape check (Lemma 19): exact/envelope stays bounded by constants\n\
         as N grows, and the Monte-Carlo frequency tracks the exact tail.\n"
    );

    // Lemma 20/22: radical regions. At small N the paper's τ̂ deflation
    // exceeds τ entirely, so the scan uses the plain (N → ∞) threshold τ.
    let w = 2;
    let nsize = (2 * w + 1) * (2 * w + 1);
    let intol = Intolerance::new(nsize, tau);
    let params = RadicalParams::for_tau(w, tau, 0.05);
    let radius = params.radical_radius();
    let region_size = (2 * radius as u64 + 1) * (2 * radius as u64 + 1);
    let thr = params.minus_threshold_plain(intol);
    let exact_log2 = radical_region_log2_probability(region_size, thr);
    let entropy_log2 = tail_log2_entropy_estimate(region_size, thr.saturating_sub(1));
    let sim = ModelConfig::new(512, w, tau)
        .seed(engine_args.master_seed(BASE_SEED))
        .build();
    let ps = PrefixSums::new(sim.field());
    let found = find_radical_regions(&ps, params, thr);
    let mc_log2 = (found.len().max(1) as f64 / sim.torus().len() as f64).log2();
    println!("Lemma 20 (radical region of radius {radius}, minus threshold {thr}/{region_size}):");
    println!("  log2 P exact (binomial) = {exact_log2:.2}");
    println!("  log2 P entropy estimate = {entropy_log2:.2}");
    println!(
        "  log2 MC frequency       = {mc_log2:.2}  ({} regions on 512²)",
        found.len()
    );
    println!(
        "\npaper shape check (Lemma 20): the three estimates agree to the o(N)\n\
         slack the lemma allows."
    );
}
