//! E11 — Lemma 14 via Grimmett's Theorem 5: below criticality, the radius
//! of the open (bad-block) cluster at the origin has an exponential tail —
//! so the interior of a chemical firewall contains no large bad clusters
//! and becomes *almost* monochromatic.
//!
//! Engine-backed: one [`Variant::Probe`] point per occupation `p` (carried
//! in the point's `density`), each replica sampling a batch of
//! origin-cluster radii with its replica-seeded RNG.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_bad_cluster_decay -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::regression::exponential_fit;
use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_engine::{Observer, SweepSpec, Variant};
use seg_percolation::cluster::{empirical_radius_tail, origin_radius_tail};

/// l1 radius of the sampled box ((2m+1)² sites).
const BOX_RADIUS: u32 = 30;
/// Radius-tail trials per replica; total trials = replicas × this.
const TRIALS_PER_REPLICA: u32 = 100;
/// Largest tail threshold reported.
const K_MAX: u32 = 14;

/// The row column holding `P(radius >= k)`.
fn tail_column(k: u32) -> String {
    format!("radius_ge_{k:02}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_bad_cluster_decay", &args);
    let replicas = engine_args.replica_count(40);
    banner(
        "E11 exp_bad_cluster_decay",
        "Lemma 14 via Theorem 5 (Grimmett: exponential radius decay, p < pc)",
        &format!(
            "origin-cluster radius tails at p ∈ {{0.15, 0.30, 0.45}}, \
             {replicas} × {TRIALS_PER_REPLICA} trials"
        ),
    );

    let ps = [0.15, 0.30, 0.45];
    let spec = SweepSpec::builder()
        .side(BOX_RADIUS)
        .horizon(0)
        .tau(0.0)
        .densities(ps)
        .variant(Variant::Probe)
        .replicas(replicas)
        .master_seed(engine_args.master_seed(BASE_SEED))
        .build();
    // each replica contributes its batch's empirical tail; per-point
    // means across replicas recover the overall tail
    let tail_observer =
        Observer::custom_named((0..=K_MAX).map(tail_column), |task, _state, rng| {
            let samples =
                origin_radius_tail(BOX_RADIUS, task.point.density, TRIALS_PER_REPLICA, rng);
            empirical_radius_tail(&samples, K_MAX)
                .iter()
                .enumerate()
                .map(|(k, pr)| (tail_column(k as u32), *pr))
                .collect()
        });
    let result = run_sweep(&engine_args, "", &spec, &[tail_observer]);

    for (point, &p) in ps.iter().enumerate() {
        let mut table = Table::new(vec!["k".into(), "P(radius >= k)".into()]);
        let mut ks = Vec::new();
        let mut ps_pos = Vec::new();
        for k in 0..=K_MAX {
            let pr = result.point_mean(point, &tail_column(k)).unwrap_or(0.0);
            table.push_row(vec![format!("{k}"), format!("{pr:.4}")]);
            if pr > 0.0 && k >= 1 {
                ks.push(k as f64);
                ps_pos.push(pr);
            }
        }
        println!("p = {p}:");
        println!("{}", table.render());
        if ks.len() >= 3 {
            let fit = exponential_fit(&ks, &ps_pos);
            println!(
                "  exponential fit: P(radius ≥ k) ≈ {:.3}·2^({:.3}·k), ψ ≈ {:.3} nats\n  (R² = {:.3})\n",
                fit.amplitude,
                fit.rate,
                -fit.rate * std::f64::consts::LN_2,
                fit.r_squared
            );
        }
    }
    println!(
        "paper shape check (Thm 5): the decay rate ψ(p) > 0 for every p < pc and\n\
         shrinks as p → pc — exactly the bad-block control Lemma 14 needs inside\n\
         an exponentially large neighborhood."
    );
}
