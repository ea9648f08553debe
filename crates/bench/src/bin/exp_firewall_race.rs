//! E17 — Lemma 10's race: a nucleated firewall must finish forming before
//! foreign unhappiness arrives (events B vs T(ρ/2) in the proof). This
//! harness seeds a monochromatic nucleus and measures both clocks.
//!
//! Engine-backed: one [`Variant::Probe`] point per nucleus radius, one
//! race trial per replica (replica seeds replace the old hand-rolled
//! `base_seed + t` loop inside `race_statistics`).
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_firewall_race -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_core::race::{run_race, RaceConfig};
use seg_engine::{Observer, SweepPoint, SweepSpec, Variant};

const NUCLEI: [u32; 4] = [0, 2, 4, 6];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_firewall_race", &args);
    let trials = engine_args.replica_count(10);
    banner(
        "E17 exp_firewall_race",
        "Lemma 10 (the firewall-formation race; trapping probability)",
        &format!("160², w = 3, τ = 0.45; nucleus radius sweep, {trials} trials each"),
    );

    let base = RaceConfig::default();
    let mut builder = SweepSpec::builder()
        .replicas(trials)
        .master_seed(engine_args.master_seed(BASE_SEED));
    for _ in NUCLEI {
        builder = builder
            .point(SweepPoint::new(base.side, base.horizon, base.tau).with_variant(Variant::Probe));
    }
    let race_observer = Observer::custom_named(
        ["trapped", "fw_won", "growth_time", "intrusion_time"],
        move |task, _state, _rng| {
            let cfg = RaceConfig {
                nucleus_radius: NUCLEI[task.point_index],
                ..base
            };
            let o = run_race(cfg, task.seed);
            let won = match (o.growth_time, o.intrusion_time) {
                (Some(f), Some(i)) => f < i,
                (Some(_), None) => true,
                _ => false,
            };
            let mut out = vec![
                ("trapped".to_string(), f64::from(o.trapped)),
                ("fw_won".to_string(), f64::from(won)),
            ];
            if let Some(t) = o.growth_time {
                out.push(("growth_time".to_string(), t));
            }
            if let Some(t) = o.intrusion_time {
                out.push(("intrusion_time".to_string(), t));
            }
            out
        },
    );
    let result = run_sweep(&engine_args, "", &builder.build(), &[race_observer]);

    let mut table = Table::new(vec![
        "nucleus r".into(),
        "trapped".into(),
        "growth before intrusion".into(),
        "mean growth time".into(),
        "mean intrusion time".into(),
    ]);
    for (i, nucleus) in NUCLEI.iter().enumerate() {
        let count = |metric: &str| {
            result
                .metric_values(i, metric)
                .iter()
                .filter(|v| **v > 0.0)
                .count()
        };
        let mean_opt = |metric: &str| {
            result
                .point_mean(i, metric)
                .map_or("-".to_string(), |m| format!("{m:.2}"))
        };
        table.push_row(vec![
            format!("{nucleus}"),
            format!("{}/{trials}", count("trapped")),
            format!("{}/{trials}", count("fw_won")),
            mean_opt("growth_time"),
            mean_opt("intrusion_time"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper shape check (Lemma 10): trapping probability increases with the\n\
         nucleus size. On unconditioned fields the intrusion clock fires almost\n\
         immediately (the paper's conditioning event A fails w.h.p. at these\n\
         small N), yet the nucleus still wins the growth race in most runs —\n\
         the conditioning of Lemma 10 is sufficient, not necessary, at\n\
         simulation scales."
    );
}
