//! E8 — Lemma 9: a monochromatic annulus of width √2·w is static and
//! shields its interior.
//!
//! Engine-backed: one [`Variant::Probe`] point per `(τ, w, radius)`
//! configuration. The geometric certificate is deterministic; the
//! adversarial dynamics run needs a *painted* initial field, so the
//! observer builds it from the replica seed — scheduling, seeding and
//! sinks stay on the engine.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_firewall -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_core::firewall::{check_firewall_static, firewall_survives_dynamics, paint_firewall};
use seg_core::{Intolerance, ModelConfig};
use seg_engine::{Observer, SweepPoint, SweepSpec, Variant};
use seg_grid::Torus;

const SIDE: u32 = 160;
/// The `(τ, w, annulus radius)` configurations probed.
const CONFIGS: [(f64, u32, f64); 5] = [
    (0.40, 3, 40.0),
    (0.45, 4, 55.0),
    (0.48, 4, 55.0),
    (0.45, 2, 30.0),
    (0.36, 3, 40.0),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_firewall", &args);
    banner(
        "E8 exp_firewall",
        "Lemma 9 (annular firewalls are static and impenetrable)",
        "τ sweep, geometric certificate + adversarial dynamics on 160² grids",
    );

    let mut builder = SweepSpec::builder()
        .replicas(engine_args.replica_count(1))
        .master_seed(engine_args.master_seed(BASE_SEED));
    for &(tau, w, _radius) in &CONFIGS {
        builder = builder.point(SweepPoint::new(SIDE, w, tau).with_variant(Variant::Probe));
    }
    // radius is linked to the point, not a grid axis: look it up by index
    let survives_observer = Observer::custom_named(["survives"], |task, _state, _rng| {
        let p = task.point;
        let (_, _, radius) = CONFIGS[task.point_index];
        let t = Torus::new(p.side);
        let c = t.point(p.side as i64 / 2, p.side as i64 / 2);
        let mut sim = ModelConfig::new(p.side, p.horizon, p.tau)
            .seed(task.seed)
            .build();
        let mut field = sim.field().clone();
        paint_firewall(&mut field, c, radius, p.horizon);
        sim = ModelConfig::new(p.side, p.horizon, p.tau)
            .seed(task.seed)
            .build_with_field(field);
        vec![(
            "survives".to_string(),
            f64::from(firewall_survives_dynamics(&mut sim, c, radius, 10_000_000)),
        )]
    });
    let result = run_sweep(&engine_args, "", &builder.build(), &[survives_observer]);

    let mut table = Table::new(vec![
        "tau".into(),
        "w".into(),
        "radius".into(),
        "min same".into(),
        "threshold".into(),
        "static (geom)".into(),
        "survives dynamics".into(),
    ]);
    for (i, &(tau, w, radius)) in CONFIGS.iter().enumerate() {
        let t = Torus::new(SIDE);
        let c = t.point(SIDE as i64 / 2, SIDE as i64 / 2);
        let nsize = (2 * w + 1) * (2 * w + 1);
        let intol = Intolerance::new(nsize, tau);
        let geom = check_firewall_static(t, c, radius, w, intol);
        table.push_row(vec![
            format!("{tau:.2}"),
            format!("{w}"),
            format!("{radius:.0}"),
            format!("{}", geom.min_guaranteed_same),
            format!("{}", intol.threshold()),
            format!("{}", geom.is_static),
            format!("{}", result.point_mean(i, "survives").unwrap_or(0.0) > 0.5),
        ]);
    }
    println!("{}", table.render());
    println!(
        "paper shape check (Lemma 9): whenever the geometric certificate holds\n\
         (min same ≥ threshold), the painted firewall survives the full dynamics\n\
         unchanged. The geometric check is adversarial (interior hostile too), so\n\
         'static = false' rows can still survive in benign runs."
    );
}
