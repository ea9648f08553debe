//! E1 — Figure 1: snapshots of the segregation process.
//!
//! Paper setting: 1000×1000 torus, neighborhood size 441 (w = 10),
//! τ = 0.42; initial (a), intermediate (b)(c), final (d) frames plus the
//! terminal statistics of each phase. Defaults to a 400-side grid so the
//! run finishes in minutes; pass a side length to go bigger.
//!
//! Engine-backed via the staged-budget pattern: four points share one
//! trajectory ([`SeedMode::CommonRandomNumbers`]) and stop at increasing
//! flip budgets; the [`Observer::Snapshot`] frames `snap_p0..p3` are the
//! figure's panels (a)–(d).
//!
//! ```text
//! cargo run --release -p seg-bench --bin fig1_snapshots -- \
//!     [SIDE] [--threads N] [--seed S] [--out FILE.csv] [--replicas K] [--checkpoint FILE.jsonl]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die_with_rest, BASE_SEED};
use seg_engine::{Observer, SeedMode, SweepPoint, SweepSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (engine_args, rest) = usage_or_die_with_rest("fig1_snapshots", "[SIDE]", &args);
    let side: u32 = match rest.as_slice() {
        [] => 400,
        [s] => s.parse().unwrap_or_else(|_| {
            eprintln!("side must be an integer, got {s:?}");
            std::process::exit(2);
        }),
        more => {
            eprintln!("unexpected argument {:?}", more[1]);
            std::process::exit(2);
        }
    };
    let w = 10;
    let tau = 0.42;
    banner(
        "E1 fig1_snapshots",
        "Figure 1 (four-phase snapshots, τ = 0.42, N = 441)",
        &format!("side = {side}, w = {w}, τ̃ = {tau}, p = 1/2"),
    );

    let out_dir = std::path::PathBuf::from("target/fig1_frames");
    let agents = (side as u64) * (side as u64);
    // total flips land near 0.5/agent at these parameters; budget each
    // intermediate phase at a sixth of that so frames (b) and (c) catch
    // the process mid-flight
    let phase = agents / 12;
    let frames: [(&str, Option<u64>); 4] = [
        ("(a) initial", Some(0)),
        ("(b) intermediate", Some(phase)),
        ("(c) intermediate", Some(2 * phase)),
        ("(d) final", None), // run to stability
    ];
    let mut builder = SweepSpec::builder()
        .replicas(engine_args.replica_count(1))
        .master_seed(engine_args.master_seed(BASE_SEED))
        // all four points replay one trajectory, stopped at four depths
        .seed_mode(SeedMode::CommonRandomNumbers);
    for (_, budget) in frames {
        let mut point = SweepPoint::new(side, w, tau);
        if let Some(b) = budget {
            point = point.with_budget(b);
        }
        builder = builder.point(point);
    }
    let result = run_sweep(
        &engine_args,
        "",
        &builder.build(),
        &[
            Observer::TerminalStats,
            Observer::Snapshot {
                dir: out_dir.clone(),
            },
        ],
    );

    let mut table = Table::new(vec![
        "frame".into(),
        "flips so far".into(),
        "time".into(),
        "unhappy".into(),
        "largest cluster %".into(),
    ]);
    for (i, (label, _)) in frames.iter().enumerate() {
        table.push_row(vec![
            (*label).into(),
            format!("{:.0}", result.point_mean(i, "events").unwrap_or(0.0)),
            format!("{:.1}", result.point_mean(i, "sim_time").unwrap_or(0.0)),
            format!("{:.0}", result.point_mean(i, "unhappy").unwrap_or(0.0)),
            format!(
                "{:.1}",
                100.0 * result.point_mean(i, "largest_cluster").unwrap_or(0.0) / agents as f64
            ),
        ]);
    }
    println!("{}", table.render());
    println!(
        "frames written to {} (snap_p0 = (a) … snap_p3 = (d))",
        out_dir.display()
    );
    let terminated = result.point_mean(3, "terminated").unwrap_or(0.0) > 0.5;
    println!(
        "paper shape check: process terminates with zero unhappy agents and large\n\
         segregated areas — terminated = {}, unhappy = {:.0}",
        terminated,
        result.point_mean(3, "unhappy").unwrap_or(f64::NAN)
    );
}
