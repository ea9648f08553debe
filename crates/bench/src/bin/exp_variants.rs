//! E15 — §I-A / §V variants: flip-when-unhappy, ε-noise and the 2-D
//! Kawasaki swap baseline, compared with the paper's rule.
//!
//! ```text
//! cargo run --release -p seg-bench --bin exp_variants -- \
//!     [--threads N] [--seed S] [--out FILE.csv] [--replicas K]
//! ```

use seg_analysis::series::Table;
use seg_bench::{banner, run_sweep, usage_or_die, BASE_SEED};
use seg_engine::{Observer, SeedMode, SweepSpec, Variant};

/// Intolerances of the flip-rule sweep. Below ½ every unhappy agent's
/// flip makes it happy, so flip-when-unhappy and noise coincide with the
/// paper's rule there; above ½ they differ.
const TAUS: [f64; 2] = [0.44, 0.55];
/// The flip rules compared, the paper's first.
const FLIP_RULES: [(&str, Variant); 4] = [
    ("paper (flip-if-improves)", Variant::Paper),
    ("flip-when-unhappy", Variant::FlipWhenUnhappy),
    ("noise eps=0.01", Variant::Noise(0.01)),
    ("noise eps=0.10", Variant::Noise(0.10)),
];
/// Ring budget per flip-rule replica.
const FLIP_BUDGET: u64 = 200_000;

/// Per-point means of one row of the table.
#[derive(PartialEq)]
struct Row {
    flips: f64,
    unhappy: f64,
    interface: f64,
    cluster_pct: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let engine_args = usage_or_die("exp_variants", &args);
    banner(
        "E15 exp_variants",
        "§I-A variant discussion (flip rules, noise, Kawasaki baseline)",
        "96² grid, w = 2 (N = 25), flip rules at τ = 0.44 and 0.55 (200k rings), Kawasaki at τ = 0.44 (30k attempts)",
    );

    let n = 96u32;
    let agents = (n * n) as f64;
    let master = engine_args.master_seed(BASE_SEED);
    let replicas = engine_args.replica_count(1);
    let observers = [Observer::TerminalStats];

    // flip-rule variants share one spec: τ × variant axes
    let result = run_sweep(
        &engine_args,
        "flip-rules",
        &SweepSpec::builder()
            .side(n)
            .horizon(2)
            .taus(TAUS)
            .variants(FLIP_RULES.iter().map(|(_, v)| *v))
            .max_events(FLIP_BUDGET)
            .replicas(replicas)
            .master_seed(master)
            // every rule starts from the same initial field: this is a
            // paired comparison of update rules, not of initial draws
            .seed_mode(SeedMode::CommonRandomNumbers)
            .build(),
        &observers,
    );
    // the closed-system baseline runs on its own budget (swap attempts)
    let kawasaki = run_sweep(
        &engine_args,
        "kawasaki",
        &SweepSpec::builder()
            .side(n)
            .horizon(2)
            .tau(TAUS[0])
            .variant(Variant::Kawasaki)
            .max_events(30_000)
            .replicas(replicas)
            .master_seed(master)
            // CRN derivation ignores the point index, so with the same
            // master seed the baseline shares the flip rules' fields too
            .seed_mode(SeedMode::CommonRandomNumbers)
            .build(),
        &observers,
    );

    let row = |r: &seg_engine::SweepResult, i: usize| {
        let mean = |m: &str| r.point_mean(i, m).unwrap_or(f64::NAN);
        Row {
            flips: mean("events"),
            unhappy: mean("unhappy"),
            interface: mean("interface"),
            cluster_pct: 100.0 * mean("largest_cluster") / agents,
        }
    };
    // rows[t][v]: τ index t, flip rule v (the spec's point order)
    let rows: Vec<Vec<Row>> = (0..TAUS.len())
        .map(|t| {
            (0..FLIP_RULES.len())
                .map(|v| row(&result, t * FLIP_RULES.len() + v))
                .collect()
        })
        .collect();
    let swap = row(&kawasaki, 0);

    let mut table = Table::new(vec![
        "τ".into(),
        "variant".into(),
        "flips".into(),
        "unhappy left".into(),
        "interface".into(),
        "largest cluster %".into(),
    ]);
    for (tau, rule_rows) in TAUS.iter().zip(&rows) {
        for ((name, _), r) in FLIP_RULES.iter().zip(rule_rows) {
            table.push_row(vec![
                format!("{tau:.2}"),
                (*name).into(),
                format!("{:.0}", r.flips),
                format!("{:.0}", r.unhappy),
                format!("{:.0}", r.interface),
                format!("{:.1}", r.cluster_pct),
            ]);
        }
    }
    table.push_row(vec![
        format!("{:.2}", TAUS[0]),
        "kawasaki-2d (swap)".into(),
        format!("{:.0} swaps", swap.flips),
        "-".into(),
        format!("{:.0}", swap.interface),
        format!("{:.1}", swap.cluster_pct),
    ]);

    println!("{}", table.render());
    println!("reading (per-row means over {replicas} replica(s)):");
    for line in reading(&rows, &swap, 2.0 * agents * 0.5) {
        println!("- {line}");
    }
}

/// The reading of the table, one sentence per claim, each checked
/// against the rows it cites. `fresh` is the expected interface of the
/// initial field.
fn reading(rows: &[Vec<Row>], swap: &Row, fresh: f64) -> Vec<String> {
    let mut out = Vec::new();
    let all = rows.iter().flatten().chain([swap]);
    let widest = all.map(|r| r.interface).fold(0.0, f64::max);
    if widest < fresh {
        out.push(format!(
            "every row ends with an interface of at most {widest:.0}, below the fresh field's ≈ {fresh:.0}: every variant coarsens."
        ));
    }
    let [paper, unhappy, noise_lo, noise_hi] = &rows[0][..] else {
        unreachable!("four flip rules")
    };
    if unhappy == noise_lo && unhappy == noise_hi {
        out.push(format!(
            "at τ = {:.2} the flip-when-unhappy and both noise rows are identical ({:.0} flips, interface {:.0}): below ½ every unhappy agent's flip makes it happy, so these rules never hold an agent back and never draw the ε-coin.",
            TAUS[0], unhappy.flips, unhappy.interface
        ));
    } else {
        out.push(format!(
            "at τ = {:.2} the flip-when-unhappy and noise rows differ, which the rules do not allow below ½: check the run.",
            TAUS[0]
        ));
    }
    if paper.unhappy == 0.0 {
        out.push(format!(
            "at τ = {:.2} the paper's rule also ends with no unhappy agent ({:.0} flips): it is the same process on another random stream, since its exponential clock draws from it too.",
            TAUS[0], paper.flips
        ));
    }
    let [paper, rest @ ..] = &rows[1][..] else {
        unreachable!("four flip rules")
    };
    let mut clauses = Vec::new();
    if paper.flips < FLIP_BUDGET as f64 {
        clauses.push(format!(
            "the paper's rule stops after {:.0} flips with {:.0} unhappy agents whom no flip makes happy",
            paper.flips, paper.unhappy
        ));
    }
    for ((name, _), r) in FLIP_RULES[1..].iter().zip(rest) {
        let end = if r.unhappy == 0.0 {
            format!("settles with no unhappy agent after {:.0} flips", r.flips)
        } else {
            format!(
                "still has {:.0} unhappy agents when its {FLIP_BUDGET} rings run out, after {:.0} flips",
                r.unhappy, r.flips
            )
        };
        clauses.push(format!(
            "{name} {end} (interface {:.0}, largest cluster {:.1}%)",
            r.interface, r.cluster_pct
        ));
    }
    out.push(format!("at τ = {:.2} {}.", TAUS[1], clauses.join("; ")));
    out.push(format!(
        "the Kawasaki swap baseline at τ = {:.2} makes {:.0} swaps and ends with interface {:.0} and a largest cluster of {:.1}% of the agents.",
        TAUS[0], swap.flips, swap.interface, swap.cluster_pct
    ));
    out
}
