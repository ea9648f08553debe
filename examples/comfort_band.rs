//! The paper's §V proposal, realized: agents uncomfortable being a
//! minority *or* a majority ("[v]ariations where agents could potentially
//! flip in both situations ... would be of interest").
//!
//! Compares the one-sided model against two-sided comfort bands of
//! decreasing upper threshold, showing how majority discomfort suppresses
//! the giant segregated clusters.
//!
//! ```text
//! cargo run --release --example comfort_band
//! ```

use self_organized_segregation::seg_analysis::series::Table;
use self_organized_segregation::seg_core::interval::IntervalSim;
use self_organized_segregation::seg_core::metrics::Clusters;

fn main() {
    let n = 128;
    let w = 2;
    let tau_lo = 0.44;
    println!("Two-sided comfort (§V variant): τ_lo = {tau_lo}, {n}×{n}, w = {w}\n");

    let mut table = Table::new(vec![
        "tau_hi".into(),
        "stable?".into(),
        "flips".into(),
        "discontent left".into(),
        "largest cluster %".into(),
        "interface".into(),
    ]);
    let agents = (n * n) as f64;
    for tau_hi in [1.0, 0.95, 0.90, 0.85, 0.80] {
        let mut sim = IntervalSim::random(n, w, tau_lo, tau_hi, 77);
        let stable = sim.run(5_000_000);
        let clusters = Clusters::of_field(sim.field());
        table.push_row(vec![
            format!("{tau_hi:.2}"),
            format!("{stable}"),
            format!("{}", sim.flips()),
            format!("{}", sim.discontent_count()),
            format!("{:.1}", 100.0 * clusters.largest() as f64 / agents),
            format!("{}", clusters.interface_length()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: τ_hi = 1 is the paper's model — giant clusters, stable all-happy\n\
         end state. Tightening the band caps cluster growth (agents abandon\n\
         over-segregated areas) and below some τ_hi the process stops terminating:\n\
         exactly the trade-off §V anticipates."
    );
}
