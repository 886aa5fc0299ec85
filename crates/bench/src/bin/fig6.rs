//! Regenerates **Figure 6**: distribution of exact-match subnets among
//! the three PlanetLab vantage points (Venn partition), plus §4.2's
//! quoted agreement rates.
//!
//! ```text
//! cargo run --release -p bench-suite --bin fig6 [seed]
//! ```

use bench_suite::{isp_experiment, paper, ExpArgs, SEED};
use evalkit::render::pct;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(SEED);
    let exp = isp_experiment(&ExpArgs::sequential(seed));
    let v = exp.venn();
    println!("== Figure 6: exact-match subnet distribution among vantage points ==");
    println!("seed: {seed}");
    println!();
    println!("                     ours     paper(abs)");
    println!("rice only        {:>8}      {:>8}", v.only_a, paper::FIG6[0]);
    println!("uoregon only     {:>8}      {:>8}", v.only_c, paper::FIG6[2]);
    println!("umass only       {:>8}      {:>8}", v.only_b, paper::FIG6[1]);
    println!("rice∩umass       {:>8}      {:>8}", v.ab, paper::FIG6[3]);
    println!("rice∩uoregon     {:>8}      {:>8}", v.ac, paper::FIG6[4]);
    println!("umass∩uoregon    {:>8}      {:>8}", v.bc, paper::FIG6[5]);
    println!("all three        {:>8}      {:>8}", v.abc, paper::FIG6[6]);
    println!("total distinct   {:>8}", v.total());
    println!();
    println!(
        "seen by all three: ours {} (paper ~{})",
        pct(v.all_three_rate()),
        pct(paper::FIG6_RATES.0)
    );
    println!(
        "verified by ≥1 other vantage: ours {} (paper ~{})",
        pct(v.verified_by_another_rate()),
        pct(paper::FIG6_RATES.1)
    );
}
