//! Regenerates **Figure 7**: target / subnetized / un-subnetized IP
//! address distribution per ISP, one panel per PlanetLab site.
//!
//! ```text
//! cargo run --release -p bench-suite --bin fig7 [seed]
//! ```

use bench_suite::{isp_experiment, ExpArgs, SEED};
use evalkit::render::table;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(SEED);
    let exp = isp_experiment(&ExpArgs::sequential(seed));
    println!("== Figure 7: IP address accounting per ISP per vantage ==");
    println!("seed: {seed}");
    for (vantage, rows) in exp.ip_accounting() {
        println!("\n-- IP / ISP at vantage {vantage} --");
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|a| {
                vec![
                    a.isp.clone(),
                    a.target_ips.to_string(),
                    a.subnetized.to_string(),
                    a.unsubnetized.to_string(),
                ]
            })
            .collect();
        print!("{}", table(&["isp", "target IPs", "subnetized", "un-subnetized"], &data));
    }
    println!();
    println!("paper shape: SprintLink has by far the most un-subnetized addresses");
    println!("(least responsive ISP); NTT America subnetizes the most addresses");
    println!("despite having the fewest subnets (its /20-/22 LANs are huge).");
}
