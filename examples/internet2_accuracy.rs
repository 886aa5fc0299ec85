//! A single-vantage accuracy study on the Internet2-like research
//! network: trace one target per published subnet, compare the collected
//! subnets against ground truth, and print the paper's Table-1-style
//! matrix — the complete §4.1 pipeline in one binary.
//!
//! ```text
//! cargo run --release --example internet2_accuracy [seed]
//! ```

use evalkit::classify::{classify, SubnetTable};
use evalkit::similarity::{prefix_similarity, size_similarity, PrefixBounds};
use probe::{Protocol, SharedNetwork};
use topogen::{internet2, GtSubnet};
use tracenet_suite::collect;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let scenario = internet2(seed);
    println!(
        "internet2 scenario (seed {seed}): {} routers, {} subnets, {} targets",
        scenario.topology.router_count(),
        scenario.ground_truth.of_network("internet2").count(),
        scenario.targets.len()
    );

    let vantage = scenario.vantage("utdallas");
    let net = SharedNetwork::new(scenario.topology.clone());
    let collected = collect(&net, vantage, &scenario.targets, Protocol::Icmp);
    println!(
        "collected {} subnets with {} probes over {} sessions\n",
        collected.prefixes().len(),
        collected.probes,
        collected.sessions
    );

    let gt: Vec<&GtSubnet> = scenario.ground_truth.of_network("internet2").collect();
    let classifications = classify(&gt, &collected.records());
    let table = SubnetTable::build(&classifications);
    print!("{table}");

    let bounds = PrefixBounds::from_classifications(&classifications);
    println!(
        "\nsimilarity to the original topology: prefix {:.3}, size {:.3}",
        prefix_similarity(&classifications, bounds),
        size_similarity(&classifications, bounds)
    );
    println!("(paper, Table 1: 73.7% / 94.9% exact; similarity 0.83 / 0.86)");
}
