//! ICMP vs UDP vs TCP probing on one network — the paper's Table 3 in
//! miniature, showing why "our implementation of tracenet is completely
//! based on ICMP probes".
//!
//! ```text
//! cargo run --release --example protocol_shootout [seed]
//! ```

use probe::{Protocol, SharedNetwork};
use topogen::{default_isps, isp_internet_with, IspInternetSpec};
use tracenet_suite::collect;

fn main() {
    let seed = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    // A pocket-size single-ISP internet so the example runs in a blink.
    let mut isps = default_isps();
    isps.truncate(1); // sprintlink only
    isps[0].pops = 6;
    isps[0].chains_per_pop = 3;
    isps[0].dense_24s = 1;
    let scenario = isp_internet_with(IspInternetSpec {
        seed,
        isps,
        targets_per_isp: 80,
        target_coverage: 0.5,
    });
    let rice = scenario.vantage("rice");

    println!("{:>6} {:>9} {:>10} {:>8}", "proto", "subnets", "addresses", "probes");
    let net = SharedNetwork::new(scenario.topology.clone());
    for proto in [Protocol::Icmp, Protocol::Udp, Protocol::Tcp] {
        let collected = collect(&net, rice, &scenario.targets, proto);
        println!(
            "{:>6} {:>9} {:>10} {:>8}",
            format!("{proto:?}"),
            collected.prefixes().len(),
            collected.addresses().len(),
            collected.probes
        );
    }
    println!();
    println!("paper, Table 3 (all four ISPs): ICMP 11995, UDP 3779, TCP 68 —");
    println!("\"ICMP protocol probing clearly outperforms UDP and TCP\".");
}
