//! Quickstart: run tracenet over the paper's Figure 3 network and watch
//! it discover the whole subnet at each hop where traceroute would name
//! one address.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use netsim::samples;
use probe::{Prober, Protocol, SharedNetwork};
use tracenet::{Session, TracenetOptions};
use traceroute::{traceroute, TracerouteOptions};

fn main() {
    // The paper's Figure 3 scene: a /29 under exploration at hop 3, with
    // ingress/far/close fringe interfaces placed to confuse a naive
    // collector.
    let (topo, names) = samples::figure3();
    let vantage = names.addr("vantage");
    let dest = names.addr("dest");
    let net = SharedNetwork::new(topo);

    println!("--- traceroute view ---");
    let mut prober = net.prober(vantage, Protocol::Icmp);
    let tr = traceroute(&mut prober, dest, TracerouteOptions::default());
    print!("{tr}");
    println!(
        "traceroute: {} addresses for {} probes\n",
        tr.all_addresses().len(),
        prober.stats().sent
    );

    println!("--- tracenet view ---");
    let mut prober = net.prober(vantage, Protocol::Icmp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(dest);
    print!("{report}");
    println!();

    // The hop-3 subnet is the paper's S = 10.0.2.0/29 with 4 interfaces.
    let s = report.hops[2].subnet.as_ref().expect("hop 3 collects the paper's subnet S");
    println!("hop 3 collected {} — the paper's subnet S:", s.record.prefix());
    for &m in s.record.members() {
        let role = match s.role_of(m) {
            Some(tracenet::AddressRole::Pivot) => "pivot",
            Some(tracenet::AddressRole::ContraPivot) => "contra-pivot",
            _ => "member",
        };
        println!("  {m:<12} {role}");
    }
    println!(
        "\ntracenet: {} addresses for {} probes — the paper's trade: more \
         probes, a complete subnet-annotated path",
        report.all_addresses().len(),
        report.total_probes
    );
}
