//! Assemble a subnet-level topology map from tracenet sessions and emit
//! it as Graphviz DOT — the "subnet level maps enrich the router level
//! maps" use case of the paper's introduction.
//!
//! ```text
//! cargo run --release --example subnet_map | dot -Tpng > map.png
//! ```

use evalkit::graph::SubnetGraph;
use netsim::samples;
use probe::{Protocol, SharedNetwork};
use tracenet::{Session, TracenetOptions};

fn main() {
    // Map the Figure 2 network from two vantage points (A and B): the
    // union exposes the shared multi-access LAN as the articulation
    // point between the two "disjoint" paths.
    let (topo, names) = samples::figure2();
    let net = SharedNetwork::new(topo);
    let mut graph = SubnetGraph::new();

    for (k, (vantage, dest)) in
        [("A", "D"), ("B", "C"), ("A", "C"), ("B", "D")].into_iter().enumerate()
    {
        let mut prober = net.prober(names.addr(vantage), Protocol::Icmp).ident(0x4d00 + k as u16);
        let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr(dest));
        graph.add_report(&report);
        eprintln!(
            "traced {vantage} -> {dest}: {} hops, {} probes",
            report.hops.len(),
            report.total_probes
        );
    }

    eprintln!(
        "map: {} subnets, {} adjacencies (LAN M should be the hub)",
        graph.node_count(),
        graph.edge_count()
    );
    print!("{}", graph.to_dot("figure 2 subnet map"));
}
