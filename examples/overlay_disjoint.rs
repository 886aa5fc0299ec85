//! The paper's Figure 2 motivation: picking "disjoint" overlay paths
//! from a traceroute map silently lands both paths on the same
//! multi-access LAN; a tracenet map exposes the shared subnet.
//!
//! ```text
//! cargo run --release --example overlay_disjoint
//! ```

use std::collections::BTreeSet;

use inet::{Addr, Prefix};
use netsim::samples;
use probe::{Protocol, SharedNetwork};
use tracenet::{Session, TracenetOptions};
use traceroute::{traceroute, TracerouteOptions};

fn main() {
    let (topo, names) = samples::figure2();
    let a = names.addr("A");
    let b = names.addr("B");
    let c = names.addr("C");
    let d = names.addr("D");
    let net = SharedNetwork::new(topo);

    // --- The traceroute map. ------------------------------------------------
    let paris = TracerouteOptions { paris: true, ..TracerouteOptions::default() };
    let mut prober = net.prober(a, Protocol::Icmp).ident(1);
    let p1 = traceroute(&mut prober, d, paris);
    let mut prober = net.prober(b, Protocol::Icmp).ident(2);
    let p3 = traceroute(&mut prober, c, paris);

    let p1_addrs: BTreeSet<Addr> = p1.all_addresses();
    let p3_addrs: BTreeSet<Addr> = p3.all_addresses();
    println!("P1 (A -> D): {:?}", p1_addrs);
    println!("P3 (B -> C): {:?}", p3_addrs);
    let shared_nodes: Vec<&Addr> = p1_addrs.intersection(&p3_addrs).collect();
    println!(
        "traceroute verdict: paths share {} addresses -> \"node and link disjoint\"\n",
        shared_nodes.len()
    );
    assert!(shared_nodes.is_empty(), "Figure 2's premise: the IP paths look disjoint");

    // --- The tracenet map. ----------------------------------------------------
    let mut prober = net.prober(a, Protocol::Icmp).ident(3);
    let t1 = Session::new(&mut prober, TracenetOptions::default()).run(d);
    let mut prober = net.prober(b, Protocol::Icmp).ident(4);
    let t3 = Session::new(&mut prober, TracenetOptions::default()).run(c);

    let s1: BTreeSet<Prefix> = t1.subnets().map(|s| s.record.prefix()).collect();
    let s3: BTreeSet<Prefix> = t3.subnets().map(|s| s.record.prefix()).collect();
    println!("tracenet subnets on A->D: {s1:?}");
    println!("tracenet subnets on B->C: {s3:?}");
    let shared: Vec<&Prefix> = s1.intersection(&s3).collect();
    println!("\ntracenet verdict: paths share {} subnet(s): {shared:?}", shared.len());
    let m: Prefix = "10.2.0.0/29".parse().unwrap();
    assert!(shared.contains(&&m), "the multi-access LAN M must be exposed as shared");
    println!(
        "\nThe \"disjoint\" overlay paths both cross LAN {m} (routers R2, R4, \
         R5, R8) — exactly the incorrect-disjointness conclusion of the \
         paper's Figure 2, caught because tracenet collects subnets, not \
         addresses."
    );
}
