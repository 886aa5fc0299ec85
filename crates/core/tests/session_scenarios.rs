//! Session-level scenario tests: protocol variants, off-path handling,
//! truncation, and scripted corner cases that are awkward to build as
//! topologies.

use inet::Addr;
use netsim::samples;
use probe::{ProbeOutcome, Prober, Protocol, ScriptedProber, SharedNetwork};
use tracenet::{Session, TracenetOptions};

fn a(s: &str) -> Addr {
    s.parse().unwrap()
}

#[test]
fn udp_session_collects_like_icmp_on_cooperative_chain() {
    let (topo, names) = samples::chain(3);
    let net = SharedNetwork::new(topo);
    let mut prober = net.prober(names.addr("vantage"), probe::Protocol::Udp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
    assert!(report.destination_reached);
    assert_eq!(report.subnets().count(), 4, "all /31 links collected over UDP");
}

#[test]
fn tcp_session_works_where_routers_allow_it() {
    let (topo, names) = samples::chain(2);
    let net = SharedNetwork::new(topo);
    let mut prober = net.prober(names.addr("vantage"), probe::Protocol::Tcp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
    assert!(report.destination_reached);
    assert!(report.subnets().count() >= 2);
}

#[test]
fn max_ttl_truncates_the_trace() {
    let (topo, names) = samples::chain(5);
    let net = SharedNetwork::new(topo);
    let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
    let opts = TracenetOptions { max_ttl: 3, ..TracenetOptions::default() };
    let report = Session::new(&mut prober, opts).run(names.addr("dest"));
    assert!(!report.destination_reached);
    assert_eq!(report.hops.len(), 3);
}

/// An off-the-trace-path subnet (perceived distance ≠ trace hop) is
/// explored like an on-path one (§3.4).
#[test]
fn off_path_subnets_are_explored() {
    // Scripted world: destination at hop 3 behind hops u (h1), m (h2).
    // The hop-2 router reports `m`, an address whose true direct
    // distance is 1 (a shortest-path-policy router reporting its
    // vantage-side interface) — positioning flags it off-path.
    let dest = a("10.0.9.9");
    let h1 = a("10.0.1.1");
    let m = a("10.0.2.1"); // reported at hop 2, really at distance 1
    let mate = a("10.0.2.0");

    let mut p = ScriptedProber::new(a("10.0.0.1"));
    p.script(dest, 1, ProbeOutcome::TtlExceeded { from: h1 });
    p.script(dest, 2, ProbeOutcome::TtlExceeded { from: m });
    for t in 3..=30 {
        p.script(dest, t, ProbeOutcome::DirectReply { from: dest });
    }
    // h1 positioning: a /31-style on-path hop.
    p.script_path(h1, 1, &[]);
    p.script_path(h1.mate31(), 1, &[]);
    // m really answers from distance 1 → perceived ≠ hop (off-path).
    p.script_path(m, 1, &[]);
    p.script_path(mate, 1, &[]);
    // dest positioning.
    p.script_path(dest, 3, &[h1, m]);
    p.script(dest.mate31(), 3, ProbeOutcome::Timeout);

    let report = Session::new(&mut p, TracenetOptions::default()).run(dest);
    let hop2 = &report.hops[1];
    assert!(hop2.subnet.is_some(), "off-path subnets are explored");
    assert!(!hop2.subnet.as_ref().unwrap().on_path);
    assert!(report.destination_reached);
}

/// Every hop of a chain either collects its subnet or is marked
/// repeated because its address sits in one collected earlier.
#[test]
fn every_hop_collects_or_repeats() {
    // chain(1): vantage -10.0.0.0/31- r1 -10.0.1.0/31- dest. Tracing the
    // NEAR side of the second link (r1's own far-side address) and then
    // the destination revisits the same subnet.
    let (topo, names) = samples::chain(1);
    let net = SharedNetwork::new(topo);
    let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
    // Hop 1 = r1 reporting its incoming iface 10.0.0.1; its subnet is the
    // first /31. Hop 2 = dest on the second /31.
    assert_eq!(report.hops.len(), 2);
    assert!(report.hops.iter().all(|h| h.subnet.is_some() || h.repeated));
}

/// Anonymous first hop: positioning has no `u`, and H6 falls back to the
/// positioning ingress only.
#[test]
fn anonymous_first_hop_does_not_block_later_subnets() {
    use netsim::{RouterConfig, TopologyBuilder};
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let r1 = b.router("r1", RouterConfig::anonymous());
    let r2 = b.router("r2", RouterConfig::cooperative());
    let d = b.host("dest");
    let mk = |s: &str| -> Addr { s.parse().unwrap() };
    let l0 = b.subnet("10.0.0.0/31".parse().unwrap());
    b.attach(v, l0, mk("10.0.0.0")).unwrap();
    b.attach(r1, l0, mk("10.0.0.1")).unwrap();
    let l1 = b.subnet("10.0.1.0/31".parse().unwrap());
    b.attach(r1, l1, mk("10.0.1.0")).unwrap();
    b.attach(r2, l1, mk("10.0.1.1")).unwrap();
    let l2 = b.subnet("10.0.2.0/31".parse().unwrap());
    b.attach(r2, l2, mk("10.0.2.0")).unwrap();
    b.attach(d, l2, mk("10.0.2.1")).unwrap();
    let net = SharedNetwork::new(b.build().unwrap());
    let mut prober = net.prober(mk("10.0.0.0"), Protocol::Icmp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(mk("10.0.2.1"));
    assert!(report.destination_reached);
    assert_eq!(report.hops[0].addr, None, "hop 1 anonymous");
    // Hops 2 and 3 still collect their subnets.
    assert!(report.hops[1].subnet.is_some());
    assert!(report.hops[2].subnet.is_some());
}

/// The probe accounting sums add up: total session probes equal the sum
/// of per-hop phase costs.
#[test]
fn phase_costs_sum_to_total() {
    let (topo, names) = samples::figure3();
    let net = SharedNetwork::new(topo);
    let mut prober = net.prober(names.addr("vantage"), Protocol::Icmp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(names.addr("dest"));
    let per_hop: u64 = report.hops.iter().map(|h| h.cost.total()).sum();
    assert_eq!(per_hop, report.total_probes);
    assert_eq!(report.total_probes, prober.stats().sent);
}

/// Sessions over a rate-limited path degrade gracefully: hops may lose
/// their subnets, but the trace never panics or loops.
#[test]
fn heavy_rate_limiting_degrades_gracefully() {
    use netsim::{RateLimit, RouterConfig, TopologyBuilder};
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let mut cfg = RouterConfig::cooperative();
    cfg.rate_limit = Some(RateLimit { capacity: 2, refill_every: 1000 });
    let r1 = b.router("r1", cfg);
    let d = b.host("dest");
    let mk = |s: &str| -> Addr { s.parse().unwrap() };
    let l0 = b.subnet("10.0.0.0/31".parse().unwrap());
    b.attach(v, l0, mk("10.0.0.0")).unwrap();
    b.attach(r1, l0, mk("10.0.0.1")).unwrap();
    let l1 = b.subnet("10.0.1.0/31".parse().unwrap());
    b.attach(r1, l1, mk("10.0.1.0")).unwrap();
    b.attach(d, l1, mk("10.0.1.1")).unwrap();
    let net = SharedNetwork::new(b.build().unwrap());
    let mut prober = net.prober(mk("10.0.0.0"), Protocol::Icmp);
    let report = Session::new(&mut prober, TracenetOptions::default()).run(mk("10.0.1.1"));
    // r1's two tokens are spent almost immediately; the destination host
    // is unlimited, so the trace still completes.
    assert!(report.destination_reached);
    assert!(report.total_probes > 0);
}
