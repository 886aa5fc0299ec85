//! End-to-end regression tests: the full pipeline (topology generation →
//! simulation → tracenet → evaluation) must keep reproducing the paper's
//! headline numbers.

use evalkit::classify::{classify, SubnetTable};
use evalkit::run::run_traceroute;
use netsim::samples;
use probe::{Protocol, SharedNetwork};
use topogen::{geant, internet2, GtSubnet};
use tracenet::TracenetOptions;
use tracenet_suite::{collect, trace_once};

fn accuracy_table(scenario: topogen::Scenario) -> SubnetTable {
    let network = scenario.name.clone();
    let vantage = scenario.vantages[0].1;
    let gt: Vec<&GtSubnet> = scenario.ground_truth.of_network(&network).collect();
    let net = SharedNetwork::new(scenario.topology.clone());
    let collected = collect(&net, vantage, &scenario.targets, Protocol::Icmp);
    SubnetTable::build(&classify(&gt, &collected.records()))
}

/// Table 1's headline: ~73.7% exact including unresponsive subnets,
/// ~94.9% excluding them. Allow a band around the paper's values.
#[test]
fn internet2_exact_match_rates_hold() {
    let table = accuracy_table(internet2(2010));
    let incl = table.exact_rate();
    let excl = table.exact_rate_responsive();
    assert!((0.65..=0.80).contains(&incl), "incl rate {incl}");
    assert!((0.90..=1.0).contains(&excl), "excl rate {excl}");
    // The paper's Table 1 has (almost) no overestimated/merged subnets.
    assert!(table.row_total("ovres") + table.row_total("merg") <= 5);
    assert_eq!(table.row_total("orgl"), 179);
}

/// Table 2's headline: ~53.5% / ~97.3%, dominated by unresponsive
/// subnets.
#[test]
fn geant_exact_match_rates_hold() {
    let table = accuracy_table(geant(2010));
    let incl = table.exact_rate();
    let excl = table.exact_rate_responsive();
    assert!((0.45..=0.62).contains(&incl), "incl rate {incl}");
    assert!((0.92..=1.0).contains(&excl), "excl rate {excl}");
    assert_eq!(table.row_total("orgl"), 271);
    assert!(table.row_total("miss\\unrs") >= 80, "GEANT's missing subnets are mostly unresponsive");
}

/// The Figure 3 scene end-to-end through the public API.
#[test]
fn figure3_session_discovers_the_subnet() {
    let (topo, names) = samples::figure3();
    let report = trace_once(topo, names.addr("vantage"), names.addr("dest"));
    assert!(report.destination_reached);
    let s = report.hops[2].subnet.as_ref().expect("hop 3 subnet");
    assert_eq!(s.record.prefix().to_string(), "10.0.2.0/29");
    assert_eq!(s.record.len(), 4);
    assert_eq!(s.contra_pivot, Some(names.addr("R2.w")));
    // None of the fringe interfaces leaked into S.
    for fringe in ["R2.s", "R7.n", "R4.s", "R6.w"] {
        assert!(!s.record.contains(names.addr(fringe)), "{fringe} leaked into S");
    }
}

/// Headline claim (1) of the paper: a single tracenet session discovers
/// strictly more addresses than a traceroute over the same path.
#[test]
fn tracenet_beats_traceroute_on_address_discovery() {
    let scenario = internet2(7);
    let vantage = scenario.vantages[0].1;
    let targets: Vec<_> = scenario.targets.iter().copied().take(25).collect();
    let net = SharedNetwork::new(scenario.topology.clone());
    let (_, tr_addrs, _) = run_traceroute(
        &net,
        vantage,
        &targets,
        Protocol::Icmp,
        &traceroute::TracerouteOptions::default(),
    );
    let tn = collect(&net, vantage, &targets, Protocol::Icmp);
    assert!(
        tn.addresses().len() as f64 >= 1.5 * tr_addrs.len() as f64,
        "tracenet {} vs traceroute {}",
        tn.addresses().len(),
        tr_addrs.len()
    );
}

/// §3.6's bound checked end-to-end: every explored subnet of an
/// Internet2 run stays within 7·|S|+7 probes plus the silent-sweep
/// allowance (unassigned addresses probed once per level).
#[test]
fn probe_budget_within_paper_bound() {
    let scenario = internet2(11);
    let vantage = scenario.vantages[0].1;
    let net = SharedNetwork::new(scenario.topology.clone());
    for &target in scenario.targets.iter().take(40) {
        let mut prober = net.prober(vantage, Protocol::Icmp);
        let report = tracenet::Session::new(&mut prober, TracenetOptions::default()).run(target);
        for hop in &report.hops {
            if let Some(s) = &hop.subnet {
                let bound = 7 * s.record.len() as u64 + 7;
                let sweep_allowance = 2 * s.record.prefix().size();
                let spent = hop.cost.position + hop.cost.explore;
                assert!(
                    spent <= bound + sweep_allowance,
                    "{} cost {spent} > bound {bound} + sweep {sweep_allowance}",
                    s.record.prefix()
                );
            }
        }
    }
}

/// Protocol ordering of Table 3, end-to-end on a small network: ICMP
/// collects at least as much as UDP, which beats TCP.
#[test]
fn protocol_ordering_holds() {
    use netsim::{ProtoSet, RouterConfig, TopologyBuilder};
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let mut cfg = RouterConfig::cooperative();
    cfg.direct_protos = ProtoSet::NO_TCP;
    let r1 = b.router("r1", cfg);
    let mut icmp_only = RouterConfig::cooperative();
    icmp_only.direct_protos = ProtoSet::ICMP_ONLY;
    let r2 = b.router("r2", icmp_only);
    let mk = |s: &str| -> inet::Addr { s.parse().unwrap() };
    let l0 = b.subnet("10.0.0.0/31".parse().unwrap());
    b.attach(v, l0, mk("10.0.0.0")).unwrap();
    b.attach(r1, l0, mk("10.0.0.1")).unwrap();
    let l1 = b.subnet("10.0.0.2/31".parse().unwrap());
    b.attach(r1, l1, mk("10.0.0.2")).unwrap();
    b.attach(r2, l1, mk("10.0.0.3")).unwrap();
    let topo = b.build().unwrap();

    let mut counts = Vec::new();
    for proto in [Protocol::Icmp, Protocol::Udp, Protocol::Tcp] {
        let net = SharedNetwork::new(topo.clone());
        let set = collect(&net, mk("10.0.0.0"), &[mk("10.0.0.3")], proto);
        counts.push(set.prefixes().len());
    }
    assert!(counts[0] >= counts[1], "ICMP {} < UDP {}", counts[0], counts[1]);
    assert!(counts[1] >= counts[2], "UDP {} < TCP {}", counts[1], counts[2]);
    assert!(counts[0] >= 2, "ICMP collects both links");
}
