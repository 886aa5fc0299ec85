//! Cross-vantage integration: several probers sharing one simulated
//! internet, Venn agreement, and scoped-ACL visibility.

use std::collections::BTreeSet;

use evalkit::crossval::VennPartition;
use inet::Prefix;
use probe::{Prober, Protocol, SharedNetwork};
use topogen::{default_isps, isp_internet_with, IspInternetSpec};
use tracenet::{Session, TracenetOptions};

fn pocket_internet(seed: u64) -> topogen::Scenario {
    let mut isps = default_isps();
    isps.truncate(2);
    for isp in &mut isps {
        isp.pops = 5;
        isp.chains_per_pop = 3;
        isp.chain_depth = 2;
        isp.dense_24s = 1;
        isp.large_subnets.clear();
    }
    isp_internet_with(IspInternetSpec { seed, isps, targets_per_isp: 60, target_coverage: 0.6 })
}

/// Three vantages over one shared (mutex-protected) network, interleaved
/// sessions: everything stays consistent and the Venn partition is
/// well-formed.
#[test]
fn three_vantages_share_one_internet() {
    let scenario = pocket_internet(3);
    let shared = SharedNetwork::new(scenario.topology.clone());
    let mut sets: Vec<BTreeSet<Prefix>> = Vec::new();
    for (k, (_, vaddr)) in scenario.vantages.iter().enumerate() {
        let mut prober = shared.prober(*vaddr, Protocol::Icmp).ident(0x100 + k as u16);
        let mut prefixes = BTreeSet::new();
        for &target in scenario.targets.iter().take(40) {
            let report = Session::new(&mut prober, TracenetOptions::default()).run(target);
            for s in report.subnets() {
                if s.record.len() >= 2 {
                    prefixes.insert(s.record.prefix());
                }
            }
        }
        assert!(prober.stats().sent > 0);
        sets.push(prefixes);
    }
    let venn = VennPartition::compute(&sets[0], &sets[1], &sets[2]);
    assert!(venn.total() > 10, "the vantages collected something");
    assert!(venn.abc > 0, "some subnets are seen by everyone");
    let (a, b, c) = venn.set_sizes();
    assert_eq!(a, sets[0].len());
    assert_eq!(b, sets[1].len());
    assert_eq!(c, sets[2].len());
}

/// Scoped ACLs are respected end-to-end: a subnet blocked toward a
/// vantage never shows up in that vantage's collection but is collected
/// by an unblocked one (when responsive and targeted).
#[test]
fn scoped_acls_shape_per_vantage_visibility() {
    let scenario = pocket_internet(4);
    let net = SharedNetwork::new(scenario.topology.clone());
    for (vn, vaddr) in scenario.vantages.clone() {
        let blocked: BTreeSet<Prefix> = scenario
            .topology
            .subnets()
            .iter()
            .filter(|s| s.filtered_sources.contains(&vaddr))
            .map(|s| s.prefix)
            .collect();
        let collected = tracenet_suite::collect(&net, vaddr, &scenario.targets, Protocol::Icmp);
        for p in collected.prefixes() {
            // No collected prefix may be (inside) a blocked subnet.
            assert!(!blocked.iter().any(|b| b.covers(p)), "{vn} collected blocked subnet {p}");
        }
    }
}
