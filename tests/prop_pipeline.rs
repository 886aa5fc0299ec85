//! Property tests over randomized topologies: whatever the network looks
//! like, tracenet's output must satisfy the paper's structural
//! invariants.

use std::collections::BTreeMap;

use inet::Addr;
use netsim::RoutingTable;
use probe::{Protocol, SharedNetwork};
use proptest::prelude::*;
use topogen::random_topology;
use tracenet_suite::collect;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Soundness: every address tracenet reports exists in the topology,
    /// every collected member lies inside its collected prefix, and each
    /// member's *true* subnet either covers or is covered by the
    /// collected prefix. (Mixing two true subnets under one collected
    /// prefix is allowed — that is the paper's `merg` class, which the
    /// H8 discussion concedes is possible for adjacent same-ingress
    /// links — but a collected subnet may never claim an address whose
    /// true LAN lies entirely elsewhere.)
    #[test]
    fn collected_subnets_are_sound(seed in 0u64..40) {
        let scenario = random_topology(seed, 6);
        let vantage = scenario.vantage("vantage");
        let net = SharedNetwork::new(scenario.topology.clone());
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(12).collect();
        let collected =
            collect(&net, vantage, &targets, Protocol::Icmp);

        for addr in collected.addresses() {
            prop_assert!(
                scenario.topology.iface_by_addr(*addr).is_some(),
                "seed {seed}: invented address {addr}"
            );
        }
        for rec in collected.records() {
            for &m in rec.members() {
                prop_assert!(rec.prefix().contains(m));
                let gt = scenario.ground_truth.containing(m);
                prop_assert!(gt.is_some(), "seed {seed}: member {m} has no ground truth");
                let truth = gt.expect("checked").prefix;
                prop_assert!(
                    truth.covers(rec.prefix()) || rec.prefix().covers(truth),
                    "seed {seed}: collected {} unrelated to {m}'s true subnet {truth}",
                    rec.prefix()
                );
            }
        }
    }

    /// Unit subnet diameter (§3.2(iii)) holds for every collected subnet:
    /// member hop distances span at most one.
    #[test]
    fn collected_subnets_have_unit_diameter(seed in 40u64..70) {
        let scenario = random_topology(seed, 6);
        let vantage = scenario.vantage("vantage");
        let routing = RoutingTable::compute(&scenario.topology);
        let v_owner = scenario.topology.owner_of(vantage).expect("vantage owner");
        let net = SharedNetwork::new(scenario.topology.clone());
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(12).collect();
        let collected =
            collect(&net, vantage, &targets, Protocol::Icmp);

        for rec in collected.records() {
            let dists: Vec<u16> = rec
                .members()
                .iter()
                .filter_map(|&m| scenario.topology.owner_of(m))
                .map(|r| routing.dist(v_owner, r))
                .collect();
            let (min, max) = (
                *dists.iter().min().expect("members"),
                *dists.iter().max().expect("members"),
            );
            prop_assert!(
                max - min <= 1,
                "seed {seed}: {} spans hops {min}..{max}",
                rec.prefix()
            );
        }
    }

    /// Determinism: running the same collection twice over fresh networks
    /// yields identical subnet sets (the whole evaluation depends on it).
    #[test]
    fn collection_is_deterministic(seed in 70u64..90) {
        let scenario = random_topology(seed, 4);
        let vantage = scenario.vantage("vantage");
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(8).collect();
        let run = || {
            let net = SharedNetwork::new(scenario.topology.clone());
            let c = collect(&net, vantage, &targets, Protocol::Icmp);
            (c.prefixes(), c.probes)
        };
        let (a, pa) = run();
        let (b, pb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(pa, pb);
    }

    /// Accounting invariants: the subnetized and un-subnetized address
    /// populations of Figure 7 partition cleanly — no address is both,
    /// and every one of them was actually observed.
    #[test]
    fn subnetized_and_unsubnetized_partition(seed in 90u64..105) {
        let scenario = random_topology(seed, 4);
        let vantage = scenario.vantage("vantage");
        let targets: Vec<Addr> = scenario.targets.iter().copied().take(8).collect();
        let net = SharedNetwork::new(scenario.topology.clone());
        let collected =
            collect(&net, vantage, &targets, Protocol::Icmp);
        let sub = collected.subnetized_addresses(None);
        let unsub = collected.unsubnetized_addresses(None);
        prop_assert!(sub.intersection(&unsub).next().is_none(), "overlap");
        for a in sub.iter().chain(unsub.iter()) {
            prop_assert!(collected.addresses().contains(a), "{a} unobserved");
        }
    }
}

/// Aggregate sanity outside proptest: across many random seeds, exact
/// matches dominate and merges stay rare (the Table 1 "shape" is not a
/// fluke of one generator seed).
#[test]
fn exactness_dominates_across_seeds() {
    let mut by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    for seed in 0..6u64 {
        let scenario = random_topology(seed, 6);
        let vantage = scenario.vantage("vantage");
        let net = SharedNetwork::new(scenario.topology.clone());
        let collected = collect(&net, vantage, &scenario.targets, Protocol::Icmp);
        let gt: Vec<&topogen::GtSubnet> = scenario.ground_truth.of_network("random").collect();
        for c in evalkit::classify::classify(&gt, &collected.records()) {
            *by_class.entry(c.class.label()).or_insert(0) += 1;
        }
    }
    let exact = by_class.get("exmt").copied().unwrap_or(0);
    let total: usize = by_class.values().sum();
    assert!(exact * 2 > total, "exact matches should dominate: {by_class:?}");
    let merged = by_class.get("merg").copied().unwrap_or(0);
    assert!(merged * 20 < total, "merges should be rare: {by_class:?}");
}
