//! Internet2- and GEANT-like research networks (Tables 1 and 2).
//!
//! Both papers' networks are built by the same parametric generator: a
//! small core ring (the POP backbone), point-to-point /30–/31 subnets
//! forming the backbone and stub uplinks, and multi-access LANs hanging
//! off core/stub routers. The per-prefix-class counts and responsiveness
//! mix are taken from the `orgl` and `∖unrs` rows of the paper's tables,
//! so the generated network presents tracenet with the same measurement
//! conditions the real networks did.

use inet::{Addr, Prefix};
use netsim::{ResponsePolicy, RouterConfig, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::{BlockAlloc, NetBuilder};
use crate::scenario::{Scenario, SubnetIntent};

/// One prefix-length class of subnets to generate.
#[derive(Clone, Copy, Debug)]
pub struct ClassSpec {
    /// Prefix length of the class.
    pub len: u8,
    /// Fully responsive, well-utilized subnets.
    pub normal: usize,
    /// Firewalled (totally unresponsive) subnets.
    pub filtered: usize,
    /// Sparsely utilized / partially responsive subnets.
    pub partial: usize,
}

impl ClassSpec {
    /// Total subnets of this class (the table's `orgl` cell).
    pub fn total(&self) -> usize {
        self.normal + self.filtered + self.partial
    }
}

/// Parameters of a research-network scenario.
#[derive(Clone, Debug)]
pub struct ResearchNetSpec {
    /// Scenario name ("internet2", "geant").
    pub name: String,
    /// Determinism seed.
    pub seed: u64,
    /// Number of core (backbone) routers.
    pub core_size: usize,
    /// Subnet classes (the `orgl` row of the paper's table, split by the
    /// responsiveness analysis of §4.1.1).
    pub classes: Vec<ClassSpec>,
    /// Address region the network lives in.
    pub region: Prefix,
}

/// The Internet2 scenario of Table 1: 179 subnets
/// (6×/24, 1×/25, 2×/27, 26×/28, 20×/29, 101×/30, 23×/31), with the
/// responsiveness mix the paper measured — 21 of 24 missing subnets were
/// totally unresponsive and 19 of 22 underestimated ones partially
/// unresponsive.
pub fn internet2(seed: u64) -> Scenario {
    research_net(ResearchNetSpec {
        name: "internet2".into(),
        seed,
        core_size: 9,
        classes: vec![
            ClassSpec { len: 24, normal: 0, filtered: 5, partial: 1 },
            ClassSpec { len: 25, normal: 0, filtered: 1, partial: 0 },
            ClassSpec { len: 27, normal: 0, filtered: 2, partial: 0 },
            ClassSpec { len: 28, normal: 2, filtered: 3, partial: 21 },
            ClassSpec { len: 29, normal: 16, filtered: 4, partial: 0 },
            ClassSpec { len: 30, normal: 93, filtered: 8, partial: 0 },
            ClassSpec { len: 31, normal: 22, filtered: 1, partial: 0 },
        ],
        region: "10.32.0.0/12".parse().expect("static prefix"),
    })
}

/// The GEANT scenario of Table 2: 271 subnets (24×/28, 109×/29,
/// 138×/30), far less responsive than Internet2 — "either our probe
/// packets or their responses were filtered out or those subnets are not
/// realized despite they are published to exist".
pub fn geant(seed: u64) -> Scenario {
    research_net(ResearchNetSpec {
        name: "geant".into(),
        seed,
        core_size: 7,
        classes: vec![
            ClassSpec { len: 28, normal: 0, filtered: 10, partial: 14 },
            ClassSpec { len: 29, normal: 41, filtered: 54, partial: 14 },
            ClassSpec { len: 30, normal: 104, filtered: 34, partial: 0 },
        ],
        region: "10.64.0.0/12".parse().expect("static prefix"),
    })
}

/// Builds a research network per `spec`.
pub fn research_net(spec: ResearchNetSpec) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut nb = NetBuilder::new();
    let mut infra = BlockAlloc::new(Prefix::containing(spec.region.network(), 16));
    let mut p2p = {
        // Point-to-point pool: the second /16 of the region, packed.
        let base = spec.region.network().to_u32() + (1 << 16);
        BlockAlloc::new(Prefix::new(Addr::from_u32(base), 16).expect("aligned"))
    };
    let mut lans = {
        // LAN pool: the upper half of the region, strided per /24.
        let base = spec.region.network().to_u32() + (1 << (31 - spec.region.len() as u32));
        BlockAlloc::new(Prefix::new(Addr::from_u32(base), spec.region.len() + 1).expect("aligned"))
    };

    // Response-policy mix for backbone routers: mostly incoming-interface
    // (the common case tracenet is designed for), some shortest-path.
    let core_cfg = |rng: &mut SmallRng| {
        let mut cfg = RouterConfig::cooperative();
        if rng.gen_bool(0.15) {
            cfg.indirect = ResponsePolicy::ShortestPath;
        }
        cfg
    };

    // --- Vantage and access chain (infrastructure). ----------------------
    let vantage_host = nb.host("vantage");
    let access = nb.router("access", RouterConfig::cooperative());
    let net = spec.name.clone();
    let (v_addr, _) =
        nb.link(vantage_host, access, infra.take(30), SubnetIntent::Infrastructure, "access");

    // --- Core ring + chords. ---------------------------------------------
    let core: Vec<RouterId> = (0..spec.core_size)
        .map(|i| {
            let cfg = core_cfg(&mut rng);
            nb.router(format!("core{i}"), cfg)
        })
        .collect();
    nb.link(access, core[0], infra.take(30), SubnetIntent::Infrastructure, "access");

    // Ring links consume normal /30s from the class pool when available
    // so backbone links count toward the evaluated subnets, exactly like
    // Internet2's backbone /30s. The ring is kept chord-free (and of odd
    // length) so the backbone has no equal-cost path splits: the paper's
    // single-vantage Internet2/GEANT traces saw stable paths, and §3.7's
    // fluctuation machinery is exercised by the ISP scenario instead.
    let mut backbone_pairs: Vec<(RouterId, RouterId)> = Vec::new();
    for i in 0..spec.core_size {
        backbone_pairs.push((core[i], core[(i + 1) % spec.core_size]));
    }

    // --- Lay out the classes. ----------------------------------------------
    // Stub routers give subnets varying hop depth.
    let mut stubs: Vec<RouterId> = Vec::new();
    let mut items: Vec<(u8, SubnetIntent)> = Vec::new();
    for c in &spec.classes {
        items.extend(std::iter::repeat_n((c.len, SubnetIntent::Normal), c.normal));
        items.extend(std::iter::repeat_n((c.len, SubnetIntent::Filtered), c.filtered));
        items.extend(std::iter::repeat_n((c.len, SubnetIntent::Partial), c.partial));
    }
    // Deterministic shuffle.
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }

    let mut backbone_iter = backbone_pairs.into_iter();
    let mut targets: Vec<Addr> = Vec::new();

    for (len, intent) in items {
        if len >= 30 {
            // Point-to-point subnet: backbone first, then stub uplinks.
            let backbone_pair =
                if intent == SubnetIntent::Normal { backbone_iter.next() } else { None };
            let prefix = p2p.take(len);
            if backbone_pair.is_none() {
                // Stub uplinks get a one-sibling gap: Internet2 numbers
                // its scattered uplinks sparsely, and packing unrelated
                // same-parent links wall-to-wall would merge them for
                // any collector (the close-fringe caveat of H8).
                p2p.gap_to(len - 1);
            }
            let (a, b) = match backbone_pair {
                Some(pair) => pair,
                None => {
                    // Uplink: attach a fresh stub to a core router or,
                    // for depth, to an existing stub.
                    let parent = if !stubs.is_empty() && rng.gen_bool(0.35) {
                        stubs[rng.gen_range(0..stubs.len())]
                    } else {
                        core[rng.gen_range(0..core.len())]
                    };
                    let cfg = core_cfg(&mut rng);
                    let stub = nb.router(format!("stub{}", stubs.len()), cfg);
                    stubs.push(stub);
                    (parent, stub)
                }
            };
            let (lo, hi) = nb.link(a, b, prefix, intent, &net);
            targets.push(if rng.gen_bool(0.5) { lo } else { hi });
        } else {
            // Multi-access LAN.
            lans.gap_to(24);
            let prefix = lans.take(len);
            let gw = if !stubs.is_empty() && rng.gen_bool(0.5) {
                stubs[rng.gen_range(0..stubs.len())]
            } else {
                core[rng.gen_range(0..core.len())]
            };
            let capacity = prefix.size() as usize - 2;
            let total_members: usize = match intent {
                // Dense enough to pass the ≥½ utilization gate at every
                // level and to keep ≥5 members in any /29-aligned block a
                // pivot may land in: ~85% of capacity.
                SubnetIntent::Normal => (capacity * 17 / 20).max(5),
                // Firewalled subnets are normally utilized — just mute.
                SubnetIntent::Filtered => (capacity * 6 / 10).max(2),
                // Sparse: 2–5 utilized addresses, like the two /28s the
                // paper dissected ("only 2 IP addresses were observed to
                // be utilized in the first network and only 5 in the
                // second").
                SubnetIntent::Partial => rng.gen_range(2..=5),
                SubnetIntent::Infrastructure => {
                    unreachable!("classes never carry infrastructure intent")
                }
            };
            let leaf_members = total_members - 1;
            let chunk = (leaf_members / 6).clamp(1, 16);
            let addrs =
                nb.lan(gw, prefix, leaf_members, chunk, RouterConfig::cooperative(), intent, &net);
            // Target: "selecting a random IP address from each of their
            // original subnets" — drawn from the announced members (the
            // paper derived the networks' real address assignments from
            // their published topology data). Dense (normal) LANs draw
            // from the well-filled middle so the pivot's /29 block
            // carries enough members; sparse LANs draw a leaf member
            // (index ≥ 1): a gateway-address target gives tracenet no
            // far-side pivot to grow from, which is a property of the
            // target list, not of the tool under test.
            let idx = match intent {
                SubnetIntent::Normal => addrs.len() / 2,
                _ => rng.gen_range(1..addrs.len().max(2)).min(addrs.len() - 1),
            };
            targets.push(addrs[idx]);
        }
    }

    let (topology, ground_truth) = nb.finish();
    Scenario {
        name: spec.name,
        topology,
        vantages: vec![("utdallas".to_string(), v_addr)],
        targets,
        ground_truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{ConcurrentNetwork, RoutingTable};

    #[test]
    fn internet2_matches_table1_original_distribution() {
        let sc = internet2(7);
        let mut by_len = std::collections::BTreeMap::new();
        for s in sc.ground_truth.of_network("internet2") {
            *by_len.entry(s.prefix.len()).or_insert(0usize) += 1;
        }
        assert_eq!(by_len.get(&24), Some(&6));
        assert_eq!(by_len.get(&25), Some(&1));
        assert_eq!(by_len.get(&27), Some(&2));
        assert_eq!(by_len.get(&28), Some(&26));
        assert_eq!(by_len.get(&29), Some(&20));
        assert_eq!(by_len.get(&30), Some(&101));
        assert_eq!(by_len.get(&31), Some(&23));
        let total: usize = by_len.values().sum();
        assert_eq!(total, 179, "Table 1's 179 original subnets");
        assert_eq!(sc.targets.len(), 179, "one target per evaluated subnet");
    }

    #[test]
    fn geant_matches_table2_original_distribution() {
        let sc = geant(7);
        let mut by_len = std::collections::BTreeMap::new();
        for s in sc.ground_truth.of_network("geant") {
            *by_len.entry(s.prefix.len()).or_insert(0usize) += 1;
        }
        assert_eq!(by_len.get(&28), Some(&24));
        assert_eq!(by_len.get(&29), Some(&109));
        assert_eq!(by_len.get(&30), Some(&138));
        assert_eq!(by_len.values().sum::<usize>(), 271);
    }

    #[test]
    fn internet2_is_fully_connected_from_the_vantage() {
        let sc = internet2(7);
        let rt = RoutingTable::compute(&sc.topology);
        let v = sc.topology.owner_of(sc.vantage("utdallas")).unwrap();
        for t in &sc.targets {
            let owner = sc.topology.owner_of(*t).expect("targets are assigned addresses");
            assert!(rt.reachable(v, owner), "target {t} unreachable");
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = internet2(42);
        let b = internet2(42);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.topology.router_count(), b.topology.router_count());
        let c = internet2(43);
        assert_ne!(a.targets, c.targets, "different seeds differ");
    }

    #[test]
    fn filtered_subnets_are_filtered_in_the_topology() {
        let sc = geant(7);
        for gts in sc.ground_truth.of_network("geant") {
            let sid = sc.topology.subnet_by_prefix(gts.prefix).expect("subnet exists");
            assert_eq!(
                sc.topology.subnet(sid).filtered,
                gts.intent == SubnetIntent::Filtered,
                "{}",
                gts.prefix
            );
        }
    }

    #[test]
    fn normal_lans_are_dense_partial_lans_sparse() {
        let sc = internet2(7);
        for gts in sc.ground_truth.of_network("internet2") {
            if gts.prefix.len() > 29 {
                continue;
            }
            let capacity = gts.prefix.size() as usize - 2;
            match gts.intent {
                SubnetIntent::Normal => {
                    assert!(
                        gts.members.len() * 2 > capacity,
                        "{} has {}/{} members",
                        gts.prefix,
                        gts.members.len(),
                        capacity
                    );
                }
                SubnetIntent::Partial => {
                    assert!(gts.members.len() <= 5, "{} too dense for partial", gts.prefix);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn network_boots_and_answers_a_probe() {
        let sc = internet2(7);
        let v = sc.vantage("utdallas");
        let net = ConcurrentNetwork::new(sc.topology);
        let target = sc.targets.iter().find(|t| {
            // Pick a target in a normal subnet.
            sc.ground_truth.containing(**t).is_some_and(|g| g.intent == SubnetIntent::Normal)
        });
        let probe = wire::builder::icmp_probe(v, *target.unwrap(), 64, 1, 1);
        assert!(net.inject(&probe).reply().is_some());
    }
}
