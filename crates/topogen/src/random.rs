//! Random topologies for property-based testing.

use inet::{Addr, Prefix};
use netsim::{RouterConfig, RouterId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::{BlockAlloc, NetBuilder};
use crate::scenario::{Scenario, SubnetIntent};

/// Generates a random but well-formed scenario: a ring-plus-chords core,
/// random stub chains, and random LANs of mixed density/responsiveness.
///
/// `size` scales the router and subnet counts (roughly `4·size` subnets).
/// Used by cross-crate property tests to check that tracenet's invariants
/// hold on topologies nobody hand-crafted.
pub fn random_topology(seed: u64, size: usize) -> Scenario {
    let size = size.clamp(1, 64);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nb = NetBuilder::new();
    let mut infra = BlockAlloc::new("10.96.0.0/16".parse::<Prefix>().expect("static"));
    let mut p2p = BlockAlloc::new("10.97.0.0/16".parse::<Prefix>().expect("static"));
    let mut lans = BlockAlloc::new("10.98.0.0/15".parse::<Prefix>().expect("static"));

    let vantage_host = nb.host("vantage");
    let core_n = 3 + size / 4;
    let core: Vec<RouterId> =
        (0..core_n).map(|i| nb.router(format!("c{i}"), RouterConfig::cooperative())).collect();
    let (v_addr, _) =
        nb.link(vantage_host, core[0], infra.take(30), SubnetIntent::Infrastructure, "infra");
    for i in 0..core_n {
        nb.link(core[i], core[(i + 1) % core_n], p2p.take(31), SubnetIntent::Normal, "random");
    }

    let mut attachable: Vec<RouterId> = core.clone();
    let mut targets: Vec<Addr> = Vec::new();

    for k in 0..size * 3 {
        let parent = attachable[rng.gen_range(0..attachable.len())];
        if rng.gen_bool(0.5) {
            // Stub uplink.
            let stub = nb.router(format!("s{k}"), RouterConfig::cooperative());
            let len = if rng.gen_bool(0.5) { 30 } else { 31 };
            let intent =
                if rng.gen_bool(0.1) { SubnetIntent::Filtered } else { SubnetIntent::Normal };
            let (_, far) = nb.link(parent, stub, p2p.take(len), intent, "random");
            attachable.push(stub);
            targets.push(far);
        } else {
            // LAN.
            lans.gap_to(24);
            let len = rng.gen_range(27..=29);
            let prefix = lans.take(len);
            let capacity = prefix.size() as usize - 2;
            let dense = rng.gen_bool(0.6);
            let total = if dense { (capacity * 17 / 20).max(5) } else { rng.gen_range(2..=4) };
            let intent = if dense { SubnetIntent::Normal } else { SubnetIntent::Partial };
            let members =
                nb.lan(parent, prefix, total - 1, 4, RouterConfig::cooperative(), intent, "random");
            targets.push(members[members.len() / 2]);
        }
    }

    let (topology, ground_truth) = nb.finish();
    Scenario {
        name: format!("random-{seed}-{size}"),
        topology,
        vantages: vec![("vantage".to_string(), v_addr)],
        targets,
        ground_truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::RoutingTable;

    #[test]
    fn random_topologies_validate_and_connect() {
        for seed in 0..20 {
            let sc = random_topology(seed, 8);
            let rt = RoutingTable::compute(&sc.topology);
            let v = sc.topology.owner_of(sc.vantage("vantage")).unwrap();
            for t in &sc.targets {
                let owner = sc.topology.owner_of(*t).unwrap();
                assert!(rt.reachable(v, owner), "seed {seed}: target {t} unreachable");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_topology(5, 6);
        let b = random_topology(5, 6);
        assert_eq!(a.targets, b.targets);
    }

    #[test]
    fn size_scales_subnet_count() {
        let small = random_topology(1, 2);
        let large = random_topology(1, 20);
        assert!(large.ground_truth.subnets.len() > small.ground_truth.subnets.len());
    }
}
