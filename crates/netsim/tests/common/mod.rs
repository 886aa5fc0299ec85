//! Random topologies shared by the netsim integration tests.

use inet::{Addr, Prefix};
use netsim::{RouterConfig, RouterId, Topology, TopologyBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random router graph of `routers` routers split into up to three
/// disconnected parts. Each part gets point-to-point /31 links and
/// multi-access /28 LANs; a LAN draws its members with replacement, so a
/// router may hold several interfaces on one LAN, and a LAN may end up
/// with a single attached router. Some routers stay isolated.
pub fn lan_mesh(seed: u64, routers: usize) -> Topology {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();
    let ids: Vec<RouterId> =
        (0..routers).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
    let parts = rng.gen_range(1..=3usize);
    let part_of: Vec<usize> = (0..routers).map(|_| rng.gen_range(0..parts)).collect();
    let members = |p: usize| -> Vec<RouterId> {
        ids.iter().zip(&part_of).filter(|&(_, &q)| q == p).map(|(&r, _)| r).collect()
    };
    let subnets = routers + rng.gen_range(0..=routers);
    for k in 0..subnets {
        let part = members(rng.gen_range(0..parts));
        if part.is_empty() {
            continue;
        }
        // Each subnet owns 10.0.0.0/28 + 16·k.
        let base = Addr::from_u32((10 << 24) + 16 * k as u32);
        let pick = |rng: &mut SmallRng| part[rng.gen_range(0..part.len())];
        if rng.gen_bool(0.6) {
            let s = b.subnet(Prefix::containing(base, 31));
            let (x, y) = (pick(&mut rng), pick(&mut rng));
            b.attach(x, s, base).unwrap();
            if x != y {
                b.attach(y, s, base.mate31()).unwrap();
            }
        } else {
            let s = b.subnet(Prefix::containing(base, 28));
            for host in 1..=rng.gen_range(1..=8u32) {
                let r = pick(&mut rng);
                b.attach(r, s, Addr::from_u32(base.to_u32() + host)).unwrap();
            }
        }
    }
    b.build().expect("lan mesh builds")
}
