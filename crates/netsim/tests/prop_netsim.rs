//! Property tests for the simulator: TTL semantics, routing sanity and
//! policy invariants on randomized topologies.

use inet::{Addr, Prefix};
use netsim::{
    samples, ConcurrentNetwork, FaultProfile, RouterConfig, RoutingTable, TopologyBuilder, Verdict,
};
use proptest::prelude::*;
use wire::builder::{icmp_probe, tcp_probe, udp_probe};
use wire::{IcmpMessage, Packet, Payload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a chain of any length, TTL k draws a TTL-exceeded from exactly
    /// the k-th router, and a large TTL reaches the destination.
    #[test]
    fn chain_ttl_scoping(n in 1u32..8) {
        let (topo, names) = samples::chain(n);
        let net = ConcurrentNetwork::new(topo);
        let v = names.addr("vantage");
        let d = names.addr("dest");
        for k in 1..=n as u8 {
            let reply = net.inject(&icmp_probe(v, d, k, 1, k as u16)).reply().unwrap();
            let owner = net.topology().owner_of(reply.header.src).unwrap();
            prop_assert_eq!(&net.topology().router(owner).name, &format!("r{k}"));
            let is_ttl_excd = matches!(reply.payload, Payload::Icmp(IcmpMessage::TtlExceeded { .. }));
            prop_assert!(is_ttl_excd);
        }
        let reply = net.inject(&icmp_probe(v, d, n as u8 + 1, 1, 0)).reply().unwrap();
        prop_assert_eq!(reply.header.src, d);
        let is_echo = matches!(reply.payload, Payload::Icmp(IcmpMessage::EchoReply { .. }));
        prop_assert!(is_echo);
    }

    /// Every assigned, responsive address in a random mesh answers a
    /// direct probe with itself as the source (cooperative = probed
    /// interface policy), and the minimum TTL that elicits a direct reply
    /// equals the true hop distance.
    #[test]
    fn direct_probe_distance_agrees_with_routing(seed in 0u64..500) {
        let (topo, vantage) = random_mesh(seed);
        let routing = RoutingTable::compute(&topo);
        let v_owner = topo.owner_of(vantage).unwrap();
        let addrs: Vec<Addr> = topo.ifaces().iter().map(|i| i.addr).collect();
        let net = ConcurrentNetwork::new(topo);
        for addr in addrs {
            let owner = net.topology().owner_of(addr).unwrap();
            if !routing.reachable(v_owner, owner) {
                continue;
            }
            let d = routing.dist(v_owner, owner);
            // Large TTL: direct reply from the probed address.
            let reply = net.inject(&icmp_probe(vantage, addr, 64, 9, 9)).reply();
            let reply = reply.expect("cooperative iface must answer");
            prop_assert_eq!(reply.header.src, addr);
            if d > 0 {
                // TTL = d delivers; TTL = d-1 does not deliver directly.
                let at_d = net.inject(&icmp_probe(vantage, addr, d as u8, 9, 9)).reply().unwrap();
                prop_assert_eq!(at_d.header.src, addr);
                if d > 1 {
                    let at_dm1 =
                        net.inject(&icmp_probe(vantage, addr, d as u8 - 1, 9, 9)).reply().unwrap();
                    let is_ttl_excd =
                        matches!(at_dm1.payload, Payload::Icmp(IcmpMessage::TtlExceeded { .. }));
                    prop_assert!(is_ttl_excd);
                    prop_assert_ne!(at_dm1.header.src, addr);
                }
            }
        }
    }

    /// Interfaces on one subnet differ by at most one hop from the vantage
    /// — the paper's *Unit Subnet Diameter* observation (§3.2(iii)) must
    /// be a theorem of the simulator.
    #[test]
    fn unit_subnet_diameter_holds(seed in 0u64..500) {
        let (topo, vantage) = random_mesh(seed);
        let routing = RoutingTable::compute(&topo);
        let v_owner = topo.owner_of(vantage).unwrap();
        for (sid, _) in topo.subnets().iter().enumerate() {
            let reachable: Vec<u16> = topo.subnets()[sid]
                .ifaces
                .iter()
                .map(|&i| routing.dist(v_owner, topo.iface(i).router))
                .filter(|&d| d != u16::MAX)
                .collect();
            if let (Some(&min), Some(&max)) =
                (reachable.iter().min(), reachable.iter().max())
            {
                prop_assert!(max - min <= 1, "subnet spans hops {min}..{max}");
            }
        }
    }

    /// Every reply the engine produces survives the wire unchanged:
    /// `Packet::decode(&reply.encode()) == Ok(reply)`. Probers classify
    /// the engine's reply packet directly, so this round trip is what
    /// guarantees they see exactly what a raw socket would have read.
    /// Covers ICMP/UDP/TCP probes at every TTL up to the path length, on
    /// plain and fault-injected meshes.
    #[test]
    fn replies_round_trip_through_wire_bytes(seed in 0u64..300, profile in 0usize..FaultProfile::ALL.len()) {
        let (topo, vantage) = random_mesh(seed);
        let routing = RoutingTable::compute(&topo);
        let v_owner = topo.owner_of(vantage).unwrap();
        let targets: Vec<(Addr, u16)> = topo
            .ifaces()
            .iter()
            .map(|i| (i.addr, routing.dist(v_owner, i.router)))
            .filter(|&(_, d)| d != u16::MAX)
            .collect();
        let plain = ConcurrentNetwork::new(topo.clone());
        let faulted = ConcurrentNetwork::new(topo).with_fault_plan(FaultProfile::ALL[profile].plan(seed));
        let mut replies = 0;
        for net in [&plain, &faulted] {
            for &(dst, dist) in &targets {
                for ttl in 1..=(dist as u8 + 1) {
                    let probes = [
                        icmp_probe(vantage, dst, ttl, 7, ttl as u16),
                        udp_probe(vantage, dst, ttl, 0x8007, 33434),
                        tcp_probe(vantage, dst, ttl, 0x9007, 80),
                    ];
                    for probe in &probes {
                        if let Verdict::Reply(reply) = net.inject(probe) {
                            prop_assert_eq!(Packet::decode(&reply.encode()), Ok(reply));
                            replies += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(replies > 0, "the plain mesh always answers");
    }
}

/// Builds a small random mesh: a vantage host, a row of core routers in a
/// ring, and random /29–/31 stub subnets hanging off them. Returns the
/// topology and the vantage address.
fn random_mesh(seed: u64) -> (netsim::Topology, Addr) {
    // Tiny deterministic RNG (xorshift) to avoid pulling rand into the
    // library's test surface for structure generation.
    let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };

    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let n_core = 3 + next(4) as usize; // 3..6 core routers
    let core: Vec<_> =
        (0..n_core).map(|i| b.router(format!("c{i}"), RouterConfig::cooperative())).collect();

    // Vantage attaches to core[0].
    let s = b.subnet("10.9.0.0/31".parse::<Prefix>().unwrap());
    let vantage = Addr::new(10, 9, 0, 0);
    b.attach(v, s, vantage).unwrap();
    b.attach(core[0], s, Addr::new(10, 9, 0, 1)).unwrap();

    // Ring links between consecutive core routers.
    for i in 0..n_core {
        let j = (i + 1) % n_core;
        if n_core == 2 && i == 1 {
            break;
        }
        let base = Addr::new(10, 10, i as u8, 0);
        let s = b.subnet(Prefix::containing(base, 31));
        b.attach(core[i], s, base).unwrap();
        b.attach(core[j], s, base.mate31()).unwrap();
    }

    // Random stubs.
    let n_stub = next(5) as usize;
    for k in 0..n_stub {
        let owner = core[next(n_core as u64) as usize];
        let len = 29 + next(3) as u8; // 29..=31
        let base = Addr::new(10, 20, k as u8, 0);
        let prefix = Prefix::containing(base, len);
        let s = b.subnet(prefix);
        let want = 1 + next(3) as usize;
        for (added, addr) in prefix.probe_addrs().take(want).enumerate() {
            // One interface per stub router to keep it simple: first iface
            // belongs to the core owner, further ones to fresh routers.
            if added == 0 {
                b.attach(owner, s, addr).unwrap();
            } else {
                let r = b.router(format!("stub{k}_{added}"), RouterConfig::cooperative());
                b.attach(r, s, addr).unwrap();
            }
        }
    }
    (b.build().expect("random mesh builds"), vantage)
}
