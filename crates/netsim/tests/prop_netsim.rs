//! Property tests for the simulator: TTL semantics, routing sanity and
//! policy invariants on randomized topologies.

mod common;

use std::collections::VecDeque;

use inet::{Addr, Prefix};
use netsim::{
    samples, ConcurrentNetwork, FaultProfile, RouterConfig, RouterId, RoutingTable, SubnetId,
    Topology, TopologyBuilder, Verdict, UNREACHABLE,
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

    /// The lazily built routing answers exactly what an eager all-pairs
    /// construction does: for every router pair the same distance and
    /// the same ECMP slice, and for every (router, subnet) pair the same
    /// ingress — on graphs with multi-access LANs, routers holding
    /// several interfaces on one LAN, and disconnected parts.
    #[test]
    fn lazy_routing_matches_the_eager_oracle(seed in 0u64..400, routers in 1usize..24) {
        let topo = common::lan_mesh(seed, routers);
        let oracle = EagerRoutes::compute(&topo);
        let rt = RoutingTable::compute(&topo);
        let n = topo.router_count();
        for from in (0..n).map(|r| RouterId(r as u32)) {
            for to in (0..n).map(|r| RouterId(r as u32)) {
                prop_assert_eq!(rt.dist(from, to), oracle.dist(from, to));
                prop_assert_eq!(rt.reachable(from, to), oracle.dist(from, to) != UNREACHABLE);
                prop_assert_eq!(
                    rt.next_hops(from, to).collect::<Vec<_>>(),
                    oracle.next_hops(from, to)
                );
            }
            for sn in (0..topo.subnets().len()).map(|s| SubnetId(s as u32)) {
                prop_assert_eq!(rt.ingress(from, sn), oracle.ingress(&topo, from, sn));
            }
        }
    }

    /// Every memoized shortest-path DAG holds exactly the eager oracle's
    /// ECMP slices: for every (origin, target) pair, a router on some
    /// shortest path gets the oracle's next hops toward the target, in
    /// the same order, and any other router — the target itself, a
    /// router off every shortest path, every router when the target is
    /// unreachable — gets none. Same graphs as the oracle test above.
    #[test]
    fn paths_match_the_eager_oracle(seed in 0u64..400, routers in 1usize..24) {
        let topo = common::lan_mesh(seed, routers);
        let oracle = EagerRoutes::compute(&topo);
        let rt = RoutingTable::compute(&topo);
        let ids: Vec<RouterId> = (0..topo.router_count()).map(|r| RouterId(r as u32)).collect();
        for &o in &ids {
            for &t in &ids {
                let path = rt.path(o, t);
                let d = oracle.dist(o, t);
                for &x in &ids {
                    let on_path = d != UNREACHABLE
                        && oracle.dist(o, x) != UNREACHABLE
                        && oracle.dist(o, x) + oracle.dist(x, t) == d;
                    let want = if on_path { oracle.next_hops(x, t) } else { Vec::new() };
                    let got: Vec<_> = path.next_hops(x).collect();
                    prop_assert_eq!(got, want, "{:?} -> {:?} at {:?}", o, t, x);
                }
                prop_assert_eq!(path.next_hops(t).count(), 0);
            }
        }
        prop_assert_eq!(rt.built_columns(), ids.len());
    }

    /// The ingress router is stable along a shortest walk toward it: if
    /// `a` is the attached router of `subnet` nearest to `from`, it is
    /// also the nearest from every next hop toward `a`. This is what lets
    /// the engine resolve an unassigned destination's ingress once per
    /// walk instead of at every hop.
    #[test]
    fn ingress_is_stable_along_the_walk(seed in 0u64..400, routers in 1usize..24) {
        let topo = common::lan_mesh(seed, routers);
        let rt = RoutingTable::compute(&topo);
        for from in (0..topo.router_count()).map(|r| RouterId(r as u32)) {
            for sn in (0..topo.subnets().len()).map(|s| SubnetId(s as u32)) {
                let Some(a) = rt.ingress(from, sn) else { continue };
                for (h, _) in rt.next_hops(from, a) {
                    prop_assert_eq!(rt.ingress(h, sn), Some(a), "{:?} -> {:?} via {:?}", from, sn, h);
                }
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
        let mut faulted = ConcurrentNetwork::new(topo);
        faulted.set_fault_plan(Some(FaultProfile::ALL[profile].plan(seed)));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted address index answers `subnet_containing`,
    /// `subnet_by_prefix`, `iface_by_addr` and `owner_of` exactly as a
    /// linear scan of `subnets()` and `ifaces()` does: for addresses
    /// inside subnets, at their network and broadcast addresses, just
    /// outside them (between adjacent subnets), in /31 and /32 prefixes,
    /// at 0.0.0.0 and 255.255.255.255, and anywhere else.
    #[test]
    fn address_index_matches_a_linear_scan(seed in any::<u64>()) {
        let (topo, mut probes) = random_prefixes(seed);
        probes.extend([Addr::from_u32(0), Addr::from_u32(u32::MAX)]);
        probes.extend(topo.ifaces().iter().map(|i| i.addr));
        for s in topo.subnets() {
            let (lo, hi) = (s.prefix.network().to_u32(), s.prefix.broadcast().to_u32());
            let inside = lo + (hi - lo) / 2;
            probes.extend([lo, inside, hi, lo.wrapping_sub(1), hi.wrapping_add(1)].map(Addr::from_u32));
        }
        for &addr in &probes {
            let subnet = topo
                .subnets()
                .iter()
                .position(|s| s.prefix.contains(addr))
                .map(|i| SubnetId(i as u32));
            prop_assert_eq!(topo.subnet_containing(addr), subnet, "{}", addr);
            let iface = topo.ifaces().iter().position(|i| i.addr == addr);
            prop_assert_eq!(topo.iface_by_addr(addr).map(|i| i.0 as usize), iface, "{}", addr);
            let owner = iface.map(|i| topo.ifaces()[i].router);
            prop_assert_eq!(topo.owner_of(addr), owner, "{}", addr);
        }
        for (i, s) in topo.subnets().iter().enumerate() {
            prop_assert_eq!(topo.subnet_by_prefix(s.prefix), Some(SubnetId(i as u32)));
            for other in [s.prefix.parent(), s.prefix.halves().map(|(l, _)| l)].into_iter().flatten() {
                let want = topo.subnets().iter().position(|t| t.prefix == other);
                prop_assert_eq!(topo.subnet_by_prefix(other).map(|id| id.0 as usize), want);
            }
        }
    }
}

/// Random non-overlapping prefixes of lengths /8 to /32, some at either
/// end of the address space and some adjacent to each other, each with a
/// few interfaces on a handful of routers. Returns the topology and some
/// random addresses to look up.
fn random_prefixes(seed: u64) -> (Topology, Vec<Addr>) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut prefixes: Vec<Prefix> = Vec::new();
    let add = |p: Prefix, prefixes: &mut Vec<Prefix>| {
        if !prefixes.iter().any(|q| q.covers(p) || p.covers(*q)) {
            prefixes.push(p);
        }
    };
    let len = |rng: &mut SmallRng| match rng.gen_range(0..4) {
        0 => rng.gen_range(8..=32u8),
        1 => 31,
        2 => 32,
        _ => rng.gen_range(24..=30u8),
    };
    for _ in 0..rng.gen_range(1..24) {
        let l = len(&mut rng);
        let base = match rng.gen_range(0..8) {
            0 => 0,
            1 => u32::MAX,
            _ => rng.gen::<u32>(),
        };
        let p = Prefix::containing(Addr::from_u32(base), l);
        add(p, &mut prefixes);
        // Sometimes the next prefix of the same length right after it.
        if rng.gen_bool(0.5) {
            if let Some(next) = p.broadcast().checked_add(1) {
                add(Prefix::containing(next, l), &mut prefixes);
            }
        }
    }
    let mut b = TopologyBuilder::new();
    let routers: Vec<RouterId> =
        (0..4).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
    for p in prefixes {
        let s = b.subnet(p);
        let hosts: Vec<Addr> = match p.len() {
            32 => vec![p.network()],
            31 => vec![p.network(), p.broadcast()],
            _ => {
                let span = p.size() - 2;
                let mut v: Vec<Addr> = (0..rng.gen_range(0..4))
                    .map(|_| {
                        Addr::from_u32(p.network().to_u32() + 1 + rng.gen_range(0..span) as u32)
                    })
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        };
        for addr in hosts {
            if rng.gen_bool(0.8) {
                b.attach(routers[rng.gen_range(0..routers.len())], s, addr).unwrap();
            }
        }
    }
    let probes = (0..64).map(|_| Addr::from_u32(rng.gen())).collect();
    (b.build().expect("non-overlapping prefixes build"), probes)
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

/// The eager all-pairs routing the lazy table replaced, kept as the
/// reference: a BFS from every router over the sorted, deduped
/// (neighbor, subnet) pairs enumerated interface by interface.
struct EagerRoutes {
    n: usize,
    adj: Vec<Vec<(RouterId, SubnetId)>>,
    dist: Vec<u16>,
}

impl EagerRoutes {
    fn compute(topo: &Topology) -> EagerRoutes {
        let n = topo.router_count();
        let adj: Vec<Vec<(RouterId, SubnetId)>> = (0..n)
            .map(|r| {
                let router = RouterId(r as u32);
                let mut v: Vec<(RouterId, SubnetId)> = topo
                    .router(router)
                    .ifaces
                    .iter()
                    .flat_map(|&i| {
                        let sn = topo.iface(i).subnet;
                        topo.subnet(sn).ifaces.iter().map(move |&o| (topo.iface(o).router, sn))
                    })
                    .filter(|&(o, _)| o != router)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let mut dist = vec![UNREACHABLE; n * n];
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            let mut queue = VecDeque::from([src]);
            while let Some(cur) = queue.pop_front() {
                for &(nb, _) in &adj[cur] {
                    if row[nb.0 as usize] == UNREACHABLE {
                        row[nb.0 as usize] = row[cur] + 1;
                        queue.push_back(nb.0 as usize);
                    }
                }
            }
        }
        EagerRoutes { n, adj, dist }
    }

    fn dist(&self, from: RouterId, to: RouterId) -> u16 {
        self.dist[from.0 as usize * self.n + to.0 as usize]
    }

    fn next_hops(&self, from: RouterId, to: RouterId) -> Vec<(RouterId, SubnetId)> {
        let d = self.dist(from, to);
        if from == to || d == UNREACHABLE {
            return Vec::new();
        }
        self.adj[from.0 as usize]
            .iter()
            .copied()
            .filter(|&(nb, _)| self.dist(nb, to) == d - 1)
            .collect()
    }

    /// The router of `candidates` nearest to `from` and its distance,
    /// lowest id on ties; `None` when none is reachable.
    fn nearest(
        &self,
        from: RouterId,
        candidates: impl IntoIterator<Item = RouterId>,
    ) -> Option<(RouterId, u16)> {
        candidates
            .into_iter()
            .map(|r| (self.dist(from, r), r))
            .filter(|&(d, _)| d != UNREACHABLE)
            .min()
            .map(|(d, r)| (r, d))
    }

    /// The attached router nearest to `from`, lowest id on ties.
    fn ingress(&self, topo: &Topology, from: RouterId, subnet: SubnetId) -> Option<RouterId> {
        let attached = topo.subnet(subnet).ifaces.iter().map(|&i| topo.iface(i).router);
        self.nearest(from, attached).map(|(r, _)| r)
    }
}

/// A chain r0 - r1 - r2 - r3 over /31 links and a router r4 on its own.
fn chain_and_island() -> (Topology, Vec<RouterId>) {
    let mut b = TopologyBuilder::new();
    let r: Vec<RouterId> =
        (0..5).map(|i| b.router(format!("r{i}"), RouterConfig::cooperative())).collect();
    for i in 0..3u8 {
        let s = b.subnet(Prefix::containing(Addr::new(10, 0, i, 0), 31));
        b.attach(r[i as usize], s, Addr::new(10, 0, i, 0)).unwrap();
        b.attach(r[i as usize + 1], s, Addr::new(10, 0, i, 1)).unwrap();
    }
    let s = b.subnet(Prefix::containing(Addr::new(10, 0, 3, 0), 31));
    b.attach(r[4], s, Addr::new(10, 0, 3, 0)).unwrap();
    (b.build().unwrap(), r)
}

/// The oracle's ingress rule: the nearest candidate wins, ties go to the
/// lowest router id, and unreachable candidates never win.
#[test]
fn eager_nearest_picks_minimum_then_lowest_id() {
    let (topo, r) = chain_and_island();
    let oracle = EagerRoutes::compute(&topo);
    assert_eq!(oracle.nearest(r[0], [r[2], r[3]]), Some((r[2], 2)));
    assert_eq!(oracle.nearest(r[0], [r[3], r[2]]), Some((r[2], 2)));
    assert_eq!(oracle.nearest(r[1], [r[2], r[0]]), Some((r[0], 1)));
    assert_eq!(oracle.nearest(r[0], [r[4]]), None);
}
