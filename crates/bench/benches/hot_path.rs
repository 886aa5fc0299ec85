//! Criterion microbenches for the lock-free probe hot path: the warm
//! ECMP `next_hops` lookup (a slice of the memoized shortest-path DAG
//! from one router to another, no per-call allocation; every column and
//! DAG is built by the first sweep, so the timed iterations read built
//! ones only), `inject` through the concurrent engine handle, a whole
//! wire attempt through `SimProber::probe` (encode, `inject_bytes`,
//! classify), and the 4-ISP internet's probes to addresses no interface
//! holds.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use inet::Addr;
use netsim::{ConcurrentNetwork, RoutingTable};
use probe::{Prober, Protocol, SharedNetwork};
use topogen::{internet2, isp_internet};
use wire::builder::icmp_probe;

fn bench_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(20);

    let scenario = internet2(7);
    let topo = scenario.topology.clone();
    let routing = RoutingTable::compute(&topo);
    let n = topo.router_count() as u32;

    // The per-hop routing lookup, swept over every (from, to) pair one
    // origin at a time: every walk from one vantage reads that vantage's
    // column and one DAG per target, so here too. Asking for all 370²
    // pairs is the documented worst case of one column and n DAGs per
    // origin, which no collection reaches; it shows that case's cost and
    // is not a regression gate.
    g.bench_function("next_hops_all_pairs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for from in 0..n {
                for to in 0..n {
                    total +=
                        routing.next_hops(netsim::RouterId(from), netsim::RouterId(to)).count();
                }
            }
            black_box(total)
        })
    });

    // Full injections through the concurrent handle (walk + reply build),
    // no trace buffer, no lock contention (single thread).
    let net = ConcurrentNetwork::new(scenario.topology.clone());
    let vantage = scenario.vantage("utdallas");
    let target = *scenario.targets.last().expect("targets");
    g.bench_function("inject_direct_concurrent", |b| {
        b.iter(|| {
            for seq in 0..64u16 {
                black_box(net.inject(&icmp_probe(vantage, target, 64, 1, seq)));
            }
        })
    });
    g.bench_function("inject_ttl_scoped_concurrent", |b| {
        b.iter(|| {
            for seq in 0..64u16 {
                black_box(net.inject(&icmp_probe(vantage, target, 3, 1, seq)));
            }
        })
    });

    // One wire attempt per probe: the prober encodes into its stack
    // buffer, the engine decodes and walks, the prober validates the
    // reply. Direct and TTL-scoped probes alternate.
    let shared = SharedNetwork::new(scenario.topology.clone());
    let mut prober = shared.prober(vantage, Protocol::Icmp);
    g.bench_function("probe_round_trip", |b| {
        b.iter(|| {
            for k in 0..64u8 {
                black_box(prober.probe(black_box(target), if k % 2 == 0 { 64 } else { 3 }));
            }
        })
    });

    // Exploration's misses on the 4-ISP internet: unassigned addresses
    // inside subnets (resolved to the subnet's ingress, then silent or
    // host unreachable) and addresses just past a subnet that no prefix
    // holds (no route).
    let isp = isp_internet(2010);
    let topo = &isp.topology;
    let vantage = isp.vantages[0].1;
    let mut unassigned: Vec<Addr> = Vec::new();
    for s in topo.subnets() {
        let inside = s.prefix.probe_addrs().find(|&a| topo.iface_by_addr(a).is_none());
        let outside =
            s.prefix.broadcast().checked_add(1).filter(|&a| topo.subnet_containing(a).is_none());
        unassigned.extend(inside.into_iter().chain(outside));
        if unassigned.len() >= 64 {
            break;
        }
    }
    let net = ConcurrentNetwork::new(isp.topology.clone());
    let probes: Vec<_> = unassigned.iter().map(|&dst| icmp_probe(vantage, dst, 64, 1, 1)).collect();
    g.bench_function("inject_unassigned_isp", |b| {
        b.iter(|| {
            for p in &probes {
                black_box(net.inject(black_box(p)));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
