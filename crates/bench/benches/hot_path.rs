//! Criterion microbenches for the lock-free probe hot path: the warm
//! ECMP `next_hops` lookup (a router's adjacency filtered by a
//! destination's distance column, no per-call allocation; every column
//! is built by the first sweep, so the timed iterations read built
//! columns only) and `inject` through the concurrent engine handle.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsim::{ConcurrentNetwork, RoutingTable};
use topogen::internet2;
use wire::builder::icmp_probe;

fn bench_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(20);

    let scenario = internet2(7);
    let topo = scenario.topology.clone();
    let routing = RoutingTable::compute(&topo);
    let n = topo.router_count() as u32;

    // The per-hop routing lookup, swept over every (from, to) pair one
    // destination at a time: a walk reads one destination's column for
    // every hop, so each column is read once per sweep here too.
    g.bench_function("next_hops_all_pairs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for to in 0..n {
                for from in 0..n {
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
    g.finish();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
