//! Criterion bench: simulator costs — routing-table construction and
//! per-packet walks on research- and ISP-scale topologies.
//!
//! `RoutingTable::compute` builds only the attachment lists and the
//! adjacency; the origin's BFS column and each destination's
//! shortest-path DAG are built on first use, so their cost shows up in
//! the first walks.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use netsim::{ConcurrentNetwork, RoutingTable};
use topogen::{internet2, isp_internet, random_topology};
use wire::builder::icmp_probe;

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(20);

    // Routing construction at three scales; the 4-ISP internet has LANs
    // of thousands of interfaces.
    let small = random_topology(1, 8);
    g.bench_function("routing_bfs_small", |b| {
        b.iter(|| RoutingTable::compute(black_box(&small.topology)))
    });
    let i2 = internet2(7);
    g.bench_function("routing_bfs_internet2", |b| {
        b.iter(|| RoutingTable::compute(black_box(&i2.topology)))
    });
    let isp = isp_internet(2010);
    g.bench_function("routing_bfs_isp", |b| {
        b.iter(|| RoutingTable::compute(black_box(&isp.topology)))
    });

    // Per-packet walk cost: direct probe to the farthest target.
    let scenario = internet2(7);
    let vantage = scenario.vantage("utdallas");
    let target = *scenario.targets.last().expect("targets");
    g.bench_function("inject_direct_probe", |b| {
        b.iter_batched(
            || ConcurrentNetwork::new(scenario.topology.clone()),
            |net| {
                for seq in 0..64u16 {
                    black_box(net.inject(&icmp_probe(vantage, target, 64, 1, seq)));
                }
                net
            },
            BatchSize::LargeInput,
        )
    });

    // TTL-scoped probe (expires mid-path, generates a quoted error).
    g.bench_function("inject_ttl_scoped_probe", |b| {
        b.iter_batched(
            || ConcurrentNetwork::new(scenario.topology.clone()),
            |net| {
                for seq in 0..64u16 {
                    black_box(net.inject(&icmp_probe(vantage, target, 3, 1, seq)));
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
