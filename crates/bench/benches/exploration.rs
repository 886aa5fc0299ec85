//! Criterion bench: subnet-exploration cost as a function of subnet
//! size — the empirical counterpart of §3.6's probing model.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use inet::{Addr, Prefix};
use netsim::{RouterConfig, Topology, TopologyBuilder};
use probe::{Protocol, SharedNetwork};
use tracenet::{Session, TracenetOptions};

/// Builds vantage — r1 — gw — LAN(/len, dense) and returns the topology
/// plus (vantage, target) addresses.
fn lan_topology(len: u8) -> (Topology, Addr, Addr) {
    let mut b = TopologyBuilder::new();
    let v = b.host("vantage");
    let r1 = b.router("r1", RouterConfig::cooperative());
    let gw = b.router("gw", RouterConfig::cooperative());
    let mk = |a: &str| -> Addr { a.parse().unwrap() };
    let l0 = b.subnet("10.0.0.0/31".parse().unwrap());
    b.attach(v, l0, mk("10.0.0.0")).unwrap();
    b.attach(r1, l0, mk("10.0.0.1")).unwrap();
    let l1 = b.subnet("10.0.0.2/31".parse().unwrap());
    b.attach(r1, l1, mk("10.0.0.2")).unwrap();
    b.attach(gw, l1, mk("10.0.0.3")).unwrap();
    let lan_prefix = Prefix::new(Addr::new(10, 0, 1, 0), len).unwrap();
    let lan = b.subnet(lan_prefix);
    let cap = (lan_prefix.size() - 2) as u32;
    let members = (cap * 17 / 20).max(2);
    // Target a leaf member away from both the gateway and the tail.
    let target_k = (members / 2).max(2);
    let mut target = None;
    for k in 1..=members {
        let addr = Addr::from_u32(lan_prefix.network().to_u32() + k);
        let owner =
            if k == 1 { gw } else { b.router(format!("leaf{k}"), RouterConfig::cooperative()) };
        b.attach(owner, lan, addr).unwrap();
        if k == target_k {
            target = Some(addr);
        }
    }
    (b.build().unwrap(), mk("10.0.0.0"), target.expect("target_k <= members"))
}

fn bench_exploration(c: &mut Criterion) {
    let mut g = c.benchmark_group("exploration");
    g.sample_size(20);
    for len in [30u8, 29, 28, 27, 26, 25] {
        let (topo, vantage, target) = lan_topology(len);
        g.bench_with_input(BenchmarkId::new("session_lan", format!("/{len}")), &len, |b, _| {
            b.iter_batched(
                || SharedNetwork::new(topo.clone()),
                |net| {
                    let mut prober = net.prober(vantage, Protocol::Icmp);
                    black_box(Session::new(&mut prober, TracenetOptions::default()).run(target));
                    net
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_exploration);
criterion_main!(benches);
