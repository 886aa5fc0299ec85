//! Criterion bench: a full tracenet session vs a traceroute over the
//! same path — the paper's "valuable information comes with extra
//! probing overhead" trade-off, in wall-clock and (printed once) probe
//! counts.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use netsim::samples;
use probe::{Prober, Protocol, SharedNetwork};
use tracenet::{Session, TracenetOptions};
use traceroute::{traceroute, TracerouteOptions};

fn bench_session(c: &mut Criterion) {
    let (topo, names) = samples::figure3();
    let vantage = names.addr("vantage");
    let dest = names.addr("dest");

    // Print the probe-count comparison once, outside measurement.
    {
        let net = SharedNetwork::new(topo.clone());
        let mut p = net.prober(vantage, Protocol::Icmp);
        let r = Session::new(&mut p, TracenetOptions::default()).run(dest);
        let tracenet_probes = p.stats().sent;
        let tracenet_addrs = r.all_addresses().len();
        let mut p = net.prober(vantage, Protocol::Icmp);
        let r = traceroute(&mut p, dest, TracerouteOptions::default());
        eprintln!(
            "figure3 path: tracenet {} probes -> {} addrs; traceroute {} probes -> {} addrs",
            tracenet_probes,
            tracenet_addrs,
            p.stats().sent,
            r.all_addresses().len()
        );
    }

    let mut g = c.benchmark_group("session");
    g.bench_function("tracenet_figure3", |b| {
        b.iter_batched(
            || SharedNetwork::new(topo.clone()),
            |net| {
                let mut prober = net.prober(vantage, Protocol::Icmp);
                black_box(Session::new(&mut prober, TracenetOptions::default()).run(dest));
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("traceroute_figure3", |b| {
        b.iter_batched(
            || SharedNetwork::new(topo.clone()),
            |net| {
                let mut prober = net.prober(vantage, Protocol::Icmp);
                black_box(traceroute(&mut prober, dest, TracerouteOptions::default()));
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
