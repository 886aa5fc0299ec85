//! Criterion bench: the offline subnet-inference baseline (paper ref
//! \[7\]) — post-processing cost over growing observation sets.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use inet::Addr;
use traceroute::infer_subnets;

/// Synthesizes `n` observations shaped like traceroute output: /30-link
/// pairs plus some LAN clusters with plausible hop distances.
fn observations(n: usize) -> Vec<(Addr, u16)> {
    let mut out = Vec::with_capacity(n);
    let mut k = 0u32;
    while out.len() < n {
        let base = 0x0a00_0000 + k * 64;
        // A /30 pair at hops h, h+1.
        let h = 2 + (k % 7) as u16;
        out.push((Addr::from_u32(base + 1), h));
        out.push((Addr::from_u32(base + 2), h + 1));
        // A /29 cluster nearby.
        for j in 0..5u32 {
            out.push((Addr::from_u32(base + 32 + 1 + j), h + 1));
        }
        k += 1;
    }
    out.truncate(n);
    out
}

fn bench_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("inference");
    for n in [100usize, 1000, 5000] {
        let obs = observations(n);
        g.bench_with_input(BenchmarkId::new("infer_subnets", n), &obs, |b, obs| {
            b.iter(|| infer_subnets(black_box(obs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
