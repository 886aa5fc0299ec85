//! Criterion bench for recording: a jobs=1, cache-off `run_batch` of the
//! 4-ISP internet with every probe and decision written by an
//! `ExchangeWriter` into memory, as `tracenet record --jobs 1` writes
//! them to a file. The batch's drain thread renders and writes the lines
//! while the calling thread probes. Each iteration probes a fresh
//! network, built outside the clock, because the engine's clock and rate
//! limits carry state from one batch to the next.

use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use obs::{ExchangeHeader, ExchangeSink, ExchangeWriter, Recorder, SinkHandle};
use probe::{Protocol, SharedNetwork};
use serde_json::Value;
use sweep::BatchConfig;
use topogen::isp_internet;

fn bench_record(c: &mut Criterion) {
    let mut g = c.benchmark_group("record");
    g.sample_size(10);

    let scenario = isp_internet(2010);
    let vantage = scenario.vantages[0].1;
    let targets = scenario.targets.clone();
    let cfg = BatchConfig { jobs: 1, use_cache: false, ..BatchConfig::default() };
    let header = ExchangeHeader {
        version: obs::FORMAT_VERSION,
        vantage,
        protocol: Protocol::Icmp,
        targets: targets.clone(),
        jobs: 1,
        options: Value::Null,
    };
    g.bench_function("isp_jobs1", |b| {
        b.iter_batched(
            || SharedNetwork::new(scenario.topology.clone()),
            |net| {
                let writer = ExchangeWriter::new(Vec::new(), &header).expect("in memory");
                let writer = Arc::new(Mutex::new(writer));
                let sink = SinkHandle::new(ExchangeSink::new(Arc::clone(&writer)));
                let recorder = Recorder::new().with_sink(sink);
                let result = sweep::run_batch(&net, vantage, &targets, &cfg, &recorder);
                recorder.flush().expect("in-memory writes cannot fail");
                result.probes
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_record);
criterion_main!(benches);
