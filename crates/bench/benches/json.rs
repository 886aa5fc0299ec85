//! Criterion benches for the JSON I/O layer: the 4-ISP internet's
//! scenario file parsed as JSON and loaded as a scenario, the golden
//! internet2 exchange log read back, and report lines written.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use obs::{ExchangeLog, ExchangeWriter};
use topogen::{io, isp_internet};

const GOLDEN_LOG: &str = include_str!("../../cli/tests/golden/internet2-seed2010.jsonl");

fn bench_json(c: &mut Criterion) {
    let mut g = c.benchmark_group("json");
    g.sample_size(20);

    let scenario = io::to_json(&isp_internet(2010));
    g.bench_function("parse_isp_scenario", |b| {
        b.iter(|| serde_json::from_str(black_box(&scenario)).expect("scenario is JSON"))
    });
    g.bench_function("from_json_isp", |b| {
        b.iter(|| io::from_json(black_box(&scenario)).expect("scenario loads"))
    });

    g.bench_function("exchange_log_parse", |b| {
        b.iter(|| ExchangeLog::parse(black_box(GOLDEN_LOG)).expect("golden log parses"))
    });

    // Every report of the golden log, written as `tracenet record`
    // appends them after a run.
    let log = ExchangeLog::parse(GOLDEN_LOG).expect("golden log parses");
    let mut writer = ExchangeWriter::new(std::io::sink(), &log.header).expect("sink");
    g.bench_function("report_line", |b| {
        b.iter(|| {
            for (session, report) in &log.reports {
                writer.write_report(*session, black_box(report));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
