//! Criterion benches for the JSON I/O layer: the 4-ISP internet's
//! scenario file loaded and written, the golden internet2 exchange log
//! read back (indexed, then every session's events decoded into a replay
//! script), its report, probe and decision lines written, and its
//! addresses printed through `Display`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use obs::{ExchangeLog, ExchangeWriter};
use probe::ReplayProber;
use topogen::{io, isp_internet};

const GOLDEN_LOG: &str = include_str!("../../cli/tests/golden/internet2-seed2010.jsonl");

fn bench_json(c: &mut Criterion) {
    let mut g = c.benchmark_group("json");
    g.sample_size(20);

    let isp = isp_internet(2010);
    let scenario = io::to_json(&isp);
    g.bench_function("from_json_isp", |b| {
        b.iter(|| io::from_json(black_box(&scenario)).expect("scenario loads"))
    });
    g.bench_function("to_json_isp", |b| b.iter(|| io::to_json(black_box(&isp))));

    g.bench_function("exchange_log_parse", |b| {
        b.iter(|| ExchangeLog::parse(black_box(GOLDEN_LOG)).expect("golden log parses"))
    });
    // What `tracenet replay` reads before any session runs.
    g.bench_function("exchange_log_events", |b| {
        b.iter(|| {
            let log = ExchangeLog::parse(black_box(GOLDEN_LOG)).expect("golden log parses");
            (0..log.header.targets.len() as u64)
                .map(|k| ReplayProber::for_session(&log, k).expect("session replays").remaining())
                .sum::<usize>()
        })
    });

    // Every report of the golden log, written from its tree as `tracenet
    // record` appends them after a run. The log keeps each report as
    // its text, so the trees are parsed back first.
    let log = ExchangeLog::parse(GOLDEN_LOG).expect("golden log parses");
    let reports: Vec<(u64, serde_json::Value)> =
        log.reports().iter().map(|(session, r)| (*session, r.to_tree())).collect();
    let mut writer = ExchangeWriter::new(std::io::sink(), &log.header).expect("sink");
    g.bench_function("report_line", |b| {
        b.iter(|| {
            for (session, report) in &reports {
                writer.write_report(*session, black_box(report));
            }
        })
    });

    // Every probe and every decision of the golden log, written as a
    // recording run streams them.
    let sessions = 0..log.header.targets.len() as u64;
    let probes: Vec<_> = sessions.clone().flat_map(|k| log.events_for(k)).collect();
    let decisions: Vec<_> = sessions.flat_map(|k| log.decisions_for(k)).collect();
    g.bench_function("probe_line", |b| {
        b.iter(|| {
            for event in &probes {
                writer.write_probe(black_box(event));
            }
        })
    });
    g.bench_function("decision_line", |b| {
        b.iter(|| {
            for decision in &decisions {
                writer.write_decision(black_box(decision));
            }
        })
    });
    g.bench_function("addr_display", |b| {
        b.iter(|| probes.iter().map(|e| black_box(e.dst).to_string().len()).sum::<usize>())
    });
    g.finish();
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
