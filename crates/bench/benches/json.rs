//! Criterion benches for the JSON I/O layer: the 4-ISP internet's
//! scenario file loaded (as written, and with its keys sorted) and
//! written, the golden internet2 exchange log
//! read back (indexed, then every session's events decoded into a replay
//! script; or read once, straight into the scripts), its report, probe
//! and decision lines written, and its addresses printed through
//! `Display`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use obs::{Entry, ExchangeLog, ExchangeReader, ExchangeWriter};
use probe::{ReplayProber, ReplayScript};
use serde_json::Value;
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
    // The same scenario with every object's keys sorted and no
    // whitespace: no key comes in the writer's order, so every object
    // is read by the loader's general member loop.
    let mut doc = serde_json::from_str(&scenario).expect("scenario parses");
    sort_keys(&mut doc);
    let sorted = doc.to_string();
    g.bench_function("from_json_isp_sorted", |b| {
        b.iter(|| io::from_json(black_box(&sorted)).expect("scenario loads"))
    });
    g.bench_function("to_json_isp", |b| b.iter(|| io::to_json(black_box(&isp))));

    g.bench_function("exchange_log_parse", |b| {
        b.iter(|| ExchangeLog::parse(black_box(GOLDEN_LOG)).expect("golden log parses"))
    });
    // The log indexed, then every session's replay script built from
    // the index, as collector-bench's isp-replay does.
    g.bench_function("exchange_log_events", |b| {
        b.iter(|| {
            let log = ExchangeLog::parse(black_box(GOLDEN_LOG)).expect("golden log parses");
            (0..log.header.targets.len() as u64)
                .map(|k| ReplayProber::for_session(&log, k).expect("session replays").remaining())
                .sum::<usize>()
        })
    });
    // What `tracenet replay` reads before any session runs: one pass,
    // each probe line straight into its session's script.
    g.bench_function("exchange_log_stream", |b| {
        b.iter(|| {
            let mut log =
                ExchangeReader::new(black_box(GOLDEN_LOG.as_bytes())).expect("golden log parses");
            let mut scripts = vec![ReplayScript::default(); log.header.targets.len()];
            for entry in log.by_ref() {
                if let (_, Entry::Probe(ev)) = entry.expect("golden log parses") {
                    scripts[ev.session.expect("tagged") as usize].push(&ev);
                }
            }
            scripts
        })
    });

    // Every line of the golden log, read once: its reports are written
    // from their trees as `tracenet record` appends them after a run, and
    // its probes and decisions as a recording run streams them. The
    // reader keeps each report as its text, so the trees are parsed back.
    let mut log = ExchangeReader::new(GOLDEN_LOG.as_bytes()).expect("golden log parses");
    let (mut reports, mut probes, mut decisions) = (Vec::new(), Vec::new(), Vec::new());
    for entry in log.by_ref() {
        match entry.expect("golden log parses").1 {
            Entry::Probe(event) => probes.push(event),
            Entry::Decision(decision) => decisions.push(decision),
            Entry::Report { session, report } => reports.push((session, report.to_tree())),
        }
    }
    let mut writer = ExchangeWriter::new(std::io::sink(), &log.header).expect("sink");
    g.bench_function("report_line", |b| {
        b.iter(|| {
            for (session, report) in &reports {
                writer.write_report(*session, black_box(report));
            }
        })
    });

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

/// Sorts the keys of every object in `v` by their bytes.
fn sort_keys(v: &mut Value) {
    match v {
        Value::Object(members) => {
            members.sort_by(|a, b| a.0.cmp(&b.0));
            members.iter_mut().for_each(|(_, v)| sort_keys(v));
        }
        Value::Array(items) => items.iter_mut().for_each(sort_keys),
        _ => {}
    }
}

criterion_group!(benches, bench_json);
criterion_main!(benches);
