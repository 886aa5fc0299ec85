//! The exchange-log sink under concurrent writers: interleaved
//! sessions must produce a torn-free line stream whose event count
//! agrees exactly with the metrics registry, and whose per-session
//! content is reproducible from the fixed seed that generated it.

use std::sync::{Arc, Mutex};

use inet::Addr;
use obs::{
    Cause, Entry, ExchangeHeader, ExchangeLog, ExchangeReader, ExchangeSink, ExchangeWriter,
    ProbeEvent, ProbeOutcome, Recorder, Registry, SinkHandle, FORMAT_VERSION,
};
use wire::Protocol;

const SEED: u64 = 424242;
const WRITERS: u64 = 8;
const EVENTS_PER_WRITER: u64 = 200;

/// A deterministic event for `(session, n)` under a fixed seed: the
/// same inputs always produce the same line, so the log contents can
/// be re-derived and checked after the concurrent write.
fn event(session: u64, n: u64) -> ProbeEvent {
    let mix = SEED
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(session * 10_007 + n * 31)
        .rotate_left(17);
    ProbeEvent {
        tick: n,
        session: None, // the recorder stamps it
        vantage: Addr::from_u32(0x0a00_0001),
        dst: Addr::from_u32(0x0a00_0100 + (mix % 64) as u32),
        ttl: (mix % 30) as u8 + 1,
        protocol: Protocol::Icmp,
        flow: (mix % 7) as u16,
        attempt: (n % 2) as u8,
        outcome: ProbeOutcome::TtlExceeded { from: Addr::from_u32(0x0a0a_0a0a) },
        cause: None, // attribution comes from the ambient cause scope
        timeout_cause: None,
    }
}

#[test]
fn concurrent_writers_tear_no_lines_and_agree_with_the_registry() {
    let path =
        std::env::temp_dir().join(format!("tracenet-obs-concurrency-{}.jsonl", std::process::id()));
    let header = ExchangeHeader {
        version: FORMAT_VERSION,
        vantage: Addr::from_u32(0x0a00_0001),
        protocol: Protocol::Icmp,
        targets: (0..WRITERS).map(|k| Addr::from_u32(0x0a00_0100 + k as u32)).collect(),
        jobs: WRITERS,
        options: serde_json::Value::Null,
    };
    let writer = ExchangeWriter::create(&path, &header).expect("create log");
    let sink = ExchangeSink::new(Arc::new(Mutex::new(writer)));
    let registry = Arc::new(Registry::new());
    let recorder =
        Recorder::new().with_sink(SinkHandle::new(sink)).with_metrics(Arc::clone(&registry));

    std::thread::scope(|scope| {
        for session in 0..WRITERS {
            let recorder = recorder.clone().with_session(session);
            scope.spawn(move || {
                let _cause = obs::cause_scope(Cause::TraceCollection);
                for n in 0..EVENTS_PER_WRITER {
                    recorder.record(|| event(session, n));
                }
            });
        }
    });
    recorder.flush().expect("flush");

    // The log reads, which checks that every line is a whole event — no
    // torn or interleaved partial writes.
    let text = std::fs::read_to_string(&path).expect("the log was written");
    let reader = ExchangeReader::new(text.as_bytes()).expect("the header is whole");
    let entries: Vec<Entry> = reader.map(|entry| entry.expect("every line is whole").1).collect();
    let total = entries.len() as u64;
    let tagged = entries
        .iter()
        .filter(|e| matches!(e, Entry::Probe(ev) if ev.session.is_some_and(|k| k < WRITERS)))
        .count();
    assert_eq!(tagged as u64, total, "every line is a probe with a known session tag");
    let log = ExchangeLog::parse(&text).expect("the log indexes");

    // The line count equals what the registry metered.
    assert_eq!(total, WRITERS * EVENTS_PER_WRITER);
    assert_eq!(registry.snapshot().sent_total(), total);

    // Within a session, emission order is preserved and every event is
    // exactly the one the fixed seed generates — the stream replays.
    for session in 0..WRITERS {
        let events: Vec<ProbeEvent> = log.events_for(session).collect();
        assert_eq!(events.len() as u64, EVENTS_PER_WRITER, "session {session}");
        for (n, ev) in events.iter().enumerate() {
            let mut expected = event(session, n as u64);
            expected.session = Some(session);
            expected.cause = Some(Cause::TraceCollection);
            assert_eq!(*ev, expected, "session {session} event {n}");
        }
    }

    std::fs::remove_file(path).ok();
}
