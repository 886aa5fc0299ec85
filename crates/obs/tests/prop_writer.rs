//! `ExchangeWriter` against the lines it is made of: for random streams
//! of probes, decisions and reports, long enough to fill several of the
//! writer's chunks, the bytes that reach a writer taking at most 7 bytes
//! per `write` must be the header's `Value` rendering, then each event's
//! `write_line` plus a newline, then the report lines as they were
//! rendered through `json!`. That holds whether the run ends in `flush`
//! or the writer is just dropped.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use inet::Addr;
use obs::{Cause, DecisionEvent, DecisionVerdict, ExchangeHeader, ExchangeWriter};
use obs::{ProbeEvent, ProbeOutcome, TimeoutCause, UnreachReason, FORMAT_VERSION};
use proptest::prelude::*;
use serde_json::{json, Value};
use wire::Protocol;

/// A writer that takes at most 7 bytes per call, into a buffer the test
/// can read after the `ExchangeWriter` is gone.
#[derive(Clone, Default)]
struct Trickle(Arc<Mutex<Vec<u8>>>);

impl Write for Trickle {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = bytes.len().min(7);
        self.0.lock().unwrap().extend_from_slice(&bytes[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

enum Line {
    Probe(ProbeEvent),
    Decision(DecisionEvent),
}

struct Stream {
    header: ExchangeHeader,
    lines: Vec<Line>,
    reports: Vec<(u64, Value)>,
    flush: bool,
}

fn pick<T: Copy>(r: &mut TestRunner, options: &[T]) -> T {
    options[r.below(options.len() as u64) as usize]
}

fn maybe<T>(r: &mut TestRunner, draw: impl FnOnce(&mut TestRunner) -> T) -> Option<T> {
    (r.next_u64() & 1 == 1).then(|| draw(r))
}

/// An integer below 2^53, where the old `Value` rendering was exact.
fn int(r: &mut TestRunner) -> u64 {
    match r.below(3) {
        0 => pick(r, &[0, 9, 10, 99, 100, (1 << 53) - 1]),
        _ => r.below(1 << 53),
    }
}

fn addr(r: &mut TestRunner) -> Addr {
    Addr::from_u32(r.next_u64() as u32)
}

/// Text with characters that need escaping, up to the astral plane.
fn text(r: &mut TestRunner, max: u64) -> String {
    let len = r.below(max);
    (0..len)
        .map(|_| match r.below(4) {
            0 => pick(r, &['"', '\\', '\n', '\u{1}', '\u{7f}', 'é', '😀']),
            1 => char::from_u32(r.below(0x11_0000) as u32).unwrap_or('x'),
            _ => char::from(0x20 + r.below(0x5f) as u8),
        })
        .collect()
}

/// A reply of each kind from a random source, or a timeout.
fn outcome(r: &mut TestRunner) -> ProbeOutcome {
    match r.below(4) {
        0 => ProbeOutcome::DirectReply { from: addr(r) },
        1 => ProbeOutcome::TtlExceeded { from: addr(r) },
        2 => ProbeOutcome::Unreachable { from: addr(r), kind: pick(r, &UnreachReason::ALL) },
        _ => ProbeOutcome::Timeout,
    }
}

fn probe(r: &mut TestRunner) -> ProbeEvent {
    ProbeEvent {
        tick: int(r),
        session: maybe(r, int),
        vantage: addr(r),
        dst: addr(r),
        ttl: r.next_u64() as u8,
        protocol: pick(r, &[Protocol::Icmp, Protocol::Udp, Protocol::Tcp]),
        flow: r.next_u64() as u16,
        attempt: r.next_u64() as u8,
        outcome: outcome(r),
        cause: maybe(r, |r| pick(r, &Cause::ALL)),
        timeout_cause: maybe(r, |r| pick(r, &TimeoutCause::ALL)),
    }
}

fn decision(r: &mut TestRunner) -> DecisionEvent {
    // Now and then evidence long enough to straddle a chunk by itself.
    let max = if r.below(50) == 0 { 40_000 } else { 40 };
    DecisionEvent {
        session: maybe(r, int),
        hop: r.next_u64() as u8,
        cause: maybe(r, |r| pick(r, &Cause::ALL)),
        subject: maybe(r, addr),
        verdict: pick(r, &DecisionVerdict::ALL),
        evidence: text(r, max),
    }
}

/// A report-shaped `Value`: nested objects and arrays, strings that need
/// escaping, integers, fractions and nulls.
fn report(r: &mut TestRunner, depth: u32) -> Value {
    match r.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => json!(int(r)),
        2 => json!(r.below(1000) as f64 / 8.0),
        3 => json!(text(r, 12)),
        4 => Value::Array((0..r.below(4)).map(|_| report(r, depth - 1)).collect()),
        _ => Value::Object(
            (0..r.below(4)).map(|_| (text(r, 6), report(r, depth - 1))).collect::<Vec<_>>(),
        ),
    }
}

struct AnyStream;

impl Strategy for AnyStream {
    type Value = Stream;
    fn generate(&self, r: &mut TestRunner) -> Stream {
        let header = ExchangeHeader {
            version: FORMAT_VERSION,
            vantage: addr(r),
            protocol: Protocol::Icmp,
            targets: (0..r.below(40)).map(|_| addr(r)).collect(),
            jobs: 1 + r.below(8),
            options: report(r, 2),
        };
        // Up to about three chunks of probe lines.
        let lines = (0..r.below(700))
            .map(|_| match r.below(3) {
                0 => Line::Decision(decision(r)),
                _ => Line::Probe(probe(r)),
            })
            .collect();
        let reports = (0..r.below(12)).map(|_| (int(r), report(r, 3))).collect();
        Stream { header, lines, reports, flush: r.next_u64() & 1 == 1 }
    }
}

/// The bytes the stream's lines render to, one at a time.
fn expected(s: &Stream) -> String {
    let mut out = format!("{}\n", s.header.to_json());
    for line in &s.lines {
        match line {
            Line::Probe(e) => e.write_line(&mut out),
            Line::Decision(d) => d.write_line(&mut out),
        }
        out.push('\n');
    }
    for (session, report) in &s.reports {
        let line = json!({"type": "report", "session": *session, "report": report.clone()});
        out.push_str(&format!("{line}\n"));
    }
    out
}

fn written(s: &Stream) -> String {
    let out = Trickle::default();
    let mut w = ExchangeWriter::new(out.clone(), &s.header).unwrap();
    for line in &s.lines {
        match line {
            Line::Probe(e) => w.write_probe(e),
            Line::Decision(d) => w.write_decision(d),
        }
    }
    for (session, report) in &s.reports {
        w.write_report(*session, report);
    }
    if s.flush {
        w.flush().unwrap();
    }
    drop(w);
    let bytes = out.0.lock().unwrap().clone();
    String::from_utf8(bytes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_writer_emits_exactly_its_lines(s in AnyStream) {
        let (got, want) = (written(&s), expected(&s));
        prop_assert!(got == want, "{} bytes written, {} expected", got.len(), want.len());
    }
}

#[test]
fn a_dropped_writer_hands_over_a_partial_chunk() {
    let mut r = TestRunner::deterministic("a_dropped_writer_hands_over_a_partial_chunk");
    let mut s = AnyStream.generate(&mut r);
    s.lines.truncate(3);
    s.flush = false;
    assert_eq!(written(&s), expected(&s));
}
