//! The probe and decision line writers against the `Value` rendering
//! they replaced: for random events covering every enum variant, every
//! `Option` both ways, integers the shim's `f64` numbers hold exactly
//! (below 2^53) and evidence full of characters that need escaping, the
//! written line must equal the oracle's bytes and parse back to the
//! same event.

use inet::Addr;
use obs::{Cause, DecisionEvent, DecisionVerdict, Phase, ProbeEvent, ProbeOutcome};
use obs::{TimeoutCause, UnreachReason};
use proptest::prelude::*;
use serde_json::{json, Value};
use wire::Protocol;

fn proto_label(p: Protocol) -> &'static str {
    match p {
        Protocol::Icmp => "icmp",
        Protocol::Udp => "udp",
        Protocol::Tcp => "tcp",
    }
}

/// The probe line as it was rendered through `serde_json::Value`, when
/// an event kept the outcome's kind, source and unreachable flavour in
/// three fields.
fn probe_oracle(e: &ProbeEvent) -> Value {
    let (outcome, from, unreach) = match e.outcome {
        ProbeOutcome::DirectReply { from } => ("direct_reply", Some(from), None),
        ProbeOutcome::TtlExceeded { from } => ("ttl_exceeded", Some(from), None),
        ProbeOutcome::Unreachable { from, kind } => ("unreachable", Some(from), Some(kind)),
        ProbeOutcome::Timeout => ("timeout", None, None),
    };
    json!({
        "tick": e.tick,
        "session": e.session,
        "vantage": e.vantage.to_string(),
        "dst": e.dst.to_string(),
        "ttl": e.ttl,
        "proto": proto_label(e.protocol),
        "flow": e.flow,
        "attempt": e.attempt,
        "outcome": outcome,
        "from": from.map(|a| a.to_string()),
        "phase": e.phase().map(Phase::label),
        "cause": e.cause.map(Cause::label),
        "timeout_cause": e.timeout_cause.map(TimeoutCause::label),
        "unreach": unreach.map(UnreachReason::label),
    })
}

/// The decision line as it was rendered through `serde_json::Value`.
fn decision_oracle(d: &DecisionEvent) -> Value {
    json!({
        "type": "decision",
        "session": d.session,
        "hop": d.hop,
        "phase": d.phase().map(Phase::label),
        "cause": d.cause.map(Cause::label),
        "subject": d.subject.map(|a| a.to_string()),
        "verdict": d.verdict.label(),
        "evidence": &d.evidence,
    })
}

fn probe_line(e: &ProbeEvent) -> String {
    let mut line = String::new();
    e.write_line(&mut line);
    line
}

fn decision_line(d: &DecisionEvent) -> String {
    let mut line = String::new();
    d.write_line(&mut line);
    line
}

fn pick<T: Copy>(r: &mut TestRunner, options: &[T]) -> T {
    options[r.below(options.len() as u64) as usize]
}

fn maybe<T>(r: &mut TestRunner, draw: impl FnOnce(&mut TestRunner) -> T) -> Option<T> {
    (r.next_u64() & 1 == 1).then(|| draw(r))
}

/// An integer below 2^53, often at a digit-count or range edge.
fn int(r: &mut TestRunner) -> u64 {
    const MAX: u64 = (1 << 53) - 1;
    match r.below(4) {
        0 => pick(r, &[0, 1, 9, 10, 99, 100, 65_535, 65_536, u32::MAX as u64, MAX]),
        1 => r.below(1000),
        _ => r.below(MAX + 1),
    }
}

fn addr(r: &mut TestRunner) -> Addr {
    Addr::from_u32(match r.below(3) {
        0 => pick(r, &[0, u32::MAX, 0x0a00_0001, 0x0100_0000]),
        _ => r.next_u64() as u32,
    })
}

/// Evidence mixing plain text with quotes, backslashes, every control
/// character, DEL and multi-byte characters up to the astral plane.
fn evidence(r: &mut TestRunner) -> String {
    let len = r.below(24);
    (0..len)
        .map(|_| match r.below(5) {
            0 => pick(r, &['"', '\\', '/', '\u{7f}', 'é', '→', '😀', '\u{fffd}']),
            1 => char::from(r.below(0x20) as u8),
            2 => char::from_u32(r.below(0x11_0000) as u32).unwrap_or('x'),
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

struct AnyProbe;

impl Strategy for AnyProbe {
    type Value = ProbeEvent;
    fn generate(&self, r: &mut TestRunner) -> ProbeEvent {
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
}

struct AnyDecision;

impl Strategy for AnyDecision {
    type Value = DecisionEvent;
    fn generate(&self, r: &mut TestRunner) -> DecisionEvent {
        DecisionEvent {
            session: maybe(r, int),
            hop: r.next_u64() as u8,
            cause: maybe(r, |r| pick(r, &Cause::ALL)),
            subject: maybe(r, addr),
            verdict: pick(r, &DecisionVerdict::ALL),
            evidence: evidence(r),
        }
    }
}

fn assert_probe_renders_like_the_oracle(e: &ProbeEvent) {
    let line = probe_line(e);
    assert_eq!(line, probe_oracle(e).to_string());
    let parsed = ProbeEvent::read_line(&line).unwrap();
    assert_eq!(&parsed, e, "{line}");
}

fn assert_decision_renders_like_the_oracle(d: &DecisionEvent) {
    let line = decision_line(d);
    assert_eq!(line, decision_oracle(d).to_string());
    let parsed = DecisionEvent::read_line(&line).unwrap();
    assert_eq!(&parsed, d, "{line}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn probe_lines_match_the_value_rendering(e in AnyProbe) {
        assert_probe_renders_like_the_oracle(&e);
    }

    #[test]
    fn decision_lines_match_the_value_rendering(d in AnyDecision) {
        assert_decision_renders_like_the_oracle(&d);
    }
}

/// Every variant of every enum, each once, so coverage does not rest on
/// the random draw.
#[test]
fn every_variant_renders_like_the_oracle() {
    let mut r = TestRunner::deterministic("every_variant_renders_like_the_oracle");
    let from = Addr::new(10, 0, 3, 1);
    let outcomes = [ProbeOutcome::DirectReply { from }, ProbeOutcome::TtlExceeded { from }]
        .into_iter()
        .chain(UnreachReason::ALL.map(|kind| ProbeOutcome::Unreachable { from, kind }))
        .chain([ProbeOutcome::Timeout]);
    for outcome in outcomes {
        assert_probe_renders_like_the_oracle(&ProbeEvent { outcome, ..AnyProbe.generate(&mut r) });
    }
    for c in Cause::ALL {
        let cause = Some(c);
        assert_probe_renders_like_the_oracle(&ProbeEvent { cause, ..AnyProbe.generate(&mut r) });
        assert_decision_renders_like_the_oracle(&DecisionEvent {
            cause,
            ..AnyDecision.generate(&mut r)
        });
    }
    for c in TimeoutCause::ALL {
        let timeout_cause = Some(c);
        assert_probe_renders_like_the_oracle(&ProbeEvent {
            timeout_cause,
            ..AnyProbe.generate(&mut r)
        });
    }
    for verdict in DecisionVerdict::ALL {
        let d = DecisionEvent { verdict, ..AnyDecision.generate(&mut r) };
        assert_decision_renders_like_the_oracle(&DecisionEvent { cause: None, ..d.clone() });
        assert_decision_renders_like_the_oracle(&d);
    }
    for b in 0..0x80u8 {
        let evidence = format!("<{}>", char::from(b));
        assert_decision_renders_like_the_oracle(&DecisionEvent {
            evidence,
            ..AnyDecision.generate(&mut r)
        });
    }
}
