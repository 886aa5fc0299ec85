//! The typed line readers against the `Value`-based readers they
//! replaced. Random probe and decision lines, then the same lines with
//! keys reordered, repeated, escaped, dropped or unknown, values of the
//! wrong type or out of range, whitespace added, and bytes cut or
//! flipped: both readers must return the same event or the same error
//! string. The exchange log's per-session index must also decode exactly
//! what a full decode of the golden log, filtered by session, gives.

use inet::Addr;
use obs::{Cause, DecisionEvent, DecisionVerdict, Entry, ExchangeLog, ExchangeReader};
use obs::{ProbeEvent, ProbeOutcome, TimeoutCause, UnreachReason};
use proptest::prelude::*;
use wire::Protocol;

const GOLDEN_LOG: &str = include_str!("../../cli/tests/golden/internet2-seed2010.jsonl");

/// The `Value`-based readers the typed ones replaced, kept as the
/// oracle: parse the whole line into a `Value`, then index it.
mod oracle {
    use inet::Addr;
    use obs::{Cause, DecisionEvent, DecisionVerdict, Phase, ProbeEvent, ProbeOutcome};
    use obs::{TimeoutCause, UnreachReason};
    use serde_json::Value;
    use wire::Protocol;

    fn protocol_from_label(s: &str) -> Option<Protocol> {
        match s {
            "icmp" => Some(Protocol::Icmp),
            "udp" => Some(Protocol::Udp),
            "tcp" => Some(Protocol::Tcp),
            _ => None,
        }
    }

    /// What `ProbeEvent::read_line` must return for `line`.
    pub fn probe(line: &str) -> Result<ProbeEvent, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
        probe_from_json(&v)
    }

    /// What `DecisionEvent::read_line` must return for `line`.
    pub fn decision(line: &str) -> Result<DecisionEvent, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
        decision_from_json(&v)
    }

    /// A line's logged phase must be the one its cause, or for a
    /// decision without one its verdict, gives.
    fn phase(logged: Option<Phase>, derived: Option<Phase>) -> Result<(), String> {
        if logged == derived {
            return Ok(());
        }
        let label = |p: Option<Phase>| p.map_or("null", Phase::label);
        Err(format!("phase: logged as {}, derived as {}", label(logged), label(derived)))
    }

    /// The outcome a line's `outcome` label, `from` and `unreach` name:
    /// replies carry a source, a timeout none, and only unreachables a
    /// flavour.
    fn outcome(
        label: &str,
        from: Option<Addr>,
        unreach: Option<UnreachReason>,
    ) -> Result<ProbeOutcome, String> {
        let source =
            || from.ok_or_else(|| format!("from: {label} outcome without a source address"));
        let no_flavour = || match unreach {
            Some(_) => Err(format!("unreach: {label} outcome with an unreachable flavour")),
            None => Ok(()),
        };
        match label {
            "direct_reply" => {
                let from = source()?;
                no_flavour()?;
                Ok(ProbeOutcome::DirectReply { from })
            }
            "ttl_exceeded" => {
                let from = source()?;
                no_flavour()?;
                Ok(ProbeOutcome::TtlExceeded { from })
            }
            "unreachable" => Ok(ProbeOutcome::Unreachable {
                from: source()?,
                kind: unreach.ok_or("unreach: unreachable outcome without a flavour")?,
            }),
            "timeout" => {
                if from.is_some() {
                    return Err("from: timeout outcome with a source address".into());
                }
                no_flavour()?;
                Ok(ProbeOutcome::Timeout)
            }
            _ => Err(format!("outcome: unknown value {label:?}")),
        }
    }

    fn probe_from_json(v: &Value) -> Result<ProbeEvent, String> {
        fn addr(v: &Value, what: &str) -> Result<Addr, String> {
            v.as_str()
                .ok_or_else(|| format!("{what}: expected string"))?
                .parse()
                .map_err(|e| format!("{what}: {e}"))
        }
        fn num(v: &Value, what: &str, max: u64) -> Result<u64, String> {
            let n = v.as_u64().ok_or_else(|| format!("{what}: expected unsigned integer"))?;
            if n > max {
                return Err(format!("{what}: {n} out of range"));
            }
            Ok(n)
        }

        let outcome_label =
            v["outcome"].as_str().ok_or_else(|| "outcome: expected string".to_string())?;
        let proto_label =
            v["proto"].as_str().ok_or_else(|| "proto: expected string".to_string())?;
        let logged_phase = match &v["phase"] {
            Value::Null => None,
            p => Some(
                p.as_str()
                    .and_then(Phase::from_label)
                    .ok_or_else(|| format!("phase: unknown value {p}"))?,
            ),
        };
        let cause = match &v["cause"] {
            Value::Null => None,
            c => Some(
                c.as_str()
                    .and_then(Cause::from_label)
                    .ok_or_else(|| format!("cause: unknown value {c}"))?,
            ),
        };
        let timeout_cause = match &v["timeout_cause"] {
            Value::Null => None,
            c => Some(
                c.as_str()
                    .and_then(TimeoutCause::from_label)
                    .ok_or_else(|| format!("timeout_cause: unknown value {c}"))?,
            ),
        };
        let unreach = match &v["unreach"] {
            Value::Null => None,
            r => Some(
                r.as_str()
                    .and_then(UnreachReason::from_label)
                    .ok_or_else(|| format!("unreach: unknown value {r}"))?,
            ),
        };
        let from = match &v["from"] {
            Value::Null => None,
            f => Some(addr(f, "from")?),
        };
        let session = match &v["session"] {
            Value::Null => None,
            s => Some(num(s, "session", u64::MAX)?),
        };
        let event = ProbeEvent {
            tick: num(&v["tick"], "tick", u64::MAX)?,
            session,
            vantage: addr(&v["vantage"], "vantage")?,
            dst: addr(&v["dst"], "dst")?,
            ttl: num(&v["ttl"], "ttl", u8::MAX as u64)? as u8,
            protocol: protocol_from_label(proto_label)
                .ok_or_else(|| format!("proto: unknown value {proto_label:?}"))?,
            flow: num(&v["flow"], "flow", u16::MAX as u64)? as u16,
            attempt: num(&v["attempt"], "attempt", u8::MAX as u64)? as u8,
            outcome: outcome(outcome_label, from, unreach)?,
            cause,
            timeout_cause,
        };
        phase(logged_phase, cause.map(Cause::phase))?;
        Ok(event)
    }

    fn decision_from_json(v: &Value) -> Result<DecisionEvent, String> {
        let session = match &v["session"] {
            Value::Null => None,
            s => Some(s.as_u64().ok_or_else(|| "session: expected unsigned integer".to_string())?),
        };
        let hop = v["hop"].as_u64().ok_or_else(|| "hop: expected unsigned integer".to_string())?;
        if hop > u8::MAX as u64 {
            return Err(format!("hop: {hop} out of range"));
        }
        let logged_phase = match &v["phase"] {
            Value::Null => None,
            p => Some(
                p.as_str()
                    .and_then(Phase::from_label)
                    .ok_or_else(|| format!("phase: unknown value {p}"))?,
            ),
        };
        let cause = match &v["cause"] {
            Value::Null => None,
            c => Some(
                c.as_str()
                    .and_then(Cause::from_label)
                    .ok_or_else(|| format!("cause: unknown value {c}"))?,
            ),
        };
        let subject = match &v["subject"] {
            Value::Null => None,
            s => Some(
                s.as_str()
                    .ok_or_else(|| "subject: expected string".to_string())?
                    .parse()
                    .map_err(|e| format!("subject: {e}"))?,
            ),
        };
        let verdict_label =
            v["verdict"].as_str().ok_or_else(|| "verdict: expected string".to_string())?;
        let verdict = DecisionVerdict::from_label(verdict_label)
            .ok_or_else(|| format!("verdict: unknown value {verdict_label:?}"))?;
        let derived = match (cause, verdict_label) {
            (Some(cause), _) => Some(cause.phase()),
            (None, "repeated" | "cache_hit" | "cache_skip") => Some(Phase::Trace),
            (None, "accepted" | "underutilized" | "collected") => Some(Phase::Explore),
            (None, _) => None,
        };
        phase(logged_phase, derived)?;
        Ok(DecisionEvent {
            session,
            hop: hop as u8,
            cause,
            subject,
            verdict,
            evidence: v["evidence"].as_str().unwrap_or_default().to_string(),
        })
    }
}

fn pick<T: Copy>(r: &mut TestRunner, options: &[T]) -> T {
    options[r.below(options.len() as u64) as usize]
}

fn maybe<T>(r: &mut TestRunner, draw: impl FnOnce(&mut TestRunner) -> T) -> Option<T> {
    (r.next_u64() & 1 == 1).then(|| draw(r))
}

fn addr(r: &mut TestRunner) -> Addr {
    Addr::from_u32(r.next_u64() as u32)
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
        tick: r.below(1 << 40),
        session: maybe(r, |r| r.below(2000)),
        vantage: addr(r),
        dst: addr(r),
        ttl: r.next_u64() as u8,
        protocol: pick(r, &[Protocol::Icmp, Protocol::Udp, Protocol::Tcp]),
        flow: r.next_u64() as u16,
        attempt: r.below(4) as u8,
        outcome: outcome(r),
        cause: maybe(r, |r| pick(r, &Cause::ALL)),
        timeout_cause: maybe(r, |r| pick(r, &TimeoutCause::ALL)),
    }
}

fn decision(r: &mut TestRunner) -> DecisionEvent {
    DecisionEvent {
        session: maybe(r, |r| r.below(2000)),
        hop: r.next_u64() as u8,
        cause: maybe(r, |r| pick(r, &Cause::ALL)),
        subject: maybe(r, addr),
        verdict: pick(r, &DecisionVerdict::ALL),
        evidence: pick(r, &["", "mate 10.0.1.3 expired at d-1", "quote \" and \\ and \n"]).into(),
    }
}

/// Every key either reader knows, and one neither does.
const KEYS: &[&str] = &[
    "tick",
    "session",
    "vantage",
    "dst",
    "ttl",
    "proto",
    "flow",
    "attempt",
    "outcome",
    "from",
    "phase",
    "cause",
    "timeout_cause",
    "unreach",
    "type",
    "hop",
    "subject",
    "verdict",
    "evidence",
    "report",
    "mystery",
];

/// Values of every JSON type, labels of every field, and numbers at and
/// beyond every range edge.
const VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "1",
    "255",
    "256",
    "65535",
    "65536",
    "-1",
    "1.5",
    "1e3",
    "2e2",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "1e400",
    "\"\"",
    "\"x\"",
    "\"10.0.0.1\"",
    "\"10.0.0.256\"",
    "\"010.0.0.1\"",
    "\"icmp\"",
    "\"udp\"",
    "\"ttl_exceeded\"",
    "\"unreachable\"",
    "\"timeout\"",
    "\"explore\"",
    "\"trace\"",
    "\"h4\"",
    "\"h99\"",
    "\"rate_limited\"",
    "\"host\"",
    "\"collected\"",
    "\"decision\"",
    "\"report\"",
    "\"\\u0074cp\"",
    "\"warp\\n\"",
    "[]",
    "[1,\"a\"]",
    "{}",
    "{\"a\":{\"b\":null}}",
];

/// A line's members as `(key, value)` texts.
fn members(line: &str) -> Vec<(String, String)> {
    match serde_json::from_str(line).expect("a written line is JSON") {
        serde_json::Value::Object(members) => members
            .into_iter()
            .map(|(k, v)| (serde_json::to_string(&k.into()), v.to_string()))
            .collect(),
        other => panic!("a written line is an object, not {other}"),
    }
}

/// Edits the members, then renders them, maybe with whitespace, then
/// maybe cuts or flips a byte.
fn mutate(r: &mut TestRunner, mut m: Vec<(String, String)>) -> String {
    for _ in 0..r.below(5) {
        let at = r.below(m.len() as u64 + 1) as usize;
        let last = m.len().saturating_sub(1).min(at);
        match r.below(7) {
            0 if m.len() > 1 => {
                let other = r.below(m.len() as u64) as usize;
                m.swap(last, other);
            }
            1 if !m.is_empty() => {
                let key = m[r.below(m.len() as u64) as usize].0.clone();
                m.insert(at, (key, pick(r, VALUES).into()));
            }
            2 => m.insert(at, (format!("\"{}\"", pick(r, KEYS)), pick(r, VALUES).into())),
            3 if !m.is_empty() => {
                m.remove(last);
            }
            4 if !m.is_empty() => m[last].1 = pick(r, VALUES).into(),
            5 if !m.is_empty() => {
                // The same key, spelled with an escape.
                let key = &mut m[last].0;
                if key.len() > 2 {
                    let first = key.as_bytes()[1];
                    *key = format!("\"\\u{:04x}{}", first, &key[2..]);
                }
            }
            _ => {}
        }
    }
    let ws = if r.below(4) == 0 { " \t" } else { "" };
    let body: Vec<String> = m.iter().map(|(k, v)| format!("{ws}{k}{ws}:{ws}{v}{ws}")).collect();
    let mut line = format!("{{{}}}", body.join(","));
    match r.below(8) {
        0 => line.truncate(r.below(line.len() as u64) as usize),
        1 => {
            let at = r.below(line.len() as u64) as usize;
            let flip = pick(r, &["\"", "{", "}", ",", ":", " ", "x", "\\", "[", "0"]);
            line.replace_range(at..at + 1, flip);
        }
        2 => line = pick(r, &["[1]", "\"tick\"", "7", "null", "", " "]).into(),
        _ => {}
    }
    line
}

struct AnyLine;

impl Strategy for AnyLine {
    type Value = String;
    fn generate(&self, r: &mut TestRunner) -> String {
        let mut line = String::new();
        if r.below(2) == 0 {
            probe(r).write_line(&mut line);
        } else {
            decision(r).write_line(&mut line);
        }
        if r.below(4) == 0 {
            return line;
        }
        let m = members(&line);
        mutate(r, m)
    }
}

fn assert_reads_like_the_oracle(line: &str) {
    assert_eq!(ProbeEvent::read_line(line), oracle::probe(line), "probe reader on {line:?}");
    assert_eq!(
        DecisionEvent::read_line(line),
        oracle::decision(line),
        "decision reader on {line:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn typed_readers_agree_with_the_value_readers(line in AnyLine) {
        assert_reads_like_the_oracle(&line);
    }
}

/// Every `outcome` label with `from` absent or set and `unreach` absent
/// or each flavour: the combinations an outcome writes read back, and
/// both readers reject the rest with the same error.
#[test]
fn every_outcome_combination_reads_like_the_oracle() {
    let mut line = String::new();
    probe(&mut TestRunner::deterministic("every_outcome_combination")).write_line(&mut line);
    let base: Vec<(String, String)> = members(&line)
        .into_iter()
        .filter(|(k, _)| !matches!(k.as_str(), "\"outcome\"" | "\"from\"" | "\"unreach\""))
        .collect();
    let mut accepted = 0;
    for outcome in ["direct_reply", "ttl_exceeded", "unreachable", "timeout"] {
        for from in ["null", "\"10.0.3.1\""] {
            for unreach in ["null", "\"host\"", "\"net\"", "\"admin_prohibited\""] {
                let mut m = base.clone();
                m.push(("\"outcome\"".into(), format!("\"{outcome}\"")));
                m.push(("\"from\"".into(), from.into()));
                m.push(("\"unreach\"".into(), unreach.into()));
                let body: Vec<String> = m.iter().map(|(k, v)| format!("{k}:{v}")).collect();
                let line = format!("{{{}}}", body.join(","));
                assert_reads_like_the_oracle(&line);
                accepted += usize::from(ProbeEvent::read_line(&line).is_ok());
            }
        }
    }
    assert_eq!(accepted, 6, "a direct reply, a TTL exceeded, three unreachables and a timeout");
}

#[test]
fn every_golden_line_reads_like_the_oracle() {
    for line in GOLDEN_LOG.lines() {
        assert_reads_like_the_oracle(line);
    }
}

/// The reader yields every probe and decision line as the oracle decodes
/// it, in file order, and the index gives each session's probes.
#[test]
fn the_index_decodes_what_a_full_decode_filtered_by_session_gives() {
    let log = ExchangeLog::parse(GOLDEN_LOG).expect("golden log parses");
    let events: Vec<Entry> = GOLDEN_LOG
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("{\"type\":\"report\""))
        .map(|l| {
            if l.starts_with("{\"type\":\"decision\"") {
                Entry::Decision(oracle::decision(l).unwrap())
            } else {
                Entry::Probe(oracle::probe(l).unwrap())
            }
        })
        .collect();
    let read: Vec<Entry> = ExchangeReader::new(GOLDEN_LOG.as_bytes())
        .expect("golden log parses")
        .map(|entry| entry.expect("golden log parses").1)
        .filter(|entry| !matches!(entry, Entry::Report { .. }))
        .collect();
    assert!(read == events, "the reader and the oracle disagree");
    let sessions = log.header.targets.len() as u64;
    for session in 0..sessions + 2 {
        let want: Vec<&ProbeEvent> = events
            .iter()
            .filter_map(|e| match e {
                Entry::Probe(e) if e.session == Some(session) => Some(e),
                _ => None,
            })
            .collect();
        assert!(log.events_for(session).eq(want.into_iter().cloned()), "session {session}");
    }
}
