//! [`ReplayProber`]: re-answering a session from a recorded exchange log.
//!
//! The flight recorder (`obs::exchange`) captures every wire attempt a
//! session makes. Because [`Prober`](crate::Prober) implementations are
//! deterministic given the same call sequence, a session re-run against
//! the *recorded answers* — with no simulator behind it — must ask the
//! exact same questions in the exact same order and produce a
//! byte-identical `TraceReport`. [`ReplayProber`] enforces that contract:
//! it hands out recorded outcomes strictly in sequence and **panics with
//! a divergence report** the moment the replaying session asks for a
//! probe the original session did not send.
//!
//! Retries are collapsed: the recorder logs one event per wire attempt
//! (`attempt` 0, 1, …), and the replaying session issues one *logical*
//! probe per `(dst, ttl, flow)`. The replay prober therefore replays a
//! whole attempt group at once, inflating [`ProbeStats`] as the original
//! prober would have (`sent += attempts`, `retries += attempts − 1`) so
//! probe accounting — including the fault-budget trip logic that rides
//! on `fault_timeouts()` — reproduces exactly.

use std::collections::VecDeque;

use inet::Addr;
use obs::{ExchangeLog, ProbeEvent, TimeoutCause};
use wire::Protocol;

use crate::outcome::ProbeOutcome;
use crate::prober::{ProbeStats, Prober};

/// One logical probe reconstructed from consecutive attempt events.
#[derive(Clone, Debug)]
struct LogicalProbe {
    dst: Addr,
    ttl: u8,
    flow: u16,
    /// Wire attempts the original prober spent (≥ 1).
    attempts: u64,
    /// Final outcome, rebuilt from the last attempt's event.
    outcome: ProbeOutcome,
    /// Timeout attribution of the final attempt, if it was silent.
    cause: Option<TimeoutCause>,
    /// Network clock at the last attempt.
    tick: u64,
}

/// A [`Prober`] that answers from a recorded probe-event sequence
/// instead of a network.
///
/// Divergence — the session asking for a probe that is not the next one
/// in the log, or probing past the end of the log — is a **panic**, with
/// a message naming the logical-probe index, what the log expected and
/// what the session asked. Callers that want a readable error (the
/// `tnet replay` command) catch the unwind.
pub struct ReplayProber {
    src: Addr,
    protocol: Protocol,
    script: VecDeque<LogicalProbe>,
    /// Logical probes consumed so far (for divergence messages).
    consumed: usize,
    stats: ProbeStats,
    tick: u64,
}

impl ReplayProber {
    /// Builds a replay prober from one session's events of an exchange
    /// log. `session` is the recorded session id ([`ProbeEvent::session`]);
    /// events carrying a different (or no) session tag are ignored.
    ///
    /// Fails on malformed logs: events out of attempt order, attempt
    /// groups that change destination mid-way, replies without a source
    /// address, or unreachables without a recorded flavour.
    pub fn for_session(log: &ExchangeLog<'_>, session: u64) -> Result<ReplayProber, String> {
        Self::from_events(log.header.vantage, log.header.protocol, log.events_for(session))
    }

    /// Builds a replay prober from an explicit event sequence (already
    /// filtered to one session, in recording order).
    pub fn from_events(
        src: Addr,
        protocol: Protocol,
        events: impl IntoIterator<Item = ProbeEvent>,
    ) -> Result<ReplayProber, String> {
        let mut script: VecDeque<LogicalProbe> = VecDeque::new();
        for (i, ev) in events.into_iter().enumerate() {
            let outcome = outcome_of(&ev).map_err(|e| format!("event {}: {e}", i + 1))?;
            if ev.attempt == 0 {
                script.push_back(LogicalProbe {
                    dst: ev.dst,
                    ttl: ev.ttl,
                    flow: ev.flow,
                    attempts: 1,
                    outcome,
                    cause: ev.timeout_cause,
                    tick: ev.tick,
                });
            } else {
                let cur = script.back_mut().ok_or_else(|| {
                    format!("event {}: retry (attempt {}) with no initial send", i + 1, ev.attempt)
                })?;
                if (cur.dst, cur.ttl, cur.flow) != (ev.dst, ev.ttl, ev.flow) {
                    return Err(format!(
                        "event {}: retry targets {} ttl {} flow {} but the logical probe \
                         started as {} ttl {} flow {}",
                        i + 1,
                        ev.dst,
                        ev.ttl,
                        ev.flow,
                        cur.dst,
                        cur.ttl,
                        cur.flow
                    ));
                }
                if ev.attempt as u64 != cur.attempts {
                    return Err(format!(
                        "event {}: attempt {} out of order (expected {})",
                        i + 1,
                        ev.attempt,
                        cur.attempts
                    ));
                }
                cur.attempts += 1;
                cur.outcome = outcome;
                cur.cause = ev.timeout_cause;
                cur.tick = ev.tick;
            }
        }
        Ok(ReplayProber {
            src,
            protocol,
            script,
            consumed: 0,
            stats: ProbeStats::default(),
            tick: 0,
        })
    }

    /// Logical probes not yet consumed. A faithful replay drains the
    /// script completely; a nonzero remainder after the session finishes
    /// is a divergence (the replay asked *fewer* questions).
    pub fn remaining(&self) -> usize {
        self.script.len()
    }

    /// Logical probes consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

/// Rebuilds the prober-level outcome from a logged attempt.
fn outcome_of(ev: &ProbeEvent) -> Result<ProbeOutcome, String> {
    let from = |ev: &ProbeEvent| {
        ev.from.ok_or_else(|| format!("{:?} outcome without a source address", ev.outcome))
    };
    Ok(match ev.outcome {
        obs::Outcome::DirectReply => ProbeOutcome::DirectReply { from: from(ev)? },
        obs::Outcome::TtlExceeded => ProbeOutcome::TtlExceeded { from: from(ev)? },
        obs::Outcome::Unreachable => ProbeOutcome::Unreachable {
            from: from(ev)?,
            kind: ev.unreach.ok_or("unreachable outcome without a recorded flavour")?,
        },
        obs::Outcome::Timeout => ProbeOutcome::Timeout,
    })
}

impl Prober for ReplayProber {
    fn src(&self) -> Addr {
        self.src
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        let next = match self.script.pop_front() {
            Some(p) => p,
            None => panic!(
                "replay diverged at logical probe #{}: session probed {dst} ttl {ttl} \
                 flow {flow}, but the recorded log is exhausted after {} probes",
                self.consumed + 1,
                self.consumed
            ),
        };
        if (next.dst, next.ttl, next.flow) != (dst, ttl, flow) {
            panic!(
                "replay diverged at logical probe #{}: session probed {dst} ttl {ttl} \
                 flow {flow}, but the log recorded {} ttl {} flow {}",
                self.consumed + 1,
                next.dst,
                next.ttl,
                next.flow
            );
        }
        self.consumed += 1;
        self.tick = next.tick;
        self.stats.requests += 1;
        self.stats.sent += next.attempts;
        self.stats.retries += next.attempts - 1;
        self.stats.record(&next.outcome, next.cause);
        next.outcome
    }

    fn stats(&self) -> ProbeStats {
        self.stats
    }

    fn clock(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Outcome;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn ev(dst: &str, ttl: u8, attempt: u8, outcome: Outcome, from: Option<&str>) -> ProbeEvent {
        ProbeEvent {
            tick: 10 + attempt as u64,
            session: Some(0),
            vantage: a("10.0.0.1"),
            dst: a(dst),
            ttl,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt,
            outcome,
            from: from.map(a),
            phase: None,
            cause: None,
            timeout_cause: (outcome == Outcome::Timeout).then_some(TimeoutCause::ForwardLoss),
            unreach: None,
        }
    }

    #[test]
    fn replays_outcomes_in_sequence_and_reproduces_stats() {
        let events = [
            ev("10.0.0.9", 1, 0, Outcome::TtlExceeded, Some("10.0.0.5")),
            ev("10.0.0.9", 2, 0, Outcome::Timeout, None),
            ev("10.0.0.9", 2, 1, Outcome::Timeout, None),
            ev("10.0.0.9", 3, 0, Outcome::DirectReply, Some("10.0.0.9")),
        ];
        let mut p = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, events).unwrap();
        assert_eq!(p.remaining(), 3, "the two attempts at ttl 2 collapse into one probe");
        assert_eq!(p.probe(a("10.0.0.9"), 1), ProbeOutcome::TtlExceeded { from: a("10.0.0.5") });
        assert_eq!(p.probe(a("10.0.0.9"), 2), ProbeOutcome::Timeout);
        assert_eq!(p.probe(a("10.0.0.9"), 3), ProbeOutcome::DirectReply { from: a("10.0.0.9") });
        assert_eq!(p.remaining(), 0);
        let s = p.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.sent, 4, "the retried probe counts both wire attempts");
        assert_eq!(s.retries, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.timeouts_loss, 1, "fault attribution survives the replay");
        assert_eq!(s.last_fault_cause, Some(TimeoutCause::ForwardLoss));
        assert_eq!(p.clock(), 10, "clock tracks the last consumed event's tick");
    }

    #[test]
    fn unreachables_keep_their_flavour() {
        let mut e = ev("10.0.0.9", 4, 0, Outcome::Unreachable, Some("10.0.0.7"));
        e.unreach = Some(obs::UnreachReason::Host);
        let mut p = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, [e]).unwrap();
        assert_eq!(
            p.probe(a("10.0.0.9"), 4),
            ProbeOutcome::Unreachable { from: a("10.0.0.7"), kind: obs::UnreachReason::Host }
        );
    }

    #[test]
    #[should_panic(expected = "replay diverged at logical probe #2")]
    fn wrong_probe_is_a_divergence_panic() {
        let events = [
            ev("10.0.0.9", 1, 0, Outcome::Timeout, None),
            ev("10.0.0.9", 2, 0, Outcome::Timeout, None),
        ];
        let mut p = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, events).unwrap();
        let _ = p.probe(a("10.0.0.9"), 1);
        let _ = p.probe(a("10.0.0.9"), 7); // log says ttl 2
    }

    #[test]
    #[should_panic(expected = "recorded log is exhausted")]
    fn probing_past_the_log_panics() {
        let events = [ev("10.0.0.9", 1, 0, Outcome::Timeout, None)];
        let mut p = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, events).unwrap();
        let _ = p.probe(a("10.0.0.9"), 1);
        let _ = p.probe(a("10.0.0.9"), 2);
    }

    #[test]
    fn malformed_logs_are_rejected_up_front() {
        // Retry with no initial send.
        let orphan = [ev("10.0.0.9", 1, 1, Outcome::Timeout, None)];
        let err = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, orphan)
            .err()
            .expect("orphan retry must be rejected");
        assert!(err.contains("no initial send"), "{err}");

        // Reply without a source address.
        let bare = [ev("10.0.0.9", 1, 0, Outcome::DirectReply, None)];
        let err = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, bare)
            .err()
            .expect("sourceless reply must be rejected");
        assert!(err.contains("without a source address"), "{err}");

        // Attempt numbering gap.
        let gap = [
            ev("10.0.0.9", 1, 0, Outcome::Timeout, None),
            ev("10.0.0.9", 1, 2, Outcome::Timeout, None),
        ];
        let err = ReplayProber::from_events(a("10.0.0.1"), Protocol::Icmp, gap)
            .err()
            .expect("attempt gap must be rejected");
        assert!(err.contains("out of order"), "{err}");
    }
}
