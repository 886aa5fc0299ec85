//! [`ReplayProber`]: re-answering a session from a recorded exchange log.
//!
//! The flight recorder (`obs::exchange`) captures every wire attempt a
//! session makes. Because [`Prober`](crate::Prober) implementations are
//! deterministic given the same call sequence, a session re-run against
//! the *recorded answers* — with no simulator behind it — must ask the
//! exact same questions in the exact same order and produce a
//! byte-identical `TraceReport`. [`ReplayProber`] enforces that contract:
//! it hands out recorded outcomes strictly in sequence and **records a
//! divergence report** the moment the replaying session asks for a probe
//! the original session did not send; every later probe times out, so
//! the session ends. A log is outside input, so nothing here panics on
//! it.
//!
//! A [`ReplayScript`] is built one event at a time, so a reader that
//! streams a log can build every session's script in one pass.
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
use obs::{ExchangeLog, ProbeEvent, ProbeOutcome, TimeoutCause};
use wire::Protocol;

use crate::prober::{ProbeStats, Prober};

/// One logical probe reconstructed from consecutive attempt events.
#[derive(Clone, Debug)]
struct LogicalProbe {
    dst: Addr,
    ttl: u8,
    flow: u16,
    /// Wire attempts the original prober spent (≥ 1).
    attempts: u64,
    /// Final outcome: the last attempt's.
    outcome: ProbeOutcome,
    /// Timeout attribution of the final attempt, if it was silent.
    cause: Option<TimeoutCause>,
}

/// One session's replay script, built as its probe events arrive in
/// recording order: consecutive attempts of one probe fold into one
/// logical probe. The first malformed event (a retry with no initial
/// send, a retry of another probe, or attempts out of order) is kept,
/// and the script then refuses to become a prober.
#[derive(Clone, Debug, Default)]
pub struct ReplayScript {
    probes: VecDeque<LogicalProbe>,
    /// Events pushed so far, for error messages.
    events: usize,
    error: Option<String>,
}

impl ReplayScript {
    /// Adds the session's next recorded event.
    pub fn push(&mut self, ev: &ProbeEvent) {
        self.events += 1;
        if self.error.is_none() {
            if let Err(e) = self.fold(ev) {
                self.error = Some(format!("event {}: {e}", self.events));
            }
        }
    }

    fn fold(&mut self, ev: &ProbeEvent) -> Result<(), String> {
        if ev.attempt == 0 {
            self.probes.push_back(LogicalProbe {
                dst: ev.dst,
                ttl: ev.ttl,
                flow: ev.flow,
                attempts: 1,
                outcome: ev.outcome,
                cause: ev.timeout_cause,
            });
            return Ok(());
        }
        let cur = self
            .probes
            .back_mut()
            .ok_or_else(|| format!("retry (attempt {}) with no initial send", ev.attempt))?;
        if (cur.dst, cur.ttl, cur.flow) != (ev.dst, ev.ttl, ev.flow) {
            return Err(format!(
                "retry targets {} ttl {} flow {} but the logical probe started as {} ttl {} \
                 flow {}",
                ev.dst, ev.ttl, ev.flow, cur.dst, cur.ttl, cur.flow
            ));
        }
        if ev.attempt as u64 != cur.attempts {
            return Err(format!("attempt {} out of order (expected {})", ev.attempt, cur.attempts));
        }
        cur.attempts += 1;
        cur.outcome = ev.outcome;
        cur.cause = ev.timeout_cause;
        Ok(())
    }

    /// A prober that answers from this script, probing from `src` with
    /// `protocol`, or the first malformed event's error.
    pub fn into_prober(self, src: Addr, protocol: Protocol) -> Result<ReplayProber, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(ReplayProber {
            src,
            protocol,
            script: self.probes,
            consumed: 0,
            divergence: None,
            stats: ProbeStats::default(),
        })
    }
}

/// A [`Prober`] that answers from a recorded probe-event sequence
/// instead of a network.
///
/// Divergence — the session asking for a probe that is not the next one
/// in the log, or probing past the end of the log — is kept as a message
/// naming the logical-probe index, what the log expected and what the
/// session asked (see [`divergence`](ReplayProber::divergence)). From
/// then on every probe times out, so the session ends.
pub struct ReplayProber {
    src: Addr,
    protocol: Protocol,
    script: VecDeque<LogicalProbe>,
    /// Logical probes consumed so far (for divergence messages).
    consumed: usize,
    divergence: Option<String>,
    stats: ProbeStats,
}

impl ReplayProber {
    /// Builds a replay prober from one session's events of an exchange
    /// log. `session` is the recorded session id ([`ProbeEvent::session`]);
    /// events carrying a different (or no) session tag are ignored.
    ///
    /// Fails on malformed logs: events out of attempt order, or attempt
    /// groups that change destination mid-way.
    pub fn for_session(log: &ExchangeLog<'_>, session: u64) -> Result<ReplayProber, String> {
        let mut script = ReplayScript::default();
        log.events_for(session).for_each(|ev| script.push(&ev));
        script.into_prober(log.header.vantage, log.header.protocol)
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

    /// Where the session first asked a probe the log did not record, if
    /// it did.
    pub fn divergence(&self) -> Option<&str> {
        self.divergence.as_deref()
    }
}

impl Prober for ReplayProber {
    fn src(&self) -> Addr {
        self.src
    }

    fn protocol(&self) -> Protocol {
        self.protocol
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        if self.divergence.is_some() {
            return ProbeOutcome::Timeout;
        }
        let n = self.consumed + 1;
        let recorded = match self.script.pop_front() {
            None => format!("the recorded log is exhausted after {} probes", self.consumed),
            Some(next) if (next.dst, next.ttl, next.flow) != (dst, ttl, flow) => {
                format!("the log recorded {} ttl {} flow {}", next.dst, next.ttl, next.flow)
            }
            Some(next) => {
                self.consumed += 1;
                self.stats.requests += 1;
                self.stats.sent += next.attempts;
                self.stats.retries += next.attempts - 1;
                self.stats.record(&next.outcome, next.cause);
                return next.outcome;
            }
        };
        self.divergence = Some(format!(
            "replay diverged at logical probe #{n}: session probed {dst} ttl {ttl} flow {flow}, \
             but {recorded}"
        ));
        ProbeOutcome::Timeout
    }

    fn stats(&self) -> ProbeStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn ev(dst: &str, ttl: u8, attempt: u8, outcome: ProbeOutcome) -> ProbeEvent {
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
            cause: None,
            timeout_cause: (outcome == ProbeOutcome::Timeout).then_some(TimeoutCause::ForwardLoss),
        }
    }

    fn from_events(events: impl IntoIterator<Item = ProbeEvent>) -> Result<ReplayProber, String> {
        let mut script = ReplayScript::default();
        events.into_iter().for_each(|ev| script.push(&ev));
        script.into_prober(a("10.0.0.1"), Protocol::Icmp)
    }

    #[test]
    fn replays_outcomes_in_sequence_and_reproduces_stats() {
        let events = [
            ev("10.0.0.9", 1, 0, ProbeOutcome::TtlExceeded { from: a("10.0.0.5") }),
            ev("10.0.0.9", 2, 0, ProbeOutcome::Timeout),
            ev("10.0.0.9", 2, 1, ProbeOutcome::Timeout),
            ev("10.0.0.9", 3, 0, ProbeOutcome::DirectReply { from: a("10.0.0.9") }),
        ];
        let mut p = from_events(events).unwrap();
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
    }

    #[test]
    fn unreachables_keep_their_flavour() {
        let unreachable =
            ProbeOutcome::Unreachable { from: a("10.0.0.7"), kind: obs::UnreachReason::Host };
        let e = ev("10.0.0.9", 4, 0, unreachable);
        let mut p = from_events([e]).unwrap();
        assert_eq!(p.probe(a("10.0.0.9"), 4), unreachable);
    }

    #[test]
    fn a_wrong_probe_is_kept_as_the_divergence_and_later_probes_time_out() {
        let events = [
            ev("10.0.0.9", 1, 0, ProbeOutcome::Timeout),
            ev("10.0.0.9", 2, 0, ProbeOutcome::DirectReply { from: a("10.0.0.9") }),
            ev("10.0.0.9", 3, 0, ProbeOutcome::DirectReply { from: a("10.0.0.9") }),
        ];
        let mut p = from_events(events).unwrap();
        let _ = p.probe(a("10.0.0.9"), 1);
        assert_eq!(p.divergence(), None);
        assert_eq!(p.probe(a("10.0.0.9"), 7), ProbeOutcome::Timeout, "the log says ttl 2");
        assert_eq!(
            p.divergence(),
            Some(
                "replay diverged at logical probe #2: session probed 10.0.0.9 ttl 7 flow 0, \
                 but the log recorded 10.0.0.9 ttl 2 flow 0"
            )
        );
        assert_eq!(p.probe(a("10.0.0.9"), 3), ProbeOutcome::Timeout, "the session is off script");
        assert!(p.divergence().unwrap().contains("#2"), "the first divergence is kept");
        assert_eq!(p.consumed(), 1);
        assert_eq!(p.stats().requests, 1);
    }

    #[test]
    fn probing_past_the_log_is_a_divergence() {
        let events = [ev("10.0.0.9", 1, 0, ProbeOutcome::Timeout)];
        let mut p = from_events(events).unwrap();
        let _ = p.probe(a("10.0.0.9"), 1);
        assert_eq!(p.probe(a("10.0.0.9"), 2), ProbeOutcome::Timeout);
        assert!(p.divergence().unwrap().ends_with("recorded log is exhausted after 1 probes"));
    }

    #[test]
    fn malformed_logs_are_rejected_up_front() {
        // Retry with no initial send.
        let orphan = [ev("10.0.0.9", 1, 1, ProbeOutcome::Timeout)];
        let err = from_events(orphan).err().expect("orphan retry must be rejected");
        assert!(err.contains("no initial send"), "{err}");

        // Attempt numbering gap.
        let gap = [
            ev("10.0.0.9", 1, 0, ProbeOutcome::Timeout),
            ev("10.0.0.9", 1, 2, ProbeOutcome::Timeout),
        ];
        let err = from_events(gap).err().expect("attempt gap must be rejected");
        assert!(err.contains("out of order"), "{err}");
    }
}
