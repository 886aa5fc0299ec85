//! The recorder: what a prober carries to report its wire attempts.

use std::sync::Arc;

use inet::Addr;

use crate::ctx;
use crate::decision::{DecisionEvent, DecisionVerdict};
use crate::event::{Cause, ProbeEvent};
use crate::metrics::Registry;
use crate::sink::SinkHandle;

/// Bundles an event sink and a metrics registry behind one cheap
/// enabled check.
///
/// Probers hold a `Recorder` and call [`Recorder::record`] once per
/// wire attempt, passing a closure that builds the event. When the
/// recorder is disabled (the default) the closure never runs, so the
/// instrumented hot path costs a single branch.
///
/// The recorder stamps each probe event with the thread's current
/// [`ctx`] cause — event-building closures leave `cause` as `None` — and
/// the event's phase follows from that cause. Decisions are built by
/// [`Recorder::decide`] from the attribution its caller names.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    sink: SinkHandle,
    metrics: Option<Arc<Registry>>,
    session: Option<u64>,
}

impl Recorder {
    /// A recorder that observes nothing; recording is a no-op.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Starts from a disabled recorder; chain [`Recorder::with_sink`] /
    /// [`Recorder::with_metrics`].
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Attaches an event sink.
    pub fn with_sink(mut self, sink: SinkHandle) -> Recorder {
        self.sink = sink;
        self
    }

    /// Attaches a metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Recorder {
        self.metrics = Some(metrics);
        self
    }

    /// Tags every event this recorder emits with a session (target
    /// index) id. Batch drivers clone the run's recorder once per
    /// target, so interleaved worker streams stay separable in the log.
    pub fn with_session(mut self, session: u64) -> Recorder {
        self.session = Some(session);
        self
    }

    /// Whether any observer is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled() || self.metrics.is_some()
    }

    /// Records one wire attempt. `build` runs only when an observer is
    /// attached; the recorder stamps the event with the thread's
    /// current cause before dispatching it.
    #[inline]
    pub fn record(&self, build: impl FnOnce() -> ProbeEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut event = build();
        event.cause = ctx::current();
        event.session = self.session;
        if let Some(metrics) = &self.metrics {
            metrics.record(&event);
        }
        self.sink.emit(&event);
    }

    /// Records one pipeline decision at trace hop `hop`: the step or
    /// heuristic that reached it, the address it is about, and what was
    /// concluded. The event, and with it the `evidence` text, is built
    /// only when a sink is attached, and carries this recorder's
    /// session. Decisions feed sinks only — the metrics registry counts
    /// wire traffic.
    #[inline]
    pub fn decide(
        &self,
        hop: u8,
        cause: Option<Cause>,
        subject: Option<Addr>,
        verdict: DecisionVerdict,
        evidence: impl FnOnce() -> String,
    ) {
        if !self.sink.is_enabled() {
            return;
        }
        let decision = DecisionEvent {
            session: self.session,
            hop,
            cause,
            subject,
            verdict,
            evidence: evidence(),
        };
        self.sink.emit_decision(&decision);
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Cause, Phase, ProbeOutcome};
    use crate::sink::VecSink;
    use wire::Protocol;

    fn ev() -> ProbeEvent {
        ProbeEvent {
            tick: 1,
            session: None,
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl: 5,
            protocol: Protocol::Udp,
            flow: 0,
            attempt: 0,
            outcome: ProbeOutcome::DirectReply { from: "10.0.9.6".parse().unwrap() },
            cause: None,
            timeout_cause: None,
        }
    }

    #[test]
    fn disabled_recorder_never_builds_the_event() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        recorder.record(|| unreachable!("closure must not run when disabled"));
    }

    #[test]
    fn record_stamps_attribution_and_feeds_both_observers() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let metrics = Arc::new(Registry::new());
        let recorder =
            Recorder::new().with_sink(SinkHandle::new(sink)).with_metrics(Arc::clone(&metrics));
        assert!(recorder.is_enabled());

        {
            let _c = crate::cause_scope(Cause::H3);
            recorder.record(ev);
        }
        recorder.record(ev);

        let events = reader.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase(), Some(Phase::Explore));
        assert_eq!(events[0].cause, Some(Cause::H3));
        assert_eq!(events[1].phase(), None);
        let snap = metrics.snapshot();
        assert_eq!(snap.sent_in(Phase::Explore), 1);
        assert_eq!(snap.sent_unattributed(), 1);
        assert_eq!(snap.sent_for(Cause::H3), 1);
    }

    #[test]
    fn metrics_only_recorder_counts_without_a_sink() {
        let metrics = Arc::new(Registry::new());
        let recorder = Recorder::new().with_metrics(Arc::clone(&metrics));
        recorder.record(ev);
        assert_eq!(metrics.snapshot().sent_total(), 1);
    }

    #[test]
    fn session_tag_stamps_probes_and_decisions() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let recorder = Recorder::new().with_sink(SinkHandle::new(sink)).with_session(5);

        recorder.record(ev);
        {
            let _c = crate::cause_scope(Cause::H2);
            recorder.decide(2, Some(Cause::OnPathCheck), None, DecisionVerdict::OnPath, || {
                "on path".to_string()
            });
        }

        assert_eq!(reader.events()[0].session, Some(5));
        let decisions = reader.decisions();
        assert_eq!(decisions[0].session, Some(5));
        assert_eq!(decisions[0].cause, Some(Cause::OnPathCheck), "the ambient cause is not read");
        assert_eq!(decisions[0].phase(), Some(Phase::Position));
        assert_eq!((decisions[0].hop, decisions[0].evidence.as_str()), (2, "on path"));
    }

    #[test]
    fn evidence_is_built_only_when_a_sink_records() {
        use std::cell::Cell;

        let built = Cell::new(0);
        let evidence = || {
            built.set(built.get() + 1);
            "mate expires".to_string()
        };
        let decide = |recorder: &Recorder| {
            recorder.decide(3, Some(Cause::H7), None, DecisionVerdict::StoppedAndShrunk, evidence)
        };
        decide(&Recorder::disabled());
        decide(&Recorder::new().with_metrics(Arc::new(Registry::new())));
        assert_eq!(built.get(), 0, "no sink, so no evidence is formatted");

        let sink = VecSink::new();
        decide(&Recorder::new().with_sink(SinkHandle::new(sink.clone())));
        assert_eq!(built.get(), 1);
        assert_eq!(sink.decisions()[0].evidence, "mate expires");
    }
}
