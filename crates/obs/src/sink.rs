//! Event sinks: where probe events go.

use std::io;
use std::sync::{Arc, Mutex};

use crate::decision::DecisionEvent;
use crate::event::ProbeEvent;

/// A consumer of probe events.
///
/// Sinks receive every wire attempt a recorder-carrying prober makes.
/// Implementations should be cheap per call; expensive work belongs
/// behind buffering (see [`crate::ExchangeWriter`]).
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &ProbeEvent);

    /// Consumes one decision event. Defaults to a no-op, for sinks that
    /// only care about wire traffic. The exchange log overrides this to
    /// interleave decisions with probes.
    fn emit_decision(&mut self, _decision: &DecisionEvent) {}

    /// Flushes any buffered output. Nothing calls it per session, only
    /// [`crate::Recorder::flush`], which a driver calls once after its
    /// run.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects events in memory behind a shared handle — the test sink.
///
/// Cloning shares the underlying buffer, so a test can keep one clone
/// and hand the other to a [`SinkHandle`]:
///
/// ```
/// use obs::{ProbeEvent, VecSink, EventSink};
/// let sink = VecSink::new();
/// let reader = sink.clone();
/// // ... install `sink`, run a session ...
/// assert_eq!(reader.events().len(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<ProbeEvent>>>,
    decisions: Arc<Mutex<Vec<DecisionEvent>>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Snapshot of everything collected so far.
    pub fn events(&self) -> Vec<ProbeEvent> {
        self.events.lock().expect("VecSink lock").clone()
    }

    /// Snapshot of the decisions collected so far.
    pub fn decisions(&self) -> Vec<DecisionEvent> {
        self.decisions.lock().expect("VecSink lock").clone()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("VecSink lock").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, event: &ProbeEvent) {
        self.events.lock().expect("VecSink lock").push(event.clone());
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        self.decisions.lock().expect("VecSink lock").push(decision.clone());
    }
}

/// Feeds every event to both sinks, first `.0` then `.1`: an exchange
/// log and the `-v` text, say.
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    fn emit(&mut self, event: &ProbeEvent) {
        self.0.emit(event);
        self.1.emit(event);
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        self.0.emit_decision(decision);
        self.1.emit_decision(decision);
    }

    fn flush(&mut self) -> io::Result<()> {
        let first = self.0.flush();
        self.1.flush().and(first)
    }
}

/// A cloneable, shareable handle to an installed sink, or disabled.
///
/// This is the form probers carry: checking for the disabled state is
/// one `Option` test, and the event is only constructed when a sink is
/// actually present.
#[derive(Clone, Default)]
pub struct SinkHandle {
    inner: Option<Arc<Mutex<dyn EventSink>>>,
}

impl SinkHandle {
    /// A handle that records nothing and costs nothing.
    pub fn disabled() -> SinkHandle {
        SinkHandle::default()
    }

    /// Wraps a sink for sharing.
    pub fn new(sink: impl EventSink + 'static) -> SinkHandle {
        SinkHandle { inner: Some(Arc::new(Mutex::new(sink))) }
    }

    /// Whether a sink is installed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sends one event to the sink, if any.
    pub fn emit(&self, event: &ProbeEvent) {
        if let Some(sink) = &self.inner {
            sink.lock().expect("sink lock").emit(event);
        }
    }

    /// Sends one decision to the sink, if any.
    pub fn emit_decision(&self, decision: &DecisionEvent) {
        if let Some(sink) = &self.inner {
            sink.lock().expect("sink lock").emit_decision(decision);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) -> io::Result<()> {
        match &self.inner {
            Some(sink) => sink.lock().expect("sink lock").flush(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkHandle").field("enabled", &self.is_enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ProbeEvent, ProbeOutcome};
    use wire::Protocol;

    fn ev(ttl: u8) -> ProbeEvent {
        ProbeEvent {
            tick: ttl as u64,
            session: None,
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt: 0,
            outcome: ProbeOutcome::DirectReply { from: "10.0.9.6".parse().unwrap() },
            cause: None,
            timeout_cause: None,
        }
    }

    fn decision() -> DecisionEvent {
        DecisionEvent {
            session: None,
            hop: 1,
            cause: None,
            subject: None,
            verdict: crate::decision::DecisionVerdict::Collected,
            evidence: "done".into(),
        }
    }

    #[test]
    fn vec_sink_shares_its_buffer() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let handle = SinkHandle::new(sink);
        assert!(handle.is_enabled());
        handle.emit(&ev(1));
        handle.emit(&ev(2));
        assert_eq!(reader.len(), 2);
        assert_eq!(reader.events()[1].ttl, 2);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = SinkHandle::disabled();
        assert!(!handle.is_enabled());
        handle.emit(&ev(1));
        handle.flush().unwrap();
    }

    #[test]
    fn vec_sink_stores_decisions_separately() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let handle = SinkHandle::new(sink);
        handle.emit(&ev(1));
        handle.emit_decision(&decision());
        assert_eq!(reader.len(), 1, "decisions do not count as probe events");
        assert_eq!(reader.decisions().len(), 1);
    }

    #[test]
    fn a_pair_feeds_both_sinks() {
        let (a, b) = (VecSink::new(), VecSink::new());
        let handle = SinkHandle::new((a.clone(), b.clone()));
        handle.emit(&ev(1));
        handle.emit_decision(&decision());
        handle.flush().unwrap();
        for sink in [a, b] {
            assert_eq!(sink.events(), vec![ev(1)]);
            assert_eq!(sink.decisions(), vec![decision()]);
        }
    }
}
