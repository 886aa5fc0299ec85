//! Event sinks: where probe events go.

use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex};

use crate::decision::DecisionEvent;
use crate::event::ProbeEvent;

/// A consumer of probe events.
///
/// Sinks receive every wire attempt a recorder-carrying prober makes.
/// Implementations should be cheap per call; expensive work belongs
/// behind buffering (see [`JsonlSink`]).
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &ProbeEvent);

    /// Consumes one decision event. Defaults to a no-op: most sinks
    /// (including [`JsonlSink`], whose probe-log format promises one
    /// line per wire probe) only care about wire traffic. The exchange
    /// log overrides this to interleave decisions with probes.
    fn emit_decision(&mut self, _decision: &DecisionEvent) {}

    /// Flushes any buffered output; called at session boundaries.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drops every event. Useful to exercise the recording path with no
/// observable output (e.g. overhead measurements).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _event: &ProbeEvent) {}
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

/// Streams events as JSON lines — one [`ProbeEvent::write_line`]
/// object per line — through a buffered writer.
pub struct JsonlSink<W: Write + Send> {
    writer: BufWriter<W>,
    /// Scratch buffer each line is rendered into.
    line: String,
    lines: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { writer: BufWriter::new(writer), line: String::new(), lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl JsonlSink<std::fs::File> {
    /// Creates (truncating) a JSONL file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&mut self, event: &ProbeEvent) {
        // An unwritable log should not take the collection session down;
        // errors surface at flush time via the CLI's explicit flush.
        self.line.clear();
        event.write_line(&mut self.line);
        self.line.push('\n');
        let _ = self.writer.write_all(self.line.as_bytes());
        self.lines += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
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
    use crate::event::{Outcome, Phase, ProbeEvent};
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
            outcome: Outcome::DirectReply,
            from: None,
            phase: Some(Phase::Trace),
            cause: None,
            timeout_cause: None,
            unreach: None,
        }
    }

    fn decision() -> DecisionEvent {
        DecisionEvent {
            session: None,
            hop: 1,
            phase: Some(Phase::Explore),
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
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&ev(3));
        sink.emit(&ev(7));
        assert_eq!(sink.lines(), 2);
        sink.flush().unwrap();
        let bytes = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<ProbeEvent> =
            text.lines().map(|l| ProbeEvent::read_line(l).unwrap()).collect();
        assert_eq!(parsed, vec![ev(3), ev(7)]);
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
    fn jsonl_sink_ignores_decisions_keeping_one_line_per_probe() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&ev(3));
        sink.emit_decision(&decision());
        assert_eq!(sink.lines(), 1);
    }
}
