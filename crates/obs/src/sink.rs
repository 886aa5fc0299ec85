//! Event sinks: where probe events go.

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};

use crate::decision::DecisionEvent;
use crate::event::ProbeEvent;

/// A consumer of probe events.
///
/// Sinks receive every wire attempt a recorder-carrying prober makes.
/// Implementations should be cheap per call; expensive work belongs
/// behind buffering (see [`crate::ExchangeWriter`]).
///
/// Who calls a sink depends on the driver. A session run on its own
/// calls it from the probing thread, per event. `sweep::run_batch`
/// calls it from one drain thread of its own: the caller's thread and
/// `jobs − 1` helpers probe, and each hands its events over in batches
/// ([`SinkHandle::batching`], [`SinkHandle::feed`]). At one job the sink
/// sees the events in the order a plain loop emits them; at more, each
/// worker's events stay in order and the workers' batches interleave.
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

/// One event as a batch carries it: moved out of the recorder that
/// built it, not cloned.
#[derive(Debug)]
pub(crate) enum Recorded {
    Probe(ProbeEvent),
    Decision(DecisionEvent),
}

impl Recorded {
    fn feed(&self, sink: &mut dyn EventSink) {
        match self {
            Recorded::Probe(event) => sink.emit(event),
            Recorded::Decision(decision) => sink.emit_decision(decision),
        }
    }
}

/// Events one thread recorded through a [`SinkHandle::batching`]
/// handle, in the order it recorded them, on their way to
/// [`SinkHandle::feed`].
///
/// Dropped after it was fed, a batch goes back to the handle that
/// collected it, and that handle drops the events, on the thread that
/// built them, when it reuses the buffer. Memory one thread allocates is
/// then freed by the same thread: a drain thread that freed the events
/// itself would contend with the recording thread for its allocator.
#[derive(Debug)]
pub struct EventBatch {
    events: Vec<Recorded>,
    home: Sender<Vec<Recorded>>,
}

impl EventBatch {
    /// Events a batching handle collects before it sends them on.
    pub const CAPACITY: usize = 1024;
}

impl Drop for EventBatch {
    fn drop(&mut self) {
        // Once the handle is gone, the events are dropped here.
        let _ = self.home.send(std::mem::take(&mut self.events));
    }
}

/// What a [`SinkHandle::batching`] handle shares between its clones: the
/// batch being filled, where full batches go and how fed ones return.
struct Batcher {
    open: Mutex<Open>,
    home: Sender<Vec<Recorded>>,
    queue: SyncSender<EventBatch>,
}

/// The batch being filled, and the buffers of fed batches.
struct Open {
    events: Vec<Recorded>,
    fed: Receiver<Vec<Recorded>>,
}

impl Batcher {
    fn push(&self, event: Recorded) {
        let full = {
            // Nothing panics while the lock is held, but a poisoned
            // batch is still whole.
            let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
            open.events.push(event);
            if open.events.len() < EventBatch::CAPACITY {
                return;
            }
            // A fed batch's buffer, its events dropped here, or a new one.
            let next = match open.fed.try_recv() {
                Ok(mut events) => {
                    events.clear();
                    events
                }
                Err(_) => Vec::with_capacity(EventBatch::CAPACITY),
            };
            std::mem::replace(&mut open.events, next)
        };
        self.ship(full);
    }

    /// Ships the batch being filled, if it holds anything.
    fn ship_open(&self) {
        let open = {
            let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut open.events)
        };
        if !open.is_empty() {
            self.ship(open);
        }
    }

    /// Waits while the queue is full. A send fails only once the
    /// receiving end is gone; the batch's events are then dropped.
    fn ship(&self, events: Vec<Recorded>) {
        let _ = self.queue.send(EventBatch { events, home: self.home.clone() });
    }
}

impl Drop for Batcher {
    /// The last clone of the handle ships what is left, so the events of
    /// a thread that unwinds still arrive.
    fn drop(&mut self) {
        self.ship_open();
    }
}

/// A cloneable, shareable handle to an installed sink, to a batching
/// hand-off, or disabled.
///
/// This is the form probers carry: checking for the disabled state is
/// one test, and the event is only constructed when a sink is actually
/// present.
#[derive(Clone, Default)]
pub struct SinkHandle {
    inner: Inner,
}

#[derive(Clone, Default)]
enum Inner {
    #[default]
    Disabled,
    Sink(Arc<Mutex<dyn EventSink>>),
    Batching(Arc<Batcher>),
}

impl SinkHandle {
    /// A handle that records nothing and costs nothing.
    pub fn disabled() -> SinkHandle {
        SinkHandle::default()
    }

    /// Wraps a sink for sharing.
    pub fn new(sink: impl EventSink + 'static) -> SinkHandle {
        SinkHandle { inner: Inner::Sink(Arc::new(Mutex::new(sink))) }
    }

    /// A handle that feeds no sink itself: the events a
    /// [`Recorder`](crate::Recorder) records through it, and through its
    /// clones, move into one batch, which goes to `queue` each time it
    /// holds [`EventBatch::CAPACITY`] events. [`flush`](SinkHandle::flush),
    /// and dropping the last clone, send what is left. Whoever receives
    /// the batches feeds them to a sink ([`SinkHandle::feed`]).
    ///
    /// Meant for one thread: the clones share one batch behind a lock
    /// that only that thread takes. A send waits, outside the lock,
    /// while the queue is full.
    pub fn batching(queue: SyncSender<EventBatch>) -> SinkHandle {
        let (home, fed) = channel();
        let open = Open { events: Vec::with_capacity(EventBatch::CAPACITY), fed };
        let batcher = Batcher { open: Mutex::new(open), home, queue };
        SinkHandle { inner: Inner::Batching(Arc::new(batcher)) }
    }

    /// Whether a sink or a batching hand-off is installed.
    pub fn is_enabled(&self) -> bool {
        !matches!(self.inner, Inner::Disabled)
    }

    /// Sends one event to the sink, if any; a batching handle keeps it
    /// without a copy.
    pub(crate) fn send(&self, event: Recorded) {
        match &self.inner {
            Inner::Disabled => {}
            Inner::Sink(sink) => event.feed(&mut *sink.lock().expect("sink lock")),
            Inner::Batching(batcher) => batcher.push(event),
        }
    }

    /// Sends every event of `batch` to the sink, in order, under one
    /// lock.
    ///
    /// # Panics
    ///
    /// On a batching handle: batches are fed to a sink, never handed on.
    pub fn feed(&self, batch: EventBatch) {
        match &self.inner {
            Inner::Disabled => {}
            Inner::Sink(sink) => {
                let mut sink = sink.lock().expect("sink lock");
                for event in &batch.events {
                    event.feed(&mut *sink);
                }
            }
            Inner::Batching(_) => unreachable!("a batching handle is fed to no other"),
        }
    }

    /// Flushes the sink, if any. A batching handle sends the events it
    /// holds.
    pub fn flush(&self) -> io::Result<()> {
        match &self.inner {
            Inner::Disabled => Ok(()),
            Inner::Sink(sink) => sink.lock().expect("sink lock").flush(),
            Inner::Batching(batcher) => {
                batcher.ship_open();
                Ok(())
            }
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
        handle.send(Recorded::Probe(ev(1)));
        handle.send(Recorded::Probe(ev(2)));
        assert_eq!(reader.len(), 2);
        assert_eq!(reader.events()[1].ttl, 2);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = SinkHandle::disabled();
        assert!(!handle.is_enabled());
        handle.send(Recorded::Probe(ev(1)));
        handle.flush().unwrap();
    }

    #[test]
    fn vec_sink_stores_decisions_separately() {
        let sink = VecSink::new();
        let reader = sink.clone();
        let handle = SinkHandle::new(sink);
        handle.send(Recorded::Probe(ev(1)));
        handle.send(Recorded::Decision(decision()));
        assert_eq!(reader.len(), 1, "decisions do not count as probe events");
        assert_eq!(reader.decisions().len(), 1);
    }

    #[test]
    fn a_pair_feeds_both_sinks() {
        let (a, b) = (VecSink::new(), VecSink::new());
        let handle = SinkHandle::new((a.clone(), b.clone()));
        handle.send(Recorded::Probe(ev(1)));
        handle.send(Recorded::Decision(decision()));
        handle.flush().unwrap();
        for sink in [a, b] {
            assert_eq!(sink.events(), vec![ev(1)]);
            assert_eq!(sink.decisions(), vec![decision()]);
        }
    }

    #[test]
    fn a_batching_handle_sends_full_batches_and_the_rest_when_dropped() {
        let (queue, batches) = std::sync::mpsc::sync_channel(4);
        let handle = SinkHandle::batching(queue);
        let clone = handle.clone();
        let count = EventBatch::CAPACITY as u64 + 3;
        for tick in 0..count {
            clone.send(Recorded::Probe(ProbeEvent { tick, ..ev(1) }));
        }
        let sink = VecSink::new();
        let fed = SinkHandle::new(sink.clone());
        fed.feed(batches.try_recv().expect("one full batch"));
        assert_eq!(sink.len(), EventBatch::CAPACITY);
        assert!(batches.try_recv().is_err(), "the open batch stays while a clone lives");

        drop(clone);
        assert!(batches.try_recv().is_err());
        drop(handle);
        fed.feed(batches.try_recv().expect("the last clone sends the rest"));
        let ticks: Vec<u64> = sink.events().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, (0..count).collect::<Vec<_>>());
    }
}
