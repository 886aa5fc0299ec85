//! The hand-off of a recorded batch's events to the caller's sink.
//!
//! `run_batch` feeds the caller's sink from a drain thread of its own:
//! each worker hands its events over in batches through a bounded
//! queue. These tests pin what a sink sees through it — at one job the
//! very events, in the very order, that the same sessions emit with the
//! sink attached directly; at four jobs every session's events,
//! complete and in that session's order — and that a sink that panics
//! cannot leave the batch waiting on a full queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use inet::Addr;
use obs::{DecisionEvent, EventSink, ProbeEvent, Recorder, SinkHandle};
use probe::{IdentAllocator, IdentSpace, SharedNetwork};
use sweep::{run_batch, BatchConfig, SubnetCache};
use topogen::Scenario;
use tracenet::{Session, SubnetStore};

/// One event as the sink received it.
#[derive(Clone, Debug, PartialEq)]
enum Event {
    Probe(ProbeEvent),
    Decision(DecisionEvent),
}

impl Event {
    fn session(&self) -> Option<u64> {
        match self {
            Event::Probe(e) => e.session,
            Event::Decision(d) => d.session,
        }
    }
}

/// Keeps probes and decisions in one list, in the order they arrived.
#[derive(Clone, Default)]
struct Stream(Arc<Mutex<Vec<Event>>>);

impl Stream {
    fn events(&self) -> Vec<Event> {
        self.0.lock().expect("stream lock").clone()
    }
}

impl EventSink for Stream {
    fn emit(&mut self, event: &ProbeEvent) {
        self.0.lock().expect("stream lock").push(Event::Probe(event.clone()));
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        self.0.lock().expect("stream lock").push(Event::Decision(decision.clone()));
    }
}

fn scenario() -> (Scenario, Addr) {
    let sc = topogen::internet2(3);
    let vantage = sc.vantage("utdallas");
    (sc, vantage)
}

/// The sessions `run_batch` runs, one by one on this thread, with the
/// sink attached to their recorder directly.
fn direct(sc: &Scenario, vantage: Addr, cfg: &BatchConfig) -> Vec<Event> {
    let net = SharedNetwork::new(sc.topology.clone());
    let stream = Stream::default();
    let recorder = Recorder::new().with_sink(SinkHandle::new(stream.clone()));
    let block = IdentAllocator::new().block(IdentSpace::Tracenet, sc.targets.len());
    let store = cfg.use_cache.then(|| Arc::new(SubnetCache::new()) as Arc<dyn SubnetStore>);
    for (k, &target) in sc.targets.iter().enumerate() {
        let recorder = recorder.clone().with_session(k as u64);
        let prober = net
            .prober(vantage, cfg.protocol)
            .ident(block.get(k))
            .retry_policy(cfg.retry)
            .recorder(recorder.clone());
        let mut session = Session::new(prober, cfg.opts).with_recorder(recorder);
        if let Some(store) = &store {
            session = session.with_subnet_store(Arc::clone(store));
        }
        session.run(target);
    }
    stream.events()
}

/// `run_batch` over the scenario's targets into a fresh stream.
fn batched(sc: &Scenario, vantage: Addr, cfg: &BatchConfig) -> (Vec<Event>, sweep::BatchResult) {
    let net = SharedNetwork::new(sc.topology.clone());
    let stream = Stream::default();
    let recorder = Recorder::new().with_sink(SinkHandle::new(stream.clone()));
    let result = run_batch(&net, vantage, &sc.targets, cfg, &recorder);
    (stream.events(), result)
}

/// Session k's events, in the order the sink saw them, with the engine
/// clock masked: the clock is shared, so at more than one job its
/// readings depend on how the workers interleave.
fn of_session(events: &[Event], k: u64) -> Vec<Event> {
    let unclocked = |e: &Event| match e {
        Event::Probe(p) => Event::Probe(ProbeEvent { tick: 0, ..p.clone() }),
        Event::Decision(_) => e.clone(),
    };
    events.iter().filter(|e| e.session() == Some(k)).map(unclocked).collect()
}

#[test]
fn one_job_hands_the_sink_exactly_the_direct_stream() {
    let (sc, vantage) = scenario();
    let cfg = BatchConfig::default();
    let want = direct(&sc, vantage, &cfg);
    let (got, result) = batched(&sc, vantage, &cfg);
    assert!(want.len() > 4 * 1024, "the stream spans several batches ({} events)", want.len());
    assert_eq!(got.len(), want.len());
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!("event {i} differs:\n batched: {:?}\n  direct: {:?}", got[i], want[i]);
    }
    let probes = got.iter().filter(|e| matches!(e, Event::Probe(_))).count() as u64;
    assert_eq!(probes, result.probes);
}

#[test]
fn four_jobs_keep_every_session_whole_and_in_order() {
    let (sc, vantage) = scenario();
    // Without the cache no session depends on another, so each one's
    // events do not depend on the thread count either.
    let sequential = BatchConfig { use_cache: false, ..BatchConfig::default() };
    let want = direct(&sc, vantage, &sequential);
    let (got, result) = batched(&sc, vantage, &BatchConfig { jobs: 4, ..sequential });

    let probes = got.iter().filter(|e| matches!(e, Event::Probe(_))).count() as u64;
    assert_eq!(probes, result.probes, "one probe event per wire probe");
    assert_eq!(got.len(), want.len());
    for k in 0..sc.targets.len() as u64 {
        assert_eq!(of_session(&got, k), of_session(&want, k), "session {k}");
        // The clock only moves forward, so a session's own probes, in
        // the order the sink saw them, read it in increasing order.
        let ticks: Vec<u64> = got
            .iter()
            .filter_map(|e| match e {
                Event::Probe(p) if p.session == Some(k) => Some(p.tick),
                _ => None,
            })
            .collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "session {k} out of order: {ticks:?}");
    }
}

/// A sink that fails on the first probe it is handed.
struct Bomb;

impl EventSink for Bomb {
    fn emit(&mut self, _event: &ProbeEvent) {
        panic!("simulated sink failure");
    }
}

#[test]
fn a_panicking_sink_never_leaves_the_batch_waiting() {
    let (sc, vantage) = scenario();
    let (done, finished) = mpsc::channel();
    // The batch runs on a thread of its own, so a regression that hangs
    // it fails this test at the watchdog's deadline instead of stalling
    // the suite.
    std::thread::spawn(move || {
        let net = SharedNetwork::new(sc.topology.clone());
        let recorder = Recorder::new().with_sink(SinkHandle::new(Bomb));
        // Two workers produce far more batches than the queue holds.
        let cfg = BatchConfig { jobs: 2, use_cache: false, ..BatchConfig::default() };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_batch(&net, vantage, &sc.targets, &cfg, &recorder).reports.len()
        }));
        let _ = done.send(outcome.is_err());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        // Panicking and returning are both fine; only waiting is not.
        Ok(_panicked) => {}
        Err(_) => panic!("run_batch still runs a minute after its sink panicked"),
    }
}
