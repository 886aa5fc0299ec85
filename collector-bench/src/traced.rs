//! The traced run: timing wrappers around the collector's public seams
//! (`Prober`, `SubnetStore`, `EventSink`), a session driver that mirrors
//! `sweep::run_batch` with those wrappers installed, and the single-threaded
//! re-issue of a run's probe stream through `wire` and `netsim`.
//!
//! Spans live in memory: each worker thread appends to a thread-local
//! buffer that its session takes when it returns, so recording a span
//! takes no lock. Every span of one session shares the session id; a
//! session span is the parent of the call spans recorded while it ran.

use std::cell::RefCell;
use std::hint::black_box;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use inet::Addr;
use obs::{DecisionEvent, EventSink, ProbeEvent, Recorder};
use probe::{ProbeOutcome, ProbeStats, Prober, Protocol, SharedNetwork};
use sweep::{BatchConfig, IdentAllocator, IdentSpace, SubnetCache};
use tracenet::{CacheLookup, ObservedSubnet, Session, SubnetStore, TraceReport, TracenetOptions};
use wire::{builder, Packet};

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Session::run` (core), the parent of every other span.
    Session,
    /// `Prober::probe_with_flow` on the simulator-backed prober (probe).
    ProbeCall,
    /// `Prober::probe_with_flow` on a `ReplayProber` (probe).
    ReplayCall,
    /// `SubnetStore::lookup` (sweep).
    Lookup,
    /// `SubnetStore::admit` (sweep).
    Admit,
    /// `EventSink::emit` (obs).
    Emit,
    /// `EventSink::emit_decision` (obs).
    Decision,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 7] = [
        Layer::Session,
        Layer::ProbeCall,
        Layer::ReplayCall,
        Layer::Lookup,
        Layer::Admit,
        Layer::Emit,
        Layer::Decision,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Session => "core.session",
            Layer::ProbeCall => "probe.call",
            Layer::ReplayCall => "probe.replay_call",
            Layer::Lookup => "sweep.lookup",
            Layer::Admit => "sweep.admit",
            Layer::Emit => "obs.emit",
            Layer::Decision => "obs.emit_decision",
        }
    }
}

/// One timed call. `a` and `b` are counts taken at the same boundary:
/// for probe calls the wire attempts and the silent ones among them, for
/// lookups `a = 1` on a hit.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Where the span was recorded.
    pub layer: Layer,
    /// First count (see the type docs).
    pub a: u8,
    /// Second count (see the type docs).
    pub b: u8,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (saturating).
    pub dur_ns: u32,
}

/// One wire-level logical probe of a session, kept for the re-issue.
#[derive(Clone, Copy, Debug)]
pub struct WireCall {
    /// Destination.
    pub dst: Addr,
    /// TTL.
    pub ttl: u8,
    /// Wire attempts the prober spent on it.
    pub attempts: u8,
}

/// Everything recorded while one session ran.
#[derive(Clone, Debug)]
pub struct SessionTrace {
    /// Session id (target index).
    pub session: u64,
    /// Worker thread that ran it.
    pub worker: usize,
    /// The session span itself.
    pub span: Span,
    /// Child spans, in recording order.
    pub children: Vec<Span>,
    /// The session's probe ident (the re-issue rebuilds its packets).
    pub ident: u16,
    /// The logical probes it sent, in order.
    pub calls: Vec<WireCall>,
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn span(layer: Layer, start: Instant, dur: Duration, a: u8, b: u8) -> Span {
    Span {
        layer,
        a,
        b,
        start_ns: u64::try_from(start.saturating_duration_since(epoch()).as_nanos())
            .unwrap_or(u64::MAX),
        dur_ns: u32::try_from(dur.as_nanos()).unwrap_or(u32::MAX),
    }
}

fn record(layer: Layer, start: Instant, dur: Duration, a: u8, b: u8) {
    let s = span(layer, start, dur, a, b);
    SPANS.with(|spans| spans.borrow_mut().push(s));
}

fn take_spans() -> Vec<Span> {
    SPANS.with(|spans| std::mem::take(&mut *spans.borrow_mut()))
}

/// A [`Prober`] that times every call of the prober it wraps.
pub struct TimedProber<P> {
    inner: P,
    layer: Layer,
    calls: Vec<WireCall>,
}

impl<P: Prober> TimedProber<P> {
    /// Wraps `inner`, recording its calls as `layer` spans.
    pub fn new(inner: P, layer: Layer) -> TimedProber<P> {
        TimedProber { inner, layer, calls: Vec::new() }
    }
}

impl<P: Prober> Prober for TimedProber<P> {
    fn src(&self) -> Addr {
        self.inner.src()
    }

    fn protocol(&self) -> Protocol {
        self.inner.protocol()
    }

    fn probe_with_flow(&mut self, dst: Addr, ttl: u8, flow: u16) -> ProbeOutcome {
        let sent = self.inner.stats().sent;
        let start = Instant::now();
        let outcome = self.inner.probe_with_flow(dst, ttl, flow);
        let dur = start.elapsed();
        let attempts = u8::try_from(self.inner.stats().sent - sent).unwrap_or(u8::MAX);
        let silent = if outcome == ProbeOutcome::Timeout { attempts } else { attempts - 1 };
        record(self.layer, start, dur, attempts, silent);
        self.calls.push(WireCall { dst, ttl, attempts });
        outcome
    }

    fn stats(&self) -> ProbeStats {
        self.inner.stats()
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }
}

/// A [`SubnetStore`] that times every lookup and admit of the store it
/// wraps.
pub struct TimedStore<S>(pub S);

impl<S: SubnetStore> SubnetStore for TimedStore<S> {
    fn lookup(&self, prev: Option<Addr>, v: Addr, d: u8) -> CacheLookup {
        let start = Instant::now();
        let found = self.0.lookup(prev, v, d);
        let dur = start.elapsed();
        record(Layer::Lookup, start, dur, u8::from(matches!(found, CacheLookup::Hit(_))), 0);
        found
    }

    fn admit(&self, prev: Option<Addr>, v: Addr, d: u8, outcome: Option<&ObservedSubnet>) {
        let start = Instant::now();
        self.0.admit(prev, v, d, outcome);
        record(Layer::Admit, start, start.elapsed(), 0, 0);
    }
}

/// An [`EventSink`] that times every emit of the sink it wraps.
pub struct TimedSink<S>(pub S);

impl<S: EventSink> EventSink for TimedSink<S> {
    fn emit(&mut self, event: &ProbeEvent) {
        let start = Instant::now();
        self.0.emit(event);
        record(Layer::Emit, start, start.elapsed(), 0, 0);
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        let start = Instant::now();
        self.0.emit_decision(decision);
        record(Layer::Decision, start, start.elapsed(), 0, 0);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// The message a panicking session left.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "session panicked".to_string()
    }
}

/// The sentinel report the batch driver substitutes for a session that
/// panicked.
pub fn aborted(vantage: Addr, target: Addr) -> TraceReport {
    TraceReport {
        vantage,
        destination: target,
        destination_reached: false,
        hops: Vec::new(),
        total_probes: 0,
        cache_hits: 0,
        aborted: true,
    }
}

/// Everything one traced session needs besides its prober.
pub struct SessionSpec<'a> {
    /// Session id (target index).
    pub session: u64,
    /// Worker thread running it.
    pub worker: usize,
    /// The target.
    pub target: Addr,
    /// Collection options.
    pub opts: TracenetOptions,
    /// Cross-session store, if any.
    pub store: Option<&'a Arc<dyn SubnetStore>>,
    /// Session recorder (already tagged with the session id).
    pub recorder: &'a Recorder,
    /// The probe ident, for the re-issue.
    pub ident: u16,
}

/// Runs one session over `prober` with every seam timed, isolating a
/// panic the way the batch driver does. Returns the report (or the panic
/// message) and the session's trace.
pub fn traced_session<P: Prober>(
    prober: P,
    layer: Layer,
    spec: SessionSpec<'_>,
) -> (Result<TraceReport, String>, SessionTrace) {
    let mut timed = TimedProber::new(prober, layer);
    let mut session = Session::new(&mut timed, spec.opts).with_recorder(spec.recorder.clone());
    if let Some(store) = spec.store {
        session = session.with_subnet_store(Arc::clone(store));
    }
    take_spans();
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| session.run(spec.target)))
        .map_err(|panic| panic_message(panic.as_ref()));
    let dur = start.elapsed();
    let trace = SessionTrace {
        session: spec.session,
        worker: spec.worker,
        span: span(Layer::Session, start, dur, 0, 0),
        children: take_spans(),
        ident: spec.ident,
        calls: timed.calls,
    };
    (report, trace)
}

/// What the traced session driver produced.
pub struct TracedBatch {
    /// One report per target, in target order.
    pub reports: Vec<TraceReport>,
    /// Total wire probes.
    pub probes: u64,
    /// One trace per session, in target order.
    pub sessions: Vec<SessionTrace>,
}

/// The benchmark's own session driver: `sweep::run_batch` step for step
/// (closed loop of `cfg.jobs` workers, allocator idents, one shared
/// cache, panic isolation, target-order merge) with the prober, the
/// store and — through `recorder` — the sink timed.
pub fn run_batch_traced(
    net: &SharedNetwork,
    vantage: Addr,
    targets: &[Addr],
    cfg: &BatchConfig,
    recorder: &Recorder,
) -> TracedBatch {
    let store: Option<Arc<dyn SubnetStore>> =
        cfg.use_cache.then(|| Arc::new(TimedStore(SubnetCache::new())) as Arc<dyn SubnetStore>);
    let block = IdentAllocator::new().block(IdentSpace::Tracenet, targets.len());
    let jobs = cfg.jobs.clamp(1, targets.len().max(1));
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(targets.len()));
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let (next, done, store, block) = (&next, &done, &store, &block);
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&target) = targets.get(k) else { break };
                let recorder = recorder.clone().with_session(k as u64);
                let ident = block.get(k);
                let prober = net
                    .prober(vantage, cfg.protocol)
                    .ident(ident)
                    .rtt(cfg.probe_rtt)
                    .retry_policy(cfg.retry)
                    .recorder(recorder.clone());
                let spec = SessionSpec {
                    session: k as u64,
                    worker,
                    target,
                    opts: cfg.opts,
                    store: store.as_ref(),
                    recorder: &recorder,
                    ident,
                };
                let (report, trace) = traced_session(prober, Layer::ProbeCall, spec);
                let report = report.unwrap_or_else(|_| aborted(vantage, target));
                done.lock()
                    .expect("a worker panicked outside its session")
                    .push((k, report, trace));
            });
        }
    });
    let mut done = done.into_inner().expect("a worker panicked outside its session");
    done.sort_by_key(|(k, _, _)| *k);
    let probes = done.iter().map(|(_, r, _)| r.total_probes).sum();
    let (reports, sessions) = done.into_iter().map(|(_, r, t)| (r, t)).unzip();
    TracedBatch { reports, probes, sessions }
}

/// Mean per-packet cost of the layers below the prober, from
/// re-issuing a run's probe stream single-threaded.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reissue {
    /// `builder::icmp_probe` + `Packet::encode`, ns per packet.
    pub encode_ns: f64,
    /// `Packet::decode` of the probe bytes, ns per packet.
    pub decode_ns: f64,
    /// `ConcurrentNetwork::inject_bytes` (which decodes the bytes
    /// itself), ns per packet.
    pub inject_ns: f64,
}

/// Rebuilds every wire packet the traced sessions sent (same ident and
/// sequence numbers as the prober used) and times encoding, decoding and
/// injection in separate passes per session, on one thread.
pub fn reissue(net: &SharedNetwork, src: Addr, sessions: &[SessionTrace]) -> Reissue {
    let (mut encode, mut decode, mut inject) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut packets = 0u64;
    for s in sessions {
        let mut seq = 0u16;
        let wire: Vec<(Addr, u8, u16)> = s
            .calls
            .iter()
            .flat_map(|c| std::iter::repeat_n((c.dst, c.ttl), usize::from(c.attempts)))
            .map(|(dst, ttl)| {
                seq = seq.wrapping_add(1);
                (dst, ttl, seq)
            })
            .collect();
        let t = Instant::now();
        let bytes: Vec<Vec<u8>> = wire
            .iter()
            .map(|&(dst, ttl, seq)| builder::icmp_probe(src, dst, ttl, s.ident, seq).encode())
            .collect();
        encode += t.elapsed();
        let t = Instant::now();
        for b in &bytes {
            black_box(Packet::decode(black_box(b)).is_ok());
        }
        decode += t.elapsed();
        let t = Instant::now();
        net.with(|n| {
            for b in &bytes {
                black_box(n.inject_bytes(black_box(b)));
            }
        });
        inject += t.elapsed();
        packets += bytes.len() as u64;
    }
    let per = |d: Duration| if packets == 0 { 0.0 } else { d.as_nanos() as f64 / packets as f64 };
    Reissue { encode_ns: per(encode), decode_ns: per(decode), inject_ns: per(inject) }
}

/// Pooled span samples of every traced collection of a run.
#[derive(Debug, Default)]
pub struct LayerSamples {
    durations: [Vec<u32>; Layer::ALL.len()],
    a: [u64; Layer::ALL.len()],
    b: [u64; Layer::ALL.len()],
}

impl LayerSamples {
    /// Folds one collection's session traces in.
    pub fn add(&mut self, sessions: &[SessionTrace]) {
        for s in sessions {
            for span in std::iter::once(&s.span).chain(&s.children) {
                let i = span.layer as usize;
                self.durations[i].push(span.dur_ns);
                self.a[i] += u64::from(span.a);
                self.b[i] += u64::from(span.b);
            }
        }
    }

    /// Every duration recorded at `layer`, in ns.
    pub fn durations(&self, layer: Layer) -> &[u32] {
        &self.durations[layer as usize]
    }

    /// Number of spans at `layer`.
    pub fn count(&self, layer: Layer) -> u64 {
        self.durations[layer as usize].len() as u64
    }

    /// Total time at `layer`, ns.
    pub fn total_ns(&self, layer: Layer) -> f64 {
        self.durations[layer as usize].iter().map(|&d| d as f64).sum()
    }

    /// Sum of the first count at `layer`.
    pub fn a(&self, layer: Layer) -> u64 {
        self.a[layer as usize]
    }

    /// Sum of the second count at `layer`.
    pub fn b(&self, layer: Layer) -> u64 {
        self.b[layer as usize]
    }
}

/// Writes the spans of one collection as tab-separated lines:
/// `session worker parent layer start_ns dur_ns a b`, where `parent` is
/// the session span's layer for call spans and `-` for session spans.
pub fn write_spans(out: &mut impl io::Write, sessions: &[SessionTrace]) -> io::Result<()> {
    writeln!(out, "session\tworker\tparent\tlayer\tstart_ns\tdur_ns\ta\tb")?;
    for s in sessions {
        let line = |out: &mut dyn io::Write, parent: &str, span: &Span| {
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.session,
                s.worker,
                span.layer.name(),
                span.start_ns,
                span.dur_ns,
                span.a,
                span.b
            )
        };
        line(out, "-", &s.span)?;
        for child in &s.children {
            line(out, Layer::Session.name(), child)?;
        }
    }
    Ok(())
}
