//! The three workloads on the 4-ISP internet: their set-up, one timed
//! collection each, and the checks every collection passes.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use evalkit::CollectedSet;
use inet::Addr;
use netsim::{ConcurrentNetwork, RoutingTable};
use obs::{ExchangeHeader, ExchangeLog, ExchangeSink, ExchangeWriter, Recorder, SinkHandle};
use probe::{Protocol, ReplayProber, SharedNetwork};
use serde_json::{json, Value};
use sweep::BatchConfig;
use topogen::{GroundTruth, Scenario};
use tracenet::{PhaseCost, Session, TraceReport, TracenetOptions};

use crate::check;
use crate::sys;
use crate::traced::{self, Layer, SessionSpec, SessionTrace, TimedSink};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `sweep::run_batch` with the default configuration (cache on).
    Batch,
    /// The same batch with the cache off and every exchange recorded.
    Record,
    /// Parse a recorded log and re-run every session from it.
    Replay,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::Record, Workload::Replay];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "isp-batch",
            Workload::Record => "isp-record",
            Workload::Replay => "isp-replay",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The 4-ISP internet of `seed`, rendered as a scenario file.
pub fn isp_scenario_json(seed: u64) -> String {
    topogen::io::to_json(&topogen::isp_internet(seed))
}

/// The order the workload issues its targets in: a permutation of the
/// scenario's target list drawn from the workload seed.
fn permute(targets: &[Addr], seed: u64) -> Vec<Addr> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out = targets.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    out
}

/// The batch configuration `tracenet batch` runs by default, at `jobs`.
pub fn batch_config(jobs: usize) -> BatchConfig {
    BatchConfig { jobs, ..BatchConfig::default() }
}

/// The batch configuration `tracenet record` forces: cache off.
pub fn record_config(jobs: usize) -> BatchConfig {
    BatchConfig { jobs, use_cache: false, ..BatchConfig::default() }
}

/// An in-memory buffer the exchange writer writes into, shared so the
/// bytes can be taken out after the writer flushed.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Takes everything written so far.
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("buffer lock"))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

type SharedWriter = Arc<Mutex<ExchangeWriter<SharedBuf>>>;

fn exchange_writer(buf: &SharedBuf, vantage: Addr, targets: &[Addr], jobs: usize) -> SharedWriter {
    let header = ExchangeHeader {
        version: obs::FORMAT_VERSION,
        vantage,
        protocol: Protocol::Icmp,
        targets: targets.to_vec(),
        jobs: jobs as u64,
        // Replays here always run the default options.
        options: Value::Null,
    };
    let writer = ExchangeWriter::new(buf.clone(), &header).expect("in-memory writes cannot fail");
    Arc::new(Mutex::new(writer))
}

fn cost_json(c: &PhaseCost) -> Value {
    json!({ "trace": c.trace, "position": c.position, "explore": c.explore, "total": c.total() })
}

/// A report rendered the way `tracenet record` writes report lines; the
/// replay check compares these renderings byte for byte.
fn report_json(r: &TraceReport) -> Value {
    json!({
        "vantage": r.vantage.to_string(),
        "destination": r.destination.to_string(),
        "reached": r.destination_reached,
        "probes": r.total_probes,
        "completeness": r.completeness().label(),
        "aborted": r.aborted,
        "cost": cost_json(&r.phase_totals()),
        "hops": r.hops.iter().map(|h| json!({
            "cost": cost_json(&h.cost),
            "hop": h.hop,
            "completeness": h.completeness.label(),
            "addr": h.addr.map(|a| a.to_string()),
            "subnet": h.subnet.as_ref().map(|s| json!({
                "prefix": s.record.prefix().to_string(),
                "members": s.record.members().iter().map(|m| m.to_string()).collect::<Vec<_>>(),
                "pivot": s.pivot.to_string(),
                "contra_pivot": s.contra_pivot.map(|c| c.to_string()),
                "on_path": s.on_path,
            })),
        })).collect::<Vec<_>>(),
    })
}

/// A recorded exchange log held in memory.
pub struct Recording {
    /// The log text.
    pub text: String,
    /// Wire probes the recorded run sent.
    pub wire_probes: u64,
}

/// Everything a collection needs, built from the scenario file.
pub struct Setup {
    /// The network, routing computed.
    pub net: SharedNetwork,
    /// The first vantage of the scenario.
    pub vantage: Addr,
    /// The targets, in workload order.
    pub targets: Vec<Addr>,
    /// Ground truth to check the output against.
    pub truth: GroundTruth,
    /// The recorded log (`isp-replay` only).
    pub log: Option<Recording>,
}

/// What a traced set-up measured on its own.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupLayers {
    /// `topogen::io::from_json`, seconds.
    pub load_s: f64,
    /// `RoutingTable::compute`, seconds (when asked for).
    pub routing_s: Option<f64>,
    /// Resident-memory growth across that call, MiB.
    pub routing_rss_mb: Option<f64>,
}

/// Loads the scenario, builds the network and — for `isp-replay` —
/// records the batch at jobs=1 with the cache off into memory. With
/// `time_routing`, `RoutingTable::compute` also runs once on its own so
/// its time and memory can be reported.
pub fn setup(
    workload: Workload,
    scenario_json: &str,
    seed: u64,
    time_routing: bool,
) -> Result<(Setup, SetupLayers), String> {
    let t = Instant::now();
    let scenario = topogen::io::from_json(scenario_json).map_err(|e| format!("scenario: {e}"))?;
    let mut layers = SetupLayers { load_s: t.elapsed().as_secs_f64(), ..SetupLayers::default() };
    let Scenario { topology, vantages, targets, ground_truth, .. } = scenario;
    let vantage = vantages.first().map(|&(_, a)| a).ok_or("scenario has no vantage")?;
    if time_routing {
        let rss = sys::rss_mb();
        let t = Instant::now();
        let table = RoutingTable::compute(&topology);
        layers.routing_s = Some(t.elapsed().as_secs_f64());
        layers.routing_rss_mb = Some(sys::rss_mb() - rss);
        drop(std::hint::black_box(table));
    }
    let net = SharedNetwork::from_concurrent(ConcurrentNetwork::new(topology));
    let targets = permute(&targets, seed);
    let log = (workload == Workload::Replay).then(|| record_log(&net, vantage, &targets));
    Ok((Setup { net, vantage, targets, truth: ground_truth, log }, layers))
}

fn record_log(net: &SharedNetwork, vantage: Addr, targets: &[Addr]) -> Recording {
    let buf = SharedBuf::default();
    let writer = exchange_writer(&buf, vantage, targets, 1);
    let recorder =
        Recorder::new().with_sink(SinkHandle::new(ExchangeSink::new(Arc::clone(&writer))));
    let result = sweep::run_batch(net, vantage, targets, &record_config(1), &recorder);
    let mut w = writer.lock().expect("exchange writer lock");
    for (k, report) in result.reports.iter().enumerate() {
        w.write_report(k as u64, &report_json(report));
    }
    w.flush().expect("in-memory writes cannot fail");
    drop(w);
    let text = String::from_utf8(buf.take()).expect("exchange logs are UTF-8");
    Recording { text, wire_probes: result.probes }
}

/// One timed collection and what its checks found.
#[derive(Clone, Debug, Default)]
pub struct Collection {
    /// The timed part, seconds.
    pub collect_s: f64,
    /// Wire probes (replayed logical probes for `isp-replay`).
    pub probes: u64,
    /// Distinct prefixes collected.
    pub subnets: usize,
    /// Exact-match rate against ground truth, percent.
    pub exact_match_pct: f64,
    /// Sessions attempted.
    pub sessions: u64,
    /// Sessions that failed a check.
    pub failed: u64,
    /// Check failures, one line each.
    pub problems: Vec<String>,
    /// Exchange-log bytes written (`isp-record`).
    pub log_bytes: usize,
    /// `ExchangeLog::parse`, seconds (`isp-replay`).
    pub parse_s: f64,
    /// Total time in `ReplayProber::for_session`, seconds (`isp-replay`).
    pub script_s: f64,
}

/// Collects once. With `tracer`, the benchmark's traced driver runs
/// instead of the program's own and its spans go to the tracer.
pub fn collect(
    setup: &Setup,
    workload: Workload,
    jobs: usize,
    tracer: Option<&mut Tracer>,
) -> Collection {
    match workload {
        Workload::Batch => collect_batch(setup, &batch_config(jobs), tracer, None),
        Workload::Record => {
            let buf = SharedBuf::default();
            collect_batch(setup, &record_config(jobs), tracer, Some(&buf))
        }
        Workload::Replay => collect_replay(setup, tracer),
    }
}

fn collect_batch(
    setup: &Setup,
    cfg: &BatchConfig,
    tracer: Option<&mut Tracer>,
    log: Option<&SharedBuf>,
) -> Collection {
    let recorder = match log {
        None => Recorder::disabled(),
        Some(buf) => {
            let sink =
                ExchangeSink::new(exchange_writer(buf, setup.vantage, &setup.targets, cfg.jobs));
            let handle = if tracer.is_some() {
                SinkHandle::new(TimedSink(sink))
            } else {
                SinkHandle::new(sink)
            };
            Recorder::new().with_sink(handle)
        }
    };
    let t = Instant::now();
    let (reports, probes, sessions) = if tracer.is_some() {
        let traced =
            traced::run_batch_traced(&setup.net, setup.vantage, &setup.targets, cfg, &recorder);
        (traced.reports, traced.probes, traced.sessions)
    } else {
        let result = sweep::run_batch(&setup.net, setup.vantage, &setup.targets, cfg, &recorder);
        (result.reports, result.probes, Vec::new())
    };
    let flushed = recorder.flush();
    let collect_s = t.elapsed().as_secs_f64();
    if let Some(tracer) = tracer {
        tracer.add(sessions, cfg.jobs, collect_s);
    }
    let mut c = checked(setup, &reports, probes, collect_s);
    if let Err(e) = flushed {
        c.problems.push(format!("exchange log flush: {e}"));
    }
    if let Some(buf) = log {
        let bytes = buf.take();
        let lines = check::probe_lines(&bytes);
        if lines != probes {
            c.failed = c.sessions;
            c.problems.push(format!("exchange log has {lines} probe lines for {probes} probes"));
        }
        c.log_bytes = bytes.len();
    }
    c
}

/// Runs one replay session, isolating a divergence panic.
fn replay_session(
    prober: &mut ReplayProber,
    opts: TracenetOptions,
    target: Addr,
) -> Result<TraceReport, String> {
    catch_unwind(AssertUnwindSafe(|| Session::new(&mut *prober, opts).run(target)))
        .map_err(|panic| traced::panic_message(panic.as_ref()))
}

fn collect_replay(setup: &Setup, tracer: Option<&mut Tracer>) -> Collection {
    let rec = setup.log.as_ref().expect("the isp-replay set-up records a log");
    let opts = TracenetOptions::default();
    let started = Instant::now();
    let log = match ExchangeLog::parse(&rec.text) {
        Ok(log) => log,
        Err(e) => {
            let n = setup.targets.len() as u64;
            let problems = vec![format!("exchange log does not parse: {e}")];
            return Collection { sessions: n, failed: n, problems, ..Collection::default() };
        }
    };
    let parse_s = started.elapsed().as_secs_f64();
    let (mut script_s, mut sessions_s) = (0.0, 0.0);
    let mut reports = Vec::with_capacity(log.header.targets.len());
    let mut traces = Vec::new();
    let (mut probes, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    for (k, &target) in log.header.targets.iter().enumerate() {
        let session = k as u64;
        let t = Instant::now();
        let prober = ReplayProber::for_session(&log, session);
        script_s += t.elapsed().as_secs_f64();
        let mut prober = match prober {
            Ok(p) => p,
            Err(e) => {
                problems.push(format!("session {session}: {e}"));
                reports.push(traced::aborted(log.header.vantage, target));
                continue;
            }
        };
        let t = Instant::now();
        let replayed = if tracer.is_none() {
            replay_session(&mut prober, opts, target)
        } else {
            let recorder = Recorder::disabled();
            let spec = SessionSpec {
                session,
                worker: 0,
                target,
                opts,
                store: None,
                recorder: &recorder,
                ident: 0,
            };
            let (report, trace) = traced::traced_session(&mut prober, Layer::ReplayCall, spec);
            traces.push(trace);
            report
        };
        sessions_s += t.elapsed().as_secs_f64();
        let recorded = log.report_for(session).map(Value::to_string);
        match replayed {
            Err(e) => {
                problems.push(format!("session {session} ({target}) diverged: {e}"));
                reports.push(traced::aborted(log.header.vantage, target));
            }
            Ok(report) => {
                probes += prober.consumed() as u64;
                if recorded != Some(report_json(&report).to_string()) {
                    failed += 1;
                    problems.push(format!("session {session} ({target}): report differs"));
                } else if prober.remaining() != 0 {
                    failed += 1;
                    problems.push(format!(
                        "session {session} ({target}): {} recorded probes never re-asked",
                        prober.remaining()
                    ));
                }
                reports.push(report);
            }
        }
    }
    let collect_s = parse_s + script_s + sessions_s;
    if let Some(tracer) = tracer {
        tracer.add(traces, 1, collect_s);
    }
    // Diverged sessions left aborted reports, which `checked` counts.
    let mut c = checked(setup, &reports, probes, collect_s);
    c.failed = (c.failed + failed).min(c.sessions);
    c.problems.extend(problems);
    c.parse_s = parse_s;
    c.script_s = script_s;
    c.log_bytes = rec.text.len();
    c
}

/// Runs the output checks on one collection's reports.
fn checked(setup: &Setup, reports: &[TraceReport], probes: u64, collect_s: f64) -> Collection {
    let sessions = setup.targets.len() as u64;
    let (failed, mut problems) = check::failed_sessions(reports, &setup.targets);
    let mut collected = CollectedSet::default();
    for r in reports {
        collected.add_report(r);
    }
    let invented = check::invented_prefixes(&collected, &setup.truth);
    for p in &invented {
        problems.push(format!("collected {p}, which overlaps no ground-truth subnet"));
    }
    let failed =
        failed + reports.iter().filter(|r| invented.iter().any(|&p| collects(r, p))).count() as u64;
    Collection {
        collect_s,
        probes,
        subnets: collected.prefixes().len(),
        exact_match_pct: check::exact_match_pct(&collected, &setup.truth),
        sessions,
        failed: failed.min(sessions),
        problems,
        ..Collection::default()
    }
}

fn collects(report: &TraceReport, prefix: inet::Prefix) -> bool {
    report.subnets().any(|s| s.record.prefix() == prefix)
}

/// Span storage of a traced run: samples pooled over every traced
/// collection, the last collection's session traces (the ones written
/// out and re-issued), and each collection's busy share.
#[derive(Default)]
pub struct Tracer {
    /// Pooled span samples.
    pub samples: traced::LayerSamples,
    /// The last traced collection's sessions.
    pub last: Vec<SessionTrace>,
    /// Σ session time / (jobs × collection wall time), per collection.
    pub busy: Vec<f64>,
}

impl Tracer {
    fn add(&mut self, sessions: Vec<SessionTrace>, jobs: usize, wall_s: f64) {
        let busy_ns: f64 = sessions.iter().map(|s| f64::from(s.span.dur_ns)).sum();
        self.busy.push(busy_ns / 1e9 / (jobs.max(1) as f64 * wall_s));
        self.samples.add(&sessions);
        self.last = sessions;
    }
}
