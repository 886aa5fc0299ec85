//! One benchmark run of one workload: repeated set-ups, the measured
//! loop of collections, and the metrics computed from them.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Value};

use crate::stats::{median, quantile_of, Summary};
use crate::sys;
use crate::traced::{self, Layer};
use crate::workload::{self, Collection, Setup, Tracer, Workload};

/// How one run is configured.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the order targets are issued in.
    pub seed: u64,
    /// Seed of the 4-ISP internet.
    pub scenario_seed: u64,
    /// How long the measured loop runs, seconds.
    pub seconds: f64,
    /// Batch workers.
    pub jobs: usize,
    /// Set-ups per run, spread over the measured window (`setup_s` is
    /// their median).
    pub setups: usize,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// For timings: the distribution the value summarizes.
    pub summary: Option<Summary>,
    /// Whether the metric goes into the result line (and so is gated).
    pub gated: bool,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value, summary: None, gated: true }
}

fn timing(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples);
    Metric { name, unit, value: summary.median, summary: Some(summary), gated: true }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The configuration it ran with.
    pub config: Config,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Sessions attempted across all collections.
    pub attempted: u64,
    /// Sessions that failed a check.
    pub failed: u64,
    /// Check failures, one line each.
    pub problems: Vec<String>,
    /// The last traced collection's spans (empty for an untraced run).
    pub spans: Vec<traced::SessionTrace>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Failed sessions as a share of attempted ones, percent.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The stamp every output of this run carries.
    pub fn stamp(&self) -> Value {
        let c = &self.config;
        json!({
            "workload": c.workload.name(),
            "trace": c.trace,
            "nproc": sys::nproc(),
            "profile": sys::profile(),
            "revision": sys::git_revision(),
            "seed": c.seed,
            "scenario_seed": c.scenario_seed,
            "jobs": c.jobs,
            "setups": c.setups,
            "seconds": c.seconds,
        })
    }

    /// The human-readable table: stamp line, one line per metric (with
    /// median, sample count and tail for timings), then the checks.
    pub fn human(&self) -> String {
        let c = &self.config;
        let mut out = format!(
            "# {} {}: nproc={} profile={} revision={} seed={} scenario_seed={} jobs={}\n",
            c.workload.name(),
            if c.trace { "traced" } else { "end-to-end" },
            sys::nproc(),
            sys::profile(),
            sys::git_revision(),
            c.seed,
            c.scenario_seed,
            c.jobs,
        );
        let failed = Metric { gated: false, ..metric("failed_pct", "%", self.failed_pct()) };
        for m in self.metrics.iter().chain(std::iter::once(&failed)) {
            let detail = m.summary.map(|s| s.describe(m.unit)).unwrap_or_default();
            let _ = writeln!(out, "  {:<24} {:>16.6} {:<6} {detail}", m.name, m.value, m.unit);
        }
        let _ = writeln!(out, "  {} of {} sessions failed", self.failed, self.attempted);
        if self.correct() {
            out.push_str("  checks: all passed\n");
        } else {
            for p in self.problems.iter().take(20) {
                let _ = writeln!(out, "  check failed: {p}");
            }
        }
        out
    }

    /// The run as JSON: stamp, counts, and every metric with its
    /// distribution.
    pub fn to_json(&self) -> Value {
        let metrics: Vec<Value> = self
            .metrics
            .iter()
            .map(|m| {
                let s = m.summary;
                json!({
                    "name": m.name,
                    "unit": m.unit,
                    "gated": m.gated,
                    "value": finite(m.value),
                    "median": s.map(|s| finite(s.median)),
                    "n": s.map(|s| s.n as u64),
                    "tail_percentile": s.and_then(|s| s.tail).map(|t| t.0),
                    "tail": s.and_then(|s| s.tail).map(|t| finite(t.1)),
                })
            })
            .collect();
        json!({
            "stamp": self.stamp(),
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_pct": self.failed_pct(),
            "problems": self.problems.clone(),
            "metrics": metrics,
        })
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The final result line over one or more runs. Metric names are
/// prefixed with the workload when more than one workload ran.
pub fn result_line(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in r.metrics.iter().filter(|m| m.gated) {
            let name = if prefix {
                format!("{}/{}", r.config.workload.name(), m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                finite(m.value),
                m.unit
            ));
        }
    }
    let correct =
        reports.iter().all(|r| r.correct() && r.metrics.iter().all(|m| m.value.is_finite()));
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn field(collections: &[Collection], f: impl Fn(&Collection) -> f64) -> Vec<f64> {
    collections.iter().map(f).collect()
}

/// Runs `config` on the scenario file `scenario_json`.
pub fn run(config: &Config, scenario_json: &str) -> Result<Report, String> {
    if config.trace {
        run_traced(config, scenario_json)
    } else {
        run_plain(config, scenario_json)
    }
}

/// What the measured window produced besides the collections.
struct Rounds {
    /// Each set-up's duration, seconds.
    setup_s: Vec<f64>,
    /// Each set-up's layer timings.
    layers: Vec<workload::SetupLayers>,
    /// The last set-up (the re-issue runs on its network).
    last: Setup,
    /// Peak resident memory at the end of the first round, MiB.
    first_round_peak_rss_mb: f64,
}

/// Runs `config.setups` rounds that together take `config.seconds`. Each
/// round sets up afresh (dropping the previous set-up first, so one is
/// alive at a time, as in one `tracenet` process), then calls `collect`
/// on it, at least once, until its share of the window has passed. Hosts
/// change speed in phases lasting seconds; spreading the set-ups over the
/// window lets `setup_s` see the same phases as `collect_s`. Recorded
/// logs must be identical across set-ups.
fn rounds(
    config: &Config,
    scenario_json: &str,
    problems: &mut Vec<String>,
    mut collect: impl FnMut(&Setup),
) -> Result<Rounds, String> {
    let count = config.setups.max(1);
    let slice = config.seconds / count as f64;
    let mut kept: Option<Setup> = None;
    let mut log_digest = None;
    let (mut setup_s, mut layers) = (Vec::new(), Vec::new());
    let time_routing = config.trace && config.workload != Workload::Replay;
    let mut first_round_peak_rss_mb = 0.0;
    for round in 0..count {
        drop(kept.take());
        let t = Instant::now();
        let (setup, l) =
            workload::setup(config.workload, scenario_json, config.seed, time_routing)?;
        setup_s.push(t.elapsed().as_secs_f64());
        layers.push(l);
        if let Some(log) = &setup.log {
            let digest = digest(&log.text);
            if log_digest.is_some_and(|d| d != digest) {
                problems.push("two recordings of the same batch at jobs=1 differ".into());
            }
            log_digest = Some(digest);
        }
        loop {
            collect(&setup);
            if t.elapsed().as_secs_f64() >= slice {
                break;
            }
        }
        if round == 0 {
            // Later rounds reuse freed heap, so their peak depends on
            // fragmentation; the first round is one process's lifetime.
            first_round_peak_rss_mb = sys::peak_rss_mb();
        }
        kept = Some(setup);
    }
    let last = kept.expect("at least one set-up");
    Ok(Rounds { setup_s, layers, last, first_round_peak_rss_mb })
}

fn digest(text: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

fn run_plain(config: &Config, scenario_json: &str) -> Result<Report, String> {
    let mut problems = Vec::new();
    let mut cs = Vec::new();
    let Rounds { setup_s, first_round_peak_rss_mb, .. } =
        rounds(config, scenario_json, &mut problems, |setup| {
            cs.push(workload::collect(setup, config.workload, config.jobs, None))
        })?;
    // Printed, not gated: on a host whose speed drifts by up to 1.8x in
    // phases of seconds, collection times of ten runs spread by 0.12-0.34
    // (interquartile range over median), past the largest bound a gate
    // may have. `setup_s` is gated on its median instead.
    let collect = Metric { gated: false, ..timing("collect_s", "s", &field(&cs, |c| c.collect_s)) };
    let subnets = field(&cs, |c| c.subnets as f64);
    if subnets.contains(&0.0) {
        problems.push("a collection collected no subnet".into());
    }
    // Printed, not gated, like `collect_s`.
    let wall = Metric { gated: false, ..metric("wall_s", "s", median(&setup_s) + collect.value) };
    let metrics = vec![
        timing("setup_s", "s", &setup_s),
        collect,
        wall,
        // Printed, not gated, like `collect_s`.
        Metric {
            gated: false,
            ..timing("probes_per_s", "1/s", &field(&cs, |c| c.probes as f64 / c.collect_s))
        },
        metric("probes", "count", median(&field(&cs, |c| c.probes as f64))),
        metric(
            "probes_per_subnet",
            "count",
            median(&field(&cs, |c| c.probes as f64 / c.subnets.max(1) as f64)),
        ),
        metric("subnets", "count", median(&subnets)),
        metric("exact_match_pct", "%", median(&field(&cs, |c| c.exact_match_pct))),
        metric("peak_rss_mb", "MB", first_round_peak_rss_mb),
    ];
    Ok(finish(config, metrics, &cs, problems))
}

fn finish(
    config: &Config,
    metrics: Vec<Metric>,
    cs: &[Collection],
    mut problems: Vec<String>,
) -> Report {
    for c in cs {
        problems.extend(c.problems.iter().cloned());
    }
    Report {
        config: *config,
        metrics,
        attempted: cs.iter().map(|c| c.sessions).sum(),
        failed: cs.iter().map(|c| c.failed).sum(),
        problems,
        spans: Vec::new(),
    }
}

fn run_traced(config: &Config, scenario_json: &str) -> Result<Report, String> {
    let mut problems = Vec::new();
    let mut tracer = Tracer::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Untraced and traced collections alternate, so both see the same
    // host phases.
    let Rounds { layers, last: setup, .. } =
        rounds(config, scenario_json, &mut problems, |setup| {
            plain.push(workload::collect(setup, config.workload, config.jobs, None));
            traced.push(workload::collect(setup, config.workload, config.jobs, Some(&mut tracer)));
        })?;
    let wire = config.workload != Workload::Replay;
    let reissue = if wire {
        traced::reissue(&setup.net, setup.vantage, &tracer.last)
    } else {
        traced::Reissue::default()
    };
    let s = &tracer.samples;
    let ns = |l: Layer| s.durations(l).iter().map(|&d| f64::from(d)).collect::<Vec<f64>>();
    let ms = |l: Layer| ns(l).into_iter().map(|d| d / 1e6).collect::<Vec<f64>>();
    let pct = |part: f64, whole: f64| if whole > 0.0 { 100.0 * part / whole } else { 0.0 };

    let calls = s.count(Layer::ProbeCall) as f64;
    let attempts = s.a(Layer::ProbeCall) as f64;
    let self_ns = if calls > 0.0 {
        s.total_ns(Layer::ProbeCall) / calls
            - attempts / calls * (reissue.encode_ns + reissue.inject_ns)
    } else {
        0.0
    };
    let session_ns = s.total_ns(Layer::Session);
    let below_session =
        [Layer::ProbeCall, Layer::ReplayCall, Layer::Lookup, Layer::Admit, Layer::Decision]
            .iter()
            .map(|&l| s.total_ns(l))
            .sum::<f64>();
    // Converted once: a traced batch run pools millions of call spans.
    let call_ns = ns(Layer::ProbeCall);
    let session_ms = ms(Layer::Session);
    let mut emits = ns(Layer::Emit);
    emits.extend(ns(Layer::Decision));
    let bytes_per_probe = match config.workload {
        Workload::Batch => 0.0,
        Workload::Record => median(&field(&plain, |c| c.log_bytes as f64 / c.probes.max(1) as f64)),
        Workload::Replay => {
            setup.log.as_ref().map_or(0.0, |r| r.text.len() as f64 / r.wire_probes.max(1) as f64)
        }
    };
    let routing: Vec<f64> = layers.iter().filter_map(|l| l.routing_s).collect();
    let overhead =
        median(&field(&traced, |c| c.collect_s)) / median(&field(&plain, |c| c.collect_s));
    let replay_only = |f: fn(&Collection) -> f64| {
        if wire {
            Vec::new()
        } else {
            field(&traced, f)
        }
    };

    let metrics = vec![
        timing("topogen.load_s", "s", &layers.iter().map(|l| l.load_s).collect::<Vec<_>>()),
        timing("netsim.routing_s", "s", &routing),
        metric("netsim.routing_rss_mb", "MB", layers[0].routing_rss_mb.unwrap_or(0.0)),
        metric("netsim.inject_ns", "ns", reissue.inject_ns),
        metric("netsim.silent_pct", "%", pct(s.b(Layer::ProbeCall) as f64, attempts)),
        metric("wire.encode_ns", "ns", reissue.encode_ns),
        metric("wire.decode_ns", "ns", reissue.decode_ns),
        timing("probe.call_ns", "ns", &call_ns),
        metric("probe.call_p99_ns", "ns", quantile_of(&call_ns, 0.99)),
        metric("probe.self_ns", "ns", self_ns),
        metric(
            "probe.retry_pct",
            "%",
            if calls > 0.0 { pct(attempts - calls, calls) } else { 0.0 },
        ),
        timing("probe.replay_call_ns", "ns", &ns(Layer::ReplayCall)),
        timing("core.session_p50_ms", "ms", &session_ms),
        metric("core.session_p99_ms", "ms", quantile_of(&session_ms, 0.99)),
        metric("core.self_pct", "%", pct(session_ns - below_session, session_ns)),
        timing("sweep.lookup_ns", "ns", &ns(Layer::Lookup)),
        timing("sweep.admit_ns", "ns", &ns(Layer::Admit)),
        metric("sweep.hit_pct", "%", pct(s.a(Layer::Lookup) as f64, s.count(Layer::Lookup) as f64)),
        metric("sweep.busy_pct", "%", if wire { 100.0 * median(&tracer.busy) } else { 0.0 }),
        timing("obs.emit_ns", "ns", &emits),
        metric("obs.emit_p99_ns", "ns", quantile_of(&emits, 0.99)),
        metric("obs.bytes_per_probe", "B", bytes_per_probe),
        timing("obs.parse_s", "s", &replay_only(|c| c.parse_s)),
        timing("obs.script_s", "s", &replay_only(|c| c.script_s)),
        metric("bench.trace_overhead", "ratio", overhead),
    ];

    let all: Vec<Collection> = plain.into_iter().chain(traced).collect();
    let mut report = finish(config, metrics, &all, problems);
    report.spans = tracer.last;
    Ok(report)
}

/// Where runs write their outputs: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the run's stamped JSON summary to
/// `out/<workload>-<e2e|layers>.json` and, for a traced run, its spans to
/// `out/<workload>-spans.tsv`.
pub fn write_outputs(report: &Report) -> io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let name = report.config.workload.name();
    let kind = if report.config.trace { "layers" } else { "e2e" };
    std::fs::write(dir.join(format!("{name}-{kind}.json")), format!("{}\n", report.to_json()))?;
    if report.config.trace {
        let mut out = BufWriter::new(File::create(dir.join(format!("{name}-spans.tsv")))?);
        writeln!(out, "# {}", report.stamp())?;
        traced::write_spans(&mut out, &report.spans)?;
        out.flush()?;
    }
    Ok(())
}
