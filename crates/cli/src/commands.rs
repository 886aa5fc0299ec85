//! The CLI subcommands. Each is a pure function from parsed options to
//! output text, which keeps them directly testable.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::{Arc, Mutex};

use inet::{Addr, Prefix};
use probe::{Protocol, SharedNetwork};
use topogen::Scenario;
use tracenet::{Session, TracenetOptions};

use crate::args::Opts;
use crate::flags::{fault_budget, fault_plan, protocol, retry_policy};

fn load(opts: &Opts) -> Result<Scenario, String> {
    let path = opts.required(0, "scenario file (generate one with `tracenet generate`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    topogen::io::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The scenario's network with the `--fault-profile` / `--fault-seed`
/// plan attached.
fn faulty_network(scenario: &Scenario, opts: &Opts) -> Result<SharedNetwork, String> {
    let mut net = netsim::ConcurrentNetwork::new(scenario.topology.clone());
    net.set_fault_plan(fault_plan(opts, 2010)?);
    Ok(SharedNetwork::from_concurrent(net))
}

/// Session options from `--max-ttl` and `--fault-budget`.
fn tracenet_options(opts: &Opts) -> Result<TracenetOptions, String> {
    Ok(TracenetOptions {
        max_ttl: opts.flag_parse("max-ttl", TracenetOptions::default().max_ttl)?,
        hop_fault_budget: fault_budget(opts)?,
        ..TracenetOptions::default()
    })
}

/// A sequential, cache-off batch: one session per target in target
/// order, as `trace`, `map`, `crossval`, `eval` and `record` collect.
fn sequential(protocol: Protocol) -> sweep::BatchConfig {
    sweep::BatchConfig { use_cache: false, protocol, ..sweep::BatchConfig::default() }
}

/// Parses `--targets A,B,..`, defaulting to the scenario's target list.
fn targets_from(scenario: &Scenario, opts: &Opts) -> Result<Vec<Addr>, String> {
    match opts.flag("targets") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("invalid target address {s:?}")))
            .collect(),
        None => Ok(scenario.targets.clone()),
    }
}

fn vantage(scenario: &Scenario, opts: &Opts) -> Result<Addr, String> {
    match opts.flag("vantage") {
        None => scenario
            .vantages
            .first()
            .map(|&(_, a)| a)
            .ok_or_else(|| "scenario has no vantage points".to_string()),
        Some(name) => {
            scenario.vantages.iter().find(|(n, _)| n == name).map(|&(_, a)| a).ok_or_else(|| {
                let known: Vec<&str> = scenario.vantages.iter().map(|(n, _)| n.as_str()).collect();
                format!("no vantage {name:?}; scenario has {known:?}")
            })
        }
    }
}

/// `tracenet generate <kind> [--seed N] [--size N] [--out FILE]`
///
/// `--size` is the router count of `random` (default 8) and the scale
/// factor `K` of `isp` (default 1, the 4-ISP internet; 40 is the
/// paper's scale), which multiplies every ISP's PoPs and target cap.
pub fn generate(opts: &Opts) -> Result<String, String> {
    let kind = opts.required(0, "scenario kind (internet2|geant|isp|random)")?;
    let seed = opts.flag_parse("seed", 2010u64)?;
    let scenario = match kind {
        "internet2" => topogen::internet2(seed),
        "geant" => topogen::geant(seed),
        "isp" => {
            let k = opts.flag_parse("size", 1usize)?;
            if !(1..=1000).contains(&k) {
                return Err(format!("--size for isp must be 1 to 1000, got {k}"));
            }
            topogen::isp_internet_with(topogen::IspInternetSpec {
                seed,
                ..topogen::IspInternetSpec::scaled(k)
            })
        }
        "random" => topogen::random_topology(seed, opts.flag_parse("size", 8usize)?),
        other => return Err(format!("unknown scenario kind {other:?}")),
    };
    let json = topogen::io::to_json(&scenario);
    match opts.flag("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!(
                "wrote {path}: scenario {:?}, {} routers, {} subnets, {} targets\n",
                scenario.name,
                scenario.topology.router_count(),
                scenario.topology.subnets().len(),
                scenario.targets.len()
            ))
        }
        None => Ok(json),
    }
}

/// `tracenet info <scenario>`
pub fn info(opts: &Opts) -> Result<String, String> {
    let s = load(opts)?;
    let mut out = String::new();
    out.push_str(&format!("scenario: {}\n", s.name));
    out.push_str(&format!(
        "routers: {} ({} hosts)\n",
        s.topology.router_count(),
        s.topology.routers().iter().filter(|r| r.is_host).count()
    ));
    out.push_str(&format!("subnets: {}\n", s.topology.subnets().len()));
    out.push_str(&format!("interfaces: {}\n", s.topology.ifaces().len()));
    out.push_str(&format!("targets: {}\n", s.targets.len()));
    out.push_str("vantages:\n");
    for (name, addr) in &s.vantages {
        out.push_str(&format!("  {name}: {addr}\n"));
    }
    let mut by_net = std::collections::BTreeMap::new();
    for g in s.ground_truth.evaluated() {
        *by_net.entry(g.network.clone()).or_insert(0usize) += 1;
    }
    out.push_str("evaluated subnets per network:\n");
    for (net, n) in by_net {
        out.push_str(&format!("  {net}: {n}\n"));
    }
    Ok(out)
}

/// A metrics registry paired with the files its snapshot goes to:
/// `--metrics` (pretty JSON plus a rendered table on stdout) and/or
/// `--metrics-json` (one compact machine-readable JSON object).
struct MetricsOut {
    registry: Arc<obs::Registry>,
    pretty: Option<String>,
    compact: Option<String>,
}

impl MetricsOut {
    /// Snapshots the registry and writes every requested file. Returns
    /// the rendered table when `--metrics` asked for human output.
    fn write(&self) -> Result<String, String> {
        let snap = self.registry.snapshot();
        if let Some(path) = &self.pretty {
            let json = serde_json::to_string_pretty(&snap.to_json())
                .map_err(|e| format!("{path}: {e}"))?;
            std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &self.compact {
            std::fs::write(path, snap.to_json().to_string() + "\n")
                .map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(if self.pretty.is_some() { snap.render_table() } else { String::new() })
    }
}

/// Prints decisions on stderr for `-v` and, with `all`, `-vv`: one
/// line each, `session S hop H: ` and then the decision, indented two
/// spaces for position and four for explore. `-v` leaves out
/// exploration's per-candidate verdicts. Each line stands alone, so
/// lines of concurrent sessions interleave readably.
struct VerboseSink {
    all: bool,
}

impl obs::EventSink for VerboseSink {
    fn emit(&mut self, _event: &obs::ProbeEvent) {}

    fn emit_decision(&mut self, d: &obs::DecisionEvent) {
        use obs::DecisionVerdict::{Accepted, AcceptedContraPivot, Rejected};
        let per_candidate = matches!(d.verdict, Accepted | AcceptedContraPivot | Rejected);
        let indent = match d.phase {
            Some(obs::Phase::Explore) if per_candidate && !self.all => return,
            Some(obs::Phase::Explore) => "    ",
            Some(obs::Phase::Position) => "  ",
            _ => "",
        };
        let session = d.session.map_or_else(|| "-".to_string(), |s| s.to_string());
        let line = format!("session {session} hop {}: {indent}{d}\n", d.hop);
        // Like a log write, a closed stderr must not stop the run.
        let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
    }
}

/// An exchange log being written: `record --out` or `--trace-log`.
struct LogOut {
    path: String,
    writer: Arc<Mutex<obs::ExchangeWriter<std::fs::File>>>,
}

impl LogOut {
    /// Creates (truncating) the log at `path` and writes the header of
    /// a run from `vantage` over `targets`.
    fn open(
        path: &str,
        vantage: Addr,
        cfg: &sweep::BatchConfig,
        targets: &[Addr],
    ) -> Result<LogOut, String> {
        let header = obs::ExchangeHeader {
            version: obs::FORMAT_VERSION,
            vantage,
            protocol: cfg.protocol,
            targets: targets.to_vec(),
            jobs: cfg.jobs as u64,
            options: options_to_json(&cfg.opts),
        };
        let writer = obs::ExchangeWriter::create(Path::new(path), &header)
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(LogOut { path: path.to_string(), writer: Arc::new(Mutex::new(writer)) })
    }

    /// Appends one report line per session, in session order, and
    /// flushes the log.
    fn finish(&self, reports: &[tracenet::TraceReport]) -> Result<(), String> {
        let mut w = self.writer.lock().map_err(|_| "exchange log writer poisoned".to_string())?;
        for (k, report) in reports.iter().enumerate() {
            w.write_report(k as u64, &report_to_json(report));
        }
        w.flush().map_err(|e| format!("{}: {e}", self.path))
    }
}

/// The run's event sink: the exchange log, if one is written, and the
/// `-v` / `-vv` text.
fn event_sink(log: Option<&LogOut>, opts: &Opts) -> obs::SinkHandle {
    let exchange = log.map(|l| obs::ExchangeSink::new(Arc::clone(&l.writer)));
    let text = (opts.verbosity() > 0).then(|| VerboseSink { all: opts.verbosity() > 1 });
    match (exchange, text) {
        (Some(exchange), Some(text)) => obs::SinkHandle::new((exchange, text)),
        (Some(exchange), None) => obs::SinkHandle::new(exchange),
        (None, Some(text)) => obs::SinkHandle::new(text),
        (None, None) => obs::SinkHandle::disabled(),
    }
}

/// Opens the `--trace-log` exchange log, if asked for, and builds the
/// recorder from it, `-v` / `-vv`, `--metrics` and `--metrics-json`.
/// Returns the recorder, the log and the metrics outputs.
fn observe(
    opts: &Opts,
    vantage: Addr,
    cfg: &sweep::BatchConfig,
    targets: &[Addr],
) -> Result<(obs::Recorder, Option<LogOut>, Option<MetricsOut>), String> {
    let log = match opts.flag("trace-log") {
        Some(path) => Some(LogOut::open(path, vantage, cfg, targets)?),
        None => None,
    };
    let mut recorder = obs::Recorder::new().with_sink(event_sink(log.as_ref(), opts));
    let pretty = opts.flag("metrics").map(str::to_string);
    let compact = opts.flag("metrics-json").map(str::to_string);
    let metrics = if pretty.is_some() || compact.is_some() {
        let registry = Arc::new(obs::Registry::new());
        recorder = recorder.with_metrics(Arc::clone(&registry));
        Some(MetricsOut { registry, pretty, compact })
    } else {
        None
    };
    Ok((recorder, log, metrics))
}

/// `tracenet trace <scenario> (--target A | --all) [...]`
pub fn trace(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let cfg = sweep::BatchConfig {
        opts: tracenet_options(opts)?,
        retry: retry_policy(opts)?,
        ..sequential(protocol(opts)?)
    };
    let targets: Vec<Addr> = if opts.has("all") {
        scenario.targets.clone()
    } else {
        vec![opts.flag_required::<Addr>("target").map_err(|_| {
            "missing --target ADDR (or --all for the scenario's target list)".to_string()
        })?]
    };

    let (recorder, log, metrics) = observe(opts, v, &cfg, &targets)?;

    let net = faulty_network(&scenario, opts)?;
    let result = sweep::run_batch(&net, v, &targets, &cfg, &recorder);
    if let Some(log) = log {
        log.finish(&result.reports)?;
    }
    let metrics_table = metrics.map_or_else(|| Ok(String::new()), |m| m.write())?;
    if opts.has("json") {
        let reports = result.reports.iter().map(report_to_json).collect();
        return Ok(serde_json::Value::Array(reports).to_string());
    }
    let mut out: String = result.reports.iter().map(|r| format!("{r}\n")).collect();
    out.push_str(&metrics_table);
    Ok(out)
}

fn cost_to_json(c: &tracenet::PhaseCost) -> serde_json::Value {
    serde_json::json!({
        "trace": c.trace,
        "position": c.position,
        "explore": c.explore,
        "total": c.total(),
    })
}

fn report_to_json(r: &tracenet::TraceReport) -> serde_json::Value {
    serde_json::json!({
        "vantage": r.vantage.to_string(),
        "destination": r.destination.to_string(),
        "reached": r.destination_reached,
        "probes": r.total_probes,
        "completeness": r.completeness().label(),
        "aborted": r.aborted,
        "cost": cost_to_json(&r.phase_totals()),
        "hops": r.hops.iter().map(|h| serde_json::json!({
            "cost": cost_to_json(&h.cost),
            "hop": h.hop,
            "completeness": h.completeness.label(),
            "addr": h.addr.map(|a| a.to_string()),
            "subnet": h.subnet.as_ref().map(|s| serde_json::json!({
                "prefix": s.record.prefix().to_string(),
                "members": s.record.members().iter().map(|m| m.to_string())
                    .collect::<Vec<_>>(),
                "pivot": s.pivot.to_string(),
                "contra_pivot": s.contra_pivot.map(|c| c.to_string()),
                "on_path": s.on_path,
            })),
        })).collect::<Vec<_>>(),
    })
}

/// `tracenet traceroute <scenario> --target A [...]`
pub fn traceroute_cmd(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let target: Addr = opts.flag_required("target")?;
    let mut tr_opts = traceroute::TracerouteOptions::default();
    tr_opts.paris = opts.has("paris");
    tr_opts.probes_per_hop = opts.flag_parse("queries", tr_opts.probes_per_hop)?;
    tr_opts.max_ttl = opts.flag_parse("max-ttl", tr_opts.max_ttl)?;

    let net = SharedNetwork::new(scenario.topology.clone());
    let mut prober = net.prober(v, proto);
    let report = traceroute::traceroute(&mut prober, target, tr_opts);
    Ok(report.to_string())
}

/// `tracenet ping <scenario> --target A [--count N]`
pub fn ping_cmd(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let target: Addr = opts.flag_required("target")?;
    let count = opts.flag_parse("count", 3u8)?;
    let net = SharedNetwork::new(scenario.topology.clone());
    let mut prober = net.prober(v, Protocol::Icmp);
    let r = traceroute::ping(&mut prober, target, count);
    Ok(match r.reply_from {
        Some(from) => format!("{}: {}/{} replies (from {from})\n", r.target, r.received, r.sent),
        None => format!("{}: no reply ({} probes)\n", r.target, r.sent),
    })
}

/// `tracenet sweep <scenario> --prefix P`
pub fn sweep(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let prefix: Prefix = opts.flag_required("prefix")?;
    let net = SharedNetwork::new(scenario.topology.clone());
    let mut prober = net.prober(v, Protocol::Icmp);
    let alive = traceroute::ping_sweep(&mut prober, prefix);
    let mut out = format!("{prefix}: {}/{} alive\n", alive.len(), prefix.probe_addrs().len());
    for a in alive {
        out.push_str(&format!("  {a}\n"));
    }
    Ok(out)
}

/// `tracenet batch <scenario> [--targets A,B,..] [--jobs N] [--no-cache]
/// [--rtt-us N]` — trace many targets on a worker pool over one shared
/// network, with a cross-session subnet cache unless `--no-cache` is
/// given; `--rtt-us` models a per-probe round-trip time.
pub fn batch(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let targets = targets_from(&scenario, opts)?;
    let tn_opts =
        TracenetOptions { hop_fault_budget: fault_budget(opts)?, ..TracenetOptions::default() };
    let cfg = sweep::BatchConfig {
        jobs: opts.flag_parse("jobs", 4usize)?,
        use_cache: !opts.has("no-cache"),
        protocol: proto,
        opts: tn_opts,
        retry: retry_policy(opts)?,
        // `--rtt-us N` models an N-microsecond probe round trip, making
        // the batch latency-bound (where --jobs overlaps the waits).
        probe_rtt: std::time::Duration::from_micros(opts.flag_parse("rtt-us", 0u64)?),
    };
    let (recorder, log, metrics) = observe(opts, v, &cfg, &targets)?;
    let net = faulty_network(&scenario, opts)?;
    let result = sweep::run_batch(&net, v, &targets, &cfg, &recorder);
    if let Some(log) = log {
        log.finish(&result.reports)?;
    }
    let metrics_table = metrics.map_or_else(|| Ok(String::new()), |m| m.write())?;
    let collected = evalkit::run::CollectedSet::from_batch(&result);
    let cache = collected.cache;
    if opts.has("json") {
        let records = collected.records();
        return Ok(serde_json::json!({
            "subnets": records.iter().map(|r| serde_json::json!({
                "prefix": r.prefix().to_string(),
                "members": r.members().iter().map(|m| m.to_string()).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
            "addresses": collected.addresses().len(),
            "probes": collected.probes,
            "sessions": collected.sessions,
            "cache": serde_json::json!({
                "hits": cache.hits,
                "skips": cache.skips,
                "misses": cache.misses,
            }),
        })
        .to_string());
    }
    let mut out = format!(
        "collected {} subnets, {} addresses, {} probes over {} sessions ({} jobs)\n",
        collected.prefixes().len(),
        collected.addresses().len(),
        collected.probes,
        collected.sessions,
        cfg.jobs.clamp(1, targets.len().max(1)),
    );
    if cfg.use_cache {
        out.push_str(&format!(
            "subnet cache: {} hits, {} skips, {} misses\n",
            cache.hits, cache.skips, cache.misses
        ));
    } else {
        out.push_str("subnet cache: disabled\n");
    }
    out.push_str(&metrics_table);
    Ok(out)
}

/// `tracenet map <scenario> [--vantage NAME] [--protocol ...]` — trace
/// every scenario target and emit the assembled subnet-level topology
/// map as Graphviz DOT.
pub fn map(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let net = SharedNetwork::new(scenario.topology.clone());
    let cfg = sequential(protocol(opts)?);
    let result = sweep::run_batch(&net, v, &scenario.targets, &cfg, &obs::Recorder::disabled());
    let mut graph = evalkit::graph::SubnetGraph::new();
    for report in &result.reports {
        graph.add_report(report);
    }
    Ok(graph.to_dot(&format!(
        "{} from {} ({} subnets, {} adjacencies)",
        scenario.name,
        v,
        graph.node_count(),
        graph.edge_count()
    )))
}

/// `tracenet crossval <scenario> [--protocol ...]` — run every vantage
/// over the shared target list and print the Figure 6-style agreement.
pub fn crossval(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    if scenario.vantages.len() != 3 {
        return Err(format!(
            "crossval needs exactly 3 vantage points, scenario has {}",
            scenario.vantages.len()
        ));
    }
    let cfg = sequential(protocol(opts)?);
    let net = SharedNetwork::new(scenario.topology.clone());
    let mut sets = Vec::new();
    for (name, addr) in scenario.vantages.clone() {
        let collected = evalkit::run::run_tracenet(&net, addr, &scenario.targets, &cfg);
        sets.push((name, collected.prefixes()));
    }
    let venn = evalkit::crossval::VennPartition::compute(&sets[0].1, &sets[1].1, &sets[2].1);
    let mut out = String::new();
    out.push_str(&format!(
        "vantages: {} ({}), {} ({}), {} ({})\n",
        sets[0].0,
        sets[0].1.len(),
        sets[1].0,
        sets[1].1.len(),
        sets[2].0,
        sets[2].1.len()
    ));
    out.push_str(&format!(
        "only: {} / {} / {}; pairwise: {} {} {}; all three: {}\n",
        venn.only_a, venn.only_b, venn.only_c, venn.ab, venn.ac, venn.bc, venn.abc
    ));
    out.push_str(&format!(
        "seen by all three: {}; verified by at least one other: {}\n",
        evalkit::render::pct(venn.all_three_rate()),
        evalkit::render::pct(venn.verified_by_another_rate()),
    ));
    Ok(out)
}

/// Serializes the session options into the exchange-log header, so a
/// replay re-creates the exact configuration of the recorded run. The
/// settings the collector only runs one way are written too, so a log
/// says what it was recorded under.
fn options_to_json(o: &TracenetOptions) -> serde_json::Value {
    let h = &o.heuristics;
    serde_json::json!({
        "max_ttl": o.max_ttl,
        "min_prefix_len": tracenet::MIN_PREFIX_LEN,
        "distance_search_span": tracenet::DISTANCE_SEARCH_SPAN,
        "utilization_stop": o.utilization_stop,
        "reuse_known_subnets": true,
        "explore_off_path": true,
        "hop_fault_budget": o.hop_fault_budget.map(u64::from),
        "heuristics": [
            h.h2_upper_bound_subnet_contiguity,
            h.h3_single_contra_pivot,
            h.h4_lower_bound_subnet_contiguity,
            h.h5_mate31_shortcut,
            h.h6_fixed_entry_points,
            h.h7_upper_bound_router_contiguity,
            h.h8_lower_bound_router_contiguity,
            h.h9_boundary_reduction,
        ],
    })
}

/// Reads [`options_to_json`]'s rendering back. Every field is required:
/// defaulting a missing one would silently replay under a different
/// configuration than the recording ran. The fixed settings must carry
/// the one value this collector runs with.
fn options_from_json(v: &serde_json::Value) -> Result<tracenet::TracenetOptions, String> {
    fn num(v: &serde_json::Value, key: &str) -> Result<u8, String> {
        v[key]
            .as_u64()
            .and_then(|n| u8::try_from(n).ok())
            .ok_or_else(|| format!("options: missing or invalid {key:?}"))
    }
    fn switch(v: &serde_json::Value, key: &str) -> Result<bool, String> {
        v[key].as_bool().ok_or_else(|| format!("options: missing or invalid {key:?}"))
    }
    fn fixed<T: PartialEq + std::fmt::Display>(key: &str, got: T, want: T) -> Result<(), String> {
        if got == want {
            return Ok(());
        }
        Err(format!("options: {key:?} is {got}, but this collector only runs with {want}"))
    }
    fixed("min_prefix_len", num(v, "min_prefix_len")?, tracenet::MIN_PREFIX_LEN)?;
    fixed("distance_search_span", num(v, "distance_search_span")?, tracenet::DISTANCE_SEARCH_SPAN)?;
    fixed("reuse_known_subnets", switch(v, "reuse_known_subnets")?, true)?;
    fixed("explore_off_path", switch(v, "explore_off_path")?, true)?;
    let h: Vec<bool> = v["heuristics"]
        .as_array()
        .ok_or("options: missing heuristics array")?
        .iter()
        .map(serde_json::Value::as_bool)
        .collect::<Option<_>>()
        .ok_or("options: heuristic switches must be booleans")?;
    if h.len() != 8 {
        return Err(format!("options: expected 8 heuristic switches (H2–H9), got {}", h.len()));
    }
    Ok(TracenetOptions {
        max_ttl: num(v, "max_ttl")?,
        utilization_stop: switch(v, "utilization_stop")?,
        hop_fault_budget: if v["hop_fault_budget"].is_null() {
            None
        } else {
            Some(
                v["hop_fault_budget"]
                    .as_u64()
                    .and_then(|n| u16::try_from(n).ok())
                    .ok_or("options: invalid hop_fault_budget")?,
            )
        },
        heuristics: tracenet::HeuristicSet {
            h2_upper_bound_subnet_contiguity: h[0],
            h3_single_contra_pivot: h[1],
            h4_lower_bound_subnet_contiguity: h[2],
            h5_mate31_shortcut: h[3],
            h6_fixed_entry_points: h[4],
            h7_upper_bound_router_contiguity: h[5],
            h8_lower_bound_router_contiguity: h[6],
            h9_boundary_reduction: h[7],
        },
    })
}

/// `tracenet record <scenario> --out FILE [--targets A,B,..] [--jobs N]
/// [--vantage NAME] [--protocol icmp|udp|tcp] [--max-ttl N]
/// [fault/retry flags]` — the flight recorder: run a batch and capture
/// every request/response pair, every heuristic verdict, and each
/// session's final report into one exchange log for
/// `replay`/`diff`/`explain`.
pub fn record(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let proto = protocol(opts)?;
    let out_path = opts.flag("out").ok_or("missing --out FILE (where the exchange log goes)")?;
    let targets = targets_from(&scenario, opts)?;
    if targets.is_empty() {
        return Err("nothing to record: scenario has no targets".to_string());
    }
    let cfg = sweep::BatchConfig {
        jobs: opts.flag_parse("jobs", 1usize)?,
        opts: tracenet_options(opts)?,
        retry: retry_policy(opts)?,
        // Replay re-runs sessions one at a time; a cross-session subnet
        // cache would couple them through shared state the log cannot
        // reproduce, so recording always runs cache-off.
        ..sequential(proto)
    };
    let log = LogOut::open(out_path, v, &cfg, &targets)?;
    let recorder = obs::Recorder::new().with_sink(event_sink(Some(&log), opts));
    let net = faulty_network(&scenario, opts)?;
    let result = sweep::run_batch(&net, v, &targets, &cfg, &recorder);
    log.finish(&result.reports)?;
    Ok(format!(
        "recorded {} sessions ({} probes) to {out_path}\n",
        result.reports.len(),
        result.probes
    ))
}

/// Opens an exchange log to be read once, as a stream.
fn read_log(path: &str) -> Result<obs::ExchangeReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    obs::ExchangeReader::new(BufReader::with_capacity(1 << 16, file))
}

/// The slot of a line's session among the header's targets, if it is
/// one of them.
fn slot<T>(slots: &mut [T], session: Option<u64>) -> Option<&mut T> {
    slots.get_mut(usize::try_from(session?).ok()?)
}

/// What `replay` keeps of one recorded session.
#[derive(Default)]
struct Recorded {
    /// Its replay script, built as its probe lines arrive.
    script: probe::ReplayScript,
    /// Its first cache verdict: the hop and the verdict.
    cached: Option<(u8, obs::DecisionVerdict)>,
    /// Its first report.
    report: Option<serde_json::Value>,
}

/// Why a diverged session cannot replay, when its decisions say so: a
/// hop answered by the cross-session subnet cache sent no probes the
/// log could answer a replay with. Empty otherwise.
fn cache_note(cached: Option<(u8, obs::DecisionVerdict)>) -> String {
    match cached {
        Some((hop, verdict)) => format!(
            "; hop {hop} was answered by the subnet cache ({verdict}), which replay cannot \
             reproduce: record with --no-cache"
        ),
        None => String::new(),
    }
}

/// `tracenet replay <log>` — re-run every recorded session against the
/// log itself (no simulator involved) and check that each replayed
/// `TraceReport` is byte-identical to the recorded one.
///
/// The log is read once: each probe line goes straight into its
/// session's script, and the sessions replay in target order after the
/// last line.
pub fn replay(opts: &Opts) -> Result<String, String> {
    use obs::DecisionVerdict::{CacheHit, CacheSkip};
    let path = opts.required(0, "exchange log (record one with `tracenet record`)")?;
    let mut log = read_log(path)?;
    let mut sessions: Vec<Recorded> =
        log.header.targets.iter().map(|_| Recorded::default()).collect();
    for entry in log.by_ref() {
        match entry?.1 {
            obs::Entry::Probe(ev) => {
                if let Some(s) = slot(&mut sessions, ev.session) {
                    s.script.push(&ev);
                }
            }
            obs::Entry::Decision(d) if matches!(d.verdict, CacheHit | CacheSkip) => {
                if let Some(s) = slot(&mut sessions, d.session) {
                    s.cached.get_or_insert((d.hop, d.verdict));
                }
            }
            obs::Entry::Decision(_) => {}
            obs::Entry::Report { session, report } => {
                if let Some(s) = slot(&mut sessions, Some(session)) {
                    s.report.get_or_insert(report);
                }
            }
        }
    }
    let header = log.header;
    let tn_opts = options_from_json(&header.options)?;
    let mut diverged = Vec::new();
    let mut probes = 0u64;
    for (k, (&target, recorded)) in header.targets.iter().zip(sessions).enumerate() {
        let session = k as u64;
        let report = recorded
            .report
            .ok_or_else(|| format!("session {session}: log carries no report line"))?;
        let mut prober = recorded
            .script
            .into_prober(header.vantage, header.protocol)
            .map_err(|e| format!("session {session}: {e}"))?;
        let replayed = Session::new(&mut prober, tn_opts).run(target);
        probes += replayed.total_probes;
        // The recorded report is its compact text, so this compares the
        // replayed rendering with it byte for byte.
        let problem = if let Some(divergence) = prober.divergence() {
            Some(divergence.to_string())
        } else if report_to_json(&replayed) != report {
            Some("replayed report differs from recorded report".to_string())
        } else if prober.remaining() != 0 {
            Some(format!("{} recorded probes never re-asked", prober.remaining()))
        } else {
            None
        };
        if let Some(problem) = problem {
            diverged.push(format!(
                "session {session} ({target}): {problem}{}",
                cache_note(recorded.cached)
            ));
        }
    }
    if diverged.is_empty() {
        Ok(format!(
            "replayed {} sessions ({probes} probes) from {path}: reports byte-identical\n",
            header.targets.len()
        ))
    } else {
        Err(format!("replay diverged:\n  {}", diverged.join("\n  ")))
    }
}

/// One hop of a report JSON, compressed to a line for diff output.
fn hop_summary(hop: &serde_json::Value) -> String {
    let addr = hop["addr"].as_str().unwrap_or("*");
    let completeness = hop["completeness"].as_str().unwrap_or("?");
    match hop["subnet"]["prefix"].as_str() {
        Some(prefix) => {
            let members = hop["subnet"]["members"].as_array().map_or(0, Vec::len);
            format!("{addr} [{completeness}] {prefix} ({members} members)")
        }
        None => format!("{addr} [{completeness}] no subnet"),
    }
}

/// Appends one line per field where two recorded reports disagree. The
/// texts are compared first; only reports that differ are parsed.
fn diff_reports(
    session: u64,
    target: Addr,
    ra: &serde_json::Value,
    rb: &serde_json::Value,
    out: &mut Vec<String>,
) {
    if ra == rb {
        return;
    }
    let (ra, rb) = (ra.to_tree(), rb.to_tree());
    let mut noted = false;
    for key in ["probes", "reached", "completeness", "aborted"] {
        let (va, vb) = (&ra[key], &rb[key]);
        if va != vb {
            out.push(format!("session {session} ({target}): {key} {va} vs {vb}"));
            noted = true;
        }
    }
    let empty = Vec::new();
    let ha = ra["hops"].as_array().unwrap_or(&empty);
    let hb = rb["hops"].as_array().unwrap_or(&empty);
    if ha.len() != hb.len() {
        out.push(format!("session {session} ({target}): {} vs {} hops", ha.len(), hb.len()));
        noted = true;
    }
    for (va, vb) in ha.iter().zip(hb) {
        if va == vb {
            continue;
        }
        let hop = va["hop"].as_u64().unwrap_or(0);
        out.push(format!(
            "session {session} ({target}): hop {hop}: {} vs {}",
            hop_summary(va),
            hop_summary(vb)
        ));
        noted = true;
    }
    if !noted {
        out.push(format!("session {session} ({target}): reports differ"));
    }
}

/// What `diff` compares of one exchange log, read once: its header,
/// each target's probe-line count and first report, and how many probe
/// lines it holds in all.
struct LogSummary {
    header: obs::ExchangeHeader,
    probes: Vec<usize>,
    reports: Vec<Option<serde_json::Value>>,
    probe_lines: usize,
}

fn summarize(path: &str) -> Result<LogSummary, String> {
    let mut log = read_log(path)?;
    let targets = log.header.targets.len();
    let (mut probes, mut reports, mut probe_lines) = (vec![0; targets], vec![None; targets], 0);
    for entry in log.by_ref() {
        match entry?.1 {
            obs::Entry::Probe(ev) => {
                probe_lines += 1;
                if let Some(n) = slot(&mut probes, ev.session) {
                    *n += 1;
                }
            }
            obs::Entry::Decision(_) => {}
            obs::Entry::Report { session, report } => {
                if let Some(r) = slot(&mut reports, Some(session)) {
                    r.get_or_insert(report);
                }
            }
        }
    }
    Ok(LogSummary { header: log.header, probes, reports, probe_lines })
}

/// `tracenet diff <a> <b>` — compare two exchange logs session by
/// session. Equivalent logs report so and exit 0; any divergence prints
/// a structured report and exits nonzero. Each log is read once, and
/// only its probe counts and reports are kept.
pub fn diff(opts: &Opts) -> Result<String, String> {
    let a_path = opts.required(0, "first exchange log")?;
    let b_path = opts.required(1, "second exchange log")?;
    let a = summarize(a_path)?;
    let b = summarize(b_path)?;
    let mut lines = Vec::new();
    if a.header.vantage != b.header.vantage {
        lines.push(format!("header: vantage {} vs {}", a.header.vantage, b.header.vantage));
    }
    if a.header.protocol != b.header.protocol {
        lines.push(format!("header: protocol {:?} vs {:?}", a.header.protocol, b.header.protocol));
    }
    if a.header.targets != b.header.targets {
        lines.push(format!(
            "header: target lists differ ({} vs {} targets)",
            a.header.targets.len(),
            b.header.targets.len()
        ));
    }
    if a.header.options != b.header.options {
        lines.push("header: collection options differ".to_string());
    }
    for (k, &target) in a.header.targets.iter().enumerate() {
        if k >= b.header.targets.len() {
            break;
        }
        let session = k as u64;
        let (ea, eb) = (a.probes[k], b.probes[k]);
        if ea != eb {
            lines.push(format!("session {session} ({target}): {ea} vs {eb} probe events"));
        }
        match (&a.reports[k], &b.reports[k]) {
            (None, None) => {}
            (Some(_), None) => {
                lines.push(format!("session {session} ({target}): report only in {a_path}"));
            }
            (None, Some(_)) => {
                lines.push(format!("session {session} ({target}): report only in {b_path}"));
            }
            (Some(ra), Some(rb)) => diff_reports(session, target, ra, rb, &mut lines),
        }
    }
    if lines.is_empty() {
        Ok(format!(
            "logs are equivalent: {} sessions, {} probe events\n",
            a.header.targets.len(),
            a.probe_lines
        ))
    } else {
        Err(format!("exchange logs diverge ({a_path} vs {b_path}):\n  {}", lines.join("\n  ")))
    }
}

/// `tracenet explain <log> <subnet-or-addr>` — print the inference tree
/// behind one collected subnet: every positioning verdict and H1–H9
/// decision the recorded run took about addresses in the prefix,
/// including why degraded hops degraded.
pub fn explain(opts: &Opts) -> Result<String, String> {
    let path = opts.required(0, "exchange log")?;
    let what = opts.required(1, "subnet prefix (e.g. 10.0.2.0/29) or address")?;
    let log = obs::ExchangeLog::load(std::path::Path::new(path))?;
    let prefix: Prefix = if what.contains('/') {
        what.parse().map_err(|_| format!("invalid prefix {what:?}"))?
    } else {
        let addr: Addr = what.parse().map_err(|_| format!("invalid address {what:?}"))?;
        Prefix::containing(addr, 32)
    };
    let mut out = format!("{what}: inference record from {path}\n");
    let mut matched = false;
    for (k, &target) in log.header.targets.iter().enumerate() {
        let session = k as u64;
        let hits: Vec<obs::DecisionEvent> = log
            .decisions_for(session)
            .filter(|d| d.subject.is_some_and(|a| prefix.contains(a)))
            .collect();
        if hits.is_empty() {
            continue;
        }
        matched = true;
        out.push_str(&format!("\nsession {session} — target {target}\n"));
        let mut hop = None;
        for d in hits {
            if hop != Some(d.hop) {
                hop = Some(d.hop);
                out.push_str(&format!("  hop {}\n", d.hop));
            }
            out.push_str(&format!("    {d}\n"));
        }
    }
    if !matched {
        let mut subnets = Vec::new();
        for (_, report) in log.reports() {
            let report = report.to_tree();
            let hops = report["hops"].as_array().map_or(&[][..], Vec::as_slice);
            subnets.extend(
                hops.iter().filter_map(|h| h["subnet"]["prefix"].as_str().map(str::to_string)),
            );
        }
        subnets.sort();
        subnets.dedup();
        return Err(format!(
            "no recorded decisions about {what} in {path}\ncollected subnets: {}",
            if subnets.is_empty() { "(none)".to_string() } else { subnets.join(", ") }
        ));
    }
    Ok(out)
}

/// `tracenet eval <scenario> [--protocol ...]`
pub fn eval(opts: &Opts) -> Result<String, String> {
    let scenario = load(opts)?;
    let v = vantage(&scenario, opts)?;
    let net = SharedNetwork::new(scenario.topology.clone());
    let cfg = sequential(protocol(opts)?);
    let collected = evalkit::run::run_tracenet(&net, v, &scenario.targets, &cfg);

    let mut out = format!(
        "collected {} subnets, {} addresses, {} probes over {} sessions\n",
        collected.prefixes().len(),
        collected.addresses().len(),
        collected.probes,
        collected.sessions
    );
    // Score per evaluated network.
    let mut networks: Vec<String> =
        scenario.ground_truth.evaluated().map(|g| g.network.clone()).collect();
    networks.sort();
    networks.dedup();
    for network in networks {
        let gt: Vec<&topogen::GtSubnet> = scenario.ground_truth.of_network(&network).collect();
        let mut cls = evalkit::classify::classify(&gt, &collected.records());
        let mut auditor = net.prober(v, Protocol::Icmp);
        evalkit::audit::audit_classifications(&mut auditor, &mut cls);
        let table = evalkit::classify::SubnetTable::build(&cls);
        out.push_str(&format!("\n== {network} ==\n{table}"));
    }
    Ok(out)
}
