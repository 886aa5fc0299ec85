//! The exchange log: the flight recorder's capture format.
//!
//! One exchange log is one JSONL file holding everything a recorded run
//! saw and concluded:
//!
//! 1. a **header** line (`"type": "header"`) with the format version,
//!    the vantage, protocol, target list and the collection options the
//!    run used — enough to re-create the session configuration at
//!    replay time;
//! 2. one **probe** line per wire attempt — a plain
//!    [`ProbeEvent::write_line`] object with *no* `"type"` key, so the
//!    probe lines of an exchange log are bit-compatible with a
//!    `--trace-log` stream;
//! 3. **decision** lines (`"type": "decision"`, see
//!    [`DecisionEvent::write_line`]) interleaved in emission order;
//! 4. one **report** line per session (`"type": "report"`) appended
//!    after the run, carrying the session's rendered `TraceReport` JSON
//!    verbatim — the byte-identity oracle `tnet replay` checks against.
//!
//! Probe and decision lines are rendered by their types' line writers
//! straight into a reused buffer, with no `serde_json::Value` in
//! between. Their bytes are guaranteed identical to what the vendored
//! `serde_json` shim prints for the same fields as a `Value`, so logs
//! written before the writers existed and logs written now compare
//! byte for byte. The header line still goes through `Value`; a
//! report line is its fixed prefix, the report `Value` rendered once,
//! and a closing brace.
//!
//! Lines carry session (target index) attribution, so a `--jobs 8`
//! run's interleaved streams separate cleanly (see
//! [`ExchangeLog::events_for`]).

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use inet::Addr;
use serde_json::{json, Value};
use wire::Protocol;

use crate::decision::DecisionEvent;
use crate::event::{protocol_from_label, protocol_label, ProbeEvent};
use crate::line;
use crate::sink::EventSink;

/// The exchange-log format version this crate writes and reads.
/// Bump on any incompatible change to the line vocabulary; readers
/// reject other versions instead of misparsing them.
pub const FORMAT_VERSION: u64 = 1;

/// The format tag every header carries, guarding against feeding some
/// other JSONL stream to the replay tools.
pub const FORMAT_NAME: &str = "tracenet-exchange";

/// The header line of an exchange log: the run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExchangeHeader {
    /// Format version ([`FORMAT_VERSION`] when written by this crate).
    pub version: u64,
    /// The vantage address the run probed from.
    pub vantage: Addr,
    /// The probe protocol of the run.
    pub protocol: Protocol,
    /// The targets, in session (target index) order: session `k` traced
    /// `targets[k]`.
    pub targets: Vec<Addr>,
    /// Worker count of the recorded run (1 for a sequential trace).
    /// Informational: replay is per-session and does not depend on it.
    pub jobs: u64,
    /// The collection options the run used, opaque to this crate: the
    /// CLI serializes its `TracenetOptions` here and reads them back at
    /// replay time.
    pub options: Value,
}

impl ExchangeHeader {
    /// Renders the header as one JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "type": "header",
            "format": FORMAT_NAME,
            "version": self.version,
            "vantage": self.vantage.to_string(),
            "proto": protocol_label(self.protocol),
            "targets": self.targets.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
            "jobs": self.jobs,
            "options": self.options,
        })
    }

    /// Parses a header back from its [`ExchangeHeader::to_json`]
    /// rendering, rejecting unknown formats and versions.
    pub fn from_json(v: &Value) -> Result<ExchangeHeader, String> {
        if v["type"].as_str() != Some("header") {
            return Err("header: first line must have \"type\": \"header\"".into());
        }
        let format = v["format"].as_str().unwrap_or("?");
        if format != FORMAT_NAME {
            return Err(format!("header: unknown format {format:?}"));
        }
        let version = v["version"].as_u64().ok_or("header: version must be a number")?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "header: unsupported format version {version} (this reader supports {FORMAT_VERSION})"
            ));
        }
        let vantage: Addr = v["vantage"]
            .as_str()
            .ok_or("header: vantage must be a string")?
            .parse()
            .map_err(|e| format!("header: vantage: {e}"))?;
        let proto_label = v["proto"].as_str().ok_or("header: proto must be a string")?;
        let protocol = protocol_from_label(proto_label)
            .ok_or_else(|| format!("header: unknown proto {proto_label:?}"))?;
        let targets = v["targets"]
            .as_array()
            .ok_or("header: targets must be an array")?
            .iter()
            .map(|t| {
                t.as_str()
                    .ok_or_else(|| "header: target must be a string".to_string())?
                    .parse()
                    .map_err(|e| format!("header: target: {e}"))
            })
            .collect::<Result<Vec<Addr>, String>>()?;
        Ok(ExchangeHeader {
            version,
            vantage,
            protocol,
            targets,
            jobs: v["jobs"].as_u64().unwrap_or(1),
            options: v["options"].clone(),
        })
    }
}

/// Writes an exchange log line by line. The header goes out at
/// construction; probe/decision lines stream during the run; report
/// lines are appended afterwards.
pub struct ExchangeWriter<W: Write + Send> {
    writer: BufWriter<W>,
    /// Scratch buffer each probe, decision or report line is rendered
    /// into.
    line: String,
}

impl<W: Write + Send> ExchangeWriter<W> {
    /// Wraps a writer and writes the header line.
    pub fn new(writer: W, header: &ExchangeHeader) -> io::Result<ExchangeWriter<W>> {
        let mut w = ExchangeWriter { writer: BufWriter::new(writer), line: String::new() };
        writeln!(w.writer, "{}", header.to_json())?;
        Ok(w)
    }

    /// Writes one probe line (no `"type"` key, `--trace-log`
    /// compatible).
    pub fn write_probe(&mut self, event: &ProbeEvent) {
        self.line.clear();
        event.write_line(&mut self.line);
        self.write_scratch_line();
    }

    /// Writes one decision line.
    pub fn write_decision(&mut self, decision: &DecisionEvent) {
        self.line.clear();
        decision.write_line(&mut self.line);
        self.write_scratch_line();
    }

    fn write_scratch_line(&mut self) {
        self.line.push('\n');
        // An unwritable log must not take the collection session down.
        let _ = self.writer.write_all(self.line.as_bytes());
    }

    /// Appends one session's rendered report, verbatim.
    pub fn write_report(&mut self, session: u64, report: &Value) {
        // The wrapper is written around the report rendered once, so
        // the report tree is never copied into a wrapping `Value`.
        self.line.clear();
        self.line.push_str(r#"{"type":"report","session":"#);
        line::uint(&mut self.line, session);
        self.line.push_str(r#","report":"#);
        self.line.push_str(&serde_json::to_string(report));
        self.line.push('}');
        self.write_scratch_line();
    }

    /// Flushes buffered lines to the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

impl ExchangeWriter<std::fs::File> {
    /// Creates (truncating) an exchange log at `path` and writes the
    /// header.
    pub fn create(path: &std::path::Path, header: &ExchangeHeader) -> io::Result<Self> {
        ExchangeWriter::new(std::fs::File::create(path)?, header)
    }
}

/// Adapts a shared [`ExchangeWriter`] into an [`EventSink`], so a
/// recorder streams probes *and* decisions into the log while the
/// driver keeps its own handle to append report lines after the run.
#[derive(Clone)]
pub struct ExchangeSink<W: Write + Send> {
    writer: Arc<Mutex<ExchangeWriter<W>>>,
}

impl<W: Write + Send> ExchangeSink<W> {
    /// Shares `writer` between this sink and the caller.
    pub fn new(writer: Arc<Mutex<ExchangeWriter<W>>>) -> ExchangeSink<W> {
        ExchangeSink { writer }
    }
}

impl<W: Write + Send> EventSink for ExchangeSink<W> {
    fn emit(&mut self, event: &ProbeEvent) {
        self.writer.lock().expect("exchange writer lock").write_probe(event);
    }

    fn emit_decision(&mut self, decision: &DecisionEvent) {
        self.writer.lock().expect("exchange writer lock").write_decision(decision);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.lock().expect("exchange writer lock").flush()
    }
}

/// A fully parsed exchange log.
///
/// [`events_for`](ExchangeLog::events_for),
/// [`decisions_for`](ExchangeLog::decisions_for) and
/// [`report_for`](ExchangeLog::report_for) answer from a per-session
/// index that [`parse`](ExchangeLog::parse) builds once, so they do
/// not see later edits to the public fields.
#[derive(Clone, Debug)]
pub struct ExchangeLog {
    /// The run configuration.
    pub header: ExchangeHeader,
    /// Every probe line, in file (emission) order.
    pub events: Vec<ProbeEvent>,
    /// Every decision line, in file (emission) order.
    pub decisions: Vec<DecisionEvent>,
    /// The per-session report lines: `(session, report)` pairs.
    pub reports: Vec<(u64, Value)>,
    events_by_session: BySession,
    decisions_by_session: BySession,
    /// Each session's first report line, as an index into `reports`.
    report_at: HashMap<u64, usize>,
}

/// Line indices grouped by session: each session's indices, in file
/// order, sit at its range in `order`. Exactly one slot per tagged
/// line; untagged lines are left out.
#[derive(Clone, Debug, Default)]
struct BySession {
    order: Vec<usize>,
    ranges: HashMap<u64, Range<usize>>,
}

impl BySession {
    /// Groups lines by their session tags (`tags[i]` is line `i`'s).
    fn new(tags: impl Iterator<Item = Option<u64>> + Clone) -> BySession {
        let mut ranges: HashMap<u64, Range<usize>> = HashMap::new();
        for session in tags.clone().flatten() {
            ranges.entry(session).or_insert(0..0).end += 1;
        }
        let mut next = 0;
        for range in ranges.values_mut() {
            let len = range.end;
            *range = next..next;
            next += len;
        }
        // Each range grows back to its full length as its lines land.
        let mut order = vec![0; next];
        for (i, tag) in tags.enumerate() {
            if let Some(range) = tag.and_then(|s| ranges.get_mut(&s)) {
                order[range.end] = i;
                range.end += 1;
            }
        }
        BySession { order, ranges }
    }

    /// The line indices of `session`, in file order.
    fn of(&self, session: u64) -> &[usize] {
        self.ranges.get(&session).map_or(&[], |r| &self.order[r.clone()])
    }
}

impl ExchangeLog {
    /// Parses a whole exchange log, validating every line. Line numbers
    /// in errors are 1-based.
    pub fn parse(text: &str) -> Result<ExchangeLog, String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (n, first) = lines.next().ok_or("empty exchange log")?;
        let head: Value =
            serde_json::from_str(first).map_err(|e| format!("line {}: not JSON: {e}", n + 1))?;
        let header =
            ExchangeHeader::from_json(&head).map_err(|e| format!("line {}: {e}", n + 1))?;

        // Reserve once, for the worst case of every line being a probe
        // or every line a decision. Growing by doubling instead copies
        // the vectors, and over repeated parses of a 320 000-line log
        // the holes it left raised peak memory by about 11 MB. At sizes
        // where that matters the allocator maps fresh pages, so capacity
        // the log does not fill is never touched.
        let line_count = text.lines().count();
        let mut events = Vec::with_capacity(line_count);
        let mut decisions = Vec::with_capacity(line_count);
        let mut reports = Vec::new();
        let mut report_at = HashMap::new();
        for (n, line) in lines {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: not JSON: {e}", n + 1))?;
            match v["type"].as_str() {
                None => events
                    .push(ProbeEvent::from_json(&v).map_err(|e| format!("line {}: {e}", n + 1))?),
                Some("decision") => decisions.push(
                    DecisionEvent::from_json(&v).map_err(|e| format!("line {}: {e}", n + 1))?,
                ),
                Some("report") => {
                    let session = v["session"]
                        .as_u64()
                        .ok_or_else(|| format!("line {}: report without session", n + 1))?;
                    if v["report"].is_null() {
                        return Err(format!("line {}: report without body", n + 1));
                    }
                    report_at.entry(session).or_insert(reports.len());
                    reports.push((session, v["report"].clone()));
                }
                Some("header") => {
                    return Err(format!("line {}: duplicate header", n + 1));
                }
                Some(other) => {
                    return Err(format!("line {}: unknown line type {other:?}", n + 1));
                }
            }
        }
        Ok(ExchangeLog {
            events_by_session: BySession::new(events.iter().map(|e| e.session)),
            decisions_by_session: BySession::new(decisions.iter().map(|d| d.session)),
            header,
            events,
            decisions,
            reports,
            report_at,
        })
    }

    /// Reads and parses an exchange log from `path`.
    pub fn load(path: &std::path::Path) -> Result<ExchangeLog, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ExchangeLog::parse(&text)
    }

    /// The probe events of one session, in emission order.
    pub fn events_for(&self, session: u64) -> impl Iterator<Item = &ProbeEvent> {
        self.events_by_session.of(session).iter().map(|&i| &self.events[i])
    }

    /// The decisions of one session, in emission order.
    pub fn decisions_for(&self, session: u64) -> impl Iterator<Item = &DecisionEvent> {
        self.decisions_by_session.of(session).iter().map(|&i| &self.decisions[i])
    }

    /// The recorded report of one session, if the log carries one (the
    /// first, if it carries several).
    pub fn report_for(&self, session: u64) -> Option<&Value> {
        self.report_at.get(&session).map(|&i| &self.reports[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionVerdict;
    use crate::event::{Outcome, Phase};
    use crate::sink::SinkHandle;

    fn header() -> ExchangeHeader {
        ExchangeHeader {
            version: FORMAT_VERSION,
            vantage: "10.0.0.1".parse().unwrap(),
            protocol: Protocol::Icmp,
            targets: vec!["10.0.9.6".parse().unwrap(), "10.0.9.7".parse().unwrap()],
            jobs: 2,
            options: json!({"max_ttl": 30}),
        }
    }

    fn ev(session: u64, ttl: u8) -> ProbeEvent {
        ProbeEvent {
            tick: ttl as u64,
            session: Some(session),
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt: 0,
            outcome: Outcome::TtlExceeded,
            from: Some("10.0.1.1".parse().unwrap()),
            phase: Some(Phase::Trace),
            cause: None,
            timeout_cause: None,
            unreach: None,
        }
    }

    fn probe_line(event: &ProbeEvent) -> String {
        let mut line = String::new();
        event.write_line(&mut line);
        line
    }

    fn decision(session: u64) -> DecisionEvent {
        DecisionEvent {
            session: Some(session),
            hop: 1,
            phase: Some(Phase::Explore),
            cause: None,
            subject: None,
            verdict: DecisionVerdict::Collected,
            evidence: "exploration finished".into(),
        }
    }

    #[test]
    fn header_roundtrip_preserves_every_field() {
        let h = header();
        assert_eq!(ExchangeHeader::from_json(&h.to_json()).unwrap(), h);
    }

    #[test]
    fn header_rejects_other_versions_and_formats() {
        let mut v = header().to_json();
        v["version"] = json!(99);
        assert!(ExchangeHeader::from_json(&v).unwrap_err().contains("version"));

        let mut v = header().to_json();
        v["format"] = json!("pcap");
        assert!(ExchangeHeader::from_json(&v).unwrap_err().contains("format"));

        let v = serde_json::from_str(&probe_line(&ev(0, 1))).unwrap();
        assert!(ExchangeHeader::from_json(&v).unwrap_err().contains("header"));
    }

    #[test]
    fn write_then_parse_roundtrips_all_line_kinds() {
        let mut w = ExchangeWriter::new(Vec::new(), &header()).unwrap();
        w.write_probe(&ev(0, 1));
        w.write_decision(&decision(0));
        w.write_probe(&ev(1, 2));
        w.write_report(0, &json!({"probes": 7}));
        w.write_report(1, &json!({"probes": 9}));
        w.flush().unwrap();
        let text = String::from_utf8(w.writer.into_inner().unwrap()).unwrap();

        let log = ExchangeLog::parse(&text).unwrap();
        assert_eq!(log.header, header());
        assert_eq!(log.events, vec![ev(0, 1), ev(1, 2)]);
        assert_eq!(log.decisions, vec![decision(0)]);
        assert_eq!(log.events_for(1).count(), 1);
        assert_eq!(log.decisions_for(0).count(), 1);
        assert_eq!(log.report_for(1).unwrap()["probes"].as_u64(), Some(9));
        assert!(log.report_for(7).is_none());
    }

    #[test]
    fn per_session_lookups_match_a_filter_over_the_whole_log() {
        let mut w = ExchangeWriter::new(Vec::new(), &header()).unwrap();
        let sessions = [2, 0, 2, 1, 0, 2, 7, 1];
        for (ttl, &session) in sessions.iter().enumerate() {
            w.write_probe(&ev(session, ttl as u8 + 1));
            w.write_decision(&DecisionEvent { hop: ttl as u8, ..decision(session) });
        }
        w.write_probe(&ProbeEvent { session: None, ..ev(0, 9) });
        w.write_report(1, &json!({"probes": 2}));
        w.write_report(0, &json!({"probes": 3}));
        w.write_report(1, &json!({"probes": 5}));
        w.flush().unwrap();
        let text = String::from_utf8(w.writer.into_inner().unwrap()).unwrap();
        let log = ExchangeLog::parse(&text).unwrap();

        for session in [0, 1, 2, 3, 7] {
            let events: Vec<_> = log.events_for(session).collect();
            let want: Vec<_> = log.events.iter().filter(|e| e.session == Some(session)).collect();
            assert_eq!(events, want, "session {session}");
            let decisions: Vec<_> = log.decisions_for(session).collect();
            let want: Vec<_> =
                log.decisions.iter().filter(|d| d.session == Some(session)).collect();
            assert_eq!(decisions, want, "session {session}");
        }
        assert_eq!(log.events_for(2).map(|e| e.ttl).collect::<Vec<_>>(), [1, 3, 6]);
        assert_eq!(log.report_for(1).unwrap()["probes"].as_u64(), Some(2), "first report wins");
        assert_eq!(log.report_for(0).unwrap()["probes"].as_u64(), Some(3));
        assert!(log.report_for(2).is_none());
    }

    #[test]
    fn exchange_sink_interleaves_probes_and_decisions() {
        let writer = Arc::new(Mutex::new(ExchangeWriter::new(Vec::new(), &header()).unwrap()));
        let handle = SinkHandle::new(ExchangeSink::new(Arc::clone(&writer)));
        handle.emit(&ev(0, 1));
        handle.emit_decision(&decision(0));
        handle.flush().unwrap();
        writer.lock().unwrap().write_report(0, &json!({"probes": 1}));
        writer.lock().unwrap().flush().unwrap();

        // The Arc is still shared with the handle; render through it.
        let text = {
            let mut guard = writer.lock().unwrap();
            guard.flush().unwrap();
            let buffered = guard.writer.buffer().to_vec();
            assert!(buffered.is_empty(), "flush drained the buffer");
            drop(guard);
            // Reconstruct from the inner Vec via get_ref.
            String::from_utf8(writer.lock().unwrap().writer.get_ref().clone()).unwrap()
        };
        let log = ExchangeLog::parse(&text).unwrap();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.decisions.len(), 1);
        assert_eq!(log.reports.len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_streams() {
        assert!(ExchangeLog::parse("").unwrap_err().contains("empty"));

        let no_header = format!("{}\n", probe_line(&ev(0, 1)));
        assert!(ExchangeLog::parse(&no_header).unwrap_err().contains("header"));

        let dup = format!("{}\n{}\n", header().to_json(), header().to_json());
        assert!(ExchangeLog::parse(&dup).unwrap_err().contains("duplicate"));

        let unknown = format!("{}\n{}\n", header().to_json(), json!({"type": "mystery"}));
        assert!(ExchangeLog::parse(&unknown).unwrap_err().contains("unknown line type"));

        let bare_report = format!("{}\n{}\n", header().to_json(), json!({"type": "report"}));
        assert!(ExchangeLog::parse(&bare_report).unwrap_err().contains("session"));
    }
}
