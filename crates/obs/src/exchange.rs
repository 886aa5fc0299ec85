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
//!    [`ProbeEvent::write_line`] object with *no* `"type"` key;
//! 3. **decision** lines (`"type": "decision"`, see
//!    [`DecisionEvent::write_line`]) interleaved in emission order;
//! 4. one **report** line per session (`"type": "report"`) appended
//!    after the run, carrying the session's rendered `TraceReport` JSON
//!    verbatim — the byte-identity oracle `tnet replay` checks against.
//!
//! [`ExchangeWriter`] keeps one byte buffer and renders every line
//! straight into it. A probe line, and a decision line up to its
//! evidence, is put together on the stack and appended in one copy; the
//! evidence is escaped into the buffer after it. Their bytes are
//! guaranteed identical to what the vendored `serde_json` shim prints
//! for the same fields as a `Value`, so logs written before the writers
//! existed and logs written now compare byte for byte. The header line
//! is the header's `Value`, printed once; a report line is its fixed
//! prefix, the report `Value` printed into the buffer, and a closing
//! brace. The buffer is handed to the underlying writer in chunks of
//! 64 KiB, on [`ExchangeWriter::flush`] and when the writer is dropped.
//!
//! `tracenet record --out` and every `--trace-log` write this format,
//! so any recorded run can be replayed, diffed and explained.
//!
//! Lines carry session (target index) attribution, so a `--jobs 8`
//! run's interleaved streams separate cleanly (see
//! [`ExchangeLog::events_for`]).
//!
//! Reading mirrors writing: probe and decision lines are read by
//! [`ProbeEvent::read_line`] and [`DecisionEvent::read_line`] straight
//! from the shim's pull tokenizer, and an [`ExchangeLog`] keeps only
//! where each session's lines are, decoding them when asked. The header
//! (opaque `options` included) is read as a `Value`. A report body,
//! which must be an object, is built as a tree, rendered compact into
//! a [`Value::Raw`] and the tree dropped, so no report tree outlives
//! its line. On the 4-ISP log that is 3.2 MB of text where the
//! trees took 20.7 MB of heap. [`ExchangeLog::report_for`] still hands
//! out a `&Value`, because collector-bench's replay workload calls it
//! and prints the result: the raw value prints its text verbatim and
//! compares equal to the tree it was read from, but has no members to
//! index, so a caller that needs the fields calls [`Value::to_tree`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use inet::Addr;
use serde_json::{json, Value};
use wire::Protocol;

use crate::decision::DecisionEvent;
use crate::event::{protocol_from_label, protocol_label, ProbeEvent};
use crate::read::{self, Field, Key, Line};
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
            "options": &self.options,
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

/// How many bytes [`ExchangeWriter`] collects before it hands them to
/// its writer in one `write_all`.
const CHUNK: usize = 64 * 1024;

/// Writes an exchange log line by line. The header goes out at
/// construction; probe/decision lines stream during the run; report
/// lines are appended afterwards.
///
/// Every line is rendered straight into one byte buffer, which is handed
/// to the writer whenever it holds 64 KiB, on
/// [`flush`](ExchangeWriter::flush), and on drop.
pub struct ExchangeWriter<W: Write + Send> {
    /// Rendered lines not yet handed to `out`. Allocated at twice
    /// `CHUNK`, so no line shorter than a chunk grows it.
    buf: Vec<u8>,
    out: W,
    /// The first error `out` returned while taking a chunk, kept for
    /// [`flush`](ExchangeWriter::flush) to report.
    error: Option<io::Error>,
}

impl<W: Write + Send> ExchangeWriter<W> {
    /// Wraps a writer and writes the header line.
    pub fn new(writer: W, header: &ExchangeHeader) -> io::Result<ExchangeWriter<W>> {
        let mut w = ExchangeWriter { buf: Vec::with_capacity(2 * CHUNK), out: writer, error: None };
        serde_json::write_compact(&mut w.buf, &header.to_json());
        w.end_line();
        match w.error.take() {
            Some(e) => Err(e),
            None => Ok(w),
        }
    }

    /// Writes one probe line (no `"type"` key).
    pub fn write_probe(&mut self, event: &ProbeEvent) {
        event.render(&mut self.buf);
        self.end_line();
    }

    /// Writes one decision line.
    pub fn write_decision(&mut self, decision: &DecisionEvent) {
        decision.render(&mut self.buf);
        self.end_line();
    }

    /// Appends one session's rendered report, verbatim.
    pub fn write_report(&mut self, session: u64, report: &Value) {
        // The wrapper is written around the report, so the report tree
        // is never copied into a wrapping `Value`.
        self.buf.extend_from_slice(br#"{"type":"report","session":"#);
        serde_json::write_u64(&mut self.buf, session);
        self.buf.extend_from_slice(br#","report":"#);
        serde_json::write_compact(&mut self.buf, report);
        self.buf.push(b'}');
        self.end_line();
    }

    fn end_line(&mut self) {
        self.buf.push(b'\n');
        if self.buf.len() >= CHUNK {
            self.hand_over();
        }
    }

    /// Hands the buffered lines to the writer. An unwritable log must
    /// not take the collection session down, so a failure only drops
    /// the lines and is kept for `flush` to report.
    fn hand_over(&mut self) {
        if let Err(e) = self.out.write_all(&self.buf) {
            self.error.get_or_insert(e);
        }
        self.buf.clear();
    }

    /// Hands every buffered line to the writer and flushes it. Fails with
    /// the first error the writer returned since the last flush, if any.
    pub fn flush(&mut self) -> io::Result<()> {
        self.hand_over();
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl<W: Write + Send> Drop for ExchangeWriter<W> {
    /// Hands over what is still buffered, as a `BufWriter` does when it
    /// is dropped; an error is ignored.
    fn drop(&mut self) {
        let _ = self.out.write_all(&self.buf);
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

/// A checked exchange log: its header and reports, and an index of
/// where each session's probe and decision lines sit in the log text.
///
/// [`parse`](ExchangeLog::parse) reads every line once and fails on the
/// first bad one, but keeps only the byte offset of each probe and
/// decision line. [`events_for`](ExchangeLog::events_for) and
/// [`decisions_for`](ExchangeLog::decisions_for) decode one session's
/// lines from the text each time they are called, and each report is
/// kept as its compact text, so a log costs its text plus about 8 bytes
/// per line and its reports' text, not a decoded copy of every event
/// and report.
#[derive(Clone, Debug)]
pub struct ExchangeLog<'a> {
    /// The run configuration.
    pub header: ExchangeHeader,
    /// The report lines, `(session, report)` in file order, each report
    /// a [`Value::Raw`].
    reports: Vec<(u64, Value)>,
    /// The log text the offsets point into: borrowed by
    /// [`parse`](ExchangeLog::parse), owned by
    /// [`load`](ExchangeLog::load).
    text: Cow<'a, str>,
    probes: LineIndex,
    decisions: LineIndex,
    /// Each session's first report line, as an index into `reports`.
    report_at: HashMap<u64, usize>,
}

/// The byte offsets of one kind of line, grouped by session in file
/// order. Lines without a session tag are only counted.
#[derive(Clone, Debug, Default)]
struct LineIndex {
    by_session: HashMap<u64, Vec<usize>>,
    lines: usize,
}

impl LineIndex {
    fn add(&mut self, session: Option<u64>, offset: usize) {
        self.lines += 1;
        if let Some(session) = session {
            self.by_session.entry(session).or_default().push(offset);
        }
    }

    /// The offsets of `session`'s lines, in file order.
    fn of(&self, session: u64) -> &[usize] {
        self.by_session.get(&session).map_or(&[], Vec::as_slice)
    }
}

impl<'a> ExchangeLog<'a> {
    /// Parses a whole exchange log, validating every line. Line numbers
    /// in errors are 1-based. The log borrows `text`.
    pub fn parse(text: &'a str) -> Result<ExchangeLog<'a>, String> {
        ExchangeLog::index(Cow::Borrowed(text))
    }

    /// Reads and parses an exchange log from `path`. The log owns the
    /// text.
    pub fn load(path: &std::path::Path) -> Result<ExchangeLog<'static>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ExchangeLog::index(Cow::Owned(text))
    }

    fn index(text: Cow<'a, str>) -> Result<ExchangeLog<'a>, String> {
        let base = text.as_ptr() as usize;
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (n, first) = lines.next().ok_or("empty exchange log")?;
        let head: Value =
            serde_json::from_str(first).map_err(|e| format!("line {}: not JSON: {e}", n + 1))?;
        let header =
            ExchangeHeader::from_json(&head).map_err(|e| format!("line {}: {e}", n + 1))?;

        let mut probes = LineIndex::default();
        let mut decisions = LineIndex::default();
        let mut reports = Vec::new();
        let mut report_at = HashMap::new();
        for (n, text) in lines {
            let at = |e: String| format!("line {}: {e}", n + 1);
            let offset = text.as_ptr() as usize - base;
            let mut line = Line::default();
            line.read(text).map_err(|e| at(format!("not JSON: {e}")))?;
            match line[Key::Type].as_str() {
                None => probes.add(ProbeEvent::from_line(&line).map_err(at)?.session, offset),
                Some("decision") => {
                    decisions.add(DecisionEvent::check_line(&line).map_err(at)?.session, offset)
                }
                Some("report") => {
                    let session = line[Key::Session]
                        .as_u64()
                        .ok_or_else(|| at("report without session".into()))?;
                    let report = match line.take(Key::Report) {
                        Field::Null => return Err(at("report without body".into())),
                        Field::Raw(report) if report.as_str().starts_with('{') => {
                            Value::Raw(report)
                        }
                        _ => return Err(at("report body must be an object".into())),
                    };
                    report_at.entry(session).or_insert(reports.len());
                    reports.push((session, report));
                }
                Some("header") => return Err(at("duplicate header".into())),
                Some(other) => return Err(at(format!("unknown line type {other:?}"))),
            }
        }
        for offsets in probes.by_session.values_mut().chain(decisions.by_session.values_mut()) {
            offsets.shrink_to_fit();
        }
        Ok(ExchangeLog { header, reports, text, probes, decisions, report_at })
    }

    /// The probe events of one session, in emission order, decoded from
    /// the log text as the iterator advances.
    pub fn events_for(&self, session: u64) -> impl Iterator<Item = ProbeEvent> + '_ {
        self.probes.of(session).iter().map(|&at| {
            ProbeEvent::read_line(read::line_at(&self.text, at)).expect("parse checked the line")
        })
    }

    /// The decisions of one session, in emission order, decoded from the
    /// log text as the iterator advances.
    pub fn decisions_for(&self, session: u64) -> impl Iterator<Item = DecisionEvent> + '_ {
        self.decisions.of(session).iter().map(|&at| {
            DecisionEvent::read_line(read::line_at(&self.text, at)).expect("parse checked the line")
        })
    }

    /// How many probe events one session has, from the index alone.
    pub fn event_count(&self, session: u64) -> usize {
        self.probes.of(session).len()
    }

    /// How many probe lines the log holds, with or without a session.
    pub fn event_total(&self) -> usize {
        self.probes.lines
    }

    /// The recorded report of one session, if the log carries one (the
    /// first, if it carries several). It is a [`Value::Raw`]: it prints
    /// and compares as the recorded tree, but has no members to index.
    pub fn report_for(&self, session: u64) -> Option<&Value> {
        self.report_at.get(&session).map(|&i| &self.reports[i].1)
    }

    /// Every report line, `(session, report)` in file order, each report
    /// as [`report_for`](ExchangeLog::report_for) gives it.
    pub fn reports(&self) -> &[(u64, Value)] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionVerdict;
    use crate::event::{Phase, ProbeOutcome};
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
            outcome: ProbeOutcome::TtlExceeded { from: "10.0.1.1".parse().unwrap() },
            phase: Some(Phase::Trace),
            cause: None,
            timeout_cause: None,
        }
    }

    fn probe_line(event: &ProbeEvent) -> String {
        let mut line = String::new();
        event.write_line(&mut line);
        line
    }

    /// A writer whose bytes stay readable while an `ExchangeWriter`
    /// (or a sink sharing one) still owns it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Shared {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
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
        let out = Shared::default();
        let mut w = ExchangeWriter::new(out.clone(), &header()).unwrap();
        w.write_probe(&ev(0, 1));
        w.write_decision(&decision(0));
        w.write_probe(&ev(1, 2));
        w.write_report(0, &json!({"probes": 7}));
        w.write_report(1, &json!({"probes": 9}));
        w.flush().unwrap();
        let text = out.text();

        let log = ExchangeLog::parse(&text).unwrap();
        assert_eq!(log.header, header());
        assert_eq!(log.events_for(0).collect::<Vec<_>>(), [ev(0, 1)]);
        assert_eq!(log.events_for(1).collect::<Vec<_>>(), [ev(1, 2)]);
        assert_eq!(log.decisions_for(0).collect::<Vec<_>>(), [decision(0)]);
        assert_eq!(log.event_total(), 2);
        assert_eq!(log.report_for(1), Some(&json!({"probes": 9})));
        assert!(log.report_for(7).is_none());
    }

    #[test]
    fn per_session_lookups_match_a_filter_over_the_whole_log() {
        let out = Shared::default();
        let mut w = ExchangeWriter::new(out.clone(), &header()).unwrap();
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
        let text = out.text();
        let log = ExchangeLog::parse(&text).unwrap();

        let lines: Vec<&str> = text.lines().skip(1).collect();
        for session in [0, 1, 2, 3, 7] {
            let events: Vec<_> = log.events_for(session).collect();
            let want: Vec<_> = lines
                .iter()
                .filter_map(|l| ProbeEvent::read_line(l).ok())
                .filter(|e| e.session == Some(session))
                .collect();
            assert_eq!(events, want, "session {session}");
            assert_eq!(log.event_count(session), want.len(), "session {session}");
            let decisions: Vec<_> = log.decisions_for(session).collect();
            let want: Vec<_> = lines
                .iter()
                .filter(|l| l.starts_with(r#"{"type":"decision""#))
                .map(|l| DecisionEvent::read_line(l).unwrap())
                .filter(|d| d.session == Some(session))
                .collect();
            assert_eq!(decisions, want, "session {session}");
        }
        assert_eq!(log.event_total(), sessions.len() + 1, "the untagged probe counts too");
        assert_eq!(log.events_for(2).map(|e| e.ttl).collect::<Vec<_>>(), [1, 3, 6]);
        assert_eq!(log.report_for(1), Some(&json!({"probes": 2})), "first report wins");
        assert_eq!(log.report_for(0), Some(&json!({"probes": 3})));
        assert!(log.report_for(2).is_none());
    }

    #[test]
    fn exchange_sink_interleaves_probes_and_decisions() {
        let out = Shared::default();
        let writer = Arc::new(Mutex::new(ExchangeWriter::new(out.clone(), &header()).unwrap()));
        let handle = SinkHandle::new(ExchangeSink::new(Arc::clone(&writer)));
        handle.emit(&ev(0, 1));
        handle.emit_decision(&decision(0));
        assert_eq!(out.text(), "", "lines stay buffered until a flush");
        handle.flush().unwrap();
        let flushed = out.text();
        assert_eq!(flushed.lines().count(), 3, "the sink's flush hands over every line");
        writer.lock().unwrap().write_report(0, &json!({"probes": 1}));
        writer.lock().unwrap().flush().unwrap();

        let text = out.text();
        assert!(text.starts_with(&flushed));
        let log = ExchangeLog::parse(&text).unwrap();
        assert_eq!(log.event_total(), 1);
        assert_eq!(log.decisions_for(0).count(), 1);
        assert_eq!(log.reports().len(), 1);
    }

    #[test]
    fn full_chunks_are_handed_over_and_the_rest_on_drop() {
        let out = Shared::default();
        let mut w = ExchangeWriter::new(out.clone(), &header()).unwrap();
        let line = probe_line(&ev(0, 1)).len() + 1;
        let mut written = out.text().len();
        let mut lines = 0;
        while written == 0 {
            w.write_probe(&ev(0, 1));
            lines += 1;
            written = out.text().len();
        }
        assert!(written >= CHUNK, "a chunk goes out whole ({written} bytes)");
        assert!(written < CHUNK + line, "and as soon as it is full ({written} bytes)");
        w.write_probe(&ev(0, 2));
        assert_eq!(out.text().len(), written, "the next line waits for the next chunk");
        drop(w);
        let text = out.text();
        let log = ExchangeLog::parse(&text).unwrap();
        assert_eq!(log.event_total(), lines + 1, "dropping the writer handed over the rest");
    }

    /// A writer that fails every write.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_hand_over_is_reported_by_the_next_flush() {
        let mut w = ExchangeWriter::new(Broken, &header()).unwrap();
        w.write_probe(&ev(0, 1));
        assert_eq!(w.flush().unwrap_err().to_string(), "disk full");
        assert!(w.flush().is_ok(), "nothing is left to hand over");
        while w.buf.len() < CHUNK - 512 {
            w.write_probe(&ev(0, 1));
        }
        // These lines fill the chunk; handing it over fails and drops
        // them, and the session goes on.
        for _ in 0..4 {
            w.write_probe(&ev(0, 1));
        }
        assert!(w.buf.len() < CHUNK);
        assert_eq!(w.flush().unwrap_err().to_string(), "disk full");
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

        for body in [json!(null), json!(5), json!([1]), json!("x")] {
            let report = json!({"type": "report", "session": 0, "report": &body});
            let text = format!("{}\n{report}\n", header().to_json());
            let want = if body.is_null() { "without body" } else { "must be an object" };
            assert!(ExchangeLog::parse(&text).unwrap_err().contains(want), "{report}");
        }
    }

    #[test]
    fn parse_names_the_line_of_an_outcome_no_prober_returns() {
        let good = probe_line(&ev(0, 1));
        let cases = [
            (
                good.replace(r#""from":"10.0.1.1""#, "\"from\":null"),
                "from: ttl_exceeded outcome without a source address",
            ),
            (
                good.replace(r#""outcome":"ttl_exceeded""#, r#""outcome":"timeout""#),
                "from: timeout outcome with a source address",
            ),
            (
                good.replace(r#""unreach":null"#, r#""unreach":"host""#),
                "unreach: ttl_exceeded outcome with an unreachable flavour",
            ),
            (
                good.replace(r#""outcome":"ttl_exceeded""#, r#""outcome":"unreachable""#),
                "unreach: unreachable outcome without a flavour",
            ),
            (
                good.replace(r#""outcome":"ttl_exceeded""#, r#""outcome":"timeout""#)
                    .replace(r#""from":"10.0.1.1""#, "\"from\":null")
                    .replace(r#""unreach":null"#, r#""unreach":"net""#),
                "unreach: timeout outcome with an unreachable flavour",
            ),
        ];
        for (bad, why) in cases {
            assert_ne!(bad, good);
            let text = format!("{}\n{good}\n{good}\n{bad}\n{good}\n", header().to_json());
            assert_eq!(ExchangeLog::parse(&text).err(), Some(format!("line 4: {why}")));
        }
    }
}
