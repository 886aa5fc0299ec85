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
//!    verbatim — the byte-identity oracle `tracenet replay` checks against.
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
//! Reading mirrors writing. [`ExchangeReader`] reads a log in one pass
//! from any `BufRead` and checks every line: the header (opaque
//! `options` included) as a `Value`, probe and decision lines through
//! the same typed line reader as [`ProbeEvent::read_line`] and
//! [`DecisionEvent::read_line`], straight from the shim's pull
//! tokenizer, and a report body, which must be an object, built as a
//! tree, rendered compact into a [`Value::Raw`] and the tree dropped.
//! It keeps nothing of a line once it is read, so `tracenet replay`,
//! `diff` and `explain` stream a log through it and keep only what they
//! use.
//!
//! [`ExchangeLog`] is the replay seam: `probe::ReplayProber::for_session`
//! builds one session's script from it, as collector-bench's replay
//! workload does for every session of a log it holds in memory. Built
//! on the same reader, it borrows the text and keeps each session's
//! first report as compact text and its runs of consecutive lines: one
//! run per session in a `--jobs 1` log, and at most one 8-byte run per
//! line in an interleaved one. [`ExchangeLog::report_for`] hands out a
//! `&Value`, because collector-bench's replay workload calls it and
//! prints the result: the raw value prints its text verbatim and
//! compares equal to the tree it was read from, but has no members to
//! index, so a caller that needs the fields calls [`Value::to_tree`].

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::{Arc, Mutex};

use inet::Addr;
use serde_json::{json, Value};
use wire::Protocol;

use crate::decision::DecisionEvent;
use crate::event::ProbeEvent;
use crate::line::{Fixed, LineOut};
use crate::read::{Field, Key, Line, LineType};
use crate::sink::EventSink;

/// The exchange-log format version this crate writes and reads.
/// Bump on any incompatible change to the line vocabulary; readers
/// reject other versions instead of misparsing them.
pub const FORMAT_VERSION: u64 = 1;

/// The format tag every header carries, guarding against feeding some
/// other JSONL stream to the replay tools.
pub const FORMAT_NAME: &str = "tracenet-exchange";

labels! {
    /// The header line's own keys, in the order it prints them after
    /// `type`, with `vantage` and `proto` from [`Key`] between `version`
    /// and `targets`. They are not [`Key`]s: that table sizes the field
    /// array of every probe and decision line read.
    pub(crate) enum HeaderKey {
        Format = "format",
        Version = "version",
        Targets = "targets",
        Jobs = "jobs",
        Options = "options",
    }
}

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
        let targets: Vec<String> = self.targets.iter().map(|t| t.to_string()).collect();
        json!({
            (Key::Type.label()): LineType::Header.label(),
            (HeaderKey::Format.label()): FORMAT_NAME,
            (HeaderKey::Version.label()): self.version,
            (Key::Vantage.label()): self.vantage.to_string(),
            (Key::Proto.label()): self.protocol.label(),
            (HeaderKey::Targets.label()): targets,
            (HeaderKey::Jobs.label()): self.jobs,
            (HeaderKey::Options.label()): &self.options,
        })
    }

    /// Parses a header back from its [`ExchangeHeader::to_json`]
    /// rendering, rejecting unknown formats and versions.
    pub fn from_json(v: &Value) -> Result<ExchangeHeader, String> {
        if v[Key::Type.label()].as_str() != Some(LineType::Header.label()) {
            return Err("header: first line must have \"type\": \"header\"".into());
        }
        let format = v[HeaderKey::Format.label()].as_str().unwrap_or("?");
        if format != FORMAT_NAME {
            return Err(format!("header: unknown format {format:?}"));
        }
        let version =
            v[HeaderKey::Version.label()].as_u64().ok_or("header: version must be a number")?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "header: unsupported format version {version} (this reader supports {FORMAT_VERSION})"
            ));
        }
        let vantage: Addr = v[Key::Vantage.label()]
            .as_str()
            .ok_or("header: vantage must be a string")?
            .parse()
            .map_err(|e| format!("header: vantage: {e}"))?;
        let proto_label = v[Key::Proto.label()].as_str().ok_or("header: proto must be a string")?;
        let protocol = Protocol::from_label(proto_label)
            .ok_or_else(|| format!("header: unknown proto {proto_label:?}"))?;
        let targets = v[HeaderKey::Targets.label()]
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
            jobs: v[HeaderKey::Jobs.label()].as_u64().unwrap_or(1),
            options: v[HeaderKey::Options.label()].clone(),
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
        let mut f = Fixed::open(Key::Type);
        f.label(LineType::Report.label());
        f.key(Key::Session);
        f.uint(session);
        f.key(Key::Report);
        self.buf.fixed(&f);
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

/// One checked line of an exchange log after its header.
#[derive(Clone, Debug, PartialEq)]
pub enum Entry {
    /// A probe line.
    Probe(ProbeEvent),
    /// A decision line.
    Decision(DecisionEvent),
    /// A report line.
    Report {
        /// The session the report belongs to.
        session: u64,
        /// The report body, a [`Value::Raw`] holding its compact text.
        report: Value,
    },
}

/// Reads an exchange log in one pass from any [`BufRead`], checking every
/// line as it goes: the header when it is opened, then one [`Entry`] per
/// probe, decision and report line, with the line's 1-based number.
/// Blank lines are skipped. Every error names its line (`line N: …`),
/// and nothing of a line is kept once it has been read, so a log can be
/// streamed through it without holding its text.
pub struct ExchangeReader<R> {
    /// The run configuration, from the header line.
    pub header: ExchangeHeader,
    lines: Lines<R>,
}

/// The non-blank lines of a [`BufRead`], one at a time, with their
/// numbers and byte offsets.
struct Lines<R> {
    input: R,
    /// The line last read, with its line end.
    buf: String,
    /// The number of the line last read, 1-based.
    number: usize,
    /// Where the line last read starts.
    start: usize,
}

impl<R: BufRead> Lines<R> {
    /// The next non-blank line and its number, without its line end, as
    /// [`str::lines`] splits it; `None` at the end of the input.
    fn next(&mut self) -> Result<Option<(usize, &str)>, String> {
        loop {
            self.start += self.buf.len();
            self.buf.clear();
            let read = self.input.read_line(&mut self.buf);
            read.map_err(|e| format!("line {}: {e}", self.number + 1))?;
            if self.buf.is_empty() {
                return Ok(None);
            }
            self.number += 1;
            if !line_text(&self.buf).trim().is_empty() {
                return Ok(Some((self.number, line_text(&self.buf))));
            }
        }
    }
}

/// A line without its `\n` or `\r\n`.
fn line_text(line: &str) -> &str {
    match line.strip_suffix('\n') {
        Some(line) => line.strip_suffix('\r').unwrap_or(line),
        None => line,
    }
}

impl<R: BufRead> ExchangeReader<R> {
    /// Reads and checks the header line.
    pub fn new(input: R) -> Result<ExchangeReader<R>, String> {
        let mut lines = Lines { input, buf: String::new(), number: 0, start: 0 };
        let (n, first) = lines.next()?.ok_or("empty exchange log")?;
        let head: Value =
            serde_json::from_str(first).map_err(|e| format!("line {n}: not JSON: {e}"))?;
        let header = ExchangeHeader::from_json(&head).map_err(|e| format!("line {n}: {e}"))?;
        Ok(ExchangeReader { header, lines })
    }

    /// Where the line of the entry last read starts, in bytes from the
    /// start of the input.
    fn offset(&self) -> usize {
        self.lines.start
    }
}

impl<R: BufRead> Iterator for ExchangeReader<R> {
    type Item = Result<(usize, Entry), String>;

    /// Reads and checks the next line.
    fn next(&mut self) -> Option<Self::Item> {
        let (n, text) = match self.lines.next() {
            Ok(Some(line)) => line,
            Ok(None) => return None,
            Err(e) => return Some(Err(e)),
        };
        let at = |e: String| format!("line {n}: {e}");
        let mut line = Line::default();
        let entry = match line.read(text) {
            Err(e) => Err(at(format!("not JSON: {e}"))),
            Ok(()) => match line[Key::Type].as_str() {
                None => ProbeEvent::from_line(&line).map(Entry::Probe).map_err(at),
                Some(kind) => match LineType::from_label(kind) {
                    Some(LineType::Decision) => {
                        DecisionEvent::from_line(&mut line).map(Entry::Decision).map_err(at)
                    }
                    Some(LineType::Report) => report(&mut line).map_err(at),
                    Some(LineType::Header) => Err(at("duplicate header".into())),
                    None => Err(at(format!("unknown line type {kind:?}"))),
                },
            },
        };
        Some(entry.map(|entry| (n, entry)))
    }
}

/// The report a report line's members describe.
fn report(line: &mut Line<'_>) -> Result<Entry, String> {
    let session = line[Key::Session].as_u64().ok_or("report without session")?;
    match line.take(Key::Report) {
        Field::Null => Err("report without body".into()),
        Field::Raw(report) if report.as_str().starts_with('{') => {
            Ok(Entry::Report { session, report: Value::Raw(report) })
        }
        _ => Err("report body must be an object".into()),
    }
}

/// A checked exchange log: its header, and where each session's probe
/// and decision lines sit in the log text and what its report says.
///
/// [`parse`](ExchangeLog::parse) reads every line once through an
/// [`ExchangeReader`] and fails on the first bad one. Of each session it
/// keeps only its *runs*, the stretches of consecutive lines it wrote,
/// and its first report. [`events_for`](ExchangeLog::events_for) walks
/// one session's runs and decodes its probe lines from the text each
/// time it is called. A `--jobs 1` log holds one run per session, so a
/// log costs its text, its reports' compact text and a few dozen bytes
/// per session; a run takes 8 bytes, so an interleaved log costs at most
/// 8 bytes more per line.
#[derive(Clone, Debug)]
pub struct ExchangeLog<'a> {
    /// The run configuration.
    pub header: ExchangeHeader,
    /// The log text the runs point into.
    text: &'a str,
    sessions: HashMap<u64, SessionLines>,
}

/// Where one session's lines are.
#[derive(Clone, Debug, Default)]
struct SessionLines {
    /// Its runs of probe and decision lines, in file order.
    runs: Vec<Run>,
    /// Its first report, a [`Value::Raw`].
    report: Option<Value>,
}

/// Consecutive probe and decision lines of one session: the byte offset
/// of the first and the number of lines, packed into 8 bytes. A longer
/// stretch is split into several runs.
#[derive(Clone, Copy, Debug)]
struct Run(u64);

impl Run {
    const LINE_BITS: u32 = 16;
    const MAX_LINES: usize = (1 << Run::LINE_BITS) - 1;

    fn new(start: usize, lines: usize) -> Run {
        Run((start as u64) << Run::LINE_BITS | lines as u64)
    }

    fn start(self) -> usize {
        (self.0 >> Run::LINE_BITS) as usize
    }

    fn lines(self) -> usize {
        (self.0 & Run::MAX_LINES as u64) as usize
    }
}

/// The run being read: its session, start and lines so far.
struct OpenRun {
    session: u64,
    start: usize,
    lines: usize,
}

impl OpenRun {
    fn close(self, sessions: &mut HashMap<u64, SessionLines>) {
        let lines = sessions.entry(self.session).or_default();
        if lines.runs.capacity() == 0 {
            // Most sessions hold one run: allocate for exactly one.
            lines.runs.reserve_exact(1);
        }
        lines.runs.push(Run::new(self.start, self.lines));
    }
}

impl<'a> ExchangeLog<'a> {
    /// Parses a whole exchange log, validating every line. Line numbers
    /// in errors are 1-based. The log borrows `text`.
    pub fn parse(text: &'a str) -> Result<ExchangeLog<'a>, String> {
        let mut reader = ExchangeReader::new(text.as_bytes())?;
        let mut sessions = HashMap::new();
        let mut open: Option<OpenRun> = None;
        while let Some(entry) = reader.next() {
            let (n, entry) = entry?;
            let session = match entry {
                Entry::Probe(event) => event.session,
                Entry::Decision(decision) => decision.session,
                Entry::Report { session, report } => {
                    let lines: &mut SessionLines = sessions.entry(session).or_default();
                    lines.report.get_or_insert(report);
                    None
                }
            };
            match (open.as_mut(), session) {
                (Some(run), Some(session))
                    if run.session == session && run.lines < Run::MAX_LINES =>
                {
                    run.lines += 1;
                }
                _ => {
                    if let Some(run) = open.take() {
                        run.close(&mut sessions);
                    }
                    let start = reader.offset();
                    if start as u64 >= 1 << (64 - Run::LINE_BITS) {
                        return Err(format!("line {n}: log too long to index"));
                    }
                    open = session.map(|session| OpenRun { session, start, lines: 1 });
                }
            }
        }
        if let Some(run) = open {
            run.close(&mut sessions);
        }
        // A no-op for a session with one run.
        for lines in sessions.values_mut() {
            lines.runs.shrink_to_fit();
        }
        Ok(ExchangeLog { header: reader.header, text, sessions })
    }

    /// The probe events of one session, in emission order, decoded from
    /// the log text as the iterator advances. A decision line in the
    /// writer's layout is passed over unread; any other line is read
    /// once, and decoded if it has no `type`.
    pub fn events_for(&self, session: u64) -> impl Iterator<Item = ProbeEvent> + '_ {
        let runs = self.sessions.get(&session).map_or(&[][..], |s| &s.runs);
        let decision = DecisionEvent::start();
        runs.iter()
            .flat_map(move |run| {
                self.text[run.start()..].lines().filter(|l| !l.trim().is_empty()).take(run.lines())
            })
            .filter(move |l| !l.as_bytes().starts_with(decision.as_bytes()))
            .filter_map(|text| {
                let mut line = Line::default();
                line.read(text).expect("parse checked the line");
                let probe = line[Key::Type].is_null();
                probe.then(|| ProbeEvent::from_line(&line).expect("parse checked the line"))
            })
    }

    /// The recorded report of one session, if the log carries one (the
    /// first, if it carries several). It is a [`Value::Raw`]: it prints
    /// and compares as the recorded tree, but has no members to index.
    pub fn report_for(&self, session: u64) -> Option<&Value> {
        self.sessions.get(&session)?.report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionVerdict;
    use crate::event::{Cause, ProbeOutcome};
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
            cause: Some(Cause::TraceCollection),
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

    /// Every entry after the header, as the reader yields them.
    fn entries(text: &str) -> Vec<Entry> {
        let reader = ExchangeReader::new(text.as_bytes()).unwrap();
        reader.map(|entry| entry.unwrap().1).collect()
    }

    fn decision(session: u64) -> DecisionEvent {
        DecisionEvent {
            session: Some(session),
            hop: 1,
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

        let refusals = [
            ("proto", json!("sctp"), "header: unknown proto \"sctp\""),
            ("vantage", json!(7), "header: vantage must be a string"),
            ("targets", json!("10.0.9.6"), "header: targets must be an array"),
            ("targets", json!(["10.0.9.6", 7]), "header: target must be a string"),
            ("targets", json!(["10.0.9.6", "10.0.9"]), "header: target: malformed IPv4 address"),
        ];
        for (key, value, want) in refusals {
            let mut v = header().to_json();
            v[key] = value;
            assert_eq!(ExchangeHeader::from_json(&v).unwrap_err(), want, "{key}");
        }
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

        let report = |session, probes| Entry::Report { session, report: json!({"probes": probes}) };
        assert_eq!(
            entries(&text),
            [
                Entry::Probe(ev(0, 1)),
                Entry::Decision(decision(0)),
                Entry::Probe(ev(1, 2)),
                report(0, 7),
                report(1, 9),
            ]
        );
        let log = ExchangeLog::parse(&text).unwrap();
        assert_eq!(log.header, header());
        assert_eq!(log.events_for(0).collect::<Vec<_>>(), [ev(0, 1)]);
        assert_eq!(log.events_for(1).collect::<Vec<_>>(), [ev(1, 2)]);
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
        }
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
        assert_eq!(
            entries(&text),
            [
                Entry::Probe(ev(0, 1)),
                Entry::Decision(decision(0)),
                Entry::Report { session: 0, report: json!({"probes": 1}) },
            ]
        );
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
        let probes = entries(&out.text()).into_iter().filter(|e| matches!(e, Entry::Probe(_)));
        assert_eq!(probes.count(), lines + 1, "dropping the writer handed over the rest");
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

    #[test]
    fn the_reader_yields_each_line_with_its_number() {
        let (probe, report) =
            (probe_line(&ev(1, 2)), r#"{"type":"report","session":1,"report":{}}"#);
        let mut decided = String::new();
        decision(0).write_line(&mut decided);
        let text = format!("\n{}\r\n{probe}\n  \n{decided}\r\n{report}", header().to_json());
        let mut reader = ExchangeReader::new(text.as_bytes()).unwrap();
        assert_eq!(reader.header, header());
        let entries: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(
            entries,
            [
                (3, Entry::Probe(ev(1, 2))),
                (5, Entry::Decision(decision(0))),
                (6, Entry::Report { session: 1, report: json!({}) }),
            ]
        );
    }

    #[test]
    fn the_reader_names_the_line_that_is_not_utf8() {
        let mut bytes = format!("{}\n{}\n", header().to_json(), probe_line(&ev(0, 1))).into_bytes();
        bytes.extend_from_slice(b"{\"tick\":\xff}\n");
        let reader = ExchangeReader::new(&bytes[..]).unwrap();
        let err = reader.map(|entry| entry.map(drop)).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert_eq!(err, "line 3: stream did not contain valid UTF-8");
    }

    /// A session's lines past the most one run holds go on in a second
    /// run, and its lookups walk both, each to its own end.
    #[test]
    fn a_long_stretch_of_one_session_is_split_into_runs() {
        let decision =
            r#"{"type":"decision","session":0,"hop":1,"phase":"explore","verdict":"collected"}"#;
        let mut text = format!("{}\n{}\n", header().to_json(), probe_line(&ev(0, 8)));
        for _ in 0..Run::MAX_LINES + 2 {
            text.push_str(decision);
            text.push('\n');
        }
        text.push_str(&probe_line(&ev(0, 9)));
        let log = ExchangeLog::parse(&text).unwrap();
        let runs = &log.sessions[&0].runs;
        assert_eq!(runs.iter().map(|r| r.lines()).collect::<Vec<_>>(), [Run::MAX_LINES, 4]);
        assert_eq!(log.events_for(0).map(|e| e.ttl).collect::<Vec<_>>(), [8, 9]);
    }
}
