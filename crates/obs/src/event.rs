//! The probe event record and its attribution vocabulary.

use std::fmt;

use inet::Addr;
use wire::Protocol;

use crate::line::{Fixed, LineOut};
use crate::read::{self, Field, Key, Line};

/// The session phase a probe was sent from — the paper's three-stage
/// pipeline (§3): trace collection, subnet positioning, subnet
/// exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Hop discovery along the path to the destination.
    Trace,
    /// Subnet positioning (Algorithm 2): distances, pivots, ingresses.
    Position,
    /// Subnet exploration (Algorithm 1): growing and probing candidates.
    Explore,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 3] = [Phase::Trace, Phase::Position, Phase::Explore];

    /// Stable snake_case label used in JSON and metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Trace => "trace",
            Phase::Position => "position",
            Phase::Explore => "explore",
        }
    }

    /// Parses a [`Phase::label`] rendering.
    pub fn from_label(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == s)
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Trace => 0,
            Phase::Position => 1,
            Phase::Explore => 2,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a probe was sent: either an algorithmic step of
/// positioning/trace collection, or the paper heuristic (H1–H9, §3.4)
/// whose check needed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Hop probe of the initial trace collection.
    TraceCollection,
    /// Perceived-distance search around the trace TTL (§3.3).
    DistanceSearch,
    /// On-path check: does the hop answer at distance-1 with TTL
    /// expired?
    OnPathCheck,
    /// Pivot designation via the /31-or-/30 mate (Algorithm 2 line 4).
    PivotDesignation,
    /// In-use check of a candidate pivot beyond the trace hop.
    InUseCheck,
    /// Ingress-router query at pivot distance - 1.
    IngressQuery,
    /// H1: stop-and-shrink on inconsistent member distance. H1 itself
    /// sends no probes; the variant exists so logs can attribute
    /// H1-triggered re-examinations.
    H1,
    /// H2: upper-bound subnet contiguity (pivot-distance aliveness).
    H2,
    /// H3: single contra-pivot admission at distance - 1.
    H3,
    /// H4: lower-bound contiguity at distance - 2.
    H4,
    /// H5: /31 mate shortcut before a full /30 scan.
    H5,
    /// H6: fixed entry points — the below-distance probe shared with H3.
    H6,
    /// H7: router contiguity via the pivot's mate.
    H7,
    /// H8: mate ingress comparison at distance - 1.
    H8,
    /// H9: boundary reduction. Sends no probes; kept for log
    /// completeness.
    H9,
}

impl Cause {
    /// Every cause, in declaration order.
    pub const ALL: [Cause; 15] = [
        Cause::TraceCollection,
        Cause::DistanceSearch,
        Cause::OnPathCheck,
        Cause::PivotDesignation,
        Cause::InUseCheck,
        Cause::IngressQuery,
        Cause::H1,
        Cause::H2,
        Cause::H3,
        Cause::H4,
        Cause::H5,
        Cause::H6,
        Cause::H7,
        Cause::H8,
        Cause::H9,
    ];

    /// Stable snake_case label used in JSON and metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            Cause::TraceCollection => "trace_collection",
            Cause::DistanceSearch => "distance_search",
            Cause::OnPathCheck => "on_path_check",
            Cause::PivotDesignation => "pivot_designation",
            Cause::InUseCheck => "in_use_check",
            Cause::IngressQuery => "ingress_query",
            Cause::H1 => "h1",
            Cause::H2 => "h2",
            Cause::H3 => "h3",
            Cause::H4 => "h4",
            Cause::H5 => "h5",
            Cause::H6 => "h6",
            Cause::H7 => "h7",
            Cause::H8 => "h8",
            Cause::H9 => "h9",
        }
    }

    /// Parses a [`Cause::label`] rendering.
    pub fn from_label(s: &str) -> Option<Cause> {
        Cause::ALL.into_iter().find(|c| c.label() == s)
    }

    /// The session phase this cause's probes and decisions belong to:
    /// trace collection, one of Algorithm 2's positioning steps, or a
    /// growth heuristic of exploration.
    pub fn phase(self) -> Phase {
        match self {
            Cause::TraceCollection => Phase::Trace,
            Cause::DistanceSearch
            | Cause::OnPathCheck
            | Cause::PivotDesignation
            | Cause::InUseCheck
            | Cause::IngressQuery => Phase::Position,
            Cause::H1
            | Cause::H2
            | Cause::H3
            | Cause::H4
            | Cause::H5
            | Cause::H6
            | Cause::H7
            | Cause::H8
            | Cause::H9 => Phase::Explore,
        }
    }

    /// The paper heuristic number, for H1–H9 causes.
    pub fn heuristic(self) -> Option<u8> {
        match self {
            Cause::H1 => Some(1),
            Cause::H2 => Some(2),
            Cause::H3 => Some(3),
            Cause::H4 => Some(4),
            Cause::H5 => Some(5),
            Cause::H6 => Some(6),
            Cause::H7 => Some(7),
            Cause::H8 => Some(8),
            Cause::H9 => Some(9),
            _ => None,
        }
    }

    pub(crate) fn index(self) -> usize {
        Cause::ALL.iter().position(|c| *c == self).expect("cause is in ALL")
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a timed-out attempt drew no (accepted) reply, when the prober can
/// tell: the simulator's silent verdicts, plus [`StrayReply`] (a reply
/// arrived but failed validation). Live probers that cannot see into the
/// network leave it unset.
///
/// [`StrayReply`]: TimeoutCause::StrayReply
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeoutCause {
    /// The probe's source address is unknown to the network.
    UnknownSource,
    /// No route covered the destination.
    NoRoute,
    /// A filtering firewall swallowed the probe.
    Filtered,
    /// Delivered to an unassigned address; no unreachable configured.
    Unassigned,
    /// Delivered but the owner's response policy stayed silent.
    PolicySilence,
    /// TTL expired at a router that does not answer for this protocol.
    TtlExpiredSilently,
    /// A reply was due but the router's rate limiter had no token.
    RateLimited,
    /// The probe could not be decoded on the wire.
    Malformed,
    /// An injected fault dropped the probe on the forward path.
    ForwardLoss,
    /// An injected fault lost the reply on the reverse path.
    ReplyLoss,
    /// Every next-hop link was down (flap or withdrawal).
    LinkDown,
    /// A reply came back but was rejected by probe validation.
    StrayReply,
}

impl TimeoutCause {
    /// Every cause, in declaration order.
    pub const ALL: [TimeoutCause; 12] = [
        TimeoutCause::UnknownSource,
        TimeoutCause::NoRoute,
        TimeoutCause::Filtered,
        TimeoutCause::Unassigned,
        TimeoutCause::PolicySilence,
        TimeoutCause::TtlExpiredSilently,
        TimeoutCause::RateLimited,
        TimeoutCause::Malformed,
        TimeoutCause::ForwardLoss,
        TimeoutCause::ReplyLoss,
        TimeoutCause::LinkDown,
        TimeoutCause::StrayReply,
    ];

    /// Stable snake_case label used in JSON and metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            TimeoutCause::UnknownSource => "unknown_source",
            TimeoutCause::NoRoute => "no_route",
            TimeoutCause::Filtered => "filtered",
            TimeoutCause::Unassigned => "unassigned",
            TimeoutCause::PolicySilence => "policy_silence",
            TimeoutCause::TtlExpiredSilently => "ttl_expired_silently",
            TimeoutCause::RateLimited => "rate_limited",
            TimeoutCause::Malformed => "malformed",
            TimeoutCause::ForwardLoss => "forward_loss",
            TimeoutCause::ReplyLoss => "reply_loss",
            TimeoutCause::LinkDown => "link_down",
            TimeoutCause::StrayReply => "stray_reply",
        }
    }

    /// Parses a [`TimeoutCause::label`] rendering.
    pub fn from_label(s: &str) -> Option<TimeoutCause> {
        TimeoutCause::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Whether this cause is an injected transient fault (loss or a link
    /// held down) rather than a steady-state property of the topology.
    /// These are the causes that degrade a hop's completeness and feed
    /// the adaptive retry signal.
    pub fn is_fault(self) -> bool {
        matches!(self, TimeoutCause::ForwardLoss | TimeoutCause::ReplyLoss | TimeoutCause::LinkDown)
    }

    pub(crate) fn index(self) -> usize {
        TimeoutCause::ALL.iter().position(|c| *c == self).expect("cause is in ALL")
    }
}

impl fmt::Display for TimeoutCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which flavour of ICMP unreachable a [`ProbeOutcome::Unreachable`]
/// attempt drew.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnreachReason {
    /// ICMP host unreachable.
    Host,
    /// ICMP network unreachable.
    Net,
    /// ICMP administratively prohibited.
    AdminProhibited,
}

impl UnreachReason {
    /// Every reason, in declaration order.
    pub const ALL: [UnreachReason; 3] =
        [UnreachReason::Host, UnreachReason::Net, UnreachReason::AdminProhibited];

    /// Stable snake_case label used in JSON.
    pub fn label(self) -> &'static str {
        match self {
            UnreachReason::Host => "host",
            UnreachReason::Net => "net",
            UnreachReason::AdminProhibited => "admin_prohibited",
        }
    }

    /// Parses an [`UnreachReason::label`] rendering.
    pub fn from_label(s: &str) -> Option<UnreachReason> {
        UnreachReason::ALL.into_iter().find(|r| r.label() == s)
    }
}

impl fmt::Display for UnreachReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of a single probe, in the notation of the paper:
/// `⟨ip, ttl⟩ ↪ ⟨source, RESPONSE_MSG_TYPE⟩`. What a prober returns and
/// what a probe line records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// The probe reached its destination and was answered: an ICMP Echo
    /// Reply, an ICMP Port Unreachable (UDP probing) or a TCP RST. The
    /// paper writes this `ECHO_RPLY` regardless of the probe protocol.
    DirectReply {
        /// Source address of the reply.
        from: Addr,
    },
    /// The probe expired in transit: ICMP TTL Exceeded (`TTL_EXCD`).
    TtlExceeded {
        /// The reporting router's chosen source address.
        from: Addr,
    },
    /// Some other ICMP unreachable.
    Unreachable {
        /// Source of the error.
        from: Addr,
        /// Which unreachable flavor.
        kind: UnreachReason,
    },
    /// No (valid) response arrived.
    Timeout,
}

impl ProbeOutcome {
    /// The snake_case label of each kind, in declaration order: the
    /// `outcome` value of a probe line and the metrics keys.
    pub(crate) const LABELS: [&'static str; 4] =
        ["direct_reply", "ttl_exceeded", "unreachable", "timeout"];

    /// `Some(src)` when this is a direct reply.
    pub fn direct_reply(self) -> Option<Addr> {
        match self {
            ProbeOutcome::DirectReply { from } => Some(from),
            _ => None,
        }
    }

    /// `Some(src)` when this is a TTL-exceeded.
    pub fn ttl_exceeded(self) -> Option<Addr> {
        match self {
            ProbeOutcome::TtlExceeded { from } => Some(from),
            _ => None,
        }
    }

    /// The replying address; `None` for a timeout.
    pub fn source(self) -> Option<Addr> {
        match self {
            ProbeOutcome::DirectReply { from }
            | ProbeOutcome::TtlExceeded { from }
            | ProbeOutcome::Unreachable { from, .. } => Some(from),
            ProbeOutcome::Timeout => None,
        }
    }

    /// Whether this outcome is silence-like for the purposes of H7/H8's
    /// mate fallback: a timeout or a host-unreachable.
    pub fn is_silentish(self) -> bool {
        matches!(
            self,
            ProbeOutcome::Timeout | ProbeOutcome::Unreachable { kind: UnreachReason::Host, .. }
        )
    }

    /// The kind's snake_case label, as a probe line's `outcome` and the
    /// metrics keys write it.
    pub fn label(self) -> &'static str {
        ProbeOutcome::LABELS[self.index()]
    }

    pub(crate) fn index(self) -> usize {
        match self {
            ProbeOutcome::DirectReply { .. } => 0,
            ProbeOutcome::TtlExceeded { .. } => 1,
            ProbeOutcome::Unreachable { .. } => 2,
            ProbeOutcome::Timeout => 3,
        }
    }

    /// The outcome a probe line's `outcome` label, `from` and `unreach`
    /// describe. A reply needs its source and a timeout has none; the
    /// unreachable flavour is set on exactly the unreachables.
    fn from_fields(
        label: &str,
        from: Option<Addr>,
        unreach: Option<UnreachReason>,
    ) -> Result<ProbeOutcome, String> {
        let outcome = match (label, from) {
            ("timeout", None) => ProbeOutcome::Timeout,
            ("timeout", Some(_)) => {
                return Err("from: timeout outcome with a source address".into())
            }
            ("direct_reply", Some(from)) => ProbeOutcome::DirectReply { from },
            ("ttl_exceeded", Some(from)) => ProbeOutcome::TtlExceeded { from },
            ("unreachable", Some(from)) => ProbeOutcome::Unreachable {
                from,
                kind: unreach.ok_or("unreach: unreachable outcome without a flavour")?,
            },
            (_, None) if ProbeOutcome::LABELS.contains(&label) => {
                return Err(format!("from: {label} outcome without a source address"))
            }
            _ => return Err(format!("outcome: unknown value {label:?}")),
        };
        if unreach.is_some() && !matches!(outcome, ProbeOutcome::Unreachable { .. }) {
            return Err(format!("unreach: {label} outcome with an unreachable flavour"));
        }
        Ok(outcome)
    }
}

impl fmt::Display for ProbeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeOutcome::DirectReply { from } => write!(f, "ECHO_RPLY from {from}"),
            ProbeOutcome::TtlExceeded { from } => write!(f, "TTL_EXCD from {from}"),
            ProbeOutcome::Unreachable { from, kind } => {
                write!(f, "UNREACH({kind:?}) from {from}")
            }
            ProbeOutcome::Timeout => write!(f, "timeout"),
        }
    }
}

/// One packet put on the wire, with full attribution. This is the unit
/// of the JSONL probe log and the input to the metrics registry.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeEvent {
    /// Simulator clock (or wall-relative counter for live probers) at
    /// send time.
    pub tick: u64,
    /// Session (target index) attribution, set by batch drivers so
    /// interleaved logs from parallel workers stay separable. `None` for
    /// standalone probers outside any session.
    pub session: Option<u64>,
    /// Source address of the probing session.
    pub vantage: Addr,
    /// Probed destination.
    pub dst: Addr,
    /// Probe TTL.
    pub ttl: u8,
    /// Probe protocol.
    pub protocol: Protocol,
    /// Flow discriminator (Paris keeps it 0 within a session).
    pub flow: u16,
    /// Zero-based wire attempt for this logical probe; > 0 means retry
    /// after silence.
    pub attempt: u8,
    /// What came back for this attempt: its kind, the replying address
    /// and, for an unreachable, its flavour.
    pub outcome: ProbeOutcome,
    /// Originating algorithm step or heuristic, if attributed. The
    /// probe's phase follows from it ([`ProbeEvent::phase`]).
    pub cause: Option<Cause>,
    /// Why a [`ProbeOutcome::Timeout`] attempt drew nothing, when known.
    /// `None` for replies and for probers that cannot attribute silence.
    pub timeout_cause: Option<TimeoutCause>,
}

pub(crate) fn protocol_label(p: Protocol) -> &'static str {
    match p {
        Protocol::Icmp => "icmp",
        Protocol::Udp => "udp",
        Protocol::Tcp => "tcp",
    }
}

pub(crate) fn protocol_from_label(s: &str) -> Option<Protocol> {
    match s {
        "icmp" => Some(Protocol::Icmp),
        "udp" => Some(Protocol::Udp),
        "tcp" => Some(Protocol::Tcp),
        _ => None,
    }
}

impl ProbeEvent {
    /// The session phase the probe was sent in: its cause's, none for an
    /// unattributed probe.
    pub fn phase(&self) -> Option<Phase> {
        self.cause.map(Cause::phase)
    }

    /// Appends the event's JSONL line, without the newline, to `out`.
    ///
    /// The bytes are exactly what the vendored `serde_json` shim prints
    /// for the same fields as a `Value` (integers above 2^53 aside,
    /// which the shim rounds and this prints exactly): keys `tick`,
    /// `session`, `vantage`, `dst`, `ttl`, `proto`, `flow`, `attempt`,
    /// `outcome`, `from`, `phase`, `cause`, `timeout_cause`, `unreach`
    /// in that order, `null` for absent values; `outcome`, `from` and
    /// `unreach` are the outcome's kind, source and unreachable flavour,
    /// and `phase` is [`ProbeEvent::phase`]. The line is put together
    /// on the stack and appended in one copy; nothing is allocated
    /// beyond the growth of `out`.
    pub fn write_line(&self, out: &mut String) {
        self.render(out);
    }

    /// Appends the line to either kind of destination.
    pub(crate) fn render(&self, out: &mut impl LineOut) {
        let mut f = Fixed::new();
        f.raw("{\"tick\":");
        f.uint(self.tick);
        f.raw(",\"session\":");
        f.opt_uint(self.session);
        f.raw(",\"vantage\":");
        f.addr(self.vantage);
        f.raw(",\"dst\":");
        f.addr(self.dst);
        f.raw(",\"ttl\":");
        f.uint(self.ttl.into());
        f.raw(",\"proto\":");
        f.label(protocol_label(self.protocol));
        f.raw(",\"flow\":");
        f.uint(self.flow.into());
        f.raw(",\"attempt\":");
        f.uint(self.attempt.into());
        f.raw(",\"outcome\":");
        f.label(self.outcome.label());
        f.raw(",\"from\":");
        f.opt_addr(self.outcome.source());
        f.raw(",\"phase\":");
        f.opt_label(self.phase().map(Phase::label));
        f.raw(",\"cause\":");
        f.opt_label(self.cause.map(Cause::label));
        f.raw(",\"timeout_cause\":");
        f.opt_label(self.timeout_cause.map(TimeoutCause::label));
        f.raw(",\"unreach\":");
        let unreach = match self.outcome {
            ProbeOutcome::Unreachable { kind, .. } => Some(kind.label()),
            _ => None,
        };
        f.opt_label(unreach);
        f.raw("}");
        out.fixed(&f);
    }

    /// Reads an event back from its [`ProbeEvent::write_line`] rendering,
    /// checking every field. Keys may come in any order; a missing key
    /// reads as `null` and the first of duplicate keys wins. A line that
    /// is not JSON fails with `not JSON: ` and the parser's message.
    pub fn read_line(text: &str) -> Result<ProbeEvent, String> {
        let mut line = Line::default();
        line.read(text).map_err(|e| format!("not JSON: {e}"))?;
        ProbeEvent::from_line(&line)
    }

    /// The event a line's members describe. Fields are checked in a
    /// fixed order, so a line with several bad fields always names the
    /// same one; the outcome's fields are checked together, and last
    /// the logged phase against the one the cause gives.
    pub(crate) fn from_line(line: &Line<'_>) -> Result<ProbeEvent, String> {
        fn addr(f: &Field<'_>, what: &str) -> Result<Addr, String> {
            f.as_str()
                .ok_or_else(|| format!("{what}: expected string"))?
                .parse()
                .map_err(|e| format!("{what}: {e}"))
        }
        fn num(f: &Field<'_>, what: &str, max: u64) -> Result<u64, String> {
            let n = f.as_u64().ok_or_else(|| format!("{what}: expected unsigned integer"))?;
            if n > max {
                return Err(format!("{what}: {n} out of range"));
            }
            Ok(n)
        }

        let outcome_label =
            line[Key::Outcome].as_str().ok_or_else(|| "outcome: expected string".to_string())?;
        let proto_label =
            line[Key::Proto].as_str().ok_or_else(|| "proto: expected string".to_string())?;
        let phase = read::opt_label(&line[Key::Phase], "phase", Phase::from_label)?;
        let cause = read::opt_label(&line[Key::Cause], "cause", Cause::from_label)?;
        let timeout_cause =
            read::opt_label(&line[Key::TimeoutCause], "timeout_cause", TimeoutCause::from_label)?;
        let unreach = read::opt_label(&line[Key::Unreach], "unreach", UnreachReason::from_label)?;
        let from = match &line[Key::From] {
            Field::Null => None,
            f => Some(addr(f, "from")?),
        };
        let session = match &line[Key::Session] {
            Field::Null => None,
            s => Some(num(s, "session", u64::MAX)?),
        };
        let event = ProbeEvent {
            tick: num(&line[Key::Tick], "tick", u64::MAX)?,
            session,
            vantage: addr(&line[Key::Vantage], "vantage")?,
            dst: addr(&line[Key::Dst], "dst")?,
            ttl: num(&line[Key::Ttl], "ttl", u8::MAX as u64)? as u8,
            protocol: protocol_from_label(proto_label)
                .ok_or_else(|| format!("proto: unknown value {proto_label:?}"))?,
            flow: num(&line[Key::Flow], "flow", u16::MAX as u64)? as u16,
            attempt: num(&line[Key::Attempt], "attempt", u8::MAX as u64)? as u8,
            outcome: ProbeOutcome::from_fields(outcome_label, from, unreach)?,
            cause,
            timeout_cause,
        };
        read::check_phase(phase, event.phase())?;
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// The event's rendered line, parsed back into a `Value`.
    fn value(ev: &ProbeEvent) -> Value {
        let mut line = String::new();
        ev.write_line(&mut line);
        serde_json::from_str(&line).expect("a rendered line is JSON")
    }

    /// Reads a line rendered from `v`.
    fn read(v: &Value) -> Result<ProbeEvent, String> {
        ProbeEvent::read_line(&v.to_string())
    }

    fn sample() -> ProbeEvent {
        ProbeEvent {
            tick: 42,
            session: Some(3),
            vantage: a("10.0.0.1"),
            dst: a("10.0.9.6"),
            ttl: 4,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt: 1,
            outcome: ProbeOutcome::TtlExceeded { from: a("10.0.3.1") },
            cause: Some(Cause::H4),
            timeout_cause: None,
        }
    }

    #[test]
    fn every_cause_belongs_to_one_phase_of_the_pipeline() {
        let in_phase = |phase| Cause::ALL.into_iter().filter(move |c| c.phase() == phase);
        assert_eq!(in_phase(Phase::Trace).collect::<Vec<_>>(), [Cause::TraceCollection]);
        assert_eq!(in_phase(Phase::Position).count(), 5);
        assert!(in_phase(Phase::Explore).all(|c| c.heuristic().is_some()));
        assert_eq!(in_phase(Phase::Explore).count(), 9, "H1–H9");
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let ev = sample();
        assert_eq!(read(&value(&ev)).unwrap(), ev);

        let bare = ProbeEvent { cause: None, session: None, ..sample() };
        assert_eq!(read(&value(&bare)).unwrap(), bare);

        let timed_out = ProbeEvent {
            outcome: ProbeOutcome::Timeout,
            timeout_cause: Some(TimeoutCause::RateLimited),
            ..sample()
        };
        assert_eq!(read(&value(&timed_out)).unwrap(), timed_out);

        for kind in UnreachReason::ALL {
            let unreachable = ProbeEvent {
                outcome: ProbeOutcome::Unreachable { from: a("10.0.3.1"), kind },
                ..sample()
            };
            let v = value(&unreachable);
            assert_eq!(v["outcome"], "unreachable");
            assert_eq!(v["from"], "10.0.3.1");
            assert_eq!(v["unreach"], kind.label());
            assert_eq!(read(&v).unwrap(), unreachable);
        }

        // Logs written before timeout causes and session tags existed
        // parse as unattributed.
        let mut legacy = value(&sample());
        if let Value::Object(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "timeout_cause" && k != "session" && k != "unreach");
        }
        let parsed = read(&legacy).unwrap();
        assert_eq!(parsed.timeout_cause, None);
        assert_eq!(parsed.session, None);
    }

    #[test]
    fn read_line_rejects_bad_fields() {
        let mut v = value(&sample());
        v["outcome"] = serde_json::json!("exploded");
        assert!(read(&v).unwrap_err().contains("outcome"));

        let mut v = value(&sample());
        v["ttl"] = serde_json::json!(900);
        assert!(read(&v).unwrap_err().contains("ttl"));

        let mut v = value(&sample());
        v["phase"] = serde_json::json!("warp");
        assert!(read(&v).unwrap_err().contains("phase"));

        let mut v = value(&sample());
        assert_eq!(v["phase"], "explore", "an H4 probe is an exploration probe");
        v["phase"] = serde_json::json!("position");
        assert_eq!(read(&v).unwrap_err(), "phase: logged as position, derived as explore");
        v["phase"] = Value::Null;
        assert_eq!(read(&v).unwrap_err(), "phase: logged as null, derived as explore");
        let mut v = value(&ProbeEvent { cause: None, ..sample() });
        v["phase"] = serde_json::json!("trace");
        assert_eq!(read(&v).unwrap_err(), "phase: logged as trace, derived as null");

        let mut v = value(&sample());
        v["timeout_cause"] = serde_json::json!("gremlins");
        assert!(read(&v).unwrap_err().contains("timeout_cause"));

        let mut v = value(&sample());
        v["unreach"] = serde_json::json!("teapot");
        assert!(read(&v).unwrap_err().contains("unreach"));
    }

    #[test]
    fn outcome_accessors() {
        let d = ProbeOutcome::DirectReply { from: a("1.2.3.4") };
        assert_eq!(d.direct_reply(), Some(a("1.2.3.4")));
        assert_eq!(d.ttl_exceeded(), None);
        let t = ProbeOutcome::TtlExceeded { from: a("5.6.7.8") };
        assert_eq!(t.ttl_exceeded(), Some(a("5.6.7.8")));
        assert_eq!(t.direct_reply(), None);
        let u = ProbeOutcome::Unreachable { from: a("9.9.9.9"), kind: UnreachReason::Net };
        assert_eq!(u.source(), Some(a("9.9.9.9")));
        assert_eq!(ProbeOutcome::Timeout.source(), None);
        let labels = [d, t, u, ProbeOutcome::Timeout].map(ProbeOutcome::label);
        assert_eq!(labels, ProbeOutcome::LABELS);
    }

    #[test]
    fn silentish_classification() {
        assert!(ProbeOutcome::Timeout.is_silentish());
        assert!(ProbeOutcome::Unreachable { from: a("1.1.1.1"), kind: UnreachReason::Host }
            .is_silentish());
        assert!(!ProbeOutcome::Unreachable { from: a("1.1.1.1"), kind: UnreachReason::Net }
            .is_silentish());
        assert!(!ProbeOutcome::DirectReply { from: a("1.1.1.1") }.is_silentish());
    }

    #[test]
    fn display_is_paperese() {
        assert_eq!(
            ProbeOutcome::DirectReply { from: a("1.2.3.4") }.to_string(),
            "ECHO_RPLY from 1.2.3.4"
        );
        assert_eq!(
            ProbeOutcome::TtlExceeded { from: a("1.2.3.4") }.to_string(),
            "TTL_EXCD from 1.2.3.4"
        );
        assert_eq!(ProbeOutcome::Timeout.to_string(), "timeout");
    }

    #[test]
    fn labels_roundtrip_for_all_variants() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        for c in Cause::ALL {
            assert_eq!(Cause::from_label(c.label()), Some(c));
        }
        for t in TimeoutCause::ALL {
            assert_eq!(TimeoutCause::from_label(t.label()), Some(t));
        }
        for r in UnreachReason::ALL {
            assert_eq!(UnreachReason::from_label(r.label()), Some(r));
        }
        assert_eq!(Cause::H7.heuristic(), Some(7));
        assert_eq!(Cause::IngressQuery.heuristic(), None);
        assert!(TimeoutCause::ForwardLoss.is_fault());
        assert!(TimeoutCause::LinkDown.is_fault());
        assert!(!TimeoutCause::RateLimited.is_fault());
        assert!(!TimeoutCause::PolicySilence.is_fault());
    }
}
