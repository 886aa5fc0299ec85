//! The probe event record and its attribution vocabulary.

use std::fmt;

use inet::Addr;
use wire::Protocol;

use crate::line;
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
    /// In-use check before admitting a candidate address.
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

/// What came back for one wire attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The probed address itself answered.
    DirectReply,
    /// An intermediate router sent TTL exceeded.
    TtlExceeded,
    /// A non-success ICMP unreachable.
    Unreachable,
    /// Silence (including replies rejected by validation).
    Timeout,
}

impl Outcome {
    /// Every outcome kind.
    pub const ALL: [Outcome; 4] =
        [Outcome::DirectReply, Outcome::TtlExceeded, Outcome::Unreachable, Outcome::Timeout];

    /// Stable snake_case label used in JSON and metrics keys.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::DirectReply => "direct_reply",
            Outcome::TtlExceeded => "ttl_exceeded",
            Outcome::Unreachable => "unreachable",
            Outcome::Timeout => "timeout",
        }
    }

    /// Parses an [`Outcome::label`] rendering.
    pub fn from_label(s: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.label() == s)
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Outcome::DirectReply => 0,
            Outcome::TtlExceeded => 1,
            Outcome::Unreachable => 2,
            Outcome::Timeout => 3,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a timed-out attempt drew no (accepted) reply, when the prober can
/// tell. Mirrors the simulator's silence reasons plus [`StrayReply`]
/// (a reply arrived but failed validation). Live probers that cannot see
/// into the network leave it unset.
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

/// Which flavour of ICMP unreachable an [`Outcome::Unreachable`] attempt
/// drew. The prober's outcomes carry it directly, so replay tools rebuild
/// the exact outcome from a log line.
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
    /// What came back for this attempt.
    pub outcome: Outcome,
    /// Replying address, when a reply was accepted.
    pub from: Option<Addr>,
    /// Originating phase, if the probe was sent inside a session phase.
    pub phase: Option<Phase>,
    /// Originating algorithm step or heuristic, if attributed.
    pub cause: Option<Cause>,
    /// Why a [`Outcome::Timeout`] attempt drew nothing, when known.
    /// `None` for replies and for probers that cannot attribute silence.
    pub timeout_cause: Option<TimeoutCause>,
    /// Which unreachable flavour an [`Outcome::Unreachable`] attempt
    /// drew, when the prober can tell. Replay rebuilds the exact probe
    /// outcome from this.
    pub unreach: Option<UnreachReason>,
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
    /// Appends the event's JSONL line, without the newline, to `out`.
    ///
    /// The bytes are exactly what the vendored `serde_json` shim prints
    /// for the same fields as a `Value` (integers above 2^53 aside,
    /// which the shim rounds and this prints exactly): keys `tick`,
    /// `session`, `vantage`, `dst`, `ttl`, `proto`, `flow`, `attempt`,
    /// `outcome`, `from`, `phase`, `cause`, `timeout_cause`, `unreach`
    /// in that order, `null` for absent values. Nothing is allocated
    /// beyond the growth of `out`.
    pub fn write_line(&self, out: &mut String) {
        out.push_str("{\"tick\":");
        line::uint(out, self.tick);
        out.push_str(",\"session\":");
        line::opt_uint(out, self.session);
        out.push_str(",\"vantage\":");
        line::addr(out, self.vantage);
        out.push_str(",\"dst\":");
        line::addr(out, self.dst);
        out.push_str(",\"ttl\":");
        line::uint(out, self.ttl.into());
        out.push_str(",\"proto\":");
        line::label(out, protocol_label(self.protocol));
        out.push_str(",\"flow\":");
        line::uint(out, self.flow.into());
        out.push_str(",\"attempt\":");
        line::uint(out, self.attempt.into());
        out.push_str(",\"outcome\":");
        line::label(out, self.outcome.label());
        out.push_str(",\"from\":");
        line::opt_addr(out, self.from);
        out.push_str(",\"phase\":");
        line::opt_label(out, self.phase.map(Phase::label));
        out.push_str(",\"cause\":");
        line::opt_label(out, self.cause.map(Cause::label));
        out.push_str(",\"timeout_cause\":");
        line::opt_label(out, self.timeout_cause.map(TimeoutCause::label));
        out.push_str(",\"unreach\":");
        line::opt_label(out, self.unreach.map(UnreachReason::label));
        out.push('}');
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
    /// same one.
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
        Ok(ProbeEvent {
            tick: num(&line[Key::Tick], "tick", u64::MAX)?,
            session,
            vantage: addr(&line[Key::Vantage], "vantage")?,
            dst: addr(&line[Key::Dst], "dst")?,
            ttl: num(&line[Key::Ttl], "ttl", u8::MAX as u64)? as u8,
            protocol: protocol_from_label(proto_label)
                .ok_or_else(|| format!("proto: unknown value {proto_label:?}"))?,
            flow: num(&line[Key::Flow], "flow", u16::MAX as u64)? as u16,
            attempt: num(&line[Key::Attempt], "attempt", u8::MAX as u64)? as u8,
            outcome: Outcome::from_label(outcome_label)
                .ok_or_else(|| format!("outcome: unknown value {outcome_label:?}"))?,
            from,
            phase,
            cause,
            timeout_cause,
            unreach,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

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
            vantage: "10.0.0.1".parse().unwrap(),
            dst: "10.0.9.6".parse().unwrap(),
            ttl: 4,
            protocol: Protocol::Icmp,
            flow: 0,
            attempt: 1,
            outcome: Outcome::TtlExceeded,
            from: Some("10.0.3.1".parse().unwrap()),
            phase: Some(Phase::Explore),
            cause: Some(Cause::H4),
            timeout_cause: None,
            unreach: None,
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let ev = sample();
        assert_eq!(read(&value(&ev)).unwrap(), ev);

        let bare = ProbeEvent { from: None, phase: None, cause: None, session: None, ..sample() };
        assert_eq!(read(&value(&bare)).unwrap(), bare);

        let timed_out = ProbeEvent {
            outcome: Outcome::Timeout,
            from: None,
            timeout_cause: Some(TimeoutCause::RateLimited),
            ..sample()
        };
        assert_eq!(read(&value(&timed_out)).unwrap(), timed_out);

        let unreachable = ProbeEvent {
            outcome: Outcome::Unreachable,
            from: Some("10.0.3.1".parse().unwrap()),
            unreach: Some(UnreachReason::AdminProhibited),
            ..sample()
        };
        assert_eq!(read(&value(&unreachable)).unwrap(), unreachable);

        // Logs written before timeout causes (PR 3) and session/unreach
        // tags (PR 4) existed parse as unattributed.
        let mut legacy = value(&sample());
        if let Value::Object(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "timeout_cause" && k != "session" && k != "unreach");
        }
        let parsed = read(&legacy).unwrap();
        assert_eq!(parsed.timeout_cause, None);
        assert_eq!(parsed.session, None);
        assert_eq!(parsed.unreach, None);
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
        v["timeout_cause"] = serde_json::json!("gremlins");
        assert!(read(&v).unwrap_err().contains("timeout_cause"));

        let mut v = value(&sample());
        v["unreach"] = serde_json::json!("teapot");
        assert!(read(&v).unwrap_err().contains("unreach"));
    }

    #[test]
    fn labels_roundtrip_for_all_variants() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        for c in Cause::ALL {
            assert_eq!(Cause::from_label(c.label()), Some(c));
        }
        for o in Outcome::ALL {
            assert_eq!(Outcome::from_label(o.label()), Some(o));
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
