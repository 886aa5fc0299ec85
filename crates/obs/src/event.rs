//! The probe event record and its attribution vocabulary.

use std::fmt;

use inet::Addr;
use wire::Protocol;

use crate::line::{Fixed, LineOut};
use crate::read::{self, Key, Line};

labels! {
    /// The session phase a probe was sent from — the paper's three-stage
    /// pipeline (§3): trace collection, subnet positioning, subnet
    /// exploration.
    pub enum Phase {
        /// Hop discovery along the path to the destination.
        Trace = "trace",
        /// Subnet positioning (Algorithm 2): distances, pivots, ingresses.
        Position = "position",
        /// Subnet exploration (Algorithm 1): growing and probing candidates.
        Explore = "explore",
    }
}

labels! {
    /// Why a probe was sent: either an algorithmic step of
    /// positioning/trace collection, or the paper heuristic (H1–H9, §3.4)
    /// whose check needed it.
    pub enum Cause {
        /// Hop probe of the initial trace collection.
        TraceCollection = "trace_collection",
        /// Perceived-distance search around the trace TTL (§3.3).
        DistanceSearch = "distance_search",
        /// On-path check: does the hop answer at distance-1 with TTL
        /// expired?
        OnPathCheck = "on_path_check",
        /// Pivot designation via the /31-or-/30 mate (Algorithm 2 line 4).
        PivotDesignation = "pivot_designation",
        /// In-use check of a candidate pivot beyond the trace hop.
        InUseCheck = "in_use_check",
        /// Ingress-router query at pivot distance - 1.
        IngressQuery = "ingress_query",
        /// H1: stop-and-shrink on inconsistent member distance. H1 itself
        /// sends no probes; the variant exists so logs can attribute
        /// H1-triggered re-examinations.
        H1 = "h1",
        /// H2: upper-bound subnet contiguity (pivot-distance aliveness).
        H2 = "h2",
        /// H3: single contra-pivot admission at distance - 1.
        H3 = "h3",
        /// H4: lower-bound contiguity at distance - 2.
        H4 = "h4",
        /// H5: /31 mate shortcut before a full /30 scan.
        H5 = "h5",
        /// H6: fixed entry points — the below-distance probe shared with H3.
        H6 = "h6",
        /// H7: router contiguity via the pivot's mate.
        H7 = "h7",
        /// H8: mate ingress comparison at distance - 1.
        H8 = "h8",
        /// H9: boundary reduction. Sends no probes; kept for log
        /// completeness.
        H9 = "h9",
    }
}

impl Cause {
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
}

labels! {
    /// Why a timed-out attempt drew no (accepted) reply, when the prober can
    /// tell: the simulator's silent verdicts, plus [`StrayReply`] (a reply
    /// arrived but failed validation). Live probers that cannot see into the
    /// network leave it unset.
    ///
    /// [`StrayReply`]: TimeoutCause::StrayReply
    pub enum TimeoutCause {
        /// The probe's source address is unknown to the network.
        UnknownSource = "unknown_source",
        /// No route covered the destination.
        NoRoute = "no_route",
        /// A filtering firewall swallowed the probe.
        Filtered = "filtered",
        /// Delivered to an unassigned address; no unreachable configured.
        Unassigned = "unassigned",
        /// Delivered but the owner's response policy stayed silent.
        PolicySilence = "policy_silence",
        /// TTL expired at a router that does not answer for this protocol.
        TtlExpiredSilently = "ttl_expired_silently",
        /// A reply was due but the router's rate limiter had no token.
        RateLimited = "rate_limited",
        /// The probe could not be decoded on the wire.
        Malformed = "malformed",
        /// An injected fault dropped the probe on the forward path.
        ForwardLoss = "forward_loss",
        /// An injected fault lost the reply on the reverse path.
        ReplyLoss = "reply_loss",
        /// Every next-hop link was down (flap or withdrawal).
        LinkDown = "link_down",
        /// A reply came back but was rejected by probe validation.
        StrayReply = "stray_reply",
    }
}

impl TimeoutCause {
    /// Whether this cause is an injected transient fault (loss or a link
    /// held down) rather than a steady-state property of the topology.
    /// These are the causes that degrade a hop's completeness and feed
    /// the adaptive retry signal.
    pub fn is_fault(self) -> bool {
        matches!(self, TimeoutCause::ForwardLoss | TimeoutCause::ReplyLoss | TimeoutCause::LinkDown)
    }
}

labels! {
    /// Which flavour of ICMP unreachable a [`ProbeOutcome::Unreachable`]
    /// attempt drew.
    pub enum UnreachReason {
        /// ICMP host unreachable.
        Host = "host",
        /// ICMP network unreachable.
        Net = "net",
        /// ICMP administratively prohibited.
        AdminProhibited = "admin_prohibited",
    }
}

labels! {
    /// The kind of a [`ProbeOutcome`], without its fields: a probe line's
    /// `outcome` and the metrics keys.
    pub(crate) enum OutcomeKind {
        DirectReply = "direct_reply",
        TtlExceeded = "ttl_exceeded",
        Unreachable = "unreachable",
        Timeout = "timeout",
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
        self.kind().label()
    }

    pub(crate) fn kind(self) -> OutcomeKind {
        match self {
            ProbeOutcome::DirectReply { .. } => OutcomeKind::DirectReply,
            ProbeOutcome::TtlExceeded { .. } => OutcomeKind::TtlExceeded,
            ProbeOutcome::Unreachable { .. } => OutcomeKind::Unreachable,
            ProbeOutcome::Timeout => OutcomeKind::Timeout,
        }
    }

    /// The outcome a probe line's `outcome` kind, `from` and `unreach`
    /// describe. A reply needs its source and a timeout has none; the
    /// unreachable flavour is set on exactly the unreachables.
    fn from_fields(
        kind: OutcomeKind,
        from: Option<Addr>,
        unreach: Option<UnreachReason>,
    ) -> Result<ProbeOutcome, String> {
        let outcome = match (kind, from) {
            (OutcomeKind::Timeout, None) => ProbeOutcome::Timeout,
            (OutcomeKind::Timeout, Some(_)) => {
                return Err(format!("from: {kind} outcome with a source address"))
            }
            (_, None) => return Err(format!("from: {kind} outcome without a source address")),
            (OutcomeKind::DirectReply, Some(from)) => ProbeOutcome::DirectReply { from },
            (OutcomeKind::TtlExceeded, Some(from)) => ProbeOutcome::TtlExceeded { from },
            (OutcomeKind::Unreachable, Some(from)) => ProbeOutcome::Unreachable {
                from,
                kind: unreach.ok_or("unreach: unreachable outcome without a flavour")?,
            },
        };
        if unreach.is_some() && kind != OutcomeKind::Unreachable {
            return Err(format!("unreach: {kind} outcome with an unreachable flavour"));
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
        let mut f = Fixed::open(Key::Tick);
        f.uint(self.tick);
        f.key(Key::Session);
        f.opt(self.session, Fixed::uint);
        f.key(Key::Vantage);
        f.addr(self.vantage);
        f.key(Key::Dst);
        f.addr(self.dst);
        f.key(Key::Ttl);
        f.uint(self.ttl.into());
        f.key(Key::Proto);
        f.label(self.protocol.label());
        f.key(Key::Flow);
        f.uint(self.flow.into());
        f.key(Key::Attempt);
        f.uint(self.attempt.into());
        f.key(Key::Outcome);
        f.label(self.outcome.label());
        f.key(Key::From);
        f.opt(self.outcome.source(), Fixed::addr);
        f.key(Key::Phase);
        f.opt(self.phase().map(Phase::label), Fixed::label);
        f.key(Key::Cause);
        f.opt(self.cause.map(Cause::label), Fixed::label);
        f.key(Key::TimeoutCause);
        f.opt(self.timeout_cause.map(TimeoutCause::label), Fixed::label);
        f.key(Key::Unreach);
        let unreach = match self.outcome {
            ProbeOutcome::Unreachable { kind, .. } => Some(kind.label()),
            _ => None,
        };
        f.opt(unreach, Fixed::label);
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
    /// same one: the outcome and protocol are checked for strings first
    /// and read later, the outcome's fields are checked together, and
    /// last the logged phase against the one the cause gives.
    pub(crate) fn from_line(line: &Line<'_>) -> Result<ProbeEvent, String> {
        line.str(Key::Outcome)?;
        line.str(Key::Proto)?;
        let phase = line.opt_label(Key::Phase, Phase::from_label)?;
        let cause = line.opt_label(Key::Cause, Cause::from_label)?;
        let timeout_cause = line.opt_label(Key::TimeoutCause, TimeoutCause::from_label)?;
        let unreach = line.opt_label(Key::Unreach, UnreachReason::from_label)?;
        let from = line.opt_addr(Key::From)?;
        let session = line.opt_uint(Key::Session)?;
        let event = ProbeEvent {
            tick: line.uint(Key::Tick, u64::MAX)?,
            session,
            vantage: line.addr(Key::Vantage)?,
            dst: line.addr(Key::Dst)?,
            ttl: line.uint(Key::Ttl, u8::MAX.into())? as u8,
            protocol: line.label(Key::Proto, Protocol::from_label)?,
            flow: line.uint(Key::Flow, u16::MAX.into())? as u16,
            attempt: line.uint(Key::Attempt, u8::MAX.into())? as u8,
            outcome: ProbeOutcome::from_fields(
                line.label(Key::Outcome, OutcomeKind::from_label)?,
                from,
                unreach,
            )?,
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
        assert_eq!(labels, OutcomeKind::ALL.map(OutcomeKind::label));
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
