//! Probe outcomes — the observation vocabulary of the paper's heuristics.

use std::fmt;

use inet::Addr;
use obs::UnreachReason;

/// The outcome of a single probe, in the notation of the paper:
/// `⟨ip, ttl⟩ ↪ ⟨source, RESPONSE_MSG_TYPE⟩`.
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

    /// Whether this outcome is silence-like for the purposes of H7/H8's
    /// mate fallback: a timeout or a host-unreachable.
    pub fn is_silentish(self) -> bool {
        matches!(
            self,
            ProbeOutcome::Timeout | ProbeOutcome::Unreachable { kind: UnreachReason::Host, .. }
        )
    }
}

impl ProbeOutcome {
    /// Splits the outcome into the observability vocabulary: the outcome
    /// kind plus the replying address, if any.
    pub(crate) fn observed(&self) -> (obs::Outcome, Option<Addr>) {
        match *self {
            ProbeOutcome::DirectReply { from } => (obs::Outcome::DirectReply, Some(from)),
            ProbeOutcome::TtlExceeded { from } => (obs::Outcome::TtlExceeded, Some(from)),
            ProbeOutcome::Unreachable { from, .. } => (obs::Outcome::Unreachable, Some(from)),
            ProbeOutcome::Timeout => (obs::Outcome::Timeout, None),
        }
    }

    /// The unreachable flavour, for event logs; `None` unless this is an
    /// [`ProbeOutcome::Unreachable`].
    pub(crate) fn unreach_reason(&self) -> Option<UnreachReason> {
        match *self {
            ProbeOutcome::Unreachable { kind, .. } => Some(kind),
            _ => None,
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn accessors() {
        let d = ProbeOutcome::DirectReply { from: a("1.2.3.4") };
        assert_eq!(d.direct_reply(), Some(a("1.2.3.4")));
        assert_eq!(d.ttl_exceeded(), None);
        let t = ProbeOutcome::TtlExceeded { from: a("5.6.7.8") };
        assert_eq!(t.ttl_exceeded(), Some(a("5.6.7.8")));
        assert_eq!(t.direct_reply(), None);
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
    fn unreach_reason_is_the_outcome_kind() {
        for kind in UnreachReason::ALL {
            let u = ProbeOutcome::Unreachable { from: a("1.1.1.1"), kind };
            assert_eq!(u.unreach_reason(), Some(kind));
        }
        assert_eq!(ProbeOutcome::Timeout.unreach_reason(), None);
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
}
